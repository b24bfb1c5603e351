#!/usr/bin/env bash
# The benchmark's one command. From the root of the repository:
#
#   benchmark/run.sh [--workload W]... [--seed S] [--runs N] [--smoke] [--out FILE]
#       build, run every workload (untraced, then the traced staged
#       replay), check outputs, print every metric, write a results file
#   benchmark/run.sh compare A.json B.json
#       apply each metric's bound to two results files
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload; the last line of output is the result
#
# Builds offline into $CARGO_TARGET_DIR (default: the repository's target/).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."

if [ "${1:-}" = compare ]; then
    exec python3 benchmark/report.py "$@"
fi

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
bin="$CARGO_TARGET_DIR/release/tiptoe-benchmark"

case " $* " in
*" --trace "*) exec "$bin" "$@" ;;
*) exec python3 benchmark/report.py run --bin "$bin" "$@" ;;
esac
