//! Spans and recorder events share one epoch. Its own test binary:
//! the process's first clock read must be the recorder's.

use std::time::Duration;

use tiptoe_obs::recorder::{self, EventKind};

#[test]
fn spans_and_recorder_events_share_one_epoch() {
    recorder::record(EventKind::Admitted, 0, 0, 0, 0);
    std::thread::sleep(Duration::from_millis(20));
    tiptoe_obs::enable();
    drop(tiptoe_obs::span("late"));
    recorder::record(EventKind::Finished, 0, 0, 0, 0);
    let span = tiptoe_obs::spans_snapshot().into_iter().find(|s| s.name == "late").expect("span");
    let events = recorder::events();
    let at = |kind| events.iter().find(|e| e.kind == kind).expect("event").at_us;
    assert!(at(EventKind::Finished) >= at(EventKind::Admitted) + 20_000, "{events:?}");
    let gap = span.start_us.abs_diff(at(EventKind::Finished));
    assert!(gap <= 2_000, "span start {} µs is {gap} µs off the recorder's axis", span.start_us);
}
