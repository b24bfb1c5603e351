//! A steady-state token fetch takes no fresh pages: the upload's `b̂`
//! and the expansion's `â`, 32 MiB each at n = N = 2,048, are recycled
//! from one fetch to the next. The count read is the process-wide
//! `minflt` of `/proc/self/stat`, so this file holds one test and
//! nothing else: a test running beside it would fault its own pages
//! into the count.

use tiptoe_lwe::LweParams;
use tiptoe_math::rng::seeded_rng;
use tiptoe_underhood::{ClientKey, EncryptedSecret, Underhood};

/// Minor faults of this process so far (field 10 of `/proc/self/stat`),
/// or `None` where there is no `/proc` to read.
fn minor_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Field 2, the command name, may hold spaces; it ends at the last ')'.
    stat[stat.rfind(')')? + 1..].split_whitespace().nth(7)?.parse().ok()
}

#[test]
fn a_steady_state_fetch_takes_no_fresh_pages() {
    if minor_faults().is_none() {
        eprintln!("skipped: no /proc/self/stat to read the minor-fault count from");
        return;
    }
    let uh = Underhood::new(LweParams::ranking_text());
    let n = uh.lwe().n;
    assert_eq!((n, uh.outer().params().degree), (2048, 2048));
    let mut rng = seeded_rng(27);
    let key = ClientKey::generate(&uh, n, &mut rng);
    let mut fetch = || {
        let upload = EncryptedSecret::encrypt(&uh, &key, &mut rng);
        drop(upload.expand(&uh));
    };
    fetch();
    let before = minor_faults().expect("read once already");
    (0..3).for_each(|_| fetch());
    let faults = minor_faults().expect("read once already") - before;
    eprintln!("three steady-state fetches: {faults} minor faults");
    // One fresh buffer is 8,192 pages, and a fetch used to take two.
    assert!(faults < 1024, "three steady-state fetches took {faults} minor faults");
}
