//! Fault-injection coverage of the caching pool's bitwise-zero acquire
//! contract: a `SkipZero` fault at `arena.acquire` leaks the previous
//! tenant's buffer (NaN-poisoned in debug builds) and the `workspace_zero`
//! checker must catch it on the very acquire that skipped the scrub.

use tg_check::fault::{FaultKind, FaultPlan};
use tg_check::{CheckConfig, CheckSession};
use tridiag_core::{CachingPool, WorkspacePool};

#[test]
fn skipped_scrub_of_poisoned_buffer_is_detected() {
    let mut pool = CachingPool::new();

    // Park a dirty buffer in the free list. In debug builds `release`
    // NaN-poisons it; in release builds the written payload itself is the
    // stale data the skipped scrub would leak.
    let mut m = pool.acquire(6, 6);
    m.fill(3.25);
    pool.release(m);

    let session = CheckSession::begin(CheckConfig::strict().with_faults(FaultPlan::single(
        "arena.acquire",
        FaultKind::SkipZero,
        0,
    )));
    let _leaked = pool.acquire(6, 6);
    let report = session.finish();

    assert_eq!(report.faults_fired.len(), 1, "{}", report.render());
    assert_eq!(report.faults_fired[0].site, "arena.acquire");
    let ws: Vec<_> = report
        .records
        .iter()
        .filter(|r| r.checker == "workspace_zero")
        .collect();
    assert!(!ws.is_empty(), "workspace checker never ran");
    assert!(
        ws.iter().any(|r| !r.pass),
        "leaked buffer not detected: {}",
        report.render()
    );
    #[cfg(debug_assertions)]
    assert!(
        report
            .records
            .iter()
            .any(|r| !r.pass && r.value.is_infinite()),
        "debug poison should surface as a non-finite entry: {}",
        report.render()
    );
}

#[test]
fn clean_acquires_pass_the_workspace_checker() {
    let mut pool = CachingPool::new();
    let mut m = pool.acquire(5, 5);
    m.fill(7.0);
    pool.release(m);

    let session = CheckSession::begin(CheckConfig::strict());
    let _clean = pool.acquire(5, 5);
    let report = session.finish();
    assert!(report.passed(), "{}", report.render());
    assert!(report.faults_fired.is_empty());
    assert!(
        report.records.iter().any(|r| r.checker == "workspace_zero"),
        "hit-path acquire must run the workspace checker: {}",
        report.render()
    );
}
