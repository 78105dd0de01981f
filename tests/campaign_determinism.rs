//! Campaign engine acceptance tests (the cr-campaign tentpole):
//!
//! * a `--jobs 8` campaign produces **byte-identical** deterministic
//!   results to a serial run of the same spec;
//! * a warm rerun against a persisted cache is served almost entirely
//!   from the cache and never invokes the SAT solver;
//! * a warm rerun of the builtin campaign runs no emulation: every
//!   server, PoC and funnel row comes from the result table.

use cr_campaign::prelude::*;
use cr_campaign::{run_campaign_with_cache, AnalysisCache};
use std::path::PathBuf;
use std::sync::Mutex;

/// `cr_symex::solver_calls()` is process-wide; tests that count it (or
/// feed it) take this lock so the harness's parallelism can't bleed
/// solver calls across tests.
static SOLO: Mutex<()> = Mutex::new(());

fn solo() -> std::sync::MutexGuard<'static, ()> {
    SOLO.lock().unwrap_or_else(|e| e.into_inner())
}

/// A mixed-family spec that touches every task kind without taking
/// minutes: three SEH modules, one server, a small funnel, one oracle.
/// The deliberate duplicate task would be rejected by the validating
/// builder, so it is appended to the built spec directly — determinism
/// must hold even for degenerate task lists.
fn mixed_spec() -> CampaignSpec {
    let mut spec = CampaignSpec::builder()
        .name("determinism")
        .seed(2017)
        .seh("xmllite")
        .seh("jscript9")
        .server("nginx")
        .funnel(200)
        .poc("nginx")
        .build()
        .expect("valid base spec");
    spec.tasks.push(CampaignTask::SehAnalysis("xmllite".into()));
    spec
}

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cr-campaign-test-{tag}-{}", std::process::id()))
}

#[test]
fn sharded_campaign_is_byte_identical_to_serial() {
    let _guard = solo();
    let spec = mixed_spec();
    let serial = run_campaign(
        &spec,
        &EngineConfig {
            jobs: 1,
            retries: 0,
            ..EngineConfig::default()
        },
    )
    .expect("serial run");
    let sharded = run_campaign(
        &spec,
        &EngineConfig {
            jobs: 8,
            retries: 0,
            ..EngineConfig::default()
        },
    )
    .expect("sharded run");

    assert_eq!(serial.records.len(), spec.tasks.len());
    assert!(
        serial.records.iter().all(|r| r.result.is_some()),
        "all tasks succeed"
    );
    assert_eq!(serial.results_json(), sharded.results_json());
    // Scheduling metadata may differ; outcome counts must not.
    assert_eq!(serial.metrics.succeeded, sharded.metrics.succeeded);
    assert_eq!(sharded.metrics.failed, 0);
}

#[test]
fn warm_rerun_is_served_from_the_cache_without_the_solver() {
    let _guard = solo();
    let dir = scratch("warm");
    let _ = std::fs::remove_dir_all(&dir);
    let spec = CampaignSpec::builder()
        .name("warm")
        .seed(2017)
        .seh("xmllite")
        .seh("jscript9")
        .seh("user32")
        .build()
        .expect("warm spec is valid");
    let cfg = EngineConfig {
        jobs: 2,
        retries: 0,
        cache_dir: Some(dir.clone()),
        ..EngineConfig::default()
    };

    let cold = run_campaign(&spec, &cfg).expect("cold run");
    assert_eq!(
        cold.metrics.cache.module_hits, 0,
        "first run cannot hit the module cache"
    );

    let solver_before = cr_symex::solver_calls();
    let warm = run_campaign(&spec, &cfg).expect("warm run");
    let solver_after = cr_symex::solver_calls();

    assert_eq!(
        solver_after - solver_before,
        0,
        "warm rerun skips all symbolic execution"
    );
    let s = warm.metrics.cache;
    assert!(
        s.hit_rate() >= 0.95,
        "warm rerun must be served >=95% from the cache, got {:.3} ({s:?})",
        s.hit_rate()
    );
    assert_eq!(s.module_hits, 3);
    assert_eq!(s.module_misses, 0);
    assert_eq!(
        warm.results_json(),
        cold.results_json(),
        "cache must not change results"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failed_tasks_are_isolated_and_reported() {
    let _guard = solo();
    let spec = CampaignSpec::builder()
        .name("isolation")
        .seed(2017)
        .seh("no-such-module")
        .seh("xmllite")
        .build()
        .expect("isolation spec is valid");
    let report = run_campaign(
        &spec,
        &EngineConfig {
            jobs: 2,
            retries: 1,
            ..EngineConfig::default()
        },
    )
    .expect("campaign survives task panics");
    assert_eq!(report.metrics.failed, 1);
    assert_eq!(report.metrics.succeeded, 1);
    let bad = &report.records[0];
    assert!(bad.result.is_none());
    let err = bad.error.as_ref().expect("failed task carries its error");
    assert_eq!(err.kind, TaskErrorKind::Panic, "unknown module panics");
    assert!(err.message.contains("no-such-module"));
    assert!(report.degraded, "a result-less task degrades the report");
    assert_eq!(report.errors.panic, 2, "both attempts are counted");
    assert_eq!(
        report.metrics.tasks[0].attempts, 2,
        "one retry before giving up"
    );
    assert!(
        report.records[1].result.is_some(),
        "healthy task unaffected"
    );
}

#[test]
fn warm_builtin_campaign_runs_no_emulation() {
    let _guard = solo();
    let dir = scratch("builtin-warm");
    let _ = std::fs::remove_dir_all(&dir);
    let spec = CampaignSpec::builtin(2017);
    let cfg = EngineConfig {
        jobs: 2,
        retries: 0,
        cache_dir: Some(dir.clone()),
        ..EngineConfig::default()
    };

    let cold = run_campaign(&spec, &cfg).expect("cold run");
    assert!(!cold.degraded, "every builtin task succeeds");
    let c = cold.metrics.cache;
    assert_eq!(
        (c.result_hits, c.result_misses),
        (0, 9),
        "5 servers, 3 oracles and the funnel emulate once"
    );

    let solver_before = cr_symex::solver_calls();
    let warm = run_campaign(&spec, &cfg).expect("warm run");
    assert_eq!(cr_symex::solver_calls() - solver_before, 0);
    assert_eq!(warm.metrics.solver_calls, 0);
    let w = warm.metrics.cache;
    assert_eq!(
        (w.result_hits, w.result_misses),
        (9, 0),
        "every server, PoC and funnel row comes from the cache"
    );
    assert_eq!(
        (w.module_misses, w.scan_misses, w.arena_misses),
        (0, 0, 0),
        "and every SEH, scan and arena row"
    );
    assert_eq!(warm.results_json(), cold.results_json());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn funnel_rows_are_keyed_by_the_attempt_seed() {
    let _guard = solo();
    let funnel_at = |seed: u64| {
        CampaignSpec::builder()
            .name("funnel-seed")
            .seed(seed)
            .funnel(200)
            .build()
            .expect("funnel spec is valid")
    };
    let cfg = EngineConfig {
        retries: 0,
        ..EngineConfig::default()
    };
    let cache = AnalysisCache::new();

    let a = run_campaign_with_cache(&funnel_at(2017), &cfg, &cache);
    assert_eq!(a.metrics.cache.result_misses, 1);
    let b = run_campaign_with_cache(&funnel_at(2018), &cfg, &cache);
    assert_eq!(
        (b.metrics.cache.result_hits, b.metrics.cache.result_misses),
        (0, 1),
        "a row made at seed 2017 is never served at seed 2018"
    );
    assert_eq!(cache.result_len(), 2);
    let a2 = run_campaign_with_cache(&funnel_at(2017), &cfg, &cache);
    assert_eq!(
        (a2.metrics.cache.result_hits, a2.metrics.cache.result_misses),
        (1, 0)
    );
    assert_eq!(a2.results_json(), a.results_json());
}
