//! The measured half of the end-to-end benchmark; `perfbench/run.py`
//! drives it and prints the result. Subcommands:
//!
//! * `campaign` — one batch campaign as a CLI user runs it: build the
//!   spec, load the cache, run, save, write the report, then print one
//!   JSON summary line.
//! * `probe` — the per-layer decomposition of a batch workload, in a
//!   fresh process (see `probe.rs`).
//! * `serve` — serve-warm, one phase per process: the one-shot
//!   references, a timed setup, or the closed loop (see `serve.rs`).
//! * `table1` — Table I verdicts per finding, for the correctness gate.
//! * `profile` — the build profile, which must be `release`.

mod probe;
mod serve;
mod workloads;

use cr_campaign::{AnalysisCache, CampaignSpec, EngineConfig};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;
use workloads::Workload;

struct Args(BTreeMap<String, String>);

impl Args {
    fn parse(raw: &[String]) -> Args {
        let mut map = BTreeMap::new();
        let mut it = raw.iter();
        while let Some(flag) = it.next() {
            let key = flag
                .strip_prefix("--")
                .unwrap_or_else(|| fail(&format!("unexpected argument {flag:?}")));
            let value = if key == "trace" {
                "1".to_string()
            } else {
                it.next()
                    .unwrap_or_else(|| fail(&format!("--{key} needs a value")))
                    .clone()
            };
            map.insert(key.to_string(), value);
        }
        Args(map)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0.get(key).map(String::as_str)
    }

    fn req(&self, key: &str) -> &str {
        self.get(key)
            .unwrap_or_else(|| fail(&format!("missing --{key}")))
    }

    fn num<T: std::str::FromStr>(&self, key: &str) -> T {
        self.req(key)
            .parse()
            .unwrap_or_else(|_| fail(&format!("--{key} must be a number")))
    }

    fn path(&self, key: &str) -> Option<PathBuf> {
        self.get(key).map(PathBuf::from)
    }

    fn flag(&self, key: &str) -> bool {
        self.0.contains_key(key)
    }

    fn workload(&self) -> Workload {
        let name = self.req("workload");
        Workload::parse(name).unwrap_or_else(|| fail(&format!("unknown workload {name:?}")))
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(2);
}

/// Peak resident set (`VmHWM`) of this process, in kB.
fn vmhwm_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// CPU seconds this process has used so far, over all its threads
/// (`CLOCK_PROCESS_CPUTIME_ID`). Set-up is timed this way because it
/// takes milliseconds, and a single slice of time the host hands to
/// another virtual machine would dominate its wall time.
fn process_cpu_s() -> f64 {
    use std::os::raw::{c_int, c_long};
    #[repr(C)]
    struct Timespec {
        sec: c_long,
        nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two C longs on
    // Linux) for the whole call, and the clock id is a valid Linux clock.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 / 1e9
}

/// `{"name":value,...}` from metric pairs; non-finite values become 0.
fn metrics_json(metrics: &[(String, f64)]) -> String {
    let rows: Vec<String> = metrics
        .iter()
        .map(|(k, v)| format!("\"{k}\":{}", if v.is_finite() { *v } else { 0.0 }))
        .collect();
    format!("{{{}}}", rows.join(","))
}

fn write_file(path: &std::path::Path, text: &str) {
    std::fs::write(path, text)
        .unwrap_or_else(|e| fail(&format!("cannot write {}: {e}", path.display())));
}

fn engine_config(jobs: usize, cache_dir: Option<PathBuf>) -> EngineConfig {
    EngineConfig {
        jobs,
        cache_dir,
        ..EngineConfig::default()
    }
}

fn load_cache(dir: Option<&PathBuf>) -> AnalysisCache {
    match dir {
        Some(d) => AnalysisCache::load(d).unwrap_or_else(|e| fail(&format!("cache load: {e}"))),
        None => AnalysisCache::new(),
    }
}

fn cmd_campaign(args: &Args) {
    let spec = workloads::batch_spec(args.workload(), args.num("seed"));
    let cache_dir = args.path("cache");
    let cache = load_cache(cache_dir.as_ref());
    let setup_s = process_cpu_s();

    let trace_out = args.path("trace-out");
    if trace_out.is_some() {
        cr_trace::start();
        cr_trace::begin_run(&spec.name);
    }
    let cfg = engine_config(args.num("jobs"), cache_dir.clone());
    let report = cr_campaign::run_campaign_with_cache(&spec, &cfg, &cache);
    let mut stage_us = 0;
    if let Some(path) = &trace_out {
        let trace = cr_trace::finish();
        if trace.dropped > 0 {
            fail(&format!("trace ring dropped {} events", trace.dropped));
        }
        stage_us = probe::stage_attributed_us(&trace);
        write_file(path, &trace.to_jsonl());
    }
    if let Some(dir) = &cache_dir {
        cache
            .save(dir)
            .unwrap_or_else(|e| fail(&format!("cache save: {e}")));
    }
    let out = PathBuf::from(args.req("report"));
    write_file(&out, &report.to_report().to_json());
    write_file(&out.with_extension("results.json"), &report.results_json());

    let m = &report.metrics;
    println!(
        "{{\"setup_s\":{setup_s},\"task_wall_us\":{},\"stage_us\":{stage_us},\"cached_tasks\":{},\"vmhwm_kb\":{},\"layers\":{}}}",
        m.task_wall_us,
        m.cache.module_hits + m.cache.scan_hits + m.cache.arena_hits,
        vmhwm_kb(),
        metrics_json(&probe::campaign_metrics(&[m]))
    );
}

fn cmd_probe(args: &Args) {
    let seed: u64 = args.num("seed");
    let spec = workloads::batch_spec(args.workload(), seed);
    let cache = load_cache(args.path("cache").as_ref());
    let scratch = PathBuf::from(args.req("scratch"));

    let mut rec = probe::Recorder::new();
    let mut own = probe::Acc::default();
    probe::decompose_all(&mut rec, &mut own, &spec.tasks, &cache, spec.seed);
    let (mut layers, fallback) = probe::layer_metrics(&mut rec, &own, seed);
    layers.extend(probe::cache_io_metrics(&cache, &scratch.join("cache-io")));
    layers.extend(serve::solo_probe(&serve_probe_spec(&spec)));

    let self_us: Vec<(String, f64)> = own
        .self_us
        .iter()
        .map(|(k, v)| (k.to_string(), *v as f64))
        .collect();
    let fallback_task_ms: Vec<(String, f64)> = fallback
        .task_us
        .iter()
        .map(|(k, v)| (k.to_string(), *v as f64 / 1e3))
        .collect();
    let json = format!(
        "{{\"layers\":{},\"self_us\":{},\"fallback_task_ms\":{},\"tasks\":{},\"cached_tasks\":{},\"verdicts\":[{}],\"fallback_verdicts\":[{}],\"spans\":{}}}",
        metrics_json(&layers),
        metrics_json(&self_us),
        metrics_json(&fallback_task_ms),
        own.tasks,
        own.cached_tasks,
        own.verdicts.join(","),
        fallback.verdicts.join(","),
        rec.to_json()
    );
    write_file(&PathBuf::from(args.req("out")), &json);
}

/// Table I at finding granularity: per server, the syscalls classified
/// usable with service intact and the usable ones that killed service
/// (false positives).
fn cmd_table1() {
    let rows: Vec<String> = cr_targets::all_servers()
        .iter()
        .map(|t| {
            let report = cr_core::discover_server(t);
            let names = |service: bool| {
                let v: Vec<String> = report
                    .findings
                    .iter()
                    .filter(|f| {
                        f.classification
                            == cr_core::Classification::Usable {
                                service_after: service,
                            }
                    })
                    .map(|f| format!("\"{}\"", f.syscall_name))
                    .collect();
                v.join(",")
            };
            format!(
                "\"{}\":{{\"usable\":[{}],\"false_positives\":[{}]}}",
                report.server,
                names(true),
                names(false)
            )
        })
        .collect();
    println!("{{{}}}", rows.join(","));
}

/// The request a batch workload's serve probe sends: the workload's
/// first SEH module and first static scan (both cacheable).
fn serve_probe_spec(spec: &CampaignSpec) -> CampaignSpec {
    use cr_campaign::TaskKind;
    let pick = |kind: TaskKind| {
        spec.tasks
            .iter()
            .find(|t| t.kind() == kind)
            .cloned()
            .expect("batch workloads carry SEH and scan tasks")
    };
    CampaignSpec::builder()
        .name(format!("{}-serve-probe", spec.name))
        .seed(spec.seed)
        .tasks([pick(TaskKind::Seh), pick(TaskKind::Scan)])
        .build()
        .expect("probe spec is valid")
}

fn main() {
    if cfg!(debug_assertions) {
        fail("refusing to time a debug build; build with --release");
    }
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = raw.split_first() else {
        fail("usage: perfbench <campaign|probe|serve|table1|profile> [--flag value ...]");
    };
    let args = Args::parse(rest);
    let started = Instant::now();
    match cmd.as_str() {
        "campaign" => cmd_campaign(&args),
        "probe" => cmd_probe(&args),
        "serve" => serve::cmd_serve(&args),
        "table1" => cmd_table1(),
        "profile" => println!("release"),
        other => fail(&format!("unknown subcommand {other:?}")),
    }
    if cmd != "campaign" {
        eprintln!("perfbench {cmd}: {:.1} s", started.elapsed().as_secs_f64());
    }
}
