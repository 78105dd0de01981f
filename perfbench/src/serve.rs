//! serve-warm: an in-process resident server, warmed with a seeded
//! catalogue, under a closed loop of clients that each wait for their
//! reply before sending the next request.

use crate::probe::{self, Acc, Recorder};
use crate::workloads::{serve_catalogue, Rng};
use crate::{engine_config, fail, metrics_json, process_cpu_s, vmhwm_kb, write_file, Args};
use cr_campaign::json::Json;
use cr_campaign::{AnalysisCache, CampaignMetrics, CampaignSpec, CampaignTask};
use cr_serve::{Client, Response, ServeConfig, ServeStats, Server};
use serde::Serialize;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A bound, running server and the thread that runs it.
struct Running {
    addr: String,
    handle: cr_serve::ServerHandle,
    runner: JoinHandle<std::io::Result<ServeStats>>,
}

/// The server runs with its default configuration; in-process runs
/// that stand for a request use the same worker count.
fn serve_jobs() -> usize {
    ServeConfig::default().jobs
}

impl Running {
    fn bind() -> Running {
        let server =
            Server::bind(ServeConfig::default()).unwrap_or_else(|e| fail(&format!("bind: {e}")));
        let addr = server.local_addr().expect("bound address").to_string();
        let handle = server.handle();
        let runner = std::thread::spawn(move || server.run());
        Running {
            addr,
            handle,
            runner,
        }
    }

    fn connect(&self) -> Client {
        Client::connect(&self.addr).unwrap_or_else(|e| fail(&format!("connect: {e}")))
    }

    fn stop(self) -> ServeStats {
        self.handle.shutdown();
        self.runner
            .join()
            .expect("server thread")
            .unwrap_or_else(|e| fail(&format!("server drain: {e}")))
    }
}

/// What one reply says about how it was answered.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Signature {
    trace_events: u64,
    solver_calls: u64,
    fresh_parse: bool,
}

fn signature(r: &Response) -> Option<Signature> {
    let trace = r
        .progress
        .iter()
        .filter_map(|p| Json::parse(p).ok())
        .find(|j| j.get("event").and_then(Json::as_str) == Some("trace"))?;
    Some(Signature {
        trace_events: trace.get("events")?.as_u64()?,
        solver_calls: r.done_u64("solver_calls")?,
        fresh_parse: r.done_str("parse")? == "fresh",
    })
}

fn send(client: &mut Client, payload: &str) -> (Response, u64) {
    let started = Instant::now();
    let r = client
        .request(payload)
        .unwrap_or_else(|e| fail(&format!("request transport: {e}")));
    (r, started.elapsed().as_micros() as u64)
}

/// A reply passes when the request completed and its result document
/// is byte-identical to the one-shot reference.
fn passes(r: &Response, reference: &[u8]) -> bool {
    r.completed() && r.busy.is_none() && r.error.is_none() && r.result.as_deref() == Some(reference)
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `serve.*` metrics for a batch workload: one server, `spec` sent
/// once cold and then alone, against the same spec run in-process on a
/// warm cache.
pub fn solo_probe(spec: &CampaignSpec) -> Vec<(String, f64)> {
    let payload = spec.to_json();
    let server = Running::bind();
    let mut client = server.connect();
    let (cold, _) = send(&mut client, &payload);
    if !cold.completed() {
        fail("serve probe: cold request failed");
    }
    let solo: Vec<f64> = (0..SOLO_SAMPLES)
        .map(|_| send(&mut client, &payload).1 as f64)
        .collect();
    drop(client);
    let stats = server.stop();
    let cache = AnalysisCache::new();
    cr_campaign::run_campaign_with_cache(spec, &engine_config(serve_jobs(), None), &cache);
    let inproc: Vec<f64> = (0..SOLO_SAMPLES).map(|_| inproc_us(spec, &cache)).collect();
    let solo_us = median(solo);
    vec![
        ("serve.solo_ms".into(), solo_us / 1e3),
        ("serve.overhead_ms".into(), (solo_us - median(inproc)) / 1e3),
        ("serve.busy_rejections".into(), stats.busy_rejections as f64),
        ("serve.frames_sent".into(), stats.frames_sent as f64),
    ]
}

const SOLO_SAMPLES: usize = 15;

fn inproc_us(spec: &CampaignSpec, cache: &AnalysisCache) -> f64 {
    let started = Instant::now();
    std::hint::black_box(cr_campaign::run_campaign_with_cache(
        spec,
        &engine_config(serve_jobs(), None),
        cache,
    ));
    started.elapsed().as_micros() as f64
}

/// The closed loop is cut into windows of this length. The metrics pool
/// the requests of the quarter of windows in which the host took the
/// least CPU time from this machine (`steal` in `/proc/stat`), so time
/// the host gave to other machines does not read as latency here.
const WINDOW: Duration = Duration::from_millis(100);

/// Busy and stolen CPU time of the whole machine so far, in jiffies
/// (`/proc/stat`); both read 0 where the file is missing.
fn cpu_times() -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let f: Vec<u64> = text
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    if f.len() < 8 {
        return (0, 0);
    }
    (f[0] + f[1] + f[2] + f[5] + f[6], f[7])
}

/// Requests completed in one window: client-observed latencies and
/// the server's own execution time for them.
#[derive(Default)]
struct Window {
    latencies_us: Vec<u32>,
    server_us: u64,
}

impl Window {
    fn requests(&self) -> f64 {
        self.latencies_us.len() as f64
    }

    fn mean_latency_us(&self) -> f64 {
        self.latencies_us
            .iter()
            .map(|&us| u64::from(us))
            .sum::<u64>() as f64
            / self.requests()
    }

    /// The latency of rank `round((n - 1) * q)`; the window is sorted.
    fn quantile_us(&self, q: f64) -> f64 {
        let v = &self.latencies_us;
        f64::from(v[((v.len() - 1) as f64 * q).round() as usize])
    }
}

/// Closed-loop outcome of one client.
struct ClientLog {
    windows: Vec<Window>,
    attempted: u64,
    failed: u64,
    completed: u64,
    from_cache: u64,
}

/// Requests a client sends on one connection before reconnecting. The
/// server keeps an execution-ledger entry per request until the
/// connection closes, so sessions of bounded length keep its memory
/// independent of how many requests a run completes.
const SESSION_REQUESTS: u64 = 2048;

/// What every closed-loop client shares.
struct Load<'a> {
    addr: &'a str,
    seed: u64,
    payloads: &'a [String],
    references: &'a [Vec<u8>],
    warm: &'a [Signature],
    started: Instant,
    windows: usize,
}

impl Load<'_> {
    /// Index of the window the clock is in now.
    fn window_now(&self) -> usize {
        (self.started.elapsed().as_secs_f64() / WINDOW.as_secs_f64()) as usize
    }
}

fn closed_loop(load: &Load<'_>, client_no: u64) -> ClientLog {
    let connect = || Client::connect(load.addr).unwrap_or_else(|e| fail(&format!("connect: {e}")));
    let mut client = connect();
    let mut rng = Rng::new(load.seed ^ client_no.wrapping_mul(0xA076_1D64_78BD_642F));
    let mut log = ClientLog {
        windows: (0..load.windows).map(|_| Window::default()).collect(),
        attempted: 0,
        failed: 0,
        completed: 0,
        from_cache: 0,
    };
    while load.window_now() < load.windows {
        if log.attempted > 0 && log.attempted.is_multiple_of(SESSION_REQUESTS) {
            client = connect();
        }
        let i = rng.below(load.payloads.len());
        let (r, us) = send(&mut client, &load.payloads[i]);
        log.attempted += 1;
        if !passes(&r, &load.references[i]) {
            log.failed += 1;
            continue;
        }
        log.completed += 1;
        log.from_cache += u64::from(signature(&r) == Some(load.warm[i]));
        // A request belongs to the window in which it completed.
        if let Some(window) = log.windows.get_mut(load.window_now()) {
            window
                .latencies_us
                .push(u32::try_from(us).unwrap_or(u32::MAX));
            window.server_us += r.done_u64("wall_us").unwrap_or(0);
        }
    }
    log
}

/// One-shot references: the CLI's `campaign --cache DIR` per spec, one
/// results document per line (the documents are single-line JSON).
fn write_references(catalogue: &[CampaignSpec], scratch: &Path, out: &Path) {
    let cfg = engine_config(serve_jobs(), Some(scratch.join("reference-cache")));
    let docs: Vec<String> = catalogue
        .iter()
        .map(|spec| {
            cr_campaign::run_campaign(spec, &cfg)
                .unwrap_or_else(|e| fail(&format!("reference run: {e}")))
                .results_json()
        })
        .collect();
    write_file(out, &(docs.join("\n") + "\n"));
}

fn read_references(path: &Path, specs: usize) -> Vec<Vec<u8>> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(&format!("cannot read {}: {e}", path.display())));
    let docs: Vec<Vec<u8>> = text.lines().map(|l| l.as_bytes().to_vec()).collect();
    if docs.len() != specs {
        fail("references file does not match the catalogue");
    }
    docs
}

/// Bind a server and warm it with every catalogue spec once; returns
/// the server, the CPU seconds the process has used up to then (see
/// `process_cpu_s`), and the catalogue indices whose reply failed.
fn setup(payloads: &[String], references: &[Vec<u8>]) -> (Running, f64, Vec<usize>) {
    let server = Running::bind();
    let mut client = server.connect();
    let bad = (0..payloads.len())
        .filter(|&i| !passes(&send(&mut client, &payloads[i]).0, &references[i]))
        .collect();
    (server, process_cpu_s(), bad)
}

/// Gate findings as a JSON array of strings.
fn problems_json(problems: &[String]) -> String {
    let quoted: Vec<String> = problems.iter().map(|p| format!("\"{p}\"")).collect();
    format!("[{}]", quoted.join(","))
}

fn warmup_problems(bad: &[usize]) -> Vec<String> {
    bad.iter()
        .map(|i| format!("warm-up reply to catalogue spec {i} failed"))
        .collect()
}

/// serve-warm, one phase per process: `refs` writes the one-shot
/// references, `setup` times one bind plus warm-up in a fresh process,
/// `loop` sets up once more and runs the measured closed loop.
pub fn cmd_serve(args: &Args) {
    let seed: u64 = args.num("seed");
    let scratch = PathBuf::from(args.req("scratch"));
    let out = PathBuf::from(args.req("out"));
    let refs = PathBuf::from(args.req("refs"));
    let catalogue = serve_catalogue(seed);
    let phase = args.req("phase");
    if phase == "refs" {
        write_references(&catalogue, &scratch, &refs);
        return;
    }
    let payloads: Vec<String> = catalogue.iter().map(|s| s.to_json()).collect();
    let references = read_references(&refs, catalogue.len());
    match phase {
        "setup" => {
            let (server, secs, bad) = setup(&payloads, &references);
            server.stop();
            let problems = problems_json(&warmup_problems(&bad));
            write_file(
                &out,
                &format!("{{\"setup_s\":{secs},\"problems\":{problems}}}"),
            );
        }
        "loop" => closed_loop_phase(
            args,
            seed,
            &catalogue,
            &payloads,
            &references,
            &scratch,
            &out,
        ),
        other => fail(&format!("unknown serve phase {other:?}")),
    }
}

fn closed_loop_phase(
    args: &Args,
    seed: u64,
    catalogue: &[CampaignSpec],
    payloads: &[String],
    references: &[Vec<u8>],
    scratch: &Path,
    out: &Path,
) {
    let seconds: f64 = args.num("seconds");
    let clients: u64 = args.num("clients");
    let mut layers = Vec::new();
    let mut rec = Recorder::new();
    let mut inproc_warm: Vec<Vec<f64>> = Vec::new();
    let mut extra = String::new();
    if args.flag("trace") {
        let (l, warm, x) = traced_inproc(&mut rec, catalogue, seed, scratch);
        layers = l;
        inproc_warm = warm;
        extra = x;
    }

    let (server, setup_s, bad) = setup(payloads, references);
    let mut problems = warmup_problems(&bad);
    let mut client = server.connect();
    let warm: Vec<Signature> = payloads
        .iter()
        .map(|p| {
            let (r, _) = send(&mut client, p);
            signature(&r).unwrap_or_else(|| fail("reply carries no trace or done stats"))
        })
        .collect();

    let stats_before = server.handle.stats();
    let windows = ((seconds / WINDOW.as_secs_f64()).round() as usize).max(1);
    let load = Load {
        addr: &server.addr,
        seed,
        payloads,
        references,
        warm: &warm,
        started: Instant::now(),
        windows,
    };
    let (logs, steal): (Vec<ClientLog>, Vec<f64>) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let load = &load;
                s.spawn(move || closed_loop(load, c))
            })
            .collect();
        // Meanwhile, the share of CPU time the host took in each window.
        let mut last = cpu_times();
        let steal = (1..=windows)
            .map(|w| {
                if let Some(wait) =
                    (load.started + WINDOW * w as u32).checked_duration_since(Instant::now())
                {
                    std::thread::sleep(wait);
                }
                let now = cpu_times();
                let (busy, stolen) = (now.0 - last.0, now.1 - last.1);
                last = now;
                stolen as f64 / (busy + stolen).max(1) as f64
            })
            .collect();
        let logs = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        (logs, steal)
    });
    let stats_loop = server.handle.stats();

    if !inproc_warm.is_empty() {
        // Each spec alone on the otherwise idle server.
        let mut overhead_us = 0.0;
        let mut solo_sum_us = 0.0;
        for (i, p) in payloads.iter().enumerate() {
            let solo: Vec<f64> = (0..SOLO_SAMPLES / 3)
                .map(|_| send(&mut client, p).1 as f64)
                .collect();
            let solo_us = median(solo);
            solo_sum_us += solo_us;
            overhead_us += solo_us - median(std::mem::take(&mut inproc_warm[i]));
        }
        let n = payloads.len() as f64;
        layers.push(("serve.solo_ms".into(), solo_sum_us / n / 1e3));
        layers.push(("serve.overhead_ms".into(), overhead_us / n / 1e3));
        layers.push((
            "serve.busy_rejections".into(),
            (stats_loop.busy_rejections - stats_before.busy_rejections) as f64,
        ));
        layers.push((
            "serve.frames_sent".into(),
            (stats_loop.frames_sent - stats_before.frames_sent) as f64,
        ));
    }
    drop(client);
    let stats = server.stop();
    if stats.exec_violations != 0 || stats.requests_completed != stats.requests_executed {
        problems.push(format!("server ledger: {stats:?}"));
    }

    let mut calm: Vec<usize> = (0..windows).collect();
    calm.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]));
    calm.truncate(windows.div_ceil(4));
    let mut pooled = Window::default();
    for &w in &calm {
        for l in &logs {
            pooled.latencies_us.extend(&l.windows[w].latencies_us);
            pooled.server_us += l.windows[w].server_us;
        }
    }
    pooled.latencies_us.sort_unstable();
    let sum = |f: fn(&ClientLog) -> u64| logs.iter().map(f).sum::<u64>();
    let end_to_end = vec![
        ("wall_s".to_string(), pooled.mean_latency_us() / 1e6),
        (
            "task_s".into(),
            pooled.server_us as f64 / pooled.requests() / 1e6,
        ),
        ("setup_s".into(), setup_s),
        ("peak_rss_mb".into(), vmhwm_kb() as f64 / 1024.0),
        ("req_p50_ms".into(), pooled.quantile_us(0.50) / 1e3),
        ("req_p99_ms".into(), pooled.quantile_us(0.99) / 1e3),
        (
            "req_per_s".into(),
            pooled.requests() / (calm.len() as f64 * WINDOW.as_secs_f64()),
        ),
    ];
    let json = format!(
        "{{\"problems\":{},\"attempted\":{},\"failed\":{},\"samples\":{},\"windows\":{},\"completed\":{},\"from_cache\":{},\"end_to_end\":{},\"layers\":{}{extra},\"spans\":{}}}",
        problems_json(&problems),
        sum(|l| l.attempted),
        sum(|l| l.failed),
        pooled.latencies_us.len(),
        calm.len(),
        sum(|l| l.completed),
        sum(|l| l.from_cache),
        metrics_json(&end_to_end),
        metrics_json(&layers),
        rec.to_json()
    );
    write_file(out, &json);
}

/// The traced run's in-process half, before any server exists: the
/// catalogue's tasks decomposed cold (what warm-up computes), then the
/// engine and the decomposition on the warm cache (what a request
/// does), and the cr-trace collector's overhead on warm campaigns.
/// Returns the layer metrics, per-spec warm in-process times, and extra
/// JSON fields.
fn traced_inproc(
    rec: &mut Recorder,
    catalogue: &[CampaignSpec],
    seed: u64,
    scratch: &Path,
) -> (Vec<(String, f64)>, Vec<Vec<f64>>, String) {
    let mut union: Vec<CampaignTask> = Vec::new();
    for t in catalogue.iter().flat_map(|s| &s.tasks) {
        if !union.contains(t) {
            union.push(t.clone());
        }
    }
    let cache = AnalysisCache::new();
    let mut cold = Acc::default();
    probe::decompose_all(rec, &mut cold, &union, &cache, seed);
    let (mut layers, fallback) = probe::layer_metrics(rec, &cold, seed);

    let cfg = engine_config(serve_jobs(), None);
    for spec in catalogue {
        cr_campaign::run_campaign_with_cache(spec, &cfg, &cache);
    }
    let mut warm_runs: Vec<CampaignMetrics> = Vec::new();
    let mut warm = Acc::default();
    rec.run += 1;
    for spec in catalogue {
        warm_runs.push(cr_campaign::run_campaign_with_cache(spec, &cfg, &cache).metrics);
        probe::decompose_all(rec, &mut warm, &spec.tasks, &cache, seed);
    }
    let runs: Vec<&CampaignMetrics> = warm_runs.iter().collect();
    layers.extend(probe::campaign_metrics(&runs));
    for (kind, us) in &fallback.task_us {
        let key = format!("campaign.task_ms.{kind}");
        if !layers.iter().any(|(k, _)| *k == key) {
            layers.push((key, *us as f64 / 1e3));
        }
    }
    let task_us: u64 = warm_runs.iter().map(|m| m.task_wall_us).sum();
    layers.extend(probe::cache_io_metrics(&cache, &scratch.join("cache-io")));

    // Alternate untraced and traced passes over the warm catalogue. The
    // traced passes' stage spans, over their own task time, give the
    // attributed ratio.
    let mut inproc_warm: Vec<Vec<f64>> = vec![Vec::new(); catalogue.len()];
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let (mut stage_us, mut traced_task_us) = (0, 0);
    for _ in 0..OVERHEAD_PAIRS {
        let started = Instant::now();
        for (i, spec) in catalogue.iter().enumerate() {
            inproc_warm[i].push(inproc_us(spec, &cache));
        }
        plain.push(started.elapsed().as_micros() as f64);
        cr_trace::start();
        let started = Instant::now();
        for spec in catalogue {
            cr_trace::begin_run(&spec.name);
            let report = cr_campaign::run_campaign_with_cache(spec, &cfg, &cache);
            traced_task_us += report.metrics.task_wall_us;
        }
        traced.push(started.elapsed().as_micros() as f64);
        let trace = cr_trace::finish();
        if trace.dropped > 0 {
            fail(&format!("trace ring dropped {} events", trace.dropped));
        }
        stage_us += probe::stage_attributed_us(&trace);
    }
    layers.push((
        "trace.overhead_ratio".into(),
        median(traced) / median(plain) - 1.0,
    ));
    layers.push((
        "layers.attributed_ratio".into(),
        stage_us as f64 / traced_task_us.max(1) as f64,
    ));

    let self_us: BTreeMap<String, f64> = warm
        .self_us
        .iter()
        .map(|(k, v)| (k.to_string(), *v as f64))
        .collect();
    let self_us: Vec<(String, f64)> = self_us.into_iter().collect();
    let extra = format!(
        ",\"self_us\":{},\"tasks\":{},\"cached_tasks\":{},\"task_us\":{task_us},\"verdicts\":[{}],\"warm_verdicts\":[{}],\"fallback_verdicts\":[{}]",
        metrics_json(&self_us),
        warm.tasks,
        warm.cached_tasks,
        cold.verdicts.join(","),
        warm.verdicts.join(","),
        fallback.verdicts.join(",")
    );
    (layers, inproc_warm, extra)
}

const OVERHEAD_PAIRS: usize = 7;
