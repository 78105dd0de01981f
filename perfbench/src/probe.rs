//! Per-layer attribution measured from outside the program.
//!
//! [`decompose`] re-runs one campaign task the way the engine runs it,
//! but as a sequence of calls into each layer's public functions, each
//! wrapped in a benchmark-owned [`Span`]. Where the program nests one
//! layer inside another call (taint inside `observe_server`, emulation
//! inside both), the inner layer is timed by a separate call on the
//! same input and its self time is the difference, as the layer table
//! in `perfbench/README.md` defines it.
//!
//! Each decomposed task also yields the [`TaskResult`] the engine
//! would report for it. `perfbench/run.py` compares these with the
//! engine's own records and the pinned verdicts, so a decomposition
//! that drifts from the engine's orchestration fails the gate instead
//! of timing a stale copy.

use crate::workloads::builtin_tasks;
use cr_arena::{
    ArenaConfig, ArenaPair, ArenaSummary, Cusum, DetectorKind, StrategyKind, SyscallFilter,
};
use cr_campaign::{
    AnalysisCache, CampaignMetrics, CampaignTask, ScanSummary, SehSummary, SharedVerdictCache,
    TaskKind, TaskResult,
};
use cr_core::seh::{analyze_module_cached, image_content_hash};
use cr_symex::SolverCounters;
use cr_vm::NullHook;
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::time::Instant;

/// One benchmark span: a timed call into a layer.
pub struct Span {
    pub run: u32,
    pub parent: Option<usize>,
    pub layer: &'static str,
    pub name: String,
    pub start_us: u64,
    pub end_us: u64,
}

/// In-memory span store, written out once when the benchmark ends.
pub struct Recorder {
    origin: Instant,
    pub run: u32,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            run: 0,
            spans: Vec::new(),
        }
    }

    fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    pub fn open(&mut self, parent: Option<usize>, layer: &'static str, name: String) -> usize {
        let start_us = self.now_us();
        self.spans.push(Span {
            run: self.run,
            parent,
            layer,
            name,
            start_us,
            end_us: start_us,
        });
        self.spans.len() - 1
    }

    /// Close span `id` and return its duration in microseconds.
    pub fn close(&mut self, id: usize) -> u64 {
        let end = self.now_us();
        let span = &mut self.spans[id];
        span.end_us = end;
        end - span.start_us
    }

    /// Time `f` as a child span of `parent`.
    pub fn time<R>(
        &mut self,
        parent: usize,
        layer: &'static str,
        name: impl Into<String>,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let id = self.open(Some(parent), layer, name.into());
        let r = f();
        (r, self.close(id))
    }

    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                format!(
                    "{{\"run\":{},\"id\":{id},\"parent\":{},\"layer\":\"{}\",\"name\":\"{}\",\"start_us\":{},\"end_us\":{}}}",
                    s.run,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.layer,
                    s.name,
                    s.start_us,
                    s.end_us
                )
            })
            .collect();
        format!("[{}]", rows.join(","))
    }
}

/// Layer totals accumulated over decomposed tasks.
#[derive(Default)]
pub struct Acc {
    /// Attributed self time per layer, microseconds.
    pub self_us: BTreeMap<&'static str, u64>,
    /// Probe task time per task kind, microseconds.
    pub task_us: BTreeMap<&'static str, u64>,
    pub tasks: u64,
    /// Tasks whose result came from a cache table.
    pub cached_tasks: u64,
    /// `{"label":..,"result":..}` per decomposed task, in order.
    pub verdicts: Vec<String>,
    servers: u64,
    vsteps: u64,
    observe_us: u64,
    classify_us: u64,
    candidates: u64,
    usable: u64,
    round_us: BTreeMap<&'static str, (u64, u64)>,
    arena_probes: u64,
    arena_runs: u64,
    detect_us: u64,
    filter_us: u64,
    poc_scan_us: BTreeMap<String, u64>,
    poc_probes: u64,
    funnels: u64,
    funnel_build_us: u64,
    funnel_run_us: u64,
    parses: u64,
    parse_us: u64,
    parse_bytes: u64,
    generates: u64,
    generate_us: u64,
    analyses: u64,
    symex_us: u64,
    solver: [u64; 5],
    scans: u64,
    scan_us: u64,
    scan_sites: u64,
}

impl Acc {
    fn add(&mut self, layer: &'static str, us: u64) {
        *self.self_us.entry(layer).or_default() += us;
    }

    /// Every layer metric this accumulator can report, with the task
    /// family whose inputs reach it and whether any input did.
    fn metrics(&self) -> Vec<Metric> {
        use TaskKind::{Arena, Funnel, Poc, Scan, Seh, Server};
        let ms = |us: u64| us as f64 / 1e3;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let self_us = |layer: &str| self.self_us.get(layer).copied().unwrap_or(0);
        let [calls, lookups, hits, completed, pruned] = self.solver;
        let (server, arena, funnel) = (self.servers > 0, self.arena_runs > 0, self.funnels > 0);
        let (image, symex, scan) = (self.parses > 0, self.analyses > 0, self.scans > 0);
        let mut v = Vec::new();
        let mut m = |name: &str, value: f64, family: TaskKind, measured: bool| {
            v.push(Metric {
                name: name.to_string(),
                value,
                family,
                measured,
            })
        };
        m("emulate.ms", ms(self_us("emulate")), Server, server);
        m("emulate.vsteps", self.vsteps as f64, Server, server);
        let per_s = ratio(self.vsteps * 1_000_000, self_us("emulate"));
        m("emulate.vsteps_per_s", per_s, Server, server);
        m("taint.ms", ms(self_us("taint")), Server, server);
        m("finder.observe_ms", ms(self.observe_us), Server, server);
        m("finder.classify_ms", ms(self.classify_us), Server, server);
        m("finder.candidates", self.candidates as f64, Server, server);
        m("finder.usable", self.usable as f64, Server, server);
        for s in StrategyKind::ALL {
            let (us, rounds) = self.round_us.get(s.name()).copied().unwrap_or((0, 0));
            let name = format!("arena.round_ms.{}", s.name());
            m(&name, ratio(us, rounds) / 1e3, Arena, rounds > 0);
        }
        m("arena.probes", self.arena_probes as f64, Arena, arena);
        m("arena.detect_ms", ms(self.detect_us), Arena, arena);
        m("arena.filter_ms", ms(self.filter_us), Arena, arena);
        for o in POC_ORACLES {
            let us = self.poc_scan_us.get(o).copied();
            m(
                &format!("poc.scan_ms.{o}"),
                ms(us.unwrap_or(0)),
                Poc,
                us.is_some(),
            );
        }
        let poc = !self.poc_scan_us.is_empty();
        m("poc.probes", self.poc_probes as f64, Poc, poc);
        m("funnel.build_ms", ms(self.funnel_build_us), Funnel, funnel);
        m("funnel.run_ms", ms(self.funnel_run_us), Funnel, funnel);
        m("image.parse_ms", ms(self.parse_us), Seh, image);
        let mb_per_s = ratio(self.parse_bytes, self.parse_us);
        m("image.parse_mb_per_s", mb_per_s, Seh, image);
        let generated = self.generates > 0;
        m("targets.generate_ms", ms(self.generate_us), Seh, generated);
        m("symex.analyze_ms", ms(self.symex_us), Seh, symex);
        m("symex.solver_calls", calls as f64, Seh, symex);
        m("symex.memo_hit_ratio", ratio(hits, lookups), Seh, symex);
        m("symex.paths_completed", completed as f64, Seh, symex);
        m("symex.paths_pruned", pruned as f64, Seh, symex);
        m("scan.ms", ms(self.scan_us), Scan, scan);
        m("scan.sites", self.scan_sites as f64, Scan, scan);
        v
    }
}

struct Metric {
    name: String,
    value: f64,
    family: TaskKind,
    measured: bool,
}

const POC_ORACLES: [&str; 3] = ["ie", "firefox", "nginx"];

/// Decompose every task of `tasks` (see the module docs). `seed` is
/// the spec seed, which the engine hands to each task's first attempt.
pub fn decompose_all(
    rec: &mut Recorder,
    acc: &mut Acc,
    tasks: &[CampaignTask],
    cache: &AnalysisCache,
    seed: u64,
) {
    for task in tasks {
        decompose(rec, acc, task, cache, seed);
    }
}

fn decompose(
    rec: &mut Recorder,
    acc: &mut Acc,
    task: &CampaignTask,
    cache: &AnalysisCache,
    seed: u64,
) {
    let t = rec.open(None, "task", task.label());
    let (cached, result) = match task {
        CampaignTask::ServerDiscovery(name) => (false, server(rec, acc, t, name)),
        CampaignTask::SehAnalysis(name) => seh(rec, acc, t, name, cache),
        CampaignTask::ApiFunnel { corpus_size } => (false, funnel(rec, acc, t, *corpus_size, seed)),
        CampaignTask::PocScan(name) => (false, poc(rec, acc, t, name)),
        CampaignTask::StaticScan(name) => scan(rec, acc, t, name, cache),
        CampaignTask::Arena(name) => arena(rec, acc, t, name, cache, seed),
    };
    let us = rec.close(t);
    *acc.task_us.entry(task.kind().name()).or_default() += us;
    acc.tasks += 1;
    acc.cached_tasks += u64::from(cached);
    acc.verdicts.push(format!(
        "{{\"label\":{},\"result\":{}}}",
        serde::Serialize::to_json(&task.label()),
        serde::Serialize::to_json(&result)
    ));
}

fn server(rec: &mut Recorder, acc: &mut Acc, t: usize, name: &str) -> TaskResult {
    let (target, g) = rec.time(t, "targets", "targets.all_servers", || {
        cr_targets::all_servers()
            .into_iter()
            .find(|s| s.name == name)
            .expect("known server")
    });
    acc.add("targets", g);
    // The monitor-free runs that observation repeats under taint.
    let (vsteps, e) = rec.time(t, "emulate", "emulate.boot_exercise", || {
        let mut p = target.boot(&mut NullHook);
        for _ in 0..2 {
            (target.exercise)(&mut p, &mut NullHook);
        }
        p.vtime
    });
    let (mon, o) = rec.time(t, "taint", "finder.observe_server", || {
        cr_core::observe_server(&target)
    });
    let (report, d) = rec.time(t, "finder", "finder.discover_server", || {
        cr_core::discover_server(&target)
    });
    acc.add("emulate", e);
    acc.add("taint", o.saturating_sub(e));
    acc.add("finder", d.saturating_sub(o));
    acc.servers += 1;
    acc.vsteps += vsteps;
    acc.observe_us += o;
    acc.classify_us += d.saturating_sub(o);
    acc.candidates += mon.candidates.len() as u64;
    acc.usable += report.usable().len() as u64;
    TaskResult::Server {
        server: report.server.clone(),
        observed_syscalls: report.observed_syscalls.len(),
        findings: report.findings.len(),
        usable: report.usable().len(),
    }
}

fn seh(
    rec: &mut Recorder,
    acc: &mut Acc,
    t: usize,
    name: &str,
    cache: &AnalysisCache,
) -> (bool, TaskResult) {
    let (resident, c) = rec.time(t, "cache", "cache.get_image", || cache.get_image(name));
    acc.add("cache", c);
    let artifact = match resident {
        Some(a) => a,
        None => {
            let (bytes, g) = rec.time(t, "targets", "targets.generate_dll", || {
                if name == "loopy" {
                    return cr_targets::browsers::generate_loopy_dll_bytes();
                }
                let spec = cr_targets::browsers::full_population_specs()
                    .into_iter()
                    .find(|s| s.name == name)
                    .expect("known dll");
                cr_targets::browsers::generate_dll_bytes(&spec)
            });
            acc.add("targets", g);
            acc.generates += 1;
            acc.generate_us += g;
            let (image, p) = rec.time(t, "image", "image.parse_pe", || {
                cr_image::PeImage::parse(&bytes).expect("generated image parses")
            });
            acc.add("image", p);
            acc.parses += 1;
            acc.parse_us += p;
            acc.parse_bytes += bytes.len() as u64;
            let (a, c) = rec.time(t, "cache", "cache.put_image", || {
                let hash = image_content_hash(&image);
                cache.put_image(name, hash, image)
            });
            acc.add("cache", c);
            a
        }
    };
    let (hit, c) = rec.time(t, "cache", "cache.get_module", || {
        cache.get_module(&artifact.hash)
    });
    acc.add("cache", c);
    let image_hash = artifact.hash.clone();
    if let Some(summary) = hit {
        return (
            true,
            TaskResult::Seh {
                image_hash,
                summary,
            },
        );
    }
    let before = SolverCounters::snapshot();
    let (a, s) = rec.time(t, "symex", "symex.analyze_module", || {
        analyze_module_cached(&artifact.image, &mut SharedVerdictCache(cache))
    });
    let d = before.delta();
    acc.add("symex", s);
    acc.analyses += 1;
    acc.symex_us += s;
    for (sum, x) in acc.solver.iter_mut().zip([
        d.solver_calls,
        d.memo_lookups,
        d.memo_hits,
        d.paths_completed,
        d.paths_pruned,
    ]) {
        *sum += x;
    }
    let summary = SehSummary {
        module: a.module,
        is_x64: a.is_x64,
        guarded_before: a.guarded_before,
        guarded_after: a.guarded_after,
        filters_before: a.filters_before,
        filters_after: a.filters_after,
        filters_undecided: a.filters_undecided,
    };
    let (_, c) = rec.time(t, "cache", "cache.put_module", || {
        cache.put_module(&artifact.hash, &summary)
    });
    acc.add("cache", c);
    (
        false,
        TaskResult::Seh {
            image_hash,
            summary,
        },
    )
}

fn funnel(
    rec: &mut Recorder,
    acc: &mut Acc,
    t: usize,
    corpus_size: usize,
    seed: u64,
) -> TaskResult {
    let (mut sim, b) = rec.time(t, "funnel", "funnel.build", || {
        cr_targets::browsers::ie::build_with_corpus(corpus_size, seed)
    });
    let (report, r) = rec.time(t, "funnel", "funnel.run", || {
        cr_core::api_fuzzer::run_funnel(&mut sim, 2)
    });
    acc.add("funnel", b + r);
    acc.funnels += 1;
    acc.funnel_build_us += b;
    acc.funnel_run_us += r;
    TaskResult::Funnel {
        total: report.total,
        with_pointer_args: report.with_pointer_args,
        crash_resistant: report.crash_resistant,
        js_reachable: report.js_reachable,
        usable: report.usable,
    }
}

/// The §VI scenario the engine runs per oracle: a region hidden at a
/// secret address and the window swept for it (secret, length, start,
/// end, stride).
fn poc_scenario(oracle: &str) -> (u64, u64, u64, u64, u64) {
    match oracle {
        "ie" => (
            0x31_4159_0000,
            0x4000,
            0x31_4000_0000,
            0x31_4200_0000,
            0x1_0000,
        ),
        "firefox" => (
            0x27_1828_1000,
            0x2000,
            0x27_1800_0000,
            0x27_1900_0000,
            0x1000,
        ),
        "nginx" => (
            0x55_0000_2000,
            0x1000,
            0x55_0000_0000,
            0x55_0001_0000,
            0x1000,
        ),
        other => panic!("unknown oracle {other:?}"),
    }
}

fn poc(rec: &mut Recorder, acc: &mut Acc, t: usize, name: &str) -> TaskResult {
    let (secret, len, start, end, stride) = poc_scenario(name);
    let (mut oracle, b) = rec.time(t, "poc", "poc.build", || {
        let o: Box<dyn cr_exploits::MemoryOracle> = match name {
            "ie" => {
                let mut o = cr_exploits::ie::IeOracle::new();
                o.sim().proc.mem.map(secret, len, cr_vm::Prot::RW);
                Box::new(o)
            }
            "firefox" => {
                let mut o = cr_exploits::firefox::FirefoxOracle::new();
                o.sim().proc.mem.map(secret, len, cr_vm::Prot::RW);
                Box::new(o)
            }
            _ => {
                let mut o = cr_exploits::nginx::NginxOracle::new();
                o.proc().mem.map(secret, len, cr_vm::Prot::RW);
                Box::new(o)
            }
        };
        o
    });
    let (out, s) = rec.time(t, "poc", format!("poc.scan.{name}"), || {
        cr_exploits::scan(oracle.as_mut(), start, end, stride)
    });
    acc.add("poc", b + s);
    *acc.poc_scan_us.entry(name.to_string()).or_default() += s;
    acc.poc_probes += out.probes;
    TaskResult::Poc {
        oracle: oracle.name().to_string(),
        mapped: out.mapped.len(),
        probes: out.probes,
        located: out.mapped.contains(&secret),
        crashed: out.crashed,
    }
}

fn scan(
    rec: &mut Recorder,
    acc: &mut Acc,
    t: usize,
    name: &str,
    cache: &AnalysisCache,
) -> (bool, TaskResult) {
    let (image, g) = rec.time(t, "targets", "targets.scan_image", || {
        cr_targets::all_servers()
            .into_iter()
            .find(|s| s.name == name)
            .map(|s| s.image)
            .or_else(|| cr_targets::corpus::module(name).map(|m| m.image))
            .expect("known scan module")
    });
    acc.add("targets", g);
    let ((hash, hit), c) = rec.time(t, "cache", "cache.get_scan", || {
        let hash = cr_scan::elf_content_hash(&image);
        let hit = cache.get_scan(&hash);
        (hash, hit)
    });
    acc.add("cache", c);
    if let Some(summary) = hit {
        let image_hash = hash;
        return (
            true,
            TaskResult::Scan {
                image_hash,
                summary,
            },
        );
    }
    let (report, s) = rec.time(t, "scan", "scan.scan_elf", || {
        cr_scan::scan_elf(name, &image)
    });
    acc.add("scan", s);
    acc.scans += 1;
    acc.scan_us += s;
    acc.scan_sites += report.sites.len() as u64;
    let summary = ScanSummary::from_report(&report);
    let (_, c) = rec.time(t, "cache", "cache.put_scan", || {
        cache.put_scan(&hash, &summary)
    });
    acc.add("cache", c);
    let image_hash = hash;
    (
        false,
        TaskResult::Scan {
            image_hash,
            summary,
        },
    )
}

/// Per-round seed stream of `cr_arena::run_strategy`.
fn round_seed(base: u64, kind: StrategyKind, round: usize) -> u64 {
    let k = StrategyKind::ALL
        .iter()
        .position(|x| *x == kind)
        .expect("known strategy") as u64;
    base ^ (k << 32) ^ (round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// An arena strategy: the pieces of `run_strategy` timed one by one,
/// then judged by every detector into the strategy's summary row.
/// The decomposition reads the arena table but never writes it.
fn arena(
    rec: &mut Recorder,
    acc: &mut Acc,
    t: usize,
    name: &str,
    cache: &AnalysisCache,
    seed: u64,
) -> (bool, TaskResult) {
    let kind = StrategyKind::parse_name(name).expect("known strategy");
    let cfg = ArenaConfig {
        seed,
        ..ArenaConfig::default()
    };
    let key = format!(
        "{}:s{}:r{}:{}",
        kind.name(),
        cfg.seed,
        cfg.rounds,
        cfg.filter_module
    );
    let (hit, c) = rec.time(t, "cache", "cache.get_arena", || cache.get_arena(&key));
    acc.add("cache", c);
    if let Some(summary) = hit {
        return (true, TaskResult::Arena { key, summary });
    }
    let (filter, f) = rec.time(t, "arena", "arena.filter", || {
        SyscallFilter::for_module(&cfg.filter_module)
    });
    let (benign, b) = rec.time(t, "arena", "arena.benign", cr_arena::strategies::run_benign);
    let mut sessions = Vec::with_capacity(cfg.rounds);
    let mut rounds_us = 0;
    for r in 0..cfg.rounds {
        let (s, us) = rec.time(t, "arena", format!("arena.round.{}", kind.name()), || {
            cr_arena::strategies::run_round(kind, round_seed(cfg.seed, kind, r), &mut |_| false)
        });
        rounds_us += us;
        acc.arena_probes += s.probes;
        sessions.push(s);
    }
    let (pairs, d) = rec.time(t, "arena", "arena.detect", || {
        DetectorKind::ALL
            .into_iter()
            .map(|k| judge(k, &filter, &sessions, &benign))
            .collect::<Vec<ArenaPair>>()
    });
    acc.add("arena", f + b + rounds_us + d);
    let entry = acc.round_us.entry(kind.name()).or_default();
    entry.0 += rounds_us;
    entry.1 += cfg.rounds as u64;
    acc.arena_runs += 1;
    acc.detect_us += d;
    acc.filter_us += f;
    let summary = ArenaSummary {
        strategy: kind.name().to_string(),
        rounds: cfg.rounds,
        probes: sessions.iter().map(|s| s.probes).sum(),
        dropped: sessions.iter().map(|s| s.dropped).sum(),
        located_rounds: sessions.iter().filter(|s| s.located).count(),
        pairs,
    };
    (false, TaskResult::Arena { key, summary })
}

/// One detector over every round, and its false positives on the
/// benign session: the log detectors alarm or not; the filter blocks
/// escalation syscalls when the session escalates.
fn judge(
    kind: DetectorKind,
    filter: &SyscallFilter,
    sessions: &[cr_arena::ProbeSession],
    benign: &cr_arena::ProbeSession,
) -> ArenaPair {
    let alarm = |s: &cr_arena::ProbeSession| -> (Option<u64>, u64) {
        match kind {
            DetectorKind::Rate => {
                let r =
                    cr_defense::RateDetector::default().analyze(&s.log, s.start_vtime, s.end_vtime);
                (r.alarm.then(|| r.alarm_at.unwrap_or(s.end_vtime)), 0)
            }
            DetectorKind::Cusum => {
                let r = Cusum::default().analyze(&s.log, s.start_vtime, s.end_vtime);
                (r.alarm.then(|| r.alarm_at.unwrap_or(s.end_vtime)), 0)
            }
            DetectorKind::Filter => {
                let blocked = filter.blocked(&s.escalation).len() as u64;
                ((blocked > 0).then_some(s.end_vtime), blocked)
            }
        }
    };
    let (mut detected, mut ttd_ms, mut blocked) = (0usize, 0u64, 0u64);
    for s in sessions {
        let (at, b) = alarm(s);
        blocked += b;
        if let Some(at) = at {
            detected += 1;
            ttd_ms += at.saturating_sub(s.start_vtime) / cr_os::STEPS_PER_MS;
        }
    }
    let false_positives = match kind {
        DetectorKind::Filter => filter.blocked(&cr_arena::strategies::BENIGN_SYSCALLS).len() as u64,
        _ => u64::from(alarm(benign).0.is_some()),
    };
    ArenaPair {
        detector: kind.name().to_string(),
        detected_rounds: detected,
        time_to_detect_ms: if detected > 0 {
            ttd_ms / detected as u64
        } else {
            0
        },
        false_positives,
        blocked_escalations: blocked,
    }
}

/// Layer metrics: `own`'s value wherever the workload's own tasks reach
/// the layer, otherwise the value measured on the builtin campaign's
/// tasks of the family that does (decomposed here, with a fresh cache).
/// Returns the metrics and the accumulator of those builtin tasks.
pub fn layer_metrics(rec: &mut Recorder, own: &Acc, seed: u64) -> (Vec<(String, f64)>, Acc) {
    let own_metrics = own.metrics();
    let families: BTreeSet<TaskKind> = own_metrics
        .iter()
        .filter(|m| !m.measured)
        .map(|m| m.family)
        .collect();
    let mut fallback = Acc::default();
    let cache = AnalysisCache::new();
    rec.run += 1;
    for kind in families {
        decompose_all(rec, &mut fallback, &builtin_tasks(kind, seed), &cache, seed);
    }
    let fb: BTreeMap<String, f64> = fallback
        .metrics()
        .into_iter()
        .map(|m| (m.name, m.value))
        .collect();
    let merged = own_metrics
        .into_iter()
        .map(|m| {
            let v = if m.measured { m.value } else { fb[&m.name] };
            (m.name, v)
        })
        .collect();
    (merged, fallback)
}

/// Campaign-pool and cache-table metrics of engine runs.
pub fn campaign_metrics(runs: &[&CampaignMetrics]) -> Vec<(String, f64)> {
    let mut task_us: BTreeMap<&str, u64> = BTreeMap::new();
    let mut idle_us = 0i64;
    let mut retries = 0u64;
    let mut hits = [0u64; 5];
    let mut lookups = [0u64; 5];
    for m in runs {
        for t in &m.tasks {
            *task_us.entry(t.kind.name()).or_default() += t.wall_us;
            retries += u64::from(t.attempts.saturating_sub(1));
        }
        idle_us += (m.jobs as u64 * m.total_wall_us) as i64 - m.task_wall_us as i64;
        let c = &m.cache;
        for (i, (h, miss)) in [
            (c.filter_hits, c.filter_misses),
            (c.module_hits, c.module_misses),
            (c.scan_hits, c.scan_misses),
            (c.arena_hits, c.arena_misses),
            (c.image_hits, c.image_misses),
        ]
        .into_iter()
        .enumerate()
        {
            hits[i] += h;
            lookups[i] += h + miss;
        }
    }
    let mut v: Vec<(String, f64)> = TaskKind::ALL
        .iter()
        .filter_map(|k| {
            task_us
                .get(k.name())
                .map(|us| (format!("campaign.task_ms.{}", k.name()), *us as f64 / 1e3))
        })
        .collect();
    v.push(("campaign.idle_ms".into(), idle_us as f64 / 1e3));
    v.push(("campaign.retries".into(), retries as f64));
    for (i, table) in ["filter", "module", "scan", "arena", "image"]
        .iter()
        .enumerate()
    {
        let r = if lookups[i] == 0 {
            0.0
        } else {
            hits[i] as f64 / lookups[i] as f64
        };
        v.push((format!("cache.hit_ratio.{table}"), r));
    }
    v
}

/// `cache.*` size and persistence timings: save `cache` into `dir` and
/// load it back.
pub fn cache_io_metrics(cache: &AnalysisCache, dir: &std::path::Path) -> Vec<(String, f64)> {
    std::fs::create_dir_all(dir).expect("cache probe dir");
    let started = Instant::now();
    cache.save(dir).expect("cache save");
    let save_us = started.elapsed().as_micros() as f64;
    let bytes = std::fs::metadata(dir.join(cr_campaign::CACHE_FILE))
        .map(|m| m.len())
        .unwrap_or(0);
    let started = Instant::now();
    black_box(AnalysisCache::load(dir).expect("cache load"));
    let load_us = started.elapsed().as_micros() as f64;
    vec![
        ("cache.load_ms".into(), load_us / 1e3),
        ("cache.save_ms".into(), save_us / 1e3),
        ("cache.bytes".into(), bytes as f64),
    ]
}

/// Task time the program's own cr-trace stage spans account for: per
/// task attempt, the union of the wall intervals of its stage spans,
/// leaving out the `Schedule` spans that wrap whole attempts. Nested
/// spans (a solver check inside a filter exploration) count once.
pub fn stage_attributed_us(trace: &cr_trace::Trace) -> u64 {
    let mut groups: BTreeMap<(u32, u64, u32), Vec<(u64, u64)>> = BTreeMap::new();
    for e in &trace.events {
        if let (Some(task), Some(dur)) = (e.task, e.dur_us) {
            if e.stage != cr_trace::Stage::Schedule {
                let span = (e.wall_us, e.wall_us + dur);
                groups
                    .entry((e.run, task, e.attempt))
                    .or_default()
                    .push(span);
            }
        }
    }
    let mut total = 0;
    for spans in groups.values_mut() {
        spans.sort_unstable();
        let (mut start, mut end) = spans[0];
        for &(s, e) in &spans[1..] {
            if s > end {
                total += end - start;
                start = s;
            }
            end = end.max(e);
        }
        total += end - start;
    }
    total
}
