//! Seedable probing strategies driven against the firefox-sim oracle.
//!
//! Every strategy sweeps the same unmapped probe window for a hidden
//! secret region whose slot is drawn from a seeded RNG, using the
//! background-thread memory oracle of §VI-B (each unmapped touch is one
//! handled AV in the process fault log). The strategies differ only in
//! probe *scheduling* — exactly the axis the §VII-C rate detector keys
//! on:
//!
//! * **linear** — consecutive page-stride probes at full speed;
//! * **bisect** — coarse region-stride pass, then boundary refinement
//!   (an order of magnitude fewer faults than linear);
//! * **stealth** — linear order, but idling ~10 virtual ms between
//!   probes to stay under any per-window rate threshold;
//! * **burst** — bursts of rapid probes separated by seconds of idle
//!   (an attacker hiding in asm.js-shaped traffic).
//!
//! Probes are counted in the session even when a chaos drop predicate
//! swallows them, so degraded runs stay deterministic. A strategy that
//! locates the secret "escalates" by attempting the [`ESCALATION`]
//! syscalls — the serving-phase allowlist filter judges those.

use cr_os::windows::FaultEvent;
use cr_os::OsHook;
use cr_targets::browsers::firefox::{self, FirefoxSim};
use cr_vm::NullHook;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Base of the unmapped probe window each strategy sweeps.
pub const PROBE_BASE: u64 = 0x9200_0000_0000;
/// Pages in the probe window.
pub const PROBE_PAGES: u64 = 256;
/// Pages in the hidden secret region (slot-aligned to its own size).
pub const SECRET_PAGES: u64 = 8;
/// Secret slots are drawn from this coarse-slot range (late in the
/// window, so the linear sweep always accumulates enough faults to
/// characterize it).
pub const SECRET_SLOTS: std::ops::Range<u64> = 26..32;
/// Escalation syscalls a located attacker attempts: `execve`, `unlink`,
/// `chmod` — none of which a serving-phase network daemon issues.
pub const ESCALATION: [u64; 3] = [59, 87, 90];
/// Syscall footprint of the benign browsing workload: `read`, `write`,
/// `close`.
pub const BENIGN_SYSCALLS: [u64; 3] = [0, 1, 3];
/// Virtual steps a stealth probe idles between touches (~10 ms).
pub const STEALTH_IDLE_STEPS: u64 = 10_000;
/// Probes per burst for the burst-then-idle strategy.
pub const BURST_LEN: u64 = 60;
/// Virtual steps a burst strategy idles between bursts (~2 s).
pub const BURST_IDLE_STEPS: u64 = 2_000_000;

/// The four probing strategies, in a stable order (new kinds append).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyKind {
    /// Consecutive page-stride probes at full speed.
    Linear,
    /// Coarse region-stride pass, then boundary refinement.
    Bisect,
    /// Linear order with ~10 virtual ms idle between probes.
    Stealth,
    /// Bursts of rapid probes separated by seconds of idle.
    Burst,
}

impl StrategyKind {
    /// Every strategy, in a stable order.
    pub const ALL: [StrategyKind; 4] = [
        StrategyKind::Linear,
        StrategyKind::Bisect,
        StrategyKind::Stealth,
        StrategyKind::Burst,
    ];

    /// Stable machine-readable name.
    pub fn name(self) -> &'static str {
        match self {
            StrategyKind::Linear => "linear",
            StrategyKind::Bisect => "bisect",
            StrategyKind::Stealth => "stealth",
            StrategyKind::Burst => "burst",
        }
    }

    /// Inverse of [`StrategyKind::name`].
    pub fn parse_name(name: &str) -> Option<StrategyKind> {
        StrategyKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// One finished probing (or benign) session against a fresh sim.
#[derive(Debug, Clone)]
pub struct ProbeSession {
    /// Strategy name (`"benign"` for the browsing workload).
    pub strategy: &'static str,
    /// Base address of the hidden secret region (0 for benign).
    pub secret: u64,
    /// Virtual time at session start.
    pub start_vtime: u64,
    /// Virtual time at session end.
    pub end_vtime: u64,
    /// Probes attempted (dropped ones included).
    pub probes: u64,
    /// Probes swallowed by the chaos drop predicate.
    pub dropped: u64,
    /// Whether the strategy located the secret region.
    pub located: bool,
    /// Syscall numbers attempted after locating (empty otherwise).
    pub escalation: Vec<u64>,
    /// Fault log accumulated during the session.
    pub log: Vec<FaultEvent>,
}

/// Predicate deciding whether probe `index` is dropped (chaos site
/// `arena.probe.drop`). The honest run is `|_| false`.
pub type DropFn<'a> = &'a mut dyn FnMut(u64) -> bool;

struct Prober<'a> {
    sim: FirefoxSim,
    probes: u64,
    dropped: u64,
    drop: DropFn<'a>,
    hook: &'a mut dyn OsHook,
}

impl Prober<'_> {
    /// Probe one window page. `None` when the chaos predicate swallowed
    /// the probe (strategies treat that as "unmapped" and move on).
    fn page(&mut self, page: u64) -> Option<bool> {
        let index = self.probes;
        self.probes += 1;
        if (self.drop)(index) {
            self.dropped += 1;
            return None;
        }
        firefox::probe(&mut self.sim, PROBE_BASE + page * 0x1000, self.hook)
    }

    fn idle(&mut self, steps: u64) {
        self.sim.proc.run(steps, self.hook);
    }
}

/// Run one seeded round of `kind`: build a fresh sim, hide the secret
/// region at a seeded slot, drive the strategy until it locates the
/// region or exhausts the window.
pub fn run_round(kind: StrategyKind, seed: u64, drop: DropFn<'_>) -> ProbeSession {
    drive(kind, seed, drop, &mut NullHook).0
}

/// [`run_round`] with every emulated step observed by `hook`; also
/// returns the sim the round ran on.
fn drive(
    kind: StrategyKind,
    seed: u64,
    drop: DropFn<'_>,
    hook: &mut dyn OsHook,
) -> (ProbeSession, FirefoxSim) {
    let mut rng = StdRng::seed_from_u64(seed);
    let slot_page = rng.gen_range(SECRET_SLOTS) * SECRET_PAGES;
    let secret = PROBE_BASE + slot_page * 0x1000;

    let mut sim = firefox::build();
    sim.proc
        .mem
        .map(secret, SECRET_PAGES * 0x1000, cr_vm::Prot::RW);
    let log_start = sim.proc.fault_log.len();
    let start_vtime = sim.proc.vtime;

    let mut p = Prober {
        sim,
        probes: 0,
        dropped: 0,
        drop,
        hook,
    };
    let located = match kind {
        StrategyKind::Linear => (0..PROBE_PAGES).any(|page| p.page(page) == Some(true)),
        StrategyKind::Bisect => bisect(&mut p),
        StrategyKind::Stealth => (0..PROBE_PAGES).any(|page| {
            p.idle(STEALTH_IDLE_STEPS);
            p.page(page) == Some(true)
        }),
        StrategyKind::Burst => (0..PROBE_PAGES).any(|page| {
            if page > 0 && page % BURST_LEN == 0 {
                p.idle(BURST_IDLE_STEPS);
            }
            p.page(page) == Some(true)
        }),
    };

    let session = ProbeSession {
        strategy: kind.name(),
        secret,
        start_vtime,
        end_vtime: p.sim.proc.vtime,
        probes: p.probes,
        dropped: p.dropped,
        located,
        escalation: if located {
            ESCALATION.to_vec()
        } else {
            Vec::new()
        },
        log: p.sim.proc.fault_log[log_start..].to_vec(),
    };
    (session, p.sim)
}

/// Binary-search-style probing: coarse pass at the secret region's
/// stride, then refine both boundaries at page stride.
fn bisect(p: &mut Prober<'_>) -> bool {
    let mut hit = None;
    for page in (0..PROBE_PAGES).step_by(SECRET_PAGES as usize) {
        if p.page(page) == Some(true) {
            hit = Some(page);
            break;
        }
    }
    let Some(hit) = hit else { return false };
    // Refine downward until the first unmapped page…
    let mut page = hit;
    while page > 0 && p.page(page - 1) == Some(true) {
        page -= 1;
    }
    // …and upward past the region's end.
    let mut page = hit;
    while page + 1 < PROBE_PAGES && p.page(page + 1) == Some(true) {
        page += 1;
    }
    true
}

/// The benign browsing workload of §VII-C: page renders (zero AVs) plus
/// asm.js-style bursts of ~20 handled guard-page faults with long gaps.
/// Detectors must stay silent over this session.
pub fn run_benign() -> ProbeSession {
    let mut sim = firefox::build();
    let log_start = sim.proc.fault_log.len();
    let start_vtime = sim.proc.vtime;
    for _ in 0..20 {
        sim.proc.call(sim.render_page, &[], 100_000, &mut NullHook);
    }
    for _ in 0..3 {
        sim.proc
            .call(sim.asmjs_bench, &[], 1_000_000, &mut NullHook);
        // The paper observed *long* gaps between asm.js stress bursts;
        // ~400 virtual ms keeps one burst per CUSUM drain cycle.
        sim.proc.run(400_000, &mut NullHook);
    }
    ProbeSession {
        strategy: "benign",
        secret: 0,
        start_vtime,
        end_vtime: sim.proc.vtime,
        probes: 0,
        dropped: 0,
        located: false,
        escalation: Vec::new(),
        log: sim.proc.fault_log[log_start..].to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn honest(kind: StrategyKind, seed: u64) -> ProbeSession {
        run_round(kind, seed, &mut |_| false)
    }

    #[test]
    fn every_strategy_locates_the_secret() {
        for kind in StrategyKind::ALL {
            let s = honest(kind, 7);
            assert!(s.located, "{} must locate the secret", kind.name());
            assert_eq!(s.escalation, ESCALATION, "{}", kind.name());
            assert!(s.dropped == 0 && s.probes > 0);
            assert!(
                s.log.iter().all(|f| f.handled),
                "{}: crash-resistant probing never crashes",
                kind.name()
            );
        }
    }

    #[test]
    fn bisect_needs_an_order_of_magnitude_fewer_probes() {
        let lin = honest(StrategyKind::Linear, 3);
        let bis = honest(StrategyKind::Bisect, 3);
        assert_eq!(lin.secret, bis.secret, "same seed, same slot");
        assert!(
            bis.probes * 4 < lin.probes,
            "{} vs {}",
            bis.probes,
            lin.probes
        );
    }

    #[test]
    fn rounds_are_seed_deterministic() {
        let a = honest(StrategyKind::Stealth, 42);
        let b = honest(StrategyKind::Stealth, 42);
        assert_eq!(a.probes, b.probes);
        assert_eq!(a.secret, b.secret);
        assert_eq!(a.end_vtime - a.start_vtime, b.end_vtime - b.start_vtime);
        assert_eq!(a.log.len(), b.log.len());
    }

    #[test]
    fn dropping_every_probe_blinds_the_strategy() {
        let s = run_round(StrategyKind::Linear, 7, &mut |_| true);
        assert!(!s.located);
        assert_eq!(s.dropped, s.probes);
        assert_eq!(s.log.len(), 0, "dropped probes never touch memory");
        assert!(s.escalation.is_empty());
    }

    /// Counts data reads, so the scheduler must step every instruction.
    struct Observing(u64);

    impl cr_vm::Hook for Observing {
        fn on_mem_read(&mut self, _: &cr_vm::Cpu, _: u64, _: usize) {
            self.0 += 1;
        }
    }

    impl OsHook for Observing {}

    #[test]
    fn burst_idles_are_fast_forwarded_exactly() {
        let (fast, sim) = drive(StrategyKind::Burst, 7, &mut |_| false, &mut NullHook);
        let idles = (fast.probes - 1) / BURST_LEN;
        assert!(idles >= 3, "the round must idle between bursts");
        let skipped = sim.proc.vtime_skipped();
        assert!(
            skipped * 100 >= (idles * BURST_IDLE_STEPS) * 99,
            "skipped {skipped} of {idles} idles x {BURST_IDLE_STEPS} steps"
        );

        let mut observing = Observing(0);
        let (slow, sim) = drive(StrategyKind::Burst, 7, &mut |_| false, &mut observing);
        assert_eq!(
            sim.proc.vtime_skipped(),
            0,
            "a hook without an epoch sees every step"
        );
        // The worker's poll loop reads the job word once per 5-step period.
        assert!(observing.0 >= idles * BURST_IDLE_STEPS / 5);
        assert_eq!(
            (fast.end_vtime, fast.probes, fast.located, fast.secret),
            (slow.end_vtime, slow.probes, slow.located, slow.secret)
        );
        assert_eq!(fast.log, slow.log, "identical fault timestamps");
    }

    #[test]
    fn benign_workload_has_only_burst_faults() {
        let b = run_benign();
        assert_eq!(b.log.len(), 60, "3 asm.js bursts of 20");
        assert!(b.log.iter().all(|f| f.handled && f.mapped));
        assert!(!b.located && b.escalation.is_empty());
    }
}
