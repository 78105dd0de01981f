//! Exactness of the Windows scheduler's idle fast-forward: a firefox-sim
//! driven under `NullHook` (which has an epoch, so whole idle-loop
//! periods are skipped) must end every operation in exactly the state a
//! run under an observing hook (every instruction stepped) reaches —
//! same virtual time, retired steps, fault log, job words and thread
//! states.

use cr_isa::{Asm, Mem as M, Reg::*};
use cr_os::windows::{FaultEvent, WinProc};
use cr_os::OsHook;
use cr_targets::browsers::firefox::{self, FirefoxSim, JOB_PROBE_OFF, JOB_RESULT_OFF};
use cr_vm::{Cpu, Hook, NullHook, Prot};
use proptest::prelude::*;

/// Sleeper code page and the slot each sleeper stores its wake tick in.
const SLEEPER: u64 = 0x1_7000_0000;
const WAKE_SLOT: u64 = SLEEPER + 0x800;
/// Mapped and unmapped probe targets.
const MAPPED: u64 = 0x9300_0000_0000;
const UNMAPPED: u64 = 0x9400_0000_0000;

/// Counts data reads; has no epoch, so the scheduler steps everything.
#[derive(Default)]
struct Observing(u64);

impl Hook for Observing {
    fn on_mem_read(&mut self, _: &Cpu, _: u64, _: usize) {
        self.0 += 1;
    }
}

impl OsHook for Observing {}

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Probe one page of the mapped or the unmapped window.
    Probe { mapped: bool, page: u64 },
    /// `run(n)` with the worker idle.
    Idle(u64),
    /// Spawn a thread that calls `Sleep(ms)`, then stores its wake tick.
    Sleeper(u64),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<bool>(), 0u64..4).prop_map(|(mapped, page)| Op::Probe { mapped, page }),
        (0u64..5).prop_map(Op::Idle),
        // Multiples of the worker's 5-step poll period and every offset.
        (1u64..4_000, 0u64..5).prop_map(|(k, r)| Op::Idle(5 * k + r)),
        (0u64..2_000_001).prop_map(Op::Idle),
        (1u64..4).prop_map(Op::Sleeper),
    ]
}

fn sim() -> FirefoxSim {
    let mut sim = firefox::build();
    let api = sim.proc.api.clone();
    let mut a = Asm::new(SLEEPER);
    a.mov_ri(Rax, api.address_of("Sleep"));
    a.call_reg(Rax);
    a.mov_ri(Rax, api.address_of("GetTickCount"));
    a.call_reg(Rax);
    a.mov_ri(R9, WAKE_SLOT);
    a.store(M::base(R9), Rax);
    a.ret();
    let code = a.assemble().expect("assembles").code;
    let mem = &mut sim.proc.mem;
    assert!(!mem.is_mapped(SLEEPER) && !mem.is_mapped(MAPPED));
    mem.map(SLEEPER, 0x1000, Prot::RWX);
    mem.poke(SLEEPER, &code).expect("mapped");
    mem.map(MAPPED, 4 * 0x1000, Prot::R);
    sim
}

fn apply(sim: &mut FirefoxSim, op: Op, hook: &mut dyn OsHook) -> Option<bool> {
    match op {
        Op::Probe { mapped, page } => {
            let base = if mapped { MAPPED } else { UNMAPPED };
            firefox::probe(sim, base + page * 0x1000, hook)
        }
        Op::Idle(n) => {
            sim.proc.run(n, hook);
            None
        }
        Op::Sleeper(ms) => {
            sim.proc.spawn_thread(SLEEPER, ms);
            None
        }
    }
}

type Snapshot = (
    u64,
    Vec<(u32, bool, bool)>,
    Vec<([u64; 16], u64, cr_vm::Flags, u64)>,
    Vec<FaultEvent>,
    [u64; 3],
);

fn snapshot(p: &WinProc, job: u64) -> Snapshot {
    let states = p.thread_states();
    let cpus = states
        .iter()
        .map(|&(tid, ..)| {
            let c = p.thread_cpu(tid).expect("listed thread");
            (c.regs, c.rip, c.flags, c.steps)
        })
        .collect();
    let word = |a| p.mem.read_u64(a).expect("mapped");
    let words = [
        word(job + JOB_PROBE_OFF),
        word(job + JOB_RESULT_OFF),
        word(WAKE_SLOT),
    ];
    (p.vtime, states, cpus, p.fault_log.clone(), words)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn fast_forward_matches_stepping(ops in proptest::collection::vec(arb_op(), 1..8)) {
        let (mut fast, mut slow) = (sim(), sim());
        let mut observing = Observing::default();
        for (i, &op) in ops.iter().enumerate() {
            let a = apply(&mut fast, op, &mut NullHook);
            let b = apply(&mut slow, op, &mut observing);
            prop_assert_eq!(a, b, "op {} {:?}: probe verdict", i, op);
            prop_assert_eq!(
                snapshot(&fast.proc, fast.job),
                snapshot(&slow.proc, slow.job),
                "op {} {:?}",
                i,
                op
            );
        }
        prop_assert_eq!(slow.proc.vtime_skipped(), 0);
    }
}

#[test]
fn sleeper_deadline_inside_a_long_idle_is_honoured() {
    let (mut fast, mut slow) = (sim(), sim());
    let mut observing = Observing::default();
    for op in [
        Op::Sleeper(2),
        Op::Idle(1_999_999),
        Op::Probe {
            mapped: false,
            page: 1,
        },
    ] {
        apply(&mut fast, op, &mut NullHook);
        apply(&mut slow, op, &mut observing);
        assert_eq!(
            snapshot(&fast.proc, fast.job),
            snapshot(&slow.proc, slow.job),
            "{op:?}"
        );
    }
    let (_, states, _, _, words) = snapshot(&fast.proc, fast.job);
    assert_eq!(words[2], 2, "the sleeper woke at 2 virtual ms");
    assert!(states.last().is_some_and(|&(_, parked, _)| parked));
    assert!(
        fast.proc.vtime_skipped() > 1_990_000,
        "the idle was skipped"
    );
}
