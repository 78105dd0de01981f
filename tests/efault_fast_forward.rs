//! Exactness of the Linux scheduler's spin fast-forward: a cherokee-sim
//! driven under `CorruptMonitor` (which has an epoch, so whole periods
//! of its corrupted workers' `-EFAULT` spin are skipped) must end every
//! operation in exactly the state the same monitor reaches when wrapped
//! in an opaque hook that forces every instruction to be stepped — same
//! virtual time, `-EFAULT` count, run exit, registers, retired steps,
//! thread states, console and response bytes.

use cr_core::syscall_finder::{CorruptMonitor, BAD_POINTER};
use cr_image::{ElfImage, ElfSegment, SegPerm};
use cr_isa::{Asm, Cond, Inst, Mem as M, Reg::*};
use cr_os::linux::net::ConnId;
use cr_os::linux::syscall::{errno, nr};
use cr_os::linux::{LinuxProc, RunExit, Thread, ThreadState};
use cr_os::OsHook;
use cr_targets::servers::cherokee::{self, CTX_STRIDE, CTX_TABLE, PORT, WORKERS};
use cr_targets::ServerTarget;
use cr_vm::{Cpu, Flags, Hook, Memory, NullHook, PairHook};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Forwards every callback to the wrapped hook but has no epoch, so the
/// scheduler steps everything.
struct Opaque<'a, H>(&'a mut H);

impl<H: Hook> Hook for Opaque<'_, H> {
    fn on_inst(&mut self, cpu: &Cpu, mem: &mut Memory, inst: &Inst, va: u64, len: usize) {
        self.0.on_inst(cpu, mem, inst, va, len);
    }

    fn on_mem_read(&mut self, cpu: &Cpu, va: u64, len: usize) {
        self.0.on_mem_read(cpu, va, len);
    }

    fn on_mem_write(&mut self, cpu: &Cpu, va: u64, len: usize) {
        self.0.on_mem_write(cpu, va, len);
    }

    fn on_call(&mut self, cpu: &Cpu, ret_to: u64, target: u64) {
        self.0.on_call(cpu, ret_to, target);
    }

    fn on_ret(&mut self, cpu: &Cpu, ret_to: u64) {
        self.0.on_ret(cpu, ret_to);
    }
}

impl<H: OsHook> OsHook for Opaque<'_, H> {
    fn on_schedule(&mut self, tid: u32) {
        self.0.on_schedule(tid);
    }

    fn on_syscall(&mut self, tid: u32, cpu: &mut Cpu, mem: &Memory) {
        self.0.on_syscall(tid, cpu, mem);
    }

    fn on_syscall_ret(&mut self, tid: u32, nr: u64, ret: i64) {
        self.0.on_syscall_ret(tid, nr, ret);
    }

    fn on_api_call(&mut self, name: &str, cpu: &Cpu, mem: &Memory) {
        self.0.on_api_call(name, cpu, mem);
    }

    fn on_exception(&mut self, rip: u64, handled: bool) {
        self.0.on_exception(rip, handled);
    }
}

/// Counts the first `cap` `-EFAULT` returns, then goes quiet. Its state
/// changes without touching guest memory, so only its epoch keeps the
/// scheduler from skipping a spin it is still counting.
struct Sampler {
    seen: u64,
    cap: u64,
}

impl Hook for Sampler {
    fn epoch(&self) -> Option<u64> {
        Some(self.seen)
    }
}

impl OsHook for Sampler {
    fn on_syscall_ret(&mut self, _tid: u32, _nr: u64, ret: i64) {
        if ret == -errno::EFAULT && self.seen < self.cap {
            self.seen += 1;
        }
    }
}

type Monitor = PairHook<CorruptMonitor, Sampler>;

/// The `ev_ptr` cell of each worker's context.
fn ev_cell(t: u64) -> u64 {
    CTX_TABLE + t * CTX_STRIDE + 8
}

fn cells(mask: u8) -> BTreeSet<u64> {
    (0..WORKERS)
        .filter(|&t| mask & (1 << t) != 0)
        .map(ev_cell)
        .collect()
}

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Add the workers in the mask to the set the monitor corrupts.
    Corrupt(u8),
    /// Take the workers in the mask out of that set and write their
    /// original `ev_ptr` back.
    Restore(u8),
    /// Connect and send one request.
    Request,
    /// `run(n)`.
    Run(u64),
}

fn arb_op() -> impl Strategy<Value = Op> {
    // Corruption and long runs appear twice: a spin needs both.
    prop_oneof![
        (1u8..8).prop_map(Op::Corrupt),
        (1u8..8).prop_map(Op::Corrupt),
        (1u8..8).prop_map(Op::Restore),
        Just(Op::Request),
        (0u64..5).prop_map(Op::Run),
        // Multiples of the 256-step quantum and the 768-step three-worker
        // round, and every offset from them.
        (1u64..2_000, 0u64..768).prop_map(|(k, r)| Op::Run(768 * k + r)),
        (0u64..4_000_001).prop_map(Op::Run),
        (0u64..4_000_001).prop_map(Op::Run),
    ]
}

/// One booted cherokee and everything the driver has seen of it.
struct Side {
    p: LinuxProc,
    /// Workers whose `ev_ptr` the monitor corrupts.
    corrupt: u8,
    conns: Vec<ConnId>,
    received: Vec<Vec<u8>>,
    exit: Option<RunExit>,
}

impl Side {
    fn boot(t: &ServerTarget) -> Side {
        Side {
            p: t.boot(&mut NullHook),
            corrupt: 0,
            conns: Vec::new(),
            received: Vec::new(),
            exit: None,
        }
    }

    /// Apply `op`, running under `mon` itself or, if `opaque`, under
    /// `mon` wrapped in [`Opaque`].
    fn apply(&mut self, op: Op, mon: &mut Monitor, originals: &[u64], opaque: bool) {
        match op {
            Op::Corrupt(mask) => {
                self.corrupt |= mask;
                mon.0 = CorruptMonitor::new(cells(self.corrupt), BAD_POINTER);
            }
            Op::Restore(mask) => {
                self.corrupt &= !mask;
                for cell in cells(mask) {
                    let orig = originals[((cell - ev_cell(0)) / CTX_STRIDE) as usize];
                    self.p.mem.write_u64(cell, orig).expect("context is mapped");
                }
                mon.0 = CorruptMonitor::new(cells(self.corrupt), BAD_POINTER);
            }
            Op::Request => {
                let conn = self.p.net.client_connect(PORT).expect("listening");
                self.p.net.client_send(conn, b"GET /index.html\n\n");
                self.conns.push(conn);
                self.received.push(Vec::new());
            }
            Op::Run(n) if opaque => self.exit = Some(self.p.run(n, &mut Opaque(mon))),
            Op::Run(n) => self.exit = Some(self.p.run(n, mon)),
        }
        for (conn, got) in self.conns.iter().zip(&mut self.received) {
            got.extend(self.p.net.client_recv(*conn, usize::MAX));
        }
    }
}

type ThreadSnap = (
    [u64; 16],
    u64,
    Flags,
    u64,
    (ThreadState, Option<(u64, [u64; 6])>, bool),
);

fn thread_snap(t: &Thread) -> ThreadSnap {
    (
        t.cpu.regs,
        t.cpu.rip,
        t.cpu.flags,
        t.cpu.steps,
        t.sched_state(),
    )
}

type Snapshot = (
    u64,
    u64,
    Option<RunExit>,
    Vec<ThreadSnap>,
    Vec<u8>,
    Vec<Vec<u8>>,
    (u32, u64),
);

fn snapshot(s: &Side, mon: &Monitor) -> Snapshot {
    (
        s.p.vtime,
        s.p.efault_count,
        s.exit,
        s.p.threads().iter().map(thread_snap).collect(),
        s.p.console.clone(),
        s.received.clone(),
        (mon.0.pokes, mon.1.seen),
    )
}

fn monitor(cap: u64) -> Monitor {
    PairHook(
        CorruptMonitor::new(BTreeSet::new(), BAD_POINTER),
        Sampler { seen: 0, cap },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn fast_forward_matches_stepping(
        ops in proptest::collection::vec(arb_op(), 1..8),
        cap in 0u64..50_000,
    ) {
        let t = cherokee::target();
        let (mut fast, mut slow) = (Side::boot(&t), Side::boot(&t));
        let originals: Vec<u64> = (0..WORKERS)
            .map(|w| fast.p.mem.read_u64(ev_cell(w)).expect("context is mapped"))
            .collect();
        let (mut fast_mon, mut slow_mon) = (monitor(cap), monitor(cap));
        for (i, &op) in ops.iter().enumerate() {
            fast.apply(op, &mut fast_mon, &originals, false);
            slow.apply(op, &mut slow_mon, &originals, true);
            prop_assert_eq!(
                snapshot(&fast, &fast_mon),
                snapshot(&slow, &slow_mon),
                "op {} {:?}",
                i,
                op
            );
        }
        prop_assert_eq!(slow.p.vtime_skipped(), 0);
    }
}

#[test]
fn corrupted_cherokee_exercise_is_fast_forwarded() {
    let t = cherokee::target();
    let run = |opaque: bool| {
        let mut p = t.boot(&mut NullHook);
        let mut cm = CorruptMonitor::new(cells(0b111), BAD_POINTER);
        let v0 = p.vtime;
        let served = if opaque {
            (t.exercise)(&mut p, &mut Opaque(&mut cm))
        } else {
            (t.exercise)(&mut p, &mut cm)
        };
        let spent = p.vtime - v0;
        (p, served, spent)
    };
    // A worker blocked since boot holds a valid `ev_ptr` in its
    // registers and answers the request before its next reload spins.
    let (fast, served, spent) = run(false);
    assert!(served);
    assert!(
        fast.vtime_skipped() * 100 >= spent * 95,
        "skipped {} of {spent} steps",
        fast.vtime_skipped()
    );
    let (slow, served, _) = run(true);
    assert!(served);
    assert_eq!(slow.vtime_skipped(), 0, "an opaque hook sees every step");
    assert_eq!(
        (fast.vtime, fast.efault_count),
        (slow.vtime, slow.efault_count)
    );
    let threads = |p: &LinuxProc| p.threads().iter().map(thread_snap).collect::<Vec<_>>();
    assert_eq!(threads(&fast), threads(&slow));
}

const CODE: u64 = 0x40_0000;
const DATA: u64 = 0x60_0000;
const SPIN_PORT: u16 = 9000;

/// A one-thread process running `body`, with a zeroed data page at
/// `DATA` holding a `sockaddr_in` for `SPIN_PORT`.
fn spinner(body: impl FnOnce(&mut Asm)) -> LinuxProc {
    let mut a = Asm::new(CODE);
    a.global("entry");
    body(&mut a);
    let asm = a.assemble().expect("assembles");
    let mut data = vec![0u8; 0x100];
    data[0] = 2;
    data[2..4].copy_from_slice(&SPIN_PORT.to_be_bytes());
    LinuxProc::load(&ElfImage {
        entry: asm.sym("entry"),
        segments: vec![
            ElfSegment {
                vaddr: asm.base,
                memsz: asm.code.len() as u64,
                data: asm.code,
                perm: SegPerm::RX,
            },
            ElfSegment {
                vaddr: DATA,
                memsz: 0x1000,
                data,
                perm: SegPerm::RW,
            },
        ],
        symbols: asm.symbols,
    })
}

fn sys(a: &mut Asm, n: u64) {
    a.mov_ri(Rax, n);
    a.syscall();
}

/// Run `p` and a stepped twin through `drive`, and require both to end
/// alike with nothing skipped.
fn never_skipped(build: fn() -> LinuxProc, drive: fn(&mut LinuxProc, &mut dyn OsHook) -> RunExit) {
    let (mut fast, mut slow) = (build(), build());
    let a = drive(&mut fast, &mut NullHook);
    let b = drive(&mut slow, &mut Opaque(&mut NullHook));
    assert_eq!(a, b);
    assert_eq!(
        (fast.vtime, fast.efault_count),
        (slow.vtime, slow.efault_count)
    );
    let snap = |p: &LinuxProc| p.threads().iter().map(thread_snap).collect::<Vec<_>>();
    assert_eq!(snap(&fast), snap(&slow));
    assert_eq!(fast.vtime_skipped(), 0);
}

#[test]
fn a_read_spin_consuming_bytes_is_never_skipped() {
    // `read` into a bad buffer consumes a byte before the copy fails:
    // registers and memory repeat every period, the connection does not.
    never_skipped(
        || {
            spinner(|a| {
                sys(a, nr::SOCKET);
                a.mov_rr(R12, Rax);
                a.mov_rr(Rdi, R12);
                a.mov_ri(Rsi, DATA);
                a.mov_ri(Rdx, 16);
                sys(a, nr::BIND);
                a.mov_rr(Rdi, R12);
                a.mov_ri(Rsi, 1);
                sys(a, nr::LISTEN);
                a.mov_rr(Rdi, R12);
                a.zero(Rsi);
                a.zero(Rdx);
                sys(a, nr::ACCEPT);
                a.mov_rr(R13, Rax);
                let top = a.here();
                a.mov_rr(Rdi, R13);
                a.mov_ri(Rsi, BAD_POINTER);
                a.mov_ri(Rdx, 1);
                sys(a, nr::READ);
                a.jmp(top);
            })
        },
        |p, hook| {
            assert_eq!(p.run(10_000, hook), RunExit::Idle, "blocked in accept");
            let conn = p.net.client_connect(SPIN_PORT).expect("listening");
            p.net.client_send(conn, &[b'x'; 2_000]);
            // Stepping drains every byte, then blocks in read.
            let exit = p.run(100_000, hook);
            assert!(!p.net.server_readable(conn), "all bytes consumed");
            assert_eq!(p.efault_count, 2_000);
            exit
        },
    );
}

#[test]
fn a_spin_reading_the_clock_is_never_skipped() {
    // Loops until `clock_gettime` reports 100 virtual ms, then exits.
    never_skipped(
        || {
            spinner(|a| {
                let top = a.here();
                a.zero(Rdi);
                a.mov_ri(Rsi, DATA + 0x80);
                sys(a, nr::GETTIME);
                a.mov_ri(R9, DATA + 0x88);
                a.load(Rax, M::base(R9));
                a.cmp_ri(Rax, 100_000_000);
                a.jcc(Cond::L, top);
                a.mov_ri(Rdi, 7);
                sys(a, nr::EXIT_GROUP);
            })
        },
        |p, hook| p.run(1_000_000, hook),
    );
}
