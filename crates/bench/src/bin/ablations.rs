//! Ablation experiments for the design choices called out in DESIGN.md §5.
//!
//! 1. **Active invalidation vs passive candidate listing** — without the
//!    invalidation phase every tainted-pointer syscall would be reported
//!    usable; invalidation reveals most of them crash.
//! 2. **Symbolic execution vs syntactic catch-all triage** — counting
//!    only scope entries with the literal `1` filter misses every filter
//!    *function* that still accepts access violations.
//! 3. **Byte- vs word-granular taint** — coarse shadow granularity
//!    falsely taints pointers packed next to attacker bytes.
//! 4. **Execution-path cross-referencing** — statically AV-capable
//!    guarded locations vastly overstate what a workload can actually
//!    trigger.

use cr_core::seh::analyze_module;
use cr_core::syscall_finder::{discover_server, Classification};
use cr_image::FilterRef;
use cr_targets::browsers::{generate_dll, DllSpec, CALIBRATION};

fn main() {
    cr_bench::banner("Ablations");

    // ---- 1. invalidation phase --------------------------------------------
    println!("\n[1] active pointer invalidation (nginx):");
    let target = cr_targets::server("nginx").unwrap();
    let report = discover_server(&target);
    let candidates = report.findings.len();
    let usable = report
        .findings
        .iter()
        .filter(|f| matches!(f.classification, Classification::Usable { .. }))
        .count();
    let crashing = report
        .findings
        .iter()
        .filter(|f| f.classification == Classification::CrashesOnInvalidation)
        .count();
    println!("    passive listing would report usable: {candidates}");
    println!("    after invalidation:  usable {usable}, crash-on-invalidation {crashing}");
    assert!(crashing > usable, "invalidation must prune most candidates");

    // ---- 2. symex vs catch-all triage ---------------------------------------
    println!("\n[2] symbolic execution vs catch-all-only triage:");
    let mut missed_total = 0usize;
    for (i, c) in CALIBRATION.iter().filter(|c| c.in_table2).enumerate() {
        let img = generate_dll(&DllSpec::from_calib_x64(c, i));
        let catchall_only: usize = img
            .runtime_functions
            .iter()
            .filter(|rf| {
                rf.unwind.handler_rva.is_some()
                    && rf
                        .unwind
                        .scopes
                        .iter()
                        .any(|s| s.filter == FilterRef::CatchAll)
            })
            .count();
        let full = analyze_module(&img);
        let missed = full.guarded_after.saturating_sub(catchall_only);
        missed_total += missed;
        println!(
            "    {:<10} catch-all-only: {:>3}   with symex: {:>3}   missed without symex: {:>3}",
            c.name, catchall_only, full.guarded_after, missed
        );
    }
    assert!(
        missed_total > 0,
        "symex must add candidates beyond catch-all"
    );

    // ---- 3. byte- vs word-granular taint ------------------------------------
    // The paper extends libdft with byte-granular tracking. Emulate the
    // coarser alternative by rounding the taint seed out to 8-byte words:
    // a 5-byte network command that shares a word with a packed adjacent
    // pointer then falsely taints the pointer — a phantom candidate.
    println!("\n[3] byte- vs word-granular taint (packed struct: 5-byte cmd, pointer at +5):");
    {
        use cr_isa::{Asm, Mem as M, Reg};
        use cr_taint::TaintEngine;
        use cr_vm::{Cpu, Exit, Memory, Prot};
        const BUF: u64 = 0x10_0000;
        let mut a = Asm::new(0x1000);
        a.mov_ri(Reg::Rdi, BUF + 5);
        a.load(Reg::Rsi, M::base(Reg::Rdi)); // load the packed pointer
        a.hlt();
        let code = a.assemble().unwrap().code;
        let run = |seed_len: u64| {
            let mut mem = Memory::new();
            mem.map(0x1000, 0x1000, Prot::RX);
            mem.poke(0x1000, &code).unwrap();
            mem.map(BUF, 0x1000, Prot::RW);
            let mut t = TaintEngine::new();
            t.taint_region(BUF, seed_len, 1); // network-input label
            let mut cpu = Cpu::new();
            cpu.rip = 0x1000;
            while cpu.step(&mut mem, &mut t) == Exit::Normal {}
            t.reg_taint(Reg::Rsi, cr_isa::Width::B8).is_tainted()
        };
        let byte_granular = run(5); // exact 5 input bytes
        let word_granular = run(8); // seed rounded out to the word
        println!("    byte-granular: pointer tainted = {byte_granular} (correct)");
        println!("    word-granular: pointer tainted = {word_granular} (false candidate)");
        assert!(!byte_granular && word_granular);
    }

    // ---- 4. execution-path cross-referencing --------------------------------
    println!("\n[4] static AV-capable locations vs actually-triggered (Table II):");
    let statically: u32 = CALIBRATION
        .iter()
        .filter(|c| c.in_table2)
        .map(|c| c.guarded_after)
        .sum();
    let on_path: u32 = CALIBRATION
        .iter()
        .filter(|c| c.in_table2)
        .map(|c| c.on_path)
        .sum();
    println!(
        "    static after-symex: {statically}   on browse path: {on_path}   \
         overstatement factor: {:.1}x",
        statically as f64 / on_path.max(1) as f64
    );
}
