//! # cr-bench — experiment harness
//!
//! One binary per paper artifact (see DESIGN.md §4):
//!
//! | binary        | regenerates                                   |
//! |---------------|-----------------------------------------------|
//! | `table1`      | Table I — syscall candidates × five servers   |
//! | `table2`      | Table II — guarded locations per DLL          |
//! | `table3`      | Table III — filters before/after symex        |
//! | `api_funnel`  | §V-B — the Windows API funnel                 |
//! | `poc_exploits`| §VI — the four proof-of-concept oracles       |
//! | `fault_rates` | §VII-C — fault-rate workloads + defenses      |
//! | `ablations`   | DESIGN.md §5 — design-choice ablations        |
//!
//! Criterion performance benches live in `benches/perf.rs`.

/// Shared banner printing for the experiment binaries.
pub fn banner(title: &str) {
    println!("{}", "=".repeat(72));
    println!("{title}");
    println!("{}", "=".repeat(72));
}

/// Hardware threads on this machine (`available_parallelism`), stamped
/// into BENCH files so numbers recorded on different hosts compare.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// The checked-out commit as `git describe --always --dirty` names it
/// (short hash, `-dirty` if the tree has uncommitted changes), or
/// `"unknown"` outside a git checkout.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}
