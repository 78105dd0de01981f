//! Discover crash-resistant syscall primitives in a server binary —
//! the paper's §IV-A pipeline against a single target.
//!
//! The framework boots the server, runs its test workload under taint +
//! pointer-provenance tracking, then re-runs it while invalidating each
//! candidate's pointer source cells and classifies the outcomes.
//!
//! ```sh
//! cargo run --example server_oracle_discovery [server-name]
//! ```

use cr_core::syscall_finder::{discover_server, Classification};

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "nginx".to_string());
    let Some(target) = cr_targets::server(&name) else {
        eprintln!(
            "unknown server {name:?}; available: nginx cherokee lighttpd memcached postgresql"
        );
        std::process::exit(1);
    };

    println!("discovering crash-resistant primitives in {name} ...\n");
    let report = discover_server(&target);

    println!("observed syscalls during the test suite:");
    let names: Vec<&str> = report
        .observed_syscalls
        .iter()
        .map(|&n| cr_os::linux::syscall::name(n))
        .collect();
    println!("  {}\n", names.join(" "));

    println!("candidates (attacker-reachable pointer arguments):");
    for f in &report.findings {
        let verdict = match f.classification {
            Classification::CrashesOnInvalidation => "crashes on invalidation (±)",
            Classification::Usable {
                service_after: true,
            } => "USABLE — service survives (⊕)",
            Classification::Usable {
                service_after: false,
            } => "usable per framework, service dead (false positive)",
            Classification::NotRetriggered => "not re-triggered",
        };
        println!(
            "  {:<12} arg {}  sources {:?}  → {}",
            f.syscall_name,
            f.arg_index,
            f.sources
                .iter()
                .map(|s| format!("{s:#x}"))
                .collect::<Vec<_>>(),
            verdict
        );
    }

    let usable = report.usable().len();
    println!("\n{usable} usable primitive(s) reported by the framework");
}
