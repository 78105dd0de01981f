//! Cross-crate pipeline test: discovery output on a Linux server must be
//! *actionable* — the reported source cells, corrupted through the
//! attacker's write primitive, must yield exactly the crash-resistant
//! behaviour the classification promises.

use cr_core::syscall_finder::{discover_server, Classification};
use cr_os::linux::syscall::nr;
use cr_os::linux::RunExit;
use cr_vm::NullHook;

#[test]
fn lighttpd_finding_is_directly_exploitable() {
    let target = cr_targets::server("lighttpd").unwrap();
    let report = discover_server(&target);
    let read = report.finding(nr::READ).expect("read candidate");
    assert!(matches!(read.classification, Classification::Usable { .. }));

    // Act on the report: boot a fresh server, corrupt the reported source
    // cells by hand (the attacker's arbitrary write), and probe.
    let mut p = target.boot(&mut NullHook);
    for &cell in &read.sources {
        p.mem.write_u64(cell, 0xdead_0000).unwrap();
    }
    let conn = p.net.client_connect(target.port).unwrap();
    p.run(500_000, &mut NullHook);
    p.net.client_send(conn, b"GET /\n\n");
    let exit = p.run(2_000_000, &mut NullHook);
    assert!(matches!(exit, RunExit::Idle), "server survives: {exit:?}");
    assert!(p.alive());
    assert!(p.efault_count >= 1, "the probe is visible as -EFAULT");
    assert!(
        p.net.server_closed(conn),
        "graceful per-connection teardown"
    );
}

#[test]
fn crashing_finding_really_crashes() {
    let target = cr_targets::server("lighttpd").unwrap();
    let report = discover_server(&target);
    let open = report.finding(nr::OPEN).expect("open candidate");
    assert_eq!(open.classification, Classification::CrashesOnInvalidation);

    let mut p = target.boot(&mut NullHook);
    for &cell in &open.sources {
        p.mem.write_u64(cell, 0xdead_0000).unwrap();
    }
    let conn = p.net.client_connect(target.port).unwrap();
    p.run(500_000, &mut NullHook);
    p.net.client_send(conn, b"GET /\n\n");
    let exit = p.run(2_000_000, &mut NullHook);
    assert!(
        matches!(exit, RunExit::Crashed(_)),
        "touched pointer crashes: {exit:?}"
    );
}

#[test]
fn all_five_servers_have_a_usable_primitive() {
    // The paper's headline claim for §V-A: "our framework discovered a
    // usable crash-resistant primitive in all of our server programs".
    for target in cr_targets::all_servers() {
        let report = discover_server(&target);
        assert!(
            !report.usable().is_empty(),
            "{} must expose at least one usable primitive",
            target.name
        );
    }
}

#[test]
fn discovery_is_deterministic() {
    let t1 = cr_targets::server("memcached").unwrap();
    let t2 = cr_targets::server("memcached").unwrap();
    let r1 = discover_server(&t1);
    let r2 = discover_server(&t2);
    assert_eq!(r1.observed_syscalls, r2.observed_syscalls);
    let k1: Vec<_> = r1
        .findings
        .iter()
        .map(|f| (f.syscall, f.sources.clone()))
        .collect();
    let k2: Vec<_> = r2
        .findings
        .iter()
        .map(|f| (f.syscall, f.sources.clone()))
        .collect();
    assert_eq!(k1, k2, "same binary + same workload → same findings");
}
