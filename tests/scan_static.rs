//! End-to-end contract of the traceless scanner (cr-scan):
//!
//! * **Recall** — on every calibrated server, static discovery finds
//!   every syscall site the dynamic taint observer confirms
//!   (`taint_only` empty, recall 1.0).
//! * **Temporal sanity** — serving-phase primitives (the sites the
//!   paper's attacks actually use) are tagged serving-reachable, and
//!   init-phase setup syscalls are not.
//! * **Unharnessed corpus** — a module with no dynamic harness scans
//!   end-to-end with all four temporal tags in evidence.
//! * **Determinism** — report bytes are identical across repeated
//!   runs and independent of any prior state.

use cr_scan::{cross_validate, scan_elf, Origin, Temporal};

fn server(name: &str) -> cr_targets::ServerTarget {
    cr_targets::server(name).expect("known server")
}

#[test]
fn static_recall_is_total_on_every_calibrated_server() {
    for t in cr_targets::all_servers() {
        let (scan, agreement) = cross_validate(&t);
        assert!(
            agreement.taint_only.is_empty(),
            "{}: scanner missed dynamically confirmed sites {:?}",
            t.name,
            agreement.taint_only
        );
        assert_eq!(agreement.recall(), 1.0, "{}", t.name);
        assert!(
            !agreement.matched.is_empty(),
            "{}: the workload must confirm at least one site",
            t.name
        );
        // The static side must also see strictly more than the
        // workload exercises — that surplus is the whole point of a
        // traceless backend.
        assert!(
            scan.sites.len() >= agreement.matched.len(),
            "{}: static site set can't be smaller than the matched set",
            t.name
        );
    }
}

#[test]
fn serving_loops_are_recognized_on_every_server() {
    for t in cr_targets::all_servers() {
        let scan = scan_elf(t.name, &t.image);
        assert!(
            !scan.serving_roots.is_empty(),
            "{}: no serving-loop marker matched",
            t.name
        );
        let serving = scan
            .sites
            .iter()
            .filter(|s| matches!(s.temporal, Temporal::Serving | Temporal::Both))
            .count();
        assert!(serving > 0, "{}: no serving-phase sites", t.name);
    }
}

#[test]
fn lighttpd_socket_setup_is_init_only_and_read_is_serving() {
    let t = server("lighttpd");
    let scan = scan_elf(t.name, &t.image);
    let by_nr = |nr: u64| {
        scan.sites
            .iter()
            .filter(move |s| s.nr() == Some(nr))
            .collect::<Vec<_>>()
    };
    use cr_os::linux::syscall::nr;
    for s in by_nr(nr::SOCKET) {
        assert_eq!(
            s.temporal,
            Temporal::InitOnly,
            "socket() runs before the loop"
        );
    }
    let reads = by_nr(nr::READ);
    assert!(!reads.is_empty(), "read sites resolved to constants");
    assert!(
        reads
            .iter()
            .any(|s| matches!(s.temporal, Temporal::Serving | Temporal::Both)),
        "the ⊕ read primitive must be serving-reachable"
    );
}

#[test]
fn unharnessed_corpus_module_scans_end_to_end() {
    let m = cr_targets::corpus::module("vsftpd").expect("corpus module");
    let scan = scan_elf(m.name, &m.image);

    // All four temporal flavors are present by construction.
    let tag_count = |t: Temporal| scan.sites.iter().filter(|s| s.temporal == t).count();
    assert!(tag_count(Temporal::InitOnly) > 0, "socket/bind/listen");
    assert!(tag_count(Temporal::Serving) > 0, "accept/read/close");
    assert!(tag_count(Temporal::Both) > 0, "shared log helper");
    assert!(tag_count(Temporal::Unreached) > 0, "dead shutdown path");

    // The config-driven site's number is memory-loaded from the config
    // cell — reported as such, never guessed.
    let loaded: Vec<_> = scan
        .sites
        .iter()
        .filter(|s| matches!(s.number, Origin::MemoryLoaded { .. }))
        .collect();
    assert_eq!(loaded.len(), 1, "exactly one config-driven site");
    assert_eq!(
        loaded[0].number,
        Origin::MemoryLoaded {
            addr: Some(cr_targets::corpus::F_OPCELL)
        }
    );
    assert!(loaded[0].nr().is_none(), "no number claimed for it");

    // The serving-phase read's buffer argument traces to the writable
    // pointer field — the corruption-monitor shape, found statically.
    use cr_os::linux::syscall::nr;
    let read = scan
        .sites
        .iter()
        .find(|s| s.nr() == Some(nr::READ))
        .expect("read site");
    assert!(matches!(read.temporal, Temporal::Serving | Temporal::Both));
    let buf = read.args.iter().find(|a| a.index == 1).expect("buf arg");
    assert_eq!(
        buf.origin,
        Origin::MemoryLoaded {
            addr: Some(cr_targets::corpus::F_BUFPTR)
        }
    );
}

#[test]
fn scan_reports_are_byte_identical_across_runs() {
    for t in cr_targets::all_servers() {
        let a = scan_elf(t.name, &t.image).to_json();
        let b = scan_elf(t.name, &t.image).to_json();
        assert_eq!(a, b, "{}", t.name);
    }
    let m = cr_targets::corpus::module("vsftpd").unwrap();
    assert_eq!(
        scan_elf(m.name, &m.image).to_json(),
        scan_elf(m.name, &m.image).to_json()
    );
}
