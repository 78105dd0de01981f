//! # cr-targets — synthetic analysis targets
//!
//! The binaries the discovery framework analyzes, built from scratch with
//! `cr-isa`/`cr-image`:
//!
//! * [`servers`] — the five Linux servers of Table I (nginx, cherokee,
//!   lighttpd, memcached, postgresql), each an ELF executable with the
//!   crash-resistance idioms of the originals (see DESIGN.md).
//! * [`browsers`] — Windows-side material for Tables II/III and §V-B:
//!   system DLL images with calibrated SEH populations, plus Internet
//!   Explorer- and Firefox-like host applications.
//!
//! The pipeline consumes only the *binary* artifacts (ELF/PE bytes and
//! runtime behaviour); nothing here hands ground truth to the analyses.

pub mod browsers;
pub mod corpus;
pub mod servers;

pub use servers::{all as all_servers, by_name as server, ServerTarget};

/// Symbol names marking a serving/accept loop across the calibrated
/// corpus. The five Table-I servers label their request loops with one
/// of these (`accept_loop` for nginx-style sequential accept loops,
/// `main_loop`/`worker` for the event- and worker-pool shapes), and
/// the traceless scanner uses them as SysPart-style temporal roots:
/// sites reachable from a matching symbol are serving-phase, sites
/// reachable from the entry point without crossing one are init-phase.
pub const SERVING_LOOP_SYMBOLS: &[&str] = &["accept_loop", "main_loop", "worker"];
