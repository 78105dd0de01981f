//! The arena's detector roster.
//!
//! Three detectors, three detection philosophies:
//!
//! * **rate** — the paper's §VII-C sliding-window rate threshold,
//!   wrapping [`cr_defense::RateDetector`] unchanged;
//! * **cusum** — a windowed CUSUM anomaly scorer: fault counts are
//!   bucketed per virtual-time window and the cumulative excess over a
//!   drift allowance accumulates, so a *sustained* low rate (stealth
//!   probing) eventually alarms even though no single window crosses the
//!   naive threshold;
//! * **filter** — a seccomp-style syscall allowlist generated
//!   automatically from cr-scan's static observations, split into
//!   init-phase and serving-phase lists per the SysPart temporal tags.
//!
//! All detection clocks are virtual-time only; nothing here reads wall
//! time.

use cr_os::windows::FaultEvent;
use cr_os::STEPS_PER_MS;
use cr_scan::{ScanReport, Temporal};
use std::collections::BTreeSet;

/// The three detectors, in a stable order (new kinds append).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectorKind {
    /// Sliding-window rate threshold (§VII-C).
    Rate,
    /// Windowed CUSUM anomaly scorer.
    Cusum,
    /// Serving-phase syscall-allowlist filter.
    Filter,
}

impl DetectorKind {
    /// Every detector, in a stable order.
    pub const ALL: [DetectorKind; 3] = [
        DetectorKind::Rate,
        DetectorKind::Cusum,
        DetectorKind::Filter,
    ];

    /// Stable machine-readable name.
    pub fn name(self) -> &'static str {
        match self {
            DetectorKind::Rate => "rate",
            DetectorKind::Cusum => "cusum",
            DetectorKind::Filter => "filter",
        }
    }
}

/// Windowed CUSUM anomaly scorer over a fault log.
///
/// Faults are counted per `bucket_ms` virtual-time bucket; the score
/// accumulates `max(0, score + count - drift)` per bucket and alarms at
/// `threshold`. Calibration: the benign asm.js burst (20 faults, then
/// ≥2 empty buckets) nets `(20 - drift) - 2·drift ≤ 0` per cycle, so
/// `drift = 7` keeps benign cycles from accumulating while stealth's
/// ~10 faults per bucket accrue `+3` each bucket and cross
/// `threshold = 20` after ~7 buckets.
#[derive(Debug, Clone)]
pub struct Cusum {
    /// Bucket length in virtual milliseconds.
    pub bucket_ms: u64,
    /// Per-bucket fault allowance subtracted from the score.
    pub drift: u64,
    /// Score at which the alarm fires.
    pub threshold: u64,
}

impl Default for Cusum {
    fn default() -> Self {
        Cusum {
            bucket_ms: 100,
            drift: 7,
            threshold: 20,
        }
    }
}

/// CUSUM verdict over a fault log.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub struct CusumReport {
    /// Buckets swept (including empty ones).
    pub buckets: usize,
    /// Peak score reached.
    pub peak_score: u64,
    /// Whether the alarm fired.
    pub alarm: bool,
    /// Virtual time of the alarming bucket's end, if any.
    pub alarm_at: Option<u64>,
}

impl Cusum {
    /// Analyze a fault log spanning `[start_vtime, end_vtime)`.
    pub fn analyze(&self, log: &[FaultEvent], start_vtime: u64, end_vtime: u64) -> CusumReport {
        let bucket = self.bucket_ms * STEPS_PER_MS;
        let mut times: Vec<u64> = log
            .iter()
            .filter(|f| f.handled && f.vtime >= start_vtime)
            .map(|f| f.vtime - start_vtime)
            .collect();
        times.sort_unstable();
        let span = end_vtime.saturating_sub(start_vtime);
        let buckets = (span.max(1)).div_ceil(bucket) as usize;
        let mut score = 0u64;
        let mut peak = 0u64;
        let mut alarm_at = None;
        let mut next = 0usize;
        for b in 0..buckets as u64 {
            let end = (b + 1) * bucket;
            let mut count = 0u64;
            while next < times.len() && times[next] < end {
                count += 1;
                next += 1;
            }
            score = (score + count).saturating_sub(self.drift);
            peak = peak.max(score);
            if score >= self.threshold && alarm_at.is_none() {
                alarm_at = Some(start_vtime + end);
            }
        }
        CusumReport {
            buckets,
            peak_score: peak,
            alarm: alarm_at.is_some(),
            alarm_at,
        }
    }
}

/// A seccomp-style allowlist pair generated from one module's static
/// scan: syscall numbers proven constant at sites tagged init-reachable
/// vs serving-reachable (SysPart's split). Serving-phase enforcement
/// blocks any number outside the serving list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyscallFilter {
    /// Module the filter was generated from.
    pub module: String,
    /// Init-phase allowlist (`init-only` ∪ `both` sites).
    pub init: BTreeSet<u64>,
    /// Serving-phase allowlist (`serving` ∪ `both` sites).
    pub serving: BTreeSet<u64>,
}

impl SyscallFilter {
    /// Generate the allowlist pair from a scan report. Only sites with
    /// a proven-constant number contribute (an unproven number cannot
    /// be allowlisted); unreached sites contribute nothing.
    pub fn from_scan(report: &ScanReport) -> SyscallFilter {
        let mut init = BTreeSet::new();
        let mut serving = BTreeSet::new();
        for site in &report.sites {
            let Some(nr) = site.nr() else { continue };
            match site.temporal {
                Temporal::InitOnly => {
                    init.insert(nr);
                }
                Temporal::Serving => {
                    serving.insert(nr);
                }
                Temporal::Both => {
                    init.insert(nr);
                    serving.insert(nr);
                }
                Temporal::Unreached => {}
            }
        }
        SyscallFilter {
            module: report.module.clone(),
            init,
            serving,
        }
    }

    /// Generate the filter for a named target or corpus module by
    /// running the static scan (mirrors the campaign's module lookup).
    ///
    /// # Panics
    ///
    /// Panics when the module is unknown.
    pub fn for_module(name: &str) -> SyscallFilter {
        let image = cr_targets::server(name)
            .map(|t| t.image)
            .or_else(|| cr_targets::corpus::module(name).map(|m| m.image))
            .unwrap_or_else(|| panic!("unknown filter module {name:?}"));
        SyscallFilter::from_scan(&cr_scan::scan_elf(name, &image))
    }

    /// Whether serving-phase enforcement blocks syscall `nr`.
    pub fn blocks_serving(&self, nr: u64) -> bool {
        !self.serving.contains(&nr)
    }

    /// The subset of `nrs` the serving-phase filter blocks.
    pub fn blocked(&self, nrs: &[u64]) -> Vec<u64> {
        nrs.iter()
            .copied()
            .filter(|&n| self.blocks_serving(n))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategies::{BENIGN_SYSCALLS, ESCALATION};

    fn ev(vtime: u64) -> FaultEvent {
        FaultEvent {
            vtime,
            rip: 0x1000,
            addr: Some(0x7000),
            mapped: false,
            handled: true,
        }
    }

    #[test]
    fn benign_bursts_never_accumulate() {
        // 5 asm.js-style cycles: 20 faults tight, then a 300ms gap.
        let mut log = Vec::new();
        for cycle in 0..5u64 {
            let base = cycle * 400_000;
            log.extend((0..20).map(|i| ev(base + i * 100)));
        }
        let r = Cusum::default().analyze(&log, 0, 2_000_000);
        assert!(!r.alarm, "{r:?}");
        assert_eq!(r.peak_score, 13, "single-burst peak is 20 - drift");
    }

    #[test]
    fn sustained_low_rate_accumulates_to_alarm() {
        // 10 faults per 100ms bucket, sustained: under the rate
        // threshold forever, but CUSUM accrues +3 per bucket.
        let log: Vec<FaultEvent> = (0..100).map(|i| ev(i * 10_000)).collect();
        let r = Cusum::default().analyze(&log, 0, 1_000_000);
        assert!(r.alarm, "{r:?}");
        assert_eq!(r.alarm_at, Some(700_000), "alarms on the 7th bucket");
    }

    #[test]
    fn cusum_handles_unsorted_logs() {
        let mut log: Vec<FaultEvent> = (0..100).map(|i| ev(i * 10_000)).collect();
        log.reverse();
        let sorted = Cusum::default().analyze(&log, 0, 1_000_000);
        log.reverse();
        assert_eq!(Cusum::default().analyze(&log, 0, 1_000_000), sorted);
    }

    #[test]
    fn vsftpd_filter_splits_phases_and_blocks_escalation() {
        let f = SyscallFilter::for_module("vsftpd");
        // Serving phase: accept/read/write/close (write is `both`).
        for nr in [0, 1, 3, 43] {
            assert!(!f.blocks_serving(nr), "serving allowlist must hold {nr}");
        }
        // Socket setup is init-only: blocked once serving.
        assert!(f.init.contains(&41), "socket is init-phase");
        assert!(f.blocks_serving(41), "socket blocked while serving");
        // Escalation syscalls are outside both allowlists.
        assert_eq!(f.blocked(&ESCALATION), ESCALATION.to_vec());
        // …and the benign footprint passes untouched.
        assert!(f.blocked(&BENIGN_SYSCALLS).is_empty());
    }
}
