//! The content-addressed analysis cache.
//!
//! Five tables, all keyed by stable content identifiers
//! ([`cr_core::stable_hash`] or a deterministic config descriptor):
//!
//! * **filter verdicts** — keyed by `machine:sha256(filter code bytes)`
//!   ([`cr_core::seh::filter_key`]); identical filter code shared by
//!   several modules is symbolically executed exactly once per corpus
//!   lifetime;
//! * **module analyses** — summary rows keyed by the image content hash
//!   ([`cr_core::seh::image_content_hash`]); a warm rerun skips the
//!   whole module analysis, solver included;
//! * **static scans** — [`ScanSummary`] rows keyed by the ELF content
//!   hash ([`cr_scan::elf_content_hash`]); a warm rerun skips the
//!   CFG reconstruction and dataflow walk;
//! * **arena summaries** — [`cr_arena::ArenaSummary`] rows keyed by the
//!   strategy's full config descriptor (strategy, seed, rounds, filter
//!   module); a warm rerun skips every probe simulation of that
//!   strategy's rounds;
//! * **task results** — whole [`TaskResult`] rows of the three other
//!   emulating task kinds, so a warm rerun runs no emulation at all:
//!   * server discovery under
//!     `server:{name}:{elf_content_hash}:p{port}:b{boot_steps}:{regions}`
//!     ([`cr_scan::elf_content_hash`] of the server image, then its
//!     listen port, boot step budget and attacker-reachable regions as
//!     comma-separated `base+size` in hex);
//!   * PoC oracle scans under `poc:{oracle}:{secret}:{len}:{start}:{end}:{stride}`
//!     (the scenario tuple in hex);
//!   * API funnels under `funnel:{corpus_size}:s{seed}`, the seed being
//!     the attempt's, so a retry at a derived seed never reads a row
//!     made at another.
//!
//!   Like the arena key, the PoC and funnel keys describe config, not
//!   guest code: they stay valid only while the oracle and corpus
//!   builders are deterministic functions of that config.
//!
//! With `--cache DIR` the cache persists as one JSONL file
//! (`analysis-cache.jsonl`, one entry per line, table by table in the
//! order above and sorted by key within a table, so the file is
//! byte-stable), loaded before the campaign and rewritten after.
//! Without a directory the cache lives in memory only — still useful,
//! since campaigns repeat filter bodies across modules.
//!
//! ## Corruption handling
//!
//! Each persisted line is framed as `CRC32HEX ' ' JSON` (CRC-32/IEEE
//! over the JSON bytes). Loading validates the frame, the CRC and the
//! JSON shape; a line failing any check is **quarantined** — appended
//! verbatim to [`QUARANTINE_FILE`] and dropped from the tables — and
//! the load continues. A quarantined entry simply misses on its next
//! lookup and is recomputed; one torn write never costs a whole warm
//! cache. Unframed legacy lines (starting with `{`) still load.
//!
//! Saving is atomic: the file is written to a temporary sibling and
//! renamed into place, so a campaign killed mid-save leaves either the
//! old cache or the new one, never a torn hybrid.

use crate::engine::TaskResult;
use crate::json::Json;
use cr_arena::{ArenaPair, ArenaSummary};
use cr_core::seh::VerdictCache;
use cr_symex::FilterVerdict;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::{self, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Name of the persisted cache file inside `--cache DIR`.
pub const CACHE_FILE: &str = "analysis-cache.jsonl";

/// Quarantine file: cache lines that failed CRC or parse validation,
/// appended verbatim at load time.
pub const QUARANTINE_FILE: &str = "cache.quarantine.jsonl";

/// A parsed module image held resident in memory, keyed by module
/// name and stamped with the image content hash. The serve layer keeps
/// these warm across requests so the Nth request for a module does
/// zero image generation and zero parsing; one-shot campaigns get the
/// same benefit for specs that repeat a module. Never persisted —
/// images are cheap to regenerate relative to their size on disk, and
/// the persisted [`SehSummary`] table already skips the analysis.
#[derive(Debug)]
pub struct ImageArtifact {
    /// Content hash of the image bytes ([`cr_core::seh::image_content_hash`]).
    pub hash: String,
    /// The parsed image.
    pub image: cr_image::PeImage,
}

/// Cached summary of one module analysis (the campaign-visible subset
/// of [`cr_core::seh::ModuleSehAnalysis`]).
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub struct SehSummary {
    /// Module name.
    pub module: String,
    /// x64 container?
    pub is_x64: bool,
    /// Guarded locations before symbolic vetting (Table II "before").
    pub guarded_before: usize,
    /// Guarded locations after symbolic vetting (Table II "after").
    pub guarded_after: usize,
    /// Unique filters before vetting (Table III "before").
    pub filters_before: usize,
    /// Filters surviving vetting (Table III "after").
    pub filters_after: usize,
    /// Filters the executor could not decide.
    pub filters_undecided: usize,
}

/// Cached summary of one traceless static scan (the campaign-visible
/// subset of a [`cr_scan::ScanReport`]), keyed by the ELF content hash.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub struct ScanSummary {
    /// Module (server or corpus) name.
    pub module: String,
    /// Syscall sites discovered.
    pub sites: usize,
    /// Sites whose number resolved to a constant.
    pub constant: usize,
    /// Sites whose number is loaded from memory (reported, not guessed).
    pub memory: usize,
    /// Sites tagged init-only.
    pub init_only: usize,
    /// Sites reachable from a serving loop (serving or both).
    pub serving: usize,
    /// Sites on no statically reachable path.
    pub unreached: usize,
}

impl ScanSummary {
    /// Condense a full scan report into its cacheable row.
    pub fn from_report(report: &cr_scan::ScanReport) -> ScanSummary {
        let c = report.counts();
        ScanSummary {
            module: report.module.clone(),
            sites: c.sites,
            constant: c.constant,
            memory: c.memory,
            init_only: c.init_only,
            serving: c.serving + c.both,
            unreached: c.unreached,
        }
    }
}

/// Hit/miss counters, shared across worker threads.
#[derive(Debug, Default)]
pub struct CacheStats {
    filter_hits: AtomicU64,
    filter_misses: AtomicU64,
    module_hits: AtomicU64,
    module_misses: AtomicU64,
    scan_hits: AtomicU64,
    scan_misses: AtomicU64,
    arena_hits: AtomicU64,
    arena_misses: AtomicU64,
    result_hits: AtomicU64,
    result_misses: AtomicU64,
    image_hits: AtomicU64,
    image_misses: AtomicU64,
}

/// A point-in-time copy of [`CacheStats`], for reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub struct CacheStatsSnapshot {
    /// Filter-verdict lookups served from the cache.
    pub filter_hits: u64,
    /// Filter-verdict lookups that fell through to symbolic execution.
    pub filter_misses: u64,
    /// Module lookups served from the cache.
    pub module_hits: u64,
    /// Module lookups that fell through to full analysis.
    pub module_misses: u64,
    /// Static-scan lookups served from the cache.
    pub scan_hits: u64,
    /// Static-scan lookups that fell through to a fresh CFG walk.
    pub scan_misses: u64,
    /// Arena-summary lookups served from the cache.
    pub arena_hits: u64,
    /// Arena-summary lookups that fell through to a fresh matrix run.
    pub arena_misses: u64,
    /// Server/PoC/funnel result lookups served from the cache.
    pub result_hits: u64,
    /// Server/PoC/funnel result lookups that fell through to emulation.
    pub result_misses: u64,
    /// Parsed-image lookups served from the resident artifact table.
    pub image_hits: u64,
    /// Parsed-image lookups that fell through to generate + parse.
    pub image_misses: u64,
}

impl CacheStatsSnapshot {
    /// Hit fraction over the five persistent tables (filter verdicts,
    /// module summaries, scan summaries, arena summaries and
    /// server/PoC/funnel results); 0.0 when nothing was looked up.
    /// Image traffic is excluded: the resident artifact table lives in
    /// process memory only, so a fresh process always misses it
    /// regardless of how warm the on-disk cache is.
    pub fn hit_rate(&self) -> f64 {
        let hits = self.filter_hits
            + self.module_hits
            + self.scan_hits
            + self.arena_hits
            + self.result_hits;
        let total = hits
            + self.filter_misses
            + self.module_misses
            + self.scan_misses
            + self.arena_misses
            + self.result_misses;
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// The lookups counted since `before`, a snapshot of the same cache.
    pub(crate) fn since(&self, before: &CacheStatsSnapshot) -> CacheStatsSnapshot {
        CacheStatsSnapshot {
            filter_hits: self.filter_hits - before.filter_hits,
            filter_misses: self.filter_misses - before.filter_misses,
            module_hits: self.module_hits - before.module_hits,
            module_misses: self.module_misses - before.module_misses,
            scan_hits: self.scan_hits - before.scan_hits,
            scan_misses: self.scan_misses - before.scan_misses,
            arena_hits: self.arena_hits - before.arena_hits,
            arena_misses: self.arena_misses - before.arena_misses,
            result_hits: self.result_hits - before.result_hits,
            result_misses: self.result_misses - before.result_misses,
            image_hits: self.image_hits - before.image_hits,
            image_misses: self.image_misses - before.image_misses,
        }
    }
}

#[derive(Default)]
struct Tables {
    filters: HashMap<String, FilterVerdict>,
    modules: HashMap<String, SehSummary>,
    scans: HashMap<String, ScanSummary>,
    arenas: HashMap<String, ArenaSummary>,
    results: HashMap<String, TaskResult>,
}

/// The campaign-wide analysis cache. Cheap interior locking: entries
/// are tiny and lookups are rare next to the symbolic execution they
/// save, so a single `Mutex` is not a bottleneck.
#[derive(Default)]
pub struct AnalysisCache {
    tables: Mutex<Tables>,
    /// Resident parsed images, keyed by module name. Memory-only (see
    /// [`ImageArtifact`]); a separate lock so image lookups never
    /// contend with verdict traffic.
    images: Mutex<HashMap<String, std::sync::Arc<ImageArtifact>>>,
    stats: CacheStats,
    quarantined: AtomicU64,
}

impl AnalysisCache {
    /// Fresh, empty, memory-only cache.
    pub fn new() -> AnalysisCache {
        AnalysisCache::default()
    }

    /// Load the cache persisted under `dir`, or an empty cache when no
    /// file exists yet.
    ///
    /// Malformed lines (bad frame, CRC mismatch, unparseable JSON) do
    /// **not** fail the load: each is appended to [`QUARANTINE_FILE`],
    /// counted in [`AnalysisCache::quarantined`], and skipped, so the
    /// healthy remainder of the cache stays warm.
    ///
    /// # Errors
    ///
    /// Real I/O failure only (unreadable cache file, unwritable
    /// quarantine file).
    pub fn load(dir: &Path) -> io::Result<AnalysisCache> {
        let path = dir.join(CACHE_FILE);
        let cache = AnalysisCache::new();
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(cache),
            Err(e) => return Err(e),
        };
        let mut quarantine: Vec<&str> = Vec::new();
        {
            let mut tables = cache.tables.lock().unwrap();
            for line in text.lines() {
                if line.trim().is_empty() {
                    continue;
                }
                let ok = unframe(line).and_then(|json| parse_entry(json, &mut tables));
                if ok.is_err() {
                    quarantine.push(line);
                }
            }
        }
        if !quarantine.is_empty() {
            let mut f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(dir.join(QUARANTINE_FILE))?;
            for line in &quarantine {
                f.write_all(line.as_bytes())?;
                f.write_all(b"\n")?;
            }
            cache
                .quarantined
                .store(quarantine.len() as u64, Ordering::Relaxed);
        }
        Ok(cache)
    }

    /// Lines rejected (and quarantined) by the last [`AnalysisCache::load`].
    pub fn quarantined(&self) -> u64 {
        self.quarantined.load(Ordering::Relaxed)
    }

    /// Persist all entries under `dir` (created if missing). Entries
    /// are written sorted by key, so equal caches produce equal files.
    /// The write is atomic: a temporary file is renamed into place.
    ///
    /// # Errors
    ///
    /// I/O failure creating the directory or writing the file.
    pub fn save(&self, dir: &Path) -> io::Result<()> {
        self.save_with(dir, |_, _| {})
    }

    /// [`AnalysisCache::save`] with a per-record hook: `mutate` sees
    /// each framed line (`CRC32HEX ' ' JSON`) together with its index
    /// in the sorted save order, and may rewrite it in place. This is
    /// the fault-injection point for corrupt/torn record chaos — the
    /// index is the stable scope key a
    /// [`cr_chaos::FaultInjector`] decision is keyed on.
    ///
    /// # Errors
    ///
    /// I/O failure creating the directory or writing the file.
    pub fn save_with(&self, dir: &Path, mutate: impl FnMut(usize, &mut String)) -> io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let out = self.render(mutate);
        // Write-then-rename: a crash mid-save leaves the old file
        // intact, never a torn hybrid.
        let tmp = dir.join(format!("{CACHE_FILE}.tmp.{}", std::process::id()));
        std::fs::write(&tmp, out.as_bytes())?;
        std::fs::rename(&tmp, dir.join(CACHE_FILE))
    }

    /// Every persistent entry as the CRC-framed JSONL document
    /// [`AnalysisCache::save`] would write — sorted by key, so equal
    /// caches export equal bytes. This is the warm-cache replication
    /// payload: one node's export is another node's
    /// [`AnalysisCache::merge_jsonl`] input. Resident images are
    /// excluded (memory-only by design; each node re-parses from its
    /// replicated module summaries' source of truth).
    pub fn export_jsonl(&self) -> String {
        self.render(|_, _| {})
    }

    /// Merge CRC-framed JSONL records (the [`AnalysisCache::export_jsonl`]
    /// format) into this cache. Returns `(merged, rejected)` line
    /// counts. Entries are content-addressed, so a key collision
    /// replaces with an equal value; malformed or CRC-failing lines are
    /// rejected and counted, never quarantined to disk (the sender's
    /// copy is authoritative).
    pub fn merge_jsonl(&self, text: &str) -> (u64, u64) {
        let mut merged = 0u64;
        let mut rejected = 0u64;
        let mut tables = self.tables.lock().unwrap();
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            match unframe(line).and_then(|json| parse_entry(json, &mut tables)) {
                Ok(()) => merged += 1,
                Err(_) => rejected += 1,
            }
        }
        (merged, rejected)
    }

    fn render(&self, mut mutate: impl FnMut(usize, &mut String)) -> String {
        let tables = self.tables.lock().unwrap();
        let filters: BTreeMap<_, _> = tables.filters.iter().collect();
        let modules: BTreeMap<_, _> = tables.modules.iter().collect();
        let scans: BTreeMap<_, _> = tables.scans.iter().collect();
        let arenas: BTreeMap<_, _> = tables.arenas.iter().collect();
        let results: BTreeMap<_, _> = tables.results.iter().collect();
        let mut out = String::new();
        let mut index = 0usize;
        let mut push = |record: String, out: &mut String| {
            let mut line = frame(&record);
            mutate(index, &mut line);
            index += 1;
            out.push_str(&line);
            out.push('\n');
        };
        for (key, verdict) in filters {
            push(
                format!(
                    "{{\"kind\":\"filter\",\"key\":{},\"verdict\":{}}}",
                    serde::Serialize::to_json(key),
                    serde::Serialize::to_json(verdict)
                ),
                &mut out,
            );
        }
        for (key, summary) in modules {
            push(
                format!(
                    "{{\"kind\":\"module\",\"key\":{},\"summary\":{}}}",
                    serde::Serialize::to_json(key),
                    serde::Serialize::to_json(summary)
                ),
                &mut out,
            );
        }
        for (key, summary) in scans {
            push(
                format!(
                    "{{\"kind\":\"scan\",\"key\":{},\"summary\":{}}}",
                    serde::Serialize::to_json(key),
                    serde::Serialize::to_json(summary)
                ),
                &mut out,
            );
        }
        for (key, summary) in arenas {
            push(
                format!(
                    "{{\"kind\":\"arena\",\"key\":{},\"summary\":{}}}",
                    serde::Serialize::to_json(key),
                    serde::Serialize::to_json(summary)
                ),
                &mut out,
            );
        }
        // Results come last, so the save-order index of every record
        // of the older tables (the `cache.record` fault key) is the same
        // as before the table existed.
        for (key, result) in results {
            push(
                format!(
                    "{{\"kind\":\"result\",\"key\":{},\"result\":{}}}",
                    serde::Serialize::to_json(key),
                    serde::Serialize::to_json(result)
                ),
                &mut out,
            );
        }
        drop(tables);
        out
    }

    /// Look up a filter verdict.
    pub fn get_filter(&self, key: &str) -> Option<FilterVerdict> {
        let hit = self.tables.lock().unwrap().filters.get(key).cloned();
        self.stats.count_filter(hit.is_some());
        hit
    }

    /// Store a filter verdict.
    pub fn put_filter(&self, key: &str, verdict: &FilterVerdict) {
        self.tables
            .lock()
            .unwrap()
            .filters
            .insert(key.to_string(), verdict.clone());
    }

    /// Look up a module summary.
    pub fn get_module(&self, key: &str) -> Option<SehSummary> {
        let hit = self.tables.lock().unwrap().modules.get(key).cloned();
        self.stats.count_module(hit.is_some());
        hit
    }

    /// Store a module summary.
    pub fn put_module(&self, key: &str, summary: &SehSummary) {
        self.tables
            .lock()
            .unwrap()
            .modules
            .insert(key.to_string(), summary.clone());
    }

    /// Look up a static-scan summary by ELF content hash.
    pub fn get_scan(&self, key: &str) -> Option<ScanSummary> {
        let hit = self.tables.lock().unwrap().scans.get(key).cloned();
        self.stats.count_scan(hit.is_some());
        hit
    }

    /// Store a static-scan summary.
    pub fn put_scan(&self, key: &str, summary: &ScanSummary) {
        self.tables
            .lock()
            .unwrap()
            .scans
            .insert(key.to_string(), summary.clone());
    }

    /// Look up an arena summary by config descriptor.
    pub fn get_arena(&self, key: &str) -> Option<ArenaSummary> {
        let hit = self.tables.lock().unwrap().arenas.get(key).cloned();
        self.stats.count_arena(hit.is_some());
        hit
    }

    /// Store an arena summary.
    pub fn put_arena(&self, key: &str, summary: &ArenaSummary) {
        self.tables
            .lock()
            .unwrap()
            .arenas
            .insert(key.to_string(), summary.clone());
    }

    /// Look up a server, PoC or funnel result by its descriptor key.
    pub fn get_result(&self, key: &str) -> Option<TaskResult> {
        let hit = self.tables.lock().unwrap().results.get(key).cloned();
        self.stats.count_result(hit.is_some());
        hit
    }

    /// Store a server, PoC or funnel result.
    pub fn put_result(&self, key: &str, result: &TaskResult) {
        self.tables
            .lock()
            .unwrap()
            .results
            .insert(key.to_string(), result.clone());
    }

    /// Look up a resident parsed image by module name.
    pub fn get_image(&self, module: &str) -> Option<std::sync::Arc<ImageArtifact>> {
        let hit = self.images.lock().unwrap().get(module).cloned();
        self.stats.count_image(hit.is_some());
        hit
    }

    /// Store a parsed image under `module` and return the shared
    /// artifact handle (an existing entry for the module is replaced).
    pub fn put_image(
        &self,
        module: &str,
        hash: impl Into<String>,
        image: cr_image::PeImage,
    ) -> std::sync::Arc<ImageArtifact> {
        let artifact = std::sync::Arc::new(ImageArtifact {
            hash: hash.into(),
            image,
        });
        self.images
            .lock()
            .unwrap()
            .insert(module.to_string(), artifact.clone());
        artifact
    }

    /// Entry counts: `(filter_verdicts, module_summaries)`.
    pub fn len(&self) -> (usize, usize) {
        let t = self.tables.lock().unwrap();
        (t.filters.len(), t.modules.len())
    }

    /// Number of cached static-scan summaries.
    pub fn scan_len(&self) -> usize {
        self.tables.lock().unwrap().scans.len()
    }

    /// Number of cached arena summaries.
    pub fn arena_len(&self) -> usize {
        self.tables.lock().unwrap().arenas.len()
    }

    /// Number of cached server/PoC/funnel results.
    pub fn result_len(&self) -> usize {
        self.tables.lock().unwrap().results.len()
    }

    /// Whether all tables are empty.
    pub fn is_empty(&self) -> bool {
        self.len() == (0, 0)
            && self.scan_len() == 0
            && self.arena_len() == 0
            && self.result_len() == 0
    }

    /// Current hit/miss counters.
    pub fn stats(&self) -> CacheStatsSnapshot {
        CacheStatsSnapshot {
            filter_hits: self.stats.filter_hits.load(Ordering::Relaxed),
            filter_misses: self.stats.filter_misses.load(Ordering::Relaxed),
            module_hits: self.stats.module_hits.load(Ordering::Relaxed),
            module_misses: self.stats.module_misses.load(Ordering::Relaxed),
            scan_hits: self.stats.scan_hits.load(Ordering::Relaxed),
            scan_misses: self.stats.scan_misses.load(Ordering::Relaxed),
            arena_hits: self.stats.arena_hits.load(Ordering::Relaxed),
            arena_misses: self.stats.arena_misses.load(Ordering::Relaxed),
            result_hits: self.stats.result_hits.load(Ordering::Relaxed),
            result_misses: self.stats.result_misses.load(Ordering::Relaxed),
            image_hits: self.stats.image_hits.load(Ordering::Relaxed),
            image_misses: self.stats.image_misses.load(Ordering::Relaxed),
        }
    }
}

impl CacheStats {
    fn count_filter(&self, hit: bool) {
        count(hit, &self.filter_hits, &self.filter_misses);
    }
    fn count_module(&self, hit: bool) {
        count(hit, &self.module_hits, &self.module_misses);
    }
    fn count_scan(&self, hit: bool) {
        count(hit, &self.scan_hits, &self.scan_misses);
    }
    fn count_arena(&self, hit: bool) {
        count(hit, &self.arena_hits, &self.arena_misses);
    }
    fn count_result(&self, hit: bool) {
        count(hit, &self.result_hits, &self.result_misses);
    }
    fn count_image(&self, hit: bool) {
        count(hit, &self.image_hits, &self.image_misses);
    }
}

fn count(hit: bool, hits: &AtomicU64, misses: &AtomicU64) {
    if hit { hits } else { misses }.fetch_add(1, Ordering::Relaxed);
}

/// Adapter giving [`cr_core::seh::analyze_module_cached`] a view of a
/// shared [`AnalysisCache`] (the core trait wants `&mut self` for
/// `put`; the cache locks internally, so a shared reference suffices).
pub struct SharedVerdictCache<'a>(pub &'a AnalysisCache);

impl VerdictCache for SharedVerdictCache<'_> {
    fn get(&self, key: &str) -> Option<FilterVerdict> {
        self.0.get_filter(key)
    }
    fn put(&mut self, key: &str, verdict: &FilterVerdict) {
        self.0.put_filter(key, verdict);
    }
}

/// CRC-32/IEEE (the zlib polynomial), bitwise — entries are short and
/// saves are rare, so no table is warranted. Public because the serve
/// layer frames its wire protocol with the same checksum.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Frame one JSON record for persistence: `CRC32HEX ' ' JSON`.
fn frame(json: &str) -> String {
    format!("{:08x} {json}", crc32(json.as_bytes()))
}

/// Validate one persisted line and return its JSON payload. Bare
/// `{...}` lines (the pre-CRC format) pass through unchecked.
fn unframe(line: &str) -> Result<&str, String> {
    if line.starts_with('{') {
        return Ok(line); // legacy unframed record
    }
    let (tok, json) = line.split_once(' ').ok_or("missing CRC frame")?;
    if tok.len() != 8 || !tok.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(format!("bad CRC token {tok:?}"));
    }
    let want = u32::from_str_radix(tok, 16).map_err(|e| e.to_string())?;
    let got = crc32(json.as_bytes());
    if got != want {
        return Err(format!("CRC mismatch: frame {want:08x}, payload {got:08x}"));
    }
    Ok(json)
}

fn parse_entry(line: &str, tables: &mut Tables) -> Result<(), String> {
    let v = Json::parse(line)?;
    let key = v
        .get("key")
        .and_then(Json::as_str)
        .ok_or("entry without string `key`")?
        .to_string();
    match v.get("kind").and_then(Json::as_str) {
        Some("filter") => {
            let verdict = parse_verdict(v.get("verdict").ok_or("filter entry without verdict")?)?;
            tables.filters.insert(key, verdict);
            Ok(())
        }
        Some("module") => {
            let summary = parse_summary(v.get("summary").ok_or("module entry without summary")?)?;
            tables.modules.insert(key, summary);
            Ok(())
        }
        Some("scan") => {
            let summary = parse_scan(v.get("summary").ok_or("scan entry without summary")?)?;
            tables.scans.insert(key, summary);
            Ok(())
        }
        Some("arena") => {
            let summary = parse_arena(v.get("summary").ok_or("arena entry without summary")?)?;
            tables.arenas.insert(key, summary);
            Ok(())
        }
        Some("result") => {
            let result = parse_result(v.get("result").ok_or("result entry without result")?)?;
            tables.results.insert(key, result);
            Ok(())
        }
        other => Err(format!("unknown entry kind {other:?}")),
    }
}

fn parse_verdict(v: &Json) -> Result<FilterVerdict, String> {
    // Externally tagged: a unit variant is a bare string, the rest are
    // single-key objects.
    if let Some(s) = v.as_str() {
        return match s {
            "RejectsAccessViolation" => Ok(FilterVerdict::RejectsAccessViolation),
            other => Err(format!("unknown unit verdict {other:?}")),
        };
    }
    if let Some(code) = v
        .get("AcceptsAccessViolation")
        .and_then(|p| p.get("witness_code"))
        .and_then(Json::as_u64)
    {
        return Ok(FilterVerdict::AcceptsAccessViolation { witness_code: code });
    }
    if let Some(reason) = v.get("Unknown").and_then(Json::as_str) {
        return Ok(FilterVerdict::Unknown(intern(reason)));
    }
    Err(format!("unparseable verdict {v:?}"))
}

fn parse_summary(v: &Json) -> Result<SehSummary, String> {
    let field = |name: &str| {
        v.get(name)
            .and_then(Json::as_usize)
            .ok_or_else(|| format!("summary missing numeric {name:?}"))
    };
    Ok(SehSummary {
        module: v
            .get("module")
            .and_then(Json::as_str)
            .ok_or("summary missing `module`")?
            .to_string(),
        is_x64: v
            .get("is_x64")
            .and_then(Json::as_bool)
            .ok_or("summary missing `is_x64`")?,
        guarded_before: field("guarded_before")?,
        guarded_after: field("guarded_after")?,
        filters_before: field("filters_before")?,
        filters_after: field("filters_after")?,
        filters_undecided: field("filters_undecided")?,
    })
}

fn parse_scan(v: &Json) -> Result<ScanSummary, String> {
    let field = |name: &str| {
        v.get(name)
            .and_then(Json::as_usize)
            .ok_or_else(|| format!("scan summary missing numeric {name:?}"))
    };
    Ok(ScanSummary {
        module: v
            .get("module")
            .and_then(Json::as_str)
            .ok_or("scan summary missing `module`")?
            .to_string(),
        sites: field("sites")?,
        constant: field("constant")?,
        memory: field("memory")?,
        init_only: field("init_only")?,
        serving: field("serving")?,
        unreached: field("unreached")?,
    })
}

fn parse_arena(v: &Json) -> Result<ArenaSummary, String> {
    let field = |v: &Json, name: &str| {
        v.get(name)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("arena summary missing numeric {name:?}"))
    };
    let mut pairs = Vec::new();
    for p in v
        .get("pairs")
        .and_then(Json::as_arr)
        .ok_or("arena summary missing `pairs` array")?
    {
        pairs.push(ArenaPair {
            detector: p
                .get("detector")
                .and_then(Json::as_str)
                .ok_or("arena pair missing `detector`")?
                .to_string(),
            detected_rounds: field(p, "detected_rounds")? as usize,
            time_to_detect_ms: field(p, "time_to_detect_ms")?,
            false_positives: field(p, "false_positives")?,
            blocked_escalations: field(p, "blocked_escalations")?,
        });
    }
    Ok(ArenaSummary {
        strategy: v
            .get("strategy")
            .and_then(Json::as_str)
            .ok_or("arena summary missing `strategy`")?
            .to_string(),
        rounds: field(v, "rounds")? as usize,
        probes: field(v, "probes")?,
        dropped: field(v, "dropped")?,
        located_rounds: field(v, "located_rounds")? as usize,
        pairs,
    })
}

/// A persisted [`TaskResult`]: externally tagged, one of the three
/// kinds the result table holds.
fn parse_result(v: &Json) -> Result<TaskResult, String> {
    let [(tag, body)] = v.as_obj().ok_or("result must be an object")? else {
        return Err("result must have exactly one variant key".into());
    };
    let num = |name: &str| {
        body.get(name)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("{tag} result missing numeric {name:?}"))
    };
    let flag = |name: &str| {
        body.get(name)
            .and_then(Json::as_bool)
            .ok_or_else(|| format!("{tag} result missing boolean {name:?}"))
    };
    let text = |name: &str| {
        body.get(name)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("{tag} result missing string {name:?}"))
    };
    match tag.as_str() {
        "Server" => Ok(TaskResult::Server {
            server: text("server")?,
            observed_syscalls: num("observed_syscalls")? as usize,
            findings: num("findings")? as usize,
            usable: num("usable")? as usize,
        }),
        "Funnel" => Ok(TaskResult::Funnel {
            total: num("total")? as usize,
            with_pointer_args: num("with_pointer_args")? as usize,
            crash_resistant: num("crash_resistant")? as usize,
            js_reachable: num("js_reachable")? as usize,
            usable: num("usable")? as usize,
        }),
        "Poc" => Ok(TaskResult::Poc {
            oracle: text("oracle")?,
            mapped: num("mapped")? as usize,
            probes: num("probes")?,
            located: flag("located")?,
            crashed: flag("crashed")?,
        }),
        other => Err(format!("result kind {other:?} is not cached")),
    }
}

/// `FilterVerdict::Unknown` carries a `&'static str`; reloaded reasons
/// are interned in a process-global pool so repeated cache loads don't
/// leak a new allocation per load.
fn intern(s: &str) -> &'static str {
    static POOL: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    let pool = POOL.get_or_init(|| Mutex::new(HashSet::new()));
    let mut pool = pool.lock().unwrap();
    if let Some(&existing) = pool.get(s) {
        return existing;
    }
    let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
    pool.insert(leaked);
    leaked
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("cr-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_tables(cache: &AnalysisCache) {
        cache.put_filter("x64:aaaa", &FilterVerdict::RejectsAccessViolation);
        cache.put_filter(
            "x64:bbbb",
            &FilterVerdict::AcceptsAccessViolation {
                witness_code: 0xC0000005,
            },
        );
        cache.put_filter("x86:cccc", &FilterVerdict::Unknown("call to helper"));
        cache.put_module(
            "deadbeef",
            &SehSummary {
                module: "user32".into(),
                is_x64: true,
                guarded_before: 10,
                guarded_after: 3,
                filters_before: 7,
                filters_after: 2,
                filters_undecided: 1,
            },
        );
        cache.put_scan(
            "feedc0de",
            &ScanSummary {
                module: "vsftpd".into(),
                sites: 9,
                constant: 7,
                memory: 1,
                init_only: 3,
                serving: 4,
                unreached: 1,
            },
        );
        cache.put_arena(
            "stealth:s2017:r3:vsftpd",
            &ArenaSummary {
                strategy: "stealth".into(),
                rounds: 3,
                probes: 660,
                dropped: 0,
                located_rounds: 3,
                pairs: vec![ArenaPair {
                    detector: "cusum".into(),
                    detected_rounds: 3,
                    time_to_detect_ms: 700,
                    false_positives: 0,
                    blocked_escalations: 0,
                }],
            },
        );
        cache.put_result(
            "server:nginx:fc9a:p8080:b2000000:600000+20000",
            &TaskResult::Server {
                server: "nginx".into(),
                observed_syscalls: 18,
                findings: 12,
                usable: 1,
            },
        );
        cache.put_result(
            "poc:nginx:5500002000:1000:5500000000:5500010000:1000",
            &TaskResult::Poc {
                oracle: "nginx19-recv".into(),
                mapped: 1,
                probes: 16,
                located: true,
                crashed: false,
            },
        );
        cache.put_result(
            "funnel:200:s2017",
            &TaskResult::Funnel {
                total: 213,
                with_pointer_args: 120,
                crash_resistant: 9,
                js_reachable: 4,
                usable: 1,
            },
        );
    }

    #[test]
    fn round_trips_through_jsonl() {
        let dir = scratch("rt");
        let cache = AnalysisCache::new();
        sample_tables(&cache);
        cache.save(&dir).unwrap();

        let back = AnalysisCache::load(&dir).unwrap();
        assert_eq!(back.len(), (3, 1));
        assert_eq!(back.quarantined(), 0);
        assert_eq!(
            back.get_filter("x64:aaaa"),
            Some(FilterVerdict::RejectsAccessViolation)
        );
        assert_eq!(
            back.get_filter("x64:bbbb"),
            Some(FilterVerdict::AcceptsAccessViolation {
                witness_code: 0xC0000005
            })
        );
        assert_eq!(
            back.get_filter("x86:cccc"),
            Some(FilterVerdict::Unknown("call to helper"))
        );
        assert_eq!(back.get_module("deadbeef").unwrap().module, "user32");
        assert_eq!(back.scan_len(), 1);
        let scan = back.get_scan("feedc0de").unwrap();
        assert_eq!(
            (scan.module.as_str(), scan.sites, scan.serving),
            ("vsftpd", 9, 4)
        );
        assert_eq!(back.arena_len(), 1);
        let arena = back.get_arena("stealth:s2017:r3:vsftpd").unwrap();
        assert_eq!(
            (arena.strategy.as_str(), arena.probes, arena.located_rounds),
            ("stealth", 660, 3)
        );
        assert_eq!(arena.pairs.len(), 1);
        assert_eq!(arena.pairs[0].detector, "cusum");
        assert_eq!(arena.pairs[0].time_to_detect_ms, 700);
        assert_eq!(back.result_len(), 3);
        assert_eq!(
            back.get_result("funnel:200:s2017"),
            Some(TaskResult::Funnel {
                total: 213,
                with_pointer_args: 120,
                crash_resistant: 9,
                js_reachable: 4,
                usable: 1,
            })
        );
        assert!(matches!(
            back.get_result("poc:nginx:5500002000:1000:5500000000:5500010000:1000"),
            Some(TaskResult::Poc {
                located: true,
                crashed: false,
                probes: 16,
                ..
            })
        ));
        assert!(matches!(
            back.get_result("server:nginx:fc9a:p8080:b2000000:600000+20000"),
            Some(TaskResult::Server {
                usable: 1,
                findings: 12,
                ..
            })
        ));

        // Saving the reloaded cache reproduces the file byte for byte.
        let bytes1 = std::fs::read(dir.join(CACHE_FILE)).unwrap();
        back.save(&dir).unwrap();
        let bytes2 = std::fs::read(dir.join(CACHE_FILE)).unwrap();
        assert_eq!(bytes1, bytes2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Result rows are appended after every older table, so adding
    /// them never shifts the save-order index (the `cache.record`
    /// fault key) of a filter, module, scan or arena record.
    #[test]
    fn result_rows_render_after_every_older_table() {
        let cache = AnalysisCache::new();
        sample_tables(&cache);
        let text = cache.export_jsonl();
        let kinds: Vec<&str> = text
            .lines()
            .map(|l| {
                let json = unframe(l).unwrap();
                let at = json.find("\"kind\":\"").unwrap() + 8;
                &json[at..at + json[at..].find('"').unwrap()]
            })
            .collect();
        assert_eq!(
            kinds,
            [
                "filter", "filter", "filter", "module", "scan", "arena", "result", "result",
                "result"
            ]
        );
    }

    #[test]
    fn unknown_result_kinds_are_rejected() {
        let cache = AnalysisCache::new();
        let scan = r#"{"kind":"result","key":"k","result":{"Scan":{"image_hash":"h"}}}"#;
        assert_eq!(cache.merge_jsonl(&frame(scan)), (0, 1));
        let torn = r#"{"kind":"result","key":"k","result":{"Poc":{"oracle":"ie"}}}"#;
        assert_eq!(cache.merge_jsonl(&frame(torn)), (0, 1));
        assert_eq!(cache.result_len(), 0);
    }

    #[test]
    fn every_persisted_line_is_crc_framed() {
        let dir = scratch("framed");
        let cache = AnalysisCache::new();
        sample_tables(&cache);
        cache.save(&dir).unwrap();
        let text = std::fs::read_to_string(dir.join(CACHE_FILE)).unwrap();
        for line in text.lines() {
            let json = unframe(line).expect("valid frame");
            assert!(json.starts_with('{'));
            assert!(!line.starts_with('{'), "line must carry a CRC prefix");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_dir_loads_empty() {
        let cache = AnalysisCache::load(Path::new("/nonexistent/cr-cache")).unwrap();
        assert!(cache.is_empty());
        assert_eq!(cache.quarantined(), 0);
    }

    /// Regression: a malformed line must not abort the whole load — it
    /// is quarantined and the healthy lines still come back warm.
    #[test]
    fn corrupt_lines_are_quarantined_not_fatal() {
        let dir = scratch("bad");
        let cache = AnalysisCache::new();
        sample_tables(&cache);
        cache.save(&dir).unwrap();

        // Corrupt one line: flip a payload byte under an intact CRC.
        let text = std::fs::read_to_string(dir.join(CACHE_FILE)).unwrap();
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        let victim = lines
            .iter()
            .position(|l| l.contains("deadbeef"))
            .expect("module line");
        lines[victim] = lines[victim].replace("user32", "us#r32");
        // And append pure garbage plus a torn half-line.
        lines.push("not a cache line at all".into());
        let torn = &lines[0][..lines[0].len() / 2];
        lines.push(torn.to_string());
        std::fs::write(dir.join(CACHE_FILE), lines.join("\n")).unwrap();

        let back = AnalysisCache::load(&dir).expect("load must survive corruption");
        assert_eq!(back.quarantined(), 3);
        // Healthy entries stayed warm; the corrupted module dropped out.
        assert_eq!(back.len(), (3, 0));
        assert!(back.get_filter("x64:aaaa").is_some());
        assert!(back.get_module("deadbeef").is_none());
        // The rejects landed verbatim in the quarantine file.
        let q = std::fs::read_to_string(dir.join(QUARANTINE_FILE)).unwrap();
        assert_eq!(q.lines().count(), 3);
        assert!(q.contains("us#r32"));
        assert!(q.contains("not a cache line at all"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn legacy_unframed_lines_still_load() {
        let dir = scratch("legacy");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join(CACHE_FILE),
            "{\"kind\":\"filter\",\"key\":\"x64:old\",\"verdict\":\"RejectsAccessViolation\"}\n",
        )
        .unwrap();
        let cache = AnalysisCache::load(&dir).unwrap();
        assert_eq!(cache.quarantined(), 0);
        assert_eq!(
            cache.get_filter("x64:old"),
            Some(FilterVerdict::RejectsAccessViolation)
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn save_leaves_no_temporary_files() {
        let dir = scratch("atomic");
        let cache = AnalysisCache::new();
        sample_tables(&cache);
        cache.save(&dir).unwrap();
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec![CACHE_FILE.to_string()]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn save_with_mutator_produces_quarantinable_lines() {
        let dir = scratch("mutate");
        let cache = AnalysisCache::new();
        sample_tables(&cache);
        // Corrupt record 1 and tear record 2 of the 9 sorted records.
        cache
            .save_with(&dir, |i, line| match i {
                1 => *line = line.replace('"', "#"),
                2 => line.truncate(line.len() / 2),
                _ => {}
            })
            .unwrap();
        let back = AnalysisCache::load(&dir).unwrap();
        assert_eq!(back.quarantined(), 2);
        // Records 1 and 2 (both filters in sorted order) dropped out;
        // filter 0 and the module survived.
        assert_eq!(back.len(), (1, 1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn export_and_merge_replicate_every_table() {
        let source = AnalysisCache::new();
        sample_tables(&source);
        let jsonl = source.export_jsonl();

        let sink = AnalysisCache::new();
        let (merged, rejected) = sink.merge_jsonl(&jsonl);
        assert_eq!((merged, rejected), (9, 0));
        assert_eq!(sink.len(), source.len());
        assert_eq!(sink.scan_len(), source.scan_len());
        assert_eq!(sink.arena_len(), source.arena_len());
        assert_eq!(sink.result_len(), 3);
        assert_eq!(
            sink.get_result("funnel:200:s2017"),
            source.get_result("funnel:200:s2017")
        );
        // Replication is idempotent: entries are content-addressed, so
        // a re-merge replaces equal values with equal values.
        let (merged2, rejected2) = sink.merge_jsonl(&jsonl);
        assert_eq!((merged2, rejected2), (9, 0));
        assert_eq!(sink.export_jsonl(), jsonl, "export round-trips");
        // Malformed input is rejected per line, never fatal.
        let (m, r) = sink.merge_jsonl("garbage line\n\n");
        assert_eq!((m, r), (0, 1));
        assert_eq!(sink.export_jsonl(), jsonl);
    }

    #[test]
    fn crc_rejects_single_byte_changes() {
        let line = frame(r#"{"kind":"filter","key":"k","verdict":"RejectsAccessViolation"}"#);
        assert!(unframe(&line).is_ok());
        let tampered = line.replace("filter", "filteR");
        assert!(unframe(&tampered).is_err());
    }

    #[test]
    fn stats_track_hits_and_misses() {
        let cache = AnalysisCache::new();
        sample_tables(&cache);
        assert!(cache.get_filter("x64:aaaa").is_some());
        assert!(cache.get_filter("x64:unknown").is_none());
        assert!(cache.get_module("deadbeef").is_some());
        assert!(cache.get_module("feedface").is_none());
        assert!(cache.get_scan("feedc0de").is_some());
        assert!(cache.get_scan("00000000").is_none());
        assert!(cache.get_arena("stealth:s2017:r3:vsftpd").is_some());
        assert!(cache.get_arena("linear:s0:r0:none").is_none());
        assert!(cache.get_result("funnel:200:s2017").is_some());
        assert!(cache.get_result("funnel:200:s2018").is_none());
        let s = cache.stats();
        assert_eq!((s.filter_hits, s.filter_misses), (1, 1));
        assert_eq!((s.module_hits, s.module_misses), (1, 1));
        assert_eq!((s.scan_hits, s.scan_misses), (1, 1));
        assert_eq!((s.arena_hits, s.arena_misses), (1, 1));
        assert_eq!((s.result_hits, s.result_misses), (1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn image_artifacts_are_shared_and_counted() {
        let cache = AnalysisCache::new();
        assert!(cache.get_image("nginx.exe").is_none());
        let spec = cr_targets::browsers::full_population_specs()
            .into_iter()
            .next()
            .expect("non-empty population");
        let img = cr_targets::browsers::generate_dll(&spec);
        let put = cache.put_image("nginx.exe", "cafebabe", img);
        let got = cache.get_image("nginx.exe").expect("resident image");
        assert!(std::sync::Arc::ptr_eq(&put, &got));
        assert_eq!(got.hash, "cafebabe");
        let s = cache.stats();
        assert_eq!((s.image_hits, s.image_misses), (1, 1));
        // Image traffic is resident-only and stays out of the
        // persistent-cache hit rate.
        assert!((s.hit_rate() - 0.0).abs() < 1e-9);
    }

    #[test]
    fn interning_reuses_reasons() {
        let a = intern("same reason");
        let b = intern("same reason");
        assert!(std::ptr::eq(a, b));
    }
}
