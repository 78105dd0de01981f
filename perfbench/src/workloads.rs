//! The benchmark's inputs: one campaign spec (or spec catalogue) per
//! workload, generated from the benchmark seed alone.

use cr_campaign::{CampaignSpec, CampaignTask, TaskKind};

/// The batch workloads; serve-warm has a subcommand of its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BuiltinCold,
    BuiltinWarm,
    StaticPopulation,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "builtin-cold" => Workload::BuiltinCold,
            "builtin-warm" => Workload::BuiltinWarm,
            "static-population" => Workload::StaticPopulation,
            _ => return None,
        })
    }
}

/// SplitMix64: a small seeded generator owned by the benchmark, so the
/// inputs do not move when the program's own RNG changes.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Every module a static scan accepts: the five servers plus the
/// harness-less corpus.
pub fn scan_modules() -> Vec<String> {
    let mut names: Vec<String> = cr_targets::all_servers()
        .iter()
        .map(|t| t.name.to_string())
        .collect();
    names.extend(
        cr_targets::corpus::modules()
            .iter()
            .map(|m| m.name.to_string()),
    );
    names
}

/// The batch workloads' campaign spec.
pub fn batch_spec(workload: Workload, seed: u64) -> CampaignSpec {
    match workload {
        Workload::BuiltinCold | Workload::BuiltinWarm => CampaignSpec::builtin(seed),
        Workload::StaticPopulation => static_population(seed),
    }
}

/// §V-C: the 187-module population in a seed-permuted order, the loopy
/// explorer family, and a static scan of every scannable module.
fn static_population(seed: u64) -> CampaignSpec {
    let mut modules: Vec<String> = cr_targets::browsers::full_population_specs()
        .into_iter()
        .map(|s| s.name)
        .collect();
    Rng::new(seed).shuffle(&mut modules);
    let mut b = CampaignSpec::builder().name("static-population").seed(seed);
    for m in modules {
        b = b.seh(m);
    }
    b = b.seh("loopy");
    for m in scan_modules() {
        b = b.scan(m);
    }
    b.build().expect("static-population spec is valid")
}

/// Specs in the serve-warm catalogue.
pub const CATALOGUE_SPECS: usize = 16;

/// The serve-warm catalogue: three-task specs drawn from the cacheable
/// families only (calibrated SEH modules, static scans, arena
/// strategies), so after warm-up every request is a pure cache read.
/// Every spec carries an SEH module and a scan, plus a second module
/// (odd specs) or an arena strategy (even specs); the seed decides the
/// grouping, and every cacheable task appears in some spec, so warm-up
/// does the same work at every seed.
pub fn serve_catalogue(seed: u64) -> Vec<CampaignSpec> {
    let mut rng = Rng::new(seed ^ 0x5E57_0CA7);
    let mut shuffled = |mut v: Vec<String>| {
        rng.shuffle(&mut v);
        v
    };
    let dlls: Vec<String> = cr_targets::browsers::CALIBRATION
        .iter()
        .map(|c| c.name.to_string())
        .collect();
    let first = shuffled(dlls.clone());
    let second = shuffled(dlls);
    let scans = shuffled(scan_modules());
    let arenas = shuffled(
        cr_arena::StrategyKind::ALL
            .iter()
            .map(|s| s.name().to_string())
            .collect(),
    );
    (0..CATALOGUE_SPECS)
        .map(|i| {
            let seh = &first[i % first.len()];
            let mut tasks = vec![
                CampaignTask::SehAnalysis(seh.clone()),
                CampaignTask::StaticScan(scans[i % scans.len()].clone()),
            ];
            if i % 2 == 0 {
                tasks.push(CampaignTask::Arena(arenas[i / 2 % arenas.len()].clone()));
            } else {
                let other = &second[i % second.len()];
                let other = if other == seh {
                    &second[(i + 1) % second.len()]
                } else {
                    other
                };
                tasks.push(CampaignTask::SehAnalysis(other.clone()));
            }
            CampaignSpec::builder()
                .name(format!("serve-warm-{i}"))
                .seed(seed)
                .tasks(tasks)
                .build()
                .expect("catalogue spec is valid")
        })
        .collect()
}

/// The builtin campaign's tasks of `kind`: the inputs used to measure a
/// layer that a workload's own tasks never reach.
pub fn builtin_tasks(kind: TaskKind, seed: u64) -> Vec<CampaignTask> {
    CampaignSpec::builtin(seed)
        .tasks
        .into_iter()
        .filter(|t| t.kind() == kind)
        .collect()
}
