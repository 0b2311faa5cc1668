//! The reproduction-suite phase: `edb_bench::all_specs()` through a
//! quiet `Runner`, which is what `reproduce_all --threads N` runs, then
//! the `ckpt` and `analyze` experiments that sit outside the suite.

use crate::trace::Tracer;
use edb_bench::runner::{ExperimentResult, ExperimentSpec, Manifest, Runner};
use edb_energy::SimTime;
use edb_obs::{Category, CategoryMask, RecorderConfig};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Experiments that step `System::step` one quantum at a time (fig9's
/// stall peek, fig12's reader poll).
pub const PER_STEP: [&str; 2] = ["fig9", "fig12"];

/// The suite experiment that runs no interpreter at all (the fleet's
/// closed-form advance).
pub const NO_INTERPRETER: &str = "fleet";

/// Trial cap the golden manifest was produced with (see the
/// `bench-smoke` CI job that regenerates `ci/golden-manifest.json`).
const GOLDEN_MAX_TRIALS: usize = 3;

/// One pass over the suite plus the two experiments outside it.
#[derive(Debug, Clone)]
pub struct SuitePass {
    /// Wall time of `run_experiments(all_specs())`, seconds.
    pub repro_s: f64,
    /// Per-experiment wall time, suite order, then `ckpt` and `analyze`.
    pub walls: Vec<(&'static str, f64)>,
    /// Per-experiment metrics, same order.
    pub metrics: Vec<(&'static str, BTreeMap<String, f64>)>,
}

impl SuitePass {
    fn wall(&self, pick: impl Fn(&str) -> bool) -> f64 {
        self.walls
            .iter()
            .take(edb_bench::all_specs().len())
            .filter(|(name, _)| pick(name))
            .map(|(_, w)| w)
            .sum()
    }

    /// fig9 + fig12 wall time.
    pub fn perstep_s(&self) -> f64 {
        self.wall(|n| PER_STEP.contains(&n))
    }

    /// Every other interpreter experiment of the suite.
    pub fn span_s(&self) -> f64 {
        self.wall(|n| !PER_STEP.contains(&n) && n != NO_INTERPRETER)
    }

    /// The pass with every experiment's wall time multiplied by its own
    /// factor (`factors` in `walls` order), and `repro_s` by the factor
    /// its suite experiments' wall times got on average.
    pub fn scaled(&self, factors: &[f64]) -> SuitePass {
        let walls: Vec<(&'static str, f64)> = self
            .walls
            .iter()
            .zip(factors)
            .map(|((name, w), k)| (*name, w * k))
            .collect();
        let n = edb_bench::all_specs().len();
        let sum = |w: &[(&str, f64)]| w.iter().take(n).map(|(_, w)| w).sum::<f64>();
        SuitePass {
            repro_s: self.repro_s * sum(&walls) / sum(&self.walls),
            walls,
            metrics: self.metrics.clone(),
        }
    }

    /// Whether the suite experiments of both passes (`ckpt` and
    /// `analyze` aside) gave bit-identical metrics.
    pub fn same_suite_metrics(&self, other: &SuitePass) -> bool {
        let n = edb_bench::all_specs().len();
        let bits = |p: &SuitePass| -> Vec<(&'static str, Vec<(String, u64)>)> {
            p.metrics
                .iter()
                .take(n)
                .map(|(name, m)| {
                    (
                        *name,
                        m.iter().map(|(k, v)| (k.clone(), v.to_bits())).collect(),
                    )
                })
                .collect()
        };
        bits(self) == bits(other)
    }

    /// FNV-1a over every experiment's name and metric bits: equal
    /// digests mean bit-identical outputs.
    pub fn digest(&self) -> u64 {
        let mut h = edb_replay::Fnv::new();
        for (name, metrics) in &self.metrics {
            h.write(name.as_bytes());
            for (k, v) in metrics {
                h.write(k.as_bytes());
                h.write(&v.to_bits().to_le_bytes());
            }
        }
        h.finish()
    }
}

fn extras() -> [ExperimentSpec; 2] {
    [edb_bench::ckpt::SPEC, edb_bench::analyze::SPEC]
}

fn push(pass: &mut SuitePass, results: Vec<ExperimentResult>) {
    for r in results {
        pass.walls.push((r.name, r.wall_s));
        pass.metrics.push((r.name, r.report.metrics));
    }
}

/// Runs the suite as `reproduce_all --threads <threads> --seed <seed>`
/// does, then, with `with_extras`, `ckpt` and `analyze`.
pub fn run(threads: usize, seed: u64, with_extras: bool) -> SuitePass {
    let runner = Runner::quiet(threads, seed);
    let t = Instant::now();
    let results = runner.run_experiments(&edb_bench::all_specs());
    let repro_s = t.elapsed().as_secs_f64();
    let mut pass = SuitePass {
        repro_s,
        walls: Vec::new(),
        metrics: Vec::new(),
    };
    push(&mut pass, results);
    if with_extras {
        push(&mut pass, runner.run_experiments(&extras()));
    }
    pass
}

/// The deterministic work profile of one suite pass, read from the
/// runner's ambient `--obs` counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkProfile {
    /// Simulated instructions retired.
    pub instructions: u64,
    /// Predecoded-instruction cache hits.
    pub decode_hits: u64,
    /// Predecoded-instruction cache misses.
    pub decode_misses: u64,
    /// Brown-outs.
    pub power_cycles: u64,
    /// Turn-ons.
    pub turn_ons: u64,
    /// Reader and tag RFID frames.
    pub rfid_frames: u64,
}

/// Runs the suite with the ambient recorder attached to every simulated
/// system (RFID category on, so reader frames are counted), wrapping
/// each experiment in a span when a tracer is given. The counters cover
/// `all_specs()` only; `ckpt` and `analyze` run detached afterwards.
pub fn run_counted(
    threads: usize,
    seed: u64,
    trace: Option<(&Tracer, usize)>,
) -> (SuitePass, WorkProfile) {
    let runner = Runner::quiet(threads, seed);
    // The counters need no periodic samples; a sampling period longer
    // than any experiment keeps the recorder on its quiet path.
    let never = SimTime::from_secs(1 << 20);
    edb_obs::ambient::enable(RecorderConfig {
        energy_period: never,
        pc_sample_period: never,
        ..RecorderConfig::with_categories(CategoryMask::of(&[Category::Rfid]))
    });
    let t = Instant::now();
    let results = match trace {
        // One experiment at a time, so each gets its own span.
        Some((tracer, parent)) => edb_bench::all_specs()
            .into_iter()
            .enumerate()
            .flat_map(|(i, spec)| {
                tracer.span(
                    &format!("exp.{}", spec.name),
                    Some(parent),
                    i as u64,
                    |_| runner.run_experiments(&[spec]),
                )
            })
            .collect(),
        None => runner.run_experiments(&edb_bench::all_specs()),
    };
    let repro_s = t.elapsed().as_secs_f64();
    let snapshot = edb_obs::ambient::snapshot().unwrap_or_default();
    edb_obs::ambient::disable();
    let counter = |k: &str| snapshot.counters.get(k).copied().unwrap_or(0);
    let profile = WorkProfile {
        instructions: counter("instructions"),
        decode_hits: counter("decode_cache_hits"),
        decode_misses: counter("decode_cache_misses"),
        power_cycles: counter("power_cycles"),
        turn_ons: counter("turn_ons"),
        rfid_frames: counter("rfid_frames"),
    };
    let mut pass = SuitePass {
        repro_s,
        walls: Vec::new(),
        metrics: Vec::new(),
    };
    push(&mut pass, results);
    let base = edb_bench::all_specs().len() as u64;
    for (i, spec) in extras().into_iter().enumerate() {
        let one = || runner.run_experiments(&[spec]);
        let results = match trace {
            Some((tracer, parent)) => tracer.span(
                &format!("exp.{}", spec.name),
                Some(parent),
                base + i as u64,
                |_| one(),
            ),
            None => one(),
        };
        push(&mut pass, results);
    }
    (pass, profile)
}

/// Re-runs the suite under the golden manifest's configuration and
/// lists every experiment whose metrics are not bit-identical to
/// `ci/golden-manifest.json`.
pub fn golden_mismatches(threads: usize) -> Vec<String> {
    let golden: Manifest = match serde_json::from_str(include_str!("../../ci/golden-manifest.json"))
    {
        Ok(m) => m,
        Err(e) => return vec![format!("golden manifest does not parse: {e}")],
    };
    let runner = Runner::quiet(threads, golden.root_seed).with_max_trials(Some(GOLDEN_MAX_TRIALS));
    let results = runner.run_experiments(&edb_bench::all_specs());
    let mut bad = Vec::new();
    if results.len() != golden.experiments.len() {
        bad.push(format!(
            "suite has {} experiments, golden {}",
            results.len(),
            golden.experiments.len()
        ));
    }
    for (r, g) in results.iter().zip(&golden.experiments) {
        let same = r.name == g.name
            && r.report.metrics.len() == g.metrics.len()
            && r.report
                .metrics
                .iter()
                .zip(&g.metrics)
                .all(|((ka, va), (kb, vb))| ka == kb && va.to_bits() == vb.to_bits());
        if !same {
            bad.push(format!("{} differs from the golden manifest", r.name));
        }
    }
    bad
}

/// What a run of one executable found at one seed: the suite's output
/// digest and work profile.
#[derive(Debug, Serialize, Deserialize)]
pub struct Record {
    /// [`SuitePass::digest`].
    pub digest: u64,
    /// The work profile.
    pub profile: WorkProfile,
}

/// The record an earlier run left at `path`, if any.
pub fn load_record(path: &Path) -> Option<Record> {
    serde_json::from_str(&std::fs::read_to_string(path).ok()?).ok()
}

/// Stores this run's record for later runs to check.
pub fn store_record(path: &Path, record: &Record) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let json = serde_json::to_string(record).map_err(std::io::Error::other)?;
    std::fs::write(path, json)
}
