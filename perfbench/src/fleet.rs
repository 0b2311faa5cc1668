//! The fleet phase: Gen2 fleets of 10⁴ tags (16 reader cells of 625),
//! run as the `fleet` experiment runs them, over a few seeds in turn.

use crate::gauge::Span;
use crate::trace::Tracer;
use edb_bench::fleet::{cells_for, run_fleet, CELL_SIZE};
use edb_bench::runner::{seed_for, Runner};
use edb_core::fleet::{FleetCellStats, FleetConfig, FleetSim};
use std::time::{Duration, Instant};

/// Tags per fleet.
pub const TAGS: usize = 10_000;

/// Fleet seeds of one run, derived from the benchmark seed.
const SEEDS: usize = 3;

/// The fleet seeds derived from the benchmark seed.
pub fn seeds(seed: u64) -> [u64; SEEDS] {
    std::array::from_fn(|i| seed_for(seed, "perfbench/fleet", i as u64))
}

/// What the fleet phase measured and checked.
#[derive(Debug, Default)]
pub struct FleetOutcome {
    /// Simulated tag·cycles per wall second, one per fleet run, each
    /// with the run's stretch of time.
    pub rates: Vec<(Span, f64)>,
    /// Fleet runs made.
    pub runs: u64,
    /// Runs whose merged stats differed from the first run at that seed.
    pub failed: u64,
    /// Merged stats of the first run at each seed, seed order.
    pub first: Vec<Option<FleetCellStats>>,
}

impl FleetOutcome {
    fn record(&mut self, k: usize, stats: FleetCellStats, (start, end): Span) {
        self.runs += 1;
        let wall_s = end.duration_since(start).as_secs_f64();
        self.rates.push(((start, end), stats.tag_cycles / wall_s));
        match &self.first[k] {
            Some(first) if *first != stats => self.failed += 1,
            Some(_) => {}
            None => self.first[k] = Some(stats),
        }
    }
}

/// The fleet phase, driven in slices. Untraced, fleets run through
/// `edb_bench::fleet::run_fleet` on a `threads`-wide runner; traced,
/// they are built cell by cell with `FleetSim::new_cell` and stepped slot
/// by slot so every call is spanned (slot spans on the first fleet only,
/// to bound memory), cells dealt to `threads` threads.
#[derive(Debug)]
pub struct FleetLoop {
    threads: usize,
    seeds: [u64; SEEDS],
    runs: usize,
    out: FleetOutcome,
}

impl FleetLoop {
    /// A loop over the fleet seeds derived from `seed`.
    pub fn new(threads: usize, seed: u64) -> Self {
        FleetLoop {
            threads,
            seeds: seeds(seed),
            runs: 0,
            out: FleetOutcome {
                first: vec![None; SEEDS],
                ..FleetOutcome::default()
            },
        }
    }

    /// Runs fleets, cycling over the seeds, until `budget` is spent (at
    /// least one fleet).
    pub fn slice(&mut self, budget: Duration, trace: Option<(&Tracer, usize)>) {
        let t0 = Instant::now();
        loop {
            let k = self.runs % SEEDS;
            let fleet_seed = self.seeds[k];
            let t = Instant::now();
            let stats = match trace {
                Some((tracer, parent)) => {
                    let slot_spans = self.runs == 0;
                    tracer.span("fleet.run", Some(parent), self.runs as u64, |run| {
                        traced_fleet(tracer, run, self.threads, fleet_seed, slot_spans)
                    })
                }
                None => run_fleet(&Runner::quiet(self.threads, fleet_seed), TAGS),
            };
            self.out.record(k, stats, (t, Instant::now()));
            self.runs += 1;
            if t0.elapsed() >= budget {
                break;
            }
        }
    }

    /// What the slices measured. Traced, the slot-by-slot path must also
    /// agree with the experiment's own `run_fleet`.
    pub fn finish(mut self, traced: bool) -> FleetOutcome {
        if let (true, Some(first)) = (traced, self.out.first[0]) {
            self.out.runs += 1;
            if run_fleet(&Runner::quiet(self.threads, self.seeds[0]), TAGS) != first {
                self.out.failed += 1;
            }
        }
        self.out
    }
}

/// One cell, run slot by slot, with a span around every
/// `FleetSim::step_slot` call when `slot_spans` is set.
fn traced_cell(
    tracer: &Tracer,
    parent: usize,
    fleet_seed: u64,
    cell: usize,
    slot_spans: bool,
) -> FleetCellStats {
    let config = FleetConfig::standard(TAGS);
    let cell_seed = seed_for(fleet_seed, &format!("fleet/{TAGS}"), cell as u64);
    // Cells stepped under slot spans are named apart, so their self
    // time is the cell's cost outside `step_slot`.
    let name = if slot_spans {
        "fleet.cell"
    } else {
        "fleet.cell_bulk"
    };
    tracer.span(name, Some(parent), cell as u64, |idx| {
        let base = cell * CELL_SIZE;
        let mut sim = FleetSim::new_cell(config, base, CELL_SIZE.min(TAGS - base), cell_seed);
        while sim.now() < config.duration {
            if slot_spans {
                tracer.span("fleet.step_slot", Some(idx), cell as u64, |_| {
                    sim.step_slot()
                });
            } else {
                sim.step_slot();
            }
        }
        sim.stats()
    })
}

/// A whole fleet, cell by cell on `threads` threads, merged in cell
/// order as `run_fleet` merges.
fn traced_fleet(
    tracer: &Tracer,
    parent: usize,
    threads: usize,
    fleet_seed: u64,
    slot_spans: bool,
) -> FleetCellStats {
    let mut cells: Vec<(usize, FleetCellStats)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                s.spawn(move || {
                    (w..cells_for(TAGS))
                        .step_by(threads)
                        .map(|c| (c, traced_cell(tracer, parent, fleet_seed, c, slot_spans)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("fleet thread does not panic"))
            .collect()
    });
    cells.sort_by_key(|(c, _)| *c);
    let mut total = FleetCellStats::default();
    for (_, cell) in &cells {
        total.merge(cell);
    }
    total
}
