//! The `edb` benchmark: the reproduction suite, the debugger service
//! and the fleet, measured end to end and layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serial|parallel --seed N --seconds S --trace 0|1
//! ```
//!
//! Every run has three phases, each driving the program only through
//! its public functions:
//!
//! * **serve** — an in-process `edb_serve::Server` under closed-loop
//!   `Client` connections replaying seeded session scripts;
//! * **fleet** — Gen2 fleets of 10⁴ tags through `run_fleet`;
//! * **repro** — `edb_bench::all_specs()` through a quiet `Runner`, as
//!   `reproduce_all` runs it, then `ckpt` and `analyze`.
//!
//! The workload sets the concurrency: `serial` runs one suite thread,
//! one connection on a one-worker pool and one fleet thread, all on one
//! CPU; `parallel` runs `nproc` of each. Host-time metrics are stated
//! at a fixed host speed measured alongside the work (see `gauge`);
//! the raw figures are printed beside them. With `--trace 0` the run prints every
//! end-to-end metric; with `--trace 1` it records spans around every
//! layer call, runs the layer drivers and prints every per-layer
//! metric. The last stdout line is the JSON result; the exit code is
//! non-zero when any output check failed.

mod fleet;
mod gauge;
mod layers;
mod serve;
mod stats;
mod suite;
mod trace;

use stats::{median, Summary};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::Tracer;

/// Set-ups per run; `setup_s` reports their median.
const SETUPS: usize = 21;
/// Session scripts per run.
const SCRIPTS: usize = 32;
/// Share of `--seconds` the serve phase's closed loop runs for.
const SERVE_SHARE: f64 = 0.4;
/// Share of `--seconds` the fleet phase runs for.
const FLEET_SHARE: f64 = 0.15;
/// Untraced suite passes of a `serial` run (≈15–20 s each on the
/// reference host).
const SERIAL_PASSES: usize = 1;
/// Untraced suite passes of a `parallel` run (≈7–10 s each; the
/// makespan moves with the thread interleaving, so the suite figures
/// are the median of two).
const PARALLEL_PASSES: usize = 2;
/// Passes of the scripts through the in-process dispatcher (traced).
const DISPATCH_REPS: usize = 2;

#[derive(Debug, Clone, Copy)]
enum Workload {
    Serial,
    Parallel,
}

impl Workload {
    /// Untraced suite passes per run; the suite figures are their
    /// medians.
    fn passes(self) -> usize {
        match self {
            Workload::Serial => SERIAL_PASSES,
            Workload::Parallel => PARALLEL_PASSES,
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} takes a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got `{value}`"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "serial" => Workload::Serial,
                    "parallel" => Workload::Parallel,
                    other => return Err(format!("unknown workload `{other}`")),
                })
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

/// Everything the run reports: metrics in print order, check counts and
/// the first failure messages.
#[derive(Debug, Default)]
struct Results {
    metrics: Vec<(String, f64, &'static str, String)>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Results {
    fn metric(&mut self, name: &str, value: f64, unit: &'static str, detail: String) {
        self.metrics.push((name.to_string(), value, unit, detail));
    }

    fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.errors.push(why());
        }
    }

    fn absorb(&mut self, attempted: u64, failed: u64, errors: Vec<String>) {
        self.attempted += attempted;
        self.failed += failed;
        self.errors.extend(errors);
    }

    /// A latency metric in ms: the median of the samples, each at the
    /// nominal host speed of its own stretch of time, with the sample
    /// count, tail and raw median in the human-readable line.
    fn p50_ms(&mut self, name: &str, samples_s: &[(gauge::Span, f64)], readings: &gauge::Readings) {
        let ms: Vec<f64> = samples_s
            .iter()
            .map(|(span, s)| readings.time(*span, s * 1e3))
            .collect();
        let raw: Vec<f64> = samples_s.iter().map(|(_, s)| s * 1e3).collect();
        let s = Summary::of(&ms);
        self.metric(
            name,
            s.p50,
            "ms",
            format!("{}, raw p50={:.4}", s.describe(), median(&raw)),
        );
    }

    /// Prints the human-readable table, then the JSON result line.
    fn print(&self) {
        for (name, value, unit, detail) in &self.metrics {
            println!("{name:<34} {value:>16.6} {unit:<10} {detail}");
        }
        for e in &self.errors {
            println!("FAILED: {e}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit, _)| {
                let value = if value.is_finite() {
                    format!("{value:?}")
                } else {
                    "null".to_string()
                };
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        );
    }

    /// Every check passed and every metric is a number.
    fn correct(&self) -> bool {
        self.failed == 0
            && self.attempted > 0
            && self.metrics.iter().all(|(_, v, _, _)| v.is_finite())
    }
}

/// Peak resident memory of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Where runs of this executable record what they found at a seed.
fn record_path(seed: u64) -> PathBuf {
    let exe = std::env::current_exe()
        .and_then(std::fs::read)
        .map_or(0, |bytes| edb_replay::fnv1a(&bytes));
    Path::new("target")
        .join("perfbench")
        .join("runs")
        .join(format!("{exe:016x}-{seed}.txt"))
}

/// What must exist before the first timed operation.
struct Setup {
    scripts: Vec<serve::Script>,
    serve: serve::ServeLoop,
}

fn setup(width: usize, seed: u64) -> Result<Setup, String> {
    let scripts = (0..SCRIPTS)
        .map(|i| serve::Script::generate(seed, i, SCRIPTS))
        .collect();
    std::fs::create_dir_all(serve::tape_dir()).map_err(|e| format!("tape directory: {e}"))?;
    Ok(Setup {
        scripts,
        serve: serve::setup(width)?,
    })
}

/// Each experiment's factor to the nominal host speed, in `pass.walls`
/// order. On one thread the experiments run one after another in that
/// order, so each takes the gauge samples of its own stretch of the
/// pass; on more they overlap, and all take the pass's.
fn experiment_factors(
    readings: &gauge::Readings,
    (start, end): gauge::Span,
    pass: &suite::SuitePass,
    width: usize,
) -> Vec<f64> {
    let mut from = start;
    pass.walls
        .iter()
        .map(|(_, wall)| {
            if width > 1 {
                return readings.time_factor((start, end));
            }
            let to = (from + Duration::from_secs_f64(*wall)).min(end);
            let k = readings.time_factor((from, to));
            from = to;
            k
        })
        .collect()
}

/// Fixes glibc's allocator thresholds, which otherwise move with the
/// sizes freed so far: whether a freed block goes back to the kernel and
/// must be faulted in again then depends on the order of a run's
/// allocations, and the cost of `create` moved by a third between runs
/// of the same code. With fixed thresholds, large blocks come from the
/// heap and the heap is never trimmed.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn fix_allocator_thresholds() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: mallopt only sets allocator parameters; it is called
    // before any other thread exists.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
        mallopt(M_TRIM_THRESHOLD, i32::MAX);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn fix_allocator_thresholds() {}

fn main() {
    let start = Instant::now();
    fix_allocator_thresholds();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: perfbench --workload serial|parallel --seed N --seconds S \
                 [--trace 0|1]"
            );
            std::process::exit(2);
        }
    };
    // A wedged phase must not hang the caller: give up without a result.
    std::thread::spawn(|| {
        std::thread::sleep(Duration::from_secs_f64(serve::FAILED_LATENCY_S));
        eprintln!("error: run exceeded {} s", serve::FAILED_LATENCY_S);
        std::process::exit(3);
    });
    let nproc = edb_bench::runner::default_threads();
    let width = match args.workload {
        Workload::Serial => 1,
        Workload::Parallel => nproc,
    };
    // A serial run keeps all its threads on one CPU until the timed
    // phases end, so the host gauge samples the CPU the work runs on.
    let pinned = match args.workload {
        Workload::Serial => gauge::pin_to_one_cpu(),
        Workload::Parallel => None,
    };
    println!(
        "workload {:?}, seed {}, {} s, trace {}: {width} suite thread(s), {width} closed-loop \
         connection(s) on a {width}-worker pool, fleet cells over {width} thread(s); nproc \
         {nproc}; {}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        pinned
            .as_ref()
            .map_or("not pinned".to_string(), |p| format!(
                "pinned to CPU {}",
                p.cpu
            ))
    );
    let tracer = Tracer::new(start);
    let tracer = args.trace.then_some(&tracer);
    let phase = |name: &str| tracer.map(|t| (t, t.open(name, None, 0)));
    let close = |p: Option<(&Tracer, usize)>| {
        if let Some((t, idx)) = p {
            t.close(idx);
        }
    };
    let seconds = args.seconds as f64;
    let mut out = Results::default();

    // Set-up, several times; the last one is kept.
    let to_first_setup = start.elapsed().as_secs_f64();
    let mut setup_times = Vec::with_capacity(SETUPS);
    let mut kept = None;
    let p = phase("phase.setup");
    for _ in 0..SETUPS {
        drop(kept.take());
        let t = Instant::now();
        match setup(width, args.seed) {
            Ok(s) => kept = Some(s),
            Err(e) => {
                eprintln!("error: set-up failed: {e}");
                std::process::exit(1);
            }
        }
        setup_times.push(t.elapsed().as_secs_f64());
    }
    close(p);
    let Setup { scripts, mut serve } = kept.expect("at least one set-up ran");
    let setup_s = to_first_setup + median(&setup_times);

    // The suite runs several times and reports medians; serve and fleet
    // run in slices before every pass and after the last, so every
    // phase samples the host over the whole run.
    let passes = if args.trace {
        1
    } else {
        args.workload.passes()
    };
    let slices = (passes + 1) as f64;
    let serve_slice = Duration::from_secs_f64(seconds * SERVE_SHARE / slices);
    let fleet_slice = Duration::from_secs_f64(seconds * FLEET_SHARE / slices);
    let mut fleet_loop = fleet::FleetLoop::new(width, args.seed);
    let (mut serve_spans, mut fleet_spans) = (Vec::new(), Vec::new());
    let mut slice = |serve: &mut serve::ServeLoop| {
        let p = phase("phase.serve");
        let t = Instant::now();
        serve.slice(&scripts, &serve::tape_dir(), serve_slice, p);
        serve_spans.push((t, Instant::now()));
        close(p);
        let p = phase("phase.fleet");
        let t = Instant::now();
        fleet_loop.slice(fleet_slice, p);
        fleet_spans.push((t, Instant::now()));
        close(p);
    };

    // Untraced, the suite runs detached, exactly as reproduce_all, with
    // `ckpt` and `analyze` after the first pass only; traced, it runs
    // once and every simulated system carries the ambient recorder.
    let mut runs: Vec<suite::SuitePass> = Vec::with_capacity(passes);
    let mut pass_spans: Vec<gauge::Span> = Vec::with_capacity(passes);
    let mut traced_profile = None;
    // Peak resident memory once every phase has run once, as a fresh
    // server, fleet run and reproduce_all would see it. Later passes
    // start from a heap the allocator kept from earlier ones, so their
    // peaks follow the thread interleaving rather than the program.
    let mut peak_rss = f64::NAN;
    let gauge = gauge::Gauge::start(if pinned.is_some() {
        gauge::SHARED_CPU
    } else {
        gauge::FREE_CPUS
    });
    for i in 0..passes {
        slice(&mut serve);
        let p = phase("phase.suite");
        let t = Instant::now();
        runs.push(match p {
            Some((t, idx)) => {
                let (pass, profile) = suite::run_counted(width, args.seed, Some((t, idx)));
                traced_profile = Some(profile);
                pass
            }
            None => suite::run(width, args.seed, i == 0),
        });
        pass_spans.push((t, Instant::now()));
        close(p);
        if i == 0 {
            peak_rss = peak_rss_mb();
        }
    }
    slice(&mut serve);
    let readings = gauge.finish();
    if let Some(p) = pinned {
        p.release();
    }
    let pass = &runs[0];
    out.attempted += pass.walls.len() as u64;
    for later in &runs[1..] {
        out.check(later.same_suite_metrics(pass), || {
            "suite metrics differ between passes of one run".to_string()
        });
    }
    // Each suite figure: every pass at the nominal host speed of its
    // own stretch of time, the median over passes, and every pass's raw
    // value for the human-readable line.
    let scaled_runs: Vec<suite::SuitePass> = runs
        .iter()
        .zip(&pass_spans)
        .map(|(pass, span)| pass.scaled(&experiment_factors(&readings, *span, pass, width)))
        .collect();
    let over_passes = |f: fn(&suite::SuitePass) -> f64| {
        let scaled: Vec<f64> = scaled_runs.iter().map(f).collect();
        let listed: Vec<String> = runs.iter().map(|p| format!("{:.3}", f(p))).collect();
        (
            median(&scaled),
            format!("median of passes, raw {}", listed.join(", ")),
        )
    };
    let (repro_s, repro_passes) = over_passes(|p| p.repro_s);
    let (perstep_s, perstep_passes) = over_passes(suite::SuitePass::perstep_s);
    let (span_s, span_passes) = over_passes(suite::SuitePass::span_s);

    let served = serve.finish();
    out.absorb(served.attempted, served.failed, served.errors.clone());
    let fleets = fleet_loop.finish(args.trace);
    out.absorb(fleets.runs, fleets.failed, Vec::new());
    if fleets.failed > 0 {
        out.errors
            .push("fleet stats differ between runs at one seed".to_string());
    }

    // Outputs must repeat across runs of this executable at this seed;
    // the first run records them (and, untraced, counts the work with
    // the recorder attached, which must not change a single metric).
    // Untimed passes use every core: metrics are the same at any thread
    // count.
    let record = record_path(args.seed);
    let profile = match (suite::load_record(&record), traced_profile) {
        (Some(earlier), traced) => {
            out.check(earlier.digest == pass.digest(), || {
                "suite metrics differ from an earlier run at this seed".to_string()
            });
            if let Some(traced) = traced {
                out.check(traced == earlier.profile, || {
                    "suite work profile differs from an earlier run at this seed".to_string()
                });
            }
            earlier.profile
        }
        (None, traced) => {
            let profile = traced.unwrap_or_else(|| {
                let (counted, profile) = suite::run_counted(nproc, args.seed, None);
                out.check(counted.digest() == pass.digest(), || {
                    "suite metrics change when the recorder is attached".to_string()
                });
                profile
            });
            let this = suite::Record {
                digest: pass.digest(),
                profile,
            };
            if let Err(e) = suite::store_record(&record, &this) {
                eprintln!("warning: could not record {}: {e}", record.display());
            }
            profile
        }
    };
    if args.seed == 42 {
        let bad = suite::golden_mismatches(nproc);
        out.check(bad.is_empty(), || bad.join("; "));
    }

    let raw_rates: Vec<f64> = fleets.rates.iter().map(|(_, rate)| *rate).collect();
    let all_rpc = served.all_latencies();
    // Every timed unit at the nominal host speed of its own stretch of
    // time: serve slices, fleet runs, p99 windows, latency samples.
    let serve_scaled_s: f64 = serve_spans
        .iter()
        .map(|&(a, b)| readings.time((a, b), b.duration_since(a).as_secs_f64()))
        .sum();
    let rpc_per_s = served.ok as f64 / serve_scaled_s;
    let fleet_scaled: Vec<f64> = fleets
        .rates
        .iter()
        .map(|(span, rate)| rate / readings.time_factor(*span))
        .collect();
    let tag_cycles_per_s = median(&fleet_scaled);
    let read = |(ns, n): (f64, usize)| format!("{ns:.4} ns/step ({n} samples)");
    println!(
        "host gauge: serve {}, fleet {}, suite {}; host-time metrics are stated at {} ns/step",
        read(readings.over(&serve_spans)),
        read(readings.over(&fleet_spans)),
        read(readings.over(&pass_spans)),
        gauge::NOMINAL_NS_PER_STEP,
    );
    if !args.trace {
        let ok_ratio = (out.attempted - out.failed) as f64 / out.attempted.max(1) as f64;
        out.metric(
            "setup_s",
            setup_s,
            "s",
            format!("median of {SETUPS} set-ups"),
        );
        out.metric(
            "ok_ratio",
            ok_ratio,
            "ratio",
            format!(
                "{} of {} checked operations",
                out.attempted - out.failed,
                out.attempted
            ),
        );
        out.metric(
            "peak_rss_mb",
            peak_rss,
            "MB",
            "through the first suite pass".to_string(),
        );
        out.metric(
            "repro_s",
            repro_s,
            "s",
            format!(
                "{} experiments, {repro_passes}",
                edb_bench::all_specs().len()
            ),
        );
        out.metric(
            "perstep_s",
            perstep_s,
            "s",
            format!("fig9 + fig12, {perstep_passes}"),
        );
        out.metric(
            "span_s",
            span_s,
            "s",
            format!("all but fig9, fig12, fleet, {span_passes}"),
        );
        out.metric(
            "sim_minstr_per_s",
            profile.instructions as f64 / 1e6 / (perstep_s + span_s),
            "Minstr/s",
            format!("{} instructions", profile.instructions),
        );
        out.metric(
            "rpc_per_s",
            rpc_per_s,
            "req/s",
            format!(
                "{} requests over {:.3} s, {} closed-loop connection(s), raw {:.1}",
                served.ok,
                served.wall_s,
                served.connections,
                served.ok as f64 / served.wall_s
            ),
        );
        // Every request at the host speed of its own stretch of time.
        let scaled_rpc: Vec<f64> = served
            .latency
            .values()
            .flatten()
            .map(|(span, dt)| readings.time(*span, *dt))
            .collect();
        out.metric(
            "rpc_p99_ms",
            Summary::percentile(&scaled_rpc, 99.0) * 1e3,
            "ms",
            format!(
                "n={}, raw {:.4}",
                all_rpc.len(),
                Summary::percentile(&all_rpc, 99.0) * 1e3
            ),
        );
        // Inspect requests cost alike, so their p50 is per request. The
        // run and travel classes mix methods of different cost (resume
        // vs run_until), where a per-request median would fall between
        // them; their p50 is over each script's requests summed, as are
        // the single-request classes.
        out.p50_ms(
            "inspect_p50_ms",
            &served.latency[&serve::Class::Inspect],
            &readings,
        );
        for (name, class) in [
            ("run_p50_ms", serve::Class::Run),
            ("travel_p50_ms", serve::Class::Travel),
            ("export_p50_ms", serve::Class::Export),
            ("create_p50_ms", serve::Class::Create),
            ("fleet_run_p50_ms", serve::Class::FleetRun),
        ] {
            out.p50_ms(name, &served.per_script[&class], &readings);
        }
        out.metric(
            "tag_cycles_per_s",
            tag_cycles_per_s,
            "tag-cycles/s",
            format!(
                "median of {} fleets of {} tags, raw {:.4e}",
                raw_rates.len(),
                fleet::TAGS,
                median(&raw_rates)
            ),
        );
    } else {
        let tracer = tracer.expect("traced run");
        let layers = tracer.open("phase.layers", None, 0);
        let mut rows: Vec<layers::Row> = Vec::new();
        layers::mcu(tracer, layers, &mut rows);
        let device_span = layers::device(tracer, layers, args.seed, &mut rows);
        layers::system(tracer, layers, args.seed, device_span, &mut rows);
        layers::fleet_advance(tracer, layers, args.seed, &mut rows);
        let (a, f, e) = layers::replay(
            tracer,
            layers,
            &scripts,
            &served.session_tapes,
            &served.fleet_tapes,
            &mut rows,
        );
        out.absorb(a, f, e);
        let (a, f, e) = serve::dispatch_replay(
            &scripts,
            &serve::tape_dir(),
            DISPATCH_REPS,
            &served,
            tracer,
            layers,
        );
        out.absorb(a, f, e);
        tracer.close(layers);

        // Deterministic work profile first, then timings.
        let decoded = profile.decode_hits + profile.decode_misses;
        let first_fleet = fleets.first[0].unwrap_or_default();
        for (name, value) in [
            ("mcu.instructions", profile.instructions as f64),
            ("mcu.decode_hits", profile.decode_hits as f64),
            ("mcu.decode_misses", profile.decode_misses as f64),
            ("device.power_cycles", profile.power_cycles as f64),
            ("device.turn_ons", profile.turn_ons as f64),
            ("rfid.frames", profile.rfid_frames as f64),
            ("fleet.slots", first_fleet.gen2.slots() as f64),
        ] {
            out.metric(name, value, "count", "work profile".to_string());
        }
        out.metric(
            "fleet.tag_cycles",
            first_fleet.tag_cycles,
            "tag-cycles",
            "work profile, first fleet seed".to_string(),
        );
        out.metric(
            "mcu.decode_hit_ratio",
            profile.decode_hits as f64 / decoded.max(1) as f64,
            "ratio",
            "work profile".to_string(),
        );
        for (name, value, unit) in rows {
            out.metric(&name, value, unit, String::new());
        }
        let slot_ns = tracer.durations_s("fleet.step_slot");
        out.metric(
            "fleet.step_slot_ns",
            slot_ns.iter().sum::<f64>() * 1e9 / slot_ns.len().max(1) as f64,
            "ns",
            format!("mean of {} spans", slot_ns.len()),
        );
        let cells = tracer.durations_s("fleet.cell").len().max(1) as f64;
        out.metric(
            "fleet.cell_self_ms",
            tracer.self_time_s("fleet.cell") * 1e3 / cells,
            "ms",
            "cell time outside step_slot, per cell".to_string(),
        );
        let mut inspect = [0.0; 2];
        for (prefix, span) in [("serve.dispatch_us", "dispatch"), ("serve.rtt_us", "rpc")] {
            for class in serve::Class::ALL {
                let us: Vec<f64> = tracer
                    .durations_s(&format!("{span}.{}", class.name()))
                    .iter()
                    .map(|s| s * 1e6)
                    .collect();
                let s = Summary::of(&us);
                if class == serve::Class::Inspect {
                    inspect[usize::from(span == "rpc")] = s.p50;
                }
                out.metric(
                    &format!("{prefix}.{}", class.name()),
                    s.p50,
                    "us",
                    s.describe(),
                );
            }
        }
        out.metric(
            "serve.transport_us",
            inspect[1] - inspect[0],
            "us",
            "inspect RTT p50 minus dispatch p50".to_string(),
        );
        let conns = tracer.durations_s("serve.connection").len().max(1) as f64;
        out.metric(
            "serve.client_self_s",
            tracer.self_time_s("serve.connection") / conns,
            "s",
            "connection time outside requests".to_string(),
        );
        for (name, wall) in &pass.walls {
            out.metric(&format!("exp.{name}_s"), *wall, "s", String::new());
        }
        out.metric(
            "suite.self_s",
            tracer.self_time_s("phase.suite"),
            "s",
            "suite phase outside experiments".to_string(),
        );
        // Traced end-to-end figures; minus the untraced ones they give
        // the tracing overhead.
        out.metric("trace.repro_s", repro_s, "s", String::new());
        out.metric("trace.rpc_per_s", rpc_per_s, "req/s", String::new());
        out.metric(
            "trace.tag_cycles_per_s",
            tag_cycles_per_s,
            "tag-cycles/s",
            String::new(),
        );
        out.metric("trace.spans", tracer.len() as f64, "count", String::new());
        out.metric(
            "host.gauge_ns_per_step",
            readings.overall().0,
            "ns",
            format!("median of {} samples", readings.overall().1),
        );
        let trace_file = Path::new("target")
            .join("perfbench")
            .join(format!("trace-{:?}-{}.json", args.workload, args.seed).to_lowercase());
        if let Err(e) = tracer.write_chrome(&trace_file) {
            eprintln!("warning: could not write {}: {e}", trace_file.display());
        }
    }
    out.print();
    if !out.correct() {
        std::process::exit(1);
    }
}
