//! Layer drivers for the traced run. Each feeds one layer's public
//! functions the suite's own configurations (fig9's firmware, device and
//! harvester; fig12's RFID world) or the serve phase's tapes, under a
//! span per call batch, and reports a per-call cost.

use crate::serve::Script;
use crate::trace::Tracer;
use edb_apps::{fib, rfid_fw};
use edb_core::replay::{verify, Recording};
use edb_core::System;
use edb_device::fleet::{Fleet, TagParams};
use edb_device::{Device, DeviceConfig};
use edb_energy::{SimTime, TheveninSource};
use edb_mcu::{Cpu, Image, Memory, NullBus};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Repetitions per driver; each reports the median.
const REPS: usize = 5;

/// A per-layer result: name, value, unit.
pub type Row = (String, f64, &'static str);

fn row(out: &mut Vec<Row>, name: &str, value: f64, unit: &'static str) {
    out.push((name.to_string(), value, unit));
}

/// Runs `f` `REPS` times inside spans named `name` and returns the
/// median of the values it reports.
fn reps(tracer: &Tracer, parent: usize, name: &str, mut f: impl FnMut() -> f64) -> f64 {
    let values: Vec<f64> = (0..REPS)
        .map(|i| tracer.span(name, Some(parent), i as u64, |_| f()))
        .collect();
    crate::stats::median(&values)
}

/// fig9's device: a hungrier compute current (see `edb_bench::fig9`).
fn fig9_device() -> DeviceConfig {
    DeviceConfig {
        i_active: 4.4e-3,
        ..DeviceConfig::wisp5()
    }
}

/// fig12's device: the RFID firmware idles between commands.
fn fig12_device() -> DeviceConfig {
    DeviceConfig {
        i_active: 0.95e-3,
        ..DeviceConfig::wisp5()
    }
}

/// fig12's reader cadence (see `edb_bench::fig12`).
fn fig12_reader() -> edb_rfid::ReaderConfig {
    edb_rfid::ReaderConfig {
        query_period: SimTime::from_ms(260),
        rep_gap: SimTime::from_ms(65),
        reps_per_round: 3,
        ..edb_rfid::ReaderConfig::paper_setup()
    }
}

/// The fetch addresses `image` executes, in order, on a powered device.
fn fetch_stream(image: &Image) -> Vec<u16> {
    let mut dev = Device::new(fig9_device());
    dev.flash(image);
    dev.set_v_cap(2.45);
    let mut supply = TheveninSource::new(3.0, 10.0);
    let mut pcs = Vec::with_capacity(20_000);
    for _ in 0..200_000 {
        if pcs.len() == 20_000 {
            break;
        }
        if dev.powered() && dev.cpu().is_running() {
            pcs.push(dev.cpu().pc);
        }
        dev.step(&mut supply, 0.0);
    }
    pcs
}

fn time_fetches(image: &Image, pcs: &[u16], cached: bool) -> f64 {
    let mut mem = Memory::new();
    image.load_into(&mut mem);
    mem.set_decode_cache_enabled(cached);
    if cached {
        for &pc in pcs {
            let _ = mem.fetch_decoded(pc);
        }
    }
    let t = Instant::now();
    for _ in 0..10 {
        for &pc in pcs {
            let _ = black_box(mem.fetch_decoded(black_box(pc)));
        }
    }
    t.elapsed().as_nanos() as f64 / (10 * pcs.len()).max(1) as f64
}

/// `Memory::fetch_decoded` warm and cold, and `Cpu::step`, on the fig9
/// and fig12 firmware.
pub fn mcu(tracer: &Tracer, parent: usize, out: &mut Vec<Row>) {
    let images = [fib::image(fib::Variant::Guarded), rfid_fw::image()];
    let streams: Vec<Vec<u16>> = images.iter().map(fetch_stream).collect();
    let fetch = |cached: bool| {
        let per: Vec<f64> = images
            .iter()
            .zip(&streams)
            .map(|(img, pcs)| time_fetches(img, pcs, cached))
            .collect();
        per.iter().sum::<f64>() / per.len() as f64
    };
    row(
        out,
        "mcu.fetch_hit_ns",
        reps(tracer, parent, "mcu.fetch_decoded.hit", || fetch(true)),
        "ns",
    );
    row(
        out,
        "mcu.fetch_cold_ns",
        reps(tracer, parent, "mcu.fetch_decoded.cold", || fetch(false)),
        "ns",
    );
    let step = || {
        let mut retired = 0u64;
        let t = Instant::now();
        for image in &images {
            let mut mem = Memory::new();
            image.load_into(&mut mem);
            let mut cpu = Cpu::new();
            cpu.reset(&mem);
            for _ in 0..100_000 {
                if !cpu.is_running() {
                    cpu.reset(&mem);
                }
                if black_box(cpu.step(&mut mem, &mut NullBus))
                    .retired
                    .is_some()
                {
                    retired += 1;
                }
            }
        }
        t.elapsed().as_nanos() as f64 / retired.max(1) as f64
    };
    row(
        out,
        "mcu.step_ns",
        reps(tracer, parent, "mcu.cpu_step", step),
        "ns",
    );
}

/// Simulated window of the device and system drivers.
const WINDOW: SimTime = SimTime::from_ms(500);

fn per_sim_ms(wall_ns: f64, window: SimTime) -> f64 {
    wall_ns / window.as_millis_f64()
}

/// `Device::run_span` (capped at the silent-peripheral deadline, as
/// `System::advance_span` caps it) and `Device::step` on fig9's device,
/// firmware and harvester. Returns the span cost per simulated ms.
pub fn device(tracer: &Tracer, parent: usize, seed: u64, out: &mut Vec<Row>) -> f64 {
    let image = fib::image(fib::Variant::Guarded);
    let mut instr_per_span = 0.0;
    let span = reps(tracer, parent, "device.run_span", || {
        let mut dev = Device::new(fig9_device());
        dev.flash(&image);
        let mut harvester = edb_bench::harness::harvested(seed);
        let mut i_ext = |_v: f64| 0.0;
        let (mut spans, t) = (0u64, Instant::now());
        while dev.now() < WINDOW {
            let cap = match dev.next_silent_deadline() {
                Some(d) if d < WINDOW => d,
                _ => WINDOW,
            };
            if cap <= dev.now() {
                dev.step(&mut harvester, 0.0);
            } else {
                dev.run_span(&mut harvester, &mut i_ext, cap);
            }
            spans += 1;
        }
        let wall = t.elapsed().as_nanos() as f64;
        instr_per_span = dev.total_instructions() as f64 / spans.max(1) as f64;
        per_sim_ms(wall, WINDOW)
    });
    let step = reps(tracer, parent, "device.step", || {
        let mut dev = Device::new(fig9_device());
        dev.flash(&image);
        let mut harvester = edb_bench::harness::harvested(seed);
        let (mut steps, t) = (0u64, Instant::now());
        while dev.now() < WINDOW {
            dev.step(&mut harvester, 0.0);
            steps += 1;
        }
        t.elapsed().as_nanos() as f64 / steps.max(1) as f64
    });
    row(out, "device.span_ns_per_sim_ms", span, "ns/ms");
    row(out, "device.step_ns", step, "ns");
    row(out, "device.instr_per_span", instr_per_span, "count");
    span
}

fn step_cost(mut sys: System, window: SimTime) -> (f64, f64) {
    let (mut steps, t) = (0u64, Instant::now());
    while sys.now() < window {
        sys.step();
        steps += 1;
    }
    let wall = t.elapsed().as_nanos() as f64;
    (
        wall / steps.max(1) as f64,
        steps as f64 / window.as_millis_f64(),
    )
}

/// `System::run_for` and `System::step` on fig9's bench, and
/// `System::step` on fig12's firmware with and without the RFID world.
/// `device_span` is the device driver's cost on the same input.
pub fn system(tracer: &Tracer, parent: usize, seed: u64, device_span: f64, out: &mut Vec<Row>) {
    let image = fib::image(fib::Variant::Guarded);
    let fig9 = || {
        let mut sys = System::builder(fig9_device())
            .harvester(edb_bench::harness::harvested(seed))
            .build();
        sys.flash(&image);
        sys
    };
    let run_for = reps(tracer, parent, "system.run_for", || {
        let mut sys = fig9();
        let t = Instant::now();
        sys.run_for(WINDOW);
        per_sim_ms(t.elapsed().as_nanos() as f64, WINDOW)
    });
    let mut steps_per_ms = 0.0;
    let step = reps(tracer, parent, "system.step", || {
        let (ns, rate) = step_cost(fig9(), WINDOW);
        steps_per_ms = rate;
        ns
    });
    let rfid_image = rfid_fw::image();
    let rfid_window = SimTime::from_ms(200);
    let with_reader = reps(tracer, parent, "system.step.rfid", || {
        let mut sys = System::builder(fig12_device())
            .rfid(1.0)
            .reader_config(fig12_reader())
            .seed(seed)
            .build();
        sys.flash(&rfid_image);
        step_cost(sys, rfid_window).0
    });
    let without_reader = reps(tracer, parent, "system.step.harvested", || {
        let mut sys = System::builder(fig12_device())
            .harvester(edb_bench::harness::harvested(seed))
            .seed(seed)
            .build();
        sys.flash(&rfid_image);
        step_cost(sys, rfid_window).0
    });
    row(out, "system.run_for_ns_per_sim_ms", run_for, "ns/ms");
    row(out, "system.step_ns", step, "ns");
    row(out, "system.steps_per_sim_ms", steps_per_ms, "count/ms");
    row(
        out,
        "system.self_ns_per_sim_ms",
        run_for - device_span,
        "ns/ms",
    );
    row(
        out,
        "system.reader_poll_ns",
        with_reader - without_reader,
        "ns",
    );
}

/// `Fleet::advance_span` on one 625-tag cell of the fleet workload's
/// geometry, per tag.
pub fn fleet_advance(tracer: &Tracer, parent: usize, seed: u64, out: &mut Vec<Row>) {
    let config = edb_core::FleetConfig::standard(crate::fleet::TAGS);
    let n = edb_bench::fleet::CELL_SIZE;
    let span = SimTime::from_us(300);
    let ns = reps(tracer, parent, "fleet.advance_span", || {
        let mut fleet = Fleet::new(TagParams::wisp5(), 0, n, seed, |g| {
            config.distance_of(seed, g)
        });
        let t = Instant::now();
        for _ in 0..2_000 {
            fleet.advance_span(span);
        }
        black_box(fleet.tag_cycles());
        t.elapsed().as_nanos() as f64 / (2_000 * n) as f64
    });
    row(out, "fleet.advance_span_ns_per_tag", ns, "ns");
}

/// Encode, decode, verify and time travel on the serve phase's session
/// tapes. Returns (checks attempted, checks failed, failure messages).
pub fn replay(
    tracer: &Tracer,
    parent: usize,
    scripts: &[Script],
    tapes: &BTreeMap<usize, Vec<u8>>,
    fleet_tapes: &BTreeMap<usize, Vec<u8>>,
    out: &mut Vec<Row>,
) -> (u64, u64, Vec<String>) {
    let (mut attempted, mut failed, mut errors) = (0u64, 0u64, Vec::new());
    let (mut enc, mut dec, mut ver, mut back, mut goto) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut bytes_total, mut snapshots) = (0u64, 0u64);
    for (&index, bytes) in tapes {
        attempted += 1;
        let kb = bytes.len() as f64 / 1024.0;
        let rec = match Recording::from_bytes(bytes) {
            Ok(rec) => rec,
            Err(e) => {
                failed += 1;
                errors.push(format!("tape {index} does not decode: {e}"));
                continue;
            }
        };
        bytes_total += bytes.len() as u64;
        snapshots += rec.snapshot_count() as u64;
        dec.push(reps(tracer, parent, "replay.from_bytes", || {
            let t = Instant::now();
            black_box(Recording::from_bytes(black_box(bytes)).is_ok());
            t.elapsed().as_nanos() as f64 / kb
        }));
        let mut stable = true;
        enc.push(reps(tracer, parent, "replay.to_bytes", || {
            let t = Instant::now();
            let again = rec.to_bytes();
            let ns = t.elapsed().as_nanos() as f64 / kb;
            stable &= again == *bytes;
            ns
        }));
        let t = Instant::now();
        let verdict = tracer.span("replay.verify", Some(parent), index as u64, |_| {
            verify(&rec)
        });
        ver.push(t.elapsed().as_secs_f64() * 1e3);
        if !stable {
            failed += 1;
            errors.push(format!("tape {index} does not re-encode to its own bytes"));
        } else if let Err(e) = verdict {
            failed += 1;
            errors.push(format!("tape {index} fails verify: {e}"));
        }
        let script = &scripts[index];
        for rep in 0..2 {
            attempted += 1;
            let travelled = script.session_before_travel(&rec).and_then(|mut session| {
                tracer.span("replay.travel", Some(parent), rep, |_| {
                    script.travel(&mut session)
                })
            });
            match travelled {
                Ok((b, g)) => {
                    back.push(b * 1e3);
                    goto.push(g * 1e3);
                }
                Err(e) => {
                    failed += 1;
                    errors.push(format!("script {index} time travel failed: {e}"));
                }
            }
        }
    }
    let med = crate::stats::median;
    row(out, "replay.encode_ns_per_kb", med(&enc), "ns/KiB");
    row(out, "replay.decode_ns_per_kb", med(&dec), "ns/KiB");
    row(out, "replay.verify_ms", med(&ver), "ms");
    row(out, "replay.step_back_ms", med(&back), "ms");
    row(out, "replay.goto_time_ms", med(&goto), "ms");
    row(out, "replay.tape_bytes", bytes_total as f64, "bytes");
    row(out, "replay.snapshots", snapshots as f64, "count");
    row(
        out,
        "replay.fleet_tape_bytes",
        fleet_tapes.values().map(|b| b.len() as f64).sum(),
        "bytes",
    );
    (attempted, failed, errors)
}
