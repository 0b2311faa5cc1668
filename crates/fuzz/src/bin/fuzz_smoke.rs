//! Seed-driven fuzzing smoke run.
//!
//! ```text
//! fuzz_smoke [--seed S] [--threads N] [--cases N] [--sessions N]
//!            [--strategies [N]] [--analyze [N]] [--max-shrink-steps N]
//!            [--container [N]] [--replay-seed S] [--record-reproducers]
//! ```
//!
//! Runs `--cases` generated programs (default 100) through every
//! differential and fault-injection arm, plus a smaller batch of
//! checkpoint round-trips and `--sessions` debug-session fuzz trials
//! (noisy channel, mid-exchange brown-outs; default 25), using
//! `edb-bench`'s deterministic runner: the same `--seed` yields
//! bit-identical verdicts — including the printed session digest — at
//! any `--threads`. On divergence the lowest-trial failure is shrunk
//! and written to `target/fuzz-artifacts/`, and the process exits
//! non-zero.
//!
//! `--strategies` additionally races the checkpoint-strategy zoo
//! (`edb_runtime::ckpt`) under adversarial power-failure injection:
//! each trial seeds an injection schedule over a restart-idempotent
//! kernel, runs `Differential` in bit-for-bit lockstep against
//! `FullDump`, and checks every strategy's published result against the
//! uninterrupted-run oracle. Divergent schedules are ddmin-minimized
//! and written to `target/fuzz-artifacts/strategy-<seed>.txt`. An
//! optional value sets the trial count (default 40).
//!
//! `--analyze` races `edb-analyze`'s static claims against the
//! simulator: each trial generates a bounded-by-construction program,
//! analyzes the binary, and asserts that under a seeded harvest trace
//! no powered interval retires more cycles than the static WCEC bound,
//! that every executed pc transition is a CFG edge, and that a
//! "completes on one charge" verdict holds on a dead harvester.
//! Violations are ddmin-shrunk with an arm-matched oracle and written
//! to `target/fuzz-artifacts/`. An optional value sets the trial count
//! (default 200).
//!
//! `--container` fuzzes the recording container: each trial applies
//! seeded bit flips, splices, inflated length fields and deep nesting to
//! a recorded `.edbr` tape and requires `Recording::from_bytes` to
//! return a recording or a typed error, never panic or abort. A failing
//! mutation list is ddmin-shrunk and written to
//! `target/fuzz-artifacts/container-<seed>.edbr` with a `.txt` note. An
//! optional value sets the trial count (default 200).
//!
//! `--replay-seed` re-runs a single case seed (as printed in an
//! artifact header) verbosely and skips the batch.
//!
//! `--record-reproducers` additionally runs any failing program through
//! the time-travel recorder and writes a `case-<seed>.edbr` recording
//! next to the `.s` artifacts, ready for `step_back`/`goto_time` in the
//! debugger.

use edb_bench::runner::Cli;
use edb_fuzz::{
    artifact, check_program, container, fault, gen, race, run_case, session, shrink, soundness,
    FuzzConfig,
};

/// Pulls `--name <value>` (decimal or `0x` hex) out of raw argv;
/// `Cli::parse` tolerates the leftovers.
fn arg_u64(name: &str) -> Option<u64> {
    let args: Vec<String> = std::env::args().collect();
    let eq = format!("{name}=");
    for (i, a) in args.iter().enumerate() {
        let raw = if a == name {
            args.get(i + 1).cloned()
        } else {
            a.strip_prefix(&eq).map(str::to_string)
        };
        if let Some(raw) = raw {
            let parsed = raw
                .strip_prefix("0x")
                .or_else(|| raw.strip_prefix("0X"))
                .map(|h| u64::from_str_radix(h, 16))
                .unwrap_or_else(|| raw.parse());
            match parsed {
                Ok(v) => return Some(v),
                Err(_) => {
                    eprintln!("fuzz_smoke: bad value for {name}: {raw}");
                    std::process::exit(2);
                }
            }
        }
    }
    None
}

/// True when the bare flag `--name` appears in argv.
fn arg_flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// `--name` with an optional trial-count value, defaulting to `default`.
fn optional_count_arg(name: &str, default: usize) -> Option<usize> {
    let args: Vec<String> = std::env::args().collect();
    let eq = format!("{name}=");
    for (i, a) in args.iter().enumerate() {
        if let Some(v) = a.strip_prefix(&eq) {
            return Some(v.parse().unwrap_or(default));
        }
        if a == name {
            return Some(
                args.get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(default),
            );
        }
    }
    None
}

fn main() {
    let cli = Cli::from_env();
    let mut cfg = FuzzConfig::default();
    if let Some(n) = arg_u64("--max-shrink-steps") {
        cfg.max_shrink_steps = n as usize;
    }

    if let Some(seed) = arg_u64("--replay-seed") {
        replay(seed, &cfg);
        return;
    }

    let cases = arg_u64("--cases").unwrap_or(100) as usize;
    let runner = cli.runner();

    let t0 = std::time::Instant::now();
    let diff_failures: Vec<_> = runner
        .map_trials("fuzz/diff", cases, |ctx| run_case(ctx.seed, &cfg))
        .into_iter()
        .flatten()
        .collect();
    let ckpt_cases = (cases / 8).max(1);
    let ckpt_failures: Vec<_> = runner
        .map_trials("fuzz/checkpoint", ckpt_cases, |ctx| {
            fault::checkpoint_round_trip(ctx.seed).map(|_| ctx.seed)
        })
        .into_iter()
        .flatten()
        .collect();
    let sessions = arg_u64("--sessions").unwrap_or(25) as usize;
    let session_cfg = session::SessionConfig::default();
    let session_results = runner.map_trials("fuzz/session", sessions, |ctx| {
        (ctx.seed, session::run_session_case(ctx.seed, &session_cfg))
    });
    let strategy_trials = optional_count_arg("--strategies", 40).unwrap_or(0);
    let strategy_failures: Vec<(u64, edb_fuzz::Divergence)> = runner
        .map_trials("fuzz/strategy", strategy_trials, |ctx| {
            race::check_race(ctx.seed).map(|d| (ctx.seed, d))
        })
        .into_iter()
        .flatten()
        .collect();
    let analyze_trials = optional_count_arg("--analyze", 200).unwrap_or(0);
    let analyze_failures: Vec<_> = runner
        .map_trials("fuzz/analyze", analyze_trials, |ctx| {
            soundness::run_soundness_case(ctx.seed, &cfg)
        })
        .into_iter()
        .flatten()
        .collect();
    let container_trials = optional_count_arg("--container", 200).unwrap_or(0);
    let container_results = runner.map_trials("fuzz/container", container_trials, |ctx| {
        container::run_container_case(ctx.seed)
    });
    let wall = t0.elapsed().as_secs_f64();

    println!(
        "fuzz_smoke: {cases} differential case(s) + {ckpt_cases} checkpoint round-trip(s) \
         + {sessions} session trial(s) + {strategy_trials} strategy race(s) \
         + {analyze_trials} analyzer soundness case(s) \
         + {container_trials} container trial(s) in {wall:.1}s"
    );

    let mut session_failures = 0usize;
    let mut totals = session::SessionStats::default();
    let digest = session::combine_digests(session_results.iter().enumerate().map(
        |(trial, (seed, r))| match r {
            Ok(stats) => {
                totals.completed += stats.completed;
                totals.retried += stats.retried;
                totals.aborted += stats.aborted;
                totals.injected_brownouts += stats.injected_brownouts;
                stats.digest
            }
            Err(d) => {
                session_failures += 1;
                println!("  session trial {trial} (seed {seed:#x}): {d}");
                0
            }
        },
    ));
    if sessions > 0 {
        println!(
            "  sessions: {} completed, {} retried, {} aborted (typed), \
             {} injected brown-out(s); digest {digest:#018x}",
            totals.completed, totals.retried, totals.aborted, totals.injected_brownouts
        );
    }

    if strategy_trials > 0 && strategy_failures.is_empty() {
        println!("  strategies: 0 divergences vs full_dump across the kernel suite");
    }
    if let Some((seed, div)) = strategy_failures.first() {
        println!(
            "  FAIL: {} strategy divergence(s); ddmin-shrinking seed {seed:#x}: {div}",
            strategy_failures.len()
        );
        let suite = race::kernels();
        let kernel = &suite[(*seed as usize) % suite.len()];
        let schedule = race::generate_schedule(*seed);
        let (min, best) = shrink::ddmin(&schedule, div.clone(), |s| race::check_race_on(kernel, s));
        println!(
            "  shrunk {} -> {} cut(s): {best}",
            schedule.len(),
            min.len()
        );
        let dir = std::path::PathBuf::from(artifact::ARTIFACT_DIR);
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join(format!("strategy-{seed:#x}.txt"));
        let mut report = String::new();
        report.push_str("edb-fuzz strategy-race reproducer\n");
        report.push_str(&format!("case seed : {seed:#018x}\n"));
        report.push_str(&format!("kernel    : {}\n", kernel.name));
        report.push_str(&format!("divergence: {best}\n"));
        report.push_str(&format!("schedule  : {min:?}\n\n"));
        report.push_str(&kernel.source);
        match std::fs::write(&path, report) {
            Ok(()) => println!("  wrote {}", path.display()),
            Err(e) => eprintln!("fuzz: cannot write {}: {e}", path.display()),
        }
    }

    if analyze_trials > 0 && analyze_failures.is_empty() {
        println!("  analyzer: every execution respected its static WCEC bound and CFG");
    }
    if let Some(first) = analyze_failures.first() {
        println!(
            "  FAIL: {} analyzer soundness divergence(s); shrinking seed {:#x}: {}",
            analyze_failures.len(),
            first.seed,
            first.divergence
        );
        let arm = first.divergence.arm;
        let shrunk = shrink(
            &first.program,
            first.divergence.clone(),
            cfg.max_shrink_steps,
            |p| soundness::check_soundness(p, first.seed, &cfg).filter(|d| d.arm == arm),
        );
        println!(
            "  shrunk {} -> {} instruction(s) in {} evaluation(s): {}",
            first.program.len(),
            shrunk.program.len(),
            shrunk.evaluations,
            shrunk.divergence
        );
        for path in
            artifact::write_reproducer(&shrunk.program, &first.program, &shrunk.divergence, &cfg)
        {
            println!("  wrote {}", path.display());
        }
    }

    let container_failures = report_container(&container_results);

    for seed in &ckpt_failures {
        // Re-derive the divergence for the report (cheap relative to the run).
        if let Some(d) = fault::checkpoint_round_trip(*seed) {
            println!("  checkpoint seed {seed:#x}: {d}");
        }
    }

    if let Some(first) = diff_failures.first() {
        println!(
            "  FAIL: {} divergence(s); shrinking seed {:#x}: {}",
            diff_failures.len(),
            first.seed,
            first.divergence
        );
        let shrunk = shrink(
            &first.program,
            first.divergence.clone(),
            cfg.max_shrink_steps,
            |p| check_program(p, first.seed, &cfg),
        );
        println!(
            "  shrunk {} -> {} instruction(s) in {} evaluation(s): {}",
            first.program.len(),
            shrunk.program.len(),
            shrunk.evaluations,
            shrunk.divergence
        );
        for path in
            artifact::write_reproducer(&shrunk.program, &first.program, &shrunk.divergence, &cfg)
        {
            println!("  wrote {}", path.display());
        }
        if arg_flag("--record-reproducers") {
            if let Some(path) = artifact::record_reproducer(&first.program, cfg.system_sim_ms) {
                println!("  recorded {}", path.display());
            }
        }
    }

    if diff_failures.is_empty()
        && ckpt_failures.is_empty()
        && session_failures == 0
        && strategy_failures.is_empty()
        && analyze_failures.is_empty()
        && container_failures == 0
    {
        println!("  OK: zero divergences");
    } else {
        std::process::exit(1);
    }
}

/// Prints the container campaign's verdict counts and outcome digest
/// (thread-invariant), shrinks and writes the first failure. Returns the
/// number of failing trials.
fn report_container(results: &[Result<container::Verdict, container::ContainerFailure>]) -> usize {
    if results.is_empty() {
        return 0;
    }
    let mut digest = edb_replay::Fnv::new();
    let (mut parsed, mut rejected) = (0usize, 0usize);
    let mut failures = Vec::new();
    for result in results {
        match result {
            Ok(container::Verdict::Parsed(h)) => {
                parsed += 1;
                digest.write(&[1]);
                digest.write(&h.to_le_bytes());
            }
            Ok(container::Verdict::Rejected(at)) => {
                rejected += 1;
                digest.write(&[2]);
                digest.write(&(*at as u64).to_le_bytes());
            }
            Err(failure) => failures.push(failure),
        }
    }
    println!(
        "  container: {parsed} parsed, {rejected} rejected (typed), {} failed; digest {:#018x}",
        failures.len(),
        digest.finish()
    );
    let Some(first) = failures.first() else {
        return 0;
    };
    println!(
        "  FAIL: {} container failure(s); ddmin-shrinking seed {:#x}: {}",
        failures.len(),
        first.seed,
        first.divergence
    );
    let (min, best) = shrink::ddmin(&first.mutations, first.divergence.clone(), |m| {
        container::check_mutations(first.base, m).err()
    });
    println!(
        "  shrunk {} -> {} mutation(s): {best}",
        first.mutations.len(),
        min.len()
    );
    let dir = std::path::PathBuf::from(artifact::ARTIFACT_DIR);
    let _ = std::fs::create_dir_all(&dir);
    let tapes = container::base_tapes();
    let bytes = container::apply(&tapes[first.base], &tapes[1 - first.base], &min);
    let stem = dir.join(format!("container-{:#x}", first.seed));
    let note = format!(
        "edb-fuzz container reproducer\ncase seed : {:#018x}\nbase tape : {}\n\
         divergence: {best}\nmutations : {min:?}\n",
        first.seed,
        ["session", "fleet"][first.base]
    );
    for (path, contents) in [
        (stem.with_extension("edbr"), bytes),
        (stem.with_extension("txt"), note.into_bytes()),
    ] {
        match std::fs::write(&path, contents) {
            Ok(()) => println!("  wrote {}", path.display()),
            Err(e) => eprintln!("fuzz: cannot write {}: {e}", path.display()),
        }
    }
    failures.len()
}

/// Re-runs one case seed with the full program listing on stdout.
fn replay(seed: u64, cfg: &FuzzConfig) {
    let prog = gen::generate(seed);
    println!(
        "; replaying case seed {seed:#x} ({} instructions)",
        prog.len()
    );
    println!("{}", prog.render());
    match check_program(&prog, seed, cfg) {
        None => println!("replay: no divergence"),
        Some(d) => {
            println!("replay: {d}");
            std::process::exit(1);
        }
    }
}
