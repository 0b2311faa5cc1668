//! **Figures 8 & 9** — instrumentation of arbitrary energy cost via
//! energy guards.
//!
//! The Fibonacci app's debug build runs an O(n) consistency check each
//! pass. Without guards the check eventually consumes the entire
//! charge-discharge budget and the main loop starves (Figure 9 top).
//! With the check wrapped in `__edb_guard_begin`/`__edb_guard_end` it
//! runs on tethered power and the main loop always executes (bottom).
//!
//! Starvation is detected from ground truth: the run stops once the
//! item counter has stood still for two seconds. The bench runs in
//! spans that end on every store to the counter (a memory write watch)
//! and never cross the two-second mark, so the verdict and its
//! timestamp match a watcher that peeks the counter after every step.

use crate::harness;
use crate::runner::{ExperimentSpec, Runner};
use crate::Report;
use edb_apps::fib::{self, Variant};
use edb_core::System;
use edb_device::DeviceConfig;
use edb_energy::SimTime;

/// The suite entry for this experiment (a single scripted scenario —
/// the runner's trial pool is not used).
pub const SPEC: ExperimentSpec = ExperimentSpec {
    name: "fig9",
    title: "Figure 9: consistency check without / with energy guards",
    run: run_spec,
};

fn run_spec(_runner: &Runner) -> Report {
    run()
}

/// A hungrier compute current halves the per-cycle budget, pulling the
/// starvation point toward the paper's ~555 items without changing the
/// phenomenon (see DESIGN.md).
fn device_config() -> DeviceConfig {
    DeviceConfig {
        i_active: 4.4e-3,
        ..DeviceConfig::wisp5()
    }
}

/// How long `COUNT` may stand still before the main loop counts as
/// starved.
const STALL: SimTime = SimTime::from_secs(2);

/// `(count, violations, stalled, guard episodes, reboots)` of one run.
type Outcome = (u16, u16, bool, u64, u64);

fn bench(variant: Variant) -> System {
    let mut sys = System::builder(device_config())
        .harvester(harness::harvested(9))
        .build();
    sys.flash(&fib::image(variant));
    sys
}

fn run_variant(variant: Variant, budget: SimTime) -> Outcome {
    let mut sys = bench(variant);
    let stalled = watch_count(&mut sys, budget, STALL);
    outcome(&sys, stalled)
}

/// Runs the bench until `budget`, or until `COUNT` has stood still for
/// longer than `stall`; returns whether it stalled.
fn watch_count(sys: &mut System, budget: SimTime, stall: SimTime) -> bool {
    // Every span ends on the quantum that stores to `COUNT`, so a change
    // is timestamped exactly where a per-step watcher would see it, and
    // no span runs past the first quantum boundary at which the count
    // has stood still for longer than `stall`.
    sys.device_mut().mem_mut().set_write_watch(Some(fib::COUNT));
    let mut last_count = 0u16;
    let mut last_change = SimTime::ZERO;
    while sys.now() < budget {
        sys.advance_span(budget.min(last_change + stall + SimTime::from_ns(1)));
        let c = sys.device().mem().peek_word(fib::COUNT);
        if c != last_count {
            last_count = c;
            last_change = sys.now();
        } else if sys.now().since(last_change) > stall {
            return true;
        }
    }
    false
}

fn outcome(sys: &System, stalled: bool) -> Outcome {
    let count = sys.device().mem().peek_word(fib::COUNT);
    let violations = sys.device().mem().peek_word(fib::VIOLATIONS);
    let guards = sys
        .edb()
        .map(|e| e.log().with_tag("guard-enter").count() as u64)
        .unwrap_or(0);
    (count, violations, stalled, guards, sys.device().reboots())
}

/// Runs the Figure 9 experiment.
pub fn run() -> Report {
    let mut report = Report::new("Figure 9: consistency check without / with energy guards");
    let budget = SimTime::from_secs(30);

    let (count_checked, viol_checked, stalled_checked, _, reboots_checked) =
        run_variant(Variant::Checked, budget);
    report.line(format!(
        "checked (no guards): added {count_checked} items, then the check ate the whole budget \
         (stalled: {stalled_checked}; paper hung after ~555 items); reboots = {reboots_checked}"
    ));
    report.line(format!(
        "consistency violations the check caught en route: {viol_checked} \
         (paper: \"the invariant was violated in several experimental trials\")"
    ));

    let (count_guarded, viol_guarded, stalled_guarded, guards, reboots_guarded) =
        run_variant(Variant::Guarded, budget);
    report.line(format!(
        "guarded: added {count_guarded} items in the same wall time, never stalled \
         (stalled: {stalled_guarded}); {guards} guard episodes on tethered power; reboots = {reboots_guarded}"
    ));
    report.line(format!(
        "guarded-build violations: {viol_guarded} (the check still runs — it just costs nothing)"
    ));

    report.metric("checked_count", count_checked as f64);
    report.metric("checked_stalled", stalled_checked as u8 as f64);
    report.metric("guarded_count", count_guarded as f64);
    report.metric("guarded_stalled", stalled_guarded as u8 as f64);
    report.metric("guard_episodes", guards as f64);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The stall watcher as it ran before spans: one quantum at a time,
    /// peeking `COUNT` after every step.
    fn watch_count_stepped(sys: &mut System, budget: SimTime, stall: SimTime) -> bool {
        let mut last_count = 0u16;
        let mut last_change = SimTime::ZERO;
        while sys.now() < budget {
            sys.step();
            let c = sys.device().mem().peek_word(fib::COUNT);
            if c != last_count {
                last_count = c;
                last_change = sys.now();
            } else if sys.now().since(last_change) > stall {
                return true;
            }
        }
        false
    }

    #[test]
    fn span_stall_watch_matches_the_per_step_loop() {
        // A short budget keeps the debug build fast. The 30 ms window
        // fires during the first charge-up (the stall branch); the 2 s
        // window never fires, so every change is timestamped instead.
        let budget = SimTime::from_ms(600);
        for variant in [Variant::Checked, Variant::Guarded] {
            for stall in [SimTime::from_ms(30), STALL] {
                let mut spanned = bench(variant);
                let s = watch_count(&mut spanned, budget, stall);
                let mut stepped = bench(variant);
                let t = watch_count_stepped(&mut stepped, budget, stall);
                let what = format!("{variant:?}, stall window {stall}");
                assert_eq!(outcome(&spanned, s), outcome(&stepped, t), "{what}");
                assert_eq!(spanned.now(), stepped.now(), "{what}: stop time");
                assert_eq!(spanned.state_digest(), stepped.state_digest(), "{what}");
                assert_eq!(t, stall < STALL, "{what}: stall verdict");
                assert_eq!(
                    stepped.device().mem().peek_word(fib::COUNT) > 0,
                    !t,
                    "{what}: the main loop runs unless stalled at once"
                );
            }
        }
    }

    #[test]
    fn guards_prevent_starvation() {
        let r = run();
        assert_eq!(r.get("checked_stalled"), 1.0, "unguarded build must hang");
        assert_eq!(r.get("guarded_stalled"), 0.0, "guarded build must not");
        assert!(
            r.get("guarded_count") > r.get("checked_count"),
            "guards restore forward progress"
        );
        assert!(r.get("guard_episodes") > 10.0);
        let stalled_at = r.get("checked_count");
        assert!(
            (100.0..2500.0).contains(&stalled_at),
            "stall point {stalled_at} (paper: ~555)"
        );
    }
}
