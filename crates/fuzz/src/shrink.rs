//! Greedy instruction-deletion shrinking.
//!
//! Given a failing program and a re-check function, repeatedly try to
//! delete chunks of the body (halving the chunk size down to single
//! instructions, ddmin-style) and keep any deletion that still fails.
//! Labels survive deletion (see [`crate::gen::Program::without`]), so
//! every candidate is still a valid, assemblable program and the
//! divergence check — not the assembler — decides what stays.

use crate::diff::Divergence;
use crate::gen::Program;

/// The outcome of a shrink run.
#[derive(Debug)]
pub struct Shrunk {
    /// The minimized program (possibly the original if nothing smaller
    /// still failed).
    pub program: Program,
    /// The divergence the minimized program still triggers.
    pub divergence: Divergence,
    /// Candidate programs evaluated.
    pub evaluations: usize,
}

/// Greedily minimizes `prog` while `check` keeps failing.
///
/// `check` returns `Some(divergence)` when the candidate still fails.
/// At most `max_steps` candidates are evaluated — each evaluation
/// re-runs the differential engines, so this bounds shrink cost.
pub fn shrink(
    prog: &Program,
    divergence: Divergence,
    max_steps: usize,
    mut check: impl FnMut(&Program) -> Option<Divergence>,
) -> Shrunk {
    let mut best = prog.clone();
    let mut best_div = divergence;
    let mut evals = 0usize;

    let mut chunk = (best.len() / 2).max(1);
    loop {
        let mut progressed = false;
        let mut start = 0usize;
        while start < best.len() {
            if evals >= max_steps {
                return Shrunk {
                    program: best,
                    divergence: best_div,
                    evaluations: evals,
                };
            }
            let candidate = best.without(start, chunk);
            if candidate.len() == best.len() {
                break;
            }
            evals += 1;
            if let Some(d) = check(&candidate) {
                best = candidate;
                best_div = d;
                progressed = true;
                // Same start now names the next chunk; don't advance.
            } else {
                start += chunk;
            }
        }
        if chunk == 1 {
            if !progressed {
                break;
            }
        } else {
            chunk = (chunk / 2).max(1);
        }
    }

    Shrunk {
        program: best,
        divergence: best_div,
        evaluations: evals,
    }
}

/// ddmin over a list: the smallest sub-list (in order) for which
/// `check` still reports a divergence, found by deleting ever smaller
/// runs. Returns it with its divergence. Shrinks power-failure
/// schedules and recording-container mutation lists.
pub fn ddmin<T: Clone>(
    items: &[T],
    divergence: Divergence,
    check: impl Fn(&[T]) -> Option<Divergence>,
) -> (Vec<T>, Divergence) {
    let mut current: Vec<T> = items.to_vec();
    let mut best = divergence;
    let mut chunk = (current.len() / 2).max(1);
    loop {
        let mut removed_any = false;
        let mut start = 0;
        while start < current.len() && current.len() > 1 {
            let mut candidate = current.clone();
            let end = (start + chunk).min(candidate.len());
            candidate.drain(start..end);
            if let Some(d) = check(&candidate) {
                current = candidate;
                best = d;
                removed_any = true;
                // Re-test from the same position in the shorter list.
            } else {
                start += chunk;
            }
        }
        if chunk == 1 {
            if !removed_any {
                break;
            }
        } else if !removed_any {
            chunk /= 2;
        }
    }
    (current, best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;

    #[test]
    fn shrink_finds_a_single_culprit_line() {
        // Failure oracle: "fails" iff the body still contains a `mul`.
        let mut prog = generate(99);
        prog.body[7].op = "mul r3, r4".to_string();
        let fails = |p: &Program| {
            p.body
                .iter()
                .any(|l| l.op.starts_with("mul"))
                .then(|| Divergence::new("mcu", "synthetic"))
        };
        assert!(fails(&prog).is_some(), "seed program must fail");
        let out = shrink(&prog, Divergence::new("mcu", "synthetic"), 10_000, fails);
        assert_eq!(out.program.len(), 1, "exactly the culprit survives");
        assert!(out.program.body[0].op.starts_with("mul"));
        // The shrunk program still assembles.
        edb_mcu::asm::assemble(&out.program.render()).expect("assembles");
    }

    #[test]
    fn shrink_respects_the_evaluation_budget() {
        let prog = generate(5);
        let always = |_: &Program| Some(Divergence::new("mcu", "always"));
        let out = shrink(&prog, Divergence::new("mcu", "always"), 3, always);
        assert!(out.evaluations <= 3);
    }
}
