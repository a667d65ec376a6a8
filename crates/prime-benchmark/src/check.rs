//! Output checking: every served response and every in-process output is
//! compared bit for bit with a reference computed on an identically
//! deployed system, and every attempt lands in exactly one bucket of a
//! [`Tally`].

use prime_serve::Response;

/// What happened to one attempted request or call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Answered with exactly the reference output.
    Ok,
    /// Refused by admission control.
    Shed,
    /// Answered with an error, or the call returned one.
    Error,
    /// Never answered before the run's drain deadline.
    Timeout,
    /// Answered with an output that differs from the reference.
    Mismatch,
}

/// Whether two outputs are identical bit for bit (NaN-safe, and `-0.0`
/// differs from `0.0`).
pub fn same_bits(expected: &[f32], got: &[f32]) -> bool {
    expected.len() == got.len()
        && expected
            .iter()
            .zip(got)
            .all(|(a, b)| a.to_bits() == b.to_bits())
}

/// Classifies a served response (`None`: no response arrived).
pub fn judge_response(response: Option<&Response>, expected: &[f32]) -> Verdict {
    match response {
        None => Verdict::Timeout,
        Some(Response::Overloaded { .. }) => Verdict::Shed,
        Some(Response::Error { .. }) => Verdict::Error,
        Some(Response::Output { values, .. }) if same_bits(expected, values) => Verdict::Ok,
        Some(Response::Output { .. }) => Verdict::Mismatch,
    }
}

/// Counts of verdicts over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Correct answers.
    pub ok: u64,
    /// Shed requests.
    pub shed: u64,
    /// Error answers and failed calls.
    pub errors: u64,
    /// Requests that were never answered.
    pub timeouts: u64,
    /// Wrong answers.
    pub mismatches: u64,
}

impl Tally {
    /// Adds one verdict.
    pub fn record(&mut self, verdict: Verdict) {
        let bucket = match verdict {
            Verdict::Ok => &mut self.ok,
            Verdict::Shed => &mut self.shed,
            Verdict::Error => &mut self.errors,
            Verdict::Timeout => &mut self.timeouts,
            Verdict::Mismatch => &mut self.mismatches,
        };
        *bucket += 1;
    }

    /// Compares a batch of outputs against their references, one verdict
    /// per expected output (a missing output is a mismatch).
    pub fn record_outputs<'a>(
        &mut self,
        expected: impl IntoIterator<Item = &'a [f32]>,
        got: &[Vec<f32>],
    ) {
        let mut got = got.iter();
        for reference in expected {
            let verdict = match got.next() {
                Some(values) if same_bits(reference, values) => Verdict::Ok,
                _ => Verdict::Mismatch,
            };
            self.record(verdict);
        }
    }

    /// Every recorded attempt.
    pub fn attempted(&self) -> u64 {
        self.ok + self.failed()
    }

    /// Attempts that did not produce the correct answer.
    pub fn failed(&self) -> u64 {
        self.shed + self.errors + self.timeouts + self.mismatches
    }

    /// No output differed from its reference.
    pub fn correct(&self) -> bool {
        self.mismatches == 0
    }

    /// Folds another tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.ok += other.ok;
        self.shed += other.shed;
        self.errors += other.errors;
        self.timeouts += other.timeouts;
        self.mismatches += other.mismatches;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_output_is_counted_as_a_failure() {
        let reference = vec![0.25f32, -1.5, 3.0];
        let mut corrupted = reference.clone();
        corrupted[1] = f32::from_bits(corrupted[1].to_bits() ^ 1);

        let mut tally = Tally::default();
        tally.record(judge_response(
            Some(&Response::Output {
                id: 1,
                values: reference.clone(),
            }),
            &reference,
        ));
        tally.record(judge_response(
            Some(&Response::Output {
                id: 2,
                values: corrupted.clone(),
            }),
            &reference,
        ));
        tally.record_outputs(
            [reference.as_slice(), reference.as_slice()],
            &[reference.clone(), corrupted],
        );

        assert_eq!((tally.ok, tally.mismatches), (2, 2));
        assert_eq!(tally.attempted(), 4);
        assert_eq!(tally.failed(), 2);
        assert!(!tally.correct());
    }

    #[test]
    fn refusals_fail_without_making_the_run_incorrect() {
        let reference = [1.0f32];
        let mut tally = Tally::default();
        let shed = Response::Overloaded {
            id: 1,
            model: "m".into(),
            queue_depth: 1,
            queue_bound: 1,
        };
        tally.record(judge_response(Some(&shed), &reference));
        tally.record(judge_response(
            Some(&Response::Error {
                id: 2,
                message: "x".into(),
            }),
            &reference,
        ));
        tally.record(judge_response(None, &reference));
        tally.record_outputs([reference.as_slice()], &[]);
        assert_eq!(
            (tally.shed, tally.errors, tally.timeouts, tally.mismatches),
            (1, 1, 1, 1)
        );
        assert_eq!(tally.failed(), 4);
        assert!(!tally.correct(), "a missing output is a mismatch");
    }

    #[test]
    fn bit_identity_distinguishes_signed_zero_and_matches_nan() {
        assert!(!same_bits(&[0.0], &[-0.0]));
        assert!(same_bits(&[f32::NAN], &[f32::NAN]));
        assert!(!same_bits(&[1.0], &[1.0, 2.0]));
    }
}
