//! The benchmark's own verifier, and the negative controls that prove
//! it can fail.
//!
//! Every workload books what it sent and what came back into a
//! [`Ledger`]. [`verify`] then demands:
//!
//! * each `(stream, seq)` answered at most once;
//! * the accounting closes: `sent = delivered + nacked + dropped`, and
//!   the program's own residue is zero;
//! * every delivered probability is bitwise equal to a reference the
//!   bench recomputes itself (a `score_stream` replay for the GRU,
//!   `predict_record` for the MLP);
//! * accuracy is at or above the workload's declared floor.
//!
//! A [`Control`] corrupts one of these on purpose (`--inject`); each
//! must turn the verdict to FAIL.

use std::collections::BTreeMap;

/// One prediction as the client received it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// The sensor / connection / fold the record belongs to.
    pub stream: u32,
    /// The record's sequence number within its stream.
    pub seq: u64,
    /// `proba.to_bits()`.
    pub bits: u64,
}

/// What one workload sent and what it got back.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// Records handed to the program.
    pub sent: u64,
    /// Predictions received.
    pub deliveries: Vec<Delivery>,
    /// Records explicitly refused back to the client.
    pub nacked: u64,
    /// Records the program reports it dropped (booked, not answered).
    pub dropped: u64,
    /// The program's own accounting residue (`unaccounted_records()`).
    pub residue: i64,
}

/// Expected probability bits of `stream`'s records at the given
/// ascending sequence numbers, in that order.
pub trait Reference {
    /// See the trait docs.
    fn expected(&self, stream: u32, seqs: &[u64]) -> Vec<u64>;
}

/// A deliberate corruption of a finished run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Flip the lowest bit of one delivered probability.
    FlipBit,
    /// Lose one delivered prediction.
    DropPrediction,
    /// Receive one prediction twice.
    DuplicatePrediction,
    /// Book one record as dropped although it was scored.
    BookScoredAsDropped,
    /// Score accuracy against inverted labels (`1 − accuracy`).
    AccuracyBelowFloor,
}

impl Control {
    /// Every control, in CLI spelling order.
    pub const ALL: [Control; 5] = [
        Control::FlipBit,
        Control::DropPrediction,
        Control::DuplicatePrediction,
        Control::BookScoredAsDropped,
        Control::AccuracyBelowFloor,
    ];

    /// CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            Control::FlipBit => "flip-bit",
            Control::DropPrediction => "drop-prediction",
            Control::DuplicatePrediction => "duplicate-prediction",
            Control::BookScoredAsDropped => "book-scored-as-dropped",
            Control::AccuracyBelowFloor => "accuracy-below-floor",
        }
    }

    /// Parses a CLI spelling.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|c| c.name() == s)
    }

    /// Applies the corruption to a finished run.
    pub fn apply(self, ledger: &mut Ledger, accuracy: &mut f64) {
        let middle = ledger.deliveries.len() / 2;
        match self {
            Control::FlipBit => {
                if let Some(d) = ledger.deliveries.get_mut(middle) {
                    d.bits ^= 1;
                }
            }
            Control::DropPrediction => {
                if middle < ledger.deliveries.len() {
                    ledger.deliveries.remove(middle);
                }
            }
            Control::DuplicatePrediction => {
                if let Some(&d) = ledger.deliveries.get(middle) {
                    ledger.deliveries.push(d);
                }
            }
            Control::BookScoredAsDropped => ledger.dropped += 1,
            Control::AccuracyBelowFloor => *accuracy = 1.0 - *accuracy,
        }
    }
}

/// The verifier's findings; empty means PASS.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Verdict {
    /// One line per failed check.
    pub failures: Vec<String>,
    /// Deliveries that matched their reference bitwise.
    pub matched: u64,
}

/// Checks a ledger against its reference and the accuracy floor.
pub fn verify(ledger: &Ledger, reference: &dyn Reference, accuracy: f64, floor: f64) -> Verdict {
    let mut verdict = Verdict::default();
    let mut by_stream: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for d in &ledger.deliveries {
        by_stream.entry(d.stream).or_default().push((d.seq, d.bits));
    }
    let mut duplicates = 0u64;
    let mut mismatches = 0u64;
    for (&stream, answers) in &mut by_stream {
        answers.sort_unstable();
        let before = answers.len();
        answers.dedup_by_key(|a| a.0);
        duplicates += (before - answers.len()) as u64;
        let seqs: Vec<u64> = answers.iter().map(|a| a.0).collect();
        let expected = reference.expected(stream, &seqs);
        for (&(_, got), want) in answers.iter().zip(expected) {
            if got == want {
                verdict.matched += 1;
            } else {
                mismatches += 1;
            }
        }
    }
    if duplicates > 0 {
        verdict.failures.push(format!(
            "{duplicates} prediction(s) delivered more than once"
        ));
    }
    if mismatches > 0 {
        verdict.failures.push(format!(
            "{mismatches} prediction(s) differ bitwise from the reference"
        ));
    }
    let booked = ledger.deliveries.len() as u64 + ledger.nacked + ledger.dropped;
    if booked != ledger.sent {
        verdict.failures.push(format!(
            "accounting: sent {} ≠ delivered {} + nacked {} + dropped {}",
            ledger.sent,
            ledger.deliveries.len(),
            ledger.nacked,
            ledger.dropped
        ));
    }
    if ledger.residue != 0 {
        verdict
            .failures
            .push(format!("program residue {} ≠ 0", ledger.residue));
    }
    if accuracy.is_nan() || accuracy < floor {
        verdict
            .failures
            .push(format!("accuracy {accuracy:.4} below the floor {floor:.4}"));
    }
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference: the probability of `(stream, seq)` is a fixed hash.
    struct Hashed;

    fn bits_of(stream: u32, seq: u64) -> u64 {
        (0.5 + (stream as f64 * 31.0 + seq as f64).sin() / 4.0).to_bits()
    }

    impl Reference for Hashed {
        fn expected(&self, stream: u32, seqs: &[u64]) -> Vec<u64> {
            seqs.iter().map(|&s| bits_of(stream, s)).collect()
        }
    }

    fn clean_run() -> Ledger {
        let mut deliveries = Vec::new();
        for stream in 0..3 {
            for seq in 0..40 {
                deliveries.push(Delivery {
                    stream,
                    seq,
                    bits: bits_of(stream, seq),
                });
            }
        }
        Ledger {
            sent: 125,
            deliveries,
            nacked: 2,
            dropped: 3,
            residue: 0,
        }
    }

    #[test]
    fn clean_run_passes() {
        let v = verify(&clean_run(), &Hashed, 0.97, 0.9);
        assert!(v.failures.is_empty(), "{:?}", v.failures);
        assert_eq!(v.matched, 120);
    }

    #[test]
    fn every_control_fails_the_verdict() {
        for control in Control::ALL {
            let mut ledger = clean_run();
            let mut accuracy = 0.97;
            control.apply(&mut ledger, &mut accuracy);
            let v = verify(&ledger, &Hashed, accuracy, 0.9);
            assert!(!v.failures.is_empty(), "{} went unnoticed", control.name());
        }
    }

    #[test]
    fn residue_and_parse() {
        let mut ledger = clean_run();
        ledger.residue = 1;
        assert!(!verify(&ledger, &Hashed, 1.0, 0.9).failures.is_empty());
        for c in Control::ALL {
            assert_eq!(Control::parse(c.name()), Some(c));
        }
        assert_eq!(Control::parse("nope"), None);
        assert!(!verify(&clean_run(), &Hashed, f64::NAN, 0.9)
            .failures
            .is_empty());
    }
}
