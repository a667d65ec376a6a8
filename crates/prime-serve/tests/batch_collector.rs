//! Model-based property test of [`BatchCollector`].
//!
//! Random sequences of `offer`, `poll` and `take_batch` run under a
//! nondecreasing injected clock, and after every step the collector must
//! agree with a plain `VecDeque` reference queue on:
//!
//! * **admission** — a job is shed exactly when the queue already holds
//!   `queue_bound` jobs, and the refusal reports that depth;
//! * **size trigger** — `poll` flushes once `max(max_batch, 1)` jobs are
//!   pending;
//! * **deadline trigger** — `poll` flushes once the oldest job has waited
//!   `max_delay`, inclusive of the deadline itself;
//! * **`next_deadline`** — the oldest enqueue time plus `max_delay`;
//! * **FIFO order** — every flush is the oldest `max(max_batch, 1)` jobs
//!   in arrival order, across flushes as well as within one.

use std::collections::VecDeque;
use std::time::Duration;

use proptest::prelude::*;

use prime_serve::{Admission, BatchCollector, BatchConfig};

/// One step of a generated run.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Advance the clock by the given microseconds, then offer a job.
    Offer(u64),
    /// Advance the clock by the given microseconds, then poll.
    Poll(u64),
    /// Jump the clock to the oldest job's deadline (if it lies ahead),
    /// then poll: the inclusive edge of the deadline trigger.
    PollAtDeadline,
    /// Advance the clock by the given microseconds, then flush
    /// unconditionally (the shutdown drain).
    TakeBatch(u64),
}

fn any_op() -> impl Strategy<Value = Op> {
    (0u8..4, 0u64..8).prop_map(|(kind, dt)| match kind {
        0 => Op::Offer(dt),
        1 => Op::Poll(dt),
        2 => Op::PollAtDeadline,
        _ => Op::TakeBatch(dt),
    })
}

fn any_config() -> impl Strategy<Value = BatchConfig> {
    (0usize..6, 0u64..12, 0usize..8).prop_map(|(max_batch, delay_us, queue_bound)| BatchConfig {
        max_batch,
        max_delay: Duration::from_micros(delay_us),
        queue_bound,
    })
}

/// The reference queue: pending job ids with their enqueue times.
struct Reference {
    config: BatchConfig,
    queue: VecDeque<(u64, Duration)>,
}

impl Reference {
    fn deadline(&self) -> Option<Duration> {
        self.queue.front().map(|&(_, t)| t + self.config.max_delay)
    }

    fn take(&mut self) -> Vec<u64> {
        let n = self.queue.len().min(self.config.max_batch.max(1));
        self.queue.drain(..n).map(|(id, _)| id).collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn collector_matches_a_reference_queue(
        config in any_config(),
        ops in proptest::collection::vec(any_op(), 0..80),
    ) {
        let mut collector = BatchCollector::new(config);
        let mut reference = Reference { config, queue: VecDeque::new() };
        let mut now = Duration::ZERO;
        let mut next_id = 0u64;
        let mut admitted = Vec::new();
        let mut flushed = Vec::new();
        for op in ops {
            match op {
                Op::Offer(dt) => {
                    now += Duration::from_micros(dt);
                    let id = next_id;
                    next_id += 1;
                    let depth = reference.queue.len();
                    let expected = if depth >= config.queue_bound {
                        Admission::Shed { queue_depth: depth, queue_bound: config.queue_bound }
                    } else {
                        reference.queue.push_back((id, now));
                        admitted.push(id);
                        Admission::Admitted
                    };
                    prop_assert_eq!(collector.offer(id, now), expected, "offer of job {}", id);
                }
                Op::Poll(_) | Op::PollAtDeadline => {
                    if let Op::Poll(dt) = op {
                        now += Duration::from_micros(dt);
                    } else if let Some(deadline) = reference.deadline() {
                        now = now.max(deadline);
                    }
                    let size_hit = reference.queue.len() >= config.max_batch.max(1);
                    let deadline_hit = reference.deadline().is_some_and(|d| d <= now);
                    let expected = (size_hit || deadline_hit).then(|| reference.take());
                    let got = collector.poll(now);
                    prop_assert_eq!(&got, &expected, "poll at {:?}", now);
                    flushed.extend(got.unwrap_or_default());
                }
                Op::TakeBatch(dt) => {
                    now += Duration::from_micros(dt);
                    let got = collector.take_batch();
                    prop_assert_eq!(&got, &reference.take(), "take_batch at {:?}", now);
                    flushed.extend(got);
                }
            }
            prop_assert_eq!(collector.len(), reference.queue.len());
            prop_assert_eq!(collector.is_empty(), reference.queue.is_empty());
            prop_assert_eq!(collector.next_deadline(), reference.deadline());
        }
        // FIFO across flushes: the flushed jobs, then the pending ones,
        // are exactly the admitted jobs in arrival order.
        flushed.extend(reference.queue.iter().map(|&(id, _)| id));
        prop_assert_eq!(flushed, admitted);
    }
}
