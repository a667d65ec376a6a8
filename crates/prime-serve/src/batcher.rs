//! Batch collection with bounded-queue admission control (DESIGN.md §14).
//!
//! The collector is a pure state machine over an *injected* clock: every
//! operation takes the current time as a [`Duration`] since an arbitrary
//! epoch, so the window logic is unit-testable without wall-clock sleeps
//! and the server merely feeds it `Instant::elapsed` readings.
//!
//! The server's dispatcher is work-conserving: whenever it is free it
//! flushes whatever is queued with [`take_batch`](BatchCollector::take_batch),
//! so batches form only from jobs that arrived while the previous one
//! ran. It never reads the window below; `max_delay`,
//! [`poll`](BatchCollector::poll) and
//! [`next_deadline`](BatchCollector::next_deadline) model a
//! time-windowed policy for `prime-benchmark`'s batcher replay.
//!
//! Policy:
//!
//! * **Admission** — [`offer`](BatchCollector::offer) refuses a job the
//!   moment the pending count has reached `queue_bound` (shedding kicks
//!   in *exactly at* the bound, never one past it) and reports the depth
//!   so the caller can answer with a typed `Overloaded` response.
//! * **Batch size** — a flush takes at most the oldest `max_batch`
//!   pending jobs.
//! * **Window (replay model)** — [`poll`](BatchCollector::poll) flushes
//!   once `max_batch` jobs are pending or the *oldest* has waited
//!   `max_delay`. This is the windowed policy the benchmark's replay
//!   models; the server does not wait out a window.
//! * **Fairness** — jobs flush strictly in arrival order (FIFO), across
//!   flushes as well as within one.

use std::collections::VecDeque;
use std::time::Duration;

/// Batching and admission-control knobs for one model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// The most jobs one flush takes. A value of 0 behaves as 1: every
    /// job flushes alone.
    pub max_batch: usize,
    /// The window of the time-windowed policy [`BatchCollector::poll`]
    /// models for the benchmark's batcher replay: flush when the oldest
    /// pending job has waited this long. The server does not read it;
    /// its dispatcher flushes whenever it is free.
    pub max_delay: Duration,
    /// Admission bound: a job offered while this many are already
    /// pending is shed. A bound of 0 sheds everything (useful to test
    /// the overload path deterministically).
    pub queue_bound: usize,
}

impl BatchConfig {
    /// A small, low-latency default: batches of up to 8, a 1 ms replay
    /// window, and a 256-deep admission queue.
    pub fn default_online() -> Self {
        BatchConfig {
            max_batch: 8,
            max_delay: Duration::from_millis(1),
            queue_bound: 256,
        }
    }
}

/// Verdict of [`BatchCollector::offer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The job was queued and will be part of a future flush.
    Admitted,
    /// The job was refused: the queue already held `queue_depth` jobs
    /// against a bound of `queue_bound`.
    Shed {
        /// Jobs pending at the time of the refusal.
        queue_depth: usize,
        /// The configured admission bound.
        queue_bound: usize,
    },
}

/// The batch collector: a FIFO of admitted jobs with their enqueue
/// times.
#[derive(Debug)]
pub struct BatchCollector<T> {
    config: BatchConfig,
    /// Pending jobs with their enqueue times, oldest first.
    queue: VecDeque<(T, Duration)>,
}

impl<T> BatchCollector<T> {
    /// Creates an empty collector with the given batch/bound config.
    pub fn new(config: BatchConfig) -> Self {
        BatchCollector { config, queue: VecDeque::new() }
    }

    /// The configured knobs.
    pub fn config(&self) -> BatchConfig {
        self.config
    }

    /// Jobs currently pending.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Offers a job at time `now`: queues it, or sheds it if the queue
    /// has reached the admission bound.
    pub fn offer(&mut self, job: T, now: Duration) -> Admission {
        if self.queue.len() >= self.config.queue_bound {
            return Admission::Shed {
                queue_depth: self.queue.len(),
                queue_bound: self.config.queue_bound,
            };
        }
        self.queue.push_back((job, now));
        Admission::Admitted
    }

    /// When the oldest pending job's window expires under the replayed
    /// time-windowed policy (`None` when the queue is empty). The
    /// benchmark's replay advances its clock to this; the server does
    /// not wait for it.
    pub fn next_deadline(&self) -> Option<Duration> {
        self.queue.front().map(|(_, t)| *t + self.config.max_delay)
    }

    /// Flushes a batch at time `now` if the replayed time-windowed
    /// policy would: `max_batch` jobs are pending, or the oldest has
    /// waited `max_delay`. Returns the oldest `max_batch` jobs in arrival
    /// order, or `None` when neither holds. This models the window for
    /// the benchmark's replay; the server flushes with
    /// [`take_batch`](Self::take_batch) whenever its dispatcher is free.
    pub fn poll(&mut self, now: Duration) -> Option<Vec<T>> {
        let size_hit = self.queue.len() >= self.config.max_batch.max(1);
        let deadline_hit = self.next_deadline().is_some_and(|d| d <= now);
        if !size_hit && !deadline_hit {
            return None;
        }
        Some(self.take_batch())
    }

    /// Unconditionally flushes the oldest `max_batch` jobs in arrival
    /// order, as the server's dispatcher does whenever it is free; an
    /// empty vec when nothing is pending.
    pub fn take_batch(&mut self) -> Vec<T> {
        let n = self.queue.len().min(self.config.max_batch.max(1));
        self.queue.drain(..n).map(|(job, _)| job).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    fn collector(max_batch: usize, max_delay_ms: u64, bound: usize) -> BatchCollector<usize> {
        BatchCollector::new(BatchConfig {
            max_batch,
            max_delay: ms(max_delay_ms),
            queue_bound: bound,
        })
    }

    #[test]
    fn size_triggered_flush_fires_exactly_at_max_batch() {
        let mut c = collector(4, 1000, 64);
        for j in 0..3 {
            assert_eq!(c.offer(j, ms(j as u64)), Admission::Admitted);
            assert_eq!(c.poll(ms(j as u64)), None, "no flush below max_batch");
        }
        assert_eq!(c.offer(3, ms(3)), Admission::Admitted);
        assert_eq!(c.poll(ms(3)), Some(vec![0, 1, 2, 3]));
        assert!(c.is_empty());
    }

    #[test]
    fn deadline_triggered_flush_uses_the_oldest_jobs_clock() {
        let mut c = collector(100, 5, 64);
        c.offer(0, ms(10));
        c.offer(1, ms(12));
        assert_eq!(c.next_deadline(), Some(ms(15)), "deadline tracks the oldest job");
        assert_eq!(c.poll(ms(14)), None, "window still open");
        assert_eq!(c.poll(ms(15)), Some(vec![0, 1]), "deadline inclusive");
        assert_eq!(c.next_deadline(), None);
    }

    #[test]
    fn flush_ordering_is_fifo_across_multiple_flushes() {
        let mut c = collector(4, 1000, 64);
        for j in 0..10 {
            c.offer(j, ms(0));
        }
        assert_eq!(c.poll(ms(0)), Some(vec![0, 1, 2, 3]));
        assert_eq!(c.poll(ms(0)), Some(vec![4, 5, 6, 7]));
        // Two left: below the size trigger, so only the deadline flushes.
        assert_eq!(c.poll(ms(999)), None);
        assert_eq!(c.poll(ms(1000)), Some(vec![8, 9]));
    }

    #[test]
    fn deadline_of_survivors_carries_over_after_a_partial_flush() {
        let mut c = collector(2, 10, 64);
        c.offer(0, ms(0));
        c.offer(1, ms(1));
        c.offer(2, ms(7));
        assert_eq!(c.poll(ms(1)), Some(vec![0, 1]), "size trigger");
        // Job 2 entered at t=7; its deadline is 17, not 11.
        assert_eq!(c.next_deadline(), Some(ms(17)));
        assert_eq!(c.poll(ms(16)), None);
        assert_eq!(c.poll(ms(17)), Some(vec![2]));
    }

    #[test]
    fn shedding_kicks_in_exactly_at_the_queue_bound() {
        let mut c = collector(100, 1000, 3);
        assert_eq!(c.offer(0, ms(0)), Admission::Admitted);
        assert_eq!(c.offer(1, ms(0)), Admission::Admitted);
        assert_eq!(c.offer(2, ms(0)), Admission::Admitted);
        assert_eq!(
            c.offer(3, ms(0)),
            Admission::Shed { queue_depth: 3, queue_bound: 3 },
            "the job *at* the bound is the first one shed"
        );
        // A flush frees capacity and admission resumes.
        assert_eq!(c.take_batch().len(), 3);
        assert_eq!(c.offer(4, ms(1)), Admission::Admitted);
    }

    #[test]
    fn zero_bound_sheds_everything() {
        let mut c = collector(4, 1, 0);
        assert_eq!(c.offer(0, ms(0)), Admission::Shed { queue_depth: 0, queue_bound: 0 });
        assert!(c.is_empty());
    }

    #[test]
    fn zero_max_batch_behaves_as_one() {
        let mut c = collector(0, 1000, 64);
        c.offer(7, ms(0));
        c.offer(8, ms(0));
        assert_eq!(c.poll(ms(0)), Some(vec![7]));
        assert_eq!(c.poll(ms(0)), Some(vec![8]));
    }
}
