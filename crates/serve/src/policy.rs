//! Batching policies: when does the dispatcher close a batch?
//!
//! All three policies draw a batch from the *head* of the admission queue —
//! a contiguous run of streams for the same machine (a batch runs one
//! machine's table, so a machine change always closes it), capped by the
//! staging-buffer byte budget and the queue depth. They differ only in how
//! long they are willing to wait for more streams:
//!
//! * [`BatchPolicy::Fifo`] — close at a fixed stream count (or when the run
//!   ends). Simple, predictable, indifferent to latency.
//! * [`BatchPolicy::Deadline`] — like FIFO, but never keeps the oldest
//!   admitted stream waiting more than `max_wait` cycles: a partial batch
//!   ships when its deadline expires. Bounds queueing latency under trickle
//!   arrivals.
//! * [`BatchPolicy::Adaptive`] — occupancy-aware and work-conserving: the
//!   target size is however many one-thread-per-stream scans fill the
//!   device (block width × resident blocks × SMs, capped at `max_batch`),
//!   but if the device would go idle waiting for the next arrival the batch
//!   closes early. Chases device utilization without ever trading it for
//!   dead air.

/// Scheduling class of a machine's batches under preemptive serving
/// ([`crate::ServeConfig::preempt`]).
///
/// Classes are per *machine* because batches are: a batch runs one
/// machine's table, so a machine's class is its batches' class. Bulk is
/// the default and preserves historical behaviour exactly; a deadline
/// machine's batches may preempt an in-flight bulk kernel at its next
/// wave boundary instead of queueing behind it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PriorityClass {
    /// Throughput traffic: runs in dispatch order, preemptible at wave
    /// boundaries.
    #[default]
    Bulk,
    /// Latency-critical traffic: may preempt an in-flight bulk kernel at
    /// its next wave boundary. Never preempted itself.
    Deadline,
}

impl PriorityClass {
    /// Stable snake_case name for reports.
    pub fn name(self) -> &'static str {
        match self {
            PriorityClass::Bulk => "bulk",
            PriorityClass::Deadline => "deadline",
        }
    }
}

/// When the dispatcher stops batching and ships what it has.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchPolicy {
    /// Fixed-size batches of up to `batch` streams.
    Fifo {
        /// Streams per batch.
        batch: usize,
    },
    /// Fixed-size batches with a queueing-latency cap: the batch closes at
    /// `batch` streams or when the oldest admitted stream has waited
    /// `max_wait` cycles, whichever comes first.
    Deadline {
        /// Streams per batch.
        batch: usize,
        /// Max cycles the oldest stream may wait for the batch to fill.
        max_wait: u64,
    },
    /// Occupancy-target batches that never let the device idle: aim for
    /// enough streams to fill every SM, but ship early when the next
    /// arrival is further out than the device's backlog.
    Adaptive {
        /// Hard cap on streams per batch (the occupancy target is clamped
        /// to this).
        max_batch: usize,
    },
}

/// Which [`BatchPolicy`] a run was served under, without its parameters —
/// what a [`crate::ServeReport`] records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolicyKind {
    /// [`BatchPolicy::Fifo`].
    Fifo,
    /// [`BatchPolicy::Deadline`].
    Deadline,
    /// [`BatchPolicy::Adaptive`].
    Adaptive,
}

impl PolicyKind {
    /// Stable snake_case name for reports.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Fifo => "fifo",
            PolicyKind::Deadline => "deadline",
            PolicyKind::Adaptive => "adaptive",
        }
    }
}

impl BatchPolicy {
    /// The policy's kind.
    pub fn kind(&self) -> PolicyKind {
        match self {
            BatchPolicy::Fifo { .. } => PolicyKind::Fifo,
            BatchPolicy::Deadline { .. } => PolicyKind::Deadline,
            BatchPolicy::Adaptive { .. } => PolicyKind::Adaptive,
        }
    }

    /// Stable snake_case name for reports.
    pub fn name(&self) -> &'static str {
        self.kind().name()
    }

    /// The policy's hard cap on streams per batch.
    pub fn max_streams(&self) -> usize {
        match *self {
            BatchPolicy::Fifo { batch } => batch,
            BatchPolicy::Deadline { batch, .. } => batch,
            BatchPolicy::Adaptive { max_batch } => max_batch,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_caps() {
        assert_eq!(BatchPolicy::Fifo { batch: 8 }.name(), "fifo");
        assert_eq!(BatchPolicy::Deadline { batch: 8, max_wait: 100 }.name(), "deadline");
        assert_eq!(BatchPolicy::Adaptive { max_batch: 64 }.name(), "adaptive");
        assert_eq!(BatchPolicy::Fifo { batch: 8 }.max_streams(), 8);
        assert_eq!(BatchPolicy::Deadline { batch: 3, max_wait: 1 }.max_streams(), 3);
        assert_eq!(BatchPolicy::Adaptive { max_batch: 64 }.max_streams(), 64);
    }
}
