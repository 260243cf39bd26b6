//! Engine-wide resource governance: budgets, deadlines, and cooperative
//! cancellation for every long-running kernel in the workspace.
//!
//! One governance surface is shared by *all* solvers —
//! the semi-naive Datalog engine, the `L^k` fixpoint materializer, the
//! existential pebble-game arenas, the max-flow homeomorphism solver, and
//! the Theorem 6.6 reduction builders:
//!
//! - a [`Budget`] bounds countable work (tuples interned, game positions
//!   generated, fixpoint stages, abstract solver steps, bytes of arena
//!   growth);
//! - a [`Deadline`] bounds wall-clock time, checked amortized (one
//!   monotonic-clock read per [`CHECK_STRIDE`] steps) so hot loops stay
//!   fast;
//! - a [`CancelToken`] is an atomic, cloneable flag polled cooperatively
//!   by every worklist and fixpoint loop, including the parallel workers
//!   driven by [`crate::par`].
//!
//! All three interrupt sources are unified under one error,
//! [`Interrupted`], and one shared handle, the [`Governor`]. A `Governor`
//! is `Sync`: parallel workers share it by reference and charge work
//! through worker-local [`Meter`]s that flush in batches, so the hot-path
//! cost is one local increment and branch per unit of work.
//!
//! **Resumability contract.** Every governed solver entry point
//! (`try_*`) returns, on interrupt, a checkpoint capturing the last
//! *committed* boundary of its computation (a completed Datalog stage, a
//! completed fixpoint iteration, a consistent arena worklist state).
//! Resuming a checkpoint — with a fresh or relaxed governor — continues
//! the run and produces a result identical to an uninterrupted run,
//! tuple-id by tuple-id. Budget counters live in the `Governor` instance,
//! so resuming with the *same* exhausted governor re-trips immediately;
//! pass a new one to make progress. The [`chaos`] submodule provides the
//! deterministic fault-injection schedules the test suite uses to verify
//! this contract across all solvers.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many steps pass between amortized deadline/cancellation checks
/// inside [`Governor::step`].
pub const CHECK_STRIDE: u64 = 1024;

/// A governed computation was interrupted before completion.
///
/// Interruption is *graceful*: governed solvers never panic on
/// interruption and return a resumable checkpoint alongside this reason.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interrupted {
    /// A [`Budget`] counter was exhausted.
    Limit(LimitExceeded),
    /// The [`Deadline`] passed.
    Deadline,
    /// The [`CancelToken`] was cancelled.
    Cancelled,
}

impl fmt::Display for Interrupted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Interrupted::Limit(l) => write!(f, "interrupted: {l}"),
            Interrupted::Deadline => write!(f, "interrupted: deadline expired"),
            Interrupted::Cancelled => write!(f, "interrupted: cancelled"),
        }
    }
}

impl std::error::Error for Interrupted {}

impl From<LimitExceeded> for Interrupted {
    fn from(l: LimitExceeded) -> Self {
        Interrupted::Limit(l)
    }
}

/// Budgets for countable work. `None` means unlimited.
///
/// The counters are deliberately engine-agnostic: the Datalog evaluator
/// charges tuples and stages, the game arenas charge positions and bytes,
/// and everything charges abstract `steps` (join probes, worklist pops,
/// search-tree nodes), so a single step budget bounds any solver.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Budget {
    /// Maximum tuples interned into result stores.
    pub max_tuples: Option<u64>,
    /// Maximum fixpoint stages / iterations.
    pub max_stages: Option<u64>,
    /// Maximum game positions (configurations) generated.
    pub max_positions: Option<u64>,
    /// Maximum abstract solver steps (probes, pops, expansions).
    pub max_steps: Option<u64>,
    /// Maximum bytes of solver-owned storage growth (approximate).
    pub max_bytes: Option<u64>,
}

impl Budget {
    /// No budget at all.
    pub const UNLIMITED: Budget = Budget {
        max_tuples: None,
        max_stages: None,
        max_positions: None,
        max_steps: None,
        max_bytes: None,
    };

    /// A budget bounding only abstract steps.
    pub fn steps(max_steps: u64) -> Self {
        Budget {
            max_steps: Some(max_steps),
            ..Budget::UNLIMITED
        }
    }

    /// A budget bounding only generated game positions.
    pub fn positions(max_positions: u64) -> Self {
        Budget {
            max_positions: Some(max_positions),
            ..Budget::UNLIMITED
        }
    }
}

/// A [`Budget`] counter was exhausted: the payload of
/// [`Interrupted::Limit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LimitExceeded {
    /// The tuple budget was exceeded.
    Tuples {
        /// The configured budget.
        limit: u64,
        /// How many tuples had been interned when evaluation stopped.
        reached: u64,
    },
    /// The stage budget was exceeded.
    Stages {
        /// The configured budget.
        limit: u64,
    },
    /// The abstract step budget was exceeded.
    Steps {
        /// The configured budget.
        limit: u64,
    },
    /// The game-position budget was exceeded.
    Positions {
        /// The configured budget.
        limit: u64,
        /// How many positions had been generated when the solver stopped.
        reached: u64,
    },
    /// The byte budget was exceeded.
    Bytes {
        /// The configured budget.
        limit: u64,
        /// How many bytes had been charged when the solver stopped.
        reached: u64,
    },
}

impl fmt::Display for LimitExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LimitExceeded::Tuples { limit, reached } => {
                write!(
                    f,
                    "tuple budget exceeded: {reached} interned, limit {limit}"
                )
            }
            LimitExceeded::Stages { limit } => {
                write!(f, "stage budget exceeded: limit {limit}")
            }
            LimitExceeded::Steps { limit } => {
                write!(f, "step budget exceeded: limit {limit}")
            }
            LimitExceeded::Positions { limit, reached } => {
                write!(
                    f,
                    "position budget exceeded: {reached} generated, limit {limit}"
                )
            }
            LimitExceeded::Bytes { limit, reached } => {
                write!(f, "byte budget exceeded: {reached} charged, limit {limit}")
            }
        }
    }
}

impl std::error::Error for LimitExceeded {}

/// An optional monotonic wall-clock deadline.
#[derive(Debug, Clone, Copy, Default)]
pub struct Deadline(Option<Instant>);

impl Deadline {
    /// No deadline.
    pub const NONE: Deadline = Deadline(None);

    /// A deadline `d` from now.
    pub fn within(d: Duration) -> Self {
        Deadline(Some(Instant::now() + d))
    }

    /// A deadline at the given instant.
    pub fn at(t: Instant) -> Self {
        Deadline(Some(t))
    }

    /// Whether a deadline is set at all.
    pub fn is_some(&self) -> bool {
        self.0.is_some()
    }

    /// Whether the deadline has passed. Reads the monotonic clock, so
    /// callers amortize this behind a step stride.
    pub fn expired(&self) -> bool {
        match self.0 {
            None => false,
            Some(t) => Instant::now() >= t,
        }
    }
}

#[derive(Debug, Default)]
struct CancelInner {
    cancelled: AtomicBool,
    /// Poll count at which the token self-cancels (`u64::MAX` = never).
    /// This is the deterministic fault-injection hook used by [`chaos`].
    trip_after: AtomicU64,
    polls: AtomicU64,
}

/// A cloneable, thread-safe cancellation flag.
///
/// Cancellation is *cooperative*: solvers poll the token at their loop
/// heads (amortized through [`Governor::step`]) and return a resumable
/// checkpoint when it trips. Cloning shares the underlying flag.
#[derive(Debug, Clone)]
pub struct CancelToken(Arc<CancelInner>);

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        let inner = CancelInner {
            cancelled: AtomicBool::new(false),
            trip_after: AtomicU64::new(u64::MAX),
            polls: AtomicU64::new(0),
        };
        CancelToken(Arc::new(inner))
    }

    /// Requests cancellation. Idempotent; visible to all clones.
    pub fn cancel(&self) {
        self.0.cancelled.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested (a plain atomic load —
    /// does not count as a poll).
    pub fn is_cancelled(&self) -> bool {
        self.0.cancelled.load(Ordering::Acquire)
    }

    /// Fault-injection hook: make the token cancel itself once it has
    /// been polled `n` more times. Deterministic for single-threaded
    /// solvers, which is what the chaos suite runs.
    pub fn cancel_after_polls(&self, n: u64) {
        let base = self.0.polls.load(Ordering::Relaxed);
        self.0
            .trip_after
            .store(base.saturating_add(n), Ordering::Relaxed);
    }

    /// Cooperative poll: counts the poll, trips a pending
    /// [`cancel_after_polls`](Self::cancel_after_polls) schedule, and
    /// reports whether the token is cancelled.
    pub fn poll(&self) -> bool {
        let polls = self.0.polls.fetch_add(1, Ordering::Relaxed) + 1;
        if polls >= self.0.trip_after.load(Ordering::Relaxed) {
            self.cancel();
        }
        self.is_cancelled()
    }
}

/// The shared governance handle every governed solver takes by reference.
///
/// A `Governor` owns the budget counters (atomics, so it is `Sync` and one
/// instance can be shared across parallel workers), the deadline, and the
/// cancellation token. Work is charged through [`step`](Self::step) /
/// [`charge_tuples`](Self::charge_tuples) / … ; each charge returns
/// `Err(Interrupted)` as soon as any governed bound is hit.
#[derive(Debug)]
pub struct Governor {
    budget: Budget,
    deadline: Deadline,
    cancel: CancelToken,
    steps: AtomicU64,
    tuples: AtomicU64,
    positions: AtomicU64,
    stages: AtomicU64,
    bytes: AtomicU64,
}

impl Default for Governor {
    fn default() -> Self {
        Self::unlimited()
    }
}

/// A point-in-time snapshot of a governor's charged-work counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GovernorUsage {
    /// Abstract steps charged.
    pub steps: u64,
    /// Tuples charged.
    pub tuples: u64,
    /// Game positions charged.
    pub positions: u64,
    /// Stages charged.
    pub stages: u64,
    /// Bytes charged.
    pub bytes: u64,
}

impl Governor {
    /// A governor with no budget, no deadline, and a fresh token — the
    /// plain entry points run under this, so governed and ungoverned
    /// paths share one code path.
    pub fn unlimited() -> Self {
        Self::new(Budget::UNLIMITED, Deadline::NONE, CancelToken::new())
    }

    /// A governor enforcing the given budget (no deadline, fresh token).
    pub fn with_budget(budget: Budget) -> Self {
        Self::new(budget, Deadline::NONE, CancelToken::new())
    }

    /// A governor from all three interrupt sources.
    pub fn new(budget: Budget, deadline: Deadline, cancel: CancelToken) -> Self {
        Governor {
            budget,
            deadline,
            cancel,
            steps: AtomicU64::new(0),
            tuples: AtomicU64::new(0),
            positions: AtomicU64::new(0),
            stages: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    /// The configured budget.
    pub fn budget(&self) -> Budget {
        self.budget
    }

    /// The cancellation token (clone it to hand to another thread).
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// Whether this governor can never interrupt (no budget, no deadline,
    /// token not cancelled). Lets hot paths skip bookkeeping entirely.
    pub fn is_unlimited(&self) -> bool {
        self.budget == Budget::UNLIMITED && !self.deadline.is_some() && !self.cancel.is_cancelled()
    }

    /// Snapshot of charged work so far.
    pub fn usage(&self) -> GovernorUsage {
        GovernorUsage {
            steps: self.steps.load(Ordering::Relaxed),
            tuples: self.tuples.load(Ordering::Relaxed),
            positions: self.positions.load(Ordering::Relaxed),
            stages: self.stages.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
        }
    }

    /// Full check: polls the cancellation token, reads the clock, and
    /// re-validates every budget counter. Solvers call this at coarse
    /// boundaries (stage starts, phase transitions); the amortized
    /// [`step`](Self::step) covers the inner loops.
    pub fn check(&self) -> Result<(), Interrupted> {
        if self.cancel.poll() {
            return Err(Interrupted::Cancelled);
        }
        if self.deadline.expired() {
            return Err(Interrupted::Deadline);
        }
        if let Some(max) = self.budget.max_steps {
            let used = self.steps.load(Ordering::Relaxed);
            if used > max {
                return Err(LimitExceeded::Steps { limit: max }.into());
            }
        }
        if let Some(max) = self.budget.max_tuples {
            let used = self.tuples.load(Ordering::Relaxed);
            if used > max {
                return Err(LimitExceeded::Tuples {
                    limit: max,
                    reached: used,
                }
                .into());
            }
        }
        if let Some(max) = self.budget.max_positions {
            let used = self.positions.load(Ordering::Relaxed);
            if used > max {
                return Err(LimitExceeded::Positions {
                    limit: max,
                    reached: used,
                }
                .into());
            }
        }
        if let Some(max) = self.budget.max_bytes {
            let used = self.bytes.load(Ordering::Relaxed);
            if used > max {
                return Err(LimitExceeded::Bytes {
                    limit: max,
                    reached: used,
                }
                .into());
            }
        }
        Ok(())
    }

    /// Charges `n` abstract steps. Checks the step budget on every call;
    /// polls cancellation and the deadline only when the cumulative step
    /// count crosses a [`CHECK_STRIDE`] boundary, so per-unit cost stays
    /// at one atomic add.
    pub fn step(&self, n: u64) -> Result<(), Interrupted> {
        let before = self.steps.fetch_add(n, Ordering::Relaxed);
        let after = before + n;
        if let Some(max) = self.budget.max_steps {
            if after > max {
                return Err(LimitExceeded::Steps { limit: max }.into());
            }
        }
        if before / CHECK_STRIDE != after / CHECK_STRIDE {
            if self.cancel.poll() {
                return Err(Interrupted::Cancelled);
            }
            if self.deadline.expired() {
                return Err(Interrupted::Deadline);
            }
        }
        Ok(())
    }

    /// Charges `n` interned tuples against the tuple budget.
    pub fn charge_tuples(&self, n: u64) -> Result<(), Interrupted> {
        let after = self.tuples.fetch_add(n, Ordering::Relaxed) + n;
        if let Some(max) = self.budget.max_tuples {
            if after > max {
                return Err(LimitExceeded::Tuples {
                    limit: max,
                    reached: after,
                }
                .into());
            }
        }
        Ok(())
    }

    /// Charges `n` generated game positions against the position budget.
    pub fn charge_positions(&self, n: u64) -> Result<(), Interrupted> {
        let after = self.positions.fetch_add(n, Ordering::Relaxed) + n;
        if let Some(max) = self.budget.max_positions {
            if after > max {
                return Err(LimitExceeded::Positions {
                    limit: max,
                    reached: after,
                }
                .into());
            }
        }
        Ok(())
    }

    /// Charges one stage / fixpoint iteration. Errs when the stage count
    /// would exceed the budget, i.e. *before* the over-budget stage runs.
    pub fn charge_stage(&self) -> Result<(), Interrupted> {
        let after = self.stages.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(max) = self.budget.max_stages {
            if after > max {
                return Err(LimitExceeded::Stages { limit: max }.into());
            }
        }
        Ok(())
    }

    /// Charges `n` bytes of storage growth against the byte budget.
    pub fn charge_bytes(&self, n: u64) -> Result<(), Interrupted> {
        let after = self.bytes.fetch_add(n, Ordering::Relaxed) + n;
        if let Some(max) = self.budget.max_bytes {
            if after > max {
                return Err(LimitExceeded::Bytes {
                    limit: max,
                    reached: after,
                }
                .into());
            }
        }
        Ok(())
    }

    /// A worker-local batching meter over this governor. Parallel workers
    /// each own one so the shared atomics are touched once per
    /// [`Meter::STRIDE`] units instead of once per unit.
    pub fn meter(&self) -> Meter<'_> {
        Meter {
            gov: self,
            local: 0,
        }
    }
}

/// A worker-local step counter that flushes to its [`Governor`] in
/// batches. The hot-path cost of [`tick`](Self::tick) is one local
/// increment and one predictable branch.
#[derive(Debug)]
pub struct Meter<'g> {
    gov: &'g Governor,
    local: u64,
}

impl Meter<'_> {
    /// Steps per flush.
    pub const STRIDE: u64 = 64;

    /// Charges one step, flushing to the governor every
    /// [`STRIDE`](Self::STRIDE) ticks.
    #[inline]
    pub fn tick(&mut self) -> Result<(), Interrupted> {
        self.local += 1;
        if self.local >= Self::STRIDE {
            self.flush()?;
        }
        Ok(())
    }

    /// Flushes any locally accumulated steps to the governor. Call at
    /// batch boundaries so trailing ticks are not lost.
    pub fn flush(&mut self) -> Result<(), Interrupted> {
        if self.local > 0 {
            let n = self.local;
            self.local = 0;
            self.gov.step(n)?;
        }
        Ok(())
    }
}

pub mod chaos {
    //! Deterministic fault-injection schedules for the chaos test suite.
    //!
    //! The harness derives, from one [`SplitMix64`] seed, a reproducible
    //! set of *injection points* — step budgets, cancel-after-N-polls
    //! schedules, and already-expired deadlines — and the test suite runs
    //! every governed solver under each, asserting the three chaos
    //! invariants: no panic, `resume(interrupt(x)) ≡ run(x)` (tuple-id by
    //! tuple-id / verdict by verdict), and monotone [`crate::EvalStats`]
    //! counters across checkpoints.

    use super::{Budget, CancelToken, Deadline, Governor};
    use crate::rng::SplitMix64;
    use std::time::Duration;

    /// `count` pseudo-random trip points in `[1, span]`, derived from
    /// `seed`. Deterministic across runs and platforms.
    pub fn trip_schedule(seed: u64, count: usize, span: u64) -> Vec<u64> {
        let mut rng = SplitMix64::seed_from_u64(seed);
        (0..count)
            .map(|_| 1 + rng.next_u64() % span.max(1))
            .collect()
    }

    /// A governor that trips its step budget after `max_steps` steps.
    pub fn step_tripper(max_steps: u64) -> Governor {
        Governor::with_budget(Budget::steps(max_steps))
    }

    /// A governor whose token self-cancels after `polls` cooperative
    /// polls.
    pub fn cancel_tripper(polls: u64) -> Governor {
        let token = CancelToken::new();
        token.cancel_after_polls(polls);
        Governor::new(Budget::UNLIMITED, Deadline::NONE, token)
    }

    /// A governor whose deadline has already expired: the first amortized
    /// deadline check interrupts.
    pub fn expired_deadline() -> Governor {
        Governor::new(
            Budget::UNLIMITED,
            Deadline::within(Duration::ZERO),
            CancelToken::new(),
        )
    }

    /// One seeded injection point: a label (for test diagnostics) plus a
    /// governor arming exactly one interrupt source.
    pub fn injection(seed: u64, index: usize, span: u64) -> (String, Governor) {
        let mut rng = SplitMix64::seed_from_u64(seed.wrapping_add(index as u64));
        let point = 1 + rng.next_u64() % span.max(1);
        match rng.next_u64() % 3 {
            0 => (format!("steps<={point}"), step_tripper(point)),
            1 => (format!("cancel@{point}"), cancel_tripper(point)),
            _ => ("deadline-expired".to_string(), expired_deadline()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn limits_display() {
        let t = LimitExceeded::Tuples {
            limit: 10,
            reached: 12,
        };
        assert!(t.to_string().contains("limit 10"));
        let s = LimitExceeded::Stages { limit: 3 };
        assert!(s.to_string().contains("stage"));
    }

    #[test]
    fn unlimited_never_interrupts() {
        let g = Governor::unlimited();
        assert!(g.is_unlimited());
        for _ in 0..10_000 {
            g.step(1).unwrap();
        }
        g.charge_tuples(1 << 40).unwrap();
        g.charge_stage().unwrap();
        g.check().unwrap();
    }

    #[test]
    fn step_budget_trips_at_boundary() {
        let g = Governor::with_budget(Budget::steps(10));
        for _ in 0..10 {
            g.step(1).unwrap();
        }
        let err = g.step(1).unwrap_err();
        assert_eq!(err, Interrupted::Limit(LimitExceeded::Steps { limit: 10 }));
    }

    #[test]
    fn tuple_budget_reports_reached() {
        let g = Governor::with_budget(Budget {
            max_tuples: Some(5),
            ..Budget::UNLIMITED
        });
        g.charge_tuples(5).unwrap();
        match g.charge_tuples(3).unwrap_err() {
            Interrupted::Limit(LimitExceeded::Tuples { limit, reached }) => {
                assert_eq!((limit, reached), (5, 8));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn stage_budget_allows_exactly_max() {
        let g = Governor::with_budget(Budget {
            max_stages: Some(3),
            ..Budget::UNLIMITED
        });
        for _ in 0..3 {
            g.charge_stage().unwrap();
        }
        assert!(g.charge_stage().is_err());
    }

    #[test]
    fn cancellation_is_cooperative_and_shared() {
        let token = CancelToken::new();
        let clone = token.clone();
        let g = Governor::new(Budget::UNLIMITED, Deadline::NONE, token);
        g.check().unwrap();
        clone.cancel();
        assert_eq!(g.check().unwrap_err(), Interrupted::Cancelled);
        // Amortized: a stride-crossing step sees it too.
        let err = g.step(CHECK_STRIDE + 1).unwrap_err();
        assert_eq!(err, Interrupted::Cancelled);
    }

    #[test]
    fn cancel_after_polls_trips_deterministically() {
        let g = chaos::cancel_tripper(3);
        g.check().unwrap(); // poll 1
        g.check().unwrap(); // poll 2
        assert_eq!(g.check().unwrap_err(), Interrupted::Cancelled); // poll 3
    }

    #[test]
    fn expired_deadline_interrupts_first_check() {
        let g = chaos::expired_deadline();
        assert_eq!(g.check().unwrap_err(), Interrupted::Deadline);
    }

    #[test]
    fn meter_batches_and_flushes() {
        let g = Governor::with_budget(Budget::steps(Meter::STRIDE));
        let mut m = g.meter();
        for _ in 0..Meter::STRIDE {
            m.tick().unwrap();
        }
        assert_eq!(g.usage().steps, Meter::STRIDE);
        let mut m2 = g.meter();
        m2.tick().unwrap(); // local only
        assert_eq!(g.usage().steps, Meter::STRIDE);
        assert!(m2.flush().is_err(), "flush crosses the budget");
    }

    #[test]
    fn trip_schedule_is_deterministic() {
        let a = chaos::trip_schedule(42, 8, 100);
        let b = chaos::trip_schedule(42, 8, 100);
        assert_eq!(a, b);
        assert!(a.iter().all(|&p| (1..=100).contains(&p)));
        let c = chaos::trip_schedule(43, 8, 100);
        assert_ne!(a, c, "different seeds give different schedules");
    }

    #[test]
    fn injection_mixes_interrupt_kinds() {
        let mut kinds = std::collections::HashSet::new();
        for i in 0..32 {
            let (label, _) = chaos::injection(7, i, 50);
            kinds.insert(
                label
                    .split(&['<', '@', '-'][..])
                    .next()
                    .unwrap()
                    .to_string(),
            );
        }
        assert!(kinds.len() >= 2, "expected a mix of kinds: {kinds:?}");
    }

    #[test]
    fn usage_snapshots_counters() {
        let g = Governor::unlimited();
        g.step(5).unwrap();
        g.charge_tuples(2).unwrap();
        g.charge_positions(3).unwrap();
        g.charge_bytes(7).unwrap();
        g.charge_stage().unwrap();
        let u = g.usage();
        assert_eq!(u.steps, 5);
        assert_eq!(u.tuples, 2);
        assert_eq!(u.positions, 3);
        assert_eq!(u.bytes, 7);
        assert_eq!(u.stages, 1);
    }

    #[test]
    fn interrupted_displays() {
        assert!(Interrupted::Deadline.to_string().contains("deadline"));
        assert!(Interrupted::Cancelled.to_string().contains("cancel"));
        let l = Interrupted::Limit(LimitExceeded::Steps { limit: 9 });
        assert!(l.to_string().contains("step"));
    }
}
