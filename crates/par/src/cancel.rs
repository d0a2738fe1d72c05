//! Cooperative cancellation with optional deadlines.
//!
//! A [`CancelToken`] is the runtime's unit of *prompt job termination*:
//! long-running checkers (the simulation engine's P/G/L phases, the SAT
//! sweeper's per-pair conflict budgets) poll it at their natural
//! checkpoint boundaries and wind down with a partial — never incorrect —
//! verdict when it trips. Tokens are cheap to clone and share: a service
//! hands one token to every sub-job of a larger job, so one `cancel()`
//! (or an elapsed deadline) stops the whole fan-out.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug)]
struct Inner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
    /// A child token trips when any ancestor trips; cancelling the child
    /// never propagates upward.
    parent: Option<Arc<Inner>>,
}

impl Inner {
    fn is_cancelled(&self) -> bool {
        if self.cancelled.load(Ordering::Acquire) {
            return true;
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                // Latch the deadline so later polls skip the clock.
                self.cancelled.store(true, Ordering::Release);
                return true;
            }
        }
        match &self.parent {
            Some(p) if p.is_cancelled() => {
                // Latch the ancestor's state so later polls stop here.
                self.cancelled.store(true, Ordering::Release);
                true
            }
            _ => false,
        }
    }
}

/// A shareable cancellation token with an optional wall-clock deadline.
///
/// The token trips when [`CancelToken::cancel`] is called on any clone or
/// when its deadline (if set) passes. [`CancelToken::never`] produces a
/// token that can never trip and whose polling is branch-cheap, so
/// hot-path code can take a token unconditionally.
///
/// ```
/// use parsweep_par::CancelToken;
/// use std::time::Duration;
///
/// let never = CancelToken::never();
/// assert!(!never.is_cancelled());
///
/// let token = CancelToken::new();
/// let clone = token.clone();
/// token.cancel();
/// assert!(clone.is_cancelled());
///
/// let expired = CancelToken::with_deadline(Duration::ZERO);
/// assert!(expired.is_cancelled());
/// ```
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    inner: Option<Arc<Inner>>,
}

impl CancelToken {
    /// A token that never cancels (the default). Polling it is a single
    /// `Option` check, so APIs can take `&CancelToken` unconditionally.
    pub fn never() -> Self {
        CancelToken { inner: None }
    }

    /// A manually-cancellable token with no deadline.
    pub fn new() -> Self {
        CancelToken {
            inner: Some(Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: None,
                parent: None,
            })),
        }
    }

    /// A token that trips `timeout` from now (and is also manually
    /// cancellable).
    pub fn with_deadline(timeout: Duration) -> Self {
        Self::with_deadline_at(Instant::now() + timeout)
    }

    /// A token that trips at `deadline` (and is also manually
    /// cancellable).
    pub fn with_deadline_at(deadline: Instant) -> Self {
        CancelToken {
            inner: Some(Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: Some(deadline),
                parent: None,
            })),
        }
    }

    /// A *linked child* token: it trips when this token trips (including
    /// transitively through this token's own ancestors), or when the child
    /// itself is cancelled — but cancelling the child never affects the
    /// parent. This is the unit of *scoped* cancellation: a dispatcher
    /// racing several engines under one job token hands each lane a child,
    /// so the first verdict can cancel the losers without tripping the
    /// job, and a job-level cancel still stops every lane.
    ///
    /// A child of [`CancelToken::never`] is an ordinary standalone token.
    pub fn child(&self) -> Self {
        CancelToken {
            inner: Some(Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: None,
                parent: self.inner.clone(),
            })),
        }
    }

    /// Trips the token for every clone. A no-op on [`CancelToken::never`].
    pub fn cancel(&self) {
        if let Some(inner) = &self.inner {
            inner.cancelled.store(true, Ordering::Release);
        }
    }

    /// True once the token has been cancelled, its deadline has passed, or
    /// (for linked children) an ancestor has tripped.
    pub fn is_cancelled(&self) -> bool {
        match &self.inner {
            None => false,
            Some(inner) => inner.is_cancelled(),
        }
    }

    /// The remaining time before the deadline, if one was set and has not
    /// yet passed (`None` for deadline-free or already-expired tokens).
    pub fn remaining(&self) -> Option<Duration> {
        let inner = self.inner.as_ref()?;
        let deadline = inner.deadline?;
        deadline.checked_duration_since(Instant::now())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_token_never_cancels() {
        let t = CancelToken::never();
        t.cancel();
        assert!(!t.is_cancelled());
        assert_eq!(t.remaining(), None);
    }

    #[test]
    fn cancel_is_visible_to_clones() {
        let t = CancelToken::new();
        let c = t.clone();
        assert!(!c.is_cancelled());
        t.cancel();
        assert!(c.is_cancelled());
    }

    #[test]
    fn deadline_trips_and_latches() {
        let t = CancelToken::with_deadline(Duration::from_millis(0));
        assert!(t.is_cancelled());
        assert!(t.is_cancelled(), "latched after first observation");
        assert_eq!(t.remaining(), None);
    }

    #[test]
    fn future_deadline_reports_remaining() {
        let t = CancelToken::with_deadline(Duration::from_secs(3600));
        assert!(!t.is_cancelled());
        assert!(t.remaining().unwrap() > Duration::from_secs(3000));
    }

    #[test]
    fn default_is_never() {
        assert!(!CancelToken::default().is_cancelled());
    }

    #[test]
    fn child_trips_with_parent() {
        let parent = CancelToken::new();
        let child = parent.child();
        assert!(!child.is_cancelled());
        parent.cancel();
        assert!(child.is_cancelled());
        assert!(
            child.is_cancelled(),
            "ancestor state latches into the child"
        );
    }

    #[test]
    fn child_cancel_does_not_propagate_up() {
        let parent = CancelToken::new();
        let child = parent.child();
        let sibling = parent.child();
        child.cancel();
        assert!(child.is_cancelled());
        assert!(!parent.is_cancelled(), "parent unaffected by child cancel");
        assert!(!sibling.is_cancelled(), "siblings unaffected too");
    }

    #[test]
    fn grandchild_sees_grandparent_cancel() {
        let job = CancelToken::new();
        let race = job.child();
        let lane = race.child();
        job.cancel();
        assert!(lane.is_cancelled());
    }

    #[test]
    fn child_of_never_is_standalone() {
        let child = CancelToken::never().child();
        assert!(!child.is_cancelled());
        child.cancel();
        assert!(child.is_cancelled());
    }
}
