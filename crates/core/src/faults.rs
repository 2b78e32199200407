//! Test-only fault-injection harness.
//!
//! A [`FaultPlan`] injects a panic, a typed [`CoreError::Injected`], or a
//! delay at the Nth call of a named pipeline phase (`compile`, `link`,
//! `measure-spec`, `alloc`, `analyze`) so the fault-tolerance
//! layer can be proven under fire: every injected fault must surface as a
//! contained `Failed` point (never a process abort), and a sweep killed by
//! one must be recoverable via checkpoint resume.
//!
//! The harness is compiled into every build and stays inert until
//! [`arm`] runs: unarmed, a hook in [`crate::pipeline`] costs one atomic
//! load per phase entry. Only tests arm it, which is what makes the plan
//! "test-only".
//!
//! ```no_run
//! use spmlab::faults::{arm, FaultAction, FaultPlan};
//!
//! // Fail the second measured point of a sweep with a typed error.
//! let guard = arm(FaultPlan::new("measure-spec", 2, FaultAction::Error));
//! // ... run the sweep; exactly one point comes back Failed ...
//! assert!(guard.fired());
//! ```

use crate::CoreError;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// What to do when the armed phase call is reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// `panic!` mid-phase — exercises the `catch_unwind` containment.
    Panic,
    /// Return [`CoreError::Injected`] — exercises typed-error containment.
    Error,
    /// Sleep for the given duration, then continue normally — exercises
    /// slow-point behavior without failing the point.
    Delay(Duration),
}

/// One planned fault: fire `action` at the `nth` call (1-based) of the
/// pipeline phase named `phase`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Phase name as instrumented in [`crate::pipeline`]: one of
    /// `compile`, `link`, `measure-spec`, `alloc`, `analyze`. The `link`
    /// phase counts both the baseline link (call #1, during
    /// `Pipeline::new`) and each memoised scratchpad link after it.
    pub phase: &'static str,
    /// 1-based call index within the armed window; calls of other phases
    /// do not advance the count.
    pub nth: usize,
    /// The fault to inject.
    pub action: FaultAction,
}

impl FaultPlan {
    /// Convenience constructor.
    pub fn new(phase: &'static str, nth: usize, action: FaultAction) -> FaultPlan {
        FaultPlan { phase, nth, action }
    }
}

/// Fast-path flag: `fault_point` is called on every phase entry, so the
/// unarmed case must not take a lock.
static ANY_ARMED: AtomicBool = AtomicBool::new(false);

/// The armed plan plus its progress. One plan at a time; [`arm`]
/// serializes concurrent tests through `HARNESS`.
static STATE: Mutex<Option<Progress>> = Mutex::new(None);

/// Serializes tests that arm faults (the plan is process-global).
static HARNESS: Mutex<()> = Mutex::new(());

struct Progress {
    plan: FaultPlan,
    seen: usize,
    fired: bool,
}

/// Keeps the plan armed; disarms on drop. Holds a process-global lock so
/// concurrently running tests cannot see each other's faults.
#[must_use = "the plan disarms when the guard drops"]
pub struct FaultGuard {
    _serial: MutexGuard<'static, ()>,
}

impl FaultGuard {
    /// Whether the planned fault has fired yet.
    pub fn fired(&self) -> bool {
        let state = STATE.lock().unwrap_or_else(|p| p.into_inner());
        state.as_ref().is_some_and(|s| s.fired)
    }

    /// Replaces the armed plan (with fresh progress) while keeping the
    /// harness lock, so one guard can cover a test's set-up — e.g.
    /// `Pipeline::new`, which passes the `compile` and `link` phases —
    /// and the faulted run after it.
    pub fn rearm(&self, plan: FaultPlan) {
        *STATE.lock().unwrap_or_else(|p| p.into_inner()) = Some(Progress {
            plan,
            seen: 0,
            fired: false,
        });
    }
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        *STATE.lock().unwrap_or_else(|p| p.into_inner()) = None;
        ANY_ARMED.store(false, Ordering::SeqCst);
    }
}

/// Arms `plan` until the returned guard drops.
pub fn arm(plan: FaultPlan) -> FaultGuard {
    // A panicking test may poison either lock; the state is
    // self-contained, so poisoning is harmless.
    let serial = HARNESS.lock().unwrap_or_else(|p| p.into_inner());
    *STATE.lock().unwrap_or_else(|p| p.into_inner()) = Some(Progress {
        plan,
        seen: 0,
        fired: false,
    });
    ANY_ARMED.store(true, Ordering::SeqCst);
    FaultGuard { _serial: serial }
}

/// Pipeline hook: called at the entry of each instrumented phase. Unarmed,
/// it returns after one atomic load.
pub(crate) fn fault_point(phase: &str) -> Result<(), CoreError> {
    if !ANY_ARMED.load(Ordering::SeqCst) {
        return Ok(());
    }
    let mut state = STATE.lock().unwrap_or_else(|p| p.into_inner());
    let Some(progress) = state.as_mut() else {
        return Ok(());
    };
    if progress.fired || progress.plan.phase != phase {
        return Ok(());
    }
    progress.seen += 1;
    if progress.seen != progress.plan.nth {
        return Ok(());
    }
    progress.fired = true;
    let plan = progress.plan;
    drop(state);
    match plan.action {
        FaultAction::Panic => panic!(
            "injected panic at phase `{}` call #{}",
            plan.phase, plan.nth
        ),
        FaultAction::Error => Err(CoreError::Injected(format!(
            "phase `{}` call #{}",
            plan.phase, plan.nth
        ))),
        FaultAction::Delay(d) => {
            std::thread::sleep(d);
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_only_the_named_phase_and_fires_once() {
        let guard = arm(FaultPlan::new("analyze", 2, FaultAction::Error));
        assert!(fault_point("compile").is_ok(), "other phases don't count");
        assert!(fault_point("analyze").is_ok(), "first call survives");
        assert!(!guard.fired());
        let err = fault_point("analyze").unwrap_err();
        assert!(matches!(err, CoreError::Injected(_)), "{err}");
        assert!(guard.fired());
        assert!(fault_point("analyze").is_ok(), "a plan fires exactly once");
    }

    #[test]
    fn rearm_replaces_the_plan_under_one_guard() {
        let guard = arm(FaultPlan::new("no-such-phase", 1, FaultAction::Error));
        assert!(fault_point("compile").is_ok(), "set-up runs unfaulted");
        guard.rearm(FaultPlan::new("compile", 1, FaultAction::Error));
        assert!(fault_point("compile").is_err(), "the new plan fires");
        assert!(guard.fired());
    }

    #[test]
    fn disarms_on_drop() {
        {
            let _guard = arm(FaultPlan::new("compile", 1, FaultAction::Error));
        }
        assert!(fault_point("compile").is_ok(), "dropped guard disarms");
    }
}
