//! Per-request work meters: a [`Meter`] counts the work of the walks run
//! under it, so a long-running check is observable while it runs (the
//! server's `status` command, CLI `--progress`) and each request's figure
//! is its own.
//!
//! [`metered`] installs a meter on the calling thread while a closure
//! runs. An engine walk looks the installed meter up once, when it starts
//! (`bdrst_core::engine`'s budget), counts its work units locally and
//! publishes them with [`Meter::add`] in batches and when it ends. A
//! walk's unit is the one its budget charges: a DFS state, a DPOR
//! extension, a recorded row or a replayed extension. A walk that starts
//! on a thread with no meter installed publishes nothing, so the cost of
//! metering off is one thread-local read per walk, not per unit.
//!
//! A meter may carry a hook that sees a [`MeterReading`] each time its
//! total crosses a multiple of the hook's period; `bdrst --progress`
//! prints those readings.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What a [`Meter`]'s hook is shown: the meter's total and the budget of
/// the walk whose batch crossed the period.
#[derive(Clone, Copy, Debug)]
pub struct MeterReading {
    /// Work units counted by the meter so far, over every walk run under
    /// it.
    pub units: u64,
    /// Units charged so far by the walk that published.
    pub budget_used: u64,
    /// That walk's cap.
    pub budget_max: u64,
}

impl MeterReading {
    /// Fraction of the publishing walk's budget consumed, in `[0, 1]`; 0
    /// when the cap is 0.
    pub fn budget_fraction(&self) -> f64 {
        if self.budget_max == 0 {
            0.0
        } else {
            (self.budget_used as f64 / self.budget_max as f64).min(1.0)
        }
    }
}

/// A hook and the period, in units, at which it fires.
type Hook = (u64, Box<dyn Fn(&MeterReading) + Send + Sync>);

/// The work counter of one request (or one CLI run). Walks add to it
/// from the thread it is installed on; any thread may read it.
#[derive(Default)]
pub struct Meter {
    units: AtomicU64,
    hook: Option<Hook>,
}

impl Meter {
    /// A meter with no hook.
    pub fn new() -> Meter {
        Meter::default()
    }

    /// A meter that calls `hook` each time its total crosses a multiple
    /// of `every` units (at least 1). The hook runs on the publishing
    /// walk's thread, so it must be cheap.
    pub fn with_hook(every: u64, hook: impl Fn(&MeterReading) + Send + Sync + 'static) -> Meter {
        Meter {
            units: AtomicU64::new(0),
            hook: Some((every.max(1), Box::new(hook))),
        }
    }

    /// Work units counted so far.
    pub fn units(&self) -> u64 {
        // Relaxed: the count publishes no other data.
        self.units.load(Ordering::Relaxed)
    }

    /// Adds `units` published by a walk whose budget has charged
    /// `budget_used` of `budget_max`.
    pub fn add(&self, units: u64, budget_used: u64, budget_max: u64) {
        let before = self.units.fetch_add(units, Ordering::Relaxed);
        if let Some((every, hook)) = &self.hook {
            let after = before + units;
            if after / every > before / every {
                hook(&MeterReading {
                    units: after,
                    budget_used,
                    budget_max,
                });
            }
        }
    }
}

thread_local! {
    static CURRENT: RefCell<Option<Arc<Meter>>> = const { RefCell::new(None) };
}

/// Puts back the meter that was installed before [`metered`], on return
/// and on unwind.
struct Restore(Option<Arc<Meter>>);

impl Drop for Restore {
    fn drop(&mut self) {
        let previous = self.0.take();
        // `try_with` fails only while the thread is being torn down, when
        // there is nothing left to restore.
        let _ = CURRENT.try_with(|c| *c.borrow_mut() = previous);
    }
}

/// Runs `f` with `meter` installed on the calling thread: every walk `f`
/// starts on this thread publishes its work to `meter`. The previously
/// installed meter, if any, is restored when `f` returns or unwinds.
pub fn metered<T>(meter: &Arc<Meter>, f: impl FnOnce() -> T) -> T {
    let _restore = Restore(CURRENT.with(|c| c.replace(Some(Arc::clone(meter)))));
    f()
}

/// The meter installed on the calling thread, if any.
pub fn current_meter() -> Option<Arc<Meter>> {
    CURRENT.with(|c| c.borrow().clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn hook_fires_on_each_period_crossing() {
        let calls = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&calls);
        let meter = Meter::with_hook(10, move |_| {
            seen.fetch_add(1, Ordering::Relaxed);
        });
        for _ in 0..25 {
            meter.add(1, 0, 100);
        }
        assert_eq!(meter.units(), 25);
        assert_eq!(calls.load(Ordering::Relaxed), 2, "crossings at 10 and 20");
        meter.add(7, 0, 100);
        assert_eq!(calls.load(Ordering::Relaxed), 3, "one batch crossing 30");
        let r = MeterReading {
            units: 1,
            budget_used: 5,
            budget_max: 0,
        };
        assert_eq!(r.budget_fraction(), 0.0, "a zero cap reads as 0");
    }

    #[test]
    fn metered_nests_and_restores_on_return_and_unwind() {
        assert!(current_meter().is_none());
        let outer = Arc::new(Meter::new());
        let inner = Arc::new(Meter::new());
        metered(&outer, || {
            assert!(Arc::ptr_eq(&current_meter().unwrap(), &outer));
            metered(&inner, || {
                assert!(Arc::ptr_eq(&current_meter().unwrap(), &inner));
            });
            assert!(Arc::ptr_eq(&current_meter().unwrap(), &outer));
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                metered(&inner, || panic!("walk panicked"))
            }));
            assert!(unwound.is_err());
            assert!(Arc::ptr_eq(&current_meter().unwrap(), &outer));
            // Another thread sees no meter: installation is per thread.
            std::thread::scope(|s| {
                s.spawn(|| assert!(current_meter().is_none()))
                    .join()
                    .unwrap();
            });
        });
        assert!(current_meter().is_none());
    }
}
