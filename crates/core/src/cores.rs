//! The process-wide core budget: who may fan work out, and onto how many
//! threads.
//!
//! A solver service runs one job per worker thread, and a job's backend may
//! fan out further (parallel annealing restarts, colored sweeps, race
//! participants). Without a shared ledger each fan-out sizes itself to the
//! whole machine, so a saturated service oversubscribes every core. This
//! module keeps one count for the process:
//!
//! - [`hardware_threads`] — the machine's hardware threads, read once;
//! - [`occupy`] — an RAII [`Occupancy`] marking the calling thread as
//!   running job work. It is re-entrant through a thread-local depth, so
//!   nested holders (a worker, then the pipeline it calls) count once;
//! - [`grant`] — a non-blocking [`Grant`] of up to `extra` *idle* cores for
//!   a fan-out, returned to the budget on drop (unwinding included).
//!
//! The budget decides only *how many* threads compute a result, never
//! *what* they compute: every consumer is bit-identical at any thread
//! count, so results do not depend on load.

use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Cores counted as running job work: occupied threads plus granted ones.
static BUSY: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Nesting depth of the [`Occupancy`] guards alive on this thread.
    static DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// Hardware threads available to the process, read once
/// ([`std::thread::available_parallelism`] reads cgroup files on Linux, so
/// it is too slow to ask per solve); 1 when the probe fails.
pub fn hardware_threads() -> usize {
    static HW: OnceLock<usize> = OnceLock::new();
    *HW.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Cores currently counted as busy (occupied threads plus outstanding
/// grants). May exceed [`hardware_threads`] when more threads hold work
/// than the machine has cores.
pub fn busy() -> usize {
    BUSY.load(Ordering::Relaxed)
}

/// Marks the calling thread as running job work until the guard drops.
/// Only the outermost guard on a thread counts a core; nested ones (and
/// threads entered through [`Grant::enter`]) only deepen the thread-local
/// depth.
pub fn occupy() -> Occupancy {
    let counted = DEPTH.with(|depth| {
        let outer = depth.get() == 0;
        depth.set(depth.get() + 1);
        outer
    });
    if counted {
        BUSY.fetch_add(1, Ordering::Relaxed);
    }
    Occupancy { counted, _thread_bound: PhantomData }
}

/// Reserves up to `extra` idle cores for a fan-out, without blocking: the
/// grant is `min(extra, hardware_threads() − busy())`, possibly 0. The
/// cores return to the budget when the [`Grant`] drops.
pub fn grant(extra: usize) -> Grant {
    let hw = hardware_threads();
    let mut granted = 0;
    if extra > 0 {
        let _ = BUSY.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |busy| {
            granted = extra.min(hw.saturating_sub(busy));
            (granted > 0).then_some(busy + granted)
        });
    }
    Grant { granted }
}

/// A thread's hold on the budget, from [`occupy`] or [`Grant::enter`].
/// Bound to its thread (the depth it maintains is thread-local).
#[must_use = "the core is released as soon as the guard drops"]
pub struct Occupancy {
    /// Whether this guard added the thread's core to the count.
    counted: bool,
    _thread_bound: PhantomData<*const ()>,
}

impl Drop for Occupancy {
    fn drop(&mut self) {
        DEPTH.with(|depth| depth.set(depth.get() - 1));
        if self.counted {
            BUSY.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// Idle cores reserved by [`grant`]; released on drop.
#[must_use = "the cores are released as soon as the grant drops"]
#[derive(Debug)]
pub struct Grant {
    granted: usize,
}

impl Grant {
    /// How many extra threads the holder may run beside its own.
    pub fn extra(&self) -> usize {
        self.granted
    }

    /// Marks the calling thread — one the grant's holder spawned — as
    /// running job work on a core this grant already counts, so fan-outs
    /// nested inside it see the core as busy without counting it twice.
    pub fn enter(&self) -> Occupancy {
        DEPTH.with(|depth| depth.set(depth.get() + 1));
        Occupancy { counted: false, _thread_bound: PhantomData }
    }
}

impl Drop for Grant {
    fn drop(&mut self) {
        if self.granted > 0 {
            BUSY.fetch_sub(self.granted, Ordering::Relaxed);
        }
    }
}
