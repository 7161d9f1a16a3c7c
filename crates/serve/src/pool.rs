//! The connection-worker pool (DESIGN.md §3e).
//!
//! Like the paper's fabric, which forks onto an idle ring core and drops a
//! fork that finds none, the daemon never creates a thread per request: a
//! connection goes to an idle long-lived worker, a new worker is spawned
//! only when none is idle and fewer than [`MAX_CONNS`] are alive, and past
//! that cap the connection is refused (`busy`) rather than queued.
//!
//! The accept thread is the only caller of [`Pool::offer`]; a worker
//! parks in [`Pool::next`] between connections.

use crate::{Conn, ServeMetrics};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Most connection workers one daemon keeps alive, which is also the most
/// connections it serves at once. A connection beyond it is answered
/// `{"ok":false,"error":"busy"}` and closed.
pub const MAX_CONNS: usize = 64;

/// Where [`Pool::offer`] put a connection.
pub(crate) enum Offer {
    /// Queued for a parked worker, which has been woken.
    Queued,
    /// No worker is idle and the pool may grow: the caller spawns a worker
    /// to serve this connection (already counted live).
    Spawn(Conn),
    /// No worker is idle and the pool is at [`MAX_CONNS`].
    Busy(Conn),
}

pub(crate) struct Pool {
    state: Mutex<State>,
    wake: Condvar,
    metrics: Arc<ServeMetrics>,
}

#[derive(Default)]
struct State {
    /// Connections handed to parked workers, not yet picked up.
    queue: VecDeque<Conn>,
    /// Parked workers no queued connection is claimed for. Every
    /// [`Pool::next`] adds one and every hand-off takes one, so this is the
    /// number of parked workers minus `queue.len()`.
    idle: usize,
    /// Workers alive: spawned and not yet retired.
    live: usize,
    /// Set once by [`Pool::close`]; parked workers then exit.
    closed: bool,
}

impl Pool {
    pub(crate) fn new(metrics: Arc<ServeMetrics>) -> Pool {
        Pool {
            state: Mutex::default(),
            wake: Condvar::new(),
            metrics,
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        // Nothing panics while holding the lock, but a poisoned pool must
        // still drain on shutdown.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Publish `live` and `idle` (`spt_conn_workers`,
    /// `spt_conn_idle_workers`); called under the lock after each change.
    fn publish(&self, st: &State) {
        self.metrics.set_conn_workers(st.live, st.idle);
    }

    /// Give `conn` to an idle worker, or say whether to grow or refuse.
    pub(crate) fn offer(&self, conn: Conn) -> Offer {
        let mut st = self.lock();
        if st.idle > 0 {
            st.idle -= 1;
            self.publish(&st);
            st.queue.push_back(conn);
            drop(st);
            self.wake.notify_one();
            Offer::Queued
        } else if st.live < MAX_CONNS {
            st.live += 1;
            self.publish(&st);
            Offer::Spawn(conn)
        } else {
            Offer::Busy(conn)
        }
    }

    /// Close the calling worker's `finished` connection and park until
    /// another is handed to it. `None` once the pool is closed and no
    /// connection is queued: the worker must then [`Pool::retire`].
    pub(crate) fn next(&self, finished: Conn) -> Option<Conn> {
        // Counted idle before the close, so a client that sees the close
        // and reconnects finds this worker rather than growing the pool.
        {
            let mut st = self.lock();
            st.idle += 1;
            self.publish(&st);
        }
        drop(finished);
        let mut st = self.lock();
        loop {
            if let Some(conn) = st.queue.pop_front() {
                return Some(conn);
            }
            if st.closed {
                st.idle -= 1;
                self.publish(&st);
                return None;
            }
            st = self.wake.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Un-count a worker: it exited, or its spawn failed.
    pub(crate) fn retire(&self) {
        let mut st = self.lock();
        st.live -= 1;
        self.publish(&st);
    }

    /// Stop handing out connections and wake every parked worker.
    pub(crate) fn close(&self) {
        self.lock().closed = true;
        self.wake.notify_all();
    }
}
