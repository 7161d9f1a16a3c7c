//! The connection-worker pool (DESIGN.md §3e), run as leader/followers.
//!
//! Like the paper's fabric, where the pipeline that reaches `spt_fork`
//! keeps executing and an idle ring core takes the next start point, the
//! thread that accepts a connection serves it itself. Exactly one worker,
//! the leader, blocks in `accept`. After each accept it passes the lead on
//! ([`Pool::hand_off`]): to a parked follower, or to a newly spawned
//! worker when none is parked and fewer than [`MAX_CONNS`] are serving or
//! parked. Past that cap it answers the connection `busy` and keeps the
//! lead, as a fork that finds no idle core is dropped rather than queued.
//! A worker that finishes its connection parks as a follower
//! ([`Pool::follow`]) until it is promoted or the pool closes. No
//! connection is queued and no request waits on a second thread's
//! wake-up.

use crate::{Conn, ServeMetrics};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Most connection workers one daemon keeps serving or parked, which is
/// also the most connections it serves at once; the leader blocked in
/// `accept` comes on top. A connection beyond it is answered
/// `{"ok":false,"error":"busy"}` and closed.
pub const MAX_CONNS: usize = 64;

/// What the leader does after [`Pool::hand_off`].
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum HandOff {
    /// A parked follower was promoted and woken: it leads next. The caller
    /// serves its connection.
    Promoted,
    /// No follower is parked and the pool may grow: the caller spawns a
    /// worker to lead next, then serves its connection (already counted
    /// live). If the spawn fails, it calls [`Pool::abdicate`].
    Spawn,
    /// [`MAX_CONNS`] workers are serving: the caller answers `busy` and
    /// keeps the lead.
    Busy,
}

pub(crate) struct Pool {
    state: Mutex<State>,
    wake: Condvar,
    metrics: Arc<ServeMetrics>,
}

struct State {
    /// Parked followers no promotion is claimed for.
    idle: usize,
    /// Workers serving a connection or parked; the leader is not counted.
    live: usize,
    /// Some worker holds the lead, or is about to: a promotion or a spawn
    /// is pending. False only after a failed spawn, until a worker takes
    /// the lead in [`Pool::follow`].
    leading: bool,
    /// A promotion not yet claimed by a parked follower.
    promoted: bool,
    /// Set once by [`Pool::close`]; parked followers then exit.
    closed: bool,
}

impl Pool {
    /// A pool whose first worker, about to be spawned, leads.
    pub(crate) fn new(metrics: Arc<ServeMetrics>) -> Pool {
        Pool {
            state: Mutex::new(State {
                idle: 0,
                live: 0,
                leading: true,
                promoted: false,
                closed: false,
            }),
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

    /// The leader accepted a connection: pass the lead to a parked
    /// follower, or say whether to spawn the next leader or refuse.
    pub(crate) fn hand_off(&self) -> HandOff {
        let mut st = self.lock();
        if st.idle > 0 {
            // The follower leaves `live` to lead; the caller joins it.
            st.idle -= 1;
            st.promoted = true;
            self.publish(&st);
            drop(st);
            self.wake.notify_one();
            HandOff::Promoted
        } else if st.live < MAX_CONNS {
            st.live += 1;
            self.publish(&st);
            HandOff::Spawn
        } else {
            HandOff::Busy
        }
    }

    /// The spawn [`Pool::hand_off`] asked for failed: nobody leads until a
    /// worker takes the lead in [`Pool::follow`], at the latest the caller
    /// once its connection is done.
    pub(crate) fn abdicate(&self) {
        self.lock().leading = false;
        self.wake.notify_one();
    }

    /// Close the calling worker's `finished` connection and park until it
    /// is promoted; `true` when it leads next. It takes the lead at once
    /// when nobody leads. `false` once the pool is closed: the worker has
    /// been un-counted and exits.
    pub(crate) fn follow(&self, finished: Conn) -> bool {
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
            if st.promoted {
                // `hand_off` already took this worker out of `idle`.
                st.promoted = false;
                return true;
            }
            if st.closed || !st.leading {
                // Out of the pool: to exit, or to lead, which is uncounted.
                st.idle -= 1;
                st.live -= 1;
                st.leading = !st.closed;
                self.publish(&st);
                return st.leading;
            }
            st = self.wake.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// The leader is stopping: close the pool, so that no worker leads
    /// again, and wake every parked follower to exit.
    pub(crate) fn close(&self) {
        let mut st = self.lock();
        st.closed = true;
        st.leading = false;
        drop(st);
        self.wake.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spt::Sweep;
    use std::os::unix::net::UnixStream;
    use std::time::{Duration, Instant};

    /// A pool and the sweep its gauges are rendered with.
    fn pool() -> (Pool, Sweep) {
        (Pool::new(ServeMetrics::new()), Sweep::sequential())
    }

    /// `(spt_conn_workers, spt_conn_idle_workers)` as exported.
    fn gauges(pool: &Pool, sweep: &Sweep) -> (usize, usize) {
        let text = pool.metrics.render(sweep, None);
        let scrape = spt_metrics::parse_exposition(&text).unwrap();
        let gauge = |name: &str| scrape.get(name).expect("gauge exported").value as usize;
        (gauge("spt_conn_workers"), gauge("spt_conn_idle_workers"))
    }

    /// A finished connection for [`Pool::follow`] to close.
    fn conn() -> Conn {
        Conn::Unix(UnixStream::pair().unwrap().0)
    }

    /// Wait until `idle` followers are parked.
    fn await_idle(pool: &Pool, sweep: &Sweep, idle: usize) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while gauges(pool, sweep).1 != idle {
            assert!(Instant::now() < deadline, "{idle} followers never parked");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn hand_off_spawns_below_the_cap_promotes_a_follower_and_refuses_at_it() {
        let (pool, sweep) = pool();
        assert_eq!(gauges(&pool, &sweep), (0, 0));
        // Nobody parked: each accept grows the pool by its leader, up to
        // MAX_CONNS serving.
        for live in 1..=MAX_CONNS {
            assert_eq!(pool.hand_off(), HandOff::Spawn);
            assert_eq!(gauges(&pool, &sweep), (live, 0));
        }
        assert_eq!(pool.hand_off(), HandOff::Busy);
        assert_eq!(gauges(&pool, &sweep), (MAX_CONNS, 0));
        std::thread::scope(|s| {
            // One worker finishes and parks: the next accept promotes it,
            // at the cap as below it, and `live` stays put.
            let follower = s.spawn(|| pool.follow(conn()));
            await_idle(&pool, &sweep, 1);
            assert_eq!(gauges(&pool, &sweep), (MAX_CONNS, 1));
            assert_eq!(pool.hand_off(), HandOff::Promoted);
            assert_eq!(gauges(&pool, &sweep), (MAX_CONNS, 0));
            assert!(follower.join().unwrap(), "the promoted follower leads");
        });
        // Everyone serving again: the cap holds.
        assert_eq!(pool.hand_off(), HandOff::Busy);
        assert_eq!(gauges(&pool, &sweep), (MAX_CONNS, 0));
    }

    #[test]
    fn a_parked_follower_is_promoted_before_the_pool_grows() {
        let (pool, sweep) = pool();
        assert_eq!(pool.hand_off(), HandOff::Spawn);
        std::thread::scope(|s| {
            let follower = s.spawn(|| pool.follow(conn()));
            await_idle(&pool, &sweep, 1);
            assert_eq!(gauges(&pool, &sweep), (1, 1));
            assert_eq!(pool.hand_off(), HandOff::Promoted);
            assert!(follower.join().unwrap());
        });
        assert_eq!(gauges(&pool, &sweep), (1, 0));
    }

    #[test]
    fn follow_takes_the_lead_at_once_when_nobody_leads() {
        let (pool, sweep) = pool();
        // The leader's spawn failed: it serves its connection, then
        // resumes the lead without parking.
        assert_eq!(pool.hand_off(), HandOff::Spawn);
        pool.abdicate();
        assert_eq!(gauges(&pool, &sweep), (1, 0));
        assert!(pool.follow(conn()));
        assert_eq!(gauges(&pool, &sweep), (0, 0));
        // It leads again: the next accept spawns.
        assert_eq!(pool.hand_off(), HandOff::Spawn);
        assert_eq!(gauges(&pool, &sweep), (1, 0));
    }

    #[test]
    fn a_failed_spawn_wakes_a_parked_follower_to_lead() {
        let (pool, sweep) = pool();
        assert_eq!(pool.hand_off(), HandOff::Spawn);
        assert_eq!(pool.hand_off(), HandOff::Spawn);
        std::thread::scope(|s| {
            // One of the two serving workers parks, then the leader's
            // spawn fails.
            let follower = s.spawn(|| pool.follow(conn()));
            await_idle(&pool, &sweep, 1);
            assert_eq!(gauges(&pool, &sweep), (2, 1));
            pool.abdicate();
            assert!(follower.join().unwrap(), "the follower takes the lead");
        });
        assert_eq!(gauges(&pool, &sweep), (1, 0));
    }

    #[test]
    fn close_wakes_every_parked_follower() {
        let (pool, sweep) = pool();
        for _ in 0..4 {
            assert_eq!(pool.hand_off(), HandOff::Spawn);
        }
        std::thread::scope(|s| {
            let followers: Vec<_> = (0..3).map(|_| s.spawn(|| pool.follow(conn()))).collect();
            await_idle(&pool, &sweep, 3);
            assert_eq!(gauges(&pool, &sweep), (4, 3));
            pool.close();
            for f in followers {
                assert!(!f.join().unwrap(), "a closed pool promotes nobody");
            }
        });
        assert_eq!(gauges(&pool, &sweep), (1, 0));
        // The worker still serving at the close exits once it is done.
        assert!(!pool.follow(conn()));
        assert_eq!(gauges(&pool, &sweep), (0, 0));
    }
}
