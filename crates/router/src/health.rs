//! Per-replica health state for replicated shards, and the background
//! prober.
//!
//! The [`HealthBoard`] is the router's shared, lock-light view of every
//! replica in every shard's replica set. Two sources feed it:
//!
//! * the **data path** reports connect/IO failures and successes as they
//!   happen (so a dead replica is usually noticed by the first request
//!   that hits it), and
//! * the background **prober** asks every replica for `STATS` each period,
//!   over one kept connection per replica — which is what notices a replica
//!   *coming back* (the data path never touches replicas it believes are
//!   down), and what feeds each replica's **checkpoint generation** into
//!   the board for skew detection.
//!
//! # Replica sets and the failover order
//!
//! Each shard is backed by an ordered replica set: index 0 is the
//! *primary*, higher indices are *secondaries*. All replicas of a set
//! serve the same checkpoint directory, so a failover answers with the
//! **same bits** — which is the whole reason failover can be transparent.
//! The serving choice is deterministic: the lowest-index replica that is
//! up and not degraded ([`failover_order`] is the pure decision function;
//! property tests drive it directly). No randomness, no load feedback —
//! two routers watching the same board pick the same replica.
//!
//! # Generation skew and the `degraded` state
//!
//! "Same bits" holds only while the set serves the same checkpoint
//! generation. Hot reload makes generations advance per-replica (each
//! replica's watcher picks the new checkpoint up independently), so there
//! is a window where a secondary lags the primary. A replica whose last
//! probed generation is **behind the newest generation seen among its
//! set's up replicas** is marked *degraded*: still alive, still probed,
//! but skipped by the failover order — a stale answer served during
//! failover would silently break bit-parity, which is worse than a typed
//! error. The moment its watcher catches up (next probe reports the new
//! generation), the flag clears.
//!
//! A replica is marked down after `down_after` consecutive failures and up
//! again after a single success. Addresses are mutable via
//! [`HealthBoard::replace`], the rejoin path for a replica that restarts
//! on a new port (`REPLACE` on the router's admin listener): the swap
//! resets the failure counter and leaves the replica down until the
//! prober confirms the new address actually answers.

use std::io;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use graphaug_serve::{field, ServeClient};

use crate::router::is_timeout;

/// One replica's health snapshot, as the failover decision sees it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplicaHealth {
    /// Answering and serving the set's newest known generation.
    Up,
    /// Not answering (or not yet confirmed after a `REPLACE`).
    Down,
    /// Answering, but its checkpoint generation lags the set — skipped by
    /// failover so a stale replica can never break bit-parity.
    Degraded,
}

impl ReplicaHealth {
    /// The `STATS` token for this state.
    pub fn as_str(&self) -> &'static str {
        match self {
            ReplicaHealth::Up => "up",
            ReplicaHealth::Down => "down",
            ReplicaHealth::Degraded => "degraded",
        }
    }
}

/// The deterministic failover decision: the indices of serving-eligible
/// replicas (up and not degraded), in replica-set order. The first entry
/// is the replica a request is sent to; the rest are tried in order when
/// it fails mid-request. Pure function of the snapshot — property tests
/// drive it directly against a reference model.
pub fn failover_order(states: &[ReplicaHealth]) -> Vec<usize> {
    states
        .iter()
        .enumerate()
        .filter(|(_, s)| **s == ReplicaHealth::Up)
        .map(|(i, _)| i)
        .collect()
}

struct Replica {
    addr: Mutex<String>,
    /// Bumped on every address replacement; lets a connection cache detect
    /// that its socket points at a stale address without comparing strings.
    epoch: AtomicU64,
    up: AtomicBool,
    /// Up but serving an older generation than the set's newest (skew).
    degraded: AtomicBool,
    /// Last checkpoint generation a probe reported; 0 = not yet known.
    generation: AtomicU64,
    consecutive_failures: AtomicU32,
    probes: AtomicU64,
    transitions: AtomicU64,
}

impl Replica {
    fn new(addr: &str) -> Replica {
        Replica {
            addr: Mutex::new(addr.to_string()),
            epoch: AtomicU64::new(0),
            up: AtomicBool::new(true),
            degraded: AtomicBool::new(false),
            generation: AtomicU64::new(0),
            consecutive_failures: AtomicU32::new(0),
            probes: AtomicU64::new(0),
            transitions: AtomicU64::new(0),
        }
    }

    fn health(&self) -> ReplicaHealth {
        if !self.up.load(Ordering::Relaxed) {
            ReplicaHealth::Down
        } else if self.degraded.load(Ordering::Relaxed) {
            ReplicaHealth::Degraded
        } else {
            ReplicaHealth::Up
        }
    }
}

/// Shared health state for every replica of every shard.
pub struct HealthBoard {
    shards: Vec<Vec<Replica>>,
    down_after: u32,
}

impl HealthBoard {
    /// A board over per-shard replica sets, optimistically all-up (the
    /// first failures flip a replica down; starting down would reject
    /// traffic before the first probe cycle completes).
    pub fn new(sets: &[Vec<String>], down_after: u32) -> HealthBoard {
        assert!(!sets.is_empty(), "router needs at least one shard");
        HealthBoard {
            shards: sets
                .iter()
                .map(|set| {
                    assert!(!set.is_empty(), "every shard needs at least one replica");
                    set.iter().map(|a| Replica::new(a)).collect()
                })
                .collect(),
            down_after: down_after.max(1),
        }
    }

    /// Number of shards on the board.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of replicas backing `shard`.
    pub fn n_replicas(&self, shard: usize) -> usize {
        self.shards[shard].len()
    }

    /// The current address of `(shard, replica)`, plus the address epoch
    /// it belongs to (see [`HealthBoard::replace`]).
    pub fn addr(&self, shard: usize, replica: usize) -> (String, u64) {
        let r = &self.shards[shard][replica];
        let addr = r.addr.lock().expect("addr lock").clone();
        (addr, r.epoch.load(Ordering::Acquire))
    }

    /// Points `(shard, replica)` at a new address (a restarted process).
    /// The replica stays down until the prober confirms the replacement
    /// answers, and its generation resets to unknown — the new process
    /// may still be loading a checkpoint.
    pub fn replace(&self, shard: usize, replica: usize, addr: &str) {
        let r = &self.shards[shard][replica];
        *r.addr.lock().expect("addr lock") = addr.to_string();
        r.epoch.fetch_add(1, Ordering::AcqRel);
        r.consecutive_failures.store(0, Ordering::Relaxed);
        r.generation.store(0, Ordering::Relaxed);
        r.degraded.store(false, Ordering::Relaxed);
        if r.up.swap(false, Ordering::Relaxed) {
            r.transitions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Is `(shard, replica)` currently believed to be answering?
    pub fn is_up(&self, shard: usize, replica: usize) -> bool {
        self.shards[shard][replica].up.load(Ordering::Relaxed)
    }

    /// Is `(shard, replica)` up but generation-skewed?
    pub fn is_degraded(&self, shard: usize, replica: usize) -> bool {
        self.shards[shard][replica].health() == ReplicaHealth::Degraded
    }

    /// The last checkpoint generation a probe reported for
    /// `(shard, replica)` (0 until the first successful probe).
    pub fn generation(&self, shard: usize, replica: usize) -> u64 {
        self.shards[shard][replica]
            .generation
            .load(Ordering::Relaxed)
    }

    /// Per-replica health snapshot for `shard`, in replica-set order.
    pub fn shard_states(&self, shard: usize) -> Vec<ReplicaHealth> {
        self.shards[shard].iter().map(|r| r.health()).collect()
    }

    /// The serving-eligible replicas of `shard` in deterministic failover
    /// order (see [`failover_order`]). Empty means the shard is down.
    pub fn serving_order(&self, shard: usize) -> Vec<usize> {
        failover_order(&self.shard_states(shard))
    }

    /// The replica a fresh request for `shard` is sent to, if any.
    pub fn serving_replica(&self, shard: usize) -> Option<usize> {
        self.serving_order(shard).first().copied()
    }

    /// Does `shard` have any serving-eligible replica?
    pub fn shard_up(&self, shard: usize) -> bool {
        self.serving_replica(shard).is_some()
    }

    /// Number of shards with at least one serving-eligible replica.
    pub fn shards_up(&self) -> usize {
        (0..self.n_shards()).filter(|&s| self.shard_up(s)).count()
    }

    /// Total replicas currently up (degraded counts as up: it answers).
    pub fn up_count(&self) -> usize {
        self.shards
            .iter()
            .flatten()
            .filter(|r| r.up.load(Ordering::Relaxed))
            .count()
    }

    /// Records a successful interaction with `(shard, replica)` (data
    /// path or probe): resets the failure streak and marks it up.
    pub fn report_ok(&self, shard: usize, replica: usize) {
        let r = &self.shards[shard][replica];
        r.consecutive_failures.store(0, Ordering::Relaxed);
        if !r.up.swap(true, Ordering::Relaxed) {
            r.transitions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a failed interaction with `(shard, replica)`; marks it
    /// down once the streak reaches `down_after`.
    pub fn report_failure(&self, shard: usize, replica: usize) {
        let r = &self.shards[shard][replica];
        let streak = r.consecutive_failures.fetch_add(1, Ordering::Relaxed) + 1;
        if streak >= self.down_after && r.up.swap(false, Ordering::Relaxed) {
            r.transitions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records the checkpoint generation a probe observed on
    /// `(shard, replica)` and recomputes the set's skew flags: every up
    /// replica with a known generation behind the set's newest known
    /// generation is degraded; everyone at the front (or not yet probed)
    /// is not.
    pub fn report_generation(&self, shard: usize, replica: usize, generation: u64) {
        self.shards[shard][replica]
            .generation
            .store(generation, Ordering::Relaxed);
        let set = &self.shards[shard];
        let newest = set
            .iter()
            .filter(|r| r.up.load(Ordering::Relaxed))
            .map(|r| r.generation.load(Ordering::Relaxed))
            .max()
            .unwrap_or(0);
        for r in set {
            let gen = r.generation.load(Ordering::Relaxed);
            // Unknown (0) generations are exempt: a replica that has not
            // been probed yet is not evidence of skew.
            r.degraded
                .store(gen != 0 && gen < newest, Ordering::Relaxed);
        }
    }

    /// Forces `(shard, replica)` down immediately (tests and benches; the
    /// data path then skips it without network traffic).
    pub fn force_down(&self, shard: usize, replica: usize) {
        let r = &self.shards[shard][replica];
        r.consecutive_failures
            .store(self.down_after, Ordering::Relaxed);
        if r.up.swap(false, Ordering::Relaxed) {
            r.transitions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Total up/down transitions observed for `(shard, replica)` (flap
    /// telemetry).
    pub fn transitions(&self, shard: usize, replica: usize) -> u64 {
        self.shards[shard][replica]
            .transitions
            .load(Ordering::Relaxed)
    }

    /// Total probe attempts against `(shard, replica)`.
    pub fn probes(&self, shard: usize, replica: usize) -> u64 {
        self.shards[shard][replica].probes.load(Ordering::Relaxed)
    }

    fn record_probe(&self, shard: usize, replica: usize) {
        self.shards[shard][replica]
            .probes
            .fetch_add(1, Ordering::Relaxed);
    }
}

/// Opens a fresh connection to `(shard, replica)`'s current address and
/// asks it for `STATS` once. A well-formed answer marks the replica up
/// and feeds its checkpoint generation into the board (skew detection);
/// any failure feeds the down streak. Returns whether the replica
/// answered.
pub fn probe_once(board: &HealthBoard, shard: usize, replica: usize, timeout: Duration) -> bool {
    probe(board, &mut None, shard, replica, timeout)
}

/// One kept probe connection and the address epoch it was opened for.
type ProbeConn = Option<(u64, ServeClient)>;

/// [`probe_once`] over `conn`: reuses it while its address epoch matches
/// the board's (a `REPLACE` opens a new one, as the data path's
/// connection cache does), and leaves the answering connection in it. A
/// probe that fails on a kept connection — the replica restarted or
/// closed it — retries once on a fresh one before it counts, so the down
/// streak sees one result per probe, as with a fresh connection each
/// time. A timeout is not retried: a hung replica costs one timeout per
/// probe either way.
fn probe(
    board: &HealthBoard,
    conn: &mut ProbeConn,
    shard: usize,
    replica: usize,
    timeout: Duration,
) -> bool {
    fn stats(client: &mut ServeClient) -> io::Result<String> {
        let line = client.stats_line()?;
        if line.starts_with("STATS ") {
            Ok(line)
        } else {
            Err(io::Error::other(format!("not a STATS line: {line}")))
        }
    }
    board.record_probe(shard, replica);
    let (addr, epoch) = board.addr(shard, replica);
    let fresh = || {
        let mut client = ServeClient::connect_with_timeouts(&addr, timeout, Some(timeout))?;
        stats(&mut client).map(|line| (client, line))
    };
    let answer = match conn.take() {
        Some((kept_epoch, mut client)) if kept_epoch == epoch => match stats(&mut client) {
            Ok(line) => Ok((client, line)),
            Err(e) if is_timeout(&e) => Err(e),
            Err(_) => fresh(),
        },
        _ => fresh(),
    };
    match answer {
        Ok((client, line)) => {
            *conn = Some((epoch, client));
            board.report_ok(shard, replica);
            if let Some(gen) = field(&line, "gen").and_then(|v| v.parse::<u64>().ok()) {
                board.report_generation(shard, replica, gen);
            }
            true
        }
        Err(_) => {
            board.report_failure(shard, replica);
            false
        }
    }
}

/// Handle of the background prober thread; stops (and joins) on
/// [`Prober::stop`] or drop.
pub struct Prober {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Prober {
    /// Signals the prober thread and waits for it to exit.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Prober {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Spawns a thread that probes every replica of every shard each `period`
/// (`STATS` with `timeout`, over one kept connection per replica). This is
/// the rejoin path — a down replica that starts answering again is marked
/// up within one probe period, with no router restart — and the skew
/// detector's sensor: each sweep refreshes every replica's known
/// checkpoint generation.
pub fn spawn_prober(board: Arc<HealthBoard>, period: Duration, timeout: Duration) -> Prober {
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = stop.clone();
    let handle = std::thread::Builder::new()
        .name("graphaug-router-prober".into())
        .spawn(move || {
            let mut conns: Vec<Vec<ProbeConn>> = (0..board.n_shards())
                .map(|shard| (0..board.n_replicas(shard)).map(|_| None).collect())
                .collect();
            while !stop_flag.load(Ordering::Relaxed) {
                for (shard, conns) in conns.iter_mut().enumerate() {
                    for (replica, conn) in conns.iter_mut().enumerate() {
                        if stop_flag.load(Ordering::Relaxed) {
                            return;
                        }
                        probe(&board, conn, shard, replica, timeout);
                    }
                }
                // Sliced sleep so stop() never has to wait out a long
                // probe period before it can join the thread.
                let slice = Duration::from_millis(20);
                let mut slept = Duration::ZERO;
                while slept < period && !stop_flag.load(Ordering::Relaxed) {
                    let step = slice.min(period - slept);
                    std::thread::sleep(step);
                    slept += step;
                }
            }
        })
        .expect("spawn health prober");
    Prober {
        stop,
        handle: Some(handle),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn board() -> HealthBoard {
        HealthBoard::new(
            &[
                vec!["127.0.0.1:1".into(), "127.0.0.1:2".into()],
                vec!["127.0.0.1:3".into()],
            ],
            2,
        )
    }

    #[test]
    fn down_needs_a_streak_up_needs_one_success() {
        let b = board();
        assert!(b.is_up(0, 0));
        b.report_failure(0, 0);
        assert!(b.is_up(0, 0), "one failure below the threshold keeps it up");
        b.report_failure(0, 0);
        assert!(!b.is_up(0, 0), "threshold reached");
        assert!(b.shard_up(0), "the secondary still serves the shard");
        assert_eq!(b.serving_replica(0), Some(1));
        b.report_ok(0, 0);
        assert!(b.is_up(0, 0), "one success rejoins");
        assert_eq!(b.serving_replica(0), Some(0), "primary preferred again");
        assert_eq!(b.transitions(0, 0), 2);
    }

    #[test]
    fn successes_reset_the_streak() {
        let b = board();
        b.report_failure(1, 0);
        b.report_ok(1, 0);
        b.report_failure(1, 0);
        assert!(b.is_up(1, 0), "streak was reset in between");
    }

    #[test]
    fn shard_is_down_only_when_every_replica_is() {
        let b = board();
        b.force_down(0, 0);
        assert!(b.shard_up(0));
        b.force_down(0, 1);
        assert!(!b.shard_up(0));
        assert_eq!(b.serving_order(0), Vec::<usize>::new());
        assert_eq!(b.shards_up(), 1);
    }

    #[test]
    fn replace_swaps_the_address_and_bumps_the_epoch() {
        let b = board();
        let (addr0, epoch0) = b.addr(0, 1);
        assert_eq!(addr0, "127.0.0.1:2");
        b.replace(0, 1, "127.0.0.1:9");
        let (addr1, epoch1) = b.addr(0, 1);
        assert_eq!(addr1, "127.0.0.1:9");
        assert!(epoch1 > epoch0);
        assert!(!b.is_up(0, 1), "replacement waits for probe confirmation");
        assert_eq!(b.generation(0, 1), 0, "generation resets to unknown");
        b.report_ok(0, 1);
        assert!(b.is_up(0, 1));
    }

    #[test]
    fn generation_skew_degrades_the_lagging_replica() {
        let b = board();
        b.report_generation(0, 0, 5);
        b.report_generation(0, 1, 5);
        assert_eq!(b.serving_order(0), vec![0, 1], "no skew, both eligible");

        // Primary reloads to gen 6; the secondary is now stale.
        b.report_generation(0, 0, 6);
        assert!(b.is_degraded(0, 1));
        assert_eq!(
            b.serving_order(0),
            vec![0],
            "a degraded secondary must not be a failover target"
        );
        assert_eq!(b.shard_states(0)[1], ReplicaHealth::Degraded);

        // The secondary's watcher catches up: skew clears.
        b.report_generation(0, 1, 6);
        assert!(!b.is_degraded(0, 1));
        assert_eq!(b.serving_order(0), vec![0, 1]);
    }

    #[test]
    fn unknown_generation_is_not_skew() {
        let b = board();
        b.report_generation(0, 0, 7);
        assert!(
            !b.is_degraded(0, 1),
            "an unprobed replica (gen 0) is exempt from skew"
        );
        assert_eq!(b.serving_order(0), vec![0, 1]);
    }

    #[test]
    fn skewed_primary_hands_serving_to_the_secondary() {
        let b = board();
        b.report_generation(0, 0, 3);
        b.report_generation(0, 1, 4);
        assert!(b.is_degraded(0, 0));
        assert_eq!(
            b.serving_replica(0),
            Some(1),
            "the newest-generation replica serves, whichever index it is"
        );
    }

    #[test]
    fn failover_order_is_the_up_indices_in_order() {
        use ReplicaHealth::*;
        assert_eq!(failover_order(&[Up, Up, Up]), vec![0, 1, 2]);
        assert_eq!(failover_order(&[Down, Up, Up]), vec![1, 2]);
        assert_eq!(failover_order(&[Up, Degraded, Up]), vec![0, 2]);
        assert_eq!(failover_order(&[Down, Degraded, Down]), Vec::<usize>::new());
        assert_eq!(failover_order(&[]), Vec::<usize>::new());
    }

    #[test]
    fn the_prober_keeps_one_connection_per_replica() {
        use graphaug_serve::net::{listen, Next, Reply};

        fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            while !cond() {
                assert!(std::time::Instant::now() < deadline, "timed out: {what}");
                std::thread::sleep(Duration::from_millis(1));
            }
        }

        // A stand-in replica that counts accepted connections and, when
        // asked, closes one after its next answer (a forced reset).
        let accepted = Arc::new(AtomicU64::new(0));
        let reset = Arc::new(AtomicBool::new(false));
        let (count, close) = (accepted.clone(), reset.clone());
        let replica = listen("127.0.0.1:0", "stand-in", move || {
            count.fetch_add(1, Ordering::SeqCst);
            let close = close.clone();
            move |line: &str, reply: &mut Reply| {
                assert_eq!(line, "STATS");
                reply.line("STATS gen=1");
                if close.swap(false, Ordering::SeqCst) {
                    Next::Close
                } else {
                    Next::Continue
                }
            }
        })
        .unwrap();
        let addr = replica.addr().to_string();
        let board = Arc::new(HealthBoard::new(&[vec![addr.clone()]], 1));
        let prober = spawn_prober(
            board.clone(),
            Duration::from_millis(1),
            Duration::from_secs(5),
        );
        let connections = || accepted.load(Ordering::SeqCst);

        wait_until("20 probes", || board.probes(0, 0) >= 20);
        assert_eq!(connections(), 1, "one connection for every probe");

        // The replica closes the kept connection: the next probe retries on
        // a fresh one, so no probe fails (`down_after` is 1 here).
        reset.store(true, Ordering::SeqCst);
        let probes = board.probes(0, 0);
        wait_until("20 more probes", || board.probes(0, 0) >= probes + 20);
        assert_eq!(connections(), 2, "one more per forced reset");
        assert_eq!(board.transitions(0, 0), 0, "a reset is not a failure");

        // A REPLACE bumps the address epoch (here to the same address): the
        // prober opens a connection for it and the replica rejoins.
        board.replace(0, 0, &addr);
        let probes = board.probes(0, 0);
        wait_until("20 probes after REPLACE", || {
            board.probes(0, 0) >= probes + 20
        });
        assert!(board.is_up(0, 0));
        assert_eq!(connections(), 3, "one more per address epoch");
        assert_eq!(board.transitions(0, 0), 2, "down on REPLACE, up once");
        prober.stop();
        replica.stop();
    }

    #[test]
    fn probe_against_a_dead_port_marks_down() {
        // Port 1 on loopback refuses instantly.
        let b = HealthBoard::new(&[vec!["127.0.0.1:1".into()]], 1);
        assert!(!probe_once(&b, 0, 0, Duration::from_millis(200)));
        assert!(!b.is_up(0, 0));
        assert_eq!(b.probes(0, 0), 1);
    }
}
