//! The replica supervisor: child-process lifecycle for an HA serving tier.
//!
//! The router (see [`crate::router`]) decides *where requests go* when a
//! replica dies; this module is the other half of availability — making
//! sure dead replicas *come back* without an operator. A [`Supervisor`]
//! owns every replica child process of a deployment:
//!
//! * **Spawn**: replicas are started sequentially and each must print its
//!   `READY addr=…` line before the next starts — the first replica of a
//!   checkpoint directory trains/validates the checkpoint, the rest reuse
//!   it, and serializing the boot means they never race on the directory.
//! * **Watch**: each sweep checks every child twice over — has the
//!   process exited (`try_wait`), and does it still answer `PING` within
//!   a timeout (a *hung* process is as dead as an exited one; it is
//!   killed after `down_after` consecutive ping failures).
//! * **Respawn**: a dead replica is restarted under an exponential
//!   backoff with **seeded jitter** ([`backoff_with_jitter`] is a pure
//!   function of `(seed, shard, replica, attempt)`, so tests replay the
//!   exact schedule) and a per-replica **restart budget** — a replica
//!   that keeps dying is eventually abandoned and logged, rather than
//!   respawned in a hot loop forever while its secondary serves.
//! * **Re-point**: a respawn almost always lands on a new ephemeral
//!   port, so the supervisor automatically issues
//!   `REPLACE <shard> <replica> <addr>` on the router's loopback admin
//!   listener. From the client's point of view nothing happened: the
//!   secondary covered the gap bit-identically, and the respawned
//!   primary rejoins as soon as the router's prober confirms it.
//!
//! The `supervisord` binary wires this to a router in one process; the
//! chaos smoke in `ci.sh` SIGKILLs a primary under load and asserts zero
//! user-visible errors plus an automatic respawn + `REPLACE`.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use graphaug_rng::StdRng;
use graphaug_serve::{field, Request, ServeClient};

/// RNG stream tag for backoff jitter (see `graphaug-rng`'s stream-derivation
/// convention: distinct tags give independent streams from one seed).
const JITTER_STREAM_TAG: u64 = 0xBAC0_0FF5;

/// Deterministic exponential backoff with seeded jitter.
///
/// `attempt` 0 is the first *re*spawn: `base << attempt`, capped at `cap`,
/// plus a jitter draw in `[0, delay/2]` from the RNG stream keyed on
/// `(seed, shard, replica, attempt)`. Pure — the same inputs give the same
/// delay on every box, which is what lets a test assert the exact schedule
/// while production still gets de-synchronized restarts (different
/// replicas draw from different streams).
pub fn backoff_with_jitter(
    base: Duration,
    cap: Duration,
    attempt: u32,
    seed: u64,
    shard: usize,
    replica: usize,
) -> Duration {
    let shift = attempt.min(20);
    let exp = base.saturating_mul(1u32.checked_shl(shift).unwrap_or(u32::MAX));
    let delay = exp.min(cap);
    let key =
        JITTER_STREAM_TAG ^ ((shard as u64) << 40) ^ ((replica as u64) << 24) ^ attempt as u64;
    let mut rng = StdRng::stream(seed, key);
    let half_ns = (delay.as_nanos() / 2) as u64;
    let jitter = if half_ns == 0 {
        Duration::ZERO
    } else {
        Duration::from_nanos(rng.bounded_u64(half_ns + 1))
    };
    delay + jitter
}

/// A child process killed (SIGKILL) and reaped on drop, so a failed
/// supervisor run — or a test that panics — cannot leak replicas.
#[derive(Debug)]
pub struct ChildGuard(pub Child);

impl ChildGuard {
    /// The child's OS pid.
    pub fn pid(&self) -> u32 {
        self.0.id()
    }

    /// Has the child exited? (Non-blocking.)
    pub fn exited(&mut self) -> bool {
        matches!(self.0.try_wait(), Ok(Some(_)))
    }

    /// Kills and reaps the child now.
    pub fn kill(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

impl Drop for ChildGuard {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Spawns `argv` and waits (up to `ready_timeout`) for it to print a
/// `READY … addr=<addr> …` line on stdout, returning the guard and the
/// announced address. The stdout scan runs on a helper thread that keeps
/// draining after READY so the pipe never fills and blocks the child.
pub fn spawn_ready(
    argv: &[String],
    ready_timeout: Duration,
) -> Result<(ChildGuard, String), String> {
    let (bin, rest) = argv.split_first().ok_or("spawn command is empty")?;
    let mut child = Command::new(bin)
        .args(rest)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn {bin}: {e}"))?;
    let stdout = child.stdout.take().expect("piped stdout");
    let mut guard = ChildGuard(child);

    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let reader = BufReader::new(stdout);
        let mut announced = false;
        for line in reader.lines() {
            let Ok(line) = line else { break };
            if !announced {
                if let Some(addr) = field(&line, "addr") {
                    if line.starts_with("READY ") {
                        let _ = tx.send(addr.to_string());
                        announced = true;
                    }
                }
            }
        }
    });
    match rx.recv_timeout(ready_timeout) {
        Ok(addr) => Ok((guard, addr)),
        Err(_) => {
            let status = guard.0.try_wait().ok().flatten();
            Err(format!(
                "child {bin} never printed READY within {ready_timeout:?} (status: {status:?})"
            ))
        }
    }
}

/// Tunables for one supervisor.
#[derive(Clone, Debug)]
pub struct SupervisorConfig {
    /// Number of shards.
    pub shards: usize,
    /// Replicas per shard (primary + secondaries).
    pub replication: usize,
    /// The argv used to spawn *every* replica (all replicas of a
    /// deployment serve the same checkpoint; the shard hash partitions
    /// capacity, not data). The command must print `READY addr=…`.
    pub spawn_cmd: Vec<String>,
    /// Liveness sweep cadence.
    pub probe_period: Duration,
    /// How long a freshly spawned replica gets to print READY (the first
    /// one may be training a checkpoint from scratch).
    pub ready_timeout: Duration,
    /// First respawn delay; doubles per consecutive restart.
    pub backoff_base: Duration,
    /// Ceiling for the exponential backoff (before jitter).
    pub backoff_cap: Duration,
    /// Respawns allowed per replica before it is abandoned.
    pub restart_budget: u32,
    /// Consecutive PING failures before a live-but-hung child is killed.
    pub down_after: u32,
    /// Seed for the deterministic backoff jitter.
    pub seed: u64,
}

impl SupervisorConfig {
    /// Defaults tuned for loopback CI: fast sweeps, short backoff, a
    /// generous READY timeout (first boot may train).
    pub fn new(shards: usize, replication: usize, spawn_cmd: Vec<String>) -> SupervisorConfig {
        SupervisorConfig {
            shards,
            replication,
            spawn_cmd,
            probe_period: Duration::from_millis(100),
            ready_timeout: Duration::from_secs(120),
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(5),
            restart_budget: 5,
            down_after: 3,
            seed: 1,
        }
    }
}

/// Shared supervisor counters (readable from another thread while the
/// supervision loop runs).
#[derive(Default)]
pub struct SupervisorStats {
    /// Successful respawns (child exited or hung, replacement is READY).
    pub respawns: AtomicU64,
    /// `REPLACE` commands issued to the router admin listener.
    pub replaces: AtomicU64,
    /// Replicas abandoned after exhausting their restart budget.
    pub abandoned: AtomicU64,
    /// Children killed for failing PING while still running.
    pub hung_kills: AtomicU64,
}

struct Slot {
    child: Option<ChildGuard>,
    addr: String,
    restarts: u32,
    ping_failures: u32,
    abandoned: bool,
}

/// Owns `shards × replication` replica child processes and keeps them
/// alive. See the module docs for the lifecycle.
pub struct Supervisor {
    cfg: SupervisorConfig,
    slots: Vec<Vec<Slot>>,
    stats: Arc<SupervisorStats>,
}

impl Supervisor {
    /// A supervisor with no children yet; call [`Supervisor::spawn_all`].
    pub fn new(cfg: SupervisorConfig) -> Supervisor {
        assert!(cfg.shards > 0 && cfg.replication > 0);
        let slots = (0..cfg.shards)
            .map(|_| {
                (0..cfg.replication)
                    .map(|_| Slot {
                        child: None,
                        addr: String::new(),
                        restarts: 0,
                        ping_failures: 0,
                        abandoned: false,
                    })
                    .collect()
            })
            .collect();
        Supervisor {
            cfg,
            slots,
            stats: Arc::new(SupervisorStats::default()),
        }
    }

    /// Shared counters.
    pub fn stats(&self) -> Arc<SupervisorStats> {
        self.stats.clone()
    }

    /// The current per-shard replica addresses (primary first) — the
    /// shape `RouterConfig::from_sets` takes.
    pub fn replica_sets(&self) -> Vec<Vec<String>> {
        self.slots
            .iter()
            .map(|set| set.iter().map(|s| s.addr.clone()).collect())
            .collect()
    }

    /// The pid of `(shard, replica)`'s current child, if it has one.
    pub fn pid(&self, shard: usize, replica: usize) -> Option<u32> {
        self.slots[shard][replica].child.as_ref().map(|c| c.pid())
    }

    /// Spawns every replica sequentially (each must reach READY before
    /// the next starts) and returns the replica sets. Logs one
    /// `SPAWNED shard=… replica=… pid=… addr=…` line per child.
    pub fn spawn_all(&mut self, log: &mut dyn FnMut(&str)) -> Result<Vec<Vec<String>>, String> {
        for shard in 0..self.cfg.shards {
            for replica in 0..self.cfg.replication {
                let (child, addr) = spawn_ready(&self.cfg.spawn_cmd, self.cfg.ready_timeout)
                    .map_err(|e| format!("shard {shard} replica {replica}: {e}"))?;
                log(&format!(
                    "SPAWNED shard={shard} replica={replica} pid={} addr={addr}",
                    child.pid()
                ));
                let slot = &mut self.slots[shard][replica];
                slot.child = Some(child);
                slot.addr = addr;
            }
        }
        Ok(self.replica_sets())
    }

    /// Kills every child now (shutdown path; also what `Drop` does via
    /// the guards).
    pub fn kill_all(&mut self) {
        for set in &mut self.slots {
            for slot in set {
                if let Some(mut child) = slot.child.take() {
                    child.kill();
                }
            }
        }
    }

    /// One liveness sweep over every slot: reap exited children, kill
    /// hung ones (PING), respawn with backoff, and `REPLACE` through
    /// `admin` when a respawn lands on a new address. Returns how many
    /// respawns happened this sweep.
    pub fn sweep(&mut self, admin: &str, stop: &AtomicBool, log: &mut dyn FnMut(&str)) -> usize {
        let mut respawned = 0usize;
        for shard in 0..self.cfg.shards {
            for replica in 0..self.cfg.replication {
                if stop.load(Ordering::Relaxed) {
                    return respawned;
                }
                let slot = &mut self.slots[shard][replica];
                if slot.abandoned {
                    continue;
                }
                let dead = match slot.child.as_mut() {
                    None => true,
                    Some(child) => {
                        if child.exited() {
                            log(&format!(
                                "EXITED shard={shard} replica={replica} pid={}",
                                child.pid()
                            ));
                            true
                        } else if ping_ok(&slot.addr, self.cfg.probe_period) {
                            slot.ping_failures = 0;
                            false
                        } else {
                            slot.ping_failures += 1;
                            if slot.ping_failures >= self.cfg.down_after {
                                log(&format!(
                                    "HUNG shard={shard} replica={replica} pid={} \
                                     ({} ping failures) — killing",
                                    child.pid(),
                                    slot.ping_failures
                                ));
                                child.kill();
                                self.stats.hung_kills.fetch_add(1, Ordering::Relaxed);
                                true
                            } else {
                                false
                            }
                        }
                    }
                };
                if dead && self.respawn(shard, replica, admin, stop, log) {
                    respawned += 1;
                }
            }
        }
        respawned
    }

    /// The supervision loop: sweep, sleep, repeat until `stop`.
    pub fn run(&mut self, admin: &str, stop: &AtomicBool, log: &mut dyn FnMut(&str)) {
        while !stop.load(Ordering::Relaxed) {
            self.sweep(admin, stop, log);
            interruptible_sleep(self.cfg.probe_period, stop);
        }
        self.kill_all();
    }

    /// Respawns `(shard, replica)` under the backoff/budget policy.
    /// Returns whether a replacement child is up.
    fn respawn(
        &mut self,
        shard: usize,
        replica: usize,
        admin: &str,
        stop: &AtomicBool,
        log: &mut dyn FnMut(&str),
    ) -> bool {
        {
            let slot = &mut self.slots[shard][replica];
            slot.child = None;
            slot.ping_failures = 0;
            if slot.restarts >= self.cfg.restart_budget {
                slot.abandoned = true;
                self.stats.abandoned.fetch_add(1, Ordering::Relaxed);
                log(&format!(
                    "ABANDONED shard={shard} replica={replica} after {} restarts \
                     (budget {})",
                    slot.restarts, self.cfg.restart_budget
                ));
                return false;
            }
        }
        let attempt = self.slots[shard][replica].restarts;
        let delay = backoff_with_jitter(
            self.cfg.backoff_base,
            self.cfg.backoff_cap,
            attempt,
            self.cfg.seed,
            shard,
            replica,
        );
        log(&format!(
            "RESPAWN shard={shard} replica={replica} attempt={attempt} \
             backoff_ms={}",
            delay.as_millis()
        ));
        interruptible_sleep(delay, stop);
        if stop.load(Ordering::Relaxed) {
            return false;
        }
        match spawn_ready(&self.cfg.spawn_cmd, self.cfg.ready_timeout) {
            Ok((child, addr)) => {
                let pid = child.pid();
                let old_addr = std::mem::take(&mut self.slots[shard][replica].addr);
                {
                    let slot = &mut self.slots[shard][replica];
                    slot.child = Some(child);
                    slot.addr = addr.clone();
                    slot.restarts += 1;
                }
                self.stats.respawns.fetch_add(1, Ordering::Relaxed);
                log(&format!(
                    "RESPAWNED shard={shard} replica={replica} pid={pid} addr={addr}"
                ));
                if addr != old_addr {
                    match admin_replace(admin, shard, replica, &addr) {
                        Ok(()) => {
                            self.stats.replaces.fetch_add(1, Ordering::Relaxed);
                            log(&format!(
                                "REPLACED shard={shard} replica={replica} addr={addr}"
                            ));
                        }
                        Err(e) => log(&format!(
                            "REPLACE-FAILED shard={shard} replica={replica}: {e}"
                        )),
                    }
                }
                true
            }
            Err(e) => {
                // Failed spawn burns a restart: a command that can never
                // reach READY must hit the budget, not loop forever.
                self.slots[shard][replica].restarts += 1;
                log(&format!(
                    "RESPAWN-FAILED shard={shard} replica={replica}: {e}"
                ));
                false
            }
        }
    }
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        self.kill_all();
    }
}

/// One `PING` with connect+I/O timeout against `addr`.
fn ping_ok(addr: &str, timeout: Duration) -> bool {
    let timeout = timeout.max(Duration::from_millis(50));
    ServeClient::connect_with_timeouts(addr, timeout, Some(timeout))
        .and_then(|mut c| c.ping())
        .unwrap_or(false)
}

/// Issues `REPLACE <shard> <replica> <addr>` on the router admin listener
/// at `admin`; anything but an `OK` reply is an error.
pub fn admin_replace(admin: &str, shard: usize, replica: usize, addr: &str) -> Result<(), String> {
    let t = Duration::from_secs(2);
    let mut client =
        ServeClient::connect_with_timeouts(admin, t, Some(t)).map_err(|e| e.to_string())?;
    let request = Request::Replace {
        shard,
        replica,
        addr: addr.to_string(),
    };
    let reply = client
        .request_lines(request, 1)
        .map_err(|e| e.to_string())?
        .remove(0);
    client.quit();
    if reply.starts_with("OK ") {
        Ok(())
    } else {
        Err(format!("REPLACE rejected: {reply}"))
    }
}

/// Sleeps `total` in small slices, returning early when `stop` flips.
fn interruptible_sleep(total: Duration, stop: &AtomicBool) {
    let slice = Duration::from_millis(20);
    let mut slept = Duration::ZERO;
    while slept < total && !stop.load(Ordering::Relaxed) {
        let step = slice.min(total - slept);
        std::thread::sleep(step);
        slept += step;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_and_grows_to_the_cap() {
        let base = Duration::from_millis(50);
        let cap = Duration::from_secs(2);
        let mut prev = Duration::ZERO;
        for attempt in 0..8 {
            let a = backoff_with_jitter(base, cap, attempt, 7, 0, 1);
            let b = backoff_with_jitter(base, cap, attempt, 7, 0, 1);
            assert_eq!(a, b, "pure function of (seed, shard, replica, attempt)");
            // delay ∈ [exp, 1.5·exp] with exp capped: monotone up to the
            // cap region, and never more than 1.5× the cap.
            assert!(a >= base.min(cap));
            assert!(a <= cap + cap / 2);
            if attempt >= 1 {
                assert!(
                    a + cap / 2 >= prev,
                    "attempt {attempt}: {a:?} collapsed vs {prev:?}"
                );
            }
            prev = a;
        }
    }

    #[test]
    fn jitter_streams_differ_across_replicas_and_seeds() {
        let base = Duration::from_millis(100);
        let cap = Duration::from_secs(10);
        let d00 = backoff_with_jitter(base, cap, 3, 7, 0, 0);
        let d01 = backoff_with_jitter(base, cap, 3, 7, 0, 1);
        let d_seed = backoff_with_jitter(base, cap, 3, 8, 0, 0);
        // Equality would not be *wrong*, but with a 400ms jitter range a
        // collision across these particular streams would be a 1-in-1e8
        // fluke — treat it as a broken stream derivation.
        assert!(d00 != d01 || d00 != d_seed);
    }

    #[test]
    fn spawn_ready_rejects_empty_and_unspawnable_commands() {
        assert!(spawn_ready(&[], Duration::from_secs(1)).is_err());
        let missing = vec!["/nonexistent/definitely-not-a-binary".to_string()];
        assert!(spawn_ready(&missing, Duration::from_secs(1)).is_err());
    }

    #[test]
    fn spawn_ready_times_out_on_a_silent_child() {
        // `sleep` never prints READY; the scan must give up at the
        // timeout and the guard must kill the child on drop.
        let argv = vec!["sleep".to_string(), "30".to_string()];
        let err = spawn_ready(&argv, Duration::from_millis(200)).unwrap_err();
        assert!(err.contains("never printed READY"), "{err}");
    }
}
