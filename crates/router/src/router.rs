//! The router core: a TCP proxy that speaks the serving protocol on both
//! sides and owns nothing but a hash, a health board, and counters.
//!
//! # Routing
//!
//! Every user in a `REC` batch is owned by exactly one shard
//! ([`crate::hash::shard_of`]); the router groups the batch per shard,
//! forwards one sub-`REC` per owning shard, and reassembles the
//! responses **in request order**, relaying each replica's response line
//! *byte-for-byte*. No reparse/rerender step touches the payload, which is
//! why a routed response is bit-identical to asking the owning replica
//! directly — the parity property the chaos load generator asserts
//! hex-exactly.
//!
//! # Replica sets and failover
//!
//! Each shard is backed by an ordered replica set (primary first). All
//! replicas of a set serve the same checkpoint directory, so any of them
//! answers with the **same bits** — failover is therefore invisible to the
//! client. A sub-request walks the shard's serving-eligible replicas in
//! the deterministic [`crate::health::failover_order`]: the primary gets
//! bounded retries for transient errors, a replica that *times out* is
//! abandoned immediately (a hung process is not a transient error), and
//! the next replica in order takes over **within the same request**.
//! Replicas whose probed checkpoint generation lags the set are marked
//! degraded and skipped — a stale answer would silently break bit-parity,
//! which is strictly worse than trying the next replica.
//!
//! # Deadline budgets
//!
//! Every request line gets one [`Deadline`] when it is accepted; connect
//! timeouts, socket I/O timeouts, and backoff sleeps all clamp themselves
//! to its remaining budget, across every retry and every failover hop. A
//! request can therefore never burn more than `request_budget` of wall
//! clock, no matter how many replicas misbehave; when the budget runs out
//! the router answers `ERR deadline …` — typed, and distinct from
//! `ERR down …` (no serving-eligible replica at all).
//!
//! # Failure semantics
//!
//! Failures feed the [`HealthBoard`]; once every replica of a shard is
//! down the router *fast-fails* that shard's users with `ERR down` — no
//! network, no backoff — so a dead shard degrades only its own users and
//! cannot drag the tail latency of the others. The background prober
//! keeps asking down replicas for `STATS`; the moment one answers (same
//! address, or a replacement installed via `REPLACE` on the **admin
//! listener**), it rejoins the failover order — no router restart, no
//! connection churn for the surviving shards.
//!
//! # The admin surface
//!
//! `REPLACE <shard> [<replica>] <addr>` re-points a replica at a new
//! address (the rejoin path for a process respawned on a new ephemeral
//! port). It is accepted **only** on the admin listener — a separate,
//! loopback-bound port — because any client that can repoint a shard owns
//! the serving tier. On the public port the verb answers a typed
//! `ERR admin …` and touches nothing.

use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use graphaug_serve::net::{listen, ListenerHandle, Next, Reply};
use graphaug_serve::proto::{parse_request, Request};
use graphaug_serve::{stats_field, ServeClient};

use crate::deadline::Deadline;
use crate::hash::shard_of;
use crate::health::{spawn_prober, HealthBoard, Prober};

/// Tunables for one router instance.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Per-shard replica sets, primary first, in shard order.
    pub replica_sets: Vec<Vec<String>>,
    /// Health probe cadence.
    pub probe_period: Duration,
    /// Connect timeout for downstream connections and probes.
    pub connect_timeout: Duration,
    /// Per-read/write timeout on downstream sockets (a hung replica must
    /// not wedge a routed connection).
    pub io_timeout: Duration,
    /// Extra attempts per replica after the first failure (total attempts
    /// per replica = retries+1). Timeouts skip the remaining retries and
    /// fail over instead.
    pub retries: u32,
    /// First retry delay; doubles per attempt.
    pub backoff: Duration,
    /// Consecutive failures before a replica is marked down.
    pub down_after: u32,
    /// Wall-clock budget for one request line, across every retry and
    /// failover hop. Exhaustion answers a typed `ERR deadline …`.
    pub request_budget: Duration,
}

impl RouterConfig {
    /// Defaults tuned for loopback CI: fast probes, tight timeouts. Each
    /// entry is one shard's replica set in the shared addressing syntax
    /// (`"primary|secondary"`; a plain address is a set of one).
    pub fn new(replicas: Vec<String>) -> RouterConfig {
        Self::from_sets(
            replicas
                .iter()
                .map(|spec| spec.split('|').map(str::to_string).collect())
                .collect(),
        )
    }

    /// Builds a config from explicit per-shard replica sets.
    pub fn from_sets(replica_sets: Vec<Vec<String>>) -> RouterConfig {
        RouterConfig {
            replica_sets,
            probe_period: Duration::from_millis(25),
            connect_timeout: Duration::from_millis(500),
            io_timeout: Duration::from_secs(2),
            retries: 2,
            backoff: Duration::from_millis(10),
            down_after: 2,
            request_budget: Duration::from_secs(5),
        }
    }

    /// Sets the probe cadence.
    pub fn probe_period(mut self, period: Duration) -> RouterConfig {
        self.probe_period = period;
        self
    }

    /// Sets the per-request deadline budget.
    pub fn request_budget(mut self, budget: Duration) -> RouterConfig {
        self.request_budget = budget;
        self
    }
}

/// Shared router state: config, health, counters.
pub struct Router {
    cfg: RouterConfig,
    health: Arc<HealthBoard>,
    /// User-lines accepted for routing (one `REC a,b,c k` counts 3).
    requests: AtomicU64,
    /// User-lines offered to each shard (including ones that later failed).
    shard_requests: Vec<AtomicU64>,
    /// `ERR` lines the router itself generated (shard down / deadline /
    /// exhausted retries) — replica-produced `ERR` lines are relayed, not
    /// counted.
    router_errors: AtomicU64,
    /// Sub-requests answered by a non-primary replica — the live count of
    /// "a secondary covered for the primary".
    failovers: AtomicU64,
    /// Router-generated `ERR deadline` user-lines (also counted in
    /// `router_errors`).
    deadline_errors: AtomicU64,
}

impl Router {
    /// Builds the shared state for `cfg`.
    pub fn new(cfg: RouterConfig) -> Arc<Router> {
        let health = Arc::new(HealthBoard::new(&cfg.replica_sets, cfg.down_after));
        let shard_requests = (0..cfg.replica_sets.len())
            .map(|_| AtomicU64::new(0))
            .collect();
        Arc::new(Router {
            health,
            shard_requests,
            requests: AtomicU64::new(0),
            router_errors: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            deadline_errors: AtomicU64::new(0),
            cfg,
        })
    }

    /// Number of shards routed across (the hash modulus — never the total
    /// replica count).
    pub fn n_shards(&self) -> usize {
        self.cfg.replica_sets.len()
    }

    /// The shared health board (tests, benches, and the prober).
    pub fn health(&self) -> &Arc<HealthBoard> {
        &self.health
    }

    /// Per-shard routed user-line counts.
    pub fn shard_request_counts(&self) -> Vec<u64> {
        self.shard_requests
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Sub-requests answered by a non-primary replica so far.
    pub fn failover_count(&self) -> u64 {
        self.failovers.load(Ordering::Relaxed)
    }

    /// Router-generated `ERR deadline` user-lines so far.
    pub fn deadline_error_count(&self) -> u64 {
        self.deadline_errors.load(Ordering::Relaxed)
    }
}

/// A typed routing failure — the error the *router* generates when it
/// cannot get an answer out of a shard's replica set. Replica-produced
/// `ERR` lines are relayed verbatim and never take this form.
#[derive(Debug)]
enum ShardError {
    /// No serving-eligible replica (all down, or down/degraded).
    Down { shard: usize },
    /// The request's deadline budget ran out across retry/failover.
    Deadline {
        shard: usize,
        budget_ms: u64,
        elapsed_ms: u64,
    },
    /// Every serving-eligible replica failed its bounded attempts.
    Exhausted {
        shard: usize,
        attempts: u32,
        last: String,
    },
}

impl ShardError {
    /// The machine-readable kind token (`graphaug_serve::err_kind` parses
    /// it back out client-side). Exhausted retries render as `down`: from
    /// the client's perspective the shard is unreachable either way, and
    /// `deadline` is reserved for "ran out of *time*", not "ran out of
    /// replicas".
    fn kind(&self) -> &'static str {
        match self {
            ShardError::Down { .. } | ShardError::Exhausted { .. } => "down",
            ShardError::Deadline { .. } => "deadline",
        }
    }
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Down { shard } => write!(f, "shard {shard} down"),
            ShardError::Deadline {
                shard,
                budget_ms,
                elapsed_ms,
            } => write!(
                f,
                "budget {budget_ms}ms exhausted at shard {shard} after {elapsed_ms}ms"
            ),
            ShardError::Exhausted {
                shard,
                attempts,
                last,
            } => write!(
                f,
                "shard {shard} unavailable after {attempts} attempts: {last}"
            ),
        }
    }
}

/// One router connection's cache of downstream connections, keyed by the
/// address epoch so a `REPLACE`d replica reconnects to the new address
/// instead of writing into a dead socket.
struct Downstream {
    conns: Vec<Vec<Option<(u64, ServeClient)>>>,
}

impl Downstream {
    fn new(cfg: &RouterConfig) -> Downstream {
        Downstream {
            conns: cfg
                .replica_sets
                .iter()
                .map(|set| set.iter().map(|_| None).collect())
                .collect(),
        }
    }

    fn drop_conn(&mut self, shard: usize, replica: usize) {
        self.conns[shard][replica] = None;
    }

    /// A live connection to `(shard, replica)`'s current address, reusing
    /// the cached one when its address epoch still matches. Socket
    /// timeouts — fresh or cached — are clamped to the request deadline's
    /// remaining budget.
    fn conn(
        &mut self,
        shard: usize,
        replica: usize,
        router: &Router,
        deadline: &Deadline,
    ) -> io::Result<&mut ServeClient> {
        let (addr, epoch) = router.health.addr(shard, replica);
        let io_timeout = deadline.clamp(router.cfg.io_timeout);
        let reusable = matches!(&self.conns[shard][replica], Some((e, _)) if *e == epoch);
        if reusable {
            self.conns[shard][replica]
                .as_ref()
                .expect("checked reusable")
                .1
                .set_io_timeout(Some(io_timeout))?;
        } else {
            let client = ServeClient::connect_with_timeouts(
                &addr,
                deadline.clamp(router.cfg.connect_timeout),
                Some(io_timeout),
            )?;
            self.conns[shard][replica] = Some((epoch, client));
        }
        Ok(&mut self.conns[shard][replica].as_mut().expect("just ensured").1)
    }
}

/// Is this I/O error a timeout (as opposed to a refused/reset/EOF class
/// transient)? Timeouts abandon the replica immediately — a hung process
/// does not get retried, it gets failed over.
fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
    )
}

/// Forwards one already-grouped sub-request to `shard` under `deadline`:
/// walks the deterministic failover order, giving each serving-eligible
/// replica bounded retry-with-backoff (timeouts skip straight to the next
/// replica). Success relays the replica's raw lines; failure returns the
/// typed shard error.
fn forward_to_shard(
    router: &Router,
    down: &mut Downstream,
    shard: usize,
    line: &str,
    n_lines: usize,
    deadline: &Deadline,
) -> Result<Vec<String>, ShardError> {
    let deadline_err = || ShardError::Deadline {
        shard,
        budget_ms: deadline.budget().as_millis() as u64,
        elapsed_ms: deadline.elapsed().as_millis() as u64,
    };
    let candidates = router.health.serving_order(shard);
    if candidates.is_empty() {
        return Err(ShardError::Down { shard });
    }
    let mut attempts = 0u32;
    let mut last = String::new();
    for &replica in &candidates {
        let mut delay = router.cfg.backoff;
        for attempt in 0..=router.cfg.retries {
            if deadline.expired() {
                return Err(deadline_err());
            }
            if attempt > 0 {
                std::thread::sleep(delay.min(deadline.remaining()));
                delay *= 2;
                if deadline.expired() {
                    return Err(deadline_err());
                }
                if !router.health.is_up(shard, replica) {
                    // Marked down while we were backing off — stop burning
                    // retries on a replica the prober has already given up
                    // on and fail over to the next candidate.
                    break;
                }
            }
            attempts += 1;
            match down
                .conn(shard, replica, router, deadline)
                .and_then(|c| c.request_lines(line, n_lines))
            {
                Ok(lines) => {
                    router.health.report_ok(shard, replica);
                    if replica != 0 {
                        router.failovers.fetch_add(1, Ordering::Relaxed);
                    }
                    return Ok(lines);
                }
                Err(e) => {
                    down.drop_conn(shard, replica);
                    router.health.report_failure(shard, replica);
                    let timed_out = is_timeout(&e);
                    last = e.to_string();
                    if timed_out {
                        // A hung replica already cost us its clamped I/O
                        // timeout; retrying it would burn the rest of the
                        // budget for nothing. Fail over now.
                        break;
                    }
                }
            }
        }
    }
    if deadline.expired() {
        return Err(deadline_err());
    }
    Err(ShardError::Exhausted {
        shard,
        attempts,
        last,
    })
}

/// Routes one `REC`/`RECX` batch: group by owning shard, forward with the
/// client's verb intact (an exact-oracle request must stay exact on the
/// replica), reassemble in request order. Always returns exactly one line
/// per requested user. The whole batch shares one deadline budget.
fn route_rec(
    router: &Router,
    down: &mut Downstream,
    users: &[u32],
    k: usize,
    exact: bool,
) -> Vec<String> {
    let n = router.n_shards();
    let deadline = Deadline::new(router.cfg.request_budget);
    router
        .requests
        .fetch_add(users.len() as u64, Ordering::Relaxed);
    let mut groups: Vec<Vec<(usize, u32)>> = (0..n).map(|_| Vec::new()).collect();
    for (slot, &user) in users.iter().enumerate() {
        groups[shard_of(user, n)].push((slot, user));
    }
    let mut lines: Vec<Option<String>> = (0..users.len()).map(|_| None).collect();
    for (shard, group) in groups.iter().enumerate() {
        if group.is_empty() {
            continue;
        }
        router.shard_requests[shard].fetch_add(group.len() as u64, Ordering::Relaxed);
        let list = group
            .iter()
            .map(|&(_, u)| u.to_string())
            .collect::<Vec<_>>()
            .join(",");
        let verb = if exact { "RECX" } else { "REC" };
        match forward_to_shard(
            router,
            down,
            shard,
            &format!("{verb} {list} {k}"),
            group.len(),
            &deadline,
        ) {
            Ok(replies) => {
                for (&(slot, _), reply) in group.iter().zip(replies) {
                    lines[slot] = Some(reply);
                }
            }
            Err(e) => {
                router
                    .router_errors
                    .fetch_add(group.len() as u64, Ordering::Relaxed);
                if matches!(e, ShardError::Deadline { .. }) {
                    router
                        .deadline_errors
                        .fetch_add(group.len() as u64, Ordering::Relaxed);
                }
                for &(slot, user) in group {
                    lines[slot] = Some(format!("ERR {} user {user}: {e}", e.kind()));
                }
            }
        }
    }
    lines
        .into_iter()
        .map(|l| l.expect("every slot is grouped exactly once"))
        .collect()
}

/// Routes `STATS`: queries each up shard's serving replica (failover
/// included), merges table shape and resident `table_bytes` (max — the
/// replicas serve the same model), and appends router-level counters plus
/// the per-shard serving/health/generation breakdown.
fn route_stats(router: &Router, down: &mut Downstream) -> String {
    let n = router.n_shards();
    let (mut gen, mut users, mut items, mut table_bytes) = (0u64, 0u64, 0u64, 0u64);
    let (mut ingested, mut log_offset, mut finetunes) = (0u64, 0u64, 0u64);
    let mut states: Vec<&'static str> = Vec::with_capacity(n);
    for shard in 0..n {
        let deadline = Deadline::new(router.cfg.request_budget);
        let line = if router.health.shard_up(shard) {
            forward_to_shard(router, down, shard, "STATS", 1, &deadline)
                .ok()
                .and_then(|mut v| v.pop())
        } else {
            None
        };
        match line {
            Some(line) => {
                let field = |key| {
                    stats_field(&line, key)
                        .and_then(|v| v.parse::<u64>().ok())
                        .unwrap_or(0)
                };
                gen = gen.max(field("gen="));
                users = users.max(field("users="));
                items = items.max(field("items="));
                table_bytes = table_bytes.max(field("table_bytes="));
                // Online-learning progress: every shard serves the same
                // model, so max-merge mirrors the gen= convention (the
                // most-advanced replica's view).
                ingested = ingested.max(field("ingested="));
                log_offset = log_offset.max(field("log_offset="));
                finetunes = finetunes.max(field("finetunes="));
                states.push("up");
            }
            None => states.push("down"),
        }
    }
    let health = router.health();
    let serving = (0..n)
        .map(|s| {
            health
                .serving_replica(s)
                .map_or_else(|| "-".to_string(), |r| r.to_string())
        })
        .collect::<Vec<_>>()
        .join(",");
    let replica_states = (0..n)
        .map(|s| {
            health
                .shard_states(s)
                .iter()
                .map(|st| st.as_str())
                .collect::<Vec<_>>()
                .join("|")
        })
        .collect::<Vec<_>>()
        .join(",");
    let replica_gens = (0..n)
        .map(|s| {
            (0..health.n_replicas(s))
                .map(|r| health.generation(s, r).to_string())
                .collect::<Vec<_>>()
                .join("|")
        })
        .collect::<Vec<_>>()
        .join(",");
    let shard_requests = router
        .shard_request_counts()
        .iter()
        .map(|c| c.to_string())
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "STATS gen={gen} users={users} items={items} table_bytes={table_bytes} \
         ingested={ingested} log_offset={log_offset} finetunes={finetunes} shards={n} up={} \
         requests={} errors={} deadline_errors={} failovers={} serving={serving} replicas={} \
         replica_states={replica_states} replica_gens={replica_gens} \
         shard_requests={shard_requests}",
        states.iter().filter(|s| **s == "up").count(),
        router.requests.load(Ordering::Relaxed),
        router.router_errors.load(Ordering::Relaxed),
        router.deadline_errors.load(Ordering::Relaxed),
        router.failovers.load(Ordering::Relaxed),
        states.join(","),
    )
}

/// Handles the admin-only `REPLACE <shard> [<replica>] <addr>` verb (the
/// two-argument form re-points the primary, replica 0). Returns the
/// response line.
fn handle_replace(router: &Router, rest: &str) -> String {
    let parts: Vec<&str> = rest.split_ascii_whitespace().collect();
    let (shard_s, replica_s, addr) = match parts.as_slice() {
        [shard, addr] => (*shard, "0", *addr),
        [shard, replica, addr] => (*shard, *replica, *addr),
        _ => return "ERR REPLACE needs <shard> [<replica>] <addr>".to_string(),
    };
    let Ok(shard) = shard_s.parse::<usize>() else {
        return format!("ERR bad shard {shard_s:?}");
    };
    let Ok(replica) = replica_s.parse::<usize>() else {
        return format!("ERR bad replica {replica_s:?}");
    };
    if shard >= router.n_shards() {
        return format!(
            "ERR unknown shard {shard} (router has {})",
            router.n_shards()
        );
    }
    if replica >= router.health.n_replicas(shard) {
        return format!(
            "ERR unknown replica {replica} (shard {shard} has {})",
            router.health.n_replicas(shard)
        );
    }
    match graphaug_serve::resolve_addr(addr) {
        Ok(_) => {
            router.health.replace(shard, replica, addr);
            format!("OK shard={shard} replica={replica} addr={addr}")
        }
        Err(e) => format!("ERR {e}"),
    }
}

/// Appends the response line(s) for one request. `admin` selects the
/// surface: `REPLACE` is honored only on the admin listener and answers a
/// typed `ERR admin …` on the public port.
fn respond(
    router: &Router,
    down: &mut Downstream,
    line: &str,
    reply: &mut Reply,
    admin: bool,
) -> Next {
    if let Some(rest) = line.strip_prefix("REPLACE") {
        if admin {
            reply.line(handle_replace(router, rest));
        } else {
            reply.line("ERR admin REPLACE is admin-only (connect to the admin listener)");
        }
        return Next::Continue;
    }
    match parse_request(line) {
        Ok(Request::Rec { users, k, exact }) => {
            for routed in route_rec(router, down, &users, k, exact) {
                reply.line(routed);
            }
        }
        Ok(Request::Stats) => reply.line(route_stats(router, down)),
        Ok(Request::Ping) => reply.line("PONG"),
        Ok(Request::Quit) => {
            reply.line("BYE");
            return Next::Close;
        }
        Err(msg) => reply.line(format_args!("ERR {msg}")),
    }
    Next::Continue
}

/// A running router; dropping (or calling [`RouterHandle::stop`]) shuts
/// both accept loops and the prober down, in that order. Open connections
/// finish on their own threads.
pub struct RouterHandle {
    public: ListenerHandle,
    admin: ListenerHandle,
    _prober: Prober,
}

impl RouterHandle {
    /// The bound public (serving) address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.public.addr()
    }

    /// The bound admin address — loopback, `REPLACE` lives here.
    pub fn admin_addr(&self) -> SocketAddr {
        self.admin.addr()
    }

    /// Stops accepting, joins both accept loops, and stops the prober.
    pub fn stop(self) {}
}

/// One listener of the router: each connection gets its own [`Downstream`]
/// cache, so replica connections are never shared between clients.
fn listen_surface(
    router: Arc<Router>,
    addr: &str,
    thread_name: &str,
    admin: bool,
) -> io::Result<ListenerHandle> {
    listen(addr, thread_name, move || {
        let router = router.clone();
        let mut down = Downstream::new(&router.cfg);
        move |line: &str, reply: &mut Reply| respond(&router, &mut down, line, reply, admin)
    })
}

/// Binds `addr` (e.g. `127.0.0.1:0`) and serves `router` until the handle
/// is stopped, with the admin surface on an ephemeral loopback port (see
/// [`start_with_admin`] to pin it).
pub fn start(router: Arc<Router>, addr: &str) -> io::Result<RouterHandle> {
    start_with_admin(router, addr, "127.0.0.1:0")
}

/// Binds the public listener on `addr` and the admin listener on
/// `admin_addr` — which **must** resolve to loopback addresses only: the
/// admin surface can re-point shards, so exposing it beyond the box that
/// runs the router is refused outright (before anything is bound) rather
/// than merely discouraged. Two listeners plus the background health
/// prober.
pub fn start_with_admin(
    router: Arc<Router>,
    addr: &str,
    admin_addr: &str,
) -> io::Result<RouterHandle> {
    if !admin_addr.to_socket_addrs()?.all(|a| a.ip().is_loopback()) {
        return Err(io::Error::other(format!(
            "admin listener must bind a loopback address, got {admin_addr}"
        )));
    }
    let public = listen_surface(router.clone(), addr, "graphaug-router", false)?;
    let admin = listen_surface(router.clone(), admin_addr, "graphaug-router-admin", true)?;
    let prober = spawn_prober(
        router.health.clone(),
        router.cfg.probe_period,
        router.cfg.connect_timeout,
    );
    Ok(RouterHandle {
        public,
        admin,
        _prober: prober,
    })
}
