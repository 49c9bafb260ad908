//! Shard router + HA layer for multi-replica GraphAug serving.
//!
//! One `graphaug-serve` engine is one model replica: one checkpoint
//! directory, one box's worth of tables and threads. This crate scales the
//! serving tier *past* one replica — and keeps it answering through
//! process death — with the smallest possible moving parts:
//!
//! 1. **Deterministic sharding** ([`hash::shard_of`]): each user hashes to
//!    its owning shard with a process-independent hash — the same function
//!    the chaos load generator and the tests link, so "who owns user `u`"
//!    has exactly one answer everywhere.
//! 2. **Byte-for-byte relay** ([`router`]): the router speaks the existing
//!    `REC`/`STATS`/`PING`/`QUIT` protocol on both sides and relays
//!    replica response lines verbatim, so routed responses are
//!    bit-identical to direct ones.
//! 3. **Replica sets with in-request failover** ([`health`], [`router`]):
//!    each shard is an ordered set of replicas (primary first) serving the
//!    same checkpoint generation; when the primary dies or hangs, the
//!    router fails over to a secondary *within the same request* — and
//!    because the replicas serve the same bits, the client cannot tell. A
//!    background `STATS` prober tracks per-replica health and checkpoint
//!    generation; a secondary whose generation lags its set is marked
//!    degraded and skipped rather than served stale.
//! 4. **Deadline budgets** ([`deadline`]): every request carries one
//!    [`deadline::Deadline`]; connect timeouts, socket I/O, and backoff
//!    sleeps all clamp to its remaining budget across retry and failover,
//!    so a request can never burn more than `request_budget` of wall
//!    clock. Exhaustion answers a typed `ERR deadline …`, distinct from
//!    `ERR down …`.
//! 5. **A loopback-only admin surface**: `REPLACE <shard> [<replica>]
//!    <addr>` re-points a replica that respawned on a new port — accepted
//!    only on the separate admin listener; the public port answers a typed
//!    `ERR admin …`.
//! 6. **A supervisor** ([`supervise`]): owns the replica child processes —
//!    spawn, liveness-watch (exit + `PING`), respawn with seeded
//!    exponential backoff + jitter under a restart budget, and automatic
//!    `REPLACE` when the respawn lands on a new ephemeral port. The
//!    `supervisord` binary is the one-command HA deployment: it spawns
//!    `shards × replication` replicas, boots the router in-process, and
//!    babysits everything.
//!
//! The binaries: `router_main` (a standalone router in front of
//! already-running replicas), `supervisord` (replicas + router + respawn
//! loop in one process), `chaos_loadgen` (a seeded scenario driver —
//! zipfian skew, hot-key storms, scripted kill/rejoin timelines — that
//! asserts zero errors outside the allowed window and hex-exact
//! routed-vs-direct parity), and `mock_replica` (a protocol-faithful
//! stand-in engine for supervisor tests and benches).

pub mod deadline;
pub mod hash;
pub mod health;
pub mod router;
pub mod supervise;

pub use deadline::{Deadline, MIN_IO_TIMEOUT};
pub use hash::{parse_replica_sets, shard_of, SHARD_HASH_SALT};
pub use health::{failover_order, probe_once, spawn_prober, HealthBoard, Prober, ReplicaHealth};
pub use router::{start, start_with_admin, Router, RouterConfig, RouterHandle};
pub use supervise::{
    admin_replace, backoff_with_jitter, spawn_ready, ChildGuard, Supervisor, SupervisorConfig,
    SupervisorStats,
};
