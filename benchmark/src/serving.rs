//! The serving fixture shared by `rec_cold` and `rec_hot`: a fixed
//! catalog, a model really trained and checkpointed in set-up, replicas
//! booted through the same library entry points the `serve_main` /
//! `router_main` binaries call, the closed-loop driver, and the output
//! checks against the in-process tables.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use graphaug_core::GraphAugConfig;
use graphaug_data::{generate, SyntheticConfig};
use graphaug_graph::InteractionGraph;
use graphaug_router::{Router, RouterConfig, RouterHandle};
use graphaug_runtime::{Runtime, RuntimeConfig};
use graphaug_serve::{
    ok_line, parse_ok_line, serve, Engine, IvfParams, ModelSource, ModelTables, QuantParams,
    Recommendation, ServeClient, ServerHandle,
};

use crate::gen::{RecReq, RecStream};
use crate::stats::{fast_rate, ns32};

// The catalog is fixed, not drawn from `--seed`: the seed varies the
// request stream the program receives, while the model it serves stays the
// same, so runs on different seeds measure the same tables. Sized so
// scoring dominates a miss (exact scan ≈ 10× the quantized IVF probe) and
// so the ANN recall and quantization drift gates clear their shipped 0.9
// floors with ≥ 0.03 to spare (0.97 / 0.97 at these settings; 8 steps on
// 60k interactions with the auto nprobe of 16 sat at 0.90).
pub const N_USERS: usize = 2048;
pub const N_ITEMS: usize = 16384;
const INTERACTIONS: usize = 60_000;
const CLUSTERS: usize = 32;
const CATALOG_SEED: u64 = 1;
const TRAIN_STEPS: usize = 8;
const NPROBE: usize = 32;
/// The gates' shipped floor plus the margin the fixture must keep.
const GATE_FLOOR_WITH_MARGIN: f64 = 0.93;

/// A trained, checkpointed model on disk.
pub struct Model {
    pub cfg: GraphAugConfig,
    pub graph: InteractionGraph,
    pub ckpt_dir: PathBuf,
}

impl Model {
    /// Generates the catalog, trains [`TRAIN_STEPS`] steps with the
    /// default (all three losses) configuration and publishes one
    /// checkpoint under `dir`.
    pub fn train(dir: &Path) -> Result<Model, String> {
        let graph = generate(
            &SyntheticConfig::new(N_USERS, N_ITEMS, INTERACTIONS)
                .clusters(CLUSTERS)
                .seed(CATALOG_SEED),
        );
        let cfg = GraphAugConfig::new()
            .seed(CATALOG_SEED)
            .epochs(1)
            .steps_per_epoch(TRAIN_STEPS);
        let ckpt_dir = dir.join("ckpt");
        let mut rt = Runtime::new(
            RuntimeConfig::new(cfg.clone()).checkpoint_dir(&ckpt_dir),
            &graph,
        )
        .map_err(|e| format!("runtime: {e}"))?;
        let report = rt.run().map_err(|e| format!("training: {e}"))?;
        if report.step_losses.len() != TRAIN_STEPS || report.checkpoints_written == 0 {
            return Err("fixture training withheld a step or wrote no checkpoint".into());
        }
        Ok(Model {
            cfg,
            graph,
            ckpt_dir,
        })
    }

    /// Removes the directory the model was trained into.
    pub fn remove(self) {
        let _ = std::fs::remove_dir_all(self.ckpt_dir.parent().expect("ckpt dir has a parent"));
    }

    /// ANN + int8 tables attached at their shipped default floors.
    pub fn source(&self) -> ModelSource {
        ModelSource::new(self.cfg.clone(), self.graph.clone(), &self.ckpt_dir)
            .ann(IvfParams::new().nprobe(NPROBE))
            .quant(QuantParams::new())
    }
}

/// One engine behind its TCP listener.
pub struct Replica {
    pub engine: Arc<Engine>,
    pub server: ServerHandle,
}

impl Replica {
    pub fn boot(model: &Model) -> Result<Replica, String> {
        let engine = Arc::new(Engine::open(model.source()).map_err(|e| format!("engine: {e}"))?);
        let server = serve(engine.clone(), "127.0.0.1:0").map_err(|e| format!("serve: {e}"))?;
        Ok(Replica { engine, server })
    }

    pub fn addr(&self) -> String {
        self.server.addr().to_string()
    }

    pub fn connect(&self) -> Result<ServeClient, String> {
        ServeClient::connect(&self.addr()).map_err(|e| format!("connect replica: {e}"))
    }

    /// Both gates passed with the stated margin, as the tables report it.
    pub fn gates_clear(&self) -> Result<(f64, f64), String> {
        let tables = self.engine.tables();
        let ann = tables.ann().ok_or("no ANN index attached")?;
        let quant = tables.quant().ok_or("no quantized tables attached")?;
        let (recall, drift) = (ann.build_recall(), quant.build_drift());
        if !ann.enabled() || !quant.enabled() || recall.min(drift) < GATE_FLOOR_WITH_MARGIN {
            return Err(format!(
                "gates too close to their floors: ann recall {recall:.3}, quant drift {drift:.3} \
                 (want both ≥ {GATE_FLOOR_WITH_MARGIN})"
            ));
        }
        Ok((recall, drift))
    }
}

pub const SHARDS: usize = 2;
pub const REPLICAS_PER_SHARD: usize = 2;

/// `router::start` in front of 2 shards × 2 replicas of one checkpoint.
pub struct Cluster {
    /// Shard-major: `[s0 primary, s0 secondary, s1 primary, s1 secondary]`.
    pub replicas: Vec<Replica>,
    pub router: Arc<Router>,
    pub handle: RouterHandle,
}

impl Cluster {
    pub fn boot(model: &Model) -> Result<Cluster, String> {
        let replicas = (0..SHARDS * REPLICAS_PER_SHARD)
            .map(|_| Replica::boot(model))
            .collect::<Result<Vec<_>, _>>()?;
        let sets: Vec<Vec<String>> = replicas
            .chunks(REPLICAS_PER_SHARD)
            .map(|set| set.iter().map(Replica::addr).collect())
            .collect();
        let router = Router::new(RouterConfig::from_sets(sets));
        let handle = graphaug_router::start(router.clone(), "127.0.0.1:0")
            .map_err(|e| format!("router: {e}"))?;
        Ok(Cluster {
            replicas,
            router,
            handle,
        })
    }

    pub fn connect(&self) -> Result<ServeClient, String> {
        ServeClient::connect(&self.handle.addr().to_string())
            .map_err(|e| format!("connect router: {e}"))
    }

    pub fn stop(self) {
        self.handle.stop();
        for r in self.replicas {
            r.server.stop();
        }
    }
}

/// Client-observed latencies of one closed-loop window, by line kind.
#[derive(Default)]
pub struct Load {
    pub single: Vec<u32>,
    pub exact: Vec<u32>,
    pub batch: Vec<u32>,
    pub lines: u64,
    pub lists: u64,
    pub failed: u64,
    /// Every `mark_every` lines (0 = never), `(seconds into the window,
    /// lists so far)`: the stretches `lists_per_s` is the fast decile of.
    mark_every: u64,
    pub marks: Vec<(f64, u64)>,
}

impl Load {
    pub fn marking_every(lines: u64) -> Load {
        Load {
            mark_every: lines,
            ..Load::default()
        }
    }

    /// Lists per second: the [`fast_rate`] of the stretches between marks.
    pub fn lists_per_s(&self) -> Result<f64, String> {
        fast_rate(&self.marks).ok_or_else(|| "the window is too short for a rate".to_string())
    }
}

pub enum Stop {
    At(Instant),
    After(u64),
}

/// One closed-loop connection: send a line, read every reply line, record
/// the round trip, then check each reply echoes the request on the
/// expected generation. Returns the window length in seconds.
pub fn drive(
    client: &mut ServeClient,
    stream: &mut dyn RecStream,
    generation: u64,
    stop: Stop,
    load: &mut Load,
) -> Result<f64, String> {
    let mut line = String::new();
    let mut replies: Vec<String> = Vec::new();
    let started = Instant::now();
    let mut sent = 0u64;
    if load.mark_every > 0 {
        load.marks.push((0.0, load.lists));
    }
    loop {
        match stop {
            Stop::At(deadline) if Instant::now() >= deadline => break,
            Stop::After(n) if sent >= n => break,
            _ => {}
        }
        let req = stream.next_req();
        req.line_into(&mut line);
        replies.clear();
        let t = Instant::now();
        client
            .send_line(&line)
            .map_err(|e| format!("send {line:?}: {e}"))?;
        for _ in 0..req.users.len() {
            replies.push(
                client
                    .read_line()
                    .map_err(|e| format!("reply to {line:?}: {e}"))?,
            );
        }
        let ns = ns32(t.elapsed());
        sent += 1;
        match (req.users.len(), req.exact) {
            (1, false) => load.single.push(ns),
            (1, true) => load.exact.push(ns),
            _ => load.batch.push(ns),
        }
        load.lines += 1;
        load.lists += req.users.len() as u64;
        if load.mark_every > 0 && sent.is_multiple_of(load.mark_every) {
            load.marks
                .push((started.elapsed().as_secs_f64(), load.lists));
        }
        for (user, reply) in req.users.iter().zip(&replies) {
            let want = format!("OK gen={generation} user={user} k={} ", req.k);
            if !reply.starts_with(&want) {
                load.failed += 1;
            }
        }
    }
    Ok(started.elapsed().as_secs_f64())
}

/// The `OK` line the in-process tables produce for one list — what every
/// served reply must equal byte for byte.
pub fn expected_line(
    tables: &ModelTables,
    user: u32,
    k: usize,
    exact: bool,
) -> Result<String, String> {
    let items = if exact {
        tables.top_k(user, k)
    } else {
        tables.top_k_quant(user, k).map(|(items, _)| items)
    }
    .map_err(|e| format!("in-process top-k for user {user}: {e}"))?;
    Ok(ok_line(&Recommendation {
        user,
        k,
        generation: tables.generation(),
        items: Arc::new(items),
        from_cache: false,
    }))
}

#[derive(Default)]
pub struct Verified {
    pub lists: u64,
    pub mismatched: u64,
    /// Served items also in the exact top-k, over the exact top-k sizes.
    pub overlap: u64,
    pub exact_total: u64,
}

impl Verified {
    pub fn served_recall(&self) -> f64 {
        self.overlap as f64 / self.exact_total.max(1) as f64
    }
}

/// Sends `reqs` over `wire` and checks every reply line hex-identical to
/// the in-process tables (and, when `direct` is given, identical to the
/// same line sent straight to a replica: routed ≡ direct). Also scores the
/// served fast-path lists against the exact top-k.
pub fn verify(
    reqs: &[RecReq],
    wire: &mut ServeClient,
    mut direct: Option<&mut ServeClient>,
    tables: &ModelTables,
) -> Result<Verified, String> {
    let mut v = Verified::default();
    for req in reqs {
        let line = req.line();
        let served = wire
            .request_lines(&line, req.users.len())
            .map_err(|e| format!("verify {line:?}: {e}"))?;
        let direct_lines = match direct.as_deref_mut() {
            Some(d) => Some(
                d.request_lines(&line, req.users.len())
                    .map_err(|e| format!("verify direct {line:?}: {e}"))?,
            ),
            None => None,
        };
        for (i, (&user, reply)) in req.users.iter().zip(&served).enumerate() {
            v.lists += 1;
            let same_as_direct = direct_lines.as_ref().is_none_or(|d| d[i] == *reply);
            if *reply != expected_line(tables, user, req.k, req.exact)? || !same_as_direct {
                v.mismatched += 1;
                continue;
            }
            if !req.exact {
                let exact = tables.top_k(user, req.k).map_err(|e| e.to_string())?;
                let got = parse_ok_line(reply).ok_or("served line does not parse")?;
                v.exact_total += exact.len() as u64;
                v.overlap += exact
                    .iter()
                    .filter(|e| got.items.iter().any(|g| g.item == e.item))
                    .count() as u64;
            }
        }
    }
    Ok(v)
}
