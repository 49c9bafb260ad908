//! Streaming ingestion for the online-learning loop.
//!
//! Three layers, each one step closer to the trainer:
//!
//! * [`log`] — an append-only, checksummed interaction log on disk:
//!   fsync'd segment files framed like the checkpoint format (`GAUGILOG`
//!   magic, FNV-1a-64 per record), with torn-tail truncation on recovery.
//!   Offsets are global record indices, so "the graph at offset `w`" is a
//!   complete, replayable description of an evolving interaction set.
//! * [`delta`] — applies a slice of logged interactions to an
//!   [`graphaug_graph::InteractionGraph`]: ids are bounds-checked, edges
//!   already present are counted as duplicates rather than re-added, and
//!   the rebuilt graph is re-`validate()`d before anyone trains on it.
//! * [`server`] — a line-oriented TCP listener accepting `PUT user item`
//!   with `parse_numeric_edge_list`-grade strictness; every accepted
//!   interaction is durably appended before `OK off=<offset>` goes out.
//!
//! Beside them, [`net`] is the line-server scaffold (accept loop, bounded
//! read-line, reply flushed per request line) that [`server`] and the serving tier's
//! listeners are all built on; it lives here because this is the lowest
//! crate that owns a listener. [`args`] is the same kind of tenant: the
//! one `argv` parser and exit-code rule every binary goes through.
//!
//! The contract that makes online learning reproducible: a log prefix
//! `[0, w)` plus the training seed determines the graph, the sampler
//! streams, and therefore the checkpoint bytes — replaying the same log
//! yields byte-identical generations at any `GRAPHAUG_THREADS`.

pub mod args;
pub mod delta;
pub mod error;
pub mod log;
pub mod net;
pub mod server;

pub use delta::{apply_deltas, DeltaReport};
pub use error::IngestError;
pub use log::{
    fnv1a64, list_segments, log_len, read_range, segment_path, LogWriter, LOG_MAGIC, LOG_VERSION,
    RECORD_BYTES, SEGMENT_HEADER_BYTES,
};
pub use server::{parse_put, start_ingest, IngestHandle, IngestStats, PutRefusal};
