//! Checkpoint-directory inspector: prints what a serving process or a
//! resume would actually see, so misconfigurations ("why won't it load?")
//! are debuggable without attaching a debugger.
//!
//! For every `ckpt-*.bin` generation (newest first) it prints the format
//! version, payload/checksum status, the [`RunCompat`] identity (users /
//! items / edges / seed / embedding dim), the training progress the file
//! captures, and its served section (table shapes, watermark-graph edges
//! and the section's bytes) — what a server would serve from it, without
//! opening an engine. Exits non-zero when no generation decodes cleanly —
//! the same condition under which `Runtime::resume` or a serving engine
//! would refuse to start.

use std::path::PathBuf;
use std::process::ExitCode;

use graphaug_ingest::args::{self, ArgError};
use graphaug_runtime::{inspect_dir, load_latest_valid, RunCompat, ServedTables};

fn compat_line(c: &RunCompat) -> String {
    format!(
        "users={} items={} edges={} seed={} embed_dim={}",
        c.n_users, c.n_items, c.n_edges, c.seed, c.embed_dim
    )
}

fn served_line(s: &ServedTables) -> String {
    let (ur, uc) = s.user_emb.shape();
    let (ir, ic) = s.item_emb.shape();
    format!(
        "served: users {ur}x{uc} items {ir}x{ic} edges={} bytes={}",
        s.graph.n_interactions(),
        s.section_bytes()
    )
}

const USAGE: &str = "usage: ckpt_inspect <checkpoint-dir>";

fn main() -> ExitCode {
    args::run("ckpt_inspect", USAGE, |mut args| {
        let dir: PathBuf = args.positional("<checkpoint-dir>")?;
        args.finish()?;
        if !dir.is_dir() {
            let reason = format!("{} is not a directory", dir.display());
            return Err(ArgError::invalid("<checkpoint-dir>", reason).into());
        }

        let infos = inspect_dir(&dir);
        if infos.is_empty() {
            return Err(format!("no checkpoint generations under {}", dir.display()).into());
        }
        println!("checkpoint directory: {}", dir.display());
        for info in &infos {
            match &info.status {
                Ok(s) => {
                    println!(
                        "gen {:>8}  {:>10} bytes  v{}  checksum OK   epoch={} steps={}  {}",
                        info.generation,
                        info.bytes,
                        s.format_version,
                        s.epoch,
                        s.steps_taken,
                        compat_line(&s.compat)
                    );
                    println!("{:>14}{}", "", served_line(&s.served));
                }
                Err(e) => {
                    println!(
                        "gen {:>8}  {:>10} bytes  UNUSABLE: {e}",
                        info.generation, info.bytes
                    );
                }
            }
        }
        let (g, state) = load_latest_valid(&dir)
            .ok_or("no valid generation: a resume or serving start here would fail")?;
        println!(
            "newest valid generation: {} (epoch {}, {})",
            g,
            state.epoch,
            compat_line(&state.compat)
        );
        Ok(())
    })
}
