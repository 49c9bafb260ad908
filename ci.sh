#!/usr/bin/env bash
# Offline tier-1 CI gate for the GraphAug workspace.
#
# The workspace is hermetic: every dependency is a local path crate, so the
# whole gate runs with the network hard-disabled. Any accidental
# reintroduction of a registry dependency fails loudly at resolution time
# instead of silently fetching.
#
# Usage: ./ci.sh [GROUP]
#
# GROUP selects a stage group so the GitHub workflow can run (and time out)
# each one as its own step; the default runs everything in order:
#
#   static   cargo fmt --check, clippy -D warnings, one-listener grep,
#            one-probe-loop guard, one-front-door guard, lockfile
#            hermeticity, per-node-scorer guard, intrinsics only in
#            par/src/simd.rs, one f32 row scorer, one propagation
#            operator, one epoch loop, one source of served tables, one
#            experiment path
#   build    cargo build --release
#   tests    full test suite at GRAPHAUG_THREADS={1,3,4} and GRAPHAUG_SIMD=0
#   bench    kernel-bench smoke run (tiny budget) and the bench tools'
#            exit codes
#   process  process-level smokes: one experiment row against its
#            committed CSV, kill/resume, serving parity + loadgen,
#            ANN recall gate + REC/RECX drive, int8 drift gate +
#            quant-parity sweep, shard router + chaos loadgen, supervisor
#            chaos (SIGKILL a replicated primary under load), online
#            ingestion (stream PUTs, fine-tune + hot reload, replay the
#            log from scratch and require hex-identical rankings)
#            (all boot real binaries)
#   e2e      the end-to-end benchmark package (benchmark/): its unit
#            tests, then `run.sh --quick` — every workload's output
#            checks, un-gated timings — and a guard that neither left
#            benchmark/ (its lockfile above all) modified
#   lines    non-test and code line counts per crates/*/src (the table
#            ROADMAP item 4 wants in CHANGES.md); reports, gates nothing,
#            and is not part of the default run
#
# The `tests`/`bench`/`process` groups expect `build` to have run first in
# the same workspace (they use target/release binaries).
set -euo pipefail
cd "$(dirname "$0")"

# Hard-disable the network for every cargo invocation below.
export CARGO_NET_OFFLINE=true

stage() { printf '\n==> %s\n' "$*"; }

# ---------------------------------------------------------------------------
# Shared process-stage helpers: every background binary is registered for
# trap cleanup, so a failing stage can `exit 1` from anywhere without
# leaking processes or temp dirs, and all logs land in one directory the
# workflow uploads as an artifact on failure.
# ---------------------------------------------------------------------------

LOG_DIR="${GRAPHAUG_CI_LOG_DIR:-/tmp/graphaug_ci_logs}"
mkdir -p "$LOG_DIR"

CLEANUP_PIDS=()
CLEANUP_DIRS=()

cleanup() {
    local pid dir
    for pid in "${CLEANUP_PIDS[@]:-}"; do
        [[ -n "$pid" ]] && kill -9 "$pid" 2>/dev/null || true
    done
    for pid in "${CLEANUP_PIDS[@]:-}"; do
        [[ -n "$pid" ]] && wait "$pid" 2>/dev/null || true
    done
    for dir in "${CLEANUP_DIRS[@]:-}"; do
        [[ -n "$dir" ]] && rm -rf "$dir" || true
    done
}
trap cleanup EXIT

register_pid() { CLEANUP_PIDS+=("$1"); }
register_dir() { CLEANUP_DIRS+=("$1"); }

# tmp_dir TAG: a registered (auto-removed) temp directory.
tmp_dir() {
    local dir
    dir="$(mktemp -d "/tmp/graphaug_${1}.XXXXXX")"
    register_dir "$dir"
    printf '%s' "$dir"
}

# wait_for_line LOG PATTERN [PID]: polls LOG until PATTERN appears; fails
# after ~60s, or as soon as PID (when given) exits without producing it.
wait_for_line() {
    local log="$1" pattern="$2" pid="${3:-}"
    local _i
    for _i in $(seq 1 600); do
        grep -q "$pattern" "$log" 2>/dev/null && return 0
        if [[ -n "$pid" ]] && ! kill -0 "$pid" 2>/dev/null; then
            # Lost the race with a fast process: check once more.
            grep -q "$pattern" "$log" 2>/dev/null && return 0
            return 1
        fi
        sleep 0.1
    done
    return 1
}

# boot_bin NAME READY_PATTERN CMD...: starts CMD in the background logging
# to $LOG_DIR/NAME.log, registers the PID for cleanup, and waits until
# READY_PATTERN appears in the log. Sets BOOT_PID and BOOT_LOG.
boot_bin() {
    local name="$1" pattern="$2"
    shift 2
    BOOT_LOG="$LOG_DIR/$name.log"
    : >"$BOOT_LOG"
    "$@" >"$BOOT_LOG" 2>&1 &
    BOOT_PID=$!
    register_pid "$BOOT_PID"
    if ! wait_for_line "$BOOT_LOG" "$pattern" "$BOOT_PID"; then
        echo "ERROR: $name never logged '$pattern'" >&2
        cat "$BOOT_LOG" >&2
        return 1
    fi
}

# ready_addr LOG: the bound address from a `READY addr=...` line.
ready_addr() { sed -n 's/^READY addr=\([^ ]*\).*/\1/p' "$1" | head -n 1; }

# ready_admin LOG: the loopback admin address from a `READY ... admin=...`
# line (router_main and supervisord announce both listeners).
ready_admin() { sed -n 's/^READY .*admin=\([^ ]*\).*/\1/p' "$1" | head -n 1; }

# spawned_field LOG SHARD REPLICA FIELD: FIELD=value from the matching
# `SPAWNED shard=S replica=R pid=... addr=...` supervisor log line.
spawned_field() {
    sed -n "s/^SPAWNED shard=$2 replica=$3 .*$4=\\([^ ]*\\).*/\\1/p" "$1" | head -n 1
}

# ---------------------------------------------------------------------------
# Stage groups.
# ---------------------------------------------------------------------------

# `file:line:text` for every non-test line (before a file's first
# `#[cfg(test)]`, as `lines` counts them) of the .rs files under "$@".
non_test_lines() {
    find "$@" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { in_tests = 0 }
        /#\[cfg\(test\)\]/ { in_tests = 1 }
        !in_tests { print FILENAME ":" FNR ":" $0 }'
}

group_static() {
    stage "cargo fmt --check"
    cargo fmt --all -- --check

    stage "cargo clippy -- -D warnings"
    cargo clippy --workspace --all-targets --offline -- -D warnings

    stage "one listener: accept loops and BufWriters only in net.rs / client.rs"
    # Every TCP endpoint is `graphaug_ingest::net::listen` plus verb
    # handlers (DESIGN.md, "One line server"); a second accept loop or a
    # reply path of its own is how the Nagle stall got copied three times.
    if grep -rnE 'listener\.incoming\(\)|BufWriter' \
        crates/serve/src crates/ingest/src crates/router/src \
        | grep -vE '^crates/(ingest/src/net|serve/src/client)\.rs:'; then
        echo "ERROR: connection plumbing outside net.rs / client.rs" >&2
        exit 1
    fi
    echo "ok: one accept loop, one reply path"

    stage "one wire protocol: verbs, requests and STATS lines only in the proto modules"
    # `graphaug_ingest::proto` parses and spells every request, dispatches
    # PING / QUIT / parse errors / unserved verbs, and renders every STATS
    # line; `serve::proto` renders the OK line (DESIGN.md, "One wire
    # protocol"). A hand-formatted STATS line, a request `format!`, or a verb
    # matched by prefix elsewhere is how `REPLACE0 1 <addr>` once re-pointed
    # a replica. Test modules are exempt: they pin the old bytes.
    if non_test_lines crates/ingest/src crates/serve/src crates/router/src \
        | grep -vE '^crates/(ingest|serve)/src/proto\.rs:' \
        | grep -E '"STATS [a-z_]+=|strip_prefix\("REPLACE|split_once\(char::is_whitespace\)|"(REC|RECX|PUT|REPLACE|\{verb\}) \{'; then
        echo "ERROR: wire protocol parsed, spelled or rendered outside the proto modules" >&2
        exit 1
    fi
    local readers
    readers=$(non_test_lines crates/*/src | grep -cE 'fn [a-z_]*field\b|strip_prefix\(key\)')
    if [ "$readers" -ne 2 ]; then
        non_test_lines crates/*/src | grep -E 'fn [a-z_]*field\b|strip_prefix\(key\)' >&2
        echo "ERROR: one key=value field reader (proto::field), found $readers lines" >&2
        exit 1
    fi
    echo "ok: one parser, one renderer, one dispatcher, one STATS codec, one field reader"

    stage "one probe loop: topk_pairs only in ann.rs, one IVF struct"
    # Both approximate tiers are `Ivf<R>` and rank candidates inside
    # `Ivf::search` (DESIGN.md, "IVF index"); a second candidate loop or a
    # second index struct is the copy ROADMAP 4(d) removed.
    if grep -rn 'topk_pairs' crates/serve/src | grep -v '^crates/serve/src/ann.rs:'; then
        echo "ERROR: a candidate loop outside serve::ann" >&2
        exit 1
    fi
    if grep -rnE 'struct (IvfIndex|QuantIvf)\b' crates/serve/src; then
        echo "ERROR: IvfIndex / QuantIvf must stay aliases of Ivf<R>" >&2
        exit 1
    fi
    echo "ok: one IVF struct, one candidate loop"

    stage "one front door: env::args only in ingest/src/args.rs"
    # Every binary parses argv through `graphaug_ingest::args::run`
    # (DESIGN.md, "One front door"); a second reader is how eight parse
    # loops drifted into `--watch-ms 0` spinning and pids wrapping to 1.
    if grep -rn 'env::args' crates/ | grep -v '^crates/ingest/src/args.rs:'; then
        echo "ERROR: argv read outside ingest/src/args.rs" >&2
        exit 1
    fi
    echo "ok: one argv reader"

    stage "hermeticity: no registry source in Cargo.lock or benchmark/Cargo.lock"
    # Every dependency is a path crate, and a lockfile entry for anything
    # else (registry or git) always carries a `source =` line.
    if grep -n '^source = ' Cargo.lock benchmark/Cargo.lock; then
        echo "ERROR: a non-path dependency in a lockfile" >&2
        exit 1
    fi
    echo "ok: all dependencies are local path crates"

    stage "per-node edge scorer: no per-edge feature gather, no restated dot8"
    # Eq. 4's first layer runs per node (DESIGN.md, "Design choices"); the
    # fused E × 2d pair gather and dot8's partial-sum restatement that only
    # the old matmul_nt kernel used were deleted with it.
    if grep -rnE 'gather_concat_pair|PairGatherPlan|dot8_partial' crates/; then
        echo "ERROR: the per-edge scorer's gather or dot8_partial is back" >&2
        exit 1
    fi
    echo "ok: the scorer projects nodes, not edges"

    stage "intrinsics: std::arch and _mm only in crates/par/src/simd.rs"
    # The two row scorers, score_rows_i8 and score_rows_f32, are the
    # workspace's two hand-written AVX2 builds (DESIGN.md, "Lane kernels");
    # every other kernel is plain Rust that simd_dispatch! compiles twice.
    # I8x32 fixed a reduction order exact integer sums never needed and
    # compiled to the slow kernel it replaced.
    if grep -rnE 'std::arch|_mm' crates/ | grep -v '^crates/par/src/simd.rs:'; then
        echo "ERROR: an intrinsic outside crates/par/src/simd.rs" >&2
        exit 1
    fi
    if grep -rn 'I8x32' crates/; then
        echo "ERROR: I8x32 is back; int8 rows go through score_rows_i8" >&2
        exit 1
    fi
    echo "ok: one audited file of intrinsics, no I8x32"

    stage "one f32 row scorer: no item-row dot outside graphaug_par::score_rows_f32"
    # Every full-catalog scan (evaluation, the exact serving tier, the f32
    # IVF lists, the parity oracles) scores through score_rows_f32, whose
    # portable build is the one ascending `.sum()` chain (DESIGN.md, "Lane
    # kernels"); a restated chain is a scan the lane build never reaches.
    if non_test_lines crates/eval/src/model.rs crates/eval/src/harness.rs crates/serve/src \
        | grep -E 'a \* b\)\.sum'; then
        echo "ERROR: an item-row dot outside score_rows_f32" >&2
        exit 1
    fi
    echo "ok: one f32 row scorer"

    stage "one propagation operator: spmm_ew only in tensor, no *_ew functions"
    # Every graph encoder propagates through `Graph::propagate` over an `Adj`
    # value (DESIGN.md, "One propagation operator"); a direct `.spmm_ew(`
    # call or an `_ew` twin of an encoder is the fork that wrote each
    # encoder once per adjacency kind.
    if grep -rn '\.spmm_ew(' crates/*/src | grep -v '^crates/tensor/src/'; then
        echo "ERROR: spmm_ew called outside crates/tensor/src; propagate an Adj" >&2
        exit 1
    fi
    if grep -rnE 'fn [A-Za-z0-9_]*_ew\b' crates/core/src crates/baselines/src; then
        echo "ERROR: an *_ew function in core or baselines; take an Adj" >&2
        exit 1
    fi
    echo "ok: one propagation operator"

    stage "one epoch loop: for epoch in only in core/src/train.rs, one fn fit_with"
    # Every arm trains through `graphaug_core::fit_with` (DESIGN.md, "One
    # training loop"); a second epoch loop is how the same Adam-on-BPR
    # protocol came to be written four times. `Runtime`'s guarded loop steps
    # one batch at a time and keeps no `for epoch in`.
    if grep -rn 'for epoch in' crates/*/src | grep -v '^crates/core/src/train.rs:'; then
        echo "ERROR: an epoch loop outside crates/core/src/train.rs" >&2
        exit 1
    fi
    if [ "$(grep -rnE 'fn fit_with\b' crates/*/src | wc -l)" -ne 1 ]; then
        grep -rnE 'fn fit_with\b' crates/*/src >&2
        echo "ERROR: fn fit_with must be defined exactly once" >&2
        exit 1
    fi
    echo "ok: one epoch loop"

    stage "one experiment path: no training, model building or CSV writing in bench bins"
    # Every table, figure and `graphaug` subcommand trains and evaluates an
    # `Arm` through `graphaug_bench::run_model` and writes its rows through
    # `experiment` (DESIGN.md, "One experiment path"); a private
    # build-fit-evaluate loop in a binary is an arm that best-epoch
    # selection or multi-seed runs would never reach.
    if grep -rnE '\.fit\(\)|fit_with\(|GraphAug::new\(|build_model\(|write_csv\(' \
        crates/bench/src/bin; then
        echo "ERROR: a bench binary trains, builds or writes outside graphaug_bench's run_model" >&2
        exit 1
    fi
    echo "ok: one experiment path"

    stage "one source of served tables: no log replay or model in serve outside the parity oracle"
    # A generation's frame carries its final tables and watermark graph
    # (DESIGN.md, "Swap protocol"); the engine decodes them. Replaying the log
    # or constructing the model in serve is the rebuild every reload paid
    # for; only serve_main's parity oracle does it, to cross-check the frame.
    if grep -rnE 'read_range|apply_deltas|GraphAug::' crates/serve/src \
        | grep -v '^crates/serve/src/bin/serve_main\.rs:'; then
        echo "ERROR: log replay or model construction in crates/serve/src" >&2
        exit 1
    fi
    echo "ok: one source of served tables"
}

group_build() {
    stage "cargo build --release --offline"
    cargo build --release --offline
}

group_tests() {
    stage "cargo test -q --offline (GRAPHAUG_THREADS=1)"
    GRAPHAUG_THREADS=1 cargo test -q --offline

    stage "cargo test -q --offline (GRAPHAUG_THREADS=3)"
    # The parallel runtime must be bit-deterministic in the thread count;
    # run the whole suite again with multi-worker pools (an odd and an even
    # count — uneven tail chunks land on different workers) to prove it.
    GRAPHAUG_THREADS=3 cargo test -q --offline

    stage "cargo test -q --offline (GRAPHAUG_THREADS=4)"
    GRAPHAUG_THREADS=4 cargo test -q --offline

    stage "cargo test -q --offline (GRAPHAUG_SIMD=0)"
    # The scalar fallback build must be bit-identical to the AVX2 lane
    # build; run the suite once more with the lanes force-disabled.
    GRAPHAUG_SIMD=0 cargo test -q --offline
}

group_bench() {
    stage "bench smoke (tiny budget)"
    # Not a perf measurement — just proves the bench harness, every kernel
    # suite, and the regression differ run end to end. Full recordings
    # use bench_baseline + bench_compare with default budgets.
    GRAPHAUG_BENCH_ITERS=3 GRAPHAUG_BENCH_WARMUP_MS=10 GRAPHAUG_BENCH_MAX_MS=200 \
        GRAPHAUG_BENCH_OUT=/tmp/graphaug_bench_smoke.json \
        cargo run --release --offline -q -p graphaug-bench --bin bench_baseline
    cargo run --release --offline -q -p graphaug-bench --bin bench_compare -- \
        /tmp/graphaug_bench_smoke.json /tmp/graphaug_bench_smoke.json

    stage "bench smoke: the backward kernels are on the ledger"
    # The training step is mostly `Graph::backward`, and for nine PRs no
    # recorded line timed any of it; a line that drops out of the recorder
    # is a kernel nobody may claim to have sped up (ROADMAP needle 1).
    # The same holds for the two row kernels: int8, a cold `REC`'s candidate
    # scorer, and f32, every full-catalog scan's.
    local line
    for line in 'matmul_nt/' 'spmm_ew_dw' 'edge_mlp_forward_backward' 'quant/score_rows_i8_' \
        'topk_eval/score_rows_f32_'; do
        if ! grep -q "\"name\": \"$line" /tmp/graphaug_bench_smoke.json; then
            echo "ERROR: no '$line' line in the bench smoke report" >&2
            exit 1
        fi
    done
    echo "ok: matmul_nt/, spmm_ew_dw, edge_mlp_forward_backward, quant/score_rows_i8_, topk_eval/score_rows_f32_ recorded"

    stage "bench smoke: no socket-level lines on the kernel ledger"
    # benchmark/ times serving, routing, ingestion and fine-tuning per layer
    # (serve.*, router.*, ingest.*, runtime.online.*); a second copy here is
    # a second ledger that drifts from the first.
    if grep -E '"name": "(serving_|router_|supervisor_|ann_batch_|ingest_append|apply_deltas|finetune_step)' \
        /tmp/graphaug_bench_smoke.json; then
        echo "ERROR: a line benchmark/ supersedes is back in the bench report" >&2
        exit 1
    fi
    echo "ok: kernels only"

    stage "bench tools: usage error exits 2, run failure exits 1"
    local rc
    rc=0
    target/release/bench_baseline no-such-suite >/dev/null 2>&1 || rc=$?
    if [[ $rc -ne 2 ]]; then
        echo "ERROR: bench_baseline no-such-suite: exit $rc, want 2" >&2
        exit 1
    fi
    rc=0
    target/release/bench_compare /nonexistent.json x.json >/dev/null 2>&1 || rc=$?
    if [[ $rc -ne 1 ]]; then
        echo "ERROR: bench_compare on a missing report: exit $rc, want 1" >&2
        exit 1
    fi
    echo "ok: bench_baseline and bench_compare follow the exit-code contract"
}

stage_kill_resume() {
    stage "kill/resume smoke test (GRAPHAUG_THREADS=1 and 4)"
    # Crash-safety end to end, across real process boundaries: train with
    # checkpoint-every-epoch, SIGKILL the victim mid-run, resume from the
    # surviving checkpoint, and require the FINAL line (bit-exact embedding
    # fingerprint + Recall@20/NDCG@20 bit patterns) to equal an
    # uninterrupted reference run. Determinism makes this an equality
    # check, not a tolerance. The binary is invoked directly (not through
    # `cargo run`) so the kill hits the trainer itself rather than
    # orphaning it behind a cargo wrapper.
    local kill_resume=target/release/kill_resume
    local threads ckdir reference resumed
    for threads in 1 4; do
        ckdir="$(tmp_dir kill_resume)"
        reference=$(GRAPHAUG_THREADS=$threads "$kill_resume" reference "$ckdir/ref")

        # Boot the victim and wait for it to be mid-run, then kill -9.
        boot_bin "kill_resume_victim_t$threads" "EPOCH 3" \
            env GRAPHAUG_THREADS=$threads "$kill_resume" victim "$ckdir/ck"
        kill -9 "$BOOT_PID" 2>/dev/null || true
        wait "$BOOT_PID" 2>/dev/null || true
        if grep -q "FINAL" "$BOOT_LOG"; then
            echo "ERROR: victim finished before the kill landed" >&2
            exit 1
        fi

        resumed=$(GRAPHAUG_THREADS=$threads "$kill_resume" resume "$ckdir/ck")
        if [[ "$reference" != "$resumed" ]]; then
            echo "ERROR: kill/resume mismatch at GRAPHAUG_THREADS=$threads" >&2
            echo "  reference: $reference" >&2
            echo "  resumed:   $resumed" >&2
            exit 1
        fi
        echo "ok: threads=$threads resumed run bit-identical to reference"
    done
}

stage_serving() {
    stage "serving smoke test (serve_main + loadgen parity over TCP)"
    # Boot the demo service on an ephemeral loopback port (training the
    # demo model into a temp checkpoint dir on first run), require its
    # offline-vs-served parity self-check to pass, then drive it with the
    # seeded load generator — any ERR or malformed response fails the run.
    local serve_dir serve_addr
    serve_dir="$(tmp_dir serve_smoke)"
    boot_bin "serve_main" "READY addr=" target/release/serve_main "$serve_dir/ck"
    if ! grep -q "PARITY ok" "$BOOT_LOG"; then
        echo "ERROR: serve_main parity self-check did not pass" >&2
        cat "$BOOT_LOG" >&2
        exit 1
    fi
    serve_addr=$(ready_addr "$BOOT_LOG")

    # The load generator must reject nonsense loudly before it must ever
    # touch the network.
    local bad
    for bad in "--requests 0" "--conns 0" "--kmax 0" "--bogus-flag 1" "--zipf -1"; do
        # shellcheck disable=SC2086
        if target/release/loadgen "$serve_addr" $bad >/dev/null 2>&1; then
            echo "ERROR: loadgen accepted invalid args: $bad" >&2
            exit 1
        fi
    done
    if target/release/loadgen not-an-addr --requests 1 >/dev/null 2>&1; then
        echo "ERROR: loadgen accepted a malformed address" >&2
        exit 1
    fi

    # Every flag-taking binary answers a flag it does not know with exit 2
    # and its usage line, before it does any work.
    local bin rc
    for bin in serve_main loadgen router_main supervisord chaos_loadgen \
        mock_replica ingestd graphaug; do
        rc=0
        timeout 30 "target/release/$bin" --bogus-flag 2>"$LOG_DIR/usage_$bin.log" >/dev/null || rc=$?
        if [[ $rc -ne 2 ]] || ! grep -q '^usage:' "$LOG_DIR/usage_$bin.log"; then
            echo "ERROR: $bin --bogus-flag: exit $rc, want 2 and a usage: line" >&2
            cat "$LOG_DIR/usage_$bin.log" >&2
            exit 1
        fi
    done
    # A zero watch period used to boot and poll the directory in a
    # sleep(0) loop (the timeout only bounds a regression that boots).
    rc=0
    timeout 30 target/release/serve_main "$serve_dir/ck" --watch-ms 0 >/dev/null 2>&1 || rc=$?
    if [[ $rc -ne 2 ]]; then
        echo "ERROR: serve_main accepted --watch-ms 0 (exit $rc)" >&2
        exit 1
    fi

    target/release/loadgen "$serve_addr" --requests 1000 --conns 4
    target/release/loadgen "$serve_addr" --requests 500 --conns 2 --zipf 1.1
    grep "PARITY ok" "$BOOT_LOG"
    echo "ok: served rankings bit-identical to offline eval, loadgen clean"
}

stage_ann() {
    stage "ann smoke test (IVF recall gate + REC/RECX drive, GRAPHAUG_THREADS=1 and 4)"
    # Boot the demo service with the IVF fast path on. The build-time recall
    # gate must pass (an index under the floor logs `ANN DISABLED` instead,
    # which fails the grep), and both verbs — ANN `REC` and the exact-parity
    # oracle `RECX` — must serve a seeded load cleanly. The nlists/nprobe
    # choice is tuned for the 120-item demo catalog (recall@20 = 0.97 on the
    # deterministic demo embeddings); the index build is bit-deterministic
    # in the thread count, so the gate outcome cannot flap between runs.
    local threads adir ann_addr
    for threads in 1 4; do
        adir="$(tmp_dir ann_smoke)"
        boot_bin "ann_serve_t$threads" "READY addr=" \
            env GRAPHAUG_THREADS=$threads target/release/serve_main "$adir/ck" \
            --ann --ann-nlists 6 --ann-nprobe 4
        if ! grep -q "ANN ok recall=" "$BOOT_LOG"; then
            echo "ERROR: ANN index did not clear the recall floor" >&2
            cat "$BOOT_LOG" >&2
            exit 1
        fi
        ann_addr=$(ready_addr "$BOOT_LOG")
        GRAPHAUG_THREADS=$threads target/release/loadgen "$ann_addr" --requests 400 --conns 2
        GRAPHAUG_THREADS=$threads target/release/loadgen "$ann_addr" --requests 400 --conns 2 --exact
        echo "ok: threads=$threads ANN gate passed, REC and RECX served clean"
    done
}

stage_quant() {
    stage "quant smoke test (int8 drift gate + quant-parity sweep, GRAPHAUG_THREADS=1 and 4, GRAPHAUG_SIMD=0)"
    # Boot the demo service with the int8 tables (and the IVF geometry the
    # ann smoke uses, so the quantized index has lists to probe). The
    # build-time drift gate must pass — a build under the floor logs
    # `QUANT DISABLED` instead, which fails the grep — and the loadgen
    # parity sweep must drive quant `REC` against the pinned f32 `RECX`
    # oracle cleanly. The int8 kernel's integer accumulation is exact, so
    # the gate outcome and the served bits cannot flap with the thread
    # count or the scalar fallback build.
    local threads qdir quant_addr bad rc
    for threads in 1 4; do
        qdir="$(tmp_dir quant_smoke)"
        boot_bin "quant_serve_t$threads" "READY addr=" \
            env GRAPHAUG_THREADS=$threads target/release/serve_main "$qdir/ck" \
            --quant --ann --ann-nlists 6 --ann-nprobe 4
        if ! grep -q "QUANT ok drift=" "$BOOT_LOG"; then
            echo "ERROR: int8 tables did not clear the drift floor" >&2
            cat "$BOOT_LOG" >&2
            exit 1
        fi
        quant_addr=$(ready_addr "$BOOT_LOG")
        # The sweep must reject its own invalid invocations loudly.
        if target/release/loadgen "$quant_addr" --quant-parity 0 >/dev/null 2>&1; then
            echo "ERROR: loadgen accepted --quant-parity 0" >&2
            exit 1
        fi
        # So must serve_main a tier flag without its switch: it used to
        # parse cleanly and serve f32 without a word (exit 2 = usage error;
        # the timeout only bounds a regression that boots the service).
        for bad in "--ann-nlists 6 --ann-floor 0.95" "--quant-floor 0.95"; do
            rc=0
            # shellcheck disable=SC2086
            timeout 30 target/release/serve_main "$qdir/ck" $bad >/dev/null 2>&1 || rc=$?
            if [[ $rc -ne 2 ]]; then
                echo "ERROR: serve_main did not reject '$bad' without its switch (exit $rc)" >&2
                exit 1
            fi
        done
        GRAPHAUG_THREADS=$threads target/release/loadgen "$quant_addr" --quant-parity 32
        GRAPHAUG_SIMD=0 GRAPHAUG_THREADS=$threads target/release/loadgen "$quant_addr" --quant-parity 16 --seed 3
        echo "ok: threads=$threads drift gate passed, quant-parity sweep clean"
    done
}

stage_router() {
    stage "router smoke test (3 replicas + router + chaos loadgen, GRAPHAUG_THREADS=1 and 4)"
    # The full multi-replica story against real processes: three replica
    # engines over one shared demo checkpoint, the shard router in front,
    # and the chaos load generator driving zipf/hot-storm phases plus a
    # scripted kill/rejoin of replica 1. The chaos driver exits non-zero on
    # any ERR outside the documented failover window and on any
    # routed-vs-direct parity deviation (hex-exact, sampled users).
    local threads rdir r0_addr r1_addr r2_addr r1_pid router_addr admin_addr
    for threads in 1 4; do
        rdir="$(tmp_dir router_smoke)"

        # Replica 0 trains the shared demo checkpoint; 1 and 2 find it
        # already valid and boot straight into serving.
        boot_bin "router_replica0_t$threads" "READY addr=" \
            env GRAPHAUG_THREADS=$threads target/release/serve_main "$rdir/ck" --parity-users 4
        r0_addr=$(ready_addr "$BOOT_LOG")
        boot_bin "router_replica1_t$threads" "READY addr=" \
            env GRAPHAUG_THREADS=$threads target/release/serve_main "$rdir/ck" --parity-users 4
        r1_addr=$(ready_addr "$BOOT_LOG")
        r1_pid=$BOOT_PID
        boot_bin "router_replica2_t$threads" "READY addr=" \
            env GRAPHAUG_THREADS=$threads target/release/serve_main "$rdir/ck" --parity-users 4
        r2_addr=$(ready_addr "$BOOT_LOG")

        boot_bin "router_t$threads" "READY addr=" \
            target/release/router_main --replicas "$r0_addr,$r1_addr,$r2_addr"
        router_addr=$(ready_addr "$BOOT_LOG")
        admin_addr=$(ready_admin "$BOOT_LOG")
        if ! grep -q "shards=3 up=3" "$BOOT_LOG"; then
            echo "ERROR: router did not see all three replicas up at boot" >&2
            cat "$BOOT_LOG" >&2
            exit 1
        fi

        GRAPHAUG_THREADS=$threads target/release/chaos_loadgen "$router_addr" \
            --replicas "$r0_addr,$r1_addr,$r2_addr" --admin "$admin_addr" \
            --victim 1 --victim-pid "$r1_pid" \
            --victim-respawn "target/release/serve_main $rdir/ck --parity-users 2" \
            --requests-per-phase 400 --conns 4 --seed 7
        echo "ok: threads=$threads chaos run clean, failover scoped to shard 1, parity hex-exact"
    done
}

stage_supervisor() {
    stage "supervisor chaos smoke (replication 2, SIGKILL a primary under load, GRAPHAUG_THREADS=1 and 4)"
    # The full HA story against real processes and zero operator input:
    # supervisord owns 2 shards x 2 replicas of the demo engine (the first
    # child trains the shared checkpoint, the rest reuse it) plus the
    # router in front. The chaos driver SIGKILLs shard 0's primary under
    # load; with a live secondary in the set there is NO tolerated failover
    # window — any user-visible ERR fails the run — and the driver then
    # waits for the supervisor to respawn the child and REPLACE its new
    # address back into the router (every replica up again).
    local threads sdir sup_addr sets victim_pid pid pat
    for threads in 1 4; do
        sdir="$(tmp_dir supervisor_smoke)"
        boot_bin "supervisord_t$threads" "READY addr=" \
            env GRAPHAUG_THREADS=$threads target/release/supervisord \
            --shards 2 --replication 2 \
            --cmd "target/release/serve_main $sdir/ck --parity-users 2" \
            --backoff-ms 50 --backoff-cap-ms 500 --probe-ms 100
        sup_addr=$(ready_addr "$BOOT_LOG")
        # The children are supervisord's, but cleanup kills with -9 (no
        # guard drop), so register every spawned pid for the EXIT trap.
        for pid in $(sed -n 's/^SPAWNED .*pid=\([0-9]*\).*/\1/p' "$BOOT_LOG"); do
            register_pid "$pid"
        done
        sets="$(spawned_field "$BOOT_LOG" 0 0 addr)|$(spawned_field "$BOOT_LOG" 0 1 addr)"
        sets="$sets,$(spawned_field "$BOOT_LOG" 1 0 addr)|$(spawned_field "$BOOT_LOG" 1 1 addr)"
        victim_pid=$(spawned_field "$BOOT_LOG" 0 0 pid)
        if [[ -z "$victim_pid" || "$sets" == *"|,"* || "$sets" == *"|" ]]; then
            echo "ERROR: could not parse SPAWNED lines from supervisord" >&2
            cat "$BOOT_LOG" >&2
            exit 1
        fi

        GRAPHAUG_THREADS=$threads target/release/chaos_loadgen "$sup_addr" \
            --replicas "$sets" --supervised \
            --victim 0 --victim-pid "$victim_pid" \
            --requests-per-phase 400 --conns 4 --seed 11
        for pat in "RESPAWNED shard=0 replica=0" "REPLACED shard=0 replica=0"; do
            if ! grep -q "$pat" "$BOOT_LOG"; then
                echo "ERROR: supervisord never logged '$pat'" >&2
                cat "$BOOT_LOG" >&2
                exit 1
            fi
        done
        # Register the respawned child too.
        for pid in $(sed -n 's/^RESPAWNED .*pid=\([0-9]*\).*/\1/p' "$BOOT_LOG"); do
            register_pid "$pid"
        done
        echo "ok: threads=$threads SIGKILLed primary cost zero user-visible errors; supervisor respawned and REPLACEd it"
    done
}

stage_online() {
    stage "online ingestion smoke (ingestd + serve_main --log-dir, live vs replay, GRAPHAUG_THREADS=1 and 4)"
    # The online-learning loop end to end, across real process boundaries:
    # ingestd owns the interaction log and the fine-tune loop, serve_main
    # watches the same checkpoint directory (resolving fine-tuned
    # generations through --log-dir) and hot-reloads them with zero
    # downtime. The loadgen streams seeded durable PUTs; after the rounds
    # land, the served rankings must have shifted, and a from-scratch
    # replay of the log (fresh checkpoint directory, same deterministic
    # base training) must reproduce the live run's final checkpoint
    # fingerprint AND serve hex-identical rankings — at both thread counts.
    local threads odir ingest_addr serve_addr ingest_log serve_log
    local pre post stats live_fnv replay_fnv replay_dump _i
    for threads in 1 4; do
        odir="$(tmp_dir online_smoke)"

        # ingestd trains the demo base model, then listens for PUTs and
        # polls the log for complete 32-record windows.
        boot_bin "ingestd_t$threads" "READY addr=" \
            env GRAPHAUG_THREADS=$threads target/release/ingestd "$odir/ck" "$odir/log" \
            --window 32 --round-steps 4 --poll-ms 10
        ingest_addr=$(ready_addr "$BOOT_LOG")
        ingest_log="$BOOT_LOG"

        # serve_main reuses the checkpoint ingestd just trained and watches
        # the directory for the fine-tuned generations.
        boot_bin "online_serve_t$threads" "READY addr=" \
            env GRAPHAUG_THREADS=$threads target/release/serve_main "$odir/ck" \
            --log-dir "$odir/log" --watch-ms 50 --parity-users 4
        grep -q "PARITY ok" "$BOOT_LOG" || {
            echo "ERROR: online serve parity self-check did not pass" >&2
            cat "$BOOT_LOG" >&2
            exit 1
        }
        serve_addr=$(ready_addr "$BOOT_LOG")
        serve_log="$BOOT_LOG"

        # Snapshot rankings, stream exactly three windows of interactions
        # (each PUT is fsync-durable before its OK), then wait for the
        # third fine-tune round to publish.
        pre=$(target/release/loadgen "$serve_addr" --dump 8)
        target/release/loadgen "$ingest_addr" --put 96 --users 150 --items 120 --seed 5
        if ! wait_for_line "$ingest_log" "FINETUNE round=3 "; then
            echo "ERROR: ingestd never completed fine-tune round 3" >&2
            cat "$ingest_log" >&2
            exit 1
        fi

        # The watcher must pick the new generation up (STATS reports the
        # served tables' watermark) without a single user-visible error.
        stats=""
        for _i in $(seq 1 200); do
            stats=$(target/release/loadgen "$serve_addr" --stats)
            [[ "$stats" == *"finetunes=3"* ]] && break
            sleep 0.1
        done
        if [[ "$stats" != *"finetunes=3"* || "$stats" != *"log_offset=96"* ]]; then
            echo "ERROR: serve never reloaded the fine-tuned generation: $stats" >&2
            cat "$serve_log" >&2
            exit 1
        fi
        if grep -q "ERR" "$serve_log" "$ingest_log"; then
            echo "ERROR: online loop logged an error" >&2
            exit 1
        fi
        post=$(target/release/loadgen "$serve_addr" --dump 8)
        if [[ "$pre" == "$post" ]]; then
            echo "ERROR: rankings did not shift after three fine-tune rounds" >&2
            exit 1
        fi

        # Replay determinism: a fresh checkpoint directory, the same
        # deterministic base training, the same finished log — the final
        # checkpoint fingerprint must match the live run's.
        GRAPHAUG_THREADS=$threads target/release/ingestd "$odir/ck2" "$odir/log" \
            --window 32 --round-steps 4 --replay \
            >"$LOG_DIR/ingestd_replay_t$threads.log" 2>&1
        live_fnv=$(sed -n 's/^FINETUNE round=3 .*ckpt_fnv=\([0-9a-f]*\).*/\1/p' "$ingest_log" | head -n 1)
        replay_fnv=$(sed -n 's/^REPLAY done .*ckpt_fnv=\([0-9a-f]*\).*/\1/p' \
            "$LOG_DIR/ingestd_replay_t$threads.log" | head -n 1)
        if [[ -z "$live_fnv" || "$live_fnv" != "$replay_fnv" ]]; then
            echo "ERROR: replay fingerprint mismatch (live=$live_fnv replay=$replay_fnv)" >&2
            cat "$LOG_DIR/ingestd_replay_t$threads.log" >&2
            exit 1
        fi

        # And the replayed checkpoint must serve the exact same bits.
        boot_bin "online_replay_serve_t$threads" "READY addr=" \
            env GRAPHAUG_THREADS=$threads target/release/serve_main "$odir/ck2" \
            --log-dir "$odir/log" --watch-ms 50 --parity-users 4
        replay_dump=$(target/release/loadgen "$(ready_addr "$BOOT_LOG")" --dump 8)
        if [[ "$post" != "$replay_dump" ]]; then
            echo "ERROR: replayed service rankings differ from the live service" >&2
            echo "  live:   $post" >&2
            echo "  replay: $replay_dump" >&2
            exit 1
        fi
        echo "ok: threads=$threads fine-tuned reload clean, replay fingerprint + rankings hex-identical"
    done
}

stage_experiment_row() {
    stage "experiment row: table7_mad_compare reproduces its committed CSV"
    # The cheapest experiment binary that trains (GraphAug, NCL, LightGCN
    # on the Gowalla preset, ~2 s) and prints no timing column, rerun at
    # the protocol run_experiments.sh uses: results/ cannot drift from the
    # code again without this diff failing.
    GRAPHAUG_EPOCHS=25 target/release/table7_mad_compare >"$LOG_DIR/table7_mad_compare.log" 2>&1
    if ! git diff --exit-code results/table7_mad_compare.csv; then
        echo "ERROR: results/table7_mad_compare.csv no longer matches the code; rerun ./run_experiments.sh" >&2
        exit 1
    fi
    echo "ok: results/table7_mad_compare.csv reproduced bit for bit"
}

group_process() {
    stage_experiment_row
    stage_kill_resume
    stage_serving
    stage_ann
    stage_quant
    stage_router
    stage_supervisor
    stage_online
}

group_e2e() {
    stage "benchmark package unit tests"
    cargo test -q --offline --manifest-path benchmark/Cargo.toml

    stage "benchmark/run.sh --quick (all four workloads, every output check)"
    # Not a measurement (2 s windows, un-gated): it proves the library
    # entry points the benchmark boots still build, serve and pass their
    # hex-parity / routed ≡ direct / PUT-offset checks.
    bash benchmark/run.sh --quick

    stage "benchmark/ untouched by its own build and run"
    # benchmark/Cargo.lock is committed; a library change that adds a
    # dependency edge would rewrite it here.
    if [[ -n "$(git status --porcelain benchmark/)" ]]; then
        echo "ERROR: building or running the benchmark modified benchmark/:" >&2
        git status --porcelain benchmark/ >&2
        exit 1
    fi
    echo "ok: benchmark/ clean"
}

group_lines() {
    stage "lines per crates/*/src (non-test, of which code)"
    # Non-test: everything before a file's first `#[cfg(test)]`. Code: the
    # non-test lines that are neither blank nor a `//` comment.
    local dir
    printf '%-22s %9s %9s\n' dir non-test code
    for dir in crates/*/src; do
        find "$dir" -name '*.rs' -print0 | sort -z | xargs -0 awk -v dir="$dir" '
            FNR == 1 { in_tests = 0 }
            /#\[cfg\(test\)\]/ { in_tests = 1 }
            in_tests { next }
            { lines++ }
            !/^[[:space:]]*($|\/\/)/ { code++ }
            END { printf "%-22s %9d %9d\n", dir, lines, code }'
    done | awk '{ print; lines += $2; code += $3 }
        END { printf "%-22s %9d %9d\n", "total", lines, code }'
}

# ---------------------------------------------------------------------------
# Dispatch.
# ---------------------------------------------------------------------------

GROUP="${1:-all}"
case "$GROUP" in
    static) group_static ;;
    build) group_build ;;
    tests) group_tests ;;
    bench) group_bench ;;
    process) group_process ;;
    e2e) group_e2e ;;
    lines) group_lines ;;
    all)
        group_static
        group_build
        group_tests
        group_bench
        group_process
        group_e2e
        printf '\nCI gate passed.\n'
        ;;
    *)
        echo "unknown stage group '$GROUP' (static|build|tests|bench|process|e2e|lines|all)" >&2
        exit 2
        ;;
esac
