#!/bin/bash
# Regenerates every table and figure of the paper into results/, at the
# protocol EXPERIMENTS.md states: 25 training epochs unless GRAPHAUG_EPOCHS
# says otherwise (GRAPHAUG_FAST=1 keeps its own short budget). Needs
# `cargo build --release` first.
cd "$(dirname "$0")"
if [[ "${GRAPHAUG_FAST:-}" != 1 ]]; then
    export GRAPHAUG_EPOCHS="${GRAPHAUG_EPOCHS:-25}"
fi
mkdir -p results/logs
BINS="table1_stats table2_main table3_mixhop_mad table4_aug_strength table5_skewed table6_cost table7_mad_compare fig2_ablation fig3_noise fig4_convergence fig5_hyperparams fig7_distribution"
for b in $BINS; do
    echo "=== $b ==="
    ./target/release/$b 2>&1 | tee results/logs/$b.log
done
