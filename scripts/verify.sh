#!/usr/bin/env bash
# Full offline verification gate for wsp-repro.
#
# Everything runs with --offline: the workspace has no external crate
# dependencies, so no network access is ever required.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== release build (offline) =="
cargo build --release --offline --workspace

echo "== workspace tests (offline) =="
cargo test -q --offline --workspace

echo "== crash sweeps under a pinned seed =="
WSP_DET_SEED=42 cargo test -q --offline --test fault_injection
WSP_DET_SEED=42 cargo test -q --offline --test crash_consistency

echo "== golden traces: pinned at both recorded seeds =="
cargo test -q --offline --test golden_trace
WSP_DET_SEED=7 cargo test -q --offline --test golden_trace
WSP_DET_SEED=42 cargo test -q --offline --test golden_trace

echo "== observability error-path contracts =="
cargo test -q --offline --test observability

echo "== trace schema validation (sweep export must parse) =="
cargo run --release --offline --example trace_export -- --out target/trace-gate.jsonl

echo "== crash-sweep soak: three seeds, serial and sharded =="
for seed in 11 42 1337; do
    echo "  -- seed $seed (WSP_FAULTSIM_THREADS=4)"
    WSP_DET_SEED=$seed WSP_FAULTSIM_THREADS=4 cargo test -q --offline --test fault_injection
    echo "  -- seed $seed (WSP_FAULTSIM_THREADS=1)"
    WSP_DET_SEED=$seed WSP_FAULTSIM_THREADS=1 cargo test -q --offline --test fault_injection
done

echo "== mid-commit sweep (every durable event of a FoC transaction): serial and sharded =="
WSP_DET_SEED=7 WSP_FAULTSIM_THREADS=1 cargo test -q --offline --test fault_injection mid_commit
WSP_DET_SEED=7 WSP_FAULTSIM_THREADS=4 cargo test -q --offline --test fault_injection mid_commit

echo "== cross-shard 2PC sweep: serial and sharded must agree =="
WSP_DET_SEED=7 WSP_FAULTSIM_THREADS=1 cargo test -q --offline --test fault_injection cross_shard
WSP_DET_SEED=7 WSP_FAULTSIM_THREADS=4 cargo test -q --offline --test fault_injection cross_shard

echo "== bench smoke (quick mode) =="
cargo test -q --offline -p wsp-bench

echo "== ablation tables (simulated clock) =="
cargo run --release --quiet --offline -p wsp-bench --bin repro -- ablation > /dev/null

echo "== recorded bench gates: every BENCH_PR*.json, sim and host clocks =="
cargo run --release --offline -p wsp-bench --bin bench -- check

echo "== every bench scenario reports at quick scale =="
for scenario in host_paths ladder group_commit xshard flit power_domain lockfree group_2pc; do
    cargo run --release --quiet --offline -p wsp-bench --bin bench -- \
        run "$scenario" --quick > /dev/null
done

echo "== repo benchmark audits (FliT + epoch barriers, FoF overlay, 2PC pool, outage resume) =="
for workload in ycsb_a_foc hash_big_fof xshard_group outage_resume; do
    cargo run --release --quiet --offline \
        --manifest-path crates/bench/src/bin/benchmark/Cargo.toml -- \
        run --workload "$workload" --seed 7 --seconds 1
done

echo "== lock-free interleaving sweep: fixed-seed corpus at both worker counts =="
WSP_FAULTSIM_THREADS=1 cargo test -q --release --offline --test lockfree_detect
WSP_FAULTSIM_THREADS=4 cargo test -q --release --offline --test lockfree_detect

echo "== power-storm soak: three seeds, serial and sharded must agree =="
for seed in 42 7 4242; do
    echo "  -- seed $seed (WSP_FAULTSIM_THREADS=1)"
    WSP_DET_SEED=$seed WSP_FAULTSIM_THREADS=1 \
        cargo test -q --release --offline --test fault_injection power_storm
    echo "  -- seed $seed (WSP_FAULTSIM_THREADS=4)"
    WSP_DET_SEED=$seed WSP_FAULTSIM_THREADS=4 \
        cargo test -q --release --offline --test fault_injection power_storm
done

echo "== extended mid-seal crash sweep: serial and sharded must agree =="
WSP_DET_SEED=7 WSP_FAULTSIM_THREADS=1 cargo test -q --offline --test crash_consistency mid_epoch
WSP_DET_SEED=7 WSP_FAULTSIM_THREADS=4 cargo test -q --offline --test crash_consistency mid_epoch
# The FliT differential and the 2PC properties crash the production
# seal, prepare and commit paths; run them at a second seed too.
WSP_DET_SEED=7 cargo test -q --offline --test crash_consistency flit_elision
WSP_DET_SEED=7 cargo test -q --offline --test crash_consistency cross_shard

echo "== mutation gate: every catalogued ordering mutant fails a named killer =="
bash scripts/mutants/run.sh

echo "== sharded KV determinism spot-check (single worker) =="
WSP_FAULTSIM_THREADS=1 cargo test -q --offline -p wsp-workloads shard::

echo "== deny-warnings build =="
RUSTFLAGS="-D warnings" cargo build --offline --workspace --all-targets

# Rustdoc runs ahead of clippy so a clippy failure cannot hide a broken
# intra-doc link.
echo "== rustdoc (deny warnings: broken and ambiguous intra-doc links) =="
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

echo "== clippy (deny warnings) =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "verify.sh: all gates passed"
