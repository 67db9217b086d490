//! An in-memory key-value store surviving a power failure under each of
//! the paper's five persistence models — showing both the performance
//! cost during normal operation and what each model can (and cannot)
//! recover afterwards.
//!
//! Run with: `cargo run --release --example kvstore_recovery [--seed N]
//! [--shards N] [--epoch N] [--cross-shard-pct N]` (the seed derives the
//! stored values, default 42; `--shards`/`--epoch` size the sharded
//! group-commit demo, defaults 4 and 8; `--cross-shard-pct` is the
//! percentage of transfers in the cross-shard demo that span two
//! shards, default 60).

use wsp_repro::det::{DetRng, Rng};
use wsp_repro::pheap::{HeapConfig, HeapError, PersistentHeap};
use wsp_repro::units::ByteSize;
use wsp_repro::workloads::{CrossShardKvBench, PmHashTable, TransferOutcome, TxnOutcome};

const ENTRIES: u64 = 5_000;
const SHARD_ENTRIES: u64 = 1_000;

/// Parses `--NAME N` (or `--NAME=N`) from the command line.
fn flag_arg(name: &str, default: u64) -> u64 {
    let bare = format!("--{name}");
    let eq = format!("--{name}=");
    let bad = || panic!("--{name} needs a u64 value");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == bare {
            return args.next().and_then(|v| v.parse().ok()).unwrap_or_else(bad);
        }
        if let Some(v) = arg.strip_prefix(&eq) {
            return v.parse().unwrap_or_else(|_| bad());
        }
    }
    default
}

fn run_one(config: HeapConfig, fof_save_fits: bool, seed: u64) -> Result<(), HeapError> {
    let mut heap = PersistentHeap::create(ByteSize::mib(16), config);
    let table = PmHashTable::create(&mut heap, 1024)?;

    // Normal operation: load the store with seeded values.
    let mut rng = DetRng::seed_from_u64(seed);
    let values: Vec<u64> = (0..ENTRIES).map(|_| rng.gen()).collect();
    let t0 = heap.elapsed();
    for k in 0..ENTRIES {
        table.insert(&mut heap, k, values[k as usize])?;
    }
    let load_time = heap.elapsed() - t0;
    let per_op = load_time / ENTRIES;

    // Power fails. Flush-on-fail may or may not complete in the window.
    let image = heap.crash(fof_save_fits);

    let recovered = match PersistentHeap::recover(image) {
        Ok(mut heap) => {
            let table = PmHashTable::open(&mut heap)?;
            let mut intact = 0u64;
            for k in 0..ENTRIES {
                if table.get(&mut heap, k)? == Some(values[k as usize]) {
                    intact += 1;
                }
            }
            format!("recovered locally, {intact}/{ENTRIES} entries intact")
        }
        Err(e) => format!("local recovery refused ({e}); refreshing from back end"),
    };

    println!(
        "{:<10} {:>9}/insert   save-completed={:<5}  {recovered}",
        config.label(),
        per_op.to_string(),
        fof_save_fits,
    );
    Ok(())
}

/// One shard of the group-commit demo: a private heap loaded with its
/// slice of the keyspace, crashed with an epoch still open, then
/// recovered.  Returns `(intact, lost)` — how many inserts survived and
/// how many rolled back (the open epoch plus any staged generation the
/// pipelined seal had not drained).
fn run_shard(
    config: HeapConfig,
    shards: u64,
    shard: u64,
    epoch: u64,
    seed: u64,
) -> Result<(u64, u64), HeapError> {
    let mut heap = PersistentHeap::create(ByteSize::mib(16), config);
    let table = PmHashTable::create(&mut heap, 256)?;
    heap.set_epoch_size(epoch);

    // Stagger the shard workloads so each crashes at a different point in
    // its open epoch and the per-shard staleness differs.
    let inserts = SHARD_ENTRIES + shard;
    let mut rng = DetRng::seed_from_u64(seed ^ (0x9E37_79B9 * (shard + 1)));
    let values: Vec<u64> = (0..inserts).map(|_| rng.gen()).collect();
    for k in 0..inserts {
        table.insert(&mut heap, k * shards + shard, values[k as usize])?;
    }

    // Power fails with the tail of the workload still in the open epoch.
    let mut heap = PersistentHeap::recover(heap.crash(false))?;
    let table = PmHashTable::open(&mut heap)?;
    let mut intact = 0u64;
    for k in 0..inserts {
        if table.get(&mut heap, k * shards + shard)? == Some(values[k as usize]) {
            intact += 1;
        }
    }
    Ok((intact, inserts - intact))
}

fn run_sharded_demo(shards: u64, epoch: u64, seed: u64) -> Result<(), HeapError> {
    println!(
        "\n-- sharded group commit: {shards} shards, epoch size {epoch}, crash mid-epoch --"
    );
    println!("   (each shard is an independent heap; recovery rolls back only the");
    println!("    open epoch plus a staged-but-undrained generation — pipelined");
    println!("    seals lag one epoch — so staleness is bounded per shard)");
    for config in HeapConfig::all().into_iter().filter(|c| c.flush_on_commit()) {
        for shard in 0..shards {
            let (intact, lost) = run_shard(config, shards, shard, epoch, seed)?;
            println!(
                "{:<10} shard {shard}: {intact} inserts durable, {lost} rolled back \
                 (open + staged, < {})",
                config.label(),
                2 * epoch,
            );
        }
    }
    Ok(())
}

/// One line per transfer: where it moved money and how 2PC (and the
/// final fleet-wide crash) settled it.
fn describe(outcome: &TransferOutcome) -> String {
    let t = &outcome.transfer;
    let route = format!(
        "{}:{} -> {}:{} ({:>2})",
        t.src.0, t.src.1, t.dst.0, t.dst.1, t.amount
    );
    let fate = if outcome.resolved_in_doubt {
        "resolved in-doubt (committed everywhere)".to_string()
    } else {
        match &outcome.outcome {
            TxnOutcome::Committed => "committed everywhere".to_string(),
            TxnOutcome::Aborted { reason } => format!("aborted everywhere ({reason})"),
        }
    };
    let span = if t.cross_shard { "cross-shard " } else { "one-shard  " };
    format!("txn {:>2}  {span}{route:<22} {fate}", t.txn)
}

fn run_cross_shard_demo(shards: u64, cross_shard_pct: u64, seed: u64) -> Result<(), HeapError> {
    let shards = (shards.max(2)) as usize;
    println!(
        "\n-- cross-shard transfers: {shards} shards, two-phase epoch seal through \
         one coordinator, {cross_shard_pct}% spanning two shards --"
    );
    let bench = CrossShardKvBench {
        transfers: 12,
        cross_shard_pct: cross_shard_pct.min(100) as f64 / 100.0,
        ..CrossShardKvBench::quick(shards)
    };
    let report = bench.run(HeapConfig::FocUndo, seed)?;
    for outcome in &report.outcomes {
        println!("{}", describe(outcome));
    }
    println!(
        "{} committed, {} aborted; balances conserved: {}; \
         {:.0} txn/s on the coordinator pool's simulated wall clock",
        report.committed, report.aborted, report.balance_conserved, report.txns_per_sec,
    );

    // The same run with one shard's NVRAM image lost outright: the
    // survivors still apply every decided outcome, the lost shard comes
    // back with a typed refusal and quantified staleness.
    let lossy = CrossShardKvBench {
        lose_shard: Some(1),
        ..bench
    };
    let report = lossy.run(HeapConfig::FocUndo, seed)?;
    let degraded = report.degraded.expect("shard 1 was lost");
    println!(
        "with shard 1's image lost mid-2PC: {}/{} shards audit clean; \
         shard {} refuses ({}) — {}",
        report.shards_audited,
        shards,
        degraded.shard,
        degraded.kind,
        degraded.reason,
    );
    Ok(())
}

fn main() -> Result<(), HeapError> {
    let seed = flag_arg("seed", 42);
    let shards = flag_arg("shards", 4).max(1);
    let epoch = flag_arg("epoch", 8).max(1);
    let cross_shard_pct = flag_arg("cross-shard-pct", 60);
    println!("insert {ENTRIES} keys (values from seed {seed}), crash, recover — per persistence model\n");

    println!("-- power failure with a completed flush-on-fail save --");
    for config in HeapConfig::all() {
        run_one(config, true, seed)?;
    }

    println!("\n-- power failure where the save did NOT complete --");
    println!("   (flush-on-commit models still recover from their logs;");
    println!("    flush-on-fail models must fall back to the back end)");
    for config in HeapConfig::all() {
        run_one(config, false, seed)?;
    }

    run_sharded_demo(shards, epoch, seed)?;
    run_cross_shard_demo(shards, cross_shard_pct, seed)?;

    println!("\nthe trade the paper quantifies: FoF's zero runtime overhead");
    println!("against its dependence on the residual-energy-window save;");
    println!("group commit adds a second dial — epoch size buys throughput");
    println!("at the cost of up to 2*epoch-1 transactions lost per shard");
    println!("(the open epoch plus the staged generation a pipelined seal");
    println!("had not yet drained).");
    Ok(())
}
