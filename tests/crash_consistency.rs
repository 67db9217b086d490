//! Property-based crash-consistency tests: random workloads, crashes at
//! arbitrary points, recovery checked against an in-memory model.
//!
//! These are the invariants the whole reproduction stands on:
//!
//! * flush-on-commit heaps recover **exactly** the committed prefix with
//!   no flush-on-fail save at all;
//! * flush-on-fail heaps recover **everything** when the save completes
//!   and refuse local recovery when it does not;
//! * recovery is idempotent across repeated crashes — including power
//!   failures that land *during* restore, back to back.
//!
//! All randomness flows through `wsp_det` (`WSP_DET_SEED` /
//! `WSP_DET_CASES` override seed and case count); the fixed-seed
//! regression corpus at the bottom pins historically-interesting seeds.

use std::collections::HashMap;

use wsp_det::{gen, Forall, Gen};
use wsp_repro::pheap::{HeapConfig, HeapError, PersistentHeap};
use wsp_repro::units::ByteSize;
use wsp_repro::workloads::{PmAvlTree, PmHashTable};

#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(u8, u64),
    Remove(u8),
}

fn op() -> Gen<Op> {
    gen::one_of(vec![
        gen::pair(gen::any::<u8>(), gen::any::<u64>()).map(|(k, v)| Op::Insert(k, v)),
        gen::any::<u8>().map(Op::Remove),
    ])
}

fn ops(max: usize) -> Gen<Vec<Op>> {
    gen::vec_of(op(), 1..max)
}

fn apply_model(model: &mut HashMap<u64, u64>, op: Op) {
    match op {
        Op::Insert(k, v) => {
            model.insert(u64::from(k), v);
        }
        Op::Remove(k) => {
            model.remove(&u64::from(k));
        }
    }
}

fn apply_table(
    table: &PmHashTable,
    heap: &mut PersistentHeap,
    op: Op,
) -> Result<(), HeapError> {
    match op {
        Op::Insert(k, v) => {
            table.insert(heap, u64::from(k), v)?;
        }
        Op::Remove(k) => {
            table.remove(heap, u64::from(k))?;
        }
    }
    Ok(())
}

fn check_matches_model(
    table: &PmHashTable,
    heap: &mut PersistentHeap,
    model: &HashMap<u64, u64>,
) {
    assert_eq!(table.len(heap).unwrap(), model.len() as u64);
    for k in 0u64..256 {
        assert_eq!(
            table.get(heap, k).unwrap(),
            model.get(&k).copied(),
            "key {k} diverged"
        );
    }
}

/// Flush-on-commit heaps recover the exact committed prefix after an
/// unsaved crash, regardless of where the crash lands.
fn check_foc_recovers_committed_prefix(ops: &[Op], crash_at: usize, use_stm: bool) {
    let config = if use_stm {
        HeapConfig::FocStm
    } else {
        HeapConfig::FocUndo
    };
    let mut heap = PersistentHeap::create(ByteSize::kib(512), config);
    let table = PmHashTable::create(&mut heap, 32).unwrap();
    let mut model = HashMap::new();

    let crash_at = crash_at.min(ops.len());
    for op in &ops[..crash_at] {
        apply_table(&table, &mut heap, *op).unwrap();
        apply_model(&mut model, *op);
    }
    // Ops after the crash point never happen.
    let image = heap.crash(false);
    let mut recovered = PersistentHeap::recover(image).unwrap();
    let table = PmHashTable::open(&mut recovered).unwrap();
    check_matches_model(&table, &mut recovered, &model);
}

#[test]
fn foc_recovers_committed_prefix() {
    Forall::new(gen::triple(
        ops(60),
        gen::in_range(0usize..60),
        gen::any::<bool>(),
    ))
    .cases(24)
    .check(|(ops, crash_at, use_stm)| {
        check_foc_recovers_committed_prefix(ops, *crash_at, *use_stm);
    });
}

/// Flush-on-fail heaps with a completed save recover everything;
/// without one they refuse local recovery.
fn check_fof_all_or_nothing(ops: &[Op], config_pick: u8, save_fits: bool) {
    let config =
        [HeapConfig::Fof, HeapConfig::FofUndo, HeapConfig::FofStm][usize::from(config_pick)];
    let mut heap = PersistentHeap::create(ByteSize::kib(512), config);
    let table = PmHashTable::create(&mut heap, 32).unwrap();
    let mut model = HashMap::new();
    for op in ops {
        apply_table(&table, &mut heap, *op).unwrap();
        apply_model(&mut model, *op);
    }
    let image = heap.crash(save_fits);
    match PersistentHeap::recover(image) {
        Ok(mut recovered) => {
            assert!(save_fits, "recovery must require the save");
            let table = PmHashTable::open(&mut recovered).unwrap();
            check_matches_model(&table, &mut recovered, &model);
        }
        Err(HeapError::Unrecoverable { .. }) => assert!(!save_fits),
        Err(other) => panic!("unexpected error: {other}"),
    }
}

#[test]
fn fof_all_or_nothing() {
    Forall::new(gen::triple(
        ops(60),
        gen::in_range(0u8..3),
        gen::any::<bool>(),
    ))
    .cases(24)
    .check(|(ops, config_pick, save_fits)| {
        check_fof_all_or_nothing(ops, *config_pick, *save_fits);
    });
}

/// A second crash immediately after recovery changes nothing: the
/// recovered state is durable and recovery is idempotent.
#[test]
fn recovery_is_idempotent() {
    Forall::new(ops(40)).cases(24).check(|ops| {
        let mut heap = PersistentHeap::create(ByteSize::kib(512), HeapConfig::FocUndo);
        let table = PmHashTable::create(&mut heap, 32).unwrap();
        let mut model = HashMap::new();
        for op in ops {
            apply_table(&table, &mut heap, *op).unwrap();
            apply_model(&mut model, *op);
        }
        let once = PersistentHeap::recover(heap.crash(false)).unwrap();
        let mut twice = PersistentHeap::recover(once.crash(false)).unwrap();
        let table = PmHashTable::open(&mut twice).unwrap();
        check_matches_model(&table, &mut twice, &model);
    });
}

/// An uncommitted (aborted) transaction leaves no trace after
/// recovery, even when its writes were forced to NVRAM mid-flight.
#[test]
fn aborted_transactions_vanish() {
    Forall::new(gen::pair(gen::any::<u64>(), gen::any::<u64>()))
        .cases(24)
        .check(|&(committed, attempted)| {
            let mut heap = PersistentHeap::create(ByteSize::kib(256), HeapConfig::FocUndo);
            let ptr = {
                let mut tx = heap.begin();
                let p = tx.alloc(16).unwrap();
                tx.write_word(p, committed).unwrap();
                tx.set_root(p).unwrap();
                tx.commit().unwrap();
                p
            };
            {
                let mut tx = heap.begin();
                tx.write_word(ptr, attempted).unwrap();
                tx.abort();
            }
            let mut recovered = PersistentHeap::recover(heap.crash(false)).unwrap();
            let root = recovered.root().unwrap();
            let mut tx = recovered.begin();
            assert_eq!(tx.read_word(root).unwrap(), committed);
            tx.commit().unwrap();
        });
}

/// The AVL tree stays ordered, balanced, and model-faithful through
/// crash recovery.
#[test]
fn avl_survives_crashes_ordered() {
    Forall::new(ops(50)).cases(24).check(|ops| {
        let mut heap = PersistentHeap::create(ByteSize::kib(512), HeapConfig::FocStm);
        let tree = PmAvlTree::create(&mut heap).unwrap();
        let mut model = std::collections::BTreeMap::new();
        for op in ops {
            match *op {
                Op::Insert(k, v) => {
                    tree.insert(&mut heap, u64::from(k), v).unwrap();
                    model.insert(u64::from(k), v);
                }
                Op::Remove(k) => {
                    tree.remove(&mut heap, u64::from(k)).unwrap();
                    model.remove(&u64::from(k));
                }
            }
        }
        let mut recovered = PersistentHeap::recover(heap.crash(false)).unwrap();
        let tree = PmAvlTree::open(&mut recovered).unwrap();
        let entries = tree.entries(&mut recovered).unwrap();
        let expected: Vec<(u64, u64)> = model.clone().into_iter().collect();
        assert_eq!(entries, expected);
        // AVL balance: height <= 1.44 lg(n+2).
        let n = tree.len(&mut recovered).unwrap();
        let height = tree.tree_height(&mut recovered).unwrap();
        let bound = (1.44 * ((n + 2) as f64).log2()).ceil() as u64 + 1;
        assert!(height <= bound, "height {height} > bound {bound} for n={n}");
    });
}

/// The repeated-crash-during-restore sweep: power fails again while (or
/// right after) the previous restore ran, 1..=4 times back to back,
/// with fresh mutations squeezed in after the first restore. However
/// many times the power fails, the heap converges to exactly the
/// committed state — restore must itself be crash-consistent.
fn check_repeated_crash_during_restore(
    ops: &[Op],
    between: &[Op],
    crashes: usize,
    use_stm: bool,
) {
    let config = if use_stm {
        HeapConfig::FocStm
    } else {
        HeapConfig::FocUndo
    };
    let mut heap = PersistentHeap::create(ByteSize::kib(512), config);
    let table = PmHashTable::create(&mut heap, 32).unwrap();
    let mut model = HashMap::new();
    for op in ops {
        apply_table(&table, &mut heap, *op).unwrap();
        apply_model(&mut model, *op);
    }

    for round in 0..crashes {
        // Power failure: no flush-on-fail save, then restore.
        heap = PersistentHeap::recover(heap.crash(false)).unwrap();
        if round == 0 {
            // Mutate after the first restore, then keep crashing: later
            // rounds crash "during restore" of this newer state.
            let table = PmHashTable::open(&mut heap).unwrap();
            for op in between {
                apply_table(&table, &mut heap, *op).unwrap();
                apply_model(&mut model, *op);
            }
        }
    }

    let table = PmHashTable::open(&mut heap).unwrap();
    check_matches_model(&table, &mut heap, &model);
}

#[test]
fn repeated_crash_during_restore_sweep() {
    Forall::new(gen::pair(
        gen::triple(ops(40), gen::vec_of(op(), 0..10), gen::in_range(1usize..5)),
        gen::any::<bool>(),
    ))
    .cases(24)
    .check(|((ops, between, crashes), use_stm)| {
        check_repeated_crash_during_restore(ops, between, *crashes, *use_stm);
    });
}

/// Epoch group commit trades durability granularity for throughput —
/// but never atomicity: a crash restores exactly the state of the last
/// *sealed* epoch, with every later operation vanished wholesale.
fn check_epoch_recovers_last_sealed_epoch(
    ops: &[Op],
    crash_at: usize,
    seal_every: usize,
    use_stm: bool,
) {
    let config = if use_stm {
        HeapConfig::FocStm
    } else {
        HeapConfig::FocUndo
    };
    let mut heap = PersistentHeap::create(ByteSize::kib(512), config);
    let table = PmHashTable::create(&mut heap, 32).unwrap();
    // Oversized epoch: seals happen only where this test places them,
    // so the expected durable state is known exactly.
    heap.set_epoch_size(100_000);

    let mut model = HashMap::new();
    let mut sealed_model = model.clone();
    let crash_at = crash_at.min(ops.len());
    for (i, op) in ops[..crash_at].iter().enumerate() {
        apply_table(&table, &mut heap, *op).unwrap();
        apply_model(&mut model, *op);
        if (i + 1) % seal_every == 0 {
            heap.seal_epoch();
            sealed_model = model.clone();
        }
    }

    let image = heap.crash(false);
    let mut recovered = PersistentHeap::recover(image).unwrap();
    let table = PmHashTable::open(&mut recovered).unwrap();
    check_matches_model(&table, &mut recovered, &sealed_model);
}

#[test]
fn epoch_recovers_last_sealed_epoch() {
    Forall::new(gen::pair(
        gen::triple(ops(60), gen::in_range(0usize..60), gen::in_range(1usize..9)),
        gen::any::<bool>(),
    ))
    .cases(24)
    .check(|((ops, crash_at, seal_every), use_stm)| {
        check_epoch_recovers_last_sealed_epoch(ops, *crash_at, *seal_every, *use_stm);
    });
}

/// The mid-epoch crash-point sweep: power failure after every committed
/// transaction inside an epoch and at every durable step of the seal
/// itself (including mid-coalesced-flush) restores the last complete
/// epoch — no crash point exposes a partial one.
#[test]
fn mid_epoch_sweep_never_exposes_partial_epoch() {
    for config in [HeapConfig::FocUndo, HeapConfig::FocStm] {
        for seed in [7u64, 42, 0x00DE_C0DE] {
            let report = wsp_repro::wsp::sweep_mid_epoch(config, seed);
            assert_eq!(report.epoch_size, 8, "{config}");
            assert!(
                report.crash_points > 23,
                "{config} seed {seed}: {} crash points",
                report.crash_points
            );
        }
    }
}

/// Differential property: FliT write elision is a pure performance
/// optimisation. An elision-on heap and a reference (always-append)
/// heap driven through the same epoch workload must produce
/// bitwise-identical crash images at every crash point — after every
/// committed transaction and at every durable step of a pipelined
/// double-generation seal — and recover to identical states. Any
/// divergence means elision changed what reaches NVRAM, not just how
/// fast it got there.
fn check_flit_elision_is_invisible(txs: &[Vec<(usize, u64)>], use_stm: bool) {
    use wsp_repro::pheap::PmPtr;

    const CELLS: usize = 4;
    let config = if use_stm {
        HeapConfig::FocStm
    } else {
        HeapConfig::FocUndo
    };
    let build = |flit: bool| -> (PersistentHeap, Vec<PmPtr>) {
        let mut heap = PersistentHeap::create(ByteSize::kib(256), config);
        let mut tx = heap.begin();
        let base = tx.alloc(CELLS as u64 * 64).unwrap();
        let mut cells = Vec::with_capacity(CELLS);
        for i in 0..CELLS {
            let p = base.byte_offset(i as u64 * 64);
            tx.write_word(p, 100 + i as u64).unwrap();
            cells.push(p);
        }
        tx.set_root(base).unwrap();
        tx.commit().unwrap();
        // Small epochs so the script stages several generations and
        // ends with both a staged and an open batch in flight.
        heap.set_epoch_size(3);
        heap.set_flit_enabled(flit);
        (heap, cells)
    };
    let (mut on, cells) = build(true);
    let (mut off, _) = build(false);

    let replay = |heap: &mut PersistentHeap, tx_ops: &[(usize, u64)]| {
        let mut tx = heap.begin();
        for &(cell, value) in tx_ops {
            tx.write_word(cells[cell % CELLS], value).unwrap();
        }
        tx.commit().unwrap();
    };

    for (t, tx_ops) in txs.iter().enumerate() {
        replay(&mut on, tx_ops);
        replay(&mut off, tx_ops);
        assert_eq!(
            on.clone().crash(false).bytes(),
            off.clone().crash(false).bytes(),
            "{config}: crash image diverged after tx {t}"
        );
        assert_eq!(
            (on.seal_steps(), on.staged_seal_steps()),
            (off.seal_steps(), off.staged_seal_steps()),
            "{config}: seal pipeline diverged after tx {t}"
        );
    }

    // Every durable step of sealing the final state — spanning the
    // staged batch, its marker, and the open batch when both are live.
    let steps = on.seal_steps();
    for step in 0..=steps {
        let img_on = on.clone().crash_mid_seal(step);
        let img_off = off.clone().crash_mid_seal(step);
        assert_eq!(
            img_on.bytes(),
            img_off.bytes(),
            "{config}: mid-seal image diverged at step {step}/{steps}"
        );
        let mut on_rec = PersistentHeap::recover(img_on).unwrap();
        let mut off_rec = PersistentHeap::recover(img_off).unwrap();
        let mut chk_on = on_rec.begin();
        let mut chk_off = off_rec.begin();
        for &p in &cells {
            assert_eq!(
                chk_on.read_word(p).unwrap(),
                chk_off.read_word(p).unwrap(),
                "{config}: recovered value diverged at step {step}/{steps}"
            );
        }
        chk_on.commit().unwrap();
        chk_off.commit().unwrap();
    }
}

fn flit_txs() -> Gen<Vec<Vec<(usize, u64)>>> {
    // Four cells and 1-4 writes per transaction make repeated writes to
    // the same word (the elision case) the common schedule, not a rare
    // one.
    gen::vec_of(
        gen::vec_of(
            gen::pair(gen::in_range(0usize..4), gen::any::<u64>()),
            1..5,
        ),
        1..13,
    )
}

#[test]
fn flit_elision_is_invisible_at_every_crash_point() {
    Forall::new(gen::pair(flit_txs(), gen::any::<bool>()))
        .cases(12)
        .check(|(txs, use_stm)| {
            check_flit_elision_is_invisible(txs, *use_stm);
        });
}

/// Fixed-seed corpus for the elision property: pinned seeds keep
/// re-checking schedules that exercised the staged/open boundary and
/// heavy same-word rewrite bursts.
#[test]
fn flit_elision_fixed_seed_corpus() {
    for seed in [7u64, 42, 0x00DE_C0DE] {
        Forall::new(gen::pair(flit_txs(), gen::any::<bool>()))
            .seed(seed)
            .cases(6)
            .check(|(txs, use_stm)| {
                check_flit_elision_is_invisible(txs, *use_stm);
            });
    }
}

/// Two clients racing on the same words: each brings its own
/// transaction stream, a generated schedule interleaves their commits
/// (transactions are the heap's concurrency unit — sub-transactional
/// races live in the lock-free sweep), and the merged schedule must
/// keep elision-on and reference heaps bitwise identical. The racing
/// shape matters to FliT specifically: back-to-back rewrites of one
/// word now arrive from *different* writers, so per-word flush
/// tracking that keyed elision on the writing client — rather than on
/// the word's actual flush state — would diverge here and nowhere in
/// the single-writer property above.
fn check_flit_elision_under_racing_writers(
    a: &[Vec<(usize, u64)>],
    b: &[Vec<(usize, u64)>],
    schedule: &[bool],
    use_stm: bool,
) {
    let (mut ia, mut ib) = (0, 0);
    let mut merged: Vec<Vec<(usize, u64)>> = Vec::with_capacity(a.len() + b.len());
    for &pick_a in schedule {
        if (pick_a && ia < a.len()) || ib >= b.len() {
            if ia < a.len() {
                merged.push(a[ia].clone());
                ia += 1;
            }
        } else {
            merged.push(b[ib].clone());
            ib += 1;
        }
    }
    merged.extend(a[ia..].iter().cloned());
    merged.extend(b[ib..].iter().cloned());
    check_flit_elision_is_invisible(&merged, use_stm);
}

/// Both racing clients favor the same two cells, making cross-writer
/// same-word rewrites the common case instead of a lucky draw.
fn racing_txs() -> Gen<Vec<Vec<(usize, u64)>>> {
    gen::vec_of(
        gen::vec_of(
            gen::pair(gen::in_range(0usize..2), gen::any::<u64>()),
            1..4,
        ),
        1..8,
    )
}

#[test]
fn flit_elision_is_invisible_under_racing_writers() {
    Forall::new(gen::pair(
        gen::triple(
            racing_txs(),
            racing_txs(),
            gen::vec_of(gen::any::<bool>(), 1..15),
        ),
        gen::any::<bool>(),
    ))
    .cases(10)
    .check(|((a, b, schedule), use_stm)| {
        check_flit_elision_under_racing_writers(a, b, schedule, *use_stm);
    });
}

/// Fixed-seed regression corpus: seeds that exercised interesting
/// schedules stay pinned so every future run re-checks them even after
/// the default seed or generators change.
#[test]
fn fixed_seed_regression_corpus() {
    for seed in [1u64, 42, 0x5749_5350, 0x00DE_C0DE] {
        Forall::new(gen::triple(
            ops(60),
            gen::in_range(0usize..60),
            gen::any::<bool>(),
        ))
        .seed(seed)
        .cases(6)
        .check(|(ops, crash_at, use_stm)| {
            check_foc_recovers_committed_prefix(ops, *crash_at, *use_stm);
        });
        Forall::new(gen::triple(
            ops(60),
            gen::in_range(0u8..3),
            gen::any::<bool>(),
        ))
        .seed(seed)
        .cases(6)
        .check(|(ops, config_pick, save_fits)| {
            check_fof_all_or_nothing(ops, *config_pick, *save_fits);
        });
        Forall::new(gen::pair(
            gen::triple(ops(40), gen::vec_of(op(), 0..10), gen::in_range(1usize..5)),
            gen::any::<bool>(),
        ))
        .seed(seed)
        .cases(6)
        .check(|((ops, between, crashes), use_stm)| {
            check_repeated_crash_during_restore(ops, between, *crashes, *use_stm);
        });
        Forall::new(gen::pair(
            gen::triple(ops(60), gen::in_range(0usize..60), gen::in_range(1usize..9)),
            gen::any::<bool>(),
        ))
        .seed(seed)
        .cases(6)
        .check(|((ops, crash_at, seal_every), use_stm)| {
            check_epoch_recovers_last_sealed_epoch(ops, *crash_at, *seal_every, *use_stm);
        });
    }
}

// ---------------------------------------------------------------------------
// Cross-shard 2PC all-or-nothing
// ---------------------------------------------------------------------------

/// Drives one randomly generated cross-shard transaction over a
/// three-shard fleet to a randomly chosen 2PC step, cuts power on the
/// whole fleet, resolves it against the coordinator's decision log, and
/// checks the bank invariant: the write-set is visible on every shard
/// or on none — no crash point may expose a partial write-set.
fn check_cross_shard_all_or_nothing(
    ops: &[(usize, usize, u64)],
    step_pick: usize,
    sub_step: u64,
    use_stm: bool,
) {
    use wsp_repro::cluster::ClusterSpec;
    use wsp_repro::pheap::PmPtr;
    use wsp_repro::wsp::{resolve_cross_shard, CoordinatorPool};

    const SHARDS: usize = 3;
    const CELLS: usize = 4;
    let config = if use_stm {
        HeapConfig::FocStm
    } else {
        HeapConfig::FocUndo
    };

    // A committed baseline cell grid on every shard.
    let mut heaps: Vec<PersistentHeap> = Vec::with_capacity(SHARDS);
    let mut cells: Vec<Vec<(PmPtr, u64)>> = Vec::with_capacity(SHARDS);
    for s in 0..SHARDS {
        let mut heap = PersistentHeap::create(ByteSize::kib(256), config);
        let mut tx = heap.begin();
        let base = tx.alloc(CELLS as u64 * 64).unwrap();
        let mut sc = Vec::with_capacity(CELLS);
        for i in 0..CELLS {
            let p = base.byte_offset(i as u64 * 64);
            let v = 1_000 + (s * CELLS + i) as u64;
            tx.write_word(p, v).unwrap();
            sc.push((p, v));
        }
        tx.set_root(base).unwrap();
        tx.commit().unwrap();
        heaps.push(heap);
        cells.push(sc);
    }

    // One coordinator deciding each transaction on its own record;
    // per-shard steps call the heap's distributed-commit primitives.
    let mut pool = CoordinatorPool::new(1, 1);
    let mut txn = pool.begin(0, SHARDS);
    for &(shard, cell, value) in ops {
        let (shard, cell) = (shard % SHARDS, cell % CELLS);
        txn.stage(shard, cells[shard][cell].0.offset(), value);
    }
    let participants = txn.participants();
    let gtxid = txn.gtxid();
    let first = participants[0];

    // Drive the protocol to the generated crash step. 0 = pre-prepare,
    // 1 = between prepares, 2 = all prepared / no decision, 3 = decided
    // / no shard marker, 4 = decided / first marker durable, 5 = first
    // participant dies `sub_step` words into its prepare seal, 6 =
    // first participant's commit marker torn or fenced.
    let mut decided = false;
    let mut mid_prepare: Option<u64> = None;
    let mut mid_commit: Option<bool> = None;
    let decide = |pool: &mut CoordinatorPool, heaps: &mut [PersistentHeap]| {
        assert!(pool.prepare(0, heaps, &txn).unwrap().is_none());
        pool.buffer_decision(0, &txn);
        pool.seal_decisions(0);
    };
    match step_pick % 7 {
        0 => {}
        1 => {
            heaps[first]
                .prepare_distributed(gtxid, txn.writes_for(first))
                .unwrap();
        }
        2 => {
            assert!(pool.prepare(0, &mut heaps, &txn).unwrap().is_none());
        }
        3 | 4 => {
            decide(&mut pool, &mut heaps);
            decided = true;
            if step_pick % 7 == 4 {
                heaps[first].commit_distributed(gtxid).unwrap();
            }
        }
        5 => mid_prepare = Some(sub_step),
        6 => {
            decide(&mut pool, &mut heaps);
            decided = true;
            mid_commit = Some(sub_step.is_multiple_of(2));
        }
        _ => unreachable!(),
    }

    // Power fails everywhere at once.
    let coordinator_image = pool.crash_image();
    let images = heaps
        .into_iter()
        .enumerate()
        .map(|(shard, heap)| {
            Some(match (shard == first, mid_prepare, mid_commit) {
                (true, Some(step), _) => {
                    heap.crash_mid_prepare(gtxid, txn.writes_for(shard), step)
                }
                (true, None, Some(durable)) => heap.crash_mid_commit(gtxid, durable),
                _ => heap.crash(false),
            })
        })
        .collect();

    let recovery = resolve_cross_shard(&coordinator_image, images, &ClusterSpec::memcache_tier(8));
    assert_eq!(
        recovery.decided.contains(&gtxid),
        decided,
        "decision durability must match the protocol step"
    );
    assert!(recovery.fully_recovered(), "no shard image was lost");

    // The model: baseline, plus the whole write-set iff decided.
    let mut expected: Vec<HashMap<u64, u64>> = cells
        .iter()
        .map(|sc| sc.iter().map(|&(p, v)| (p.offset(), v)).collect())
        .collect();
    if decided {
        for &(shard, cell, value) in ops {
            let (shard, cell) = (shard % SHARDS, cell % CELLS);
            expected[shard].insert(cells[shard][cell].0.offset(), value);
        }
    }
    for mut shard_rec in recovery.shards {
        let shard = shard_rec.shard;
        let heap = shard_rec.heap.as_mut().unwrap();
        let mut check = heap.begin();
        for (&addr, &want) in &expected[shard] {
            let got = check.read_word(PmPtr::new(addr).unwrap()).unwrap();
            assert_eq!(
                got, want,
                "shard {shard} cell {addr:#x}: partial write-set exposed at step {step_pick}"
            );
        }
        check.commit().unwrap();
    }
}

fn xshard_ops() -> Gen<Vec<(usize, usize, u64)>> {
    gen::vec_of(
        gen::triple(gen::in_range(0usize..3), gen::in_range(0usize..4), gen::any::<u64>()),
        1..7,
    )
}

#[test]
fn cross_shard_txn_is_all_or_nothing() {
    Forall::new(gen::pair(
        gen::triple(xshard_ops(), gen::in_range(0usize..7), gen::in_range(0u64..12)),
        gen::any::<bool>(),
    ))
    .cases(32)
    .check(|((ops, step_pick, sub_step), use_stm)| {
        check_cross_shard_all_or_nothing(ops, *step_pick, *sub_step, *use_stm);
    });
}

/// Fixed-seed regression corpus for the cross-shard property: pinned
/// seeds keep re-checking historically interesting 2PC schedules.
#[test]
fn cross_shard_fixed_seed_corpus() {
    for seed in [1u64, 42, 0x5749_5350, 0x00DE_C0DE] {
        Forall::new(gen::pair(
            gen::triple(xshard_ops(), gen::in_range(0usize..7), gen::in_range(0u64..12)),
            gen::any::<bool>(),
        ))
        .seed(seed)
        .cases(8)
        .check(|((ops, step_pick, sub_step), use_stm)| {
            check_cross_shard_all_or_nothing(ops, *step_pick, *sub_step, *use_stm);
        });
    }
}

/// Two cross-shard transactions in flight at the same outage, prepared
/// interleaved on an overlapping shard: A spans shards 0–1, B spans
/// shards 1–2, and the crash lands after A's decision record but before
/// B's. Shard 1's single log then holds both prepared write-sets, and
/// one recovery pass over that shared flush must split them — A applied
/// everywhere, B presumed-abort everywhere — with nothing in between.
fn check_interleaved_in_flight_txns(use_stm: bool, interleave: usize) {
    use wsp_repro::cluster::ClusterSpec;
    use wsp_repro::pheap::PmPtr;
    use wsp_repro::wsp::{resolve_cross_shard, CoordinatorPool};

    const SHARDS: usize = 3;
    let config = if use_stm {
        HeapConfig::FocStm
    } else {
        HeapConfig::FocUndo
    };

    // Baseline: two committed cells per shard, on distinct lines. A
    // writes cell 0, B writes cell 1 — disjoint even on the shared
    // shard, as in-flight write-sets must be (the undo flavour applies
    // prepares in place).
    let mut heaps: Vec<PersistentHeap> = Vec::with_capacity(SHARDS);
    let mut cells: Vec<Vec<(PmPtr, u64)>> = Vec::with_capacity(SHARDS);
    for s in 0..SHARDS {
        let mut heap = PersistentHeap::create(ByteSize::kib(256), config);
        let mut tx = heap.begin();
        let base = tx.alloc(2 * 64).unwrap();
        let mut sc = Vec::with_capacity(2);
        for i in 0..2 {
            let p = base.byte_offset(i as u64 * 64);
            let v = 500 + (s * 2 + i) as u64;
            tx.write_word(p, v).unwrap();
            sc.push((p, v));
        }
        tx.set_root(base).unwrap();
        tx.commit().unwrap();
        heaps.push(heap);
        cells.push(sc);
    }

    let mut pool = CoordinatorPool::new(1, 1);
    let mut txn_a = pool.begin(0, SHARDS);
    txn_a.stage(0, cells[0][0].0.offset(), 7_001);
    txn_a.stage(1, cells[1][0].0.offset(), 7_002);
    let mut txn_b = pool.begin(0, SHARDS);
    txn_b.stage(1, cells[1][1].0.offset(), 8_001);
    txn_b.stage(2, cells[2][1].0.offset(), 8_002);

    // Three interleavings of the four prepares; every one ends with
    // both write-sets durable in shard 1's log and only A decided.
    let order: &[(usize, bool)] = match interleave % 3 {
        0 => &[(0, true), (1, false), (1, true), (2, false)],
        1 => &[(1, false), (0, true), (2, false), (1, true)],
        _ => &[(0, true), (1, true), (1, false), (2, false)],
    };
    for &(shard, is_a) in order {
        let txn = if is_a { &txn_a } else { &txn_b };
        heaps[shard]
            .prepare_distributed(txn.gtxid(), txn.writes_for(shard))
            .unwrap();
    }
    pool.buffer_decision(0, &txn_a);
    pool.seal_decisions(0);

    // One outage takes the whole fleet.
    let coordinator_image = pool.crash_image();
    let images = heaps.into_iter().map(|h| Some(h.crash(false))).collect();
    let recovery =
        resolve_cross_shard(&coordinator_image, images, &ClusterSpec::memcache_tier(8));
    assert!(recovery.decided.contains(&txn_a.gtxid()));
    assert!(!recovery.decided.contains(&txn_b.gtxid()));
    assert!(recovery.fully_recovered());

    // A landed everywhere, B nowhere — shard 1 resolved both from the
    // same recovered log, one commit and one presumed abort.
    let mut expected: Vec<Vec<u64>> = cells
        .iter()
        .map(|sc| sc.iter().map(|&(_, v)| v).collect())
        .collect();
    expected[0][0] = 7_001;
    expected[1][0] = 7_002;
    for mut shard_rec in recovery.shards {
        let shard = shard_rec.shard;
        if shard == 1 {
            let resolution = shard_rec.resolution.as_ref().unwrap();
            assert!(resolution.committed.contains(&txn_a.gtxid()), "{config}");
            assert!(resolution.aborted.contains(&txn_b.gtxid()), "{config}");
        }
        let heap = shard_rec.heap.as_mut().unwrap();
        let mut check = heap.begin();
        for (cell, &want) in expected[shard].iter().enumerate() {
            let got = check.read_word(cells[shard][cell].0).unwrap();
            assert_eq!(
                got, want,
                "{config} interleave {interleave}: shard {shard} cell {cell}"
            );
        }
        check.commit().unwrap();
    }
}

#[test]
fn interleaved_in_flight_txns_resolve_split() {
    for use_stm in [false, true] {
        for interleave in 0..3 {
            check_interleaved_in_flight_txns(use_stm, interleave);
        }
    }
}

/// Group-decided split resolution: four transactions from two
/// concurrent coordinators share one decision log, a *single* group
/// record seals the first `split` of them, and the outage lands before
/// anything else — phase 2 included. One recovery pass over that one
/// shared-log flush must commit every sealed member on every shard and
/// presume abort for every still-buffered one, and the recovered pool
/// must attribute each durable decision to the coordinator generation
/// that sealed it.
fn check_grouped_split(use_stm: bool, seed: u64, split: usize) {
    use wsp_det::{DetRng, Rng};
    use wsp_repro::cluster::ClusterSpec;
    use wsp_repro::pheap::PmPtr;
    use wsp_repro::wsp::{
        coordinator_of, resolve_cross_shard, CoordinatorPool, SubmitOutcome,
    };

    const SHARDS: usize = 3;
    const TXNS: usize = 4;
    const POOL_COORDS: usize = 2;
    let config = if use_stm {
        HeapConfig::FocStm
    } else {
        HeapConfig::FocUndo
    };
    let mut rng = DetRng::seed_from_u64(seed);

    // Baseline: one committed cell per transaction per shard, so the
    // concurrently-prepared write sets stay pairwise disjoint.
    let mut heaps: Vec<PersistentHeap> = Vec::with_capacity(SHARDS);
    let mut cells: Vec<Vec<(PmPtr, u64)>> = Vec::with_capacity(SHARDS);
    for _ in 0..SHARDS {
        let mut heap = PersistentHeap::create(ByteSize::kib(256), config);
        let mut tx = heap.begin();
        let base = tx.alloc(TXNS as u64 * 64).unwrap();
        let mut sc = Vec::with_capacity(TXNS);
        for i in 0..TXNS {
            let p = base.byte_offset(i as u64 * 64);
            let v = rng.gen::<u64>();
            tx.write_word(p, v).unwrap();
            sc.push((p, v));
        }
        tx.set_root(base).unwrap();
        tx.commit().unwrap();
        heaps.push(heap);
        cells.push(sc);
    }

    // Large group size: the seal below is the only one, covering
    // exactly the first `split` decisions.
    let mut pool = CoordinatorPool::new(POOL_COORDS, TXNS + 1);
    let mut gtxids = Vec::with_capacity(TXNS);
    let mut staged: Vec<Vec<(usize, u64)>> = Vec::with_capacity(TXNS);
    #[allow(clippy::needless_range_loop)]
    for t in 0..TXNS {
        let coordinator = t % POOL_COORDS;
        let mut txn = pool.begin(coordinator, SHARDS);
        let mut writes = Vec::new();
        for shard in [t % SHARDS, (t + 1) % SHARDS] {
            let value = rng.gen::<u64>();
            txn.stage(shard, cells[shard][t].0.offset(), value);
            writes.push((shard, value));
        }
        assert_eq!(
            pool.submit(coordinator, &mut heaps, &txn).unwrap(),
            SubmitOutcome::Buffered,
            "{config} seed {seed}: txn {t}"
        );
        gtxids.push(txn.gtxid());
        staged.push(writes);
        if t + 1 == split {
            assert_eq!(pool.seal_decisions(coordinator), split);
        }
    }

    // One outage takes the fleet before any phase 2.
    let coordinator_image = pool.crash_image();
    let images = heaps.into_iter().map(|h| Some(h.crash(false))).collect();
    let recovery =
        resolve_cross_shard(&coordinator_image, images, &ClusterSpec::memcache_tier(8));
    assert!(recovery.fully_recovered(), "{config} seed {seed}");

    let recovered = CoordinatorPool::recover(&coordinator_image, POOL_COORDS, TXNS + 1);
    let mut expected: Vec<Vec<u64>> = cells
        .iter()
        .map(|sc| sc.iter().map(|&(_, v)| v).collect())
        .collect();
    for (t, &gtxid) in gtxids.iter().enumerate() {
        let sealed = t < split;
        assert_eq!(
            recovery.decided.contains(&gtxid),
            sealed,
            "{config} seed {seed} split {split}: txn {t}"
        );
        let origin = recovered.attribute(gtxid);
        if sealed {
            let origin = origin.expect("sealed decision attributes");
            assert_eq!(origin.coordinator, t % POOL_COORDS, "{config} seed {seed}");
            assert_eq!(origin.generation, 1, "{config} seed {seed}");
            for &(shard, value) in &staged[t] {
                expected[shard][t] = value;
            }
        } else {
            assert_eq!(origin, None, "{config} seed {seed}: txn {t}");
        }
        assert_eq!(coordinator_of(gtxid), t % POOL_COORDS, "{config} seed {seed}");
    }

    // The sealed members landed everywhere, the buffered tail nowhere.
    for mut shard_rec in recovery.shards {
        let shard = shard_rec.shard;
        let heap = shard_rec.heap.as_mut().unwrap();
        let mut check = heap.begin();
        for (cell, &want) in expected[shard].iter().enumerate() {
            let got = check.read_word(cells[shard][cell].0).unwrap();
            assert_eq!(
                got, want,
                "{config} seed {seed} split {split}: shard {shard} cell {cell}"
            );
        }
        check.commit().unwrap();
    }
}

/// Fixed-seed matrix for the grouped split: both FoC configs, every
/// proper prefix length, pinned seeds.
#[test]
fn grouped_split_fixed_seed_corpus() {
    for use_stm in [false, true] {
        for seed in [1u64, 42, 0x5749_5350, 0x00DE_C0DE] {
            for split in 1..4 {
                check_grouped_split(use_stm, seed, split);
            }
        }
    }
}
