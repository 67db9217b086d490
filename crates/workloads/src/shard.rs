//! A sharded, deterministic KV serving engine: [`KvServer`] hash-
//! partitioned across per-shard persistent heaps, driven by closed-loop
//! multi-client YCSB command mixes on the crash sweeps' runner,
//! [`wsp_core::sweep::run`].
//!
//! Each shard is one runner point: every per-shard (and per-client)
//! PRNG is split *serially* from the run seed before any worker starts,
//! each shard runs against its own heap under its own `wsp-obs`
//! recorder, and per-shard results — stats, latency histograms, traces,
//! metrics — are merged in shard order. The outcome is bitwise
//! identical for any `WSP_FAULTSIM_THREADS` worker count, including the
//! fully serial path.
//!
//! Sharding is by key: shard `s` of `N` owns exactly the keys
//! `k * N + s`, so the same logical store partitions cleanly and each
//! shard's heap can seal durability epochs (group commit) without any
//! cross-shard coordination — the serving-path analogue of the paper's
//! per-core flush argument.

use wsp_core::sweep;
use wsp_det::{DetRng, Rng};
use wsp_obs as obs;
use wsp_pheap::lockfree::{
    payload, preload_hash, FlushPolicy, LfLayout, LfRegion, OpKind, ThreadMachine,
};
use wsp_pheap::{HeapConfig, HeapError, PersistentHeap};
use wsp_units::{ByteSize, LatencyHistogram, Nanos};

use crate::{Command, KvServer, YcsbMix, Zipfian};

/// A sharded multi-client KV benchmark: the serving-path driver the
/// ROADMAP's "heavy traffic" north star asks for.
///
/// # Examples
///
/// ```
/// use wsp_pheap::HeapConfig;
/// use wsp_workloads::{ShardedKvBench, YcsbMix};
///
/// let report = ShardedKvBench::quick(2).run(HeapConfig::FocUndo, 42)?;
/// assert_eq!(report.shards.len(), 2);
/// assert!(report.aggregate_ops_per_sec > 0.0);
/// # Ok::<(), wsp_pheap::HeapError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardedKvBench {
    /// Logical shards (per-shard heaps). Keys `k * shards + s` live on
    /// shard `s`.
    pub shards: usize,
    /// Closed-loop clients per shard, interleaved round-robin.
    pub clients_per_shard: usize,
    /// Commands each client issues during the measured phase.
    pub ops_per_client: u64,
    /// Records preloaded per shard before measurement.
    pub records_per_shard: u64,
    /// Heap region size per shard.
    pub region: ByteSize,
    /// Durability-epoch size per shard heap (1 = per-transaction).
    pub epoch_size: u64,
    /// YCSB command mix the clients issue.
    pub mix: YcsbMix,
    /// Zipfian skew for key selection.
    pub zipf_theta: f64,
    /// Concurrent client threads inside each shard for the lock-free
    /// serving path ([`ShardedKvBench::run_concurrent`]). The classic
    /// [`ShardedKvBench::run`] path ignores this and serializes
    /// `clients_per_shard` closed-loop clients through the shard heap.
    pub in_shard_threads: usize,
}

impl ShardedKvBench {
    /// Standard scale: 2 000 records and four clients per shard,
    /// 2 000 ops each, epoch size 32.
    #[must_use]
    pub fn standard(shards: usize) -> Self {
        ShardedKvBench {
            shards,
            clients_per_shard: 4,
            ops_per_client: 2_000,
            records_per_shard: 2_000,
            region: ByteSize::mib(16),
            epoch_size: 32,
            mix: YcsbMix::A,
            zipf_theta: 0.99,
            in_shard_threads: 1,
        }
    }

    /// Scaled down for tests and doc examples.
    #[must_use]
    pub fn quick(shards: usize) -> Self {
        ShardedKvBench {
            shards,
            clients_per_shard: 2,
            ops_per_client: 250,
            records_per_shard: 200,
            region: ByteSize::mib(4),
            epoch_size: 8,
            mix: YcsbMix::A,
            zipf_theta: 0.99,
            in_shard_threads: 1,
        }
    }

    /// Runs the benchmark with the ambient [`sweep::threads`] worker
    /// count.
    ///
    /// # Errors
    ///
    /// Propagates heap failures from any shard.
    ///
    /// # Panics
    ///
    /// Panics if `shards` or `clients_per_shard` is zero.
    pub fn run(&self, config: HeapConfig, seed: u64) -> Result<ShardedKvReport, HeapError> {
        self.run_on(config, seed, sweep::threads())
    }

    /// Runs the benchmark on an explicit worker count. The report is
    /// bitwise identical for every `threads` value.
    ///
    /// # Errors
    ///
    /// Propagates heap failures from any shard.
    ///
    /// # Panics
    ///
    /// Panics if `shards` or `clients_per_shard` is zero.
    pub fn run_on(
        &self,
        config: HeapConfig,
        seed: u64,
        threads: usize,
    ) -> Result<ShardedKvReport, HeapError> {
        self.run_shards(config, seed, threads, false)
    }

    /// Runs the lock-free concurrent serving path: inside every shard,
    /// [`ShardedKvBench::in_shard_threads`] client threads mutate one
    /// detectable open-addressed hash concurrently (YCSB on many cores
    /// inside one shard), with the ambient worker count across shards.
    ///
    /// Each in-shard thread pays simulated time only for the steps it
    /// executes, so the shard's measured phase is the *slowest thread's
    /// clock* — concurrency shortens the shard wall exactly as extra
    /// cores would, while CAS conflicts and helping charge the threads
    /// that incur them.
    ///
    /// # Errors
    ///
    /// Propagates heap failures (none arise on this path today; the
    /// signature matches [`ShardedKvBench::run`] for drop-in use).
    ///
    /// # Panics
    ///
    /// Panics if `shards` or `in_shard_threads` is zero.
    pub fn run_concurrent(&self, config: HeapConfig, seed: u64) -> Result<ShardedKvReport, HeapError> {
        self.run_concurrent_on(config, seed, sweep::threads())
    }

    /// [`ShardedKvBench::run_concurrent`] on an explicit cross-shard
    /// worker count. The report is bitwise identical for every
    /// `threads` value.
    ///
    /// # Errors
    ///
    /// Propagates heap failures from any shard.
    ///
    /// # Panics
    ///
    /// Panics if `shards` or `in_shard_threads` is zero.
    pub fn run_concurrent_on(
        &self,
        config: HeapConfig,
        seed: u64,
        threads: usize,
    ) -> Result<ShardedKvReport, HeapError> {
        assert!(self.in_shard_threads > 0, "at least one in-shard thread");
        self.run_shards(config, seed, threads, true)
    }

    fn run_shards(
        &self,
        config: HeapConfig,
        seed: u64,
        threads: usize,
        concurrent: bool,
    ) -> Result<ShardedKvReport, HeapError> {
        assert!(self.shards > 0, "at least one shard");
        assert!(self.clients_per_shard > 0, "at least one client per shard");

        // Serial pre-split: shard s draws its PRNG before any worker
        // exists, so the streams are independent of scheduling.
        let mut parent = DetRng::seed_from_u64(seed);
        let plans: Vec<(usize, DetRng)> =
            (0..self.shards).map(|s| (s, parent.split())).collect();

        let (outcomes, merged) = sweep::run(plans, threads, |(shard, rng)| {
            if concurrent {
                self.run_shard_concurrent(config, shard, rng)
            } else {
                self.run_shard(config, shard, rng)
            }
        });

        // Merge in shard order — the only order there is.
        let mut latencies = LatencyHistogram::new();
        let mut shards = Vec::with_capacity(self.shards);
        let mut total_ops = 0u64;
        let mut wall = Nanos::ZERO;
        for outcome in outcomes {
            let outcome = outcome?;
            obs::count(obs::Ctr::KvShardMerges);
            latencies.merge(&outcome.latencies);
            total_ops += outcome.ops;
            wall = wall.max(outcome.elapsed);
            shards.push(outcome);
        }
        let aggregate = total_ops as f64 / wall.as_secs_f64().max(1e-12);
        Ok(ShardedKvReport {
            config,
            mix: self.mix,
            epoch_size: self.epoch_size,
            total_ops,
            wall_time: wall,
            aggregate_ops_per_sec: aggregate,
            latencies,
            shards,
            trace: merged.trace,
            metrics: merged.metrics,
        })
    }

    /// One shard: own heap, own server, own clients — fully independent
    /// of every other shard.
    fn run_shard(
        &self,
        config: HeapConfig,
        shard: usize,
        mut rng: DetRng,
    ) -> Result<ShardOutcome, HeapError> {
        let stride = self.shards as u64;
        let shard_key = |k: u64| k * stride + shard as u64;

        let mut heap = PersistentHeap::create(self.region, config);
        let mut server = KvServer::create(&mut heap)?;
        heap.set_epoch_size(self.epoch_size);
        let table = server.table();
        for k in 0..self.records_per_shard {
            table.insert(&mut heap, shard_key(k), k)?;
        }
        heap.seal_epoch();

        // Closed-loop clients: each issues its next command only after
        // the previous one completed; the round-robin interleave is the
        // deterministic schedule. Client PRNGs are split serially in
        // client order.
        let mut clients: Vec<DetRng> =
            (0..self.clients_per_shard).map(|_| rng.split()).collect();
        let zipf = Zipfian::new(self.records_per_shard, self.zipf_theta);
        let mut next_fresh = self.records_per_shard;

        let t0 = heap.elapsed();
        for _ in 0..self.ops_per_client {
            for client in &mut clients {
                let key = shard_key(zipf.sample(client));
                let roll: f64 = client.gen();
                let cmd = match self.mix {
                    YcsbMix::A if roll < 0.5 => Command::Get(key),
                    YcsbMix::A => Command::Set(key, roll.to_bits()),
                    YcsbMix::B if roll < 0.95 => Command::Get(key),
                    YcsbMix::B => Command::Set(key, roll.to_bits()),
                    YcsbMix::C => Command::Get(key),
                    YcsbMix::D if roll < 0.95 => Command::Get(shard_key(next_fresh - 1)),
                    YcsbMix::D => {
                        let k = next_fresh;
                        next_fresh += 1;
                        Command::Set(shard_key(k), k)
                    }
                    YcsbMix::F if roll < 0.5 => Command::Get(key),
                    YcsbMix::F => Command::Incr(key, 1),
                };
                let before = heap.elapsed();
                server.execute(&mut heap, &cmd)?;
                obs::count(obs::Ctr::KvOps);
                obs::observe(obs::Hist::KvOp, heap.elapsed() - before);
            }
        }
        // The run's durability boundary: nothing is left buffered in an
        // open epoch, and the seal cost stays inside the measured phase.
        heap.seal_epoch();
        let elapsed = heap.elapsed() - t0;

        let ops = self.ops_per_client * self.clients_per_shard as u64;
        Ok(ShardOutcome {
            shard,
            ops,
            elapsed,
            commands: server.commands_served(),
            items: table.len(&mut heap)?,
            latencies: server.latencies().clone(),
        })
    }

    /// One shard of the concurrent path: `in_shard_threads` detectable
    /// hash clients racing on a single lock-free region.
    fn run_shard_concurrent(
        &self,
        config: HeapConfig,
        shard: usize,
        mut rng: DetRng,
    ) -> Result<ShardOutcome, HeapError> {
        let stride = self.shards as u64;
        let shard_key = |k: u64| k * stride + shard as u64;
        let policy = if config.flush_on_commit() {
            FlushPolicy::FlushOnCommit
        } else {
            FlushPolicy::FlushOnFail
        };
        let clients = self.in_shard_threads;
        // Mix D is the only insert-bearing mix; budget fresh keys for it.
        let fresh_budget = match self.mix {
            YcsbMix::D => self.ops_per_client * clients as u64,
            _ => 0,
        };
        let slots = ((self.records_per_shard + fresh_budget) * 2)
            .next_power_of_two()
            .max(16) as usize;
        // Inserts and updates each publish one fresh entry line; the
        // preload arena holds one line per preloaded record.
        let arena_lines = (self.ops_per_client as usize).max(self.records_per_shard as usize) + 1;
        let lay = LfLayout::new(clients, slots, arena_lines, policy);
        let mut region = LfRegion::create(lay);
        let pairs: Vec<(u64, u64)> =
            (0..self.records_per_shard).map(|k| (shard_key(k), k)).collect();
        preload_hash(&mut region, &pairs);

        // Client plans from serially split PRNGs (client order), then
        // the scheduler stream: the crash-sweep determinism recipe.
        let zipf = Zipfian::new(self.records_per_shard, self.zipf_theta);
        let mut machines: Vec<ThreadMachine> = (0..clients)
            .map(|c| {
                let mut crng = rng.split();
                let first_fresh = self.records_per_shard + c as u64;
                let mut fresh = first_fresh;
                let plan: Vec<OpKind> = (0..self.ops_per_client)
                    .map(|_| {
                        let key = shard_key(zipf.sample(&mut crng));
                        let roll: f64 = crng.gen();
                        match self.mix {
                            YcsbMix::A if roll < 0.5 => OpKind::Get(key),
                            YcsbMix::A => OpKind::Update(key, roll.to_bits()),
                            YcsbMix::B if roll < 0.95 => OpKind::Get(key),
                            YcsbMix::B => OpKind::Update(key, roll.to_bits()),
                            YcsbMix::C => OpKind::Get(key),
                            YcsbMix::D if roll < 0.95 => {
                                // Read the newest key this client wrote
                                // (or the newest preload before any).
                                let latest = if fresh > first_fresh {
                                    fresh - clients as u64
                                } else {
                                    self.records_per_shard - 1
                                };
                                OpKind::Get(shard_key(latest))
                            }
                            YcsbMix::D => {
                                let k = fresh;
                                fresh += clients as u64;
                                OpKind::Insert(shard_key(k), k)
                            }
                            // Incr is read-modify-write; the lock-free
                            // table models it as a value replacement.
                            YcsbMix::F if roll < 0.5 => OpKind::Get(key),
                            YcsbMix::F => OpKind::Update(key, roll.to_bits()),
                        }
                    })
                    .collect();
                ThreadMachine::new(lay, c as u8, plan)
            })
            .collect();
        let mut sched = rng.split();
        for m in &mut machines {
            m.prepare(&mut region);
        }

        // Uniform random scheduling over unfinished clients. Each
        // thread's clock accumulates only its own steps' simulated
        // time: threads run on their own cores, so the shard's wall is
        // the slowest thread's clock, not the sum.
        let mut clocks = vec![Nanos::ZERO; clients];
        let mut op_start = vec![Nanos::ZERO; clients];
        let mut returned = vec![0usize; clients];
        let mut latencies = LatencyHistogram::new();
        let mut commands = 0u64;
        loop {
            let live: Vec<usize> = (0..clients).filter(|&i| !machines[i].done()).collect();
            if live.is_empty() {
                break;
            }
            let i = live[sched.gen_range(0..live.len())];
            let before = region.elapsed();
            machines[i].step(&mut region);
            clocks[i] += region.elapsed() - before;
            while returned[i] < machines[i].results().len() {
                returned[i] += 1;
                let lat = clocks[i] - op_start[i];
                op_start[i] = clocks[i];
                latencies.record(lat);
                obs::observe(obs::Hist::LockfreeOp, lat);
                obs::count(obs::Ctr::LockfreeOps);
                commands += 1;
            }
        }
        let wall = clocks.iter().copied().max().unwrap_or(Nanos::ZERO);
        for m in &machines {
            obs::count_by(obs::Ctr::LockfreeCas, m.stats().cas_attempts);
            obs::count_by(obs::Ctr::LockfreeCasConflicts, m.stats().cas_conflicts);
            obs::count_by(obs::Ctr::LockfreeHelps, m.stats().helps);
        }
        let items = (0..lay.slots)
            .filter(|&idx| payload(region.read_word(lay.slot_addr(idx))) != 0)
            .count() as u64;

        Ok(ShardOutcome {
            shard,
            ops: self.ops_per_client * clients as u64,
            elapsed: wall,
            commands,
            items,
            latencies,
        })
    }
}

/// Per-shard results, merged in shard order into a [`ShardedKvReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardOutcome {
    /// Shard index (owns keys `k * shards + shard`).
    pub shard: usize,
    /// Measured commands this shard served.
    pub ops: u64,
    /// Simulated time of the shard's measured phase (including its
    /// final epoch seal).
    pub elapsed: Nanos,
    /// Total commands served (preload excluded; it bypasses the
    /// protocol layer).
    pub commands: u64,
    /// Live entries at the end of the run.
    pub items: u64,
    /// Per-command service-latency histogram.
    pub latencies: LatencyHistogram,
}

/// The merged result of one sharded KV run.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedKvReport {
    /// Heap configuration every shard ran.
    pub config: HeapConfig,
    /// Command mix the clients issued.
    pub mix: YcsbMix,
    /// Durability-epoch size per shard heap.
    pub epoch_size: u64,
    /// Commands across all shards (measured phase).
    pub total_ops: u64,
    /// Simulated wall time: the slowest shard (shards serve in
    /// parallel).
    pub wall_time: Nanos,
    /// Aggregate simulated throughput: `total_ops / wall_time`.
    pub aggregate_ops_per_sec: f64,
    /// Latency histogram merged across shards in shard order.
    pub latencies: LatencyHistogram,
    /// Per-shard outcomes, in shard order.
    pub shards: Vec<ShardOutcome>,
    /// Per-shard traces concatenated in shard order.
    pub trace: obs::Trace,
    /// Per-shard metrics merged in shard order.
    pub metrics: obs::MetricsSnapshot,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharded_kv_matches_serial() {
        // The acceptance contract: merged stats, latency histograms,
        // and obs traces are identical for any worker count driving the
        // same seeded client mix.
        let bench = ShardedKvBench::quick(3);
        let serial = bench.run_on(HeapConfig::FocUndo, 42, 1).unwrap();
        for threads in [2usize, 4] {
            let parallel = bench.run_on(HeapConfig::FocUndo, 42, threads).unwrap();
            assert_eq!(parallel.total_ops, serial.total_ops, "{threads} workers");
            assert_eq!(parallel.wall_time, serial.wall_time, "{threads} workers");
            assert_eq!(parallel.shards, serial.shards, "{threads} workers");
            assert_eq!(parallel.latencies, serial.latencies, "{threads} workers");
            if let Err(report) =
                obs::diff_traces(&serial.trace, &parallel.trace, obs::DiffMode::Full)
            {
                panic!("{threads}-worker sharded KV trace diverges:\n{report}");
            }
            if let Some(diff) = serial.metrics.first_difference(&parallel.metrics) {
                panic!("{threads}-worker sharded KV metrics diverge: {diff}");
            }
        }
    }

    #[test]
    fn shards_partition_the_keyspace() {
        let bench = ShardedKvBench::quick(2);
        let report = bench.run(HeapConfig::Fof, 7).unwrap();
        assert_eq!(report.shards.len(), 2);
        for (s, outcome) in report.shards.iter().enumerate() {
            assert_eq!(outcome.shard, s);
            assert!(outcome.items >= bench.records_per_shard, "shard {s}");
            assert_eq!(outcome.ops, bench.ops_per_client * bench.clients_per_shard as u64);
        }
        assert_eq!(
            report.total_ops,
            report.shards.iter().map(|s| s.ops).sum::<u64>()
        );
    }

    #[test]
    fn sharding_scales_aggregate_throughput() {
        // Same total client population, per-client work, and store size;
        // four shards serve it in parallel simulated time.
        let one = ShardedKvBench {
            clients_per_shard: 4,
            records_per_shard: 200,
            ..ShardedKvBench::quick(1)
        };
        let four = ShardedKvBench {
            clients_per_shard: 1,
            records_per_shard: 50,
            ..ShardedKvBench::quick(4)
        };
        let r1 = one.run(HeapConfig::FocUndo, 11).unwrap();
        let r4 = four.run(HeapConfig::FocUndo, 11).unwrap();
        assert_eq!(r1.total_ops, r4.total_ops);
        let scaling = r4.aggregate_ops_per_sec / r1.aggregate_ops_per_sec;
        assert!(scaling > 3.0, "4-shard scaling only {scaling:.2}x");
    }

    #[test]
    fn epoch_size_is_honored_per_shard() {
        let bench = ShardedKvBench {
            epoch_size: 8,
            ..ShardedKvBench::quick(2)
        };
        let report = bench.run(HeapConfig::FocUndo, 3).unwrap();
        let seals = report.metrics.counter(obs::Ctr::EpochSeals);
        assert!(seals > 0, "group commit must engage on FoC shards");
        // FoF shards never seal (epoch mode is a documented no-op).
        let fof = bench.run(HeapConfig::Fof, 3).unwrap();
        assert_eq!(fof.metrics.counter(obs::Ctr::EpochSeals), 0);
    }

    #[test]
    fn every_mix_runs_sharded() {
        for mix in YcsbMix::all() {
            let bench = ShardedKvBench {
                mix,
                ops_per_client: 60,
                ..ShardedKvBench::quick(2)
            };
            let report = bench.run(HeapConfig::FocStm, 5).unwrap();
            assert!(report.aggregate_ops_per_sec > 0.0, "{}", mix.label());
        }
    }

    #[test]
    fn every_mix_runs_concurrent() {
        for mix in YcsbMix::all() {
            let bench = ShardedKvBench {
                mix,
                ops_per_client: 60,
                in_shard_threads: 3,
                ..ShardedKvBench::quick(2)
            };
            for config in [HeapConfig::FocUndo, HeapConfig::Fof] {
                let report = bench.run_concurrent(config, 5).unwrap();
                assert_eq!(report.total_ops, 2 * 3 * 60, "{}", mix.label());
                assert!(report.aggregate_ops_per_sec > 0.0, "{}", mix.label());
            }
        }
    }

    #[test]
    fn concurrent_run_is_deterministic_across_workers() {
        let bench = ShardedKvBench {
            in_shard_threads: 4,
            ops_per_client: 80,
            ..ShardedKvBench::quick(2)
        };
        let serial = bench.run_concurrent_on(HeapConfig::FocUndo, 9, 1).unwrap();
        let sharded = bench.run_concurrent_on(HeapConfig::FocUndo, 9, 4).unwrap();
        assert_eq!(serial, sharded);
    }

    #[test]
    fn in_shard_threads_scale_throughput() {
        // Same total op count; four in-shard clients split it and the
        // shard finishes on the slowest thread's clock.
        let one = ShardedKvBench {
            in_shard_threads: 1,
            ops_per_client: 400,
            ..ShardedKvBench::quick(1)
        };
        let four = ShardedKvBench {
            in_shard_threads: 4,
            ops_per_client: 100,
            ..ShardedKvBench::quick(1)
        };
        let r1 = one.run_concurrent(HeapConfig::FocUndo, 21).unwrap();
        let r4 = four.run_concurrent(HeapConfig::FocUndo, 21).unwrap();
        assert_eq!(r1.total_ops, r4.total_ops);
        let scaling = r4.aggregate_ops_per_sec / r1.aggregate_ops_per_sec;
        assert!(scaling > 1.8, "4-thread in-shard scaling only {scaling:.2}x");
    }

    #[test]
    fn concurrent_fof_beats_foc_under_contention() {
        let bench = ShardedKvBench {
            in_shard_threads: 4,
            ops_per_client: 150,
            zipf_theta: 0.99,
            mix: YcsbMix::A,
            ..ShardedKvBench::quick(1)
        };
        let foc = bench.run_concurrent(HeapConfig::FocUndo, 13).unwrap();
        let fof = bench.run_concurrent(HeapConfig::Fof, 13).unwrap();
        assert!(
            fof.aggregate_ops_per_sec > foc.aggregate_ops_per_sec,
            "fof {:.0} <= foc {:.0}",
            fof.aggregate_ops_per_sec,
            foc.aggregate_ops_per_sec
        );
    }
}
