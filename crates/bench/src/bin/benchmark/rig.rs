//! The simulated fleet a workload runs on, and the one place requests
//! enter the layers under test. Every call into a layer goes through a
//! method here that books the simulated time it charged to each shard
//! heap (the conservation check in the tests) and reports it to the
//! [`Probe`].

use std::collections::HashSet;

use wsp_cache::FlushMethod;
use wsp_cluster::ClusterSpec;
use wsp_core::{
    clean_failure_trace, domain_save, priority_stage_window, resolve_cross_shard, CoordinatorPool,
    DomainBudget, DomainInput, DomainSaveReport, ShardVerdict,
};
use wsp_det::{DetRng, Rng};
use wsp_machine::{Machine, SystemLoad};
use wsp_pheap::{CrashImage, HeapConfig, PersistentHeap, PmPtr};
use wsp_power::{PowerDomain, Psu, Ultracapacitor};
use wsp_units::{ByteSize, Farads, Nanos, Volts, Watts};
use wsp_workloads::{Command, KvServer, Op, OpMix, PmHashTable, Response, Zipfian};

use crate::probe::{Layer, Probe};

/// Durability epoch of the `ycsb_a_foc` shards: Mnemosyne-style group
/// commit with FliT elision.
const YCSB_EPOCH: u64 = 32;
/// YCSB key skew.
const ZIPF_THETA: f64 = 0.99;
/// Share of `hash_big_fof` requests that update (half insert, half delete).
const HASH_UPDATE_SHARE: f64 = 0.05;
/// Keys `hash_big_fof` draws from, per preloaded entry. With exactly 2
/// (`HashBenchmark`'s choice) inserts of absent keys and deletes of
/// present ones balance, so the first-fit allocator's free list is a
/// critically loaded queue whose length random-walks with the seed and
/// sets the latency tail. At 2.5 inserts outpace deletes and freed
/// blocks are reused as they appear; lookups still hit 40 % of the time.
const HASH_KEY_SPACE: f64 = 2.5;

fn hash_key_space(entries: u64) -> u64 {
    (entries as f64 * HASH_KEY_SPACE) as u64
}

/// Share of `xshard_group` transfers whose accounts sit on two shards.
const XSHARD_CROSS_SHARE: f64 = 0.6;
/// Decisions per fenced group record in `xshard_group`.
const XSHARD_GROUP: usize = 32;
/// Share of `outage_resume` requests that are cross-shard transfers.
const OUTAGE_TRANSFER_SHARE: f64 = 0.1;
/// Decisions per fenced group record in `outage_resume`.
const OUTAGE_GROUP: usize = 8;
/// Bank accounts per shard, one per cache line.
const ACCOUNTS: usize = 64;
/// Starting balance: transfers move 1–15 units, so no account can
/// overdraw within any run and no transfer is declined.
const INITIAL_BALANCE: u64 = 1 << 40;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    YcsbAFoc,
    HashBigFof,
    XshardGroup,
    OutageResume,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::YcsbAFoc,
        Workload::HashBigFof,
        Workload::XshardGroup,
        Workload::OutageResume,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::YcsbAFoc => "ycsb_a_foc",
            Workload::HashBigFof => "hash_big_fof",
            Workload::XshardGroup => "xshard_group",
            Workload::OutageResume => "outage_resume",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn config(self) -> HeapConfig {
        match self {
            Workload::YcsbAFoc => HeapConfig::FocStm,
            Workload::HashBigFof => HeapConfig::Fof,
            Workload::XshardGroup | Workload::OutageResume => HeapConfig::FocUndo,
        }
    }
}

/// Sizes and rates of one workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Params {
    pub shards: usize,
    /// KV records per shard, or hash-table entries.
    pub records: u64,
    pub region: ByteSize,
    /// Closed-loop clients per shard; coordinators for `xshard_group`.
    pub clients: usize,
    /// Requests in the closed-loop capacity phase.
    pub capacity_ops: u64,
    /// Arrivals in the open-loop latency phase; 0 when the workload
    /// takes its latencies from the closed loop.
    pub latency_ops: u64,
    /// Open-loop arrivals per simulated second.
    pub rate_per_s: f64,
    /// Power failures spread over the open loop.
    pub outages: usize,
}

impl Params {
    /// The benchmark's sizes, or (`smoke`) a scale small enough for unit
    /// tests in a debug build.
    ///
    /// Each open-loop rate is 70 % of the workload's closed-loop
    /// `sim_ops_per_s` at seed 42 when the benchmark was defined, frozen
    /// as a number so a later change to service time shows up as
    /// queueing rather than moving the load with it.
    pub fn of(workload: Workload, smoke: bool) -> Params {
        let scale = |full: u64, small: u64| if smoke { small } else { full };
        let region = |mib: u64| ByteSize::mib(if smoke { mib.min(4) } else { mib });
        match workload {
            Workload::YcsbAFoc => Params {
                shards: 4,
                records: scale(2_000, 200),
                region: region(16),
                clients: 4,
                capacity_ops: scale(400_000, 1_000),
                latency_ops: scale(1_600_000, 1_000),
                rate_per_s: 2.3895e7,
                outages: 0,
            },
            Workload::HashBigFof => Params {
                shards: 1,
                records: scale(1_000_000, 1_000),
                region: region(48),
                clients: 4,
                capacity_ops: scale(400_000, 1_000),
                latency_ops: scale(3_000_000, 1_000),
                rate_per_s: 1.6711e6,
                outages: 0,
            },
            Workload::XshardGroup => Params {
                shards: 8,
                records: 0,
                region: region(1),
                clients: 2,
                capacity_ops: scale(400_000, 1_000),
                latency_ops: 0,
                rate_per_s: 0.0,
                outages: 0,
            },
            Workload::OutageResume => Params {
                shards: 3,
                records: scale(2_000, 200),
                region: region(4),
                clients: 4,
                capacity_ops: scale(300_000, 1_000),
                latency_ops: scale(8_000_000, 1_000),
                rate_per_s: 5.7968e6,
                outages: 8,
            },
        }
    }
}

/// A debit of `amount` from `src` and a credit to `dst`, each
/// `(shard, account)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    pub src: (usize, usize),
    pub dst: (usize, usize),
    pub amount: u64,
}

/// One client request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Req {
    /// A YCSB get (`set: None`) or set of record `key` on `shard`.
    Kv {
        shard: usize,
        key: u64,
        set: Option<u64>,
    },
    Hash(Op),
    Transfer(Transfer),
}

/// The request generator: draws from a client's own stream.
#[derive(Debug, Clone)]
pub struct Mix {
    workload: Workload,
    shards: usize,
    zipf: Option<Zipfian>,
    hash: OpMix,
    /// Hash key space, [`HASH_KEY_SPACE`] times the preloaded entries.
    key_space: u64,
}

impl Mix {
    pub fn new(workload: Workload, params: &Params) -> Mix {
        Mix {
            workload,
            shards: params.shards,
            zipf: (params.records > 0 && workload != Workload::HashBigFof)
                .then(|| Zipfian::new(params.records, ZIPF_THETA)),
            hash: OpMix::new(HASH_UPDATE_SHARE),
            key_space: hash_key_space(params.records),
        }
    }

    /// The next request of a client homed on shard `home`.
    pub fn draw(&self, rng: &mut DetRng, home: usize) -> Req {
        match self.workload {
            Workload::YcsbAFoc => self.kv(rng, home),
            Workload::HashBigFof => Req::Hash(self.hash.next_op(rng, self.key_space)),
            Workload::XshardGroup => {
                let src = rng.gen_range(0..self.shards);
                let cross = rng.gen::<f64>() < XSHARD_CROSS_SHARE;
                self.transfer(rng, src, cross)
            }
            Workload::OutageResume => {
                if rng.gen::<f64>() < OUTAGE_TRANSFER_SHARE {
                    self.transfer(rng, home, true)
                } else {
                    self.kv(rng, home)
                }
            }
        }
    }

    fn kv(&self, rng: &mut DetRng, shard: usize) -> Req {
        let key = self
            .zipf
            .as_ref()
            .expect("KV workloads have records")
            .sample(rng);
        let roll: f64 = rng.gen();
        let set = (roll >= 0.5).then(|| roll.to_bits());
        Req::Kv { shard, key, set }
    }

    fn transfer(&self, rng: &mut DetRng, src_shard: usize, cross: bool) -> Req {
        let other = |rng: &mut DetRng, n: usize, not: usize| {
            let d = rng.gen_range(0..n - 1);
            if d >= not {
                d + 1
            } else {
                d
            }
        };
        let dst_shard = if cross {
            other(rng, self.shards, src_shard)
        } else {
            src_shard
        };
        let src_acct = rng.gen_range(0..ACCOUNTS);
        let dst_acct = if dst_shard == src_shard {
            other(rng, ACCOUNTS, src_acct)
        } else {
            rng.gen_range(0..ACCOUNTS)
        };
        Req::Transfer(Transfer {
            src: (src_shard, src_acct),
            dst: (dst_shard, dst_acct),
            amount: rng.gen_range(1..16u64),
        })
    }
}

/// A transfer whose decision is buffered in the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Member {
    /// The caller's id for the request that issued it.
    pub ticket: u64,
    pub transfer: Transfer,
    pub coordinator: usize,
    /// The coordinator's clock when the transfer began.
    pub begin_clock: Nanos,
    /// The coordinator's clock once phase 2 of its group ran.
    pub done_clock: Nanos,
}

/// One sealed decision group and its phase 2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Group {
    /// Decision-log time of the fenced group record.
    pub seal: Nanos,
    /// Phase-2 work per shard.
    pub phase2: Vec<(usize, Nanos)>,
    /// The transfers the group acknowledged.
    pub members: Vec<Member>,
}

/// What one request cost, as the timing models consume it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Service {
    /// Shard work before the request is acknowledged or, for a
    /// transfer, before its decision is buffered.
    pub work: Vec<(usize, Nanos)>,
    /// A group drained ahead of this transfer because it holds one of
    /// the transfer's accounts.
    pub drained: Option<Group>,
    /// The group this transfer's decision completed.
    pub sealed: Option<Group>,
    /// The transfer waits in the pool for a later seal.
    pub buffered: bool,
    /// The request failed (error or refusal) and gets no latency.
    pub failed: bool,
}

/// Counts the per-layer metrics need beyond call timings.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Tally {
    pub requests: u64,
    /// Sets, hash inserts and deletes, and transfers.
    pub updates: u64,
    pub saves: u64,
    pub window_used_frac: f64,
    pub deficit_ns: u64,
    pub shard_saves: u64,
    pub stage_a_ns: u64,
    pub stage_b_ns: u64,
    pub complete: u64,
    pub partial: u64,
    pub sacrificed: u64,
    pub retries: u64,
    pub flash_save_ns: u64,
    pub indoubt_resolved: u64,
    pub presumed_aborts: u64,
    pub conflict_drains: u64,
    pub refusals: u64,
}

/// Cache-hierarchy counters summed over the fleet's heaps.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCount {
    pub accesses: u64,
    pub misses: u64,
    pub writebacks: u64,
    pub flushes: u64,
    pub ntstores: u64,
    pub fences: u64,
}

impl CacheCount {
    fn of(heap: &PersistentHeap) -> CacheCount {
        let s = heap.mem().cache().stats();
        CacheCount {
            accesses: s.accesses(),
            misses: s.misses,
            writebacks: s.writebacks,
            flushes: s.clflushes + s.clwbs,
            ntstores: s.ntstores,
            fences: s.fences,
        }
    }

    fn plus(self, o: CacheCount) -> CacheCount {
        CacheCount {
            accesses: self.accesses + o.accesses,
            misses: self.misses + o.misses,
            writebacks: self.writebacks + o.writebacks,
            flushes: self.flushes + o.flushes,
            ntstores: self.ntstores + o.ntstores,
            fences: self.fences + o.fences,
        }
    }

    fn minus(self, o: CacheCount) -> CacheCount {
        CacheCount {
            accesses: self.accesses - o.accesses,
            misses: self.misses - o.misses,
            writebacks: self.writebacks - o.writebacks,
            flushes: self.flushes - o.flushes,
            ntstores: self.ntstores - o.ntstores,
            fences: self.fences - o.fences,
        }
    }
}

#[derive(Clone)]
struct HashState {
    table: PmHashTable,
    /// Acknowledged value of every key in the key space.
    values: Vec<Option<u64>>,
    len: u64,
}

#[derive(Clone)]
struct Bank {
    pool: CoordinatorPool,
    coordinators: usize,
    group: usize,
    /// Account cell offsets, `[shard][account]`.
    accounts: Vec<Vec<u64>>,
    /// Acknowledged balances, `[shard][account]`.
    balances: Vec<Vec<u64>>,
    /// Buffered decisions, in buffering order.
    pending: Vec<Member>,
    /// Accounts a buffered transfer holds: a new transfer touching one
    /// drains the group first, keeping prepared write sets disjoint.
    locked: HashSet<(usize, usize)>,
    next_coordinator: usize,
}

#[derive(Clone)]
struct Power {
    machine: Machine,
    domain: PowerDomain,
    staleness: Vec<Nanos>,
    outages: u64,
}

impl Power {
    /// The storm recipe's shared domain: a 750 W PSU plus a 2 F
    /// ultracapacitor reserve, on the Intel testbed under busy load.
    fn new(shards: usize, seed: u64) -> Power {
        let mut machine = Machine::intel_testbed();
        machine.apply_load(SystemLoad::Busy, seed);
        let domain = PowerDomain::new(
            Psu::atx_750w(),
            Ultracapacitor::new(Farads::new(2.0), Volts::new(12.0), Volts::new(6.0)),
            machine.power_draw(SystemLoad::Busy),
            shards,
        );
        Power {
            machine,
            domain,
            staleness: vec![Nanos::ZERO; shards],
            outages: 0,
        }
    }

    /// Power actually dies and comes back: the storm recipe's cycle.
    fn cycle(&mut self) -> Result<(), String> {
        self.machine.system_power_loss();
        self.machine.system_power_on();
        for dimm in self.machine.nvram_mut().dimms_mut() {
            dimm.exit_self_refresh()
                .map_err(|e| format!("NVDIMM did not come back after power-on: {e}"))?;
        }
        for core in self.machine.cores_mut() {
            core.halted = false;
        }
        self.domain.drain_outage(Nanos::from_millis(20));
        self.domain.replenish(
            Watts::new(2000.0),
            Nanos::from_millis(20 + (self.outages % 5) * 10),
        );
        self.outages += 1;
        Ok(())
    }
}

/// The shared-domain triage bench's contention window: the heaviest and
/// the lightest shard's priority-stage windows plus one shard's share of
/// the bulk flush. Too small for every shard to save completely, so the
/// triage grants priority-only saves.
fn contention_window(machine: &Machine, heaps: &[PersistentHeap]) -> Nanos {
    let per_shard: Vec<Nanos> = heaps
        .iter()
        .map(|h| priority_stage_window(machine, h))
        .collect();
    let heaviest = per_shard.iter().copied().max().unwrap_or(Nanos::ZERO);
    let lightest = per_shard.iter().copied().min().unwrap_or(Nanos::ZERO);
    let share = machine.flush_analysis().flush_time(
        FlushMethod::Wbinvd,
        machine.dirty_estimate(SystemLoad::Busy) / heaps.len() as u64,
    );
    heaviest + lightest + share
}

fn read_word(heap: &mut PersistentHeap, addr: u64) -> Result<u64, String> {
    let p = PmPtr::new(addr).ok_or("null account cell")?;
    let mut tx = heap.begin();
    let v = tx.read_word(p).map_err(|e| e.to_string())?;
    tx.commit().map_err(|e| e.to_string())?;
    Ok(v)
}

/// The fleet: shard heaps plus whatever each workload serves on them.
#[derive(Clone)]
pub struct Rig {
    pub workload: Workload,
    pub params: Params,
    heaps: Vec<PersistentHeap>,
    /// Simulated time booked to boundaries per shard since `base`.
    booked: Vec<Nanos>,
    base: Vec<Nanos>,
    servers: Vec<KvServer>,
    /// Acknowledged value of every KV record, `[shard][key]`.
    values: Vec<Vec<u64>>,
    hash: Option<HashState>,
    bank: Option<Bank>,
    power: Option<Power>,
    cache_base: Vec<CacheCount>,
    cache_done: CacheCount,
    pub tally: Tally,
    /// Requests that returned an error or a refusal.
    pub failed: u64,
    /// Output checks that failed.
    pub violations: Vec<String>,
}

impl Rig {
    /// Builds and preloads the fleet. Modelled caches stay warm from the
    /// preload.
    pub fn setup(workload: Workload, params: Params, seed: u64) -> Result<Rig, String> {
        let mut rng = DetRng::seed_from_u64(seed);
        let config = workload.config();
        let err = |e: wsp_pheap::HeapError| format!("setup: {e}");
        let mut heaps = Vec::with_capacity(params.shards);
        let mut servers = Vec::new();
        let mut values = Vec::new();
        let mut hash = None;
        let mut accounts = Vec::new();
        for shard in 0..params.shards {
            let mut heap = PersistentHeap::create(params.region, config);
            match workload {
                Workload::YcsbAFoc | Workload::OutageResume => {
                    let mut server = KvServer::create(&mut heap).map_err(err)?;
                    if workload == Workload::YcsbAFoc {
                        heap.set_epoch_size(YCSB_EPOCH);
                    }
                    let stride = params.shards as u64;
                    for k in 0..params.records {
                        let cmd = Command::Set(k * stride + shard as u64, k);
                        server.execute(&mut heap, &cmd).map_err(err)?;
                    }
                    heap.seal_epoch();
                    servers.push(server);
                    values.push((0..params.records).collect());
                }
                Workload::HashBigFof => {
                    let buckets = (params.records / 4).next_power_of_two().max(64);
                    let table = PmHashTable::create(&mut heap, buckets).map_err(err)?;
                    let key_space = hash_key_space(params.records);
                    let mut state = HashState {
                        table,
                        values: vec![None; key_space as usize],
                        len: 0,
                    };
                    while state.len < params.records {
                        let key = rng.gen_range(0..key_space);
                        if state.values[key as usize].is_none() {
                            state.table.insert(&mut heap, key, key).map_err(err)?;
                            state.values[key as usize] = Some(key);
                            state.len += 1;
                        }
                    }
                    hash = Some(state);
                }
                Workload::XshardGroup => {}
            }
            if matches!(workload, Workload::XshardGroup | Workload::OutageResume) {
                let mut tx = heap.begin();
                let base = tx.alloc(ACCOUNTS as u64 * 64).map_err(err)?;
                for a in 0..ACCOUNTS as u64 {
                    tx.write_word(base.byte_offset(a * 64), INITIAL_BALANCE)
                        .map_err(err)?;
                }
                if workload == Workload::XshardGroup {
                    tx.set_root(base).map_err(err)?;
                }
                tx.commit().map_err(err)?;
                accounts.push(
                    (0..ACCOUNTS as u64)
                        .map(|a| base.offset() + a * 64)
                        .collect(),
                );
            }
            heaps.push(heap);
        }
        let bank = (!accounts.is_empty()).then(|| {
            let (coordinators, group) = if workload == Workload::XshardGroup {
                (params.clients, XSHARD_GROUP)
            } else {
                (1, OUTAGE_GROUP)
            };
            Bank {
                pool: CoordinatorPool::new(coordinators, group),
                coordinators,
                group,
                balances: vec![vec![INITIAL_BALANCE; ACCOUNTS]; params.shards],
                accounts,
                pending: Vec::new(),
                locked: HashSet::new(),
                next_coordinator: 0,
            }
        });
        let power = matches!(workload, Workload::HashBigFof | Workload::OutageResume)
            .then(|| Power::new(params.shards, rng.gen()));
        Ok(Rig {
            workload,
            params,
            booked: vec![Nanos::ZERO; heaps.len()],
            base: heaps.iter().map(PersistentHeap::elapsed).collect(),
            cache_base: heaps.iter().map(CacheCount::of).collect(),
            heaps,
            servers,
            values,
            hash,
            bank,
            power,
            cache_done: CacheCount::default(),
            tally: Tally::default(),
            failed: 0,
            violations: Vec::new(),
        })
    }

    /// Zeroes the conservation and cache baselines: everything booked
    /// from here on is measured.
    pub fn start_measuring(&mut self) {
        self.base = self.heaps.iter().map(PersistentHeap::elapsed).collect();
        self.booked = vec![Nanos::ZERO; self.heaps.len()];
        self.cache_base = self.heaps.iter().map(CacheCount::of).collect();
        self.cache_done = CacheCount::default();
        self.tally = Tally::default();
    }

    /// Per shard: `(sim time booked to boundaries, the heap's elapsed()
    /// advance over the same span)`. Equal when every call that charged
    /// the heap went through a boundary.
    pub fn conservation(&self) -> Vec<(Nanos, Nanos)> {
        self.heaps
            .iter()
            .zip(&self.booked)
            .zip(&self.base)
            .map(|((h, &booked), &base)| (booked, h.elapsed() - base))
            .collect()
    }

    /// Cache counters accumulated since [`Rig::start_measuring`].
    pub fn cache(&self) -> CacheCount {
        self.heaps
            .iter()
            .zip(&self.cache_base)
            .fold(self.cache_done, |acc, (h, &b)| {
                acc.plus(CacheCount::of(h).minus(b))
            })
    }

    /// The pool's wall clock (slowest coordinator), zero without a bank.
    pub fn pool_wall(&self) -> Nanos {
        self.bank.as_ref().map_or(Nanos::ZERO, |b| b.pool.wall())
    }

    fn violation(&mut self, what: String) {
        if self.violations.len() < 16 {
            self.violations.push(what);
        }
    }

    /// Runs one request. `ticket` names it in any group that later
    /// acknowledges it.
    pub fn exec(&mut self, req: Req, ticket: u64, probe: &mut Probe) -> Result<Service, String> {
        self.tally.requests += 1;
        match req {
            Req::Kv { shard, key, set } => Ok(self.kv(shard, key, set, probe)),
            Req::Hash(op) => Ok(self.hash_op(op, probe)),
            Req::Transfer(t) => self.transfer(t, ticket, probe),
        }
    }

    fn kv(&mut self, shard: usize, key: u64, set: Option<u64>, probe: &mut Probe) -> Service {
        let global = key * self.params.shards as u64 + shard as u64;
        let cmd = match set {
            Some(v) => Command::Set(global, v),
            None => Command::Get(global),
        };
        let heap = &mut self.heaps[shard];
        let (t0, h0) = (heap.elapsed(), probe.now());
        let result = self.servers[shard].execute(heap, &cmd);
        let t1 = heap.elapsed();
        self.booked[shard] += t1 - t0;
        let layer = if set.is_some() {
            Layer::KvSet
        } else {
            Layer::KvGet
        };
        probe.record(layer, Some(shard), t0, t1, h0);
        let slot = &mut self.values[shard][key as usize];
        let expected = match set {
            Some(_) => Response::Stored,
            None => Response::Value(*slot),
        };
        let mut svc = Service {
            work: vec![(shard, t1 - t0)],
            ..Service::default()
        };
        match result {
            Ok(r) if r == expected => {
                if let Some(v) = set {
                    *slot = v;
                    self.tally.updates += 1;
                }
            }
            Ok(r) => self.violation(format!(
                "{cmd:?} on shard {shard} returned {r:?}, expected {expected:?}"
            )),
            Err(_) => {
                self.failed += 1;
                svc.failed = true;
            }
        }
        svc
    }

    fn hash_op(&mut self, op: Op, probe: &mut Probe) -> Service {
        let state = self.hash.as_mut().expect("hash workload");
        let heap = &mut self.heaps[0];
        let (t0, h0) = (heap.elapsed(), probe.now());
        let (result, expected) = match op {
            Op::Lookup(k) => (state.table.get(heap, k), state.values[k as usize]),
            Op::Insert(k, v) => (
                state.table.insert(heap, k, v),
                state.values[k as usize].replace(v),
            ),
            Op::Delete(k) => (state.table.remove(heap, k), state.values[k as usize].take()),
        };
        let t1 = heap.elapsed();
        self.booked[0] += t1 - t0;
        probe.record(Layer::HashOp, Some(0), t0, t1, h0);
        let mut svc = Service {
            work: vec![(0, t1 - t0)],
            ..Service::default()
        };
        if !matches!(op, Op::Lookup(_)) {
            self.tally.updates += 1;
        }
        match result {
            Ok(got) if got == expected => {
                state.len = match (op, got) {
                    (Op::Insert(..), None) => state.len + 1,
                    (Op::Delete(_), Some(_)) => state.len - 1,
                    _ => state.len,
                };
            }
            Ok(got) => self.violation(format!("{op:?} returned {got:?}, expected {expected:?}")),
            Err(_) => {
                self.failed += 1;
                svc.failed = true;
            }
        }
        svc
    }

    fn transfer(&mut self, t: Transfer, ticket: u64, probe: &mut Probe) -> Result<Service, String> {
        let bank = self.bank.as_mut().expect("bank workload");
        let mut svc = Service::default();
        if bank.locked.contains(&t.src) || bank.locked.contains(&t.dst) {
            self.tally.conflict_drains += 1;
            svc.drained = bank.seal_group(&mut self.heaps, &mut self.booked, probe)?;
        }
        let c = bank.next_coordinator;
        bank.next_coordinator = (c + 1) % bank.coordinators;
        let begin_clock = bank.pool.clock(c);
        let mut txn = bank.pool.begin(c, self.heaps.len());
        let (s, a) = t.src;
        let (d, b) = t.dst;
        txn.stage(s, bank.accounts[s][a], bank.balances[s][a] - t.amount);
        txn.stage(d, bank.accounts[d][b], bank.balances[d][b] + t.amount);
        let participants = txn.participants();
        let before: Vec<Nanos> = participants
            .iter()
            .map(|&p| self.heaps[p].elapsed())
            .collect();
        let h0 = probe.now();
        let refusal = bank
            .pool
            .prepare(c, &mut self.heaps, &txn)
            .map_err(|e| format!("prepare: {e}"))?;
        probe.record(Layer::Prepare, None, begin_clock, bank.pool.clock(c), h0);
        for (&p, &b0) in participants.iter().zip(&before) {
            let d = self.heaps[p].elapsed() - b0;
            self.booked[p] += d;
            svc.work.push((p, d));
        }
        self.tally.updates += 1;
        if refusal.is_some() {
            self.tally.refusals += 1;
            self.failed += 1;
            svc.failed = true;
            return Ok(svc);
        }
        bank.pool.buffer_decision(c, &txn);
        bank.locked.insert(t.src);
        bank.locked.insert(t.dst);
        bank.pending.push(Member {
            ticket,
            transfer: t,
            coordinator: c,
            begin_clock,
            done_clock: Nanos::ZERO,
        });
        svc.buffered = true;
        if bank.pool.should_seal(c) {
            svc.sealed = bank.seal_group(&mut self.heaps, &mut self.booked, probe)?;
        }
        Ok(svc)
    }

    /// Seals and completes whatever the pool has buffered (end of a
    /// phase: every issued transfer gets acknowledged).
    pub fn drain(&mut self, probe: &mut Probe) -> Result<Option<Group>, String> {
        match self.bank.as_mut() {
            Some(bank) => bank.seal_group(&mut self.heaps, &mut self.booked, probe),
            None => Ok(None),
        }
    }

    /// Explicitly seals every shard's open durability epoch; returns the
    /// per-shard seal work.
    pub fn seal_epochs(&mut self, probe: &mut Probe) -> Vec<(usize, Nanos)> {
        let mut work = Vec::new();
        for (s, heap) in self.heaps.iter_mut().enumerate() {
            if heap.epoch_size() <= 1 {
                continue;
            }
            let (t0, h0) = (heap.elapsed(), probe.now());
            heap.seal_epoch();
            let t1 = heap.elapsed();
            self.booked[s] += t1 - t0;
            probe.record(Layer::SealEpoch, Some(s), t0, t1, h0);
            work.push((s, t1 - t0));
        }
        work
    }

    /// The triaged domain save at a power failure. Odd outages cap the
    /// window to force priority-only saves.
    fn save(&mut self, cap_window: bool, probe: &mut Probe) -> Result<DomainSaveReport, String> {
        let power = self.power.as_mut().expect("workload with a power domain");
        let window_cap = cap_window.then(|| contention_window(&power.machine, &self.heaps));
        let before: Vec<Nanos> = self.heaps.iter().map(PersistentHeap::elapsed).collect();
        let h0 = probe.now();
        let report = domain_save(DomainInput {
            machine: &mut power.machine,
            domain: &mut power.domain,
            heaps: &mut self.heaps,
            staleness: &power.staleness,
            load: SystemLoad::Busy,
            trace: &clean_failure_trace(),
            budget: DomainBudget {
                window_cap,
                ..DomainBudget::trusting()
            },
        })
        .map_err(|e| format!("domain save: {e}"))?;
        probe.record(Layer::DomainSave, None, Nanos::ZERO, report.used, h0);
        for (s, b0) in before.into_iter().enumerate() {
            self.booked[s] += self.heaps[s].elapsed() - b0;
        }
        let t = &mut self.tally;
        t.saves += 1;
        t.window_used_frac +=
            report.used.as_nanos() as f64 / report.window.as_nanos().max(1) as f64;
        t.deficit_ns += report.deficit.as_nanos();
        t.retries += u64::from(report.retries);
        t.flash_save_ns += power.machine.nvram().parallel_save_time().as_nanos();
        for s in &report.shards {
            t.shard_saves += 1;
            t.stage_a_ns += s.stage_a.as_nanos();
            t.stage_b_ns += s.stage_b.as_nanos();
            match s.verdict {
                ShardVerdict::Complete => t.complete += 1,
                ShardVerdict::PartialPriority => t.partial += 1,
                ShardVerdict::Sacrificed => t.sacrificed += 1,
            }
        }
        if let Some(s) = report
            .shards
            .iter()
            .find(|s| s.verdict == ShardVerdict::Sacrificed)
        {
            return Err(format!(
                "shard {} was sacrificed ({:?}); the coordinator pool keeps no routing log to rebuild it",
                s.shard, s.refusal
            ));
        }
        for (stale, s) in power.staleness.iter_mut().zip(&report.shards) {
            *stale = if s.verdict == ShardVerdict::Complete {
                Nanos::ZERO
            } else {
                stale.saturating_add(Nanos::from_millis(1))
            };
        }
        Ok(report)
    }

    /// Takes the heaps out for crashing, folding their cache counters
    /// into the measured totals first.
    fn take_heaps(&mut self) -> Vec<PersistentHeap> {
        self.cache_done = self.cache();
        self.cache_base.clear();
        std::mem::take(&mut self.heaps)
    }

    /// Installs recovered heaps: each incarnation's clock starts at its
    /// recovery, which is booked to the recovery boundary.
    fn install(&mut self, heaps: Vec<PersistentHeap>) {
        self.base = vec![Nanos::ZERO; heaps.len()];
        self.booked = heaps.iter().map(PersistentHeap::elapsed).collect();
        self.cache_base = heaps.iter().map(CacheCount::of).collect();
        self.heaps = heaps;
    }

    /// Re-attaches the served structure to a recovered heap.
    fn reopen(&mut self, shard: usize, heap: &mut PersistentHeap) -> Result<(), String> {
        let err = |e: wsp_pheap::HeapError| format!("reopening shard {shard}: {e}");
        match self.workload {
            Workload::YcsbAFoc | Workload::OutageResume => {
                self.servers[shard] = KvServer::open(heap).map_err(err)?;
                if self.workload == Workload::YcsbAFoc {
                    heap.set_epoch_size(YCSB_EPOCH);
                }
            }
            Workload::HashBigFof => {
                self.hash.as_mut().expect("hash workload").table =
                    PmHashTable::open(heap).map_err(err)?;
            }
            Workload::XshardGroup => {}
        }
        Ok(())
    }

    /// Recovers single heaps (no 2PC state) and returns the slowest
    /// shard's recovery time.
    fn recover_heaps(
        &mut self,
        images: Vec<CrashImage>,
        probe: &mut Probe,
    ) -> Result<Nanos, String> {
        let h0 = probe.now();
        let mut heaps = Vec::with_capacity(images.len());
        let mut slowest = Nanos::ZERO;
        for (s, image) in images.into_iter().enumerate() {
            let mut heap =
                PersistentHeap::recover(image).map_err(|e| format!("recovering shard {s}: {e}"))?;
            self.reopen(s, &mut heap)?;
            slowest = slowest.max(heap.elapsed());
            heaps.push(heap);
        }
        probe.record(Layer::Recovery, None, Nanos::ZERO, slowest, h0);
        self.install(heaps);
        Ok(slowest)
    }

    /// Recovers the sharded fleet against the pool's decision log and
    /// returns the slowest shard's recovery time.
    fn resolve(
        &mut self,
        pool_image: &[u8],
        images: Vec<Option<CrashImage>>,
        probe: &mut Probe,
    ) -> Result<Nanos, String> {
        let h0 = probe.now();
        let cluster = ClusterSpec::memcache_tier(self.params.shards.max(2));
        let recovery = resolve_cross_shard(pool_image, images, &cluster);
        let mut heaps = Vec::with_capacity(recovery.shards.len());
        let mut slowest = Nanos::ZERO;
        for shard in recovery.shards {
            if let Some(r) = &shard.resolution {
                self.tally.indoubt_resolved += r.in_doubt.len() as u64;
                self.tally.presumed_aborts += r.aborted.len() as u64;
            }
            let mut heap = shard.heap.ok_or_else(|| {
                format!("shard {} did not recover: {:?}", shard.shard, shard.outcome)
            })?;
            self.reopen(shard.shard, &mut heap)?;
            slowest = slowest.max(heap.elapsed());
            heaps.push(heap);
        }
        let bank = self.bank.as_mut().expect("bank workload");
        bank.pool = CoordinatorPool::recover(pool_image, bank.coordinators, bank.group);
        probe.record(Layer::Recovery, None, Nanos::ZERO, slowest, h0);
        self.install(heaps);
        Ok(slowest)
    }

    /// One `outage_resume` power failure: triaged save, images per
    /// verdict, power cycle, recovery against the decision log, and an
    /// audit. Returns the save's time plus the slowest shard's recovery,
    /// and the buffered transfers the failure presumed aborted (never
    /// acknowledged, so their clients retry).
    pub fn outage(
        &mut self,
        cap_window: bool,
        probe: &mut Probe,
    ) -> Result<(Nanos, Vec<Member>), String> {
        let report = self.save(cap_window, probe)?;
        let images: Vec<Option<CrashImage>> = self
            .take_heaps()
            .into_iter()
            .zip(&report.shards)
            .map(|(heap, s)| match s.verdict {
                ShardVerdict::Complete => Some(heap.crash(true)),
                ShardVerdict::PartialPriority => Some(heap.crash(false)),
                ShardVerdict::Sacrificed => None,
            })
            .collect();
        let bank = self.bank.as_mut().expect("bank workload");
        let lost = std::mem::take(&mut bank.pending);
        bank.locked.clear();
        let pool_image = bank.pool.crash_image();
        self.power.as_mut().expect("power domain").cycle()?;
        let recovery = self.resolve(&pool_image, images, probe)?;
        self.audit()?;
        Ok((report.used + recovery, lost))
    }

    /// The closing power failure of the workloads without mid-run
    /// outages, with each one's own durability story: flush-on-commit
    /// shards seal and recover from their logs, the flush-on-fail table
    /// needs the domain save first. Returns the save's time (if any) plus
    /// the slowest shard's recovery.
    pub fn final_outage(&mut self, probe: &mut Probe) -> Result<Nanos, String> {
        let downtime = match self.workload {
            Workload::YcsbAFoc => {
                self.seal_epochs(probe);
                let images = self
                    .take_heaps()
                    .into_iter()
                    .map(|h| h.crash(false))
                    .collect();
                self.recover_heaps(images, probe)?
            }
            Workload::HashBigFof => {
                let report = self.save(false, probe)?;
                let images = self
                    .take_heaps()
                    .into_iter()
                    .map(|h| h.crash(true))
                    .collect();
                self.power.as_mut().expect("power domain").cycle()?;
                report.used + self.recover_heaps(images, probe)?
            }
            Workload::XshardGroup => {
                self.drain(probe)?;
                let images = self
                    .take_heaps()
                    .into_iter()
                    .map(|h| Some(h.crash(false)))
                    .collect();
                let pool_image = self
                    .bank
                    .as_ref()
                    .expect("bank workload")
                    .pool
                    .crash_image();
                self.resolve(&pool_image, images, probe)?
            }
            Workload::OutageResume => unreachable!("outage_resume fails during its open loop"),
        };
        self.audit()?;
        Ok(downtime)
    }

    /// Checks that every acknowledged write and every committed transfer
    /// reads back, on copies so the live heaps' clocks and caches stay
    /// as they were.
    fn audit(&mut self) -> Result<(), String> {
        let shards = self.params.shards as u64;
        let mut heaps = self.heaps.clone();
        let mut wrong = Vec::new();
        for ((s, heap), server) in heaps.iter_mut().enumerate().zip(&self.servers) {
            let mut server = server.clone();
            for (k, &v) in self.values[s].iter().enumerate() {
                let cmd = Command::Get(k as u64 * shards + s as u64);
                match server.execute(heap, &cmd) {
                    Ok(Response::Value(got)) if got == v => {}
                    other => wrong.push(format!(
                        "after recovery, shard {s} record {k} reads {other:?}, acknowledged {v}"
                    )),
                }
            }
        }
        if let Some(state) = &self.hash {
            let heap = &mut heaps[0];
            let len = state.table.len(heap).map_err(|e| e.to_string())?;
            if len != state.len {
                wrong.push(format!(
                    "after recovery the table holds {len} entries, expected {}",
                    state.len
                ));
            }
            for (k, &v) in state.values.iter().enumerate() {
                if let Some(v) = v {
                    let got = state.table.get(heap, k as u64).map_err(|e| e.to_string())?;
                    if got != Some(v) {
                        wrong.push(format!(
                            "after recovery key {k} reads {got:?}, acknowledged {v}"
                        ));
                    }
                }
            }
        }
        if let Some(bank) = &self.bank {
            let mut total = 0u64;
            for (s, heap) in heaps.iter_mut().enumerate() {
                for (a, &addr) in bank.accounts[s].iter().enumerate() {
                    let got = read_word(heap, addr)?;
                    total = total.wrapping_add(got);
                    if got != bank.balances[s][a] {
                        wrong.push(format!(
                            "after recovery shard {s} account {a} holds {got}, committed {}",
                            bank.balances[s][a]
                        ));
                    }
                }
            }
            let expected = INITIAL_BALANCE * (ACCOUNTS * self.params.shards) as u64;
            if total != expected {
                wrong.push(format!(
                    "total balance {total} after recovery, expected {expected}"
                ));
            }
        }
        for w in wrong {
            self.violation(w);
        }
        Ok(())
    }
}

impl Bank {
    /// Seals every buffered decision under one fenced record and runs
    /// phase 2; `None` when nothing is buffered.
    fn seal_group(
        &mut self,
        heaps: &mut [PersistentHeap],
        booked: &mut [Nanos],
        probe: &mut Probe,
    ) -> Result<Option<Group>, String> {
        if self.pending.is_empty() {
            return Ok(None);
        }
        let sealer = self.pending.last().expect("non-empty").coordinator;
        let (e0, h0) = (self.pool.elapsed(), probe.now());
        self.pool.seal_decisions(sealer);
        let e1 = self.pool.elapsed();
        probe.record(Layer::SealDecisions, None, e0, e1, h0);

        let before: Vec<Nanos> = heaps.iter().map(PersistentHeap::elapsed).collect();
        let clocks =
            |pool: &CoordinatorPool| (0..self.coordinators).map(|c| pool.clock(c)).sum::<Nanos>();
        let (c0, w0, h1) = (clocks(&self.pool), self.pool.wall(), probe.now());
        self.pool
            .complete_sealed(heaps)
            .map_err(|e| format!("phase 2: {e}"))?;
        let c1 = clocks(&self.pool);
        probe.record(Layer::CompleteSealed, None, w0, w0 + (c1 - c0), h1);
        let mut phase2 = Vec::new();
        for (s, b0) in before.into_iter().enumerate() {
            let d = heaps[s].elapsed() - b0;
            if d > Nanos::ZERO {
                booked[s] += d;
                phase2.push((s, d));
            }
        }
        let mut members = std::mem::take(&mut self.pending);
        for m in &mut members {
            let t = m.transfer;
            self.balances[t.src.0][t.src.1] -= t.amount;
            self.balances[t.dst.0][t.dst.1] += t.amount;
            m.done_clock = self.pool.clock(m.coordinator);
        }
        self.locked.clear();
        Ok(Some(Group {
            seal: e1 - e0,
            phase2,
            members,
        }))
    }
}
