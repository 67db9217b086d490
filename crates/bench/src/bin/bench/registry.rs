//! The scenario and gate registry.
//!
//! Each scenario measures one subject and is recorded in one
//! `BENCH_PR*.json` file at the repository root. Its gates name a value
//! under that file's `gate` object, the quantity re-measured against
//! it, and how the recorded value bounds the measurement.

use wsp_obs::json::Json;
use wsp_pheap::HeapConfig::{self, FocStm, FocUndo, Fof, FofStm, FofUndo};

use crate::measure as m;

/// The clock a quantity is measured on. Simulated numbers are the claim
/// about the modelled hardware and are deterministic; host numbers are
/// what running the simulator costs on this machine.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Clock {
    Sim,
    Host,
}

impl Clock {
    pub fn label(self) -> &'static str {
        match self {
            Clock::Sim => "sim",
            Clock::Host => "host",
        }
    }

    /// Allowed regression against a recorded value. Host numbers absorb
    /// scheduler noise on shared hardware; simulated numbers are
    /// deterministic, so their margin only absorbs small intentional
    /// model drift.
    fn tolerance(self) -> f64 {
        match self {
            Clock::Sim => 0.10,
            Clock::Host => 0.20,
        }
    }
}

/// A gated quantity, always measured at quick scale. Gates in different
/// files may share one; a check measures each once.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Quantity {
    /// Hash-table ops per host second.
    HashOpsPerSec(HeapConfig),
    /// Host ms of the recovery-ladder sweep.
    LadderSweepMs,
    /// Epoch-32 over per-transaction simulated hash-table throughput.
    Epoch32Speedup(HeapConfig),
    /// 4-shard over 1-shard aggregate KV throughput.
    KvShardScaling,
    /// All-cross-shard simulated transfers per second.
    XsTxnsPerSec,
    /// All-single-shard over all-cross-shard transfer throughput.
    XsOverhead,
    /// Global-triage over private-split sealed score.
    TriageAdvantage(HeapConfig),
    /// Sealed shard-epoch fraction of the seed-42 power storm.
    StormSealedFraction(HeapConfig),
    /// 1 when the seed-42 storm covered every cut and rung, else 0.
    StormFullCoverage(HeapConfig),
    /// 4-thread over 1-thread in-shard throughput.
    InShardScaling,
    /// FoF over FoC + UL throughput at 4 contended threads.
    FofAdvantage,
    /// Group-32 over group-1 coordinator-path throughput.
    GroupBatching,
    /// 4-coordinator over 1-coordinator simulated wall clock.
    CoordinatorSpeedup,
}

impl Quantity {
    pub fn clock(self) -> Clock {
        match self {
            Quantity::HashOpsPerSec(_) | Quantity::LadderSweepMs => Clock::Host,
            _ => Clock::Sim,
        }
    }

    /// Times and overhead multiples improve downward, the rest upward.
    pub fn higher_is_better(self) -> bool {
        !matches!(self, Quantity::LadderSweepMs | Quantity::XsOverhead)
    }

    pub fn measure(self) -> f64 {
        match self {
            Quantity::HashOpsPerSec(config) => m::gate_hash_ops_per_sec(config),
            Quantity::LadderSweepMs => m::gate_ladder_sweep_ms(),
            Quantity::Epoch32Speedup(config) => m::gate_epoch32_speedup(config),
            Quantity::KvShardScaling => m::gate_kv_shard_scaling(),
            Quantity::XsTxnsPerSec => m::gate_xs_txns_per_sec(),
            Quantity::XsOverhead => m::gate_xs_overhead(),
            Quantity::TriageAdvantage(config) => m::gate_triage_advantage(config),
            Quantity::StormSealedFraction(config) => m::gate_storm_sealed_fraction(config),
            Quantity::StormFullCoverage(config) => {
                f64::from(u8::from(m::gate_storm_full_coverage(config)))
            }
            Quantity::InShardScaling => m::gate_in_shard_scaling(),
            Quantity::FofAdvantage => m::gate_fof_advantage(),
            Quantity::GroupBatching => m::gate_group_batching(),
            Quantity::CoordinatorSpeedup => m::gate_coordinator_speedup(),
        }
    }

    /// The value as the report records it.
    pub fn json(self, value: f64) -> Json {
        match self {
            Quantity::StormFullCoverage(_) => Json::from(value == 1.0),
            _ => Json::from(value),
        }
    }
}

/// How a gate turns its recorded value into a limit.
#[derive(Clone, Copy, Debug)]
pub enum Bound {
    /// The recorded value less the clock's tolerance.
    Recorded,
    /// As `Recorded`, but never looser than this acceptance bound.
    RecordedAnd(f64),
    /// Only this acceptance bound; the recorded value is informational.
    Fixed(f64),
}

/// One gate: a recorded value and the quantity compared against it.
#[derive(Debug)]
pub struct Gate {
    /// `/`-separated path of the recorded value under the file's `gate`
    /// object.
    pub key: &'static str,
    pub quantity: Quantity,
    pub bound: Bound,
}

impl Gate {
    /// The worst value a measurement may take against `recorded`.
    pub fn limit(&self, recorded: f64) -> f64 {
        let higher = self.quantity.higher_is_better();
        let tolerance = self.quantity.clock().tolerance();
        let relative = if higher {
            recorded * (1.0 - tolerance)
        } else {
            recorded * (1.0 + tolerance)
        };
        match self.bound {
            Bound::Recorded => relative,
            Bound::RecordedAnd(hard) if higher => relative.max(hard),
            Bound::RecordedAnd(hard) => relative.min(hard),
            Bound::Fixed(hard) => hard,
        }
    }

    pub fn passes(&self, value: f64, limit: f64) -> bool {
        if self.quantity.higher_is_better() {
            value >= limit
        } else {
            value <= limit
        }
    }

    /// "floor" or "ceiling", for reports.
    pub fn limit_name(&self) -> &'static str {
        if self.quantity.higher_is_better() {
            "floor"
        } else {
            "ceiling"
        }
    }
}

const fn gate(key: &'static str, quantity: Quantity, bound: Bound) -> Gate {
    Gate {
        key,
        quantity,
        bound,
    }
}

/// One report section: its key and the function measuring it at the
/// run's scale (`true` = quick).
pub type Section = (&'static str, fn(bool) -> Json);

pub struct Scenario {
    pub name: &'static str,
    /// The recorded report at the repository root.
    pub file: &'static str,
    pub schema: &'static str,
    pub sections: &'static [Section],
    pub gates: &'static [Gate],
    pub notes: &'static [&'static str],
}

use Bound::{Fixed, Recorded, RecordedAnd};
use Quantity::*;

// One gate per line reads as a table.
#[rustfmt::skip]
pub const SCENARIOS: &[Scenario] = &[
    Scenario {
        name: "host_paths",
        file: "BENCH_PR2.json",
        schema: "wsp-bench-pr2/v1",
        sections: &[
            ("hashtable", m::hashtable),
            ("sweeps", m::crash_sweeps),
            ("wbinvd", m::wbinvd),
        ],
        gates: &[
            gate("hashtable_ops_per_sec/FoC + STM", HashOpsPerSec(FocStm), Recorded),
            gate("hashtable_ops_per_sec/FoC + UL", HashOpsPerSec(FocUndo), Recorded),
            gate("hashtable_ops_per_sec/FoF + STM", HashOpsPerSec(FofStm), Recorded),
            gate("hashtable_ops_per_sec/FoF + UL", HashOpsPerSec(FofUndo), Recorded),
            gate("hashtable_ops_per_sec/FoF", HashOpsPerSec(Fof), Recorded),
        ],
        notes: &[
            "Host wall-clock only; simulated time is unaffected by host-side \
             optimisation. Host numbers compare only within one machine, so \
             re-record the gate when moving hosts.",
        ],
    },
    Scenario {
        name: "ladder",
        file: "BENCH_PR3.json",
        schema: "wsp-bench-pr3/v1",
        sections: &[("ladder", m::ladder)],
        gates: &[gate("ladder_sweep_ms", LadderSweepMs, Recorded)],
        notes: &[],
    },
    Scenario {
        name: "group_commit",
        file: "BENCH_PR5.json",
        schema: "wsp-bench-pr5/v1",
        // The epoch-size sweep itself is reported once, by `flit`.
        sections: &[
            ("fof_epoch_mode_inert", m::fof_epoch_inert),
            ("sharded_kv", m::sharded_kv),
        ],
        gates: &[
            gate("epoch32_sim_speedup/FoC + STM", Epoch32Speedup(FocStm), Recorded),
            gate("epoch32_sim_speedup/FoC + UL", Epoch32Speedup(FocUndo), Recorded),
            gate("kv_shard_scaling", KvShardScaling, RecordedAnd(3.0)),
        ],
        notes: &[
            "Epoch group commit engages only for the two flush-on-commit configs; \
             flush-on-fail already defers durability to the failure-time save, so \
             epoch mode is a verified no-op there (fof_epoch_mode_inert).",
            "Latency trade-off: with epoch size N a crash loses up to N committed \
             transactions (they roll back to the last sealed epoch), and commit \
             latency becomes bimodal — N-1 commits are buffer-speed, the sealing \
             commit pays the whole coalesced flush. Gains rise steeply to epoch 32 \
             and flatten by 128, so 32 is the default operating point.",
        ],
    },
    Scenario {
        name: "xshard",
        file: "BENCH_PR6.json",
        schema: "wsp-bench-pr6/v1",
        sections: &[
            ("cross_shard_sweep", m::xs_pct_sweep),
            ("vs_single_shard_kv", m::xs_vs_kv),
        ],
        gates: &[
            gate("xs_txns_per_sec", XsTxnsPerSec, Recorded),
            gate("xs_overhead_multiple", XsOverhead, Recorded),
        ],
        notes: &[
            "Every transfer runs presumed-abort 2PC: durable per-shard PREPARED \
             records (one log record per coalesced address, one flush per line, \
             fenced), a fenced coordinator decision record, then per-shard commit \
             markers. Throughput is on the coordinator pool's wall clock. A 0% \
             cross-shard run still pays one prepare+marker; the sweep isolates the \
             marginal cost of the second participant.",
            "The overhead multiple is the protocol's price in simulated time, not \
             host time: flush-on-commit charges every log append and line flush to \
             the simulated clock, so the ratio is deterministic and gate-stable.",
            "txn_cost_in_kv_ops prices a cross-shard transfer in single-shard \
             serving-path operations (YCSB-A, epoch 32): units differ (a transfer \
             is two writes plus protocol), so it is recorded for scale, not gated.",
        ],
    },
    Scenario {
        name: "flit",
        file: "BENCH_PR7.json",
        schema: "wsp-bench-pr7/v1",
        sections: &[
            ("epoch_group_commit", m::epoch_sweep),
            ("flit_ablation", m::flit_ablation),
        ],
        gates: &[
            // FliT barriers must break the ~1.26x STM instrumentation
            // ceiling of the per-transaction barriers.
            gate("epoch32_sim_speedup/FoC + STM", Epoch32Speedup(FocStm), RecordedAnd(1.8)),
            gate("epoch32_sim_speedup/FoC + UL", Epoch32Speedup(FocUndo), Recorded),
            // Prepare overlap must stay under the 1.37x of participants
            // preparing one after another.
            gate("xs_overhead_multiple", XsOverhead, RecordedAnd(1.37)),
        ],
        notes: &[
            "FliT barriers replace the STM write-set scan and epoch-buffer lookup \
             with one probe of an L1-resident per-word table (5 ns vs 35+ ns), and \
             repeated writes to a hot word update the pending record in place \
             instead of appending another — the elision counters record the \
             fraction of would-be flushes that never happen.",
            "Double-buffered seals stage a full generation and drain it while the \
             next fills; the drain's overlap with foreground commits is credited \
             back to the simulated clock (bounded by the time since handoff), and \
             pheap.seal_stall_time records only the un-overlapped remainder. \
             Durability lags one generation: a crash loses the open epoch AND a \
             staged-but-undrained one, which the extended mid-seal crash sweep \
             pins at every interleaving.",
            "Cross-shard 2PC charges each phase (prepare, phase-2 commit) only \
             its slowest participant on the coordinator pool's wall clock, \
             modelling shards that seal concurrently. The overhead multiple falls \
             below 1.0: an all-cross-shard run spreads each transfer's seal work \
             over two shards while an all-single-shard run serializes it on one.",
        ],
    },
    Scenario {
        name: "power_domain",
        file: "BENCH_PR8.json",
        schema: "wsp-bench-pr8/v1",
        sections: &[
            ("triage_vs_private_budgets", m::triage),
            ("power_storm", m::storm),
        ],
        // A global window must never seal less of the fleet than the same
        // joules split into private per-shard budgets.
        gates: &[
            gate("FoC + UL/triage_advantage", TriageAdvantage(FocUndo), RecordedAnd(1.0)),
            gate("FoC + UL/storm_sealed_fraction", StormSealedFraction(FocUndo), Recorded),
            gate("FoC + UL/storm_full_coverage", StormFullCoverage(FocUndo), Fixed(1.0)),
            gate("FoC + STM/triage_advantage", TriageAdvantage(FocStm), RecordedAnd(1.0)),
            gate("FoC + STM/storm_sealed_fraction", StormSealedFraction(FocStm), Recorded),
            gate("FoC + STM/storm_full_coverage", StormFullCoverage(FocStm), Fixed(1.0)),
        ],
        notes: &[
            "The triage comparison runs one uneven fleet (one shard with a deep \
             committed history, two light ones) under the same total residual \
             window twice: once through the domain supervisor's global triage, \
             once as three private per-shard slices. Private slices each re-pay \
             detection + context costs and strand the light shards' surplus; the \
             global window pays detection once and moves the surplus to where the \
             urgency ranking says it buys the most durable state.",
            "The storm scorecard aggregates sweep_power_storm: 6 storms per seed \
             (3 rung phases x 2 triage biases) of 27 outages each, every outage \
             cutting a triage decision and landing mid-recovery of the previous \
             one. sealed_fraction counts shard-epochs that ended Complete or \
             PartialPriority; the remainder were typed sacrifices, every one \
             rebuilt from a checkpoint plus the coordinator's routing log — the \
             in-sweep asserts already proved no committed transaction was lost.",
        ],
    },
    Scenario {
        name: "lockfree",
        file: "BENCH_PR9.json",
        schema: "wsp-bench-pr9/v1",
        sections: &[
            ("in_shard_scaling", m::in_shard_scaling),
            ("lockfree_sweep", m::lockfree_sweeps),
        ],
        gates: &[
            gate("scaling_4t", InShardScaling, RecordedAnd(1.8)),
            // Removing the commit-path flushes must never cost throughput.
            gate("fof_advantage", FofAdvantage, RecordedAnd(1.0)),
        ],
        notes: &[
            "The scaling pair holds total work constant (one shard, YCSB-A, \
             Zipf 0.99) and splits it over N in-shard client threads driving \
             the lock-free detectable hash. Each thread pays simulated time \
             only for the steps it executes, so the shard's measured phase is \
             the slowest thread's clock; scaling below Nx is contention — CAS \
             retries and helping — not serialization.",
            "The 4-thread rows pit flush-on-fail against flush-on-commit on \
             the same hot key set (gate: fof_advantage). FoC pays a flush + \
             fence to seal every operation descriptor before its linearizing \
             CAS and flushes victims while helping; FoF relies on the \
             residual-energy save to drain the cache at failure, so the same \
             detectability protocol costs only the CAS traffic.",
            "The sweep rows summarize sweep_lockfree at the recorded seed: \
             every schedule of the scenario suite with a power failure \
             injected at every CAS/flush/fence step, every crash classified \
             Completed / NotStarted / Resolved with exactly-once effects \
             (asserted in-sweep). The fingerprint is the order-sensitive FNV \
             fold verify.sh compares across worker counts.",
        ],
    },
    Scenario {
        name: "group_2pc",
        file: "BENCH_PR10.json",
        schema: "wsp-bench-pr10/v1",
        sections: &[
            ("group_sweep", m::group_sweep),
            ("coordinator_sweep", m::coordinator_sweep),
        ],
        gates: &[
            gate("group_batching_speedup", GroupBatching, Fixed(2.0)),
            gate("coordinator_speedup", CoordinatorSpeedup, Fixed(1.8)),
        ],
        notes: &[
            "Group-decided commit buffers decided gtxids and seals them under one \
             fenced GroupDecision record: N transactions pay one decision fence \
             instead of N. coordinator_ns charges only the shared decision log, so \
             the batching ratio isolates exactly the amortized fence.",
            "Transfers whose accounts collide with an open group drain it early to \
             keep concurrently-prepared write sets disjoint (the undo flavour \
             applies prepares in place), so recorded groups are shorter than the \
             configured size; the gate ratio already includes that cost.",
            "Concurrent coordinators are modeled on the simulated clock: each owns \
             a clock, shards and the shared log are resources with availability \
             times, and the pool wall clock is the slowest coordinator. The \
             speedup is bounded by shard contention (two participants per \
             transfer), not by the shared decision log.",
        ],
    },
];
