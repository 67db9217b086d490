//! Deterministic interleaving sweep for the detectable lock-free
//! structures in [`wsp_pheap::lockfree`].
//!
//! The single-shard crash sweeps elsewhere in `faultsim` inject power
//! failure *between transactions*; this engine injects it *between
//! instructions*. Each scenario builds a region plus a set of
//! cloneable per-thread operation machines, then a cooperative
//! scheduler enumerates thread interleavings one visible step (shared
//! read, CAS, flush, fence) at a time:
//!
//! * **Exhaustive mode** walks the full interleaving tree by cloning
//!   the whole execution (region + machines) at every scheduling
//!   choice — every reachable intermediate memory state is visited.
//! * **Seeded mode** (`wsp-det`) replays pseudo-random schedules for
//!   scenarios whose trees are too deep to enumerate.
//!
//! At every tree node where a pending step is a CAS, flush, or fence —
//! the persistence-ordering instructions — the sweep cuts power, takes
//! a policy-faithful crash image (flush-on-commit loses dirty lines,
//! flush-on-fail keeps them), classifies every thread's in-flight
//! operation with [`classify_recovery`], re-executes exactly the
//! operations recovery proves effect-free, runs all plans to
//! completion, and audits exactly-once semantics: every pushed value
//! is on the stack or popped exactly once, every inserted key occupies
//! exactly one slot, every `Resolved` verdict is backed by a durably
//! absent effect. A crash pending a read is not a distinct point: the
//! image is identical to the one before the previous step.
//!
//! The recovery-and-completion audit is a pure function of the crash
//! image and each thread's progress, so audits are memoized per
//! subtree on that exact pair — different interleavings that persist
//! the same bytes share one audit without weakening coverage (each
//! node still contributes its own path-tagged fingerprint term).
//!
//! Sharding goes through [`crate::sweep::run`]: a serial frontier phase
//! explores the first few tree levels, then the frontier subtrees (or
//! the seeded schedules) are the points the runner distributes over
//! `WSP_FAULTSIM_THREADS` workers, and their tallies and traces are
//! merged in point order — reports are bitwise identical for serial and
//! sharded runs.

use std::collections::HashMap;

use wsp_det::{DetRng, Rng};
use wsp_obs::{self as obs, Capture, Ctr, MetricsSnapshot, Trace};
use wsp_pheap::lockfree::{
    desc_snapshot, payload, preload_hash, preload_stack, recover_op, recovered_arena_next,
    recovered_pop_value, FlushPolicy, LfLayout, LfRegion, OpKind, OpResult, OpVerdict, StepKind,
    ThreadMachine, HEAD_ADDR, OP_POP,
};
use wsp_units::Nanos;

use crate::{sweep, WspError};

/// Which lock-free structure a sweep exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LfStructure {
    /// Detectable Treiber stack.
    Stack,
    /// Detectable open-addressed hash.
    Hash,
}

impl LfStructure {
    /// Stable label for reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            LfStructure::Stack => "stack",
            LfStructure::Hash => "hash",
        }
    }
}

/// Per-scenario slice of a sweep report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LfScenarioOutcome {
    /// Scenario name.
    pub name: &'static str,
    /// Complete schedules executed (tree leaves or seeded replays).
    pub schedules: u64,
    /// Crash points enumerated (pending CAS/flush/fence steps).
    pub crash_points: u64,
    /// Verdicts observed across all crash audits.
    pub completed: u64,
    /// See [`LfScenarioOutcome::completed`].
    pub not_started: u64,
    /// See [`LfScenarioOutcome::completed`].
    pub resolved: u64,
    /// Order-sensitive digest of every audit in this scenario.
    pub fingerprint: u64,
}

/// Result of sweeping one structure under one flush policy.
#[derive(Debug, Clone, PartialEq)]
pub struct LockfreeSweepReport {
    /// Structure swept.
    pub structure: LfStructure,
    /// Flush policy the structure ran under.
    pub policy: FlushPolicy,
    /// Per-scenario outcomes, in scenario order.
    pub scenarios: Vec<LfScenarioOutcome>,
    /// Complete schedules executed across all scenarios.
    pub schedules: u64,
    /// Crash points enumerated (one per pending CAS/flush/fence step
    /// per tree node; the audit for co-pending steps is shared, since
    /// the pre-step image does not depend on which step was next).
    pub crash_points: u64,
    /// Crash points whose pending step was a CAS.
    pub cas_points: u64,
    /// Crash points whose pending step was a flush.
    pub flush_points: u64,
    /// Crash points whose pending step was a fence.
    pub fence_points: u64,
    /// `Completed` verdicts across all crash audits.
    pub completed: u64,
    /// `NotStarted` verdicts across all crash audits.
    pub not_started: u64,
    /// `Resolved` verdicts across all crash audits.
    pub resolved: u64,
    /// Help notes recorded (post-crash completions and full runs).
    pub helps: u64,
    /// CAS conflicts (post-crash completions and full runs).
    pub conflicts: u64,
    /// Order-sensitive digest over every audit of every scenario.
    pub fingerprint: u64,
    /// Structured trace of the sweep.
    pub trace: Trace,
    /// Metrics accumulated during the sweep.
    pub metrics: MetricsSnapshot,
}

/// Classifies one thread's in-flight operation against a recovered
/// region, wrapping detectability failures in the typed [`WspError`]
/// and emitting exactly one refusal trace event per error return
/// (PR 4 convention).
///
/// # Errors
///
/// [`WspError::Detectability`] when the durable descriptor is torn or
/// the operation cannot be resolved.
pub fn classify_recovery(
    region: &LfRegion,
    tid: u8,
    current_seq: u64,
) -> Result<OpVerdict, WspError> {
    obs::count(Ctr::LockfreeRecoveries);
    match recover_op(region, tid, current_seq) {
        Ok(v) => Ok(v),
        Err(e) => {
            let err = WspError::from(e);
            obs::count(Ctr::LockfreeRefusals);
            obs::emit_detail(
                "lockfree",
                "refusal",
                Nanos::ZERO,
                i64::from(tid),
                current_seq as i64,
                err.kind().into(),
            );
            Err(err)
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

fn fnv_u64(h: u64, v: u64) -> u64 {
    v.to_le_bytes()
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// Serial tree levels explored before sharding subtrees to workers.
const FRONTIER_DEPTH: usize = 3;
/// Hard ceiling on tree nodes per explored subtree — a scenario that
/// trips this was sized wrong, not a machine that loops.
const MAX_NODES: u64 = 20_000_000;

#[derive(Debug, Clone, Copy)]
struct Tally {
    nodes: u64,
    schedules: u64,
    cas_points: u64,
    flush_points: u64,
    fence_points: u64,
    completed: u64,
    not_started: u64,
    resolved: u64,
    helps: u64,
    conflicts: u64,
    fingerprint: u64,
}

impl Tally {
    fn new() -> Self {
        Tally {
            nodes: 0,
            schedules: 0,
            cas_points: 0,
            flush_points: 0,
            fence_points: 0,
            completed: 0,
            not_started: 0,
            resolved: 0,
            helps: 0,
            conflicts: 0,
            fingerprint: FNV_OFFSET,
        }
    }

    fn crash_points(&self) -> u64 {
        self.cas_points + self.flush_points + self.fence_points
    }

    fn merge(&mut self, other: &Tally) {
        self.nodes += other.nodes;
        self.schedules += other.schedules;
        self.cas_points += other.cas_points;
        self.flush_points += other.flush_points;
        self.fence_points += other.fence_points;
        self.completed += other.completed;
        self.not_started += other.not_started;
        self.resolved += other.resolved;
        self.helps += other.helps;
        self.conflicts += other.conflicts;
        self.fingerprint = fnv_u64(self.fingerprint, other.fingerprint);
    }
}

#[derive(Clone, Copy)]
enum Mode {
    Exhaustive,
    Seeded(usize),
}

#[derive(Clone)]
struct Scenario {
    name: &'static str,
    structure: LfStructure,
    lay: LfLayout,
    stack_preload: Vec<u64>,
    hash_preload: Vec<(u64, u64)>,
    plans: Vec<Vec<OpKind>>,
    mode: Mode,
}

impl Scenario {
    /// Every value the scenario's pushes (preload included) introduce.
    /// Values are distinct by construction so the exactly-once audit
    /// can use multisets without aliasing.
    fn all_pushed(&self) -> Vec<u64> {
        let mut v = self.stack_preload.clone();
        for plan in &self.plans {
            for op in plan {
                if let OpKind::Push(x) = op {
                    v.push(*x);
                }
            }
        }
        v.sort_unstable();
        v
    }

    /// Keys that must occupy exactly one slot in any completed image:
    /// the preloads plus every planned insert (inserts of a live key
    /// return `Exists`; a duplicate slot is a lost-evidence bug).
    fn must_keys(&self) -> Vec<u64> {
        let mut keys: Vec<u64> = self.hash_preload.iter().map(|p| p.0).collect();
        for plan in &self.plans {
            for op in plan {
                if let OpKind::Insert(k, _) = op {
                    keys.push(*k);
                }
            }
        }
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    fn value_candidates(&self, key: u64) -> Vec<u64> {
        let mut vals: Vec<u64> = self
            .hash_preload
            .iter()
            .filter(|p| p.0 == key)
            .map(|p| p.1)
            .collect();
        for plan in &self.plans {
            for op in plan {
                match op {
                    OpKind::Insert(k, v) | OpKind::Update(k, v) if *k == key => vals.push(*v),
                    _ => {}
                }
            }
        }
        vals
    }
}

#[derive(Clone)]
struct SweepState {
    region: LfRegion,
    machines: Vec<ThreadMachine>,
    path: Vec<u8>,
}

impl SweepState {
    fn new(sc: &Scenario) -> Self {
        let mut region = LfRegion::create(sc.lay);
        if !sc.stack_preload.is_empty() {
            preload_stack(&mut region, &sc.stack_preload);
        }
        if !sc.hash_preload.is_empty() {
            preload_hash(&mut region, &sc.hash_preload);
        }
        let mut machines: Vec<ThreadMachine> = sc
            .plans
            .iter()
            .enumerate()
            .map(|(t, plan)| ThreadMachine::new(sc.lay, t as u8, plan.clone()))
            .collect();
        for m in &mut machines {
            m.prepare(&mut region);
        }
        SweepState { region, machines, path: Vec::new() }
    }

    fn runnable(&self) -> Vec<usize> {
        (0..self.machines.len())
            .filter(|&i| !self.machines[i].done())
            .collect()
    }

    fn step(&mut self, i: usize) {
        self.machines[i].step(&mut self.region);
        self.path.push(i as u8);
    }
}

fn result_code(r: OpResult) -> u64 {
    match r {
        OpResult::Pushed => 1,
        OpResult::Popped(v) => 0x100 + v,
        OpResult::Empty => 2,
        OpResult::Inserted => 3,
        OpResult::Exists => 4,
        OpResult::Updated => 5,
        OpResult::NotFound => 6,
        OpResult::Found(v) => 0x1_0000 + v,
        OpResult::TableFull => 7,
    }
}

/// Walks the durable stack chain of a recovered (or quiescent) region.
fn walk_stack(fr: &LfRegion) -> Vec<u64> {
    let mut vals = Vec::new();
    let mut cur = fr.durable_word(HEAD_ADDR);
    let cap = fr.layout().capacity().as_u64() / 64;
    while payload(cur) != 0 {
        let node = payload(cur);
        vals.push(fr.durable_word(node));
        cur = fr.durable_word(node + 8);
        assert!(vals.len() as u64 <= cap, "cycle in durable stack chain");
    }
    vals
}

/// Walks the durable hash table, in slot order.
fn walk_hash(fr: &LfRegion) -> Vec<(u64, u64)> {
    let lay = fr.layout();
    (0..lay.slots)
        .filter_map(|i| {
            let w = fr.durable_word(lay.slot_addr(i));
            (payload(w) != 0).then(|| {
                let e = payload(w);
                (fr.durable_word(e), fr.durable_word(e + 8))
            })
        })
        .collect()
}

/// Audits a fully-completed durable image against the scenario's
/// exactly-once expectations; returns a digest of the final state.
fn audit_final_image(sc: &Scenario, fr: &LfRegion, popped: &[u64], ctx: &str) -> u64 {
    let mut digest = FNV_OFFSET;
    match sc.structure {
        LfStructure::Stack => {
            let chain = walk_stack(fr);
            for &v in &chain {
                digest = fnv_u64(digest, v);
            }
            let mut have: Vec<u64> = chain.iter().chain(popped.iter()).copied().collect();
            have.sort_unstable();
            assert_eq!(
                have,
                sc.all_pushed(),
                "{}: {ctx}: stack lost or duplicated nodes (chain {chain:?}, popped {popped:?})",
                sc.name
            );
        }
        LfStructure::Hash => {
            let table = walk_hash(fr);
            for &(k, v) in &table {
                digest = fnv_u64(fnv_u64(digest, k), v);
            }
            let mut keys: Vec<u64> = table.iter().map(|p| p.0).collect();
            keys.sort_unstable();
            let deduped = {
                let mut d = keys.clone();
                d.dedup();
                d
            };
            assert_eq!(keys, deduped, "{}: {ctx}: duplicated key in table", sc.name);
            assert_eq!(
                keys,
                sc.must_keys(),
                "{}: {ctx}: table keys diverge from the planned key set",
                sc.name
            );
            for &(k, v) in &table {
                assert!(
                    sc.value_candidates(k).contains(&v),
                    "{}: {ctx}: key {k} holds phantom value {v}",
                    sc.name
                );
            }
        }
    }
    digest
}

/// Memoized result of one recovery-and-completion audit. The audit is
/// a pure function of (crash image, per-thread results-so-far): the
/// verdicts, the re-execution, and the final-state checks all derive
/// from exactly those inputs, so two interleavings that persisted the
/// same bytes at the same per-thread progress share one audit.
#[derive(Clone, Copy)]
struct CachedAudit {
    completed: u64,
    not_started: u64,
    resolved: u64,
    helps: u64,
    conflicts: u64,
    digest: u64,
}

type AuditCache = HashMap<(Vec<u8>, Vec<u64>), CachedAudit>;

/// Recovers from `image`, re-executes exactly what recovery licenses,
/// completes every plan, and audits exactly-once semantics.
fn audit_recovery(
    sc: &Scenario,
    image: Vec<u8>,
    machines: &[ThreadMachine],
    path: &[u8],
) -> CachedAudit {
    let lay = sc.lay;
    let mut r = LfRegion::from_image(image, lay);
    let mut out = CachedAudit {
        completed: 0,
        not_started: 0,
        resolved: 0,
        helps: 0,
        conflicts: 0,
        digest: FNV_OFFSET,
    };
    let mut popped: Vec<u64> = Vec::new();
    let mut post: Vec<ThreadMachine> = Vec::new();
    for (i, m) in machines.iter().enumerate() {
        let tid = i as u8;
        let plan = m.plan();
        let verdict = classify_recovery(&r, tid, m.current_seq()).unwrap_or_else(|e| {
            panic!("{}: path {path:?}: protocol produced a corrupt descriptor: {e}", sc.name)
        });
        match verdict {
            OpVerdict::Completed => out.completed += 1,
            OpVerdict::NotStarted => out.not_started += 1,
            OpVerdict::Resolved => out.resolved += 1,
        }
        out.digest = fnv_u64(out.digest, verdict as u64);
        for &res in m.results() {
            out.digest = fnv_u64(out.digest, result_code(res));
            if let OpResult::Popped(v) = res {
                popped.push(v);
            }
        }
        if m.done() {
            // A returned effectful answer must still be justified by
            // the durable image — durable linearizability.
            if m.results().last().is_some_and(|r| r.effectful()) {
                assert_eq!(
                    verdict,
                    OpVerdict::Completed,
                    "{}: path {path:?}: thread {tid} returned an effectful result the image lost",
                    sc.name
                );
            }
            continue;
        }
        let returned = m.ops_returned();
        let consumed = match verdict {
            OpVerdict::Completed => {
                let snap = desc_snapshot(&r, tid);
                if snap.opcode == OP_POP {
                    popped.push(recovered_pop_value(&r, tid));
                }
                returned + 1
            }
            OpVerdict::NotStarted | OpVerdict::Resolved => {
                if verdict == OpVerdict::Resolved {
                    // Resolution's contract: re-execution is safe only
                    // if the effect is provably absent from the media.
                    let snap = desc_snapshot(&r, tid);
                    assert_ne!(
                        r.durable_word(snap.target),
                        snap.new_val,
                        "{}: path {path:?}: thread {tid} resolved an op whose effect is durable",
                        sc.name
                    );
                }
                returned
            }
        };
        if consumed < plan.len() {
            post.push(ThreadMachine::with_progress(
                lay,
                tid,
                plan[consumed..].to_vec(),
                consumed as u64 + 1,
                recovered_arena_next(&r, tid),
            ));
        }
    }
    // Finish every surviving plan, deterministic round-robin.
    for m in &mut post {
        m.prepare(&mut r);
    }
    let mut guard = 0u32;
    while post.iter().any(|m| !m.done()) {
        for m in &mut post {
            if !m.done() {
                m.step(&mut r);
            }
        }
        guard += 1;
        assert!(guard < 100_000, "{}: post-crash completion did not quiesce", sc.name);
    }
    for m in &post {
        out.helps += m.stats().helps;
        out.conflicts += m.stats().cas_conflicts;
        for &res in m.results() {
            out.digest = fnv_u64(out.digest, result_code(res));
            if let OpResult::Popped(v) = res {
                popped.push(v);
            }
        }
    }
    let final_digest = match lay.policy {
        // Completed FoC ops flushed their effects at return; the live
        // durable bytes already are the post-completion crash image.
        FlushPolicy::FlushOnCommit => audit_final_image(sc, &r, &popped, "post-crash"),
        FlushPolicy::FlushOnFail => {
            let fr = LfRegion::from_image(r.crash_image(), lay);
            audit_final_image(sc, &fr, &popped, "post-crash")
        }
    };
    out.digest = fnv_u64(out.digest, final_digest);
    out
}

/// Per-machine progress signature for the audit cache key.
fn progress_sig(machines: &[ThreadMachine]) -> Vec<u64> {
    let mut sig = Vec::new();
    for m in machines {
        sig.push(m.results().len() as u64);
        sig.extend(m.results().iter().map(|&r| result_code(r)));
        sig.push(u64::MAX);
    }
    sig
}

/// Cuts power at the current tree node and audits (memoized).
fn audit_crash(sc: &Scenario, state: &SweepState, t: &mut Tally, cache: &mut AuditCache) {
    obs::count(Ctr::FaultsInjected);
    let key = (state.region.crash_image(), progress_sig(&state.machines));
    let cached = match cache.get(&key) {
        Some(&c) => c,
        None => {
            let c = audit_recovery(sc, key.0.clone(), &state.machines, &state.path);
            cache.insert(key, c);
            c
        }
    };
    t.completed += cached.completed;
    t.not_started += cached.not_started;
    t.resolved += cached.resolved;
    t.helps += cached.helps;
    t.conflicts += cached.conflicts;
    let mut digest = FNV_OFFSET;
    for &b in &state.path {
        digest = fnv_u64(digest, u64::from(b));
    }
    t.fingerprint = fnv_u64(t.fingerprint, fnv_u64(digest, cached.digest));
}

/// Audits a schedule that ran to completion without a crash.
fn audit_leaf(sc: &Scenario, state: &SweepState, t: &mut Tally) {
    let mut digest = FNV_OFFSET;
    for &b in &state.path {
        digest = fnv_u64(digest, u64::from(b));
    }
    let mut popped: Vec<u64> = Vec::new();
    let mut ops = 0u64;
    for m in &state.machines {
        t.helps += m.stats().helps;
        t.conflicts += m.stats().cas_conflicts;
        obs::count_by(Ctr::LockfreeCas, m.stats().cas_attempts);
        obs::count_by(Ctr::LockfreeCasConflicts, m.stats().cas_conflicts);
        obs::count_by(Ctr::LockfreeHelps, m.stats().helps);
        ops += m.results().len() as u64;
        for &res in m.results() {
            digest = fnv_u64(digest, result_code(res));
            if let OpResult::Popped(v) = res {
                popped.push(v);
            }
        }
    }
    obs::count_by(Ctr::LockfreeOps, ops);
    let final_digest = match sc.lay.policy {
        FlushPolicy::FlushOnCommit => audit_final_image(sc, &state.region, &popped, "complete run"),
        FlushPolicy::FlushOnFail => {
            let fr = LfRegion::from_image(state.region.crash_image(), sc.lay);
            audit_final_image(sc, &fr, &popped, "complete run")
        }
    };
    digest = fnv_u64(digest, final_digest);
    t.fingerprint = fnv_u64(t.fingerprint, digest);
}

/// Counts this node's pending crash points and audits once if any.
/// (The image depends only on the executed prefix, never on which
/// pending step would have run next, so one audit covers them all.)
fn audit_node(sc: &Scenario, state: &SweepState, t: &mut Tally, cache: &mut AuditCache) {
    let mut pending = 0;
    for m in &state.machines {
        match m.peek_kind() {
            Some(StepKind::Cas) => {
                t.cas_points += 1;
                pending += 1;
            }
            Some(StepKind::Flush) => {
                t.flush_points += 1;
                pending += 1;
            }
            Some(StepKind::Fence) => {
                t.fence_points += 1;
                pending += 1;
            }
            Some(StepKind::Read) | None => {}
        }
    }
    if pending > 0 {
        audit_crash(sc, state, t, cache);
    }
}

/// Depth-first exploration. With `remaining = Some(k)`, stops after
/// `k` levels and parks audited states on `frontier` for workers;
/// with `None`, explores the subtree to its leaves.
fn explore(
    sc: &Scenario,
    state: SweepState,
    remaining: Option<usize>,
    frontier: &mut Vec<SweepState>,
    t: &mut Tally,
    cache: &mut AuditCache,
) {
    t.nodes += 1;
    assert!(t.nodes <= MAX_NODES, "{}: interleaving tree exceeded {MAX_NODES} nodes", sc.name);
    let runnable = state.runnable();
    if runnable.is_empty() {
        t.schedules += 1;
        audit_leaf(sc, &state, t);
        return;
    }
    audit_node(sc, &state, t, cache);
    if remaining == Some(0) {
        frontier.push(state);
        return;
    }
    let next = remaining.map(|k| k - 1);
    let (&last, rest) = runnable.split_last().expect("runnable is non-empty");
    for &i in rest {
        let mut child = state.clone();
        child.step(i);
        explore(sc, child, next, frontier, t, cache);
    }
    // Last branch takes ownership instead of cloning.
    let mut child = state;
    child.step(last);
    explore(sc, child, next, frontier, t, cache);
}

/// Expands a frontier state (already audited) into its full subtrees.
fn expand_frontier(sc: &Scenario, state: &SweepState, t: &mut Tally) {
    let mut no_frontier = Vec::new();
    let mut cache = AuditCache::new();
    for &i in &state.runnable() {
        let mut child = state.clone();
        child.step(i);
        explore(sc, child, None, &mut no_frontier, t, &mut cache);
    }
    debug_assert!(no_frontier.is_empty());
}

/// Explores the frontier serially, then expands every frontier subtree
/// as one runner point.
fn run_exhaustive(sc: &Scenario, threads: usize) -> (Tally, Capture) {
    let mut frontier = Vec::new();
    let mut tally = Tally::new();
    let ((), mut cap) = obs::capture(|| {
        let mut cache = AuditCache::new();
        explore(
            sc,
            SweepState::new(sc),
            Some(FRONTIER_DEPTH),
            &mut frontier,
            &mut tally,
            &mut cache,
        );
    });
    let (subtrees, subtrees_cap) = sweep::run(frontier, threads, |state| {
        let mut t = Tally::new();
        expand_frontier(sc, &state, &mut t);
        t
    });
    cap.absorb(subtrees_cap);
    subtrees.iter().for_each(|t| tally.merge(t));
    (tally, cap)
}

/// Replays `schedules` seeded schedules, one runner point each.
fn run_seeded(
    sc: &Scenario,
    schedules: usize,
    rng: &mut DetRng,
    threads: usize,
) -> (Tally, Capture) {
    // Split every schedule's PRNG serially before any worker runs —
    // the sharded replay order cannot perturb the streams.
    let rngs: Vec<DetRng> = (0..schedules).map(|_| rng.split()).collect();
    let (replays, cap) = sweep::run(rngs, threads, |mut srng| {
        let mut t = Tally::new();
        let mut cache = AuditCache::new();
        let mut state = SweepState::new(sc);
        loop {
            let runnable = state.runnable();
            if runnable.is_empty() {
                t.schedules += 1;
                audit_leaf(sc, &state, &mut t);
                break;
            }
            audit_node(sc, &state, &mut t, &mut cache);
            let pick = runnable[srng.gen_range(0..runnable.len())];
            state.step(pick);
        }
        t
    });
    let mut tally = Tally::new();
    replays.iter().for_each(|t| tally.merge(t));
    (tally, cap)
}

fn colliding_key(lay: &LfLayout, base: u64) -> u64 {
    let home = lay.home_slot(base);
    (base + 1..base + 10_000)
        .find(|&k| lay.home_slot(k) == home)
        .expect("a colliding key exists in range")
}

fn scenarios(structure: LfStructure, policy: FlushPolicy) -> Vec<Scenario> {
    // Flush-on-fail operations have no flush/fence steps, so their
    // interleaving trees are shallow enough to enumerate everywhere.
    // Under flush-on-commit the two longest-path scenarios switch to
    // seeded replays; exhaustive coverage of every step kind comes
    // from the remaining scenarios.
    let wide = |seeded| match policy {
        FlushPolicy::FlushOnFail => Mode::Exhaustive,
        FlushPolicy::FlushOnCommit => Mode::Seeded(seeded),
    };
    let blank = |name, lay, plans, mode| Scenario {
        name,
        structure,
        lay,
        stack_preload: Vec::new(),
        hash_preload: Vec::new(),
        plans,
        mode,
    };
    match structure {
        LfStructure::Stack => {
            let lay2 = LfLayout::new(2, 0, 8, policy);
            let lay3 = LfLayout::new(3, 0, 8, policy);
            vec![
                blank(
                    "stack-push-push",
                    lay2,
                    vec![vec![OpKind::Push(0xA1)], vec![OpKind::Push(0xB1)]],
                    Mode::Exhaustive,
                ),
                Scenario {
                    stack_preload: vec![0x51],
                    ..blank(
                        "stack-push-pop",
                        lay2,
                        vec![vec![OpKind::Push(0xA2)], vec![OpKind::Pop]],
                        Mode::Exhaustive,
                    )
                },
                Scenario {
                    stack_preload: vec![0x52, 0x53],
                    ..blank(
                        "stack-pop-pop",
                        lay2,
                        vec![vec![OpKind::Pop], vec![OpKind::Pop]],
                        wide(32),
                    )
                },
                Scenario {
                    stack_preload: vec![0x54],
                    ..blank(
                        "stack-mixed-3t",
                        lay3,
                        vec![
                            vec![OpKind::Push(0x61), OpKind::Pop],
                            vec![OpKind::Push(0x62), OpKind::Pop],
                            vec![OpKind::Push(0x63)],
                        ],
                        Mode::Seeded(12),
                    )
                },
            ]
        }
        LfStructure::Hash => {
            let lay2 = LfLayout::new(2, 16, 8, policy);
            let lay3 = LfLayout::new(3, 16, 8, policy);
            let k2 = colliding_key(&lay2, 9);
            vec![
                blank(
                    "hash-insert-race",
                    lay2,
                    vec![vec![OpKind::Insert(7, 0x70)], vec![OpKind::Insert(7, 0x71)]],
                    Mode::Exhaustive,
                ),
                blank(
                    "hash-collide",
                    lay2,
                    vec![vec![OpKind::Insert(9, 0x90)], vec![OpKind::Insert(k2, 0x91)]],
                    Mode::Exhaustive,
                ),
                Scenario {
                    hash_preload: vec![(5, 0x50)],
                    ..blank(
                        "hash-update-race",
                        lay2,
                        vec![vec![OpKind::Update(5, 0x51)], vec![OpKind::Update(5, 0x52)]],
                        wide(32),
                    )
                },
                Scenario {
                    hash_preload: vec![(5, 0x50)],
                    ..blank(
                        "hash-insert-update",
                        lay2,
                        vec![vec![OpKind::Insert(11, 0xB0)], vec![OpKind::Update(5, 0x53)]],
                        Mode::Exhaustive,
                    )
                },
                Scenario {
                    hash_preload: vec![(5, 0x50)],
                    ..blank(
                        "hash-mixed-3t",
                        lay3,
                        vec![
                            vec![OpKind::Insert(21, 0xC1), OpKind::Get(5)],
                            vec![OpKind::Update(5, 0x55), OpKind::Insert(22, 0xC2)],
                            vec![OpKind::Get(21), OpKind::Update(5, 0x56)],
                        ],
                        Mode::Seeded(12),
                    )
                },
            ]
        }
    }
}

/// Sweeps `structure` under `policy` with the ambient worker count.
#[must_use]
pub fn sweep_lockfree(structure: LfStructure, policy: FlushPolicy, seed: u64) -> LockfreeSweepReport {
    sweep_lockfree_threads(structure, policy, seed, sweep::threads())
}

pub(crate) fn sweep_lockfree_threads(
    structure: LfStructure,
    policy: FlushPolicy,
    seed: u64,
    threads: usize,
) -> LockfreeSweepReport {
    let mut rng = DetRng::seed_from_u64(seed ^ (policy.code() << 32) ^ structure as u64);
    let mut total = Tally::new();
    let mut scenario_outs = Vec::new();
    let mut cap = Capture::default();
    for sc in scenarios(structure, policy) {
        let ((), hdr) = obs::capture(|| {
            obs::emit_detail(
                "lockfree",
                "scenario",
                Nanos::ZERO,
                sc.plans.len() as i64,
                0,
                format!("{} [{}/{}]", sc.name, structure.label(), policy.label()),
            );
        });
        let (tally, scenario_cap) = match sc.mode {
            Mode::Exhaustive => run_exhaustive(&sc, threads),
            Mode::Seeded(n) => run_seeded(&sc, n, &mut rng, threads),
        };
        cap.absorb(hdr);
        cap.absorb(scenario_cap);
        scenario_outs.push(LfScenarioOutcome {
            name: sc.name,
            schedules: tally.schedules,
            crash_points: tally.crash_points(),
            completed: tally.completed,
            not_started: tally.not_started,
            resolved: tally.resolved,
            fingerprint: tally.fingerprint,
        });
        total.merge(&tally);
    }
    LockfreeSweepReport {
        structure,
        policy,
        scenarios: scenario_outs,
        schedules: total.schedules,
        crash_points: total.crash_points(),
        cas_points: total.cas_points,
        flush_points: total.flush_points,
        fence_points: total.fence_points,
        completed: total.completed,
        not_started: total.not_started,
        resolved: total.resolved,
        helps: total.helps,
        conflicts: total.conflicts,
        fingerprint: total.fingerprint,
        trace: cap.trace,
        metrics: cap.metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exhaustive_push_push_covers_all_kinds_foc() {
        let r = sweep_lockfree_threads(LfStructure::Stack, FlushPolicy::FlushOnCommit, 7, 1);
        assert!(r.cas_points > 0 && r.flush_points > 0 && r.fence_points > 0);
        assert!(r.completed > 0 && r.not_started > 0 && r.resolved > 0);
        assert!(r.schedules > 100);
    }

    #[test]
    fn fof_has_no_flush_or_fence_points() {
        let r = sweep_lockfree_threads(LfStructure::Stack, FlushPolicy::FlushOnFail, 7, 1);
        assert!(r.cas_points > 0);
        assert_eq!(r.flush_points, 0);
        assert_eq!(r.fence_points, 0);
    }
}
