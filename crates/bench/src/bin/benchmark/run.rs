//! One measured run of a workload: set-up, the closed-loop capacity
//! phase, the open-loop latency phase (with its power failures), the
//! closing failure and audit, then the host-throughput windows.
//!
//! Everything up to the audit is a fixed amount of seeded work, so every
//! `sim_*` metric is a function of the seed alone. Only the host windows
//! run for a host-time budget, and they come last.

use std::collections::HashMap;
use std::time::Duration;

use wsp_det::{DetRng, Rng};
use wsp_obs as obs;
use wsp_obs::{Ctr, Hist, MetricsSnapshot};
use wsp_units::Nanos;

use crate::host;
use crate::probe::{Layer, Probe};
use crate::rig::{CacheCount, Group, Mix, Params, Req, Rig, Service, Tally, Workload};
use crate::stats::{median, percentile};

/// Set-ups per run; `setup_s` is their median. The first builds the
/// measured fleet; the others run between host windows, so the median
/// spans the run rather than one moment of the host.
const SETUPS: usize = 5;
/// Equal CPU-time windows; `host_ops_per_s` is the best of them.
const WINDOWS: usize = 20;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `sim` or `host`: the clock that measured it, or whose events it
    /// counts.
    pub clock: &'static str,
    pub value: f64,
}

fn metric(name: &'static str, unit: &'static str, clock: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        clock,
        value,
    }
}

/// Everything one run measured.
#[derive(Debug)]
pub struct Outcome {
    pub end_to_end: Vec<Metric>,
    /// Filled by traced runs only.
    pub per_layer: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    /// The traced run's raw spans.
    pub probe: Probe,
}

/// The generated load, shared by every phase: the closed-loop clients,
/// each with its own stream and home shard, and the open loop's arrival
/// stream.
#[derive(Clone)]
struct Load {
    mix: Mix,
    clients: Vec<(usize, DetRng)>,
    turn: usize,
    arrivals: DetRng,
    tickets: u64,
}

impl Load {
    fn new(workload: Workload, params: &Params, root: &mut DetRng) -> Load {
        let homes: Vec<usize> = if workload == Workload::XshardGroup {
            (0..params.clients).collect()
        } else {
            (0..params.shards)
                .flat_map(|s| std::iter::repeat_n(s, params.clients))
                .collect()
        };
        Load {
            mix: Mix::new(workload, params),
            clients: homes.into_iter().map(|h| (h, root.split())).collect(),
            turn: 0,
            arrivals: root.split(),
            tickets: 0,
        }
    }

    /// The next closed-loop request and its ticket. Each client waits
    /// for its previous request, so the clients take turns.
    fn closed(&mut self) -> (u64, Req) {
        let turn = self.turn;
        self.turn = (turn + 1) % self.clients.len();
        self.tickets += 1;
        let (home, rng) = &mut self.clients[turn];
        (self.tickets, self.mix.draw(rng, *home))
    }

    /// The next open-loop request and its ticket, routed to a uniformly
    /// chosen shard.
    fn open(&mut self, shards: usize) -> (u64, Req) {
        let home = self.arrivals.gen_range(0..shards);
        self.tickets += 1;
        (self.tickets, self.mix.draw(&mut self.arrivals, home))
    }
}

/// What the capacity and latency phases measured.
struct Measured {
    sim_ops_per_s: f64,
    latencies: Vec<f64>,
    downtime: f64,
    conservation: Vec<(Nanos, Nanos)>,
    cache: CacheCount,
    tally: Tally,
}

/// Runs `workload` at `seed`: `traced` runs give per-layer metrics and
/// spans, `smoke` shrinks the workload for unit tests.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
) -> Result<Outcome, String> {
    let params = Params::of(workload, smoke);
    let mut root = DetRng::seed_from_u64(seed);
    let setup_seed: u64 = root.gen();
    // Tracing is opt-in per phase: set-up and untraced runs record nothing.
    obs::set_enabled(false);

    let timed_setup = || -> Result<(Rig, f64), String> {
        let t = host::thread_cpu();
        let rig = Rig::setup(workload, params, setup_seed)?;
        Ok((rig, (host::thread_cpu() - t).as_secs_f64()))
    };
    let (mut rig, first) = timed_setup()?;
    let mut setup_s = vec![first];
    let mut load = Load::new(workload, &params, &mut root);
    let mut probe = Probe::new(traced);
    let (measured, snapshot) = if traced {
        let (m, capture) = obs::capture(|| measure(&mut rig, &mut load, &mut probe));
        (m?, Some(capture.metrics))
    } else {
        (measure(&mut rig, &mut load, &mut probe)?, None)
    };
    // Memory of the seeded work only: the host windows run for a time
    // budget, so whatever they add would depend on the host's speed.
    let peak_rss = host::peak_rss_mib();

    let windows = host_windows(&rig, &load, seconds, traced, |w| {
        if w % (WINDOWS / (SETUPS - 1)) == 0 {
            setup_s.push(timed_setup()?.1);
        }
        Ok(())
    })?;
    let host_ops_per_s = best(&windows.plain);
    let lat = &measured.latencies;
    let end_to_end = vec![
        metric("setup_s", "s", "host", median(&setup_s)),
        metric("host_ops_per_s", "1/s", "host", host_ops_per_s),
        metric("host_peak_rss_mb", "MiB", "host", peak_rss),
        metric("sim_ops_per_s", "1/s", "sim", measured.sim_ops_per_s),
        metric("sim_p50_ns", "ns", "sim", percentile(lat, 50.0)),
        metric("sim_p999_ns", "ns", "sim", percentile(lat, 99.9)),
        metric("sim_downtime_ns", "ns", "sim", measured.downtime),
    ];
    let per_layer = match snapshot {
        Some(snap) => {
            let overhead = best(&windows.traced) / host_ops_per_s;
            per_layer_metrics(&probe, &snap, &measured, overhead)
        }
        None => Vec::new(),
    };
    let mut violations = rig.violations;
    violations.extend(windows.violations);
    for (s, (booked, advanced)) in measured.conservation.iter().enumerate() {
        if booked != advanced {
            violations.push(format!(
                "shard {s}: layer calls account for {booked} of the {advanced} its heap charged"
            ));
        }
    }
    Ok(Outcome {
        end_to_end,
        per_layer,
        attempted: load.tickets + windows.requests,
        failed: rig.failed + windows.failed,
        violations,
        probe,
    })
}

/// The seeded, host-independent part of the run.
fn measure(rig: &mut Rig, load: &mut Load, probe: &mut Probe) -> Result<Measured, String> {
    rig.start_measuring();
    let params = rig.params;
    let (sim_ops_per_s, closed_latencies) = closed_loop(rig, load, params.capacity_ops, probe)?;
    let (mut latencies, mut downtime) = if params.latency_ops > 0 {
        open_loop(rig, load, probe)?
    } else {
        (closed_latencies, 0.0)
    };
    let conservation = rig.conservation();
    if rig.workload != Workload::OutageResume {
        // The closing failure: down until the first request after it
        // has been served.
        let recovery = ns(rig.final_outage(probe)?);
        let mut tl = Timeline::new(params.shards, 1);
        downtime = arrive(rig, load, &mut tl, recovery, probe)?;
    }
    latencies.sort_unstable_by(f64::total_cmp);
    if latencies.is_empty() {
        return Err("no request completed".to_owned());
    }
    Ok(Measured {
        sim_ops_per_s,
        latencies,
        downtime,
        conservation,
        cache: rig.cache(),
        tally: rig.tally,
    })
}

/// Simulated nanoseconds as the timing models' `f64`; exact below 2^53.
fn ns(d: Nanos) -> f64 {
    d.as_nanos() as f64
}

/// The fleet's busy time per shard and on the decision log, for
/// closed-loop capacity.
struct Busy {
    shards: Vec<Nanos>,
    log: Nanos,
    /// Transfer latencies on the coordinators' clocks.
    latencies: Vec<f64>,
}

impl Busy {
    fn total(&self) -> Nanos {
        self.shards.iter().copied().sum::<Nanos>() + self.log
    }

    fn work(&mut self, work: &[(usize, Nanos)]) {
        for &(s, d) in work {
            self.shards[s] += d;
        }
    }

    fn group(&mut self, g: Option<Group>) {
        if let Some(g) = g {
            self.log += g.seal;
            self.work(&g.phase2);
            self.latencies
                .extend(g.members.iter().map(|m| ns(m.done_clock - m.begin_clock)));
        }
    }
}

/// Closed-loop capacity: `n` requests, then every buffered decision is
/// sealed and every durability epoch closed, so the makespan includes
/// making all of them durable. Returns requests per simulated second of
/// the slowest shard or coordinator, and the transfers' latencies.
fn closed_loop(
    rig: &mut Rig,
    load: &mut Load,
    n: u64,
    probe: &mut Probe,
) -> Result<(f64, Vec<f64>), String> {
    let mut busy = Busy {
        shards: vec![Nanos::ZERO; rig.params.shards],
        log: Nanos::ZERO,
        latencies: Vec::new(),
    };
    let wall0 = rig.pool_wall();
    for _ in 0..n {
        let (ticket, req) = load.closed();
        probe.begin_request();
        let (t0, h0) = (busy.total(), probe.now());
        let svc = rig.exec(req, ticket, probe)?;
        busy.group(svc.drained);
        busy.work(&svc.work);
        busy.group(svc.sealed);
        probe.end_request(t0, busy.total(), h0);
    }
    busy.group(rig.drain(probe)?);
    busy.work(&rig.seal_epochs(probe));
    let makespan = if rig.workload == Workload::XshardGroup {
        rig.pool_wall() - wall0
    } else {
        busy.shards.iter().copied().fold(busy.log, Nanos::max)
    };
    Ok((n as f64 / makespan.as_secs_f64(), busy.latencies))
}

/// The open loop's simulated timeline: one FIFO server per shard and
/// one for the shared decision log, advanced by the service times the
/// heaps charged (the heaps' own clocks are never touched). Times are
/// real-valued nanoseconds because Poisson arrival instants are.
struct Timeline {
    free: Vec<f64>,
    log_free: f64,
    /// Buffered transfers: ticket → (arrival, end of its prepare).
    waiting: HashMap<u64, (f64, f64)>,
    latencies: Vec<f64>,
}

impl Timeline {
    fn new(shards: usize, requests: usize) -> Timeline {
        Timeline {
            free: vec![0.0; shards],
            log_free: 0.0,
            waiting: HashMap::new(),
            latencies: Vec::with_capacity(requests),
        }
    }

    /// Places one request's service at `now`; `origin` is when its
    /// client sent it (earlier than `now` for a retry). Returns when
    /// its own work ended.
    fn apply(&mut self, now: f64, origin: f64, ticket: u64, svc: Service) -> f64 {
        if let Some(g) = svc.drained {
            self.group(now, g);
        }
        let mut end = now;
        for (s, d) in svc.work {
            self.free[s] = now.max(self.free[s]) + ns(d);
            end = end.max(self.free[s]);
        }
        if svc.buffered {
            self.waiting.insert(ticket, (origin, end));
        } else if !svc.failed {
            self.latencies.push(end - origin);
        }
        if let Some(g) = svc.sealed {
            self.group(end, g);
        }
        end
    }

    /// A group seals once the log is free and every member prepared;
    /// phase 2 then queues on each shard. Every member is acknowledged
    /// when the last shard finishes.
    fn group(&mut self, at: f64, g: Group) {
        let ready = g
            .members
            .iter()
            .filter_map(|m| self.waiting.get(&m.ticket))
            .fold(at.max(self.log_free), |acc, &(_, prepared)| {
                acc.max(prepared)
            });
        let sealed = ready + ns(g.seal);
        self.log_free = sealed;
        let mut done = sealed;
        for (s, d) in g.phase2 {
            self.free[s] = sealed.max(self.free[s]) + ns(d);
            done = done.max(self.free[s]);
        }
        for m in g.members {
            if let Some((origin, _)) = self.waiting.remove(&m.ticket) {
                self.latencies.push(done - origin);
            }
        }
    }

    /// When a power failure at `at` takes the fleet down: work already
    /// admitted drains first.
    fn quiesce(&self, at: f64) -> f64 {
        self.free
            .iter()
            .copied()
            .fold(at.max(self.log_free), f64::max)
    }

    fn resume(&mut self, at: f64) {
        self.free.iter_mut().for_each(|f| *f = at);
        self.log_free = at;
    }
}

/// Issues the next open-loop request, arriving at `arrival`, onto the
/// timeline; returns when its own work ended.
fn arrive(
    rig: &mut Rig,
    load: &mut Load,
    tl: &mut Timeline,
    arrival: f64,
    probe: &mut Probe,
) -> Result<f64, String> {
    let (ticket, req) = load.open(rig.params.shards);
    probe.begin_request();
    let h0 = probe.now();
    let svc = rig.exec(req, ticket, probe)?;
    let end = tl.apply(arrival, arrival, ticket, svc);
    probe.end_request(Nanos::new(arrival as u64), Nanos::new(end as u64), h0);
    Ok(end)
}

/// Open-loop latency: Poisson arrivals at the frozen rate, each routed
/// to a uniformly chosen shard, timed from arrival to acknowledgement.
/// `outage_resume` loses power at evenly spaced instants; requests that
/// arrive meanwhile queue behind the save and recovery, and transfers
/// whose decisions the failure presumed aborted are retried. Returns the
/// latencies and the worst downtime: from a failure until the first
/// request after it has been served.
fn open_loop(rig: &mut Rig, load: &mut Load, probe: &mut Probe) -> Result<(Vec<f64>, f64), String> {
    let params = rig.params;
    let n = params.latency_ops;
    let mut tl = Timeline::new(params.shards, n as usize);
    let horizon = n as f64 / params.rate_per_s * 1e9;
    let outages: Vec<f64> = (1..=params.outages)
        .map(|k| (horizon * k as f64 / (params.outages + 1) as f64).floor())
        .collect();
    let mut fired = 0;
    let mut worst = 0.0f64;
    let mut down_at = None;
    let mut arrival = 0.0f64;
    for _ in 0..n {
        arrival += -(1.0 - load.arrivals.gen::<f64>()).ln() / params.rate_per_s * 1e9;
        while fired < outages.len() && arrival >= outages[fired] {
            let down = tl.quiesce(outages[fired]);
            let (outage, lost) = rig.outage(fired % 2 == 1, probe)?;
            worst = worst.max(ns(outage));
            let resume = down + ns(outage);
            tl.resume(resume);
            for m in lost {
                let origin = tl.waiting.get(&m.ticket).map_or(resume, |&(o, _)| o);
                let svc = rig.exec(Req::Transfer(m.transfer), m.ticket, probe)?;
                tl.apply(resume, origin, m.ticket, svc);
            }
            down_at = Some(down);
            fired += 1;
        }
        let end = arrive(rig, load, &mut tl, arrival, probe)?;
        if let Some(down) = down_at.take() {
            worst = worst.max(end - down);
        }
    }
    if let Some(g) = rig.drain(probe)? {
        tl.group(arrival, g);
    }
    Ok((tl.latencies, worst))
}

/// Host throughput: closed-loop requests per second of the thread's CPU
/// time, in [`WINDOWS`] equal windows, with `between(w)` run before
/// window `w`. Every window starts from its own copy of the same fleet
/// and load, so each replays the same requests and state the program
/// keeps growing cannot make later windows slower. With `alternate`, odd
/// windows run traced, giving the tracing overhead.
///
/// The caller reports the best window: on a shared host, episodes of up
/// to several seconds run the same work at down to half speed (CPU time,
/// not just wall time, grows, while a cache-resident loop keeps its
/// pace), and no window runs faster than the unimpeded host, so the best
/// of many short windows reads that speed whenever one escapes.
fn host_windows(
    rig: &Rig,
    start: &Load,
    seconds: f64,
    alternate: bool,
    mut between: impl FnMut(usize) -> Result<(), String>,
) -> Result<Windows, String> {
    let window = Duration::from_secs_f64(seconds / WINDOWS as f64);
    let mut out = Windows::default();
    for w in 0..WINDOWS {
        between(w)?;
        let (mut rig, mut load) = (rig.clone(), start.clone());
        let trace = alternate && w % 2 == 1;
        let mut probe = Probe::new(trace);
        if trace {
            out.traced
                .push(obs::capture(|| serve_for(&mut rig, &mut load, window, &mut probe)).0?);
        } else {
            out.plain
                .push(serve_for(&mut rig, &mut load, window, &mut probe)?);
        }
        out.requests += load.tickets - start.tickets;
        out.failed += rig.failed;
        out.violations.extend(rig.violations);
    }
    Ok(out)
}

/// What the host windows measured; `requests`, `failed` and
/// `violations` add to the seeded phases' own.
#[derive(Default)]
struct Windows {
    plain: Vec<f64>,
    traced: Vec<f64>,
    requests: u64,
    failed: u64,
    violations: Vec<String>,
}

fn serve_for(
    rig: &mut Rig,
    load: &mut Load,
    window: Duration,
    probe: &mut Probe,
) -> Result<f64, String> {
    let start = host::thread_cpu();
    let mut ops = 0u64;
    loop {
        for _ in 0..64 {
            let (ticket, req) = load.closed();
            probe.begin_request();
            let h0 = probe.now();
            rig.exec(req, ticket, probe)?;
            probe.end_request(Nanos::ZERO, Nanos::ZERO, h0);
        }
        ops += 64;
        let elapsed = host::thread_cpu() - start;
        if elapsed >= window {
            return Ok(ops as f64 / elapsed.as_secs_f64());
        }
    }
}

/// The largest of `rates`.
fn best(rates: &[f64]) -> f64 {
    rates.iter().copied().fold(0.0, f64::max)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn per_layer_metrics(
    probe: &Probe,
    snap: &MetricsSnapshot,
    m: &Measured,
    trace_overhead: f64,
) -> Vec<Metric> {
    let t = &m.tally;
    let c = &m.cache;
    let ops = t.requests.max(1) as f64;
    let updates = t.updates.max(1) as f64;
    let saves = t.saves.max(1) as f64;
    let shard_saves = t.shard_saves.max(1) as f64;
    let ctr = |id: Ctr| snap.counter(id) as f64;
    let hist = |id: Hist, p: f64| snap.hist(id).percentile(p).as_nanos() as f64;
    let sim = |l: Layer| probe.agg(l).sim_mean();
    let host = |l: Layer| probe.agg(l).host_mean();
    let kv_host = {
        let (g, s) = (probe.agg(Layer::KvGet), probe.agg(Layer::KvSet));
        ratio((g.host_ns + s.host_ns) as f64, (g.calls + s.calls) as f64)
    };
    let (skipped, issued) = (ctr(Ctr::FlushSkipped), ctr(Ctr::FlushIssued));
    vec![
        metric("kv_execute.get.sim_ns", "ns", "sim", sim(Layer::KvGet)),
        metric("kv_execute.set.sim_ns", "ns", "sim", sim(Layer::KvSet)),
        metric("kv_execute.host_ns", "ns", "host", kv_host),
        metric("hash_op.sim_ns", "ns", "sim", sim(Layer::HashOp)),
        metric("hash_op.host_ns", "ns", "host", host(Layer::HashOp)),
        metric(
            "pheap.seal_epoch.sim_ns",
            "ns",
            "sim",
            sim(Layer::SealEpoch),
        ),
        metric(
            "pheap.seal_epoch.host_ns",
            "ns",
            "host",
            host(Layer::SealEpoch),
        ),
        metric(
            "pheap.epoch_seal.p50_ns",
            "ns",
            "sim",
            hist(Hist::EpochSeal, 50.0),
        ),
        metric(
            "pheap.seal_stall.p99_ns",
            "ns",
            "sim",
            hist(Hist::SealStall, 99.0),
        ),
        metric("pheap.commits", "count", "sim", ctr(Ctr::TxCommits)),
        metric(
            "pheap.epoch_txs_per_seal",
            "txs",
            "sim",
            ratio(ctr(Ctr::EpochTxs), ctr(Ctr::EpochSeals)),
        ),
        metric("pheap.flush_issued", "count", "sim", issued),
        metric("pheap.flush_skipped", "count", "sim", skipped),
        metric(
            "pheap.flit_elision",
            "ratio",
            "sim",
            ratio(skipped, skipped + issued),
        ),
        metric(
            "pheap.priority_lines",
            "count",
            "sim",
            ctr(Ctr::PriorityLinesFlushed),
        ),
        metric(
            "cache.miss_rate",
            "ratio",
            "sim",
            ratio(c.misses as f64, c.accesses as f64),
        ),
        metric(
            "cache.accesses_per_op",
            "count",
            "sim",
            c.accesses as f64 / ops,
        ),
        metric(
            "cache.writebacks_per_op",
            "count",
            "sim",
            c.writebacks as f64 / ops,
        ),
        metric(
            "cache.flushes_per_update",
            "count",
            "sim",
            c.flushes as f64 / updates,
        ),
        metric(
            "cache.fences_per_update",
            "count",
            "sim",
            c.fences as f64 / updates,
        ),
        metric(
            "cache.ntstores_per_update",
            "count",
            "sim",
            c.ntstores as f64 / updates,
        ),
        metric(
            "cache.wbinvd_lines",
            "count",
            "sim",
            ctr(Ctr::WbinvdLinesWritten),
        ),
        metric("core.txn.prepare.sim_ns", "ns", "sim", sim(Layer::Prepare)),
        metric(
            "core.txn.prepare.host_ns",
            "ns",
            "host",
            host(Layer::Prepare),
        ),
        metric(
            "core.txn.seal_decisions.sim_ns",
            "ns",
            "sim",
            sim(Layer::SealDecisions),
        ),
        metric(
            "core.txn.seal_decisions.host_ns",
            "ns",
            "host",
            host(Layer::SealDecisions),
        ),
        metric(
            "core.txn.complete_sealed.sim_ns",
            "ns",
            "sim",
            sim(Layer::CompleteSealed),
        ),
        metric(
            "core.txn.complete_sealed.host_ns",
            "ns",
            "host",
            host(Layer::CompleteSealed),
        ),
        metric(
            "core.txn.group_fill",
            "txs",
            "sim",
            ratio(ctr(Ctr::TxnDecisions), ctr(Ctr::TxnDecisionGroups)),
        ),
        metric(
            "core.txn.conflict_drains",
            "count",
            "sim",
            t.conflict_drains as f64,
        ),
        metric(
            "core.txn.decision_stall.p99_ns",
            "ns",
            "sim",
            hist(Hist::TxnDecisionStall, 99.0),
        ),
        metric("core.txn.refusals", "count", "sim", t.refusals as f64),
        metric(
            "core.domain.save.sim_ns",
            "ns",
            "sim",
            sim(Layer::DomainSave),
        ),
        metric(
            "core.domain.save.host_ns",
            "ns",
            "host",
            host(Layer::DomainSave),
        ),
        metric(
            "core.domain.window_used_frac",
            "ratio",
            "sim",
            t.window_used_frac / saves,
        ),
        metric(
            "core.domain.stage_a.sim_ns",
            "ns",
            "sim",
            t.stage_a_ns as f64 / shard_saves,
        ),
        metric(
            "core.domain.stage_b.sim_ns",
            "ns",
            "sim",
            t.stage_b_ns as f64 / shard_saves,
        ),
        metric("core.domain.complete", "count", "sim", t.complete as f64),
        metric("core.domain.partial", "count", "sim", t.partial as f64),
        metric(
            "core.domain.sacrificed",
            "count",
            "sim",
            t.sacrificed as f64,
        ),
        metric(
            "power.window_deficit_ns",
            "ns",
            "sim",
            t.deficit_ns as f64 / saves,
        ),
        metric(
            "nvram.flash_save.sim_ns",
            "ns",
            "sim",
            t.flash_save_ns as f64 / saves,
        ),
        metric("nvram.save_retries", "count", "sim", t.retries as f64),
        metric(
            "core.recovery.resolve.sim_ns",
            "ns",
            "sim",
            sim(Layer::Recovery),
        ),
        metric(
            "core.recovery.resolve.host_ns",
            "ns",
            "host",
            host(Layer::Recovery),
        ),
        metric(
            "core.recovery.indoubt_resolved",
            "count",
            "sim",
            t.indoubt_resolved as f64,
        ),
        metric(
            "core.recovery.presumed_aborts",
            "count",
            "sim",
            t.presumed_aborts as f64,
        ),
        metric("bench.trace_overhead", "ratio", "host", trace_overhead),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::SPAN_REQUESTS;

    /// Host windows only need to exist, not to measure anything.
    const SECONDS: f64 = 0.01;

    fn smoke(workload: Workload, seed: u64, traced: bool) -> Outcome {
        let outcome = run(workload, seed, SECONDS, traced, true)
            .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", workload.name()));
        assert!(
            outcome.violations.is_empty(),
            "{} seed {seed}: {:?}",
            workload.name(),
            outcome.violations
        );
        assert_eq!(outcome.failed, 0, "{}", workload.name());
        outcome
    }

    fn sim_bits(o: &Outcome) -> Vec<(&'static str, u64)> {
        o.end_to_end
            .iter()
            .filter(|m| m.clock == "sim")
            .map(|m| (m.name, m.value.to_bits()))
            .collect()
    }

    /// Runs, audits, repeats bitwise on the same seed, moves on another
    /// one, and traces without moving a simulated number.
    fn check(workload: Workload) {
        let name = workload.name();
        let first = smoke(workload, 42, false);
        for m in &first.end_to_end {
            assert!(
                m.value > 0.0 && m.value.is_finite(),
                "{name}: {} = {}",
                m.name,
                m.value
            );
        }
        assert!(
            first.per_layer.is_empty(),
            "{name}: untraced runs report end-to-end only"
        );
        assert_eq!(
            sim_bits(&first),
            sim_bits(&smoke(workload, 42, false)),
            "{name}: same seed"
        );
        assert_ne!(
            sim_bits(&first),
            sim_bits(&smoke(workload, 7, false)),
            "{name}: other seed"
        );

        let traced = smoke(workload, 42, true);
        assert_eq!(
            sim_bits(&traced),
            sim_bits(&first),
            "{name}: tracing moved a sim metric"
        );
        assert!(!traced.per_layer.is_empty());
        let spans = traced.probe.spans();
        let requests = spans.iter().filter(|s| s.layer == Layer::Request).count() as u64;
        assert!(
            requests > 0 && requests <= SPAN_REQUESTS,
            "{name}: {requests} request spans"
        );
        for s in spans.iter().filter(|s| s.parent.is_some()) {
            let parent = &spans[s.parent.unwrap() as usize];
            assert_eq!(parent.layer, Layer::Request, "{name}: span {} parent", s.id);
            assert_eq!(
                parent.request, s.request,
                "{name}: span {} request id",
                s.id
            );
        }
        assert!(traced.probe.spans_jsonl().lines().count() == spans.len());
    }

    #[test]
    fn ycsb_a_foc_runs_audits_and_repeats() {
        check(Workload::YcsbAFoc);
    }

    #[test]
    fn hash_big_fof_runs_audits_and_repeats() {
        check(Workload::HashBigFof);
    }

    #[test]
    fn xshard_group_runs_audits_and_repeats() {
        check(Workload::XshardGroup);
    }

    #[test]
    fn outage_resume_runs_audits_and_repeats() {
        check(Workload::OutageResume);
    }

    #[test]
    fn boundaries_account_for_every_simulated_nanosecond() {
        for workload in Workload::ALL {
            let params = Params::of(workload, true);
            let mut root = DetRng::seed_from_u64(5);
            let mut rig = Rig::setup(workload, params, root.gen()).expect("smoke set-up");
            let mut load = Load::new(workload, &params, &mut root);
            let measured = measure(&mut rig, &mut load, &mut Probe::new(false)).expect("smoke run");
            for (s, &(booked, advanced)) in measured.conservation.iter().enumerate() {
                assert!(
                    advanced > Nanos::ZERO,
                    "{} shard {s} did no work",
                    workload.name()
                );
                assert_eq!(booked, advanced, "{} shard {s}", workload.name());
            }
        }
    }
}
