//! Per-layer accounting around every call the benchmark makes into a
//! layer, and the raw spans of the traced run.
//!
//! Simulated time is aggregated on every run, traced or not, so both
//! modes execute the same code between the layer calls. Host time (an
//! `Instant` pair per call) and spans are taken only when tracing: that
//! difference is what `bench.trace_overhead` reports.

use std::fmt::Write as _;
use std::time::Instant;

use wsp_units::Nanos;

/// Requests whose spans the traced run keeps raw; every later call still
/// feeds the per-layer aggregates.
pub const SPAN_REQUESTS: u64 = 10_000;

/// A boundary the benchmark times: one client-visible request, or one
/// call into a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One client request, arrival (or issue) to acknowledgement.
    Request,
    /// `KvServer::execute` of a get.
    KvGet,
    /// `KvServer::execute` of a set.
    KvSet,
    /// One `PmHashTable` get, insert or remove.
    HashOp,
    /// An explicit `PersistentHeap::seal_epoch` (phase boundaries and
    /// the pre-crash durability barrier).
    SealEpoch,
    /// `CoordinatorPool::prepare`.
    Prepare,
    /// `CoordinatorPool::seal_decisions`.
    SealDecisions,
    /// `CoordinatorPool::complete_sealed`.
    CompleteSealed,
    /// `domain_save` over the whole fleet.
    DomainSave,
    /// Recovery after a power failure: `resolve_cross_shard` or
    /// `PersistentHeap::recover`, plus re-opening the served structure.
    Recovery,
}

impl Layer {
    const COUNT: usize = 10;

    /// The span and metric name of the boundary.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Request => "request",
            Layer::KvGet => "kv_execute.get",
            Layer::KvSet => "kv_execute.set",
            Layer::HashOp => "hash_op",
            Layer::SealEpoch => "pheap.seal_epoch",
            Layer::Prepare => "core.txn.prepare",
            Layer::SealDecisions => "core.txn.seal_decisions",
            Layer::CompleteSealed => "core.txn.complete_sealed",
            Layer::DomainSave => "core.domain.save",
            Layer::Recovery => "core.recovery.resolve",
        }
    }
}

/// Totals for one boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Agg {
    pub calls: u64,
    /// Simulated nanoseconds, summed over calls.
    pub sim_ns: u64,
    /// Host nanoseconds, summed over traced calls.
    pub host_ns: u64,
}

impl Agg {
    /// Mean simulated nanoseconds per call (0 with no calls).
    pub fn sim_mean(&self) -> f64 {
        self.sim_ns as f64 / self.calls.max(1) as f64
    }

    /// Mean host nanoseconds per call (0 with no calls).
    pub fn host_mean(&self) -> f64 {
        self.host_ns as f64 / self.calls.max(1) as f64
    }
}

/// One raw span. Simulated times are read from the clock the layer
/// charges (a shard heap's `elapsed()`, the pool's clocks, the save's own
/// clock, or the workload timeline for requests); host times count from
/// the start of the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub request: Option<u64>,
    pub layer: Layer,
    pub shard: Option<usize>,
    pub sim_start_ns: u64,
    pub sim_end_ns: u64,
    pub host_start_ns: u64,
    pub host_end_ns: u64,
}

/// Per-layer aggregates plus, when tracing, host times and spans.
#[derive(Debug)]
pub struct Probe {
    traced: bool,
    origin: Instant,
    aggs: [Agg; Layer::COUNT],
    spans: Vec<Span>,
    next_request: u64,
    /// The open request and the id of its span, if it keeps spans.
    open: Option<(u64, Option<u64>)>,
}

impl Probe {
    pub fn new(traced: bool) -> Self {
        Probe {
            traced,
            origin: Instant::now(),
            aggs: [Agg::default(); Layer::COUNT],
            spans: Vec::new(),
            next_request: 0,
            open: None,
        }
    }

    /// A host timestamp when tracing, `None` otherwise.
    pub fn now(&self) -> Option<Instant> {
        self.traced.then(Instant::now)
    }

    fn host_ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens the next client request; layer calls until
    /// [`Probe::end_request`] become its children.
    pub fn begin_request(&mut self) {
        let request = self.next_request;
        self.next_request += 1;
        let span = (self.traced && request < SPAN_REQUESTS).then(|| {
            let id = self.spans.len() as u64;
            self.spans.push(Span {
                id,
                parent: None,
                request: Some(request),
                layer: Layer::Request,
                shard: None,
                sim_start_ns: 0,
                sim_end_ns: 0,
                host_start_ns: 0,
                host_end_ns: 0,
            });
            id
        });
        self.open = Some((request, span));
    }

    /// Closes the open request with its simulated extent on the
    /// workload timeline.
    pub fn end_request(&mut self, sim_start: Nanos, sim_end: Nanos, host_start: Option<Instant>) {
        if let Some((_, Some(id))) = self.open {
            let host_end = self.host_ns(Instant::now());
            let host_start = host_start.map_or(host_end, |t| self.host_ns(t));
            let span = &mut self.spans[id as usize];
            span.sim_start_ns = sim_start.as_nanos();
            span.sim_end_ns = sim_end.as_nanos();
            span.host_start_ns = host_start;
            span.host_end_ns = host_end;
        }
        self.open = None;
    }

    /// Books one layer call: `sim_start..sim_end` on the layer's clock,
    /// and host time since `host_start` when tracing.
    pub fn record(
        &mut self,
        layer: Layer,
        shard: Option<usize>,
        sim_start: Nanos,
        sim_end: Nanos,
        host_start: Option<Instant>,
    ) {
        let host_end = host_start.map(|_| Instant::now());
        let agg = &mut self.aggs[layer as usize];
        agg.calls += 1;
        agg.sim_ns += (sim_end - sim_start).as_nanos();
        if let (Some(start), Some(end)) = (host_start, host_end) {
            agg.host_ns += end.saturating_duration_since(start).as_nanos() as u64;
        }
        if !self.traced {
            return;
        }
        let (request, parent) = match self.open {
            Some((_, None)) => return,
            Some((request, Some(id))) => (Some(request), Some(id)),
            None => (None, None),
        };
        let (Some(start), Some(end)) = (host_start, host_end) else {
            return;
        };
        let span = Span {
            id: self.spans.len() as u64,
            parent,
            request,
            layer,
            shard,
            sim_start_ns: sim_start.as_nanos(),
            sim_end_ns: sim_end.as_nanos(),
            host_start_ns: self.host_ns(start),
            host_end_ns: self.host_ns(end),
        };
        self.spans.push(span);
    }

    pub fn agg(&self, layer: Layer) -> Agg {
        self.aggs[layer as usize]
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines, one object per span.
    pub fn spans_jsonl(&self) -> String {
        let mut out = String::new();
        let opt = |v: Option<u64>| v.map_or("null".to_owned(), |v| v.to_string());
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"request\": {}, \"layer\": \"{}\", \"shard\": {}, \
                 \"sim_start_ns\": {}, \"sim_end_ns\": {}, \"host_start_ns\": {}, \"host_end_ns\": {}}}",
                s.id,
                opt(s.parent),
                opt(s.request),
                s.layer.name(),
                opt(s.shard.map(|v| v as u64)),
                s.sim_start_ns,
                s.sim_end_ns,
                s.host_start_ns,
                s.host_end_ns,
            );
        }
        out
    }
}
