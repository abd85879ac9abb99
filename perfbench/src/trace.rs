//! The traced pass: re-executes served specs in process, one layer's
//! public functions at a time, recording a span around each call, and
//! checks the paper's properties on every schedule it builds.
//!
//! Spans live in memory and are written out when the run ends. Each
//! `campaign.cell` span times one `evaluate_any_cell_into` call as the
//! server makes it; its child spans (`platform.instance`, `core.*`,
//! `simulator.crash`) time the same cell's instance generation,
//! schedules and crash replays re-executed directly right after it, so
//! a cell's self time is its duration minus its children's. Calls the
//! served request does not make — property-check replays, an ε = 0
//! probe schedule for specs without baselines, and WAL calls for
//! in-memory specs — hang under a `probe` span and stay out of the
//! request's accounting while still feeding the per-call layer means.

use crate::Tally;
use experiments::campaign::{
    evaluate_any_cell_into, finalize_group, instance_for_cell, CampaignResult, CampaignSpec,
    CellContext, CellPlan,
};
use experiments::output::campaign_to_json;
use experiments::serve::spec_key;
use experiments::store::{Fingerprint, Store};
use ftsched_core::bounds::{critical_path_bound, max_messages};
use ftsched_core::pipeline::{CommAxis, PlacementAxis};
use ftsched_core::validate::validate;
use ftsched_core::{schedule_into, Algorithm, CommSelection, Schedule, ScheduleWorkspace};
use platform::{FailureScenario, Instance};
use rand::rngs::StdRng;
use rand::SeedableRng;
use simulator::crash::{simulate_outcome_into, CrashWorkspace, FallbackPolicy};
use simulator::replication_seed;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name (`core.ftbar`, `store.append`, …).
    pub name: &'static str,
    /// Offsets from the recorder's origin.
    pub start: Duration,
    /// End offset (equal to `start` while open).
    pub end: Duration,
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// Index of the traced request this span belongs to.
    pub request: usize,
}

impl Span {
    /// Wall time of the span.
    pub fn dur(&self) -> Duration {
        self.end - self.start
    }
}

/// In-memory span store.
pub struct Recorder {
    origin: Instant,
    /// While set, [`Recorder::span`] runs its closure without recording.
    muted: bool,
    /// Every span, in opening order (a span's id is its index).
    pub spans: Vec<Span>,
}

impl Recorder {
    /// An empty recorder with room for `capacity` spans.
    pub fn with_capacity(capacity: usize) -> Recorder {
        Recorder {
            origin: Instant::now(),
            muted: false,
            spans: Vec::with_capacity(capacity),
        }
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>, request: usize) -> usize {
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end = self.origin.elapsed();
    }

    /// Runs `f` inside a span; returns the span id and `f`'s result.
    fn span<T>(
        &mut self,
        name: &'static str,
        parent: usize,
        request: usize,
        f: impl FnOnce() -> T,
    ) -> (usize, T) {
        if self.muted {
            return (usize::MAX, f());
        }
        let id = self.open(name, Some(parent), request);
        let value = std::hint::black_box(f());
        self.close(id);
        (id, value)
    }

    /// Writes the spans as JSON lines (times in microseconds).
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\
                 \"parent\":{parent},\"request\":{}}}",
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
                s.request
            )?;
        }
        out.flush()
    }
}

/// What the traced pass learned about one request.
#[derive(Debug, Default, Clone)]
pub struct RequestTrace {
    /// In-process time of the calls the served request makes: cells,
    /// groups, render, and (durable specs only) the store calls.
    pub accounted: Duration,
    /// The same cell, group and render calls without spans or
    /// re-executions around them.
    pub bare: Duration,
    /// Those calls as timed by their spans.
    pub traced: Duration,
    /// Replicas placed per schedule at the cell's ε, summed.
    pub replicas: u64,
    /// Schedules counted in `replicas`.
    pub schedules: u64,
    /// Crash-replay events, summed.
    pub events: u64,
    /// Number of crash replays in `events`.
    pub replays: u64,
}

/// Working state of one traced request. The served cell calls start
/// from an empty `CellContext`, as the server's shard worker does on
/// every request; the re-executed layer calls warm their own
/// workspaces before they are recorded.
#[derive(Default)]
pub struct Tracer {
    ctx: CellContext,
    out: Vec<(experiments::campaign::SeriesKey, f64)>,
    slots: Vec<ScheduleWorkspace>,
    probe_ws: ScheduleWorkspace,
    crash: CrashWorkspace,
    shared: FailureScenario,
    scenario: FailureScenario,
    ids: Vec<u32>,
}

/// The span name of `alg`'s schedule at the cell's ε.
fn core_span(alg: Algorithm) -> &'static str {
    match alg {
        Algorithm::Ftsa => "core.ftsa",
        Algorithm::McFtsaGreedy => "core.mc-ftsa",
        Algorithm::Ftbar => "core.ftbar",
        _ => "core.other",
    }
}

fn policy(fm: &platform::FailureModel) -> FallbackPolicy {
    if fm.is_timed() {
        FallbackPolicy::Strict
    } else {
        FallbackPolicy::Rerouted
    }
}

/// The served calls of one request with no spans around them, on a
/// fresh context: cells, groups and the render. Returns the wall time
/// and the rendered body.
fn bare_pass(spec: &CampaignSpec, plan: &CellPlan, tally: &mut Tally) -> (Duration, String) {
    let mut ctx = CellContext::new();
    let mut out = Vec::new();
    let reps = spec.repetitions;
    let t0 = Instant::now();
    let mut groups = Vec::with_capacity(spec.num_groups());
    for gi in 0..spec.num_groups() {
        let mut series: BTreeMap<_, Vec<f64>> = BTreeMap::new();
        for rep in 0..reps {
            let ok = evaluate_any_cell_into(spec, plan, gi * reps + rep, &mut ctx, &mut out);
            tally.check(ok.is_ok(), || format!("{}: bare cell failed", spec.id));
            for &(k, v) in &out {
                series.entry(k).or_default().push(v);
            }
        }
        groups.push(finalize_group(spec, plan, gi, series));
    }
    let json = campaign_to_json(&CampaignResult {
        id: spec.id.clone(),
        groups,
    });
    (t0.elapsed(), json)
}

impl Tracer {
    /// Traces one request. `groups` are the group payloads the server
    /// streamed (what its WAL holds), `body` the streamed body;
    /// `store` is where the WAL calls go and `durable` whether the
    /// served request made them.
    ///
    /// Bare passes run before and after the traced one; their mean is
    /// the untraced time the tracing overhead is measured against.
    #[allow(clippy::too_many_arguments)]
    pub fn trace(
        &mut self,
        rec: &mut Recorder,
        request: usize,
        spec: &CampaignSpec,
        groups: &[&str],
        body: &str,
        store: &Store,
        durable: bool,
        tally: &mut Tally,
    ) -> RequestTrace {
        let plan = CellPlan::new(spec);
        let reps = spec.repetitions;
        let mut t = RequestTrace::default();
        let (bare_before, _) = bare_pass(spec, &plan, tally);

        let req = rec.open("request", None, request);
        let probe = rec.open("probe", Some(req), request);
        let mut served: Vec<usize> = Vec::new();
        let mut result_groups = Vec::with_capacity(spec.num_groups());
        for gi in 0..spec.num_groups() {
            let mut series: BTreeMap<_, Vec<f64>> = BTreeMap::new();
            for rep in 0..reps {
                let index = gi * reps + rep;
                let (cell, ok) = rec.span("campaign.cell", req, request, || {
                    evaluate_any_cell_into(spec, &plan, index, &mut self.ctx, &mut self.out)
                });
                served.push(cell);
                tally.check(ok.is_ok(), || format!("{}: cell {index} failed", spec.id));
                for &(k, v) in &self.out {
                    series.entry(k).or_default().push(v);
                }
                self.reexecute(rec, request, cell, probe, spec, &plan, index, &mut t, tally);
            }
            let (g, group) = rec.span("campaign.group", req, request, || {
                finalize_group(spec, &plan, gi, series)
            });
            served.push(g);
            result_groups.push(group);
        }
        let result = CampaignResult {
            id: spec.id.clone(),
            groups: result_groups,
        };
        let (r, json) = rec.span("campaign.render", req, request, || {
            campaign_to_json(&result)
        });
        served.push(r);
        t.traced = served.iter().map(|&s| rec.spans[s].dur()).sum();

        // The durable path: what the server's store calls cost for
        // these groups (a separate data directory and key space).
        let wal_parent = if durable { req } else { probe };
        let key = spec_key(spec);
        let canonical = spec.to_json().expect("valid specs serialize");
        let (b, writer) = rec.span("store.begin", wal_parent, request, || {
            store.begin_run(key, &spec.id, &canonical, groups.len())
        });
        let mut ids = vec![b];
        let mut store_ok = true;
        match writer {
            Ok(mut writer) => {
                let mut fp = Fingerprint::new();
                for g in groups {
                    let (a, res) = rec.span("store.append", wal_parent, request, || {
                        writer.append(g.as_bytes())
                    });
                    ids.push(a);
                    store_ok &= res.is_ok();
                    fp.push_group(g);
                }
                let (c, res) = rec.span("store.complete", wal_parent, request, || {
                    store.complete_run(key, fp.finish())
                });
                ids.push(c);
                store_ok &= res.is_ok();
            }
            Err(_) => store_ok = false,
        }
        tally.check(store_ok, || {
            format!("{}: traced store calls failed", spec.id)
        });
        if durable {
            served.extend(ids);
        }
        rec.close(probe);
        rec.close(req);
        t.accounted = served.iter().map(|&s| rec.spans[s].dur()).sum();

        let (bare_after, bare_json) = bare_pass(spec, &plan, tally);
        t.bare = (bare_before + bare_after) / 2;
        tally.check(json == body && bare_json == body, || {
            format!(
                "{}: in-process render differs from the streamed body",
                spec.id
            )
        });
        t
    }

    /// Re-executes cell `index` layer by layer under `cell`, in the
    /// cell's own order (instance, every schedule, then the crash
    /// replays), and checks the paper's properties on every schedule
    /// afterwards, so the checks do not disturb the timed calls. The
    /// calls run twice and only the second run is recorded: layer times
    /// are on warm workspaces, and what a cold context costs the cell
    /// shows in the cell's self time.
    #[allow(clippy::too_many_arguments)]
    fn reexecute(
        &mut self,
        rec: &mut Recorder,
        request: usize,
        cell: usize,
        probe: usize,
        spec: &CampaignSpec,
        plan: &CellPlan,
        index: usize,
        t: &mut RequestTrace,
        tally: &mut Tally,
    ) {
        rec.muted = true;
        let mut warm = RequestTrace::default();
        self.layer_calls(rec, request, cell, spec, plan, index, &mut warm, tally);
        rec.muted = false;
        let (inst, scheduled, seed) =
            self.layer_calls(rec, request, cell, spec, plan, index, t, tally);

        // Outside the cell's calls: an ε = 0 probe for specs without
        // baselines, then the property checks of every schedule.
        let mut check_rng = StdRng::seed_from_u64(replication_seed(seed, 0xC3EC));
        let cp = critical_path_bound(&inst);
        if !plan.slots.iter().any(|s| s.baseline) {
            let alg = plan.slots[0].alg;
            let mut tie = StdRng::seed_from_u64(replication_seed(seed, 0x7E0));
            let ws = &mut self.probe_ws;
            let (_, res) = rec.span("core.fault_free", probe, request, || {
                schedule_into(&inst, 0, alg, &mut tie, ws).map(|_| ())
            });
            tally.check(res.is_ok(), || format!("{}: ε = 0 probe failed", spec.id));
            if res.is_ok() {
                check_schedule(
                    rec,
                    request,
                    probe,
                    &inst,
                    self.probe_ws.schedule(),
                    alg,
                    cp,
                    &mut check_rng,
                    &mut self.crash,
                    &mut self.scenario,
                    t,
                    tally,
                    &spec.id,
                );
            }
        }
        for &si in &scheduled {
            check_schedule(
                rec,
                request,
                probe,
                &inst,
                self.slots[si].schedule(),
                plan.slots[si].alg,
                cp,
                &mut check_rng,
                &mut self.crash,
                &mut self.scenario,
                t,
                tally,
                &spec.id,
            );
        }
    }

    /// The cell's layer calls (see [`Tracer::reexecute`]); returns the
    /// instance, the slots that scheduled, and the cell seed.
    #[allow(clippy::too_many_arguments)]
    fn layer_calls(
        &mut self,
        rec: &mut Recorder,
        request: usize,
        cell: usize,
        spec: &CampaignSpec,
        plan: &CellPlan,
        index: usize,
        t: &mut RequestTrace,
        tally: &mut Tally,
    ) -> (Instance, Vec<usize>, u64) {
        let coord = spec.coord(index);
        let (_, inst) = rec.span("platform.instance", cell, request, || {
            instance_for_cell(spec, &coord)
        });
        let eps = spec.epsilons[coord.eps];
        let m = inst.num_procs();
        let seed = replication_seed(spec.seed, index as u64);
        let mut tie = StdRng::seed_from_u64(seed);
        if self.slots.len() < plan.slots.len() {
            self.slots
                .resize_with(plan.slots.len(), ScheduleWorkspace::new);
        }
        let live: Vec<usize> = (0..plan.slots.len())
            .filter(|&si| !plan.capped(&plan.slots[si], coord.workload))
            .collect();
        let mut scheduled = Vec::with_capacity(live.len());
        for &si in &live {
            let slot = &plan.slots[si];
            let run_eps = if slot.baseline { 0 } else { eps };
            let name = if slot.baseline {
                "core.fault_free"
            } else {
                core_span(slot.alg)
            };
            let ws = &mut self.slots[si];
            let (_, res) = rec.span(name, cell, request, || {
                schedule_into(&inst, run_eps, slot.alg, &mut tie, ws).map(|s| s.total_replicas())
            });
            match res {
                Ok(replicas) => {
                    if !slot.baseline {
                        t.replicas += replicas as u64;
                        t.schedules += 1;
                    }
                    scheduled.push(si);
                }
                Err(e) => tally.check(false, || {
                    format!("{}: {} failed to schedule: {e}", spec.id, slot.alg.name())
                }),
            }
        }

        // Crash replays, as the cell makes them: the first model's
        // scenario is shared by every algorithm, later models replay the
        // first primary only.
        let failures = &spec.measures.failures;
        if !failures.is_empty() && scheduled.first() == Some(&0) {
            let lb0 = self.slots[0].schedule().latency_lower_bound();
            let mut crash_rng = StdRng::seed_from_u64(replication_seed(seed, 0xC4A5));
            for (fi, fm) in failures.iter().enumerate() {
                if plan.failure_skip[coord.eps][fi] {
                    continue;
                }
                let buf = if fi == 0 {
                    &mut self.shared
                } else {
                    &mut self.scenario
                };
                fm.sample_into_scaled(&mut crash_rng, m, eps, lb0, buf, &mut self.ids);
                let (sched, crash) = (self.slots[0].schedule(), &mut self.crash);
                let (_, o) = rec.span("simulator.crash", cell, request, || {
                    simulate_outcome_into(&inst, sched, buf, policy(fm), crash)
                });
                t.events += o.events as u64;
                t.replays += 1;
            }
            let policy0 = policy(&failures[0]);
            for &si in &scheduled {
                if si == 0 || plan.slots[si].baseline {
                    continue;
                }
                let (sched, shared, crash) =
                    (self.slots[si].schedule(), &self.shared, &mut self.crash);
                let (_, o) = rec.span("simulator.crash", cell, request, || {
                    simulate_outcome_into(&inst, sched, shared, policy0, crash)
                });
                t.events += o.events as u64;
                t.replays += 1;
            }
        }

        (inst, scheduled, seed)
    }
}

/// The paper's properties of one schedule: validity (Prop. 4.1, 4.3,
/// eq. 3), `critical path ≤ M* ≤ M`, the Section 4.2 message bound,
/// survival of ε uniform crashes, and `L ≤ M` for all-to-all
/// algorithms (matched re-routing may exceed `M`, as in
/// `tests/structured_workloads.rs`).
#[allow(clippy::too_many_arguments)]
fn check_schedule(
    rec: &mut Recorder,
    request: usize,
    probe: usize,
    inst: &Instance,
    sched: &Schedule,
    alg: Algorithm,
    cp: f64,
    rng: &mut StdRng,
    crash: &mut CrashWorkspace,
    scenario: &mut FailureScenario,
    t: &mut RequestTrace,
    tally: &mut Tally,
    id: &str,
) {
    let eps = sched.epsilon;
    let what = |p: &str| format!("{id}: {} at ε = {eps}: {p}", alg.name());
    let valid = validate(inst, sched);
    tally.check(valid.is_ok(), || {
        what(&format!("invalid schedule: {valid:?}"))
    });
    let (lb, ub) = (sched.latency_lower_bound(), sched.latency_upper_bound());
    let tol = 1e-9 * ub.abs().max(1.0);
    tally.check(cp <= lb + tol && lb <= ub + tol, || {
        what(&format!("bounds out of order: cp {cp} M* {lb} M {ub}"))
    });
    let (all_to_all, matched) = max_messages(inst.dag.num_edges(), eps);
    let cap = match sched.comm {
        CommSelection::AllToAll => all_to_all,
        CommSelection::Matched(_) => matched,
    };
    // Section 4.2 counts ε + 1 replicas per task; FTBAR's duplication
    // pass adds replicas (and their messages) the bound does not cover.
    if !matches!(
        alg.scheduler().placement,
        PlacementAxis::MinStart { duplicate: true }
    ) {
        let msgs = sched.message_count(&inst.dag);
        tally.check(msgs <= cap, || {
            what(&format!("{msgs} messages above {cap}"))
        });
    }
    *scenario = FailureScenario::uniform(rng, inst.num_procs(), eps);
    let (_, o) = rec.span("simulator.crash", probe, request, || {
        simulate_outcome_into(inst, sched, scenario, FallbackPolicy::Rerouted, crash)
    });
    t.events += o.events as u64;
    t.replays += 1;
    tally.check(o.completed(), || {
        what("lost a task under ε uniform crashes")
    });
    if alg.scheduler().comm == CommAxis::AllToAll {
        tally.check(o.latency <= ub + tol, || {
            what(&format!("crash latency {} above M = {ub}", o.latency))
        });
    }
}
