//! `perfbench` — end-to-end benchmark of `ftsched serve`.
//!
//! One process binds an in-process [`Server`] with one shard worker and
//! drives it in a closed loop: a fixed list of distinct campaign specs
//! is POSTed, each fresh run is followed by a batch of
//! `GET /campaigns/<key>` replays of completed runs, every body is then
//! checked against the batch executor, and (with `--trace 1`) a traced
//! pass re-executes the specs layer by layer. See README.md.
//!
//! ```text
//! perfbench --workload <paper-grid|large-dag|durable-small> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the process exits non-zero when
//! any operation or check failed.

mod alloc;
mod client;
mod stats;
mod trace;
mod workloads;

use client::Reply;
use experiments::campaign::{run_campaign_with_threads, CampaignSpec};
use experiments::output::campaign_to_json;
use experiments::serve::{spec_key, ServeConfig, Server};
use experiments::store::{key_hex, wal, Fingerprint, RunRecord, RunState, Store};
use stats::{median, peak_rss_mb, quartiles};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use workloads::Workload;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Spec index of the warm-up request (outside the fresh indices).
const WARMUP_INDEX: u64 = u64::MAX;

/// Where runs keep their data directories and span files, relative to
/// the working directory (the checkout root).
const WORK_DIR: &str = ".perfbench";

/// Attempted and failed operations of a run.
#[derive(Debug, Default)]
pub struct Tally {
    attempted: u64,
    failed: u64,
    /// Failed output checks (a wrong output, as opposed to a failed
    /// request).
    wrong: u64,
}

impl Tally {
    /// Counts one request or other operation.
    fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: operation failed: {}", what());
        }
    }

    /// Counts one output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.wrong += 1;
        }
        self.op(ok, || format!("check: {}", what()));
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let process_start = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <paper-grid|large-dag|durable-small> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    match run(&args, process_start) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// A bound server plus what its set-up produced.
struct Setup {
    addr: SocketAddr,
    specs: Vec<CampaignSpec>,
    spec_json: Vec<String>,
    data_dir: Option<PathBuf>,
    warm_key: u64,
    warm_body: String,
}

/// Binds a server and runs its warm-up: builds the run's specs, binds
/// (with a fresh data directory for durable workloads), POSTs the
/// warm-up spec and replays it.
fn set_up(args: &Args, dir: &Path, k: usize, tally: &mut Tally) -> Result<Setup, String> {
    let w = args.workload;
    let n = w.fresh_count(args.seconds);
    let specs: Vec<CampaignSpec> = (0..n as u64).map(|i| w.spec(args.seed, i)).collect();
    let spec_json = specs
        .iter()
        .map(CampaignSpec::to_json)
        .collect::<Result<Vec<_>, _>>()?;
    let data_dir = w.durable().then(|| dir.join(format!("setup-{k}")));
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            threads: 1,
            data_dir: data_dir.clone(),
            ..Default::default()
        },
    )
    .map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    // The accept loop has no shutdown; the thread ends with the process.
    std::thread::spawn(move || server.run());

    let warm = w.spec(args.seed, WARMUP_INDEX);
    let warm_key = spec_key(&warm);
    let json = warm.to_json()?;
    let reply = client::request(addr, "POST", "/campaigns", &json);
    let warm_body = match reply {
        Ok(r) if r.status == 200 => {
            tally.op(true, String::new);
            check_fresh(&r, &warm, tally);
            r.body
        }
        other => {
            tally.op(false, || format!("warm-up POST: {}", describe(&other)));
            String::new()
        }
    };
    let path = format!("/campaigns/{}", key_hex(warm_key));
    for _ in 0..w.sizing().replays {
        let r = client::request(addr, "GET", &path, "");
        check_replay(&r, &warm_body, tally);
    }
    Ok(Setup {
        addr,
        specs,
        spec_json,
        data_dir,
        warm_key,
        warm_body,
    })
}

fn describe(r: &std::io::Result<Reply>) -> String {
    match r {
        Ok(r) => format!("status {}", r.status),
        Err(e) => format!("I/O error: {e}"),
    }
}

/// Checks a fresh POST's framing: `X-Campaign-Run: new`, and chunk
/// sequence numbers gapless from 0 over prefix, groups and suffix.
fn check_fresh(r: &Reply, spec: &CampaignSpec, tally: &mut Tally) {
    tally.check(r.run.as_deref() == Some("new"), || {
        format!("{}: X-Campaign-Run {:?} on a fresh POST", spec.id, r.run)
    });
    let gapless = r.seqs.len() == spec.num_groups() + 2
        && r.seqs.iter().enumerate().all(|(i, s)| *s == Some(i as u64));
    tally.check(gapless, || format!("{}: chunk seqs {:?}", spec.id, r.seqs));
}

/// Counts one replay and checks it: `200`, `X-Campaign-Run: existing`,
/// and the fresh body byte for byte.
fn check_replay(r: &std::io::Result<Reply>, fresh: &str, tally: &mut Tally) {
    match r {
        Ok(r) if r.status == 200 => {
            tally.op(true, String::new);
            tally.check(
                r.run.as_deref() == Some("existing") && r.body == fresh,
                || format!("replay differs (X-Campaign-Run {:?})", r.run),
            );
        }
        other => tally.op(false, || format!("replay: {}", describe(other))),
    }
}

/// The group payloads of a streamed body, as the WAL holds them.
fn streamed_groups(r: &Reply) -> Vec<&str> {
    let n = r.chunk_ends.len().saturating_sub(2);
    (1..=n)
        .map(|i| {
            let c = r.chunk(i);
            if i == 1 {
                c
            } else {
                c.strip_prefix(",\n").unwrap_or(c)
            }
        })
        .collect()
}

/// Checks a durable run's on-disk state: the WAL holds exactly the
/// streamed groups and the run record ended `completed` with their
/// fingerprint.
fn check_durable(dir: &Path, key: u64, r: &Reply, spec: &CampaignSpec, tally: &mut Tally) {
    let groups = streamed_groups(r);
    let store = Store::open(dir);
    let wal_ok = store.and_then(|s| wal::read(&s.wal_path(key))).map(|c| {
        !c.truncated_tail
            && c.groups
                .iter()
                .map(String::as_str)
                .eq(groups.iter().copied())
    });
    tally.check(matches!(wal_ok, Ok(true)), || {
        format!(
            "{}: WAL differs from the streamed groups ({wal_ok:?})",
            spec.id
        )
    });
    let mut fp = Fingerprint::new();
    groups.iter().for_each(|g| fp.push_group(g));
    let record = std::fs::read_to_string(dir.join(format!("{}.run.json", key_hex(key))))
        .map_err(|e| e.to_string())
        .and_then(|s| serde_json::from_str::<RunRecord>(&s).map_err(|e| e.to_string()));
    let ok = matches!(&record, Ok(rec) if rec.state == RunState::Completed
        && rec.fingerprint.as_deref() == Some(key_hex(fp.finish()).as_str()));
    tally.check(ok, || format!("{}: run record {record:?}", spec.id));
}

/// Worker threads of the batch executor in the output checks. Its
/// results are bit-identical at any thread count; two (the reference
/// box's cores) halve the untimed check phase.
const CHECK_THREADS: usize = 2;

/// The batch executor's rendering of `spec`: a code path the server
/// does not share.
fn batch_body(spec: &CampaignSpec) -> Result<String, String> {
    run_campaign_with_threads(spec, CHECK_THREADS)
        .map(|r| campaign_to_json(&r))
        .map_err(|e| e.to_string())
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Metric name → (value, unit), in output order.
type Metrics = Vec<(&'static str, f64, &'static str)>;

fn run(args: &Args, process_start: Instant) -> Result<bool, String> {
    let w = args.workload;
    let sizing = w.sizing();
    let dir = PathBuf::from(WORK_DIR).join(format!("{}-{}", w.name(), std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut tally = Tally::default();

    // --- set-up, several times; the last server is the measured one ---
    let mut setup_s = Vec::new();
    let mut warm_bodies = Vec::new();
    let mut setup = None;
    for k in 0..sizing.setups {
        let t0 = if k == 0 {
            process_start
        } else {
            Instant::now()
        };
        let s = set_up(args, &dir, k, &mut tally)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        warm_bodies.push(s.warm_body.clone());
        setup = Some(s);
    }
    let setup = setup.expect("at least one set-up");
    let n = setup.specs.len();

    // --- timed phase: fresh POSTs, each followed by a replay batch -----
    let mut known: Vec<(u64, usize)> = vec![(setup.warm_key, usize::MAX)];
    let mut replies: Vec<Option<Reply>> = Vec::with_capacity(n);
    let (mut response, mut first_group, mut replay) = (Vec::new(), Vec::new(), Vec::new());
    let mut cells_per_s = Vec::new();
    let mut batch = Vec::with_capacity(sizing.replays);
    for (i, spec) in setup.specs.iter().enumerate() {
        let r = client::request(setup.addr, "POST", "/campaigns", &setup.spec_json[i]);
        match r {
            Ok(r) if r.status == 200 => {
                tally.op(true, String::new);
                check_fresh(&r, spec, &mut tally);
                response.push(ms(r.total));
                first_group.push(ms(r.first_group.unwrap_or(r.total)));
                cells_per_s.push(spec.num_cells() as f64 / r.total.as_secs_f64());
                replies.push(Some(r));
                known.push((spec_key(spec), i));
            }
            other => {
                tally.op(false, || format!("{}: POST {}", spec.id, describe(&other)));
                replies.push(None);
            }
        }
        batch.clear();
        let t0 = Instant::now();
        for j in 0..sizing.replays {
            let (key, idx) = known[(i * sizing.replays + j) % known.len()];
            let path = format!("/campaigns/{}", key_hex(key));
            batch.push((idx, client::request(setup.addr, "GET", &path, "")));
        }
        replay.push(ms(t0.elapsed()) / sizing.replays as f64);
        for (idx, r) in &batch {
            let fresh = match *idx {
                usize::MAX => setup.warm_body.as_str(),
                idx => replies[idx].as_ref().map_or("", |r| r.body.as_str()),
            };
            check_replay(r, fresh, &mut tally);
        }
    }
    let peak_heap = alloc::peak_heap_mb();
    let hwm = peak_rss_mb().map_err(|e| format!("peak RSS: {e}"))?;

    // --- output checks against the batch executor ----------------------
    let warm = w.spec(args.seed, WARMUP_INDEX);
    let warm_batch = batch_body(&warm);
    for body in &warm_bodies {
        tally.check(warm_batch.as_deref() == Ok(body.as_str()), || {
            "warm-up body differs from the batch executor".into()
        });
    }
    for (spec, r) in setup.specs.iter().zip(&replies) {
        let Some(r) = r else { continue };
        let expected = batch_body(spec);
        tally.check(expected.as_deref() == Ok(r.body.as_str()), || {
            format!("{}: body differs from the batch executor", spec.id)
        });
        if let Some(data_dir) = &setup.data_dir {
            check_durable(data_dir, spec_key(spec), r, spec, &mut tally);
        }
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "perfbench {} seed {}: {n} fresh POSTs, {} replays each, {} set-ups, VmHWM {hwm} MB",
        w.name(),
        args.seed,
        sizing.replays,
        sizing.setups
    );
    for (name, xs) in [
        ("response_ms", &response),
        ("first_group_ms", &first_group),
        ("replay_ms", &replay),
        ("setup_s", &setup_s),
    ] {
        if !xs.is_empty() {
            let [q1, q2, q3] = quartiles(xs);
            let _ = writeln!(
                out,
                "  {name}: n={} q1={q1:.4} median={q2:.4} q3={q3:.4}",
                xs.len()
            );
        }
    }
    let metrics: Metrics = if args.trace {
        traced_pass(
            args, &dir, &setup, &replies, &response, &replay, &mut tally, &mut out,
        )?
    } else {
        let med = |xs: &[f64]| if xs.is_empty() { f64::NAN } else { median(xs) };
        vec![
            ("setup_s", median(&setup_s), "s"),
            ("peak_heap_mb", peak_heap, "MB"),
            ("response_ms", med(&response), "ms"),
            ("first_group_ms", med(&first_group), "ms"),
            ("cells_per_s", med(&cells_per_s), "cells/s"),
        ]
    };
    let _ = std::fs::remove_dir_all(&dir);

    let mut json = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let _ = writeln!(out, "{name} {value} {unit}");
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() {
            value.to_string()
        } else {
            "null".into()
        };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    let _ = writeln!(out, "attempted {} failed {}", tally.attempted, tally.failed);
    print!("{out}");
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        tally.wrong == 0,
        tally.attempted,
        tally.failed
    );
    Ok(tally.failed == 0)
}

/// Runs the traced pass over the first fresh specs and derives the
/// per-layer metrics from its spans.
#[allow(clippy::too_many_arguments)]
fn traced_pass(
    args: &Args,
    dir: &Path,
    setup: &Setup,
    replies: &[Option<Reply>],
    response: &[f64],
    replay: &[f64],
    tally: &mut Tally,
    out: &mut String,
) -> Result<Metrics, String> {
    let w = args.workload;
    let store = Store::open(dir.join("trace-store")).map_err(|e| format!("trace store: {e}"))?;
    let mut rec = trace::Recorder::with_capacity(1 << 16);
    let mut traces = Vec::new();
    let mut self_ms = Vec::new();
    let mut ok_replies = replies
        .iter()
        .zip(&setup.specs)
        .filter_map(|(r, s)| Some((r.as_ref()?, s)));
    for (request, (r, spec)) in ok_replies.by_ref().take(w.sizing().traced).enumerate() {
        let groups = streamed_groups(r);
        // On a fresh thread per request, as the server's shard worker.
        let t = std::thread::scope(|s| {
            s.spawn(|| {
                let mut tracer = trace::Tracer::default();
                tracer.trace(
                    &mut rec,
                    request,
                    spec,
                    &groups,
                    &r.body,
                    &store,
                    w.durable(),
                    tally,
                )
            })
            .join()
            .expect("traced pass panicked")
        });
        self_ms.push(ms(r.total) - ms(t.accounted));
        let _ = writeln!(
            out,
            "  traced {}: response {:.3} ms, in-process {:.3} ms, bare {:.3} ms",
            spec.id,
            ms(r.total),
            ms(t.accounted),
            ms(t.bare)
        );
        traces.push(t);
    }
    if traces.is_empty() {
        return Err("no fresh request to trace".into());
    }
    let spans_path = Path::new(WORK_DIR).join(format!("spans-{}.jsonl", w.name()));
    rec.write_jsonl(&spans_path)
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;

    // Per span: its duration and its self time (duration minus its
    // children's, which for a cell are the re-executions beside it, so
    // it may read below zero), in ms.
    let mut own: Vec<f64> = rec.spans.iter().map(|s| ms(s.dur())).collect();
    for s in &rec.spans {
        if let Some(p) = s.parent {
            own[p] -= ms(s.dur());
        }
    }
    let mut by_name: BTreeMap<&str, (usize, f64)> = BTreeMap::new();
    for s in &rec.spans {
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += ms(s.dur());
    }
    let mean_ms = |name: &str| {
        by_name
            .get(name)
            .map_or(f64::NAN, |&(n, total)| total / n as f64)
    };
    let cells: Vec<usize> = (0..rec.spans.len())
        .filter(|&id| rec.spans[id].name == "campaign.cell")
        .collect();
    let cell_self = cells.iter().map(|&id| own[id]).sum::<f64>() / cells.len() as f64;
    let sum = |f: fn(&trace::RequestTrace) -> u64| traces.iter().map(f).sum::<u64>() as f64;
    let body_kb = replies
        .iter()
        .flatten()
        .map(|r| r.body.len() as f64 / 1024.0)
        .collect::<Vec<_>>();
    let overhead: Vec<f64> = traces.iter().map(|t| ms(t.traced) - ms(t.bare)).collect();

    // Layer shares of the traced requests' response time (reported, not
    // a metric): in-accounting spans only, the rest is serve's own.
    let resp_total: f64 = response.iter().take(traces.len()).sum();
    let mut layer = BTreeMap::<&str, f64>::new();
    for (id, s) in rec.spans.iter().enumerate() {
        let in_request = match s.parent {
            Some(p) if rec.spans[p].name == "request" => s.name != "probe",
            Some(p) => rec.spans[p].name == "campaign.cell",
            None => false,
        };
        if in_request {
            let ms = if s.name == "campaign.cell" {
                own[id]
            } else {
                ms(s.dur())
            };
            *layer
                .entry(s.name.split('.').next().unwrap_or(""))
                .or_default() += ms;
        }
    }
    let accounted: f64 = layer.values().sum();
    layer.insert("serve", resp_total - accounted);
    let _ = writeln!(
        out,
        "  traced {} requests, {} spans -> {}",
        traces.len(),
        rec.spans.len(),
        spans_path.display()
    );
    for (name, v) in &layer {
        let _ = writeln!(out, "  share {name}: {:.4} of response_ms", v / resp_total);
    }
    let _ = writeln!(
        out,
        "  tracing overhead: {:.3} ms per request over {:.3} ms bare",
        median(&overhead),
        median(&traces.iter().map(|t| ms(t.bare)).collect::<Vec<_>>())
    );

    Ok(vec![
        ("platform.instance_ms", mean_ms("platform.instance"), "ms"),
        ("core.ftsa_ms", mean_ms("core.ftsa"), "ms"),
        ("core.mc-ftsa_ms", mean_ms("core.mc-ftsa"), "ms"),
        ("core.ftbar_ms", mean_ms("core.ftbar"), "ms"),
        ("core.fault_free_ms", mean_ms("core.fault_free"), "ms"),
        (
            "core.replicas",
            sum(|t| t.replicas) / sum(|t| t.schedules),
            "count",
        ),
        ("simulator.crash_ms", mean_ms("simulator.crash"), "ms"),
        (
            "simulator.events",
            sum(|t| t.events) / sum(|t| t.replays),
            "count",
        ),
        ("campaign.cell_ms", mean_ms("campaign.cell"), "ms"),
        ("campaign.cell_self_ms", cell_self, "ms"),
        ("campaign.group_ms", mean_ms("campaign.group"), "ms"),
        ("campaign.render_ms", mean_ms("campaign.render"), "ms"),
        ("store.begin_ms", mean_ms("store.begin"), "ms"),
        ("store.append_ms", mean_ms("store.append"), "ms"),
        ("store.complete_ms", mean_ms("store.complete"), "ms"),
        ("serve.self_ms", median(&self_ms), "ms"),
        ("serve.response_kb", median(&body_kb), "KB"),
        ("serve.replay_ms", median(replay), "ms"),
        ("trace.overhead_ms", median(&overhead), "ms"),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_run_flags() {
        let a = args(&[
            "--workload",
            "large-dag",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Workload::LargeDag);
        assert_eq!((a.seed, a.seconds, a.trace), (3, 10, true));
        assert!(args(&["--workload", "nope", "--seed", "1", "--seconds", "1"]).is_err());
        assert!(args(&["--workload", "large-dag", "--seconds", "1"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&[
            "--workload",
            "large-dag",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
    }
}
