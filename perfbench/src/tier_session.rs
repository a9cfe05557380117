//! One session against a live serving tier: open-loop `/estimate` traffic,
//! a `/generate` job with its CSV export and a `/train` job, and the probes
//! that split client latency into layers.

use crate::http::{self, Conn};
use crate::load::{open_loop, Outcome};
use crate::stats::{median, quantile};
use crate::tier::Proc;
use crate::Ctx;
use serde_json::{json, Value};
use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Load connections (and threads): two, or fewer on a smaller host.
pub fn load_conns() -> usize {
    std::thread::available_parallelism()
        .map_or(2, |n| n.get())
        .min(2)
}

/// A running tier: `front` is where clients send requests (the router, or
/// the server itself), `worker` the `sam-cli serve` process behind it.
pub struct Tier {
    /// Client-facing address.
    pub front: String,
    /// Address of the serving process itself.
    pub worker: String,
    /// Whether a router sits in front.
    pub routed: bool,
    proc: Proc,
}

impl Tier {
    /// A fresh `sam-cli serve` with `model` (and its reference data) loaded
    /// and a journal in `dir`.
    pub fn serve(ctx: &Ctx, dir: &Path, spec: &str) -> Result<Tier, String> {
        let args: Vec<String> = [
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--models",
            spec,
            "--backend",
            "f32",
            "--journal-dir",
        ]
        .iter()
        .map(|s| s.to_string())
        .chain([dir.join("journal").display().to_string()])
        .collect();
        let proc = Proc::spawn(&ctx.sam_cli, &args, dir)?;
        Ok(Tier {
            front: proc.addr.clone(),
            worker: proc.addr.clone(),
            routed: false,
            proc,
        })
    }

    /// A fresh `sam-cli router` managing one `sam-cli serve` worker.
    pub fn routed(ctx: &Ctx, dir: &Path, spec: &str) -> Result<Tier, String> {
        let args: Vec<String> = [
            "router",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "1",
            "--models",
            spec,
            "--worker-flags",
            "--backend f32",
            "--store-root",
        ]
        .iter()
        .map(|s| s.to_string())
        .chain([dir.join("shards").display().to_string()])
        .collect();
        let mut proc = Proc::spawn(&ctx.sam_cli, &args, dir)?;
        let deadline = Instant::now() + Duration::from_secs(60);
        let (worker, pid) = loop {
            let topo = http::get_json(&proc.addr, "/admin/topology");
            let w = topo
                .get("workers")
                .and_then(Value::as_array)
                .and_then(|ws| ws.first())
                .cloned()
                .unwrap_or(Value::Null);
            let healthy = w.get("health").and_then(Value::as_str) == Some("healthy");
            match (
                w.get("addr").and_then(Value::as_str),
                w.get("pid").and_then(Value::as_u64),
            ) {
                (Some(addr), Some(pid)) if healthy => break (addr.to_string(), pid as u32),
                _ if Instant::now() > deadline => {
                    return Err("router worker never became healthy".into())
                }
                _ => std::thread::sleep(Duration::from_millis(10)),
            }
        };
        proc.members.push(pid);
        Ok(Tier {
            front: proc.addr.clone(),
            worker,
            routed: true,
            proc,
        })
    }

    /// Block until `body` is answered 2xx through the front.
    pub fn wait_ready(&self, body: &str) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            if let Ok(r) = http::call(&self.front, "POST", "/estimate", body.as_bytes()) {
                if r.ok() {
                    return Ok(());
                }
            }
            if Instant::now() > deadline {
                return Err(format!("tier at {} never answered /estimate", self.front));
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Peak resident set of every process in the tier, MB.
    pub fn peak_rss_mb(&self) -> f64 {
        self.proc.peak_rss_mb()
    }
}

/// A `/estimate` request body.
pub fn estimate_body(model: &str, sql: &str, samples: usize, seed: u64) -> String {
    json!({"model": model, "sql": sql, "samples": samples as u64, "seed": seed}).to_string()
}

/// Timings and outcome of the `/generate` + export and `/train` jobs.
#[derive(Default)]
pub struct Jobs {
    /// POST /generate to the job reported done, s.
    pub generate_job_s: f64,
    /// Job done to last exported byte, s.
    pub export_s: f64,
    /// POST /generate to last exported byte, s.
    pub generate_total_s: f64,
    /// CSV data rows received over all relations.
    pub exported_rows: u64,
    /// Rows the job summary promised.
    pub summary_rows: u64,
    /// POST /train to the end of the training stage, s.
    pub train_epochs_s: f64,
    /// End of training to the terminal state, s.
    pub train_eval_s: f64,
    /// POST /train to the terminal state, s.
    pub train_total_s: f64,
    /// Terminal training state (`promoted`, `rejected`, ...).
    pub train_state: String,
    /// The training job's result document.
    pub train_result: Option<Value>,
    /// Training job id.
    pub train_id: u64,
    /// Requests made and failed while driving the jobs.
    pub attempted: u64,
    /// Failed requests among them.
    pub failed: u64,
}

/// Run one `/generate` job and download every relation it produced, then
/// one `/train` job, each polled to its terminal state. The two run one
/// after the other, so each contends only with the estimate traffic.
pub fn run_jobs(front: &str, generate_body: &str, train_path: &str, train_body: &str) -> Jobs {
    let mut jobs = Jobs::default();
    let mut conn = Conn::new(front, Duration::from_secs(120));
    let start = Instant::now();
    if let Some(id) = submit(&mut conn, "/generate", generate_body, &mut jobs) {
        let (status, _) = wait(&mut conn, id, &mut jobs, |_| ());
        if status.get("state").and_then(Value::as_str) == Some("done") {
            jobs.generate_job_s = start.elapsed().as_secs_f64();
            let done = Instant::now();
            export_all(&mut conn, id, &status, &mut jobs);
            jobs.export_s = done.elapsed().as_secs_f64();
            jobs.generate_total_s = start.elapsed().as_secs_f64();
        } else {
            jobs.failed += 1;
        }
    }
    let start = Instant::now();
    if let Some(id) = submit(&mut conn, train_path, train_body, &mut jobs) {
        jobs.train_id = id;
        let mut evaluating: Option<Instant> = None;
        let (status, end) = wait(&mut conn, id, &mut jobs, |stage| {
            if evaluating.is_none() && matches!(stage, "evaluating" | "finished") {
                evaluating = Some(Instant::now());
            }
        });
        let evaluating = evaluating.unwrap_or(end);
        jobs.train_epochs_s = (evaluating - start).as_secs_f64();
        jobs.train_eval_s = (end - evaluating).as_secs_f64();
        jobs.train_total_s = (end - start).as_secs_f64();
        jobs.train_state = status
            .get("state")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string();
        jobs.train_result = status.get("result").cloned();
        if !matches!(jobs.train_state.as_str(), "promoted" | "rejected") {
            jobs.failed += 1;
        }
    }
    jobs
}

/// POST a job; its id, or `None` (counted as failed).
fn submit(conn: &mut Conn, path: &str, body: &str, jobs: &mut Jobs) -> Option<u64> {
    jobs.attempted += 1;
    let id = match conn.request("POST", path, body.as_bytes()) {
        Ok(r) if r.ok() => r.json().get("job_id").and_then(Value::as_u64),
        _ => None,
    };
    if id.is_none() {
        jobs.failed += 1;
    }
    id
}

/// Poll `GET /jobs/{id}` every 10 ms until it leaves `running`, reporting
/// each observed stage; returns the final status and when it was seen.
fn wait(
    conn: &mut Conn,
    id: u64,
    jobs: &mut Jobs,
    mut stage: impl FnMut(&str),
) -> (Value, Instant) {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let status = poll(conn, id, jobs);
        let seen = Instant::now();
        stage(status.get("stage").and_then(Value::as_str).unwrap_or(""));
        match status.get("state").and_then(Value::as_str) {
            Some("running") | None if seen < deadline => {
                std::thread::sleep(Duration::from_millis(10))
            }
            _ => return (status, seen),
        }
    }
}

fn poll(conn: &mut Conn, id: u64, jobs: &mut Jobs) -> Value {
    jobs.attempted += 1;
    match conn.request("GET", &format!("/jobs/{id}"), b"") {
        Ok(r) if r.ok() => r.json(),
        _ => {
            jobs.failed += 1;
            Value::Null
        }
    }
}

/// Download every relation of a finished generation job as CSV.
fn export_all(conn: &mut Conn, id: u64, status: &Value, jobs: &mut Jobs) {
    let tables = status
        .get("result")
        .and_then(|r| r.get("tables"))
        .and_then(Value::as_array)
        .cloned()
        .unwrap_or_default();
    for t in tables {
        let name = t.get("table").and_then(Value::as_str).unwrap_or("");
        jobs.summary_rows += t.get("rows").and_then(Value::as_u64).unwrap_or(0);
        jobs.attempted += 1;
        match conn.request("GET", &format!("/jobs/{id}/export?relation={name}"), b"") {
            Ok(r) if r.ok() => {
                let lines = r.body.iter().filter(|&&b| b == b'\n').count() as u64;
                // One header line per relation.
                jobs.exported_rows += lines.saturating_sub(1);
            }
            _ => jobs.failed += 1,
        }
    }
}

/// Counter deltas between two Prometheus scrapes.
pub fn delta(after: &HashMap<String, f64>, before: &HashMap<String, f64>, name: &str) -> f64 {
    after.get(name).copied().unwrap_or(0.0) - before.get(name).copied().unwrap_or(0.0)
}

/// Closed-loop probes on a quiet routed tier: `GET /healthz` straight to
/// the worker, and one cached `/estimate` straight to it and through the
/// router. Returns medians `(healthz_ms, direct_hit_ms, routed_hit_ms)`.
pub fn probe(tier: &Tier, hit_body: &str, rounds: usize) -> (f64, f64, f64) {
    let mut direct = Conn::new(&tier.worker, Duration::from_secs(10));
    let mut front = Conn::new(&tier.front, Duration::from_secs(10));
    let _ = direct.request("POST", "/estimate", hit_body.as_bytes());
    let (mut health, mut hit, mut routed) = (Vec::new(), Vec::new(), Vec::new());
    let timed = |conn: &mut Conn, method: &str, path: &str, body: &str, into: &mut Vec<f64>| {
        let t = Instant::now();
        if conn
            .request(method, path, body.as_bytes())
            .is_ok_and(|r| r.ok())
        {
            into.push(t.elapsed().as_secs_f64() * 1e3);
        }
    };
    for _ in 0..rounds {
        timed(&mut direct, "GET", "/healthz", "", &mut health);
        timed(&mut direct, "POST", "/estimate", hit_body, &mut hit);
        timed(&mut front, "POST", "/estimate", hit_body, &mut routed);
    }
    (median(&health), median(&hit), median(&routed))
}

/// Per-request latency summaries of a finished open loop.
pub struct LoadSummary {
    /// Client latency (from due time) of every scheduled request, ms; a
    /// failed request counts as infinitely late.
    pub latencies: Vec<f64>,
    /// Share of scheduled requests answered 2xx within the limit.
    pub goodput: f64,
    /// Requests that failed (non-2xx or transport error).
    pub failed: u64,
}

/// Summarise outcomes against a latency limit.
pub fn summarize(outcomes: &[Outcome], limit_ms: f64) -> LoadSummary {
    let latencies: Vec<f64> = outcomes
        .iter()
        .map(|o| if o.ok() { o.latency_ms } else { f64::INFINITY })
        .collect();
    let good = outcomes.iter().filter(|o| o.good(limit_ms)).count();
    LoadSummary {
        goodput: good as f64 / outcomes.len().max(1) as f64,
        failed: outcomes.iter().filter(|o| !o.ok()).count() as u64,
        latencies,
    }
}

/// The per-layer view of one open loop: server-side time, client-side
/// wait, cache split, batch size and generator lateness.
pub fn layer_metrics(outcomes: &[Outcome], rep: &mut crate::report::Report) {
    let ok: Vec<&Outcome> = outcomes.iter().filter(|o| o.ok()).collect();
    let server: Vec<f64> = ok
        .iter()
        .map(|o| o.server_ms)
        .filter(|v| v.is_finite())
        .collect();
    let wait: Vec<f64> = ok
        .iter()
        .filter(|o| o.server_ms.is_finite())
        .map(|o| o.latency_ms - o.server_ms)
        .collect();
    let hits: Vec<f64> = ok
        .iter()
        .filter(|o| o.cached)
        .map(|o| o.latency_ms)
        .collect();
    let misses: Vec<f64> = ok
        .iter()
        .filter(|o| !o.cached)
        .map(|o| o.latency_ms)
        .collect();
    let batches: Vec<f64> = ok
        .iter()
        .filter(|o| !o.cached && o.batch_size.is_finite())
        .map(|o| o.batch_size)
        .collect();
    let lag: Vec<f64> = outcomes.iter().filter_map(|o| o.lag_ms).collect();
    rep.metric_n(
        "serve.server_ms_p50",
        quantile(&server, 0.5),
        "ms",
        server.len(),
    );
    rep.metric_n(
        "serve.server_ms_p99",
        quantile(&server, 0.99),
        "ms",
        server.len(),
    );
    rep.metric_n("client.wait_ms", quantile(&wait, 0.99), "ms", wait.len());
    rep.metric(
        "serve.cache_hit_ratio",
        hits.len() as f64 / ok.len().max(1) as f64,
        "share",
    );
    if !hits.is_empty() {
        rep.metric_n("serve.hit_ms_p50", median(&hits), "ms", hits.len());
    }
    rep.metric_n("serve.miss_ms_p50", median(&misses), "ms", misses.len());
    rep.metric_n(
        "serve.batch_size_mean",
        crate::stats::mean(&batches),
        "requests",
        batches.len(),
    );
    rep.metric_n("gen.lag_ms", quantile(&lag, 0.99), "ms", lag.len());
}

/// Run `bodies` open-loop through the tier at `rate`, calling `during` on
/// this thread meanwhile; with `stop_after_during` the load ends when
/// `during` returns.
pub fn drive<T>(
    tier: &Tier,
    bodies: &[String],
    rate: f64,
    stop_after_during: bool,
    during: impl FnOnce() -> T,
) -> (Vec<Outcome>, T) {
    open_loop(
        &tier.front,
        bodies,
        rate,
        load_conns(),
        Duration::from_secs(20),
        stop_after_during,
        during,
    )
}
