//! The two serving workloads, and the session they share with the
//! offline workload's traced probe.
//!
//! * `serve-cold`: a fresh `sam-cli serve` on a Census model, hit directly,
//!   every query distinct (the cache is bypassed).
//! * `serve-skewed`: `sam-cli router` in front of one managed worker on an
//!   IMDB model; join queries drawn Zipf-skewed over a working set four
//!   times the 1024-entry estimate cache, after an untimed warm-up.
//!
//! A session has two phases. Phase A is the timed window: open-loop
//! `/estimate` at the held rate for `--seconds`. Phase B keeps the same
//! open-loop traffic running while one `/generate` (with its CSV export)
//! and then one `/train` run, so the jobs share the kernel and the CPU with
//! the reads; it ends when the training job does. End-to-end latency comes
//! from phase A, job figures from phase B, and phase B's latency is the
//! per-layer `serve.during_jobs_p95_ms`. (With the jobs inside the timed
//! window, the tail percentile landed in a seconds-long burst whose shape
//! changed run to run, 40–250 ms at one seed.)
//!
//! Both train their incumbent in-process with exactly the configuration
//! `/train` builds from its query string, on exactly the slice `/train`
//! trains on, so the retrained candidate is bit-identical to the incumbent
//! and the shadow evaluation ties — and a tie promotes. Every run must
//! reach `promoted` with `candidate_p95 == incumbent_p95`.

use crate::http::{self, prom_scrape};
use crate::load::Outcome;
use crate::offline::traced_fit;
use crate::report::Report;
use crate::stats::{fixture, median, mix, quantile};
use crate::tier_session::{self as ts, delta, estimate_body, Jobs, Tier};
use crate::{Ctx, SAMPLES};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sam_ar::{
    estimate_cardinality, estimate_cardinality_batch_with, sample_model_rows_range, FrozenModel,
    PrefixTrie, SampleBatch,
};
use sam_core::assemble::assemble_group_merge;
use sam_core::{
    assign_keys_group_merge, weigh_samples, GenerationConfig, JoinKeyStrategy, Sam, TrainedSam,
};
use sam_query::{evaluate_cardinality, label_workload, parse_query, Query, Workload};
use sam_storage::{Database, DatabaseStats};
use sam_workgen::{QueryStream, SynthProfile, SynthTarget};
use serde_json::{json, Value};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Upper bound on phase B's length, seconds of background traffic.
const PHASE_B_MAX_S: f64 = 60.0;

/// One workload's sizes and rates.
struct Plan {
    /// Model name in the registry.
    model: &'static str,
    /// Labelled queries the incumbent (and the `/train` candidate) trains on.
    train_queries: usize,
    /// Of those, the trailing ones flagged as the `/train` holdout.
    holdout: usize,
    /// `/train` epochs and hidden widths.
    epochs: usize,
    hidden: &'static [usize],
    /// Offered `/estimate` rate, requests per second.
    rate: f64,
    /// Latency limit for goodput, ms.
    limit_ms: f64,
    /// `foj_samples` of the `/generate` job (single relations ignore it
    /// and generate the table's size).
    foj_samples: u64,
}

/// The `/train` query string for `plan` (batch and learning rate at the
/// server's defaults, mirrored by [`sam_config`]).
fn train_path(plan: &Plan) -> String {
    let hidden: Vec<String> = plan.hidden.iter().map(|h| h.to_string()).collect();
    format!(
        "/train?model={}&epochs={}&hidden={}&seed={}&eval_samples={SAMPLES}&max_qerror=1e300",
        plan.model,
        plan.epochs,
        hidden.join(","),
        fixture(40)
    )
}

/// The `SamConfig` the server builds from [`train_path`].
fn sam_config(plan: &Plan) -> sam_core::SamConfig {
    sam_core::SamConfig {
        model: sam_ar::ArModelConfig {
            hidden: plan.hidden.to_vec(),
            seed: fixture(40),
            residual: false,
            transformer: None,
        },
        train: sam_ar::TrainConfig {
            epochs: plan.epochs,
            batch_size: 32,
            lr: 5e-3,
            seed: fixture(40),
            ..Default::default()
        },
        encoding: Default::default(),
    }
}

/// Save `trained` and its reference relations under the work directory;
/// returns the `--models` spec `name=model.json=datadir`.
pub fn write_model(
    ctx: &Ctx,
    name: &str,
    db: &Database,
    trained: &TrainedSam,
) -> Result<String, String> {
    let data = write_data(ctx, name, db)?;
    let path = ctx.work.join(format!("{name}.json"));
    std::fs::write(
        &path,
        sam_ar::save_model(trained.model(), trained.db_schema()),
    )
    .map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(format!("{name}={}={}", path.display(), data.display()))
}

/// Write `{table}.csv` for every relation; returns the directory.
fn write_data(ctx: &Ctx, name: &str, db: &Database) -> Result<PathBuf, String> {
    let dir = ctx.work.join(format!("{name}-data"));
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    for t in db.tables() {
        let path = dir.join(format!("{}.csv", t.name()));
        let mut file = std::fs::File::create(&path).map_err(|e| e.to_string())?;
        sam_storage::csv::write_csv(t, &mut file).map_err(|e| e.to_string())?;
    }
    Ok(dir)
}

/// Read the relations back exactly as the server loads reference data.
fn read_data(dir: &Path, schema: &sam_storage::DatabaseSchema) -> Result<Database, String> {
    let mut tables = Vec::new();
    for t in schema.tables() {
        let file =
            std::fs::File::open(dir.join(format!("{}.csv", t.name))).map_err(|e| e.to_string())?;
        let table = sam_storage::csv::read_csv(t.clone(), std::io::BufReader::new(file))
            .map_err(|e| e.to_string())?;
        tables.push(table);
    }
    Database::new(schema.clone(), tables, true).map_err(|e| e.to_string())
}

/// JSONL `/train` body: the last `holdout` queries flagged as holdout.
fn train_body(workload: &Workload, holdout: usize) -> String {
    let n = workload.len();
    workload
        .iter()
        .enumerate()
        .map(|(i, lq)| {
            let mut line = json!({"sql": lq.query.to_string(), "card": lq.cardinality});
            if i >= n - holdout {
                if let Value::Object(fields) = &mut line {
                    fields.push(("holdout".into(), Value::Bool(true)));
                }
            }
            line.to_string() + "\n"
        })
        .collect()
}

/// Distinct synthesized queries over `db`, as the server will parse them
/// (printed and parsed back). No DNF: `/estimate` takes conjunctive SQL.
fn synth(db: &Database, joins: &[f64], seed: u64, count: u64) -> Result<Vec<Query>, String> {
    let mut profile = SynthProfile {
        join_weights: joins.to_vec(),
        ..SynthProfile::default()
    };
    profile.shapes.dnf = 0.0;
    let target = SynthTarget::from_database(db, &profile).map_err(|e| e.to_string())?;
    QueryStream::new(&target, &profile, seed, count)
        .map(|q| parse_query(&q.to_string()).map_err(|e| format!("{q}: {e}")))
        .collect()
}

/// The fixture a serving workload prepares before its tier starts.
struct Prepared {
    train: Workload,
    trained: TrainedSam,
    spec: String,
    label_s: f64,
}

/// Write the data, read it back (the server's statistics come from the
/// CSVs), label the training workload and fit the incumbent.
fn prepare(
    ctx: &Ctx,
    plan: &Plan,
    db: &Database,
    joins: &[f64],
    rep: &mut Report,
) -> Result<Prepared, String> {
    let data_dir = write_data(ctx, plan.model, db)?;
    let db = read_data(&data_dir, db.schema())?;
    let queries = synth(&db, joins, fixture(31), plan.train_queries as u64)?;
    let t = Instant::now();
    let train = label_workload(&db, queries).map_err(|e| e.to_string())?;
    let label_s = t.elapsed().as_secs_f64();
    let slice = Workload::new(train.queries[..train.len() - plan.holdout].to_vec());
    let stats = DatabaseStats::from_database(&db);
    let config = sam_config(plan);
    let trained = if ctx.trace {
        traced_fit(db.schema(), &stats, &slice, &config, rep)?
    } else {
        Sam::fit(db.schema(), &stats, &slice, &config).map_err(|e| e.to_string())?
    };
    let spec = write_model(ctx, plan.model, &db, &trained)?;
    Ok(Prepared {
        train,
        trained,
        spec,
        label_s,
    })
}

/// A model as the server loaded it (from its JSON file).
fn load_model(path: &Path) -> Result<FrozenModel, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    Ok(sam_ar::load_model(&text).map_err(|e| e.to_string())?.0)
}

/// Find `jobs/<id>/model.json` (the promoted candidate) under `dir`.
fn promoted_model(dir: &Path, id: u64) -> Option<PathBuf> {
    let direct = dir.join("jobs").join(id.to_string()).join("model.json");
    if direct.is_file() {
        return Some(direct);
    }
    std::fs::read_dir(dir)
        .ok()?
        .filter_map(Result::ok)
        .filter(|e| e.path().is_dir())
        .find_map(|e| promoted_model(&e.path(), id))
}

/// Served estimates must equal in-process `estimate_cardinality` with the
/// same (query, samples, seed) bit for bit: the first 8 answers of each
/// model version are checked.
fn check_bit_identical(
    rep: &mut Report,
    outcomes: &[&Outcome],
    requests: &[(Query, u64)],
    models: &[(u64, FrozenModel)],
) {
    let mut checked = 0;
    let mut mismatches = 0;
    for (version, model) in models {
        let picked = outcomes
            .iter()
            .filter(|o| o.ok() && o.version == *version)
            .take(8);
        for o in picked {
            let (q, seed) = &requests[o.index];
            let mut rng = StdRng::seed_from_u64(*seed);
            let local = estimate_cardinality(model, q, SAMPLES, &mut rng).unwrap_or(f64::NAN);
            checked += 1;
            if local.to_bits() != o.estimate.to_bits() {
                mismatches += 1;
            }
        }
    }
    rep.check(
        "served_estimates_bit_identical",
        checked > 8 && mismatches == 0,
        format!(
            "{checked} checked across {} versions, {mismatches} differ",
            models.len()
        ),
    );
}

/// Q-Error of every estimate served in the warm-up and phase A against its
/// true cardinality: `(outcome, key)` pairs. Query pools, per-key seeds and
/// (on `serve-skewed`) the hot keys are fixtures, so the traffic-weighted
/// distribution is stable.
fn served_qerror<'a>(
    rep: &mut Report,
    served: impl Iterator<Item = (&'a Outcome, usize)>,
    labels: &HashMap<usize, u64>,
) {
    let qe: Vec<f64> = served
        .filter(|(o, _)| o.ok())
        .filter_map(|(o, key)| {
            let card = labels.get(&key)?;
            Some(sam_metrics::q_error(o.estimate, *card as f64))
        })
        .collect();
    rep.check(
        "qerror_finite",
        !qe.is_empty() && qe.iter().all(|q| q.is_finite()),
        format!("{} served estimates scored", qe.len()),
    );
    rep.metric_n("qerror_p50", quantile(&qe, 0.5), "ratio", qe.len());
    rep.metric_n("qerror_p95", quantile(&qe, 0.95), "ratio", qe.len());
}

/// Figures and checks of the jobs. A probe (`workload == false`) reports
/// only the per-layer job figures.
pub fn job_results(jobs: &Jobs, rep: &mut Report, workload: bool, traced: bool) {
    rep.ops(jobs.attempted, jobs.failed);
    rep.check(
        "export_rows_match_summary",
        jobs.summary_rows > 0 && jobs.exported_rows == jobs.summary_rows,
        format!(
            "exported {} rows, summary {}",
            jobs.exported_rows, jobs.summary_rows
        ),
    );
    rep.metric("train.epochs_s", jobs.train_epochs_s, "s");
    rep.metric("train.eval_s", jobs.train_eval_s, "s");
    rep.metric("generate.job_s", jobs.generate_job_s, "s");
    rep.metric("export.s", jobs.export_s, "s");
    if workload {
        let result = jobs.train_result.clone().unwrap_or(Value::Null);
        let cand = result.get("candidate_p95").and_then(Value::as_f64);
        let inc = result.get("incumbent_p95").and_then(Value::as_f64);
        rep.check(
            "train_promoted_deterministically",
            jobs.train_state == "promoted" && cand.is_some() && cand == inc,
            format!(
                "state {}, candidate_p95 {cand:?}, incumbent_p95 {inc:?}",
                jobs.train_state
            ),
        );
        let name = if traced { "traced.train_s" } else { "train_s" };
        rep.metric(name, jobs.train_total_s, "s");
        rep.metric(
            "generate_rows_per_s",
            jobs.exported_rows as f64 / jobs.generate_total_s,
            "rows/s",
        );
    }
}

/// What one tier session measured.
pub struct Session {
    /// Warm-up outcomes (untimed).
    pub warm: Vec<Outcome>,
    /// Phase A outcomes (the timed window).
    pub timed: Vec<Outcome>,
    /// Phase B outcomes (traffic while the jobs ran).
    pub background: Vec<Outcome>,
    /// The jobs.
    pub jobs: Jobs,
    worker_before: HashMap<String, f64>,
    worker_after: HashMap<String, f64>,
    router_before: HashMap<String, f64>,
    router_after: HashMap<String, f64>,
}

/// Warm-up (untimed, back to back), phase A at `rate`, then phase B: the
/// same traffic with one `/generate` + export and one `/train`.
pub fn session(
    tier: &Tier,
    rate: f64,
    warm: &[String],
    timed: &[String],
    background: &[String],
    generate_body: &str,
    train: (&str, &str),
) -> Session {
    let (warm, _) = ts::drive(tier, warm, f64::INFINITY, false, || ());
    let worker_before = prom_scrape(&tier.worker);
    let router_before = prom_scrape(&tier.front);
    let (timed, _) = ts::drive(tier, timed, rate, false, || ());
    let worker_after = prom_scrape(&tier.worker);
    let router_after = prom_scrape(&tier.front);
    let (background, jobs) = ts::drive(tier, background, rate, true, || {
        ts::run_jobs(&tier.front, generate_body, train.0, train.1)
    });
    Session {
        warm,
        timed,
        background,
        jobs,
        worker_before,
        worker_after,
        router_before,
        router_after,
    }
}

/// Phase B's tail and the operation counts of both phases.
pub fn phase_b_metrics(rep: &mut Report, s: &Session, limit_ms: f64) {
    let a = ts::summarize(&s.timed, limit_ms);
    let b = ts::summarize(&s.background, limit_ms);
    let warm_failed = s.warm.iter().filter(|o| !o.ok()).count() as u64;
    rep.ops(
        (s.warm.len() + s.timed.len() + s.background.len()) as u64,
        warm_failed + a.failed + b.failed,
    );
    rep.metric_n(
        "serve.during_jobs_p95_ms",
        quantile(&b.latencies, 0.95),
        "ms",
        b.latencies.len(),
    );
}

/// End-to-end latency figures of phase A.
fn load_metrics(rep: &mut Report, s: &Session, limit_ms: f64, traced: bool) {
    phase_b_metrics(rep, s, limit_ms);
    let a = ts::summarize(&s.timed, limit_ms);
    let (p50, p90) = if traced {
        ("traced.estimate_p50_ms", "traced.estimate_p90_ms")
    } else {
        ("estimate_p50_ms", "estimate_p90_ms")
    };
    rep.metric_n(p50, quantile(&a.latencies, 0.5), "ms", a.latencies.len());
    rep.metric_n(p90, quantile(&a.latencies, 0.9), "ms", a.latencies.len());
    rep.metric_n("estimate_goodput_share", a.goodput, "share", s.timed.len());
    rep.info("latency_limit_ms", json!(limit_ms));
}

/// Per-layer figures every traced session reports: the open loop split
/// into layers, server counters over phase A, router counters, and the
/// closed-loop HTTP / cache-hit / proxy probes. A direct tier gets a
/// router started just for the proxy probe.
pub fn session_layers(
    ctx: &Ctx,
    rep: &mut Report,
    tier: &Tier,
    s: &Session,
    spec: &str,
    hit_body: &str,
) -> Result<(), String> {
    ts::layer_metrics(&s.timed, rep);
    let (before, after) = (&s.worker_before, &s.worker_after);
    rep.metric(
        "ar.forwards",
        delta(after, before, "sam_forward_total"),
        "count",
    );
    rep.metric(
        "ar.trie_hits",
        delta(after, before, "sam_trie_hits_total"),
        "count",
    );
    rep.metric(
        "ar.dedup_hits",
        delta(after, before, "sam_dedup_hits_total"),
        "count",
    );
    // One closed-loop probe on a router with one worker: a direct tier
    // gets a router (same binary, same model) just for it.
    let probe_tier;
    let routed = if tier.routed {
        tier
    } else {
        let dir = ctx.work.join("proxy-probe");
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        probe_tier = Tier::routed(ctx, &dir, spec)?;
        probe_tier.wait_ready(hit_body)?;
        &probe_tier
    };
    let (health, direct, via_router) = ts::probe(routed, hit_body, 50);
    rep.metric("serve.http_ms", health, "ms");
    if rep.get("serve.hit_ms_p50").is_none() {
        rep.metric("serve.hit_ms_p50", direct, "ms");
    }
    rep.metric("router.proxy_ms", via_router - direct, "ms");
    let (rb, ra) = if tier.routed {
        (s.router_before.clone(), s.router_after.clone())
    } else {
        (HashMap::new(), prom_scrape(&routed.front))
    };
    rep.metric(
        "router.retries",
        delta(&ra, &rb, "sam_router_retries_total"),
        "count",
    );
    rep.metric(
        "router.upstream_errors",
        delta(&ra, &rb, "sam_router_upstream_errors_total"),
        "count",
    );
    Ok(())
}

/// `ar.estimate_ms`: the model in-process through one persistent trie and
/// `SampleBatch`, one request per call, with the traffic's queries,
/// samples and seeds (the first 200). Returns the estimates.
pub fn inprocess_estimates(
    rep: &mut Report,
    model: &FrozenModel,
    requests: &[(Query, u64)],
) -> Vec<Option<f64>> {
    let mut trie = PrefixTrie::new();
    let mut batch = SampleBatch::new();
    let mut lat = Vec::new();
    let mut estimates = Vec::new();
    for (q, seed) in requests.iter().take(200) {
        let mut rng = StdRng::seed_from_u64(*seed);
        let t = Instant::now();
        let got = estimate_cardinality_batch_with(
            model,
            &[(q, SAMPLES)],
            std::slice::from_mut(&mut rng),
            &mut trie,
            &mut batch,
        );
        lat.push(t.elapsed().as_secs_f64() * 1e3);
        estimates.push(got.into_iter().next().and_then(Result::ok));
    }
    rep.metric_n("ar.estimate_ms", median(&lat), "ms", lat.len());
    estimates
}

/// `TrainedSam::generate`, then the same work piece by piece: sampling and
/// the `core` weighting, Group-and-Merge and assembly over the same
/// samples, which must give the same database. A single relation skips
/// `core`: its `generate` is sampling + decoding, and `core` is timed on
/// its samples for attribution only. Returns `generate`'s database.
pub fn inprocess_generation(
    rep: &mut Report,
    trained: &TrainedSam,
    config: &GenerationConfig,
) -> Result<Database, String> {
    let model = trained.model();
    let multi = model.schema.graph().len() > 1;
    let rows = if multi {
        config.foj_samples
    } else {
        model.schema.table_size(0) as usize
    };
    let t = Instant::now();
    let (whole, _) = trained.generate(config).map_err(|e| e.to_string())?;
    let generate_s = t.elapsed().as_secs_f64();
    let batch = config.batch.max(1);
    let t = Instant::now();
    let samples = sample_model_rows_range(model, rows, batch, config.seed, 0..rows.div_ceil(batch));
    let sample_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let weights = weigh_samples(&model.schema, &samples);
    let weights_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let assigned = assign_keys_group_merge(&model.schema, &samples, &weights);
    let gm_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let pieces = assemble_group_merge(
        trained.db_schema(),
        &model.schema,
        &samples,
        &weights,
        &assigned,
        config.seed,
    )
    .map_err(|e| e.to_string())?;
    let assemble_s = t.elapsed().as_secs_f64();
    let core_s = if multi {
        rep.check(
            "decomposition_matches_generate",
            crate::offline::same_db(&whole, &pieces),
            "sample + weigh + group-merge + assemble == generate",
        );
        weights_s + gm_s + assemble_s
    } else {
        0.0
    };
    rep.metric("ar.sample_s", sample_s, "s");
    rep.metric("core.weights_s", weights_s, "s");
    rep.metric("core.group_merge_s", gm_s, "s");
    rep.metric("core.assemble_s", assemble_s, "s");
    rep.metric("generate.residual_s", generate_s - sample_s - core_s, "s");
    rep.info("generate_wall_s", json!(generate_s));
    Ok(whole)
}

/// The traffic of one run: distinct (query, seed) keys, and per phase the
/// key each request sends.
struct Traffic {
    requests: Vec<(Query, u64)>,
    warm: Vec<usize>,
    timed: Vec<usize>,
    background: Vec<usize>,
}

impl Traffic {
    fn bodies(&self, model: &str, keys: &[usize]) -> Vec<String> {
        keys.iter()
            .map(|&k| {
                let (q, seed) = &self.requests[k];
                estimate_body(model, &q.to_string(), SAMPLES, *seed)
            })
            .collect()
    }

    /// True cardinalities of every distinct key the warm-up and the timed
    /// phase send.
    fn label(&self, db: &Database) -> HashMap<usize, u64> {
        let mut labels = HashMap::new();
        for &k in self.warm.iter().chain(&self.timed) {
            if let std::collections::hash_map::Entry::Vacant(slot) = labels.entry(k) {
                if let Ok(card) = evaluate_cardinality(db, &self.requests[k].0) {
                    slot.insert(card);
                }
            }
        }
        labels
    }
}

/// The shape shared by both serving workloads.
fn run_serving(
    ctx: &Ctx,
    rep: &mut Report,
    plan: &Plan,
    make_db: &dyn Fn() -> Database,
    joins: &[f64],
    make_traffic: &dyn Fn(&Database) -> Result<Traffic, String>,
    routed: bool,
) -> Result<Session, String> {
    let prep = prepare(ctx, plan, &make_db(), joins, rep)?;
    rep.info(&format!("backend.{}", plan.model), json!("f32"));

    // Set-up: inputs, labels, reference data and a fresh tier answering;
    // the last repetition's tier is the one measured.
    let mut setups = Vec::new();
    let mut ready = None;
    let mut label_s = 0.0;
    let reps = if ctx.trace { 1 } else { SETUP_REPS };
    for r in 0..reps {
        drop(ready.take());
        let t = Instant::now();
        let db = make_db();
        write_data(ctx, plan.model, &db)?;
        let traffic = make_traffic(&db)?;
        let lt = Instant::now();
        let labels = traffic.label(&db);
        label_s = lt.elapsed().as_secs_f64();
        let dir = ctx.work.join(format!("tier-{r}"));
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let tier = if routed {
            Tier::routed(ctx, &dir, &prep.spec)?
        } else {
            Tier::serve(ctx, &dir, &prep.spec)?
        };
        // Readiness on a request outside the traffic, so no traffic key is
        // cached before the run.
        let probe = format!("SELECT COUNT(*) FROM {}", db.tables()[0].name());
        tier.wait_ready(&estimate_body(plan.model, &probe, SAMPLES, u64::MAX))?;
        setups.push(t.elapsed().as_secs_f64());
        ready = Some((tier, dir, traffic, labels, db));
    }
    let (tier, dir, traffic, labels, db) = ready.expect("one set-up");
    if ctx.trace {
        rep.metric("query.label_s", prep.label_s + label_s, "s");
    } else {
        rep.metric_n("setup_s", median(&setups), "s", setups.len());
    }

    let generate_body = json!({
        "model": plan.model,
        "foj_samples": plan.foj_samples,
        "seed": mix(ctx.seed, 33),
    })
    .to_string();
    let train = (train_path(plan), train_body(&prep.train, plan.holdout));
    let timed_bodies = traffic.bodies(plan.model, &traffic.timed);
    let s = session(
        &tier,
        plan.rate,
        &traffic.bodies(plan.model, &traffic.warm),
        &timed_bodies,
        &traffic.bodies(plan.model, &traffic.background),
        &generate_body,
        (&train.0, &train.1),
    );
    rep.metric("peak_rss_mb", tier.peak_rss_mb(), "MB");
    load_metrics(rep, &s, plan.limit_ms, ctx.trace);
    job_results(&s.jobs, rep, true, ctx.trace);
    let expected_rows = db.total_rows() as u64;
    if db.tables().len() == 1 && s.jobs.summary_rows != expected_rows {
        rep.check(
            "generate_row_count",
            false,
            format!(
                "{} rows generated, {expected_rows} expected",
                s.jobs.summary_rows
            ),
        );
    }
    let served = (s.warm.iter().map(|o| (o, traffic.warm[o.index])))
        .chain(s.timed.iter().map(|o| (o, traffic.timed[o.index])));
    served_qerror(rep, served, &labels);

    // Bit-identity: phase A answers (v1) and, after the promotion, the
    // first timed requests again (now answered by v2).
    let v1 = load_model(&ctx.work.join(format!("{}.json", plan.model)))?;
    let mut models = vec![(1, v1.clone())];
    let mut conn = http::Conn::new(&tier.front, std::time::Duration::from_secs(20));
    let replay: Vec<Outcome> = timed_bodies
        .iter()
        .take(8)
        .enumerate()
        .map(|(i, body)| {
            let resp = conn.request("POST", "/estimate", body.as_bytes());
            let doc = resp.as_ref().map(|r| r.json()).unwrap_or(Value::Null);
            Outcome {
                index: i,
                latency_ms: 0.0,
                lag_ms: None,
                status: resp.map_or(0, |r| r.status),
                server_ms: f64::NAN,
                cached: false,
                batch_size: f64::NAN,
                version: doc
                    .get("model_version")
                    .and_then(Value::as_u64)
                    .unwrap_or(0),
                estimate: doc
                    .get("estimate")
                    .and_then(Value::as_f64)
                    .unwrap_or(f64::NAN),
            }
        })
        .collect();
    rep.ops(
        replay.len() as u64,
        replay.iter().filter(|o| !o.ok()).count() as u64,
    );
    if let Some(path) = promoted_model(&dir, s.jobs.train_id) {
        models.push((2, load_model(&path)?));
    }
    let timed_requests: Vec<(Query, u64)> = traffic
        .timed
        .iter()
        .map(|&k| traffic.requests[k].clone())
        .collect();
    let all: Vec<&Outcome> = s.timed.iter().chain(&replay).collect();
    check_bit_identical(rep, &all, &timed_requests, &models);

    if ctx.trace {
        let hit = s
            .timed
            .iter()
            .position(|o| o.cached)
            .map_or(timed_bodies[0].clone(), |i| timed_bodies[i].clone());
        session_layers(ctx, rep, &tier, &s, &prep.spec, &hit)?;
        inprocess_estimates(rep, &v1, &timed_requests);
        let config = GenerationConfig {
            foj_samples: plan.foj_samples as usize,
            batch: 256,
            seed: mix(ctx.seed, 33),
            strategy: JoinKeyStrategy::GroupAndMerge,
        };
        inprocess_generation(rep, &prep.trained, &config)?;
    }
    Ok(s)
}

pub fn run_cold(ctx: &Ctx, rep: &mut Report) -> Result<(), String> {
    let plan = Plan {
        model: "census",
        train_queries: if ctx.smoke { 120 } else { 400 },
        holdout: if ctx.smoke { 20 } else { 80 },
        epochs: if ctx.smoke { 2 } else { 16 },
        hidden: &[32, 32],
        rate: if ctx.smoke { 10.0 } else { 20.0 },
        limit_ms: 1000.0,
        foj_samples: 0,
    };
    let rows = if ctx.smoke { 2_000 } else { 24_000 };
    let make_db = || sam_datasets::census(rows, fixture(30));
    let timed = (plan.rate * ctx.seconds).ceil() as usize;
    let background = (plan.rate * PHASE_B_MAX_S) as usize;
    let traffic = |db: &Database| -> Result<Traffic, String> {
        // Every request distinct: its own query and its own seed. The
        // query pool is a fixture (phase A always sends the same queries);
        // the seed orders them and draws the per-request seeds.
        let queries = synth(db, &[1.0], fixture(32), (timed + background) as u64)?;
        let requests: Vec<(Query, u64)> = queries
            .into_iter()
            .enumerate()
            .map(|(k, q)| (q, mix(ctx.seed, 1_000_000 + k as u64)))
            .collect();
        let n = requests.len();
        let mut rng = StdRng::seed_from_u64(mix(ctx.seed, 32));
        Ok(Traffic {
            requests,
            warm: Vec::new(),
            timed: shuffled((0..timed.min(n)).collect(), &mut rng),
            background: shuffled((timed.min(n)..n).collect(), &mut rng),
        })
    };
    let s = run_serving(ctx, rep, &plan, &make_db, &[1.0], &traffic, false)?;
    let hits = s
        .timed
        .iter()
        .chain(&s.background)
        .filter(|o| o.cached)
        .count();
    let counted = delta(
        &s.worker_after,
        &s.worker_before,
        "sam_estimate_cache_hits_total",
    );
    rep.check(
        "cold_cache_hit_ratio_zero",
        hits == 0 && counted == 0.0,
        format!("{hits} cached replies, {counted} counted cache hits"),
    );
    Ok(())
}

/// Fisher–Yates shuffle.
fn shuffled(mut keys: Vec<usize>, rng: &mut StdRng) -> Vec<usize> {
    for i in (1..keys.len()).rev() {
        keys.swap(i, rng.gen_range(0..=i));
    }
    keys
}

/// Zipf(1) ranks over `n` items: rank `r` drawn with weight `1/(r+1)`.
fn zipf_sampler(n: usize) -> impl Fn(&mut StdRng) -> usize {
    let mut cdf = Vec::with_capacity(n);
    let mut acc = 0.0;
    for r in 0..n {
        acc += 1.0 / (r as f64 + 1.0);
        cdf.push(acc);
    }
    move |rng: &mut StdRng| {
        let u = rng.gen_range(0.0..acc);
        cdf.partition_point(|&c| c <= u).min(n - 1)
    }
}

pub fn run_skewed(ctx: &Ctx, rep: &mut Report) -> Result<(), String> {
    let plan = Plan {
        model: "imdb",
        train_queries: if ctx.smoke { 120 } else { 600 },
        holdout: if ctx.smoke { 20 } else { 60 },
        epochs: if ctx.smoke { 2 } else { 8 },
        hidden: &[32, 32],
        rate: 20.0,
        limit_ms: 250.0,
        foj_samples: if ctx.smoke { 1_000 } else { 12_000 },
    };
    let working_set = if ctx.smoke { 512 } else { 4096 };
    let warm = if ctx.smoke { 100 } else { 600 };
    let titles = if ctx.smoke { 300 } else { 1_000 };
    let make_db = || {
        sam_datasets::imdb(&sam_datasets::ImdbConfig {
            titles,
            seed: fixture(50),
            ..Default::default()
        })
    };
    // JOB-light style: 2–4 relations joined on the title star.
    let joins = [0.0, 2.0, 2.0, 1.0];
    let timed = (plan.rate * ctx.seconds).ceil() as usize;
    let background = (plan.rate * PHASE_B_MAX_S) as usize;
    let traffic = |db: &Database| -> Result<Traffic, String> {
        // The working set is a fixture, each query with its own fixed
        // seed; `--seed` draws the requests.
        let queries = synth(db, &joins, fixture(52), working_set as u64)?;
        let requests: Vec<(Query, u64)> = queries
            .into_iter()
            .enumerate()
            .map(|(i, q)| (q, fixture(60_000 + i as u64)))
            .collect();
        // Rank -> working-set key through a fixed permutation, so the same
        // keys are hot in every run; the seed draws the requests.
        let perm = shuffled(
            (0..requests.len()).collect(),
            &mut StdRng::seed_from_u64(fixture(53)),
        );
        let mut rng = StdRng::seed_from_u64(mix(ctx.seed, 53));
        let zipf = zipf_sampler(requests.len());
        let mut draw = |n: usize| -> Vec<usize> { (0..n).map(|_| perm[zipf(&mut rng)]).collect() };
        Ok(Traffic {
            warm: draw(warm),
            timed: draw(timed),
            background: draw(background),
            requests,
        })
    };
    run_serving(ctx, rep, &plan, &make_db, &joins, &traffic, true).map(|_| ())
}
