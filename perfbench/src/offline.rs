//! `offline-imdb`: the paper's own pipeline as a library user runs it, on
//! the multi-relation IMDB / JOB-light bundle at the harness's `quick`
//! data and model configuration — label a training workload, `Sam::fit`,
//! `TrainedSam::generate` with Group-and-Merge, score held-out queries on
//! the generated database. No server or router runs in the untraced run.

use crate::report::Report;
use crate::stats::{fixture, median, mix, quantile};
use crate::tier::self_peak_rss_mb;
use crate::tier_session::{estimate_body, Tier};
use crate::{Ctx, SAMPLES};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sam_ar::{estimate_cardinality, train_observed, ArModel, ArSchema, TrainControl};
use sam_bench::harness::{self, Bundle, Scale};
use sam_core::{GenerationConfig, JoinKeyStrategy, Sam, TrainedSam};
use sam_query::{evaluate_cardinality, label_workload, Workload, WorkloadGenerator};
use sam_storage::Database;
use std::time::Instant;

/// Labelled training queries (the seed measurement's size).
const TRAIN_QUERIES: usize = 1000;
/// Held-out queries scored on the generated database.
const TEST_QUERIES: usize = 2000;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Generations per run.
const GENERATE_REPS: usize = 2;
/// Held-out queries also estimated in-process with the trained model.
const ESTIMATE_QUERIES: usize = 100;
/// Timing rounds per in-process estimate in the traced run (the untraced
/// run times one round before and one after each generation).
const ESTIMATE_ROUNDS: usize = 3;
/// In-process estimate latency limit for `estimate_goodput_share`, ms.
const LIMIT_MS: f64 = 250.0;

/// The pipeline's inputs.
struct Inputs {
    bundle: Bundle,
    train: Workload,
    test: Workload,
    label_s: f64,
}

fn scale(ctx: &Ctx) -> Scale {
    if ctx.smoke {
        Scale::Smoke
    } else {
        Scale::Quick
    }
}

/// Build the IMDB bundle and label the training and held-out workloads.
fn setup(ctx: &Ctx) -> Result<Inputs, String> {
    let bundle = harness::imdb_bundle(scale(ctx), fixture(1));
    let (n_train, n_test) = if ctx.smoke {
        (150, 60)
    } else {
        (TRAIN_QUERIES, TEST_QUERIES)
    };
    let train_q = WorkloadGenerator::new(&bundle.db, fixture(2)).multi_workload(n_train, 2);
    let test_q = WorkloadGenerator::new(&bundle.db, fixture(3)).multi_workload(n_test, 2);
    let t = Instant::now();
    let train = label_workload(&bundle.db, train_q).map_err(|e| e.to_string())?;
    let test = label_workload(&bundle.db, test_q).map_err(|e| e.to_string())?;
    let label_s = t.elapsed().as_secs_f64();
    Ok(Inputs {
        bundle,
        train,
        test,
        label_s,
    })
}

fn generation(ctx: &Ctx) -> GenerationConfig {
    harness::generation_config(scale(ctx), mix(ctx.seed, 5), JoinKeyStrategy::GroupAndMerge)
}

/// Q-Errors of the held-out queries on `generated`; every one finite.
fn score(generated: &Database, test: &Workload, rep: &mut Report) {
    let qe: Vec<f64> = test
        .iter()
        .map(|lq| {
            let got = evaluate_cardinality(generated, &lq.query).unwrap_or(0) as f64;
            sam_metrics::q_error(got, lq.cardinality as f64)
        })
        .collect();
    let finite = qe.iter().all(|q| q.is_finite());
    rep.check(
        "qerror_finite",
        finite,
        format!("{} held-out queries", qe.len()),
    );
    rep.metric_n("qerror_p50", quantile(&qe, 0.5), "ratio", qe.len());
    rep.metric_n("qerror_p95", quantile(&qe, 0.95), "ratio", qe.len());
}

/// Referential integrity of a generated database, re-checked from its
/// tables.
fn fk_ok(db: &Database) -> bool {
    Database::new(db.schema().clone(), db.tables().to_vec(), true).is_ok()
}

/// Row-for-row equality of two databases.
pub fn same_db(a: &Database, b: &Database) -> bool {
    a.tables().len() == b.tables().len()
        && a.tables().iter().zip(b.tables()).all(|(x, y)| {
            x.num_rows() == y.num_rows() && (0..x.num_rows()).all(|r| x.row(r) == y.row(r))
        })
}

/// Per-query seeds of the held-out estimates.
fn query_seed(ctx: &Ctx, i: usize) -> u64 {
    mix(ctx.seed, 1000 + i as u64)
}

pub fn run(ctx: &Ctx, rep: &mut Report) -> Result<(), String> {
    rep.info("backend.offline", serde_json::json!("f32"));
    if ctx.trace {
        return run_traced(ctx, rep);
    }
    let mut setups = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        inputs = Some(setup(ctx)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("at least one set-up");
    rep.metric_n("setup_s", median(&setups), "s", setups.len());
    let Inputs {
        bundle,
        train,
        test,
        ..
    } = inputs;
    let config = harness::sam_config(scale(ctx), fixture(4));

    let t = Instant::now();
    let fitted = Sam::fit(bundle.db.schema(), &bundle.stats, &train, &config);
    rep.op(fitted.is_ok());
    let trained = fitted.map_err(|e| e.to_string())?;
    rep.metric("train_s", t.elapsed().as_secs_f64(), "s");

    // Generate twice: the rate is the median, and the repeat must reproduce
    // the first database exactly.
    let gen_config = generation(ctx);
    let mut rates = Vec::new();
    let mut first: Option<Database> = None;
    let mut deterministic = true;
    let mut library = LibraryEstimates::new(&test);
    library.round(ctx, trained.model(), rep);
    for _ in 0..GENERATE_REPS {
        let t = Instant::now();
        let generated = trained.generate(&gen_config);
        rep.op(generated.is_ok());
        let (db, _) = generated.map_err(|e| e.to_string())?;
        let wall = t.elapsed().as_secs_f64();
        let tuples: usize = db.tables().iter().map(|t| t.num_rows()).sum();
        rates.push(tuples as f64 / wall);
        match &first {
            None => first = Some(db),
            Some(f) => deterministic &= same_db(f, &db),
        }
        library.round(ctx, trained.model(), rep);
    }
    library.report(rep, "estimate");
    let generated = first.expect("generated at least once");
    rep.metric_n("generate_rows_per_s", median(&rates), "rows/s", rates.len());
    rep.check(
        "generate_deterministic",
        deterministic,
        format!("{} repeats", rates.len()),
    );
    rep.check("fk_integrity", fk_ok(&generated), "generated database");
    score(&generated, &test, rep);

    rep.info("latency_limit_ms", serde_json::json!(LIMIT_MS));
    rep.metric("peak_rss_mb", self_peak_rss_mb(), "MB");
    Ok(())
}

/// The trained model as a library estimator: one held-out query per call,
/// exactly as `estimate_cardinality` users call it. Every query is timed
/// in several rounds over the whole set and keeps its median, so a burst
/// of host noise costs a query one round at most; the untraced run spreads
/// the rounds over the run, between the generations.
struct LibraryEstimates<'a> {
    queries: Vec<&'a sam_query::Query>,
    times: Vec<Vec<f64>>,
}

impl<'a> LibraryEstimates<'a> {
    fn new(test: &'a Workload) -> Self {
        let queries: Vec<&sam_query::Query> = test
            .iter()
            .take(ESTIMATE_QUERIES)
            .map(|lq| &lq.query)
            .collect();
        LibraryEstimates {
            times: vec![Vec::new(); queries.len()],
            queries,
        }
    }

    /// Time one round over every query.
    fn round(&mut self, ctx: &Ctx, model: &sam_ar::FrozenModel, rep: &mut Report) {
        for (i, q) in self.queries.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(query_seed(ctx, i));
            let t = Instant::now();
            let est = estimate_cardinality(model, q, SAMPLES, &mut rng);
            self.times[i].push(t.elapsed().as_secs_f64() * 1e3);
            rep.op(est.as_ref().is_ok_and(|e| e.is_finite()));
        }
    }

    /// Report `{prefix}_p50_ms`, `{prefix}_p90_ms` and the goodput share.
    fn report(&self, rep: &mut Report, prefix: &str) {
        let lat: Vec<f64> = self.times.iter().map(|r| median(r)).collect();
        rep.metric_n(
            &format!("{prefix}_p50_ms"),
            quantile(&lat, 0.5),
            "ms",
            lat.len(),
        );
        rep.metric_n(
            &format!("{prefix}_p90_ms"),
            quantile(&lat, 0.9),
            "ms",
            lat.len(),
        );
        let good = lat.iter().filter(|&&l| l <= LIMIT_MS).count();
        rep.metric(
            "estimate_goodput_share",
            good as f64 / lat.len() as f64,
            "share",
        );
        rep.info("latency_limit_ms", serde_json::json!(LIMIT_MS));
    }
}

fn counter(name: &str) -> f64 {
    sam_obs::counter(name).get() as f64
}

/// Traced run: the same pipeline split at each layer's public functions.
fn run_traced(ctx: &Ctx, rep: &mut Report) -> Result<(), String> {
    let inputs = setup(ctx)?;
    rep.metric("query.label_s", inputs.label_s, "s");
    let Inputs {
        bundle,
        train,
        test,
        ..
    } = inputs;
    let config = harness::sam_config(scale(ctx), fixture(4));

    let t = Instant::now();
    let trained = traced_fit(bundle.db.schema(), &bundle.stats, &train, &config, rep)?;
    rep.metric("traced.train_s", t.elapsed().as_secs_f64(), "s");

    let whole = crate::serve::inprocess_generation(rep, &trained, &generation(ctx))?;
    rep.op(true);
    rep.check("fk_integrity", fk_ok(&whole), "generated database");
    score(&whole, &test, rep);

    traced_estimates(ctx, &trained, &test, rep);
    let mut library = LibraryEstimates::new(&test);
    for _ in 0..ESTIMATE_ROUNDS {
        library.round(ctx, trained.model(), rep);
    }
    library.report(rep, "traced.estimate");
    tier_probe(ctx, &bundle.db, &trained, &train, &test, rep)?;
    rep.metric("peak_rss_mb", self_peak_rss_mb(), "MB");
    Ok(())
}

/// `Sam::fit` split at its public pieces: the schema build, then
/// `train_observed` with per-epoch times and matmul counter deltas. The
/// model is the one `Sam::fit` trains.
pub fn traced_fit(
    db_schema: &sam_storage::DatabaseSchema,
    stats: &sam_storage::DatabaseStats,
    train: &Workload,
    config: &sam_core::SamConfig,
    rep: &mut Report,
) -> Result<TrainedSam, String> {
    let queries: Vec<sam_query::Query> = train.iter().map(|lq| lq.query.clone()).collect();
    let t = Instant::now();
    let ar_schema =
        ArSchema::build(db_schema, stats, &queries, &config.encoding).map_err(|e| e.to_string())?;
    rep.metric("ar.schema_build_s", t.elapsed().as_secs_f64(), "s");
    let mut model = ArModel::new(ar_schema, &config.model);
    let (calls0, flops0) = (
        counter("sam_nn_matmul_total"),
        counter("sam_nn_matmul_flops_total"),
    );
    let mut epochs = Vec::new();
    let mut last = Instant::now();
    let start = last;
    let report = train_observed(&mut model, train, &config.train, &mut |_| {
        epochs.push(last.elapsed().as_secs_f64());
        last = Instant::now();
        TrainControl::Continue
    })
    .map_err(|e| e.to_string())?;
    let wall = start.elapsed().as_secs_f64();
    rep.op(true);
    rep.metric_n("ar.train.epoch_s", median(&epochs), "s", epochs.len());
    rep.metric(
        "ar.train.queries_per_s",
        (train.len() * config.train.epochs) as f64 / wall,
        "1/s",
    );
    rep.metric(
        "nn.matmul_calls",
        counter("sam_nn_matmul_total") - calls0,
        "count",
    );
    rep.metric(
        "nn.matmul_flops",
        counter("sam_nn_matmul_flops_total") - flops0,
        "count",
    );
    Ok(Sam::from_frozen(db_schema.clone(), model.freeze(), report))
}

/// `ar.estimate_ms` on the held-out queries (the shared-trie path the
/// server runs), spot-checked bit-identical to plain
/// `estimate_cardinality`, with the in-process inference counters.
fn traced_estimates(ctx: &Ctx, trained: &TrainedSam, test: &Workload, rep: &mut Report) {
    let names = [
        "sam_forward_total",
        "sam_trie_hits_total",
        "sam_dedup_hits_total",
    ];
    let requests: Vec<(sam_query::Query, u64)> = test
        .iter()
        .take(ESTIMATE_QUERIES)
        .enumerate()
        .map(|(i, lq)| (lq.query.clone(), query_seed(ctx, i)))
        .collect();
    let before: Vec<f64> = names.iter().map(|n| counter(n)).collect();
    let shared = crate::serve::inprocess_estimates(rep, trained.model(), &requests);
    let after: Vec<f64> = names.iter().map(|n| counter(n)).collect();
    let identical = requests
        .iter()
        .zip(&shared)
        .take(20)
        .all(|((q, seed), got)| {
            let mut rng = StdRng::seed_from_u64(*seed);
            let plain = estimate_cardinality(trained.model(), q, SAMPLES, &mut rng);
            matches!((got, plain), (Some(a), Ok(b)) if a.to_bits() == b.to_bits())
        });
    rep.check(
        "trie_estimates_bit_identical",
        identical,
        "shared trie vs estimate_cardinality, first 20 queries",
    );
    rep.metric("ar.forwards", after[0] - before[0], "count");
    rep.metric("ar.trie_hits", after[1] - before[1], "count");
    rep.metric("ar.dedup_hits", after[2] - before[2], "count");
}

/// Serving-layer attribution for this workload's model: the untraced run
/// never starts a server, so the traced run brings up a router with one
/// worker on the trained model and runs a short session — held-out queries
/// open-loop, a small `/generate` + `/train` under that traffic, and the
/// HTTP, cache-hit and proxy probes.
fn tier_probe(
    ctx: &Ctx,
    db: &Database,
    trained: &TrainedSam,
    train: &Workload,
    test: &Workload,
    rep: &mut Report,
) -> Result<(), String> {
    let spec = crate::serve::write_model(ctx, "imdb", db, trained)?;
    let tier = Tier::routed(ctx, &ctx.work, &spec)?;
    let bodies: Vec<String> = test
        .iter()
        .enumerate()
        .map(|(i, lq)| estimate_body("imdb", &lq.query.to_string(), SAMPLES, query_seed(ctx, i)))
        .collect();
    tier.wait_ready(&bodies[0])?;
    let rate = 20.0;
    let n = ((ctx.seconds * 0.25 * rate) as usize).clamp(10, bodies.len() / 2);
    let small = Workload::new(train.queries[..train.len().min(200)].to_vec());
    let generate = serde_json::json!({"model": "imdb", "foj_samples": 2000u64, "seed": 7u64});
    let s = crate::serve::session(
        &tier,
        rate,
        &[],
        &bodies[..n],
        &bodies[n..],
        &generate.to_string(),
        (
            "/train?model=imdb&epochs=1&hidden=16&eval_samples=16",
            &sam_query::format_workload(&small),
        ),
    );
    crate::serve::phase_b_metrics(rep, &s, LIMIT_MS);
    crate::serve::job_results(&s.jobs, rep, false, true);
    crate::serve::session_layers(ctx, rep, &tier, &s, &spec, &bodies[0])
}
