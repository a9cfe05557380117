//! The repository benchmark.
//!
//! ```text
//! perfbench --workload offline-imdb|serve-cold|serve-skewed --seed N \
//!           --seconds S --trace 0|1 --sam-cli PATH [--smoke]
//! perfbench --self-test --sam-cli PATH
//! ```
//!
//! `perfbench/run.py` builds the program and this binary from source and
//! passes `--sam-cli`. Inputs are derived from `--seed` alone. With
//! `--trace 0` the result line carries every end-to-end metric, with
//! `--trace 1` every per-layer metric (see `perfbench/README.md`). The
//! last line of standard output is the result object; the exit code is 0
//! whenever a result was printed, non-zero otherwise.

mod http;
mod load;
mod offline;
mod report;
mod serve;
mod stats;
mod tier;
mod tier_session;

use report::Report;
use serde_json::{json, Value};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// End-to-end metrics (untraced runs), with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("train_s", "s"),
    ("generate_rows_per_s", "rows/s"),
    ("estimate_p50_ms", "ms"),
    ("estimate_p90_ms", "ms"),
    ("estimate_goodput_share", "share"),
    ("qerror_p50", "ratio"),
    ("qerror_p95", "ratio"),
];

/// Per-layer metrics (traced runs), with units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("query.label_s", "s"),
    ("ar.schema_build_s", "s"),
    ("ar.train.epoch_s", "s"),
    ("ar.train.queries_per_s", "1/s"),
    ("nn.matmul_calls", "count"),
    ("nn.matmul_flops", "count"),
    ("ar.sample_s", "s"),
    ("core.weights_s", "s"),
    ("core.group_merge_s", "s"),
    ("core.assemble_s", "s"),
    ("generate.residual_s", "s"),
    ("ar.estimate_ms", "ms"),
    ("ar.forwards", "count"),
    ("ar.trie_hits", "count"),
    ("ar.dedup_hits", "count"),
    ("serve.server_ms_p50", "ms"),
    ("serve.server_ms_p99", "ms"),
    ("client.wait_ms", "ms"),
    ("serve.cache_hit_ratio", "share"),
    ("serve.hit_ms_p50", "ms"),
    ("serve.miss_ms_p50", "ms"),
    ("serve.http_ms", "ms"),
    ("router.proxy_ms", "ms"),
    ("serve.batch_size_mean", "requests"),
    ("serve.during_jobs_p95_ms", "ms"),
    ("train.epochs_s", "s"),
    ("train.eval_s", "s"),
    ("generate.job_s", "s"),
    ("export.s", "s"),
    ("router.retries", "count"),
    ("router.upstream_errors", "count"),
    ("gen.lag_ms", "ms"),
    ("traced.train_s", "s"),
    ("traced.estimate_p50_ms", "ms"),
    ("traced.estimate_p90_ms", "ms"),
];

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["offline-imdb", "serve-cold", "serve-skewed"];

/// Progressive-sampling paths per estimate, every workload.
pub const SAMPLES: usize = 64;

/// A run's configuration.
pub struct Ctx {
    /// The `sam-cli` binary under test.
    pub sam_cli: PathBuf,
    /// Workload seed.
    pub seed: u64,
    /// Measurement window, seconds.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
    /// Small inputs for the self-test.
    pub smoke: bool,
    /// Scratch directory inside the checkout, removed at exit.
    pub work: PathBuf,
}

fn arg(args: &[String], key: &str) -> Option<String> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let Some(sam_cli) = arg(&args, "--sam-cli").map(PathBuf::from) else {
        eprintln!("perfbench: --sam-cli PATH is required");
        std::process::exit(2);
    };
    if args.iter().any(|a| a == "--self-test") {
        std::process::exit(self_test(&args[0], &sam_cli));
    }
    let workload = arg(&args, "--workload").unwrap_or_default();
    if !WORKLOADS.contains(&workload.as_str()) {
        eprintln!("perfbench: --workload must be one of {WORKLOADS:?}");
        std::process::exit(2);
    }
    let parse = |key: &str, default: &str| arg(&args, key).unwrap_or_else(|| default.to_string());
    let (Ok(seed), Ok(seconds), Ok(trace)) = (
        parse("--seed", "0").parse::<u64>(),
        parse("--seconds", "20").parse::<f64>(),
        parse("--trace", "0").parse::<u8>(),
    ) else {
        eprintln!("perfbench: --seed, --seconds and --trace take numbers");
        std::process::exit(2);
    };
    let work = PathBuf::from(".bench_work").join(format!("{workload}-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: create {}: {e}", work.display());
        std::process::exit(2);
    }
    let work = work.canonicalize().unwrap_or(work);
    let ctx = Ctx {
        sam_cli: sam_cli.canonicalize().unwrap_or(sam_cli),
        seed,
        seconds: seconds.max(1.0),
        trace: trace == 1,
        smoke: args.iter().any(|a| a == "--smoke"),
        work,
    };
    watchdog(ctx.work.clone());

    let mut rep = Report::default();
    let steal_before = cpu_times();
    let outcome = match workload.as_str() {
        "offline-imdb" => offline::run(&ctx, &mut rep),
        "serve-cold" => serve::run_cold(&ctx, &mut rep),
        _ => serve::run_skewed(&ctx, &mut rep),
    };
    tier::kill_all();
    let _ = std::fs::remove_dir_all(&ctx.work);
    if let Err(e) = outcome {
        eprintln!("perfbench: {workload}: {e}");
        std::process::exit(1);
    }
    record_environment(&ctx, &workload, &mut rep);
    // Time the hypervisor gave to other guests during the run: the first
    // thing to look at when one run reads slow across the board.
    if let (Some((s0, t0)), Some((s1, t1))) = (steal_before, cpu_times()) {
        rep.info(
            "host_steal_share",
            json!((s1 - s0) as f64 / (t1 - t0).max(1) as f64),
        );
    }
    rep.check(
        "operations_attempted",
        rep.attempted > 0,
        format!("{} attempted", rep.attempted),
    );
    rep.restrict_to(if ctx.trace { PER_LAYER } else { END_TO_END });
    rep.print();
}

/// Give up (stopping every child process) well inside the 180 s budget.
fn watchdog(work: PathBuf) {
    std::thread::spawn(move || {
        std::thread::sleep(Duration::from_secs(170));
        eprintln!("perfbench: watchdog: run exceeded 170 s, stopping");
        tier::kill_all();
        let _ = std::fs::remove_dir_all(&work);
        std::process::exit(3);
    });
}

/// `(steal, total)` jiffies of all CPUs from `/proc/stat`.
fn cpu_times() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Host cores, rayon threads, build identity: recorded with every result.
fn record_environment(ctx: &Ctx, workload: &str, rep: &mut Report) {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    rep.info("workload", json!(workload));
    rep.info("seed", json!(ctx.seed));
    rep.info("seconds", json!(ctx.seconds));
    rep.info("trace", json!(ctx.trace));
    rep.info("host_cores", json!(cores as u64));
    rep.info(
        "rayon_num_threads",
        json!(std::env::var("RAYON_NUM_THREADS").unwrap_or_else(|_| "unset".into())),
    );
    rep.info("load_connections", json!(tier_session::load_conns() as u64));
    let commit = std::env::var("SAM_BENCH_COMMIT").unwrap_or_else(|_| "unknown".into());
    rep.info("commit", json!(commit));
}

/// Run every workload at smoke size in both modes as a child process and
/// check the result line against `BENCHMARK.json`: every named metric is
/// present with its unit, every correctness check passed.
fn self_test(me: &str, sam_cli: &Path) -> i32 {
    let spec = match std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| e.to_string())
        .and_then(|t| serde_json::parse_value(&t).map_err(|e| e.to_string()))
    {
        Ok(v) => v,
        Err(e) => {
            eprintln!("self-test: read BENCHMARK.json: {e}");
            return 1;
        }
    };
    let listed = |key: &str| -> Vec<(String, String)> {
        spec.get(key)
            .and_then(Value::as_array)
            .map(|ms| {
                ms.iter()
                    .map(|m| {
                        let s =
                            |k: &str| m.get(k).and_then(Value::as_str).unwrap_or("").to_string();
                        (s("name"), s("unit"))
                    })
                    .collect()
            })
            .unwrap_or_default()
    };
    let mut failures = 0;
    for (mode, list, key) in [(0, END_TO_END, "end_to_end"), (1, PER_LAYER, "per_layer")] {
        let want: Vec<(String, String)> = list
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        if listed(key) != want {
            eprintln!("self-test: BENCHMARK.json {key} differs from the binary's list");
            failures += 1;
        }
        for workload in WORKLOADS {
            let out = std::process::Command::new(me)
                .args([
                    "--workload",
                    workload,
                    "--seed",
                    "1",
                    "--seconds",
                    "2",
                    "--trace",
                ])
                .arg(mode.to_string())
                .args(["--smoke", "--sam-cli"])
                .arg(sam_cli)
                .output();
            let line = out
                .as_ref()
                .ok()
                .filter(|o| o.status.success())
                .and_then(|o| {
                    String::from_utf8_lossy(&o.stdout)
                        .lines()
                        .last()
                        .map(str::to_string)
                })
                .unwrap_or_default();
            let result = serde_json::parse_value(&line).unwrap_or(Value::Null);
            let metrics = result.get("metrics");
            let missing: Vec<&String> = want
                .iter()
                .filter(|(name, unit)| {
                    let m = metrics.and_then(|m| m.get(name));
                    m.and_then(|m| m.get("unit")).and_then(Value::as_str) != Some(unit.as_str())
                        || m.and_then(|m| m.get("value"))
                            .and_then(Value::as_f64)
                            .is_none()
                })
                .map(|(name, _)| name)
                .collect();
            let correct = result.get("correct").and_then(Value::as_bool) == Some(true);
            let ok = correct && missing.is_empty();
            println!(
                "self-test {workload:<13} trace={mode}: {} (correct={correct}, missing={missing:?})",
                if ok { "ok" } else { "FAIL" }
            );
            if !ok {
                failures += 1;
                if let Ok(o) = &out {
                    eprintln!("{}", String::from_utf8_lossy(&o.stdout));
                    eprintln!("{}", String::from_utf8_lossy(&o.stderr));
                }
            }
        }
    }
    i32::from(failures > 0)
}
