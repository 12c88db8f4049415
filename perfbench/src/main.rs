//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```sh
//! perfbench --workload online|saturated|fit --seed N --seconds S --trace 0|1
//!           --server-bin PATH [--commit REV]
//! ```
//!
//! `perfbench/run.py` builds the release binaries and calls this; see
//! `perfbench/README.md` for the workloads and every metric. The last line
//! of standard output is the result: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The line before it
//! records the run's context.

mod fitting;
mod probe;
mod report;
mod schedule;
mod server;
mod serving;
mod stats;
mod traced;
mod workload;

use probe::{Measured, Window};
use report::Report;
use stats::{median, quantile};
use std::path::PathBuf;
use std::time::Duration;
use tsg_serve::json::Json;
use workload::{Kind, Workload};

/// Set-ups before and again after the measured phase of an untraced run;
/// `setup_s` is the median of all of them. One set-up takes a fraction of a
/// second, so a handful at each end of the run keeps a brief slow stretch
/// of a shared machine from setting the median.
const SETUP_REPEATS: usize = 5;

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub span: Duration,
    pub trace: bool,
    pub server_bin: PathBuf,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut server_bin = None;
    let mut commit = "unknown".to_string();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let value = argv
            .get(i + 1)
            .cloned()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("`{flag}` expects a number"))
        };
        match flag {
            "--workload" => {
                workload = Some(
                    workload::by_name(&value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(number(&value)?),
            "--seconds" => seconds = Some(number(&value)?.max(1)),
            "--trace" => trace = number(&value)? != 0,
            "--server-bin" => server_bin = Some(PathBuf::from(value)),
            "--commit" => commit = value,
            other => return Err(format!("unknown flag `{other}`")),
        }
        i += 2;
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        span: Duration::from_secs(seconds.ok_or("--seconds is required")?),
        trace,
        server_bin: server_bin.ok_or("--server-bin is required")?,
        commit,
    })
}

/// Facts about a run that are not metrics, for its context line.
pub type Notes = Vec<(&'static str, Json)>;

/// Sets the time-based metrics of a run, and returns notes of its probe
/// readings and of the values as measured.
///
/// Set-up time and CPU per series are compute-bound in every workload, and
/// so are the latency and throughput of a closed loop (`saturated`, `fit`),
/// which runs flat out. Those are reported at the probe's reference speed:
/// each window's by its own probe reading, the set-ups by the median of all
/// the run's probe blocks (a single block is too short a reading to stand
/// for set-ups up to a run's length away). `online`'s latency is mostly
/// its batching timer and its throughput is its schedule's, so both stay
/// as measured.
fn set_time_metrics(
    report: &mut Report,
    kind: Kind,
    measured: &Measured,
    setup_s: &[f64],
    done_s: &[f64],
    latencies_ms: &[f64],
) -> Notes {
    let windows = &measured.windows;
    let blocks = &measured.blocks_us;
    let setup_s = median(setup_s);
    let load_scale = |w: &Window| match kind {
        Kind::Online => 1.0,
        Kind::Saturated | Kind::Fit => w.scale(),
    };
    let latencies = probe::scaled(windows, done_s, latencies_ms, load_scale);
    let (series_per_s, _) = probe::rates(windows, load_scale);
    let (_, cpu_ms_per_series) = probe::rates(windows, Window::scale);
    report.set("setup_s", setup_s * probe::REFERENCE_US / median(blocks));
    report.set("latency_p50_ms", median(&latencies));
    report.set("latency_p90_ms", quantile(&latencies, 0.9));
    report.set("series_per_s", series_per_s);
    report.set("cpu_ms_per_series", cpu_ms_per_series);

    let as_measured = probe::scaled(windows, done_s, latencies_ms, |_| 1.0);
    let (series_per_s, cpu_ms_per_series) = probe::rates(windows, |_| 1.0);
    vec![
        ("windows", Json::Num(windows.len() as f64)),
        ("probe_blocks_us", Json::nums(blocks.iter().copied())),
        (
            "as_measured",
            Json::obj(vec![
                ("setup_s", Json::Num(setup_s)),
                ("latency_p50_ms", Json::Num(median(&as_measured))),
                ("latency_p90_ms", Json::Num(quantile(&as_measured, 0.9))),
                ("series_per_s", Json::Num(series_per_s)),
                ("cpu_ms_per_series", Json::Num(cpu_ms_per_series)),
            ]),
        ),
    ]
}

fn untraced_serving(args: &Args) -> Result<(Report, Notes), String> {
    let w = &args.workload;
    let ready = serving::set_up(w, args.seed, &args.server_bin, SETUP_REPEATS)?;
    let reference = w.fit_model(&ready.inputs.train, args.seed)?;
    let labels = reference
        .predict(&ready.inputs.test)
        .map_err(|e| format!("reference predict: {e}"))?;
    let phase = serving::load_phase(w, &ready, &labels, args.seed, args.span)?;
    let peak_rss_mb = ready.server.peak_rss_mb().map_err(|e| e.to_string())?;
    ready
        .server
        .shutdown()
        .map_err(|e| format!("stopping the server: {e}"))?;
    let after = serving::set_up(w, args.seed, &args.server_bin, SETUP_REPEATS)?;
    after
        .server
        .shutdown()
        .map_err(|e| format!("stopping a set-up server: {e}"))?;
    let setup_s = [ready.setup_s, after.setup_s].concat();
    let mut report = Report {
        correct: phase.failed == 0 && phase.series_ok > 0 && !phase.generator_late,
        attempted: phase.attempted,
        failed: phase.failed,
        ..Report::default()
    };
    let mut notes = set_time_metrics(
        &mut report,
        w.kind,
        &phase.measured,
        &setup_s,
        &phase.done_s,
        &phase.latencies_ms,
    );
    report.set("peak_rss_mb", peak_rss_mb);
    notes.extend([
        ("setup_runs_s", Json::nums(setup_s)),
        ("requests", Json::Num(phase.attempted as f64)),
        ("test_error", Json::Num(phase.test_error())),
        (
            "batch_size_mean",
            Json::Num(tsg_ts::stats::mean(&phase.batch_sizes)),
        ),
        (
            "loadgen_late_p90_ms",
            Json::Num(quantile(&phase.late_ms, 0.9)),
        ),
        (
            "first_failure",
            phase.first_failure.map(Json::Str).unwrap_or(Json::Null),
        ),
    ]);
    Ok((report, notes))
}

fn untraced_fit(args: &Args) -> Result<(Report, Notes), String> {
    let w = &args.workload;
    let (train, test, reference, before_s) = fitting::set_up(w, args.seed, SETUP_REPEATS)?;
    let ops = fitting::run_ops(w, &train, &test, &reference, args.seed, args.span)?;
    let (_, _, again, after_s) = fitting::set_up(w, args.seed, SETUP_REPEATS)?;
    if again != reference {
        return Err("the set-ups before and after the measured ops disagree".into());
    }
    let setup_s = [before_s, after_s].concat();
    let ok = ops.latencies_ms.len();
    let mut report = Report {
        correct: ops.failed == 0 && ok > 0,
        attempted: ok + ops.failed,
        failed: ops.failed,
        ..Report::default()
    };
    let mut notes = set_time_metrics(
        &mut report,
        w.kind,
        &ops.measured,
        &setup_s,
        &ops.done_s,
        &ops.latencies_ms,
    );
    report.set(
        "peak_rss_mb",
        server::peak_rss_mb("/proc/self/status").map_err(|e| e.to_string())?,
    );
    notes.extend([
        ("setup_runs_s", Json::nums(setup_s)),
        ("ops", Json::Num((ok + ops.failed) as f64)),
        (
            "test_error",
            Json::Num(fitting::test_error(&test, &reference.predictions)),
        ),
        (
            "loadgen_late_p90_ms",
            Json::Num(quantile(&ops.late_ms, 0.9)),
        ),
        (
            "first_failure",
            ops.first_failure.map(Json::Str).unwrap_or(Json::Null),
        ),
    ]);
    Ok((report, notes))
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match (args.trace, args.workload.kind) {
        (false, Kind::Fit) => untraced_fit(&args),
        (false, _) => untraced_serving(&args),
        (true, Kind::Fit) => traced::fit(&args),
        (true, _) => traced::serving(&args),
    };
    let (report, notes) = match outcome {
        Ok(done) => done,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name);
            std::process::exit(1);
        }
    };
    let names = if args.trace {
        &report::PER_LAYER[..]
    } else {
        &report::END_TO_END[..]
    };
    let line = match report.json_line(names) {
        Ok(line) => line,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut context = vec![
        ("workload", Json::Str(args.workload.name.into())),
        ("params", Json::Str(args.workload.describe())),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.span.as_secs_f64())),
        ("traced", Json::Bool(args.trace)),
        ("nproc", Json::Num(nproc as f64)),
        ("commit", Json::Str(args.commit.clone())),
    ];
    context.extend(notes);
    println!(
        "{}",
        Json::obj(vec![("context", Json::obj(context))]).write()
    );
    println!("{line}");
}
