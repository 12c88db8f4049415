//! `tsg-serve` — the batching classification server binary.
//!
//! ```sh
//! tsg-serve [--addr 127.0.0.1:7878] [--threads N] [--max-batch 32]
//!           [--queue-depth 256]
//!           [--preload NAME[,NAME...]] [--config fast|paper|uvg-fast|wide]
//!           [--prune K] [--max-instances N] [--max-length N] [--seed N]
//!           [--snapshot-dir DIR] [--request-budget-ms N]
//!           [--trace-capacity N]
//! ```
//!
//! `--preload` fits the named catalogue datasets before the listener starts
//! serving (model name = dataset name). `--addr 127.0.0.1:0` binds an
//! ephemeral port; the actual address is printed on the `listening on` line,
//! which scripts (and the CI smoke test) parse. Stop the server with
//! `POST /shutdown`.
//!
//! `--snapshot-dir` enables crash-safe model persistence: every successful
//! fit writes a hash-verified snapshot, the boot sequence warm-restarts from
//! whatever valid snapshots exist (skipping the refit for preloads already
//! restored), and corrupt snapshots are detected, reported and refitted —
//! never served.

use std::time::Duration;
use tsg_serve::registry::TrainingSource;
use tsg_serve::server::{ServeConfig, Server};

struct Args {
    serve: ServeConfig,
    preload: Vec<String>,
    config_name: String,
    seed: u64,
    prune: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        serve: ServeConfig::default(),
        preload: Vec::new(),
        config_name: "fast".to_string(),
        seed: 7,
        prune: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("flag `{}` needs a value", argv[*i - 1]))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--addr" => args.serve.addr = value(&mut i)?,
            "--threads" => {
                args.serve.n_threads = value(&mut i)?
                    .parse()
                    .map_err(|_| "--threads expects a number".to_string())?
            }
            "--max-batch" => {
                args.serve.batch.max_batch = value(&mut i)?
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| "--max-batch expects a positive number".to_string())?
            }
            "--queue-depth" => {
                args.serve.batch.queue_depth = value(&mut i)?
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| "--queue-depth expects a positive number".to_string())?
            }
            "--preload" => {
                args.preload
                    .extend(value(&mut i)?.split(',').map(|s| s.trim().to_string()));
            }
            "--config" => args.config_name = value(&mut i)?,
            "--prune" => {
                args.prune = Some(
                    value(&mut i)?
                        .parse::<usize>()
                        .ok()
                        .filter(|&k| k >= 1)
                        .ok_or_else(|| "--prune expects a positive number".to_string())?,
                );
            }
            "--max-instances" => {
                let n: usize = value(&mut i)?
                    .parse()
                    .map_err(|_| "--max-instances expects a number".to_string())?;
                args.serve.archive.max_train = n;
                args.serve.archive.max_test = n;
            }
            "--max-length" => {
                args.serve.archive.max_length = value(&mut i)?
                    .parse()
                    .map_err(|_| "--max-length expects a number".to_string())?
            }
            "--seed" => {
                args.seed = value(&mut i)?
                    .parse()
                    .map_err(|_| "--seed expects a number".to_string())?;
                args.serve.archive.seed = args.seed;
            }
            "--snapshot-dir" => {
                args.serve.snapshot_dir = Some(std::path::PathBuf::from(value(&mut i)?));
            }
            "--request-budget-ms" => {
                let ms: u64 = value(&mut i)?
                    .parse::<u64>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| "--request-budget-ms expects a positive number".to_string())?;
                args.serve.request_budget = Duration::from_millis(ms);
            }
            "--trace-capacity" => {
                args.serve.trace_capacity = value(&mut i)?
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| "--trace-capacity expects a positive number".to_string())?
            }
            "--help" | "-h" => {
                println!(
                    "tsg-serve: batching classification server\n\n\
                     flags:\n  \
                     --addr HOST:PORT    bind address (default 127.0.0.1:7878; port 0 = ephemeral)\n  \
                     --threads N         extraction pool workers (0 = process default)\n  \
                     --max-batch N       max series per micro-batch (default 32)\n  \
                     --queue-depth N     queued series before 429 backpressure (default 256)\n  \
                     --preload A,B,...   fit catalogue datasets before serving\n  \
                     --config NAME       preset for preloads: fast | paper | uvg-fast | wide (default fast)\n  \
                     --prune K           preloads: fit wide, keep the K most important features, refit\n  \
                     --max-instances N   dataset budget for catalogue fits\n  \
                     --max-length N      series length budget for catalogue fits\n  \
                     --seed N            fit seed (default 7)\n  \
                     --snapshot-dir DIR  crash-safe model snapshots + warm restart on boot\n  \
                     --request-budget-ms N  mid-request stall budget before 408 (default 30000)\n  \
                     --trace-capacity N  flight-recorder slots for /debug/traces (default 256)\n\n\
                     env:\n  \
                     TSG_LOG=error|warn|info|debug|trace|off  structured log level (default info)"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}` (try --help)")),
        }
        i += 1;
    }
    Ok(args)
}

fn main() {
    tsg_trace::log::init_from_env();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let server = match Server::bind(args.serve.clone()) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: failed to bind {}: {e}", args.serve.addr);
            std::process::exit(1);
        }
    };
    if args.serve.snapshot_dir.is_some() {
        let restored = server.registry().warm_restart();
        if restored > 0 {
            println!("warm restart: restored {restored} model(s) from snapshots");
        }
    }
    for name in &args.preload {
        // a warm-restarted model satisfies its preload — skip the refit
        // (the snapshot restores bit-identical predictions, proven by
        // tests/chaos.rs)
        if server.registry().get(name).is_ok() {
            println!("preload `{name}` already restored from snapshot");
            continue;
        }
        let source = TrainingSource::Catalogue {
            dataset: name.clone(),
            options: args.serve.archive,
        };
        let fit = match args.prune {
            None => server
                .registry()
                .fit(name, source, &args.config_name, args.seed),
            Some(k) => server
                .registry()
                .fit_pruned(name, source, &args.config_name, args.seed, k),
        };
        match fit {
            Ok(info) => println!(
                "fitted model `{name}` ({} config{}, {} train series, {} classes, {} features) in {:.2} s",
                info.config,
                if info.features.is_some() { ", pruned" } else { "" },
                info.n_train, info.n_classes, info.n_features, info.fit_seconds
            ),
            Err(e) => {
                eprintln!("error: preload of `{name}` failed: {e}");
                std::process::exit(1);
            }
        }
    }
    let addr = server.local_addr().expect("listener has an address");
    let batch = args.serve.batch;
    println!(
        "tsg-serve listening on http://{addr} (max batch {}, queue depth {})",
        batch.max_batch, batch.queue_depth
    );
    // line-buffered stdout under redirection: flush so the CI smoke test can
    // grep the address before the first request arrives
    use std::io::Write;
    let _ = std::io::stdout().flush();
    if let Err(e) = server.run() {
        eprintln!("error: server failed: {e}");
        std::process::exit(1);
    }
    println!("tsg-serve stopped cleanly");
}
