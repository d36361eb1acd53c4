//! Runs one benchmark workload and prints its result.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload knn_inproc --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is the result: `correct`, `attempted`,
//! `failed` and the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`). A traced run also writes the per-layer metrics
//! with their provenance, and a Chrome trace of its spans, to
//! `perfbench/out/`.

use std::process::ExitCode;

use nncell_perfbench::{out_dir, run, Workload, END_TO_END, PER_LAYER};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let params = args.workload.params(args.seconds);
    let provenance = params.provenance(args.seed);
    println!("{{\"provenance\":{provenance}}}");
    let outcome = match run(&params, args.seed, args.trace) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    let t = &outcome.tally;
    if let Some(f) = &t.first_failure {
        eprintln!("perfbench: first failure: {f}");
    }
    eprintln!(
        "perfbench: {} attempted, {} failed, {} answers checked",
        t.attempted, t.failed, t.checked
    );
    let metrics = if args.trace {
        let json = outcome.per_layer.to_json(PER_LAYER);
        let stem = format!("{}-seed{}", args.workload.name(), args.seed);
        let dir = out_dir();
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| {
                std::fs::write(
                    dir.join(format!("{stem}-layers.json")),
                    format!("{{\"provenance\":{provenance},\"metrics\":{json}}}\n"),
                )
            })
            .and_then(|()| match &outcome.chrome_trace {
                Some(c) => std::fs::write(dir.join(format!("{stem}-trace.json")), c),
                None => Ok(()),
            });
        if let Err(e) = written {
            eprintln!("perfbench: writing traced-run outputs: {e}");
            return ExitCode::FAILURE;
        }
        json
    } else {
        outcome.end_to_end.to_json(END_TO_END)
    };
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{metrics}}}",
        t.failed == 0 && t.checked > 0,
        t.attempted,
        t.failed
    );
    ExitCode::SUCCESS
}
