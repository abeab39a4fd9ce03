//! `qdm-e2e-bench`: the repository's end-to-end benchmark.
//!
//! One command runs one workload for one seed. It generates the workload's
//! seeded stream of Table I jobs ([`stream`]), drives it through the public
//! `qdm_runtime` API from one client thread ([`drive`]), checks every
//! delivered result and the runtime's ledger ([`check`]), and prints every
//! metric by name and unit ([`metrics`]). The last line of standard output
//! is one JSON object with the keys `correct`, `attempted`, `failed` and
//! `metrics`.
//!
//! - `--trace 0` runs the stream with tracing disabled over the standard
//!   registry and reports the end-to-end metrics.
//! - `--trace 1` runs the same stream twice, untraced and then traced
//!   ([`layers`]), and reports the per-layer metrics, the tracing overhead
//!   between the two runs, and the verdicts on the hypotheses the benchmark
//!   was built to test.
//!
//! The exit code is 0 when every check passed, 1 when a check failed (the
//! result line is still printed, with `"correct": false`), and 2 when the
//! arguments are wrong or the run could not be set up.

mod check;
mod drive;
mod layers;
mod metrics;
mod stream;
mod workload;

use layers::Tracing;
use metrics::Metric;
use workload::Workload;

const USAGE: &str = "usage: qdm-e2e-bench --workload <hot-resubmit|cold-large|tenant-mix> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Set-ups timed per run; `setup_s` is their median. The traced and
/// untraced runs of `--trace 1` repeat the same set-ups, so both measure an
/// equally warmed process.
const SETUP_REPS: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    let parsed = Workload::parse(&value);
                    workload = Some(parsed.ok_or_else(|| format!("unknown workload {value:?}"))?);
                }
                "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
                "--seconds" => {
                    seconds = value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| format!("bad seconds {value:?}"))?;
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad trace {value:?}")),
                    };
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        Ok(Self { workload, seed, seconds, trace })
    }
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("qdm-e2e-bench: {msg}\n{USAGE}");
            std::process::exit(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let outcome = if args.trace { per_layer(&args) } else { end_to_end(&args) };
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(msg) => {
            eprintln!("qdm-e2e-bench: {msg}");
            std::process::exit(2);
        }
    }
}

/// One untraced run: the end-to-end metrics.
fn end_to_end(args: &Args) -> Result<bool, String> {
    let config = args.workload.config();
    let run = drive::run(&config, args.seed, args.seconds, SETUP_REPS, None)?;
    let checks = check::run(&run);
    run.composition.print();
    checks.print("run");
    Ok(finish(checks.attempted, checks.failed, &metrics::end_to_end(&run, &checks)))
}

/// An untraced and a traced run of the same stream: the per-layer metrics.
fn per_layer(args: &Args) -> Result<bool, String> {
    let config = args.workload.config();
    let plain = drive::run(&config, args.seed, args.seconds, SETUP_REPS, None)?;
    let plain_checks = check::run(&plain);
    let tracing = Tracing::default();
    let traced = drive::run(&config, args.seed, args.seconds, SETUP_REPS, Some(&tracing))?;
    let traced_checks = check::run(&traced);
    let fidelity = check::fidelity(&plain, &traced);
    traced.composition.print();
    plain_checks.print("untraced run");
    traced_checks.print("traced run");
    fidelity.print();
    let layers = metrics::per_layer(&plain, &traced);
    metrics::print_hypotheses(args.workload, &layers);
    let attempted = plain_checks.attempted + traced_checks.attempted;
    let failed = plain_checks.failed + traced_checks.failed + fidelity.mismatches;
    Ok(finish(attempted, failed, &layers))
}

/// Prints every metric and then the result line; `true` when nothing
/// failed.
fn finish(attempted: usize, failed: usize, metrics: &[Metric]) -> bool {
    for metric in metrics {
        metric.print();
    }
    let failed_ratio = failed as f64 / attempted.max(1) as f64;
    println!("failed_ratio {failed_ratio} ({failed} of {attempted} attempted)");
    metrics::print_result(failed == 0, attempted, failed, metrics);
    failed == 0
}
