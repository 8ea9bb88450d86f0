//! `gmsbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]`
//!
//! Runs one workload for the given time and prints every metric by name
//! and unit, then one JSON result line. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` is the separate traced run that reports the
//! per-layer metrics and writes its spans to `.bench_out/`. Any block that
//! overlaps another or runs past its heap fails the run: it exits 1 and
//! prints no result.

use std::process::ExitCode;

use gmsbench::layers::{self, TracedRun};
use gmsbench::probe::Probe;
use gmsbench::report::{provenance, result_json, rss_peak_mib, Metric};
use gmsbench::run::{measure, summarize, warm_up, Summary};
use gmsbench::stats::median;
use gmsbench::workload::{kinds, workers, Bench, Workload};
use memlint::json_escape;

const USAGE: &str = "usage: gmsbench --workload <fixed_thread|mixed_cached|warp_small_traced> \
     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

/// The workload seed when none is given.
const DEFAULT_SEED: u64 = 0x5eed;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Where the traced run writes its spans.
const SPAN_DIR: &str = ".bench_out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 10.0, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => {
                seed = match value.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => value.parse(),
                }
                .map_err(|e| format!("bad seed {value:?}: {e}"))?
            }
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gmsbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("gmsbench: {e}");
            ExitCode::from(1)
        }
    }
}

fn setup(args: &Args, metrics: bool) -> Result<(Bench, gmsbench::workload::SetupTimes), String> {
    Bench::setup(args.workload, args.seed, metrics).map_err(|e| format!("set-up failed: {e}"))
}

fn check_failed(v: gmsbench::check::Violation) -> String {
    format!("output check failed: {v}")
}

fn run(args: &Args) -> Result<(), String> {
    let spec = args.workload.heap_spec();
    let prov = provenance(
        args.seed,
        workers(),
        spec.backend.name(),
        spec.pretouch.resolve(spec.backend).name(),
    );
    println!("# workload: {}", args.workload.name());
    for (k, v) in &prov {
        println!("# {k}: {v}");
    }
    let (metrics, summary) = if args.trace { traced(args, &prov)? } else { untraced(args)? };
    for (kind, (malloc, free, failed)) in kinds().iter().zip(&summary.per_manager) {
        println!(
            "# {:<15} malloc {malloc:9.3} Mops/s  free {free:9.3} Mops/s  failed {failed}",
            kind.label()
        );
    }
    println!(
        "# rounds: {}  round_ms_tail percentile: p{:.2}  failed_frac: {} ({} of {} ops)",
        summary.rounds,
        summary.tail_pct,
        summary.failed_frac(),
        summary.failed,
        summary.attempted
    );
    for m in &metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_json(summary.attempted, summary.failed, &metrics));
    Ok(())
}

/// The end-to-end run: set up [`SETUP_REPS`] times, then measure rounds.
fn untraced(args: &Args) -> Result<(Vec<Metric>, Summary), String> {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut bench = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous set first so only one set is ever resident.
        drop(bench.take());
        let (b, times) = setup(args, false)?;
        setups.push(times.total.as_secs_f64());
        bench = Some(b);
    }
    let bench = bench.expect("SETUP_REPS > 0");
    warm_up(&bench).map_err(check_failed)?;
    let rounds = measure(&bench, args.seconds, None).map_err(check_failed)?;
    let s = summarize(&rounds);
    let metrics = s.end_to_end(median(&setups), rss_peak_mib());
    Ok((metrics, s))
}

/// The traced run: half the time on the workload's own managers, half on
/// managers with counters attached and every call timed.
fn traced(args: &Args, prov: &[(String, String)]) -> Result<(Vec<Metric>, Summary), String> {
    let half = args.seconds / 2.0;
    let (bench, _) = setup(args, false)?;
    warm_up(&bench).map_err(check_failed)?;
    let plain = summarize(&measure(&bench, half, None).map_err(check_failed)?);
    drop(bench);

    let (bench, times) = setup(args, true)?;
    warm_up(&bench).map_err(check_failed)?;
    let mut probe = Probe::new(bench.managers.len());
    let before = layers::read(&bench);
    let rounds = measure(&bench, half, Some(&mut probe)).map_err(check_failed)?;
    let after = layers::read(&bench);
    let metrics = TracedRun {
        bench: &bench,
        setup: &times,
        probe: &probe,
        rounds: &rounds,
        before: &before,
        after: &after,
        untraced_round_ms: plain.round_ms_p50,
    }
    .metrics();

    let header: Vec<String> =
        std::iter::once(("workload".to_string(), args.workload.name().into()))
            .chain(prov.iter().cloned())
            .map(|(k, v)| format!("\"{}\":\"{}\"", json_escape(&k), json_escape(&v)))
            .collect();
    let path = format!("{SPAN_DIR}/spans-{}-{:#x}.json", args.workload.name(), args.seed);
    std::fs::create_dir_all(SPAN_DIR)
        .and_then(|()| std::fs::write(&path, probe.spans_json(&header.join(","))))
        .map_err(|e| format!("writing {path}: {e}"))?;
    println!("# spans: {} written to {path}", probe.span_count());

    let mut summary = summarize(&rounds);
    summary.attempted += plain.attempted;
    summary.failed += plain.failed;
    Ok((metrics, summary))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn arguments_parse_with_defaults() {
        let a = parse("--workload mixed_cached").expect("valid");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::MixedCached, 0x5eed, 10.0, false)
        );
        let a =
            parse("--workload fixed_thread --seed 0x10 --seconds 2.5 --trace 1").expect("valid");
        assert_eq!((a.seed, a.seconds, a.trace), (16, 2.5, true));
        assert_eq!(parse("--workload fixed_thread --seed 7").expect("valid").seed, 7);
    }

    #[test]
    fn bad_arguments_are_refused() {
        for bad in
            ["", "--workload nope", "--workload fixed_thread --trace 2", "--seconds 0", "--seed"]
        {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
    }
}
