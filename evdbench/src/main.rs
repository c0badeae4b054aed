//! End-to-end EVD benchmark: the three pipelines (`proposed`, `magma`,
//! `direct`) on one named workload, with every solve checked.
//!
//! ```text
//! evdbench --workload <evd-vectors|evd-values|batch-small> --seed <n>
//!          --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones (see README.md). The last line of stdout is the JSON result; the
//! lines before it are run metadata and the spread of every metric.

mod check;
mod e2e;
mod layers;
mod report;
mod stats;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use check::Tally;
use report::Metric;

/// Serialises the tests that solve: trace sessions count the work of every
/// thread, so a solve on another test thread would leak into a count.
#[cfg(test)]
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Warm-up phases per run; `setup_s` is their median.
const SETUPS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args_from(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad)?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad)?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(bad),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds
            .filter(|s| s.is_finite() && *s >= 0.0)
            .ok_or("missing or negative --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args_from(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("evdbench: {e}");
            eprintln!(
                "usage: evdbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workload::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Some(spec) = workload::Spec::named(&args.workload, args.seed) else {
        eprintln!("evdbench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    let t = Instant::now();
    let problems = workload::problems(&spec, args.seed);
    let runner = e2e::Runner::new(&spec, &problems, args.seed);
    report::print_meta(&runner, args.seed, t.elapsed().as_secs_f64());
    let (tally, metrics) = match measure(&runner, args.seconds, args.trace) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("evdbench: {e}");
            return ExitCode::from(1);
        }
    };
    if !args.trace {
        report::print_spread(&metrics);
    }
    println!("{}", report::result_json(&tally, &metrics));
    ExitCode::SUCCESS
}

/// The end-to-end metrics (`trace` off) or the per-layer ones (`trace` on),
/// with the tally of every solve made.
fn measure(
    runner: &e2e::Runner,
    seconds: f64,
    trace: bool,
) -> Result<(Tally, Vec<Metric>), String> {
    if trace {
        let mut tally = Tally::default();
        runner.warm_up(&mut tally);
        let run = runner.layers(seconds, &mut tally);
        report::print_counts(&run);
        let metrics = run
            .metrics
            .into_iter()
            .map(|(name, value, unit)| Metric::single(name, value, unit))
            .collect();
        return Ok((tally, metrics));
    }
    let run = runner.run(SETUPS, seconds);
    let rss = report::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
    let mut metrics: Vec<Metric> = workload::METHODS
        .iter()
        .zip(&run.samples)
        .map(|(m, s)| Metric::sampled(format!("{m}_s"), s, "s"))
        .collect();
    metrics.push(Metric::sampled("setup_s".into(), &run.setups, "s"));
    metrics.push(Metric::single(
        "correct_share".into(),
        run.tally.correct_share(),
        "ratio",
    ));
    metrics.push(Metric::single("peak_rss_mb".into(), rss, "MB"));
    Ok((run.tally, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root, which names every metric.
    fn declared() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark")
    }

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    /// Every workload runs at a tiny size in both modes, every solve
    /// passes, and each mode prints exactly its declared metrics: valid,
    /// unique names with valid units.
    #[test]
    fn every_workload_runs_tiny_with_valid_unique_metrics() {
        let _serial = serial();
        let declared = declared();
        for name in workload::NAMES {
            assert!(
                declared.contains(&format!("\"name\": \"{name}\"")),
                "{name} undeclared"
            );
            let spec = workload::Spec::tiny(name, 7).unwrap();
            let problems = workload::problems(&spec, 7);
            let runner = e2e::Runner::new(&spec, &problems, 7);
            let mut all = Vec::new();
            for trace in [false, true] {
                let (tally, metrics) = measure(&runner, 0.0, trace).unwrap();
                assert!(
                    tally.attempted > 0 && tally.failed == 0,
                    "{name}: {tally:?}"
                );
                let json = report::result_json(&tally, &metrics);
                assert!(json.starts_with("{\"correct\": true, "), "{json}");
                for m in &metrics {
                    assert!(valid_name(&m.name) && valid_unit(m.unit), "{}", m.name);
                    assert!(m.summary.median.is_finite(), "{}", m.name);
                    let decl = format!("\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
                    assert!(
                        declared.contains(&decl),
                        "{} [{}] undeclared",
                        m.name,
                        m.unit
                    );
                }
                all.extend(metrics.into_iter().map(|m| m.name));
            }
            let count = all.len();
            all.sort();
            all.dedup();
            assert_eq!(all.len(), count, "{name}: duplicate metric names");
            // Every declared metric is printed on every workload.
            assert_eq!(count, declared.matches("\"unit\":").count(), "{name}");
        }
    }

    #[test]
    fn bad_arguments_are_refused() {
        let parse = |v: &str| parse_args_from(v.split_whitespace().map(String::from));
        assert!(parse("--workload x --seed 1 --seconds 1 --trace 0").is_ok());
        assert!(parse("--workload x --seed 1 --seconds 1").is_err());
        assert!(parse("--workload x --seed -1 --seconds 1 --trace 0").is_err());
        assert!(parse("--workload x --seed 1 --seconds -1 --trace 0").is_err());
        assert!(parse("--workload x --seed 1 --seconds 1 --trace 2").is_err());
        assert!(parse("--workload x --seed 1 --seconds 1 --trace 0 --bogus 1").is_err());
        assert!(parse("--seed").is_err());
    }
}
