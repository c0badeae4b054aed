//! What the benchmark prints: run metadata, per-metric spread, and the
//! final JSON line.

use crate::check::Tally;
use crate::e2e::Runner;
use crate::layers::LayerRun;
use crate::stats::Summary;

/// One reported metric: its value is the median of its samples.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub summary: Summary,
}

impl Metric {
    pub fn sampled(name: String, samples: &[f64], unit: &'static str) -> Metric {
        Metric {
            name,
            unit,
            summary: Summary::of(samples),
        }
    }

    pub fn single(name: String, value: f64, unit: &'static str) -> Metric {
        Metric::sampled(name, &[value], unit)
    }
}

/// Seed, thread counts, method parameters, revision and compiler.
pub fn print_meta(runner: &Runner, seed: u64, gen_secs: f64) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# workload={} seed={seed} nproc={nproc} worker_threads={} problems={} vectors={}",
        runner.spec.name,
        tg_batch::worker_threads(),
        runner.problems.len(),
        runner.spec.vectors,
    );
    for (name, m) in &runner.methods {
        println!("# method {name}: {m:?}");
    }
    println!("# git_rev={} rustc={}", git_rev(), env!("EVDBENCH_RUSTC"));
    println!("# inputs generated in {gen_secs:.3} s (not part of any metric)");
}

/// The checkout's commit, read from `.git` in the working directory
/// without leaving it; `unknown` outside a git checkout.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(format!(".git/{p}")).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(r)
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split(' ').next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Sample count, quartiles and tail percentile of every metric (reported,
/// not gated).
pub fn print_spread(metrics: &[Metric]) {
    for m in metrics {
        let s = &m.summary;
        let tail = match s.tail {
            Some((p, v)) => format!("p{p}={v:.6}"),
            None => "tail=n/a(<11 samples)".into(),
        };
        println!(
            "# spread {} [{}] n={} q1={:.6} median={:.6} q3={:.6} {tail}",
            m.name, m.unit, s.count, s.q1, s.median, s.q3
        );
    }
}

/// Traced counts of the first pass, per method and layer.
pub fn print_counts(run: &LayerRun) {
    println!(
        "# traced run: {} passes; counts per workload pass",
        run.passes
    );
    for (method, layer, c) in &run.counts {
        println!(
            "# counts {method}.{layer}: flops={} bytes_read={} bytes_written={} pack_bytes={}",
            c.flops, c.bytes_read, c.bytes_written, c.pack_bytes
        );
    }
}

/// Peak resident set (`VmHWM`) of this process in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The result line: `correct`, `attempted`, `failed` and each metric's
/// median with its unit.
pub fn result_json(tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.summary.median),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

/// JSON has no NaN or infinity; a metric that cannot be computed reads 0.
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}
