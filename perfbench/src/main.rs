//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--spans <file>]`
//!
//! Runs one workload and prints its metrics, one per line with unit and
//! sample count, then a final JSON line. `--trace 1` reports the
//! per-layer metrics and writes the recorded spans to `--spans`.

use perfbench::{Metric, Workload};
use std::process::ExitCode;

struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<String>,
}

fn parse() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut spans) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("--seconds must be a non-negative number, got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            "--spans" => spans = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload: Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?,
        name,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        spans,
    })
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let available = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.name, args.seed, args.seconds, args.trace as u8
    );
    println!(
        "# threads={} (NLRM_THREADS={}) available_parallelism={available}",
        nlrm_core::par::worker_threads(),
        std::env::var("NLRM_THREADS").unwrap_or_else(|_| "unset".into()),
    );

    let out = args.workload.run(args.seed, args.seconds, args.trace);
    for why in &out.failures {
        println!("# FAILED {why}");
    }

    let metrics = if args.trace {
        out.per_layer()
    } else {
        out.end_to_end()
    };
    let metrics = match metrics {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(bad) = metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("perfbench: {} is not a finite number", bad.name);
        return ExitCode::FAILURE;
    }
    for m in &metrics {
        println!(
            "{:<28} {:>16.6} {:<7} n={:<6} {}",
            m.name, m.value, m.unit, m.n, m.how
        );
    }
    let wait_tail = perfbench::tail("queue_wait_s.tail", &out.waits_s, "s")
        .map(|m| format!("{} ({})", m.value, m.how))
        .unwrap_or_else(|e| e);
    println!(
        "# virtual digest={:#018x} jobs={} job_runtime_s.mean={} queue_wait_s.p50={:?} \
         queue_wait_s.tail={wait_tail} busy_proc_s={} span_s={} monitor_bytes_per_vmin={}",
        out.digest.value(),
        out.runtimes_s.len(),
        perfbench::stats::mean(&out.runtimes_s),
        perfbench::stats::percentile(&out.waits_s, 50.0),
        out.busy_proc_s,
        out.span_s,
        out.traffic.bytes(),
    );
    if args.trace {
        print!("{}", out.tracer.table());
        if let Some(path) = &args.spans {
            if let Err(e) = std::fs::write(path, out.tracer.to_json()) {
                eprintln!("perfbench: writing spans to {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("# spans written to {path}");
        }
    }
    println!(
        "{}",
        json_line(out.failed == 0, out.attempted, out.failed, &metrics)
    );
    ExitCode::SUCCESS
}
