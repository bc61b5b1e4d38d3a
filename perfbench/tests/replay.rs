//! Same seed, same results: two runs of one workload must place every
//! job on the same nodes and report identical virtual-time metrics, with
//! one worker thread or two. Wall-clock figures are free to differ.
//!
//! Run with `cargo test --release`; in a debug build `campus-1k` takes
//! minutes.

use std::process::Command;

/// The report lines that must repeat exactly: the placement digest line
/// and the virtual-time metrics.
fn fingerprint(workload: &str, seed: u64, threads: u32) -> Vec<String> {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0", "--trace", "0"])
        .env("NLRM_THREADS", threads.to_string())
        .output()
        .expect("benchmark runs");
    assert!(out.status.success(), "{workload} failed: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 report");
    let last = stdout.lines().last().expect("a result line");
    assert!(last.contains("\"correct\": true"), "{workload}: {last}");
    let keep = [
        "# virtual ",
        "job_runtime_s.mean ",
        "queue_wait_s.p50 ",
        "utilization ",
        "monitor_bytes_per_vmin ",
    ];
    let lines: Vec<String> = stdout
        .lines()
        .filter(|l| keep.iter().any(|k| l.starts_with(k)))
        .map(str::to_string)
        .collect();
    assert_eq!(
        lines.len(),
        keep.len(),
        "{workload}: missing lines in\n{stdout}"
    );
    lines
}

fn replays(workload: &str) {
    let one = fingerprint(workload, 7, 1);
    assert_eq!(
        one,
        fingerprint(workload, 7, 1),
        "{workload}: rerun diverged"
    );
    assert_eq!(
        one,
        fingerprint(workload, 7, 2),
        "{workload}: thread count changed results"
    );
    assert_ne!(one, fingerprint(workload, 8, 1), "{workload}: seed ignored");
}

#[test]
fn iitk_trials_replays() {
    replays("iitk-trials");
}

#[test]
fn campus_1k_replays() {
    replays("campus-1k");
}

#[test]
fn broker_stream_replays() {
    replays("broker-stream");
}
