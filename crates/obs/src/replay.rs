//! Replay verification: compare a recorded run against a re-driven one.
//!
//! The simulator is deterministic in virtual time, so re-driving a scenario
//! from a [`Record`]'s header must reproduce the
//! *exact* same journal and metrics. [`compare`] checks that claim
//! digest-by-digest, in causal order — header, arrivals, faults, input
//! streams, journal events, journal length, metrics registry — and reports
//! the **first** divergence it finds, which is the earliest point the two
//! runs' histories split (everything after the first divergent input or
//! event is cascade, not cause).
//!
//! The re-driving itself lives in the bench layer (`bench::scenario`
//! rebuilds a scenario from a record header); this module stays pure data
//! so `nlrm-obs` depends on nothing above it.

use crate::json;
use crate::recorder::Record;

/// Which section of the record diverged first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DivergenceKind {
    /// Scenario parameters differ — the runs were not comparable at all.
    Header,
    /// The job arrival streams split.
    Arrival,
    /// The fault plans split.
    Fault,
    /// A probe/gossip round was consumed differently.
    Stream,
    /// A journal event differs (or one run stopped journaling early).
    JournalEvent,
    /// Same per-event digests but different totals (should be unreachable
    /// when per-event digests are captured; kept as a belt-and-braces
    /// check).
    JournalLength,
    /// Everything matched except the final metrics registry.
    Metrics,
}

impl DivergenceKind {
    /// Stable snake_case label.
    pub fn label(self) -> &'static str {
        match self {
            DivergenceKind::Header => "header",
            DivergenceKind::Arrival => "arrival",
            DivergenceKind::Fault => "fault",
            DivergenceKind::Stream => "stream",
            DivergenceKind::JournalEvent => "journal_event",
            DivergenceKind::JournalLength => "journal_length",
            DivergenceKind::Metrics => "metrics",
        }
    }
}

/// The first point where the recorded and replayed runs split.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Which section split.
    pub kind: DivergenceKind,
    /// Index into that section (journal divergences report the event seq).
    pub index: u64,
    /// What the original record holds there.
    pub expected: String,
    /// What the replay produced there.
    pub actual: String,
}

impl Divergence {
    /// Export as a JSON object.
    pub fn to_json(&self) -> String {
        json::object(&[
            ("kind", json::string(self.kind.label())),
            ("index", self.index.to_string()),
            ("expected", json::string(&self.expected)),
            ("actual", json::string(&self.actual)),
        ])
    }

    /// One-line human rendering.
    pub fn render(&self) -> String {
        format!(
            "first divergence at {}[{}]: expected {} != actual {}",
            self.kind.label(),
            self.index,
            self.expected,
            self.actual
        )
    }
}

/// The outcome of one record-vs-replay comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayReport {
    /// Arrivals compared (the shorter stream's length on divergence).
    pub checked_arrivals: u64,
    /// Faults compared.
    pub checked_faults: u64,
    /// Stream rounds compared.
    pub checked_streams: u64,
    /// Journal events compared.
    pub checked_events: u64,
    /// The first split, if any. `None` means bit-identical replay.
    pub divergence: Option<Divergence>,
}

impl ReplayReport {
    /// Did the replay reproduce the record exactly?
    pub fn is_identical(&self) -> bool {
        self.divergence.is_none()
    }

    /// Export as a JSON object.
    pub fn to_json(&self) -> String {
        json::object(&[
            ("identical", self.is_identical().to_string()),
            ("checked_arrivals", self.checked_arrivals.to_string()),
            ("checked_faults", self.checked_faults.to_string()),
            ("checked_streams", self.checked_streams.to_string()),
            ("checked_events", self.checked_events.to_string()),
            (
                "divergence",
                self.divergence
                    .as_ref()
                    .map_or("null".into(), Divergence::to_json),
            ),
        ])
    }
}

fn header_divergence(expected: &Record, actual: &Record) -> Option<Divergence> {
    let e = &expected.header;
    let a = &actual.header;
    let fields: [(&str, String, String); 9] = [
        (
            "version",
            expected.version.to_string(),
            actual.version.to_string(),
        ),
        ("seed", e.seed.to_string(), a.seed.to_string()),
        ("nodes", e.nodes.to_string(), a.nodes.to_string()),
        (
            "checkpoints",
            format!("{:?}", e.checkpoints),
            format!("{:?}", a.checkpoints),
        ),
        ("faulted", e.faulted.to_string(), a.faulted.to_string()),
        ("huge", e.submit_huge.to_string(), a.submit_huge.to_string()),
        (
            "telemetry",
            e.telemetry.to_string(),
            a.telemetry.to_string(),
        ),
        (
            "lease_load",
            e.lease_load.to_string(),
            a.lease_load.to_string(),
        ),
        (
            "complete_prev",
            e.complete_prev.to_string(),
            a.complete_prev.to_string(),
        ),
    ];
    for (i, (name, ev, av)) in fields.iter().enumerate() {
        if ev != av {
            return Some(Divergence {
                kind: DivergenceKind::Header,
                index: i as u64,
                expected: format!("{name}={ev}"),
                actual: format!("{name}={av}"),
            });
        }
    }
    None
}

/// Compare `actual` (a replay) against `expected` (the original record),
/// returning the first divergence in causal order. The scenario `label` is
/// deliberately not compared — replays are free to relabel.
pub fn compare(expected: &Record, actual: &Record) -> ReplayReport {
    let mut report = ReplayReport {
        checked_arrivals: 0,
        checked_faults: 0,
        checked_streams: 0,
        checked_events: 0,
        divergence: header_divergence(expected, actual),
    };
    if report.divergence.is_some() {
        return report;
    }

    macro_rules! check_section {
        ($field:ident, $kind:expr, $counter:ident, $render:expr) => {
            let n = expected.$field.len().min(actual.$field.len());
            for i in 0..n {
                report.$counter += 1;
                if expected.$field[i] != actual.$field[i] {
                    report.divergence = Some(Divergence {
                        kind: $kind,
                        index: i as u64,
                        expected: $render(&expected.$field[i]),
                        actual: $render(&actual.$field[i]),
                    });
                    return report;
                }
            }
            if expected.$field.len() != actual.$field.len() {
                let (exp_str, act_str) = if expected.$field.len() > actual.$field.len() {
                    (
                        $render(&expected.$field[n]),
                        format!("<replay ended after {n}>"),
                    )
                } else {
                    (
                        format!("<record ended after {n}>"),
                        $render(&actual.$field[n]),
                    )
                };
                report.divergence = Some(Divergence {
                    kind: $kind,
                    index: n as u64,
                    expected: exp_str,
                    actual: act_str,
                });
                return report;
            }
        };
    }

    check_section!(
        arrivals,
        DivergenceKind::Arrival,
        checked_arrivals,
        |a: &crate::recorder::ArrivalRecord| format!(
            "{}+{}p@{}us",
            a.name,
            a.procs,
            a.at.as_micros()
        )
    );
    check_section!(
        faults,
        DivergenceKind::Fault,
        checked_faults,
        |f: &crate::recorder::FaultRecord| format!(
            "{} {} @{}us",
            f.action,
            f.target,
            f.at.as_micros()
        )
    );
    check_section!(
        streams,
        DivergenceKind::Stream,
        checked_streams,
        |s: &crate::recorder::StreamRecord| format!(
            "{} n={} {:016x} @{}us",
            s.kind,
            s.count,
            s.digest,
            s.at.as_micros()
        )
    );

    // journal events diverge at the seq, not the vec index, so reports
    // point straight at the offending journal line
    let n = expected.journal.len().min(actual.journal.len());
    for i in 0..n {
        report.checked_events += 1;
        if expected.journal[i] != actual.journal[i] {
            report.divergence = Some(Divergence {
                kind: DivergenceKind::JournalEvent,
                index: expected.journal[i].seq,
                expected: format!(
                    "seq={} {} {:016x}",
                    expected.journal[i].seq, expected.journal[i].kind, expected.journal[i].digest
                ),
                actual: format!(
                    "seq={} {} {:016x}",
                    actual.journal[i].seq, actual.journal[i].kind, actual.journal[i].digest
                ),
            });
            return report;
        }
    }
    if expected.journal.len() != actual.journal.len() {
        let (index, exp_str, act_str) = if expected.journal.len() > actual.journal.len() {
            (
                expected.journal[n].seq,
                format!(
                    "seq={} {}",
                    expected.journal[n].seq, expected.journal[n].kind
                ),
                format!("<replay ended after {n} events>"),
            )
        } else {
            (
                actual.journal[n].seq,
                format!("<record ended after {n} events>"),
                format!("seq={} {}", actual.journal[n].seq, actual.journal[n].kind),
            )
        };
        report.divergence = Some(Divergence {
            kind: DivergenceKind::JournalEvent,
            index,
            expected: exp_str,
            actual: act_str,
        });
        return report;
    }
    if expected.journal_len != actual.journal_len {
        report.divergence = Some(Divergence {
            kind: DivergenceKind::JournalLength,
            index: 0,
            expected: expected.journal_len.to_string(),
            actual: actual.journal_len.to_string(),
        });
        return report;
    }
    if expected.metrics_digest != actual.metrics_digest {
        report.divergence = Some(Divergence {
            kind: DivergenceKind::Metrics,
            index: 0,
            expected: format!("{:016x}", expected.metrics_digest),
            actual: format!("{:016x}", actual.metrics_digest),
        });
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{ArrivalRecord, JournalDigest, Record, RecordHeader, StreamRecord};
    use nlrm_sim_core::time::SimTime;

    fn base() -> Record {
        Record {
            version: crate::recorder::RECORD_VERSION,
            header: RecordHeader {
                seed: 7,
                nodes: 8,
                ..RecordHeader::default()
            },
            arrivals: vec![
                ArrivalRecord {
                    at: SimTime::from_secs(10),
                    name: "a".into(),
                    procs: 4,
                },
                ArrivalRecord {
                    at: SimTime::from_secs(20),
                    name: "b".into(),
                    procs: 8,
                },
            ],
            streams: vec![StreamRecord {
                at: SimTime::from_secs(12),
                kind: "probe:latency".into(),
                count: 28,
                digest: 0xabc,
            }],
            journal: vec![
                JournalDigest {
                    seq: 0,
                    kind: "daemon_tick".into(),
                    digest: 1,
                },
                JournalDigest {
                    seq: 1,
                    kind: "alloc_granted".into(),
                    digest: 2,
                },
            ],
            journal_len: 2,
            metrics_digest: 0xfff,
            ..Record::default()
        }
    }

    #[test]
    fn identical_records_replay_clean() {
        let rec = base();
        let report = compare(&rec, &rec.clone());
        assert!(report.is_identical(), "{report:?}");
        assert_eq!(report.checked_events, 2);
        assert_eq!(report.checked_arrivals, 2);
        assert!(crate::json::validate(&report.to_json()).is_ok());
    }

    #[test]
    fn label_differences_are_not_divergence() {
        let rec = base();
        let mut replay = rec.clone();
        replay.header.label = "replay-of".into();
        assert!(compare(&rec, &replay).is_identical());
    }

    #[test]
    fn header_divergence_reported_before_anything_else() {
        let rec = base();
        let mut other = rec.clone();
        other.header.seed = 8;
        other.journal[0].digest = 99; // also differs, but header wins
        let report = compare(&rec, &other);
        let d = report.divergence.expect("diverged");
        assert_eq!(d.kind, DivergenceKind::Header);
        assert!(d.expected.contains("seed=7"), "{}", d.render());
    }

    #[test]
    fn journal_divergence_reports_the_seq() {
        let rec = base();
        let mut other = rec.clone();
        other.journal[1].digest = 99;
        let report = compare(&rec, &other);
        let d = report.divergence.expect("diverged");
        assert_eq!(d.kind, DivergenceKind::JournalEvent);
        assert_eq!(d.index, 1);
        assert_eq!(report.checked_events, 2, "first event matched first");
    }

    #[test]
    fn shorter_journal_is_a_divergence_at_the_cut() {
        let rec = base();
        let mut other = rec.clone();
        other.journal.pop();
        other.journal_len = 1;
        let report = compare(&rec, &other);
        let d = report.divergence.expect("diverged");
        assert_eq!(d.kind, DivergenceKind::JournalEvent);
        assert_eq!(d.index, 1);
        assert!(d.actual.contains("ended after 1"));
    }

    #[test]
    fn stream_divergence_precedes_journal_divergence() {
        let rec = base();
        let mut other = rec.clone();
        other.streams[0].digest = 0xdef;
        other.journal[0].digest = 99;
        let report = compare(&rec, &other);
        assert_eq!(report.divergence.unwrap().kind, DivergenceKind::Stream);
    }

    #[test]
    fn metrics_divergence_is_last_resort() {
        let rec = base();
        let mut other = rec.clone();
        other.metrics_digest = 0x123;
        let report = compare(&rec, &other);
        let d = report.divergence.unwrap();
        assert_eq!(d.kind, DivergenceKind::Metrics);
        assert_eq!(report.checked_events, 2);
    }

    #[test]
    fn arrival_divergence_on_extra_submission() {
        let rec = base();
        let mut other = rec.clone();
        other.arrivals.push(ArrivalRecord {
            at: SimTime::from_secs(30),
            name: "c".into(),
            procs: 2,
        });
        let report = compare(&rec, &other);
        let d = report.divergence.unwrap();
        assert_eq!(d.kind, DivergenceKind::Arrival);
        assert_eq!(d.index, 2);
        assert!(
            d.expected.contains("record ended after 2"),
            "{}",
            d.render()
        );
        assert!(d.actual.contains("c+2p"), "{}", d.render());
    }
}
