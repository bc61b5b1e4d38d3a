//! Declarative service-level objectives with rolling-window attainment and
//! error-budget accounting.
//!
//! An [`Slo`] names an [`Objective`] over a registry metric — "queue-wait
//! p99 at most 600 s", "shed rate at most 0.05/s" — plus a target fraction
//! of telemetry ticks that must meet it. Each tick, [`SloTracker::evaluate`]
//! scores every objective, updates a rolling window of good/bad ticks, and
//! derives attainment, remaining error budget, and burn rate. Breaches
//! (attainment dropping below target) are reported once per excursion so
//! callers can journal them without flooding.

use crate::json;
use crate::metrics::Metrics;
use nlrm_sim_core::time::SimTime;
use std::collections::VecDeque;

/// What an SLO measures each tick.
#[derive(Debug, Clone, PartialEq)]
pub enum Objective {
    /// `quantile(q)` of the named histogram must be ≤ `max`. Ticks before
    /// the histogram has observations count as good (nothing has violated).
    QuantileAtMost {
        /// Histogram metric name.
        histogram: String,
        /// Quantile in `[0, 1]`.
        q: f64,
        /// Inclusive upper bound.
        max: f64,
    },
    /// The named gauge must be ≤ `max`.
    GaugeAtMost {
        /// Gauge metric name.
        gauge: String,
        /// Inclusive upper bound.
        max: f64,
    },
    /// The named counter's increase rate (per virtual second, measured
    /// between consecutive ticks) must be ≤ `max_per_sec`.
    RateAtMost {
        /// Counter metric name.
        counter: String,
        /// Inclusive upper bound, per virtual second.
        max_per_sec: f64,
    },
}

impl Objective {
    fn bound(&self) -> f64 {
        match self {
            Objective::QuantileAtMost { max, .. } => *max,
            Objective::GaugeAtMost { max, .. } => *max,
            Objective::RateAtMost { max_per_sec, .. } => *max_per_sec,
        }
    }

    /// The registry metric the objective measures — carried on
    /// `slo_breached` events so incidents can be joined against the
    /// sampler and histograms without heuristics.
    pub fn metric(&self) -> &str {
        match self {
            Objective::QuantileAtMost { histogram, .. } => histogram,
            Objective::GaugeAtMost { gauge, .. } => gauge,
            Objective::RateAtMost { counter, .. } => counter,
        }
    }
}

/// One declared objective: name, measurement, target attainment, window.
#[derive(Debug, Clone)]
pub struct Slo {
    /// Stable identifier used in reports and journal events.
    pub name: String,
    /// What is measured each tick.
    pub objective: Objective,
    /// Fraction of window ticks that must be good, in `[0, 1]`.
    pub target: f64,
    /// Rolling window length in telemetry ticks.
    pub window: usize,
}

impl Slo {
    /// An SLO with `target` attainment over a `window`-tick rolling window.
    pub fn new(name: &str, objective: Objective, target: f64, window: usize) -> Slo {
        Slo {
            name: name.to_string(),
            objective,
            target: target.clamp(0.0, 1.0),
            window: window.max(1),
        }
    }
}

/// Per-SLO rolling state.
#[derive(Debug, Clone)]
struct SloState {
    slo: Slo,
    window: VecDeque<bool>,
    /// Bad ticks ever seen — monotone, the basis of budget *consumption*.
    bad_ticks_total: u64,
    /// All ticks ever seen — monotone.
    ticks_total: u64,
    prev_counter: Option<(u64, SimTime)>,
    breach_active: bool,
}

/// Point-in-time result for one SLO after a tick.
#[derive(Debug, Clone)]
pub struct SloStatus {
    /// The SLO's name.
    pub name: String,
    /// Measured value this tick (`None` when not yet measurable).
    pub current: Option<f64>,
    /// The objective's bound.
    pub bound: f64,
    /// Did this tick meet the objective?
    pub ok: bool,
    /// Good-tick fraction over the rolling window (1.0 while empty).
    pub attainment: f64,
    /// The declared target attainment.
    pub target: f64,
    /// Fraction of the *lifetime* error budget still unspent, in `[0, 1]`.
    /// Budget allowed is `(1 - target)` of all ticks so far.
    pub error_budget_remaining: f64,
    /// Bad-tick fraction in the window divided by the allowed fraction:
    /// >1 means burning budget faster than sustainable.
    pub burn_rate: f64,
    /// True while attainment sits below target.
    pub breached: bool,
    /// Monotone count of ticks evaluated for this SLO.
    pub ticks_total: u64,
    /// Monotone count of bad ticks for this SLO.
    pub bad_ticks_total: u64,
}

impl SloStatus {
    /// Export as a JSON object.
    pub fn to_json(&self) -> String {
        json::object(&[
            ("name", json::string(&self.name)),
            ("current", self.current.map_or("null".into(), json::num)),
            ("bound", json::num(self.bound)),
            ("ok", self.ok.to_string()),
            ("attainment", json::num(self.attainment)),
            ("target", json::num(self.target)),
            (
                "error_budget_remaining",
                json::num(self.error_budget_remaining),
            ),
            ("burn_rate", json::num(self.burn_rate)),
            ("breached", self.breached.to_string()),
            ("ticks_total", self.ticks_total.to_string()),
            ("bad_ticks_total", self.bad_ticks_total.to_string()),
        ])
    }
}

/// Evaluates a set of SLOs against the metrics registry each telemetry tick.
#[derive(Debug, Clone, Default)]
pub struct SloTracker {
    slos: Vec<SloState>,
    latest: Vec<SloStatus>,
}

/// A breach edge: an SLO whose attainment just dropped below target.
#[derive(Debug, Clone)]
pub struct Breach {
    /// The SLO's name.
    pub slo: String,
    /// Attainment at the moment of the breach.
    pub attainment: f64,
    /// The declared target.
    pub target: f64,
    /// The registry metric the objective measures.
    pub metric: String,
}

impl SloTracker {
    /// A tracker with no SLOs.
    pub fn new() -> SloTracker {
        SloTracker::default()
    }

    /// Declare one SLO.
    pub fn add(&mut self, slo: Slo) {
        self.slos.push(SloState {
            slo,
            window: VecDeque::new(),
            bad_ticks_total: 0,
            ticks_total: 0,
            prev_counter: None,
            breach_active: false,
        });
    }

    /// Number of declared SLOs.
    pub fn len(&self) -> usize {
        self.slos.len()
    }

    /// True when no SLOs are declared.
    pub fn is_empty(&self) -> bool {
        self.slos.is_empty()
    }

    /// Evaluate every SLO at `now`, returning breach *edges* only (an SLO
    /// already below target from a previous tick is not re-reported until
    /// it recovers and breaches again).
    pub fn evaluate(&mut self, now: SimTime, metrics: &Metrics) -> Vec<Breach> {
        let mut breaches = Vec::new();
        let mut latest = Vec::with_capacity(self.slos.len());
        for st in &mut self.slos {
            let current = match &st.slo.objective {
                Objective::QuantileAtMost { histogram, q, .. } => metrics
                    .histogram_snapshot(histogram)
                    .and_then(|h| h.quantile(*q)),
                Objective::GaugeAtMost { gauge, .. } => Some(metrics.gauge_value(gauge)),
                Objective::RateAtMost { counter, .. } => {
                    let cur = metrics.counter_value(counter);
                    let rate = st.prev_counter.map(|(prev, at)| {
                        let dt = now.since(at).as_secs_f64();
                        if dt > 0.0 {
                            cur.saturating_sub(prev) as f64 / dt
                        } else {
                            0.0
                        }
                    });
                    st.prev_counter = Some((cur, now));
                    rate
                }
            };
            // not-yet-measurable ticks are good: nothing has violated
            let ok = current.is_none_or(|v| v <= st.slo.objective.bound());
            st.ticks_total += 1;
            if !ok {
                st.bad_ticks_total += 1;
            }
            st.window.push_back(ok);
            while st.window.len() > st.slo.window {
                st.window.pop_front();
            }
            let window_len = st.window.len() as f64;
            let window_bad = st.window.iter().filter(|ok| !**ok).count() as f64;
            let attainment = if window_len > 0.0 {
                (window_len - window_bad) / window_len
            } else {
                1.0
            };
            let allowed = (1.0 - st.slo.target).max(1e-9);
            let budget_spent = st.bad_ticks_total as f64 / st.ticks_total.max(1) as f64 / allowed;
            let error_budget_remaining = (1.0 - budget_spent).clamp(0.0, 1.0);
            let burn_rate = (window_bad / window_len.max(1.0)) / allowed;
            let breached = attainment < st.slo.target;
            if breached && !st.breach_active {
                breaches.push(Breach {
                    slo: st.slo.name.clone(),
                    attainment,
                    target: st.slo.target,
                    metric: st.slo.objective.metric().to_string(),
                });
            }
            st.breach_active = breached;
            latest.push(SloStatus {
                name: st.slo.name.clone(),
                current,
                bound: st.slo.objective.bound(),
                ok,
                attainment,
                target: st.slo.target,
                error_budget_remaining,
                burn_rate,
                breached,
                ticks_total: st.ticks_total,
                bad_ticks_total: st.bad_ticks_total,
            });
        }
        self.latest = latest;
        breaches
    }

    /// The statuses computed by the most recent [`SloTracker::evaluate`].
    pub fn latest(&self) -> &[SloStatus] {
        &self.latest
    }

    /// Export the latest statuses as a JSON array.
    pub fn to_json(&self) -> String {
        let items: Vec<String> = self.latest.iter().map(SloStatus::to_json).collect();
        json::array(&items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nlrm_sim_core::time::Duration;

    fn gauge_slo(max: f64, target: f64, window: usize) -> Slo {
        Slo::new(
            "g_at_most",
            Objective::GaugeAtMost {
                gauge: "g".into(),
                max,
            },
            target,
            window,
        )
    }

    #[test]
    fn attainment_tracks_good_fraction() {
        let m = Metrics::new();
        let mut tr = SloTracker::new();
        tr.add(gauge_slo(10.0, 0.9, 10));
        let mut t = SimTime::ZERO;
        for v in [1.0, 2.0, 50.0, 3.0] {
            m.set("g", v);
            t += Duration::from_secs(30);
            tr.evaluate(t, &m);
        }
        let s = &tr.latest()[0];
        assert_eq!(s.ticks_total, 4);
        assert_eq!(s.bad_ticks_total, 1);
        assert!((s.attainment - 0.75).abs() < 1e-12);
        assert!(s.breached, "0.75 < 0.9 target");
    }

    #[test]
    fn breach_edges_fire_once_per_excursion() {
        let m = Metrics::new();
        let mut tr = SloTracker::new();
        tr.add(gauge_slo(10.0, 0.99, 2));
        let mut t = SimTime::ZERO;
        let mut edges = 0;
        // bad, bad (still one excursion), good+good (recover), bad (new one)
        for v in [50.0, 50.0, 1.0, 1.0, 50.0] {
            m.set("g", v);
            t += Duration::from_secs(30);
            edges += tr.evaluate(t, &m).len();
        }
        assert_eq!(edges, 2);
    }

    #[test]
    fn rate_objective_uses_virtual_time_deltas() {
        let m = Metrics::new();
        let mut tr = SloTracker::new();
        tr.add(Slo::new(
            "shed_rate",
            Objective::RateAtMost {
                counter: "shed_total".into(),
                max_per_sec: 0.5,
            },
            0.9,
            10,
        ));
        tr.evaluate(SimTime::from_secs(0), &m);
        assert_eq!(tr.latest()[0].current, None, "first tick has no rate");
        m.add("shed_total", 10); // 10 sheds over the next 10 s = 1.0/s
        tr.evaluate(SimTime::from_secs(10), &m);
        let s = &tr.latest()[0];
        assert_eq!(s.current, Some(1.0));
        assert!(!s.ok);
    }

    #[test]
    fn unmeasurable_quantile_ticks_are_good() {
        let m = Metrics::new();
        let mut tr = SloTracker::new();
        tr.add(Slo::new(
            "wait_p99",
            Objective::QuantileAtMost {
                histogram: "w".into(),
                q: 0.99,
                max: 60.0,
            },
            0.99,
            10,
        ));
        tr.evaluate(SimTime::from_secs(30), &m);
        let s = &tr.latest()[0];
        assert!(s.ok && s.current.is_none());
        assert_eq!(s.error_budget_remaining, 1.0);
    }

    #[test]
    fn json_export_is_valid() {
        let m = Metrics::new();
        m.set("g", 99.0);
        let mut tr = SloTracker::new();
        tr.add(gauge_slo(10.0, 0.9, 4));
        tr.evaluate(SimTime::from_secs(1), &m);
        assert!(json::validate(&tr.to_json()).is_ok(), "{}", tr.to_json());
    }
}
