//! Rounds, named metrics, and the final JSON line.

use crate::driver::{Run, Sample};
use crate::oracle::Tally;
use crate::stats::{
    highest_supported_percentile, median, quantile, spread_pct, trimmed_median, Better,
};

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push(Metric { name: name.to_string(), value, unit });
    }

    /// Names of metrics that are NaN or infinite: such a run is not correct.
    pub fn non_finite(&self) -> Vec<&str> {
        self.0.iter().filter(|m| !m.value.is_finite()).map(|m| m.name.as_str()).collect()
    }

    pub fn print(&self) {
        for m in &self.0 {
            println!("{:<42} {:>16.4} {}", m.name, m.value, m.unit);
        }
    }
}

/// The jobs that completed between two marks, and what the process spent.
#[derive(Debug)]
pub struct Round {
    pub secs: f64,
    pub cpu_ms: f64,
    /// Latencies of the correct jobs, ascending, in ms.
    pub latencies: Vec<f64>,
    pub failed: usize,
}

impl Round {
    pub fn percentile(&self, p: f64) -> f64 {
        quantile(&self.latencies, p / 100.0)
    }

    pub fn jobs_per_s(&self) -> f64 {
        self.latencies.len() as f64 / self.secs
    }

    pub fn cpu_ms_per_job(&self) -> f64 {
        self.cpu_ms / self.latencies.len().max(1) as f64
    }
}

/// Samples of `run` that completed between marks `from` and `to`.
pub fn span_samples(run: &Run, from: usize, to: usize) -> impl Iterator<Item = &Sample> {
    let (a, b) = (run.marks[from].at, run.marks[to].at);
    run.samples.iter().filter(move |s| s.done >= a && s.done < b)
}

/// Everything between marks `from` and `to` as one round.
pub fn span_round(run: &Run, from: usize, to: usize) -> Round {
    let (a, b) = (run.marks[from], run.marks[to]);
    let mut latencies: Vec<f64> =
        span_samples(run, from, to).filter(|s| s.ok).map(Sample::latency_ms).collect();
    latencies.sort_by(f64::total_cmp);
    Round {
        secs: (b.at - a.at).as_secs_f64(),
        cpu_ms: b.cpu_ms - a.cpu_ms,
        failed: span_samples(run, from, to).filter(|s| !s.ok).count(),
        latencies,
    }
}

/// Split a run at its marks: a job belongs to the round it completes in.
pub fn rounds(run: &Run) -> Vec<Round> {
    (1..run.marks.len()).map(|k| span_round(run, k - 1, k)).collect()
}

/// All rounds of a run taken as one.
pub fn whole(run: &Run) -> Round {
    span_round(run, 0, run.marks.len() - 1)
}

/// Name, unit, direction and definition of a metric taken per round.
type RoundMetric = (&'static str, &'static str, Better, fn(&Round) -> f64);

/// The end-to-end metrics taken per round.
pub const ROUND_METRICS: [RoundMetric; 4] = [
    ("latency_ms_p50", "ms", Better::Lower, |r| r.percentile(50.0)),
    ("latency_ms_p90", "ms", Better::Lower, |r| r.percentile(90.0)),
    ("jobs_per_s", "1/s", Better::Higher, Round::jobs_per_s),
    ("cpu_ms_per_job", "ms", Better::Lower, Round::cpu_ms_per_job),
];

/// Print every round and return each metric's [`trimmed_median`] over the
/// rounds, `dropped` being how many of a metric's worst rounds go first.
/// `min_samples` is what a round needs for its p90 to have ten samples
/// beyond it.
pub fn summarize_rounds(rounds: &[Round], dropped: usize, min_samples: usize, out: &mut Metrics) {
    for (k, r) in rounds.iter().enumerate() {
        let n = r.latencies.len();
        let top = highest_supported_percentile(n).map_or("none".to_string(), |p| format!("p{p}"));
        println!(
            "round {}: {:.3} s, {} samples ({} failed), highest percentile with 10 samples beyond it: {}",
            k + 1,
            r.secs,
            n,
            r.failed,
            top
        );
        if n < min_samples {
            println!(
                "WARNING: round {} holds {} samples, fewer than {}: lengthen --seconds",
                k + 1,
                n,
                min_samples
            );
        }
        let line: Vec<String> = ROUND_METRICS
            .iter()
            .map(|(name, unit, _, f)| format!("{name} {:.4} {unit}", f(r)))
            .collect();
        println!("round {}: {}", k + 1, line.join(", "));
    }
    for (name, unit, better, f) in ROUND_METRICS {
        let per_round: Vec<f64> = rounds.iter().map(f).collect();
        let value = trimmed_median(&per_round, better, dropped);
        println!(
            "{name}: {value:.4} {unit} without its {dropped} worst rounds; median of all rounds \
             {:.4}, (max - min) / median {:.2} %",
            median(&per_round),
            spread_pct(&per_round)
        );
        out.push(name, value, unit);
    }
}

/// The one line the harness reads: last on standard output. JSON has no
/// NaN, so a non-finite value is written as 0 and the run as not correct.
pub fn json_line(tally: &Tally, pins_ok: bool, metrics: &Metrics) -> String {
    let correct = tally.failed == 0 && pins_ok && metrics.non_finite().is_empty();
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Mark;
    use std::time::Duration;

    fn sample(seq: usize, start_ms: u64, done_ms: u64, ok: bool) -> Sample {
        let start = Duration::from_millis(start_ms);
        Sample {
            seq,
            start,
            submitted: start,
            submit_call: Duration::ZERO,
            done: Duration::from_millis(done_ms),
            ok,
        }
    }

    #[test]
    fn a_job_belongs_to_the_round_it_completes_in_and_rounds_report_their_median() {
        let run = Run {
            samples: vec![
                sample(0, 0, 90, true),   // before round 1: warm-up
                sample(1, 50, 150, true), // round 1, though it started before it
                sample(2, 100, 180, false),
                sample(3, 180, 220, true), // round 2
                sample(4, 190, 250, true),
                sample(5, 290, 320, true), // after the last mark: drained
            ],
            refused: 0,
            marks: [(100, 10.0), (200, 110.0), (300, 160.0)]
                .map(|(ms, cpu_ms)| Mark { at: Duration::from_millis(ms), cpu_ms })
                .to_vec(),
            max_outstanding: 2,
        };
        let rounds = rounds(&run);
        assert_eq!(rounds.len(), 2);
        assert_eq!(rounds[0].latencies, vec![100.0]);
        assert_eq!(rounds[0].failed, 1);
        assert_eq!(rounds[0].cpu_ms_per_job(), 100.0);
        assert_eq!(rounds[1].latencies, vec![40.0, 60.0]);
        assert_eq!(rounds[1].jobs_per_s(), 20.0);
        let mut m = Metrics::default();
        summarize_rounds(&rounds, 0, 1, &mut m);
        let get = |name: &str| m.0.iter().find(|x| x.name == name).unwrap().value;
        assert_eq!(get("latency_ms_p50"), 75.0);
        assert_eq!(get("jobs_per_s"), 15.0);
        // Without each metric's worst round: the faster round's latency, the busier round's rate.
        let mut m = Metrics::default();
        summarize_rounds(&rounds, 1, 1, &mut m);
        let get = |name: &str| m.0.iter().find(|x| x.name == name).unwrap().value;
        assert_eq!(get("latency_ms_p50"), 50.0);
        assert_eq!(get("jobs_per_s"), 20.0);
    }

    #[test]
    fn the_json_line_is_one_object_with_the_four_keys() {
        let mut m = Metrics::default();
        m.push("latency_ms_p50", 82.029799, "ms");
        let tally = Tally { attempted: 35, failed: 0 };
        assert_eq!(
            json_line(&tally, true, &m),
            "{\"correct\": true, \"attempted\": 35, \"failed\": 0, \"metrics\": {\"latency_ms_p50\": \
             {\"value\": 82.029799, \"unit\": \"ms\"}}}"
        );
        assert!(json_line(&tally, false, &m).starts_with("{\"correct\": false"));
        assert!(
            json_line(&Tally { attempted: 35, failed: 1 }, true, &m).contains("\"correct\": false")
        );
        // A metric that is not a number makes the run incorrect, never a perfect 0.
        m.push("bad", f64::NAN, "ms");
        assert_eq!(m.non_finite(), ["bad"]);
        let line = json_line(&tally, true, &m);
        assert!(line.starts_with("{\"correct\": false"), "{line}");
        assert!(line.ends_with("\"bad\": {\"value\": 0, \"unit\": \"ms\"}}}"), "{line}");
    }
}
