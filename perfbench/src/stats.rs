//! Sample summaries and the metric sheet the benchmark prints.

use std::time::Duration;

/// Nearest-rank percentile of `samples` (`q` in `0..=1`); 0.0 when empty.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (nearest rank, lower middle).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Milliseconds of a duration, with all its digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One printed metric: value, unit and how many samples it summarises.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// The metrics of one run, in insertion order.
#[derive(Default)]
pub struct Sheet {
    pub metrics: Vec<Metric>,
}

impl Sheet {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str, samples: usize) {
        let name = name.into();
        debug_assert!(self.get(&name).is_none(), "metric {name} set twice");
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// A measured loop cut into rounds of a second or a few, each with the
/// host-speed gauge read inside it, so every raw time can be scaled to the
/// reference speed (see [`crate::gauge`]).
#[derive(Default)]
pub struct Rounds {
    /// Per round: operation latencies (ms), gauge times (ms) and the
    /// seconds the round spent on operations.
    rounds: Vec<(Vec<f64>, Vec<f64>, f64)>,
}

impl Rounds {
    fn at(&mut self, round: usize) -> &mut (Vec<f64>, Vec<f64>, f64) {
        if self.rounds.len() <= round {
            self.rounds.resize_with(round + 1, Default::default);
        }
        &mut self.rounds[round]
    }

    /// An operation of `lat_ms` completed in `round`.
    pub fn push(&mut self, round: usize, lat_ms: f64) {
        self.at(round).0.push(lat_ms);
    }

    /// A gauge reading (ms) taken in `round`.
    pub fn gauge(&mut self, round: usize, ms: f64) {
        self.at(round).1.push(ms);
    }

    /// `secs` more seconds of `round` spent on operations.
    pub fn active(&mut self, round: usize, secs: f64) {
        self.at(round).2 += secs;
    }

    /// Each round's scaling factor: from its own gauge median, or the
    /// whole run's when the round read none.
    fn factors(&self) -> Vec<f64> {
        let all: Vec<f64> = self.rounds.iter().flat_map(|r| r.1.clone()).collect();
        let run = median(&all);
        self.rounds
            .iter()
            .map(|r| crate::gauge::factor(if r.1.is_empty() { run } else { median(&r.1) }))
            .collect()
    }

    pub fn count(&self) -> usize {
        self.rounds.iter().filter(|r| !r.0.is_empty()).count()
    }

    /// Every raw latency of the run.
    pub fn raw(&self) -> Vec<f64> {
        self.rounds.iter().flat_map(|r| r.0.clone()).collect()
    }

    /// Every latency of the run at the reference speed.
    pub fn scaled(&self) -> Vec<f64> {
        self.rounds
            .iter()
            .zip(self.factors())
            .flat_map(|(r, f)| r.0.iter().map(move |l| l * f))
            .collect()
    }

    /// Operations per active second, raw and at the reference speed.
    pub fn rates(&self) -> (f64, f64) {
        let n = self.raw().len() as f64;
        let raw: f64 = self.rounds.iter().map(|r| r.2).sum();
        let scaled: f64 = self
            .rounds
            .iter()
            .zip(self.factors())
            .map(|(r, f)| r.2 * f)
            .sum();
        (n / raw.max(1e-9), n / scaled.max(1e-9))
    }

    /// Per round: raw latency median and gauge median, in ms.
    pub fn per_round(&self) -> Vec<(f64, f64)> {
        self.rounds
            .iter()
            .map(|r| (median(&r.0), median(&r.1)))
            .collect()
    }

    /// The median gauge time of the run, in ms.
    pub fn gauge_median(&self) -> f64 {
        median(
            &self
                .rounds
                .iter()
                .flat_map(|r| r.1.clone())
                .collect::<Vec<_>>(),
        )
    }
}

/// Repeat `f` at least `min_reps` times and until `min_total` has been
/// spent (at most `max_reps` times); returns every duration in ms.
pub fn repeat_ms(
    min_reps: usize,
    max_reps: usize,
    min_total: Duration,
    mut f: impl FnMut(),
) -> Vec<f64> {
    let mut out = Vec::new();
    let t0 = std::time::Instant::now();
    while out.len() < max_reps && (out.len() < min_reps || t0.elapsed() < min_total) {
        let t = std::time::Instant::now();
        f();
        out.push(ms(t.elapsed()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.9), 90.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn rounds_scale_by_their_own_gauge() {
        let mut r = Rounds::default();
        // Round 0 ran at half the reference speed, round 1 at it; round 2
        // read no gauge and takes the run's median reading (2.0).
        for (round, lat, gauge) in [(0, 20.0, 2.0), (0, 40.0, 2.0), (1, 10.0, 1.0)] {
            r.push(round, lat);
            r.active(round, lat / 1e3);
            r.gauge(round, gauge);
        }
        r.push(2, 8.0);
        r.active(2, 8.0 / 1e3);
        assert_eq!(r.raw(), vec![20.0, 40.0, 10.0, 8.0]);
        assert_eq!(r.scaled(), vec![10.0, 20.0, 10.0, 4.0]);
        let (raw, scaled) = r.rates();
        assert!((raw - 4.0 / 0.078).abs() < 1e-9);
        assert!((scaled - 4.0 / 0.044).abs() < 1e-9);
        assert_eq!(r.count(), 3);
    }
}
