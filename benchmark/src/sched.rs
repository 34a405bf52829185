//! The open loop's seeded arrival plan: when each job is due, which tenant
//! it reads and which class it declares.

use crate::gen::Rng;
use s3_engine::QosClass;
use std::time::Duration;

/// Due times of a Poisson process at `rate_per_s` over `span`, given its
/// count: `rate_per_s * span` arrivals at independent uniform times, which
/// is exactly how a Poisson process looks once its total is known. Every
/// seed therefore offers the same number of jobs, and everything else — the
/// count in any second or round, the gaps, the bursts — is Poisson and the
/// seed's.
pub fn poisson_given_count(seed: u64, rate_per_s: f64, span: Duration) -> Vec<Duration> {
    let mut rng = Rng::stream(seed, 1);
    let n = (rate_per_s * span.as_secs_f64()).round() as usize;
    // `unit` is in (0, 1]; an arrival is due in [0, span).
    let mut due: Vec<Duration> = (0..n).map(|_| span.mul_f64(1.0 - rng.unit())).collect();
    due.sort();
    due
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Index into the service's tenants.
    pub tenant: usize,
    pub class: QosClass,
}

/// Tenant and class of each of `n` arrivals. `tenant_share[t]` and
/// `class_share` (High, Normal, Low) are percentages summing to 100; each
/// block of 100 arrivals holds exactly those counts in shuffled order, so
/// every seed offers the same mix and only the order differs.
pub fn arrivals(
    seed: u64,
    n: usize,
    tenant_share: &[usize],
    class_share: [usize; 3],
) -> Vec<Arrival> {
    assert_eq!(tenant_share.iter().sum::<usize>(), 100);
    assert_eq!(class_share.iter().sum::<usize>(), 100);
    let mut rng = Rng::stream(seed, 2);
    let spread = |share: &[usize], rng: &mut Rng| {
        let mut block: Vec<usize> =
            share.iter().enumerate().flat_map(|(i, &s)| vec![i; s]).collect();
        rng.shuffle(&mut block);
        block
    };
    let mut out = Vec::with_capacity(n + 100);
    while out.len() < n {
        let tenants = spread(tenant_share, &mut rng);
        let classes = spread(&class_share, &mut rng);
        out.extend(
            tenants
                .iter()
                .zip(&classes)
                .map(|(&tenant, &c)| Arrival { tenant, class: QosClass::ALL[c] }),
        );
    }
    out.truncate(n);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_has_the_count_the_burstiness_and_the_seed() {
        let span = Duration::from_secs(100);
        let due = poisson_given_count(31, 60.0, span);
        assert_eq!(due, poisson_given_count(31, 60.0, span));
        assert_ne!(due, poisson_given_count(32, 60.0, span));
        assert_eq!(due.len(), 6_000);
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        assert!(due.last().unwrap() < &span);
        // Exponential gaps: the standard deviation equals the mean.
        let gaps: Vec<f64> = due.windows(2).map(|w| (w[1] - w[0]).as_secs_f64()).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        assert!((var.sqrt() / mean - 1.0).abs() < 0.06, "cv {}", var.sqrt() / mean);
        // The count in a second varies as a Poisson count does: its variance
        // is near its mean, about +-7.7 around 60.
        let per_s: Vec<f64> =
            (0..100).map(|s| due.iter().filter(|d| d.as_secs() == s).count() as f64).collect();
        let m = per_s.iter().sum::<f64>() / 100.0;
        let v = per_s.iter().map(|c| (c - m).powi(2)).sum::<f64>() / 100.0;
        assert!((0.6..=1.5).contains(&(v / m)), "index of dispersion {}", v / m);
    }

    #[test]
    fn every_block_of_arrivals_holds_the_exact_mix() {
        let plan = arrivals(31, 1_000, &[70, 30], [20, 60, 20]);
        assert_eq!(plan, arrivals(31, 1_000, &[70, 30], [20, 60, 20]));
        assert_ne!(plan, arrivals(32, 1_000, &[70, 30], [20, 60, 20]));
        for block in plan.chunks(100) {
            assert_eq!(block.iter().filter(|a| a.tenant == 0).count(), 70);
            assert_eq!(block.iter().filter(|a| a.class == QosClass::High).count(), 20);
            assert_eq!(block.iter().filter(|a| a.class == QosClass::Normal).count(), 60);
        }
    }
}
