//! Exact order statistics over per-request samples.

/// Nearest-rank quantile `q` (0 < q <= 1) of `values`: the smallest sample
/// with at least `q·n` samples at or below it. Exact, no interpolation and
/// no histogram buckets. `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Nearest-rank median.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Arithmetic mean (`NaN` when empty).
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Seed of the fixtures every run shares: the data sets, the training
/// workloads and the model initialisation. Fixing them makes every run
/// train the same models, so run-to-run spread is measurement noise, not
/// model-to-model quality variation; `--seed` chooses the traffic (served
/// and held-out queries, per-request seeds, generation seeds).
pub fn fixture(stream: u64) -> u64 {
    mix(0x5A3_2022, stream)
}

/// SplitMix64 finaliser: derives independent sub-seeds from the run seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        // A single outlier only owns the top rank.
        let mut w = vec![1.0; 199];
        w.push(1e6);
        assert_eq!(quantile(&w, 0.99), 1.0);
        assert!(quantile(&[], 0.5).is_nan());
    }
}
