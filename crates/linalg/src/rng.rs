//! Random initialization helpers (Gaussian sampling without `rand_distr`).

use crate::matrix::Matrix;
use rand::Rng;

/// Draws one standard-normal sample via the Box–Muller transform.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f32 {
    // Avoid ln(0).
    let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
    let u2: f32 = rng.gen::<f32>();
    (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos()
}

/// A `rows × cols` matrix with i.i.d. `N(0, std²)` entries.
pub fn randn<R: Rng + ?Sized>(rng: &mut R, rows: usize, cols: usize, std: f32) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| standard_normal(rng) * std)
}

/// A `rows × cols` matrix with i.i.d. `U(-limit, limit)` entries.
pub fn rand_uniform<R: Rng + ?Sized>(rng: &mut R, rows: usize, cols: usize, limit: f32) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-limit..limit))
}

/// `n` rows scattered `N(0, noise_std²)` around the given cluster
/// `centers` (row `r` uses centre `r % centers.rows()`).
///
/// The shared synthetic-workload recipe for vector-index tests and
/// examples: deduplicated production command lines embed as many
/// variants of comparatively few templates, and drawing queries around
/// the *same* centres keeps them distributed like the indexed data.
pub fn clustered_around<R: Rng + ?Sized>(
    rng: &mut R,
    centers: &Matrix,
    n: usize,
    noise_std: f32,
) -> Matrix {
    let noise = randn(rng, n, centers.cols(), noise_std);
    Matrix::from_fn(n, centers.cols(), |r, c| {
        centers[(r % centers.rows(), c)] + noise[(r, c)]
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn normal_moments_are_plausible() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 20_000;
        let samples: Vec<f32> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f32>() / n as f32;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.03, "mean {mean} too far from 0");
        assert!((var - 1.0).abs() < 0.05, "variance {var} too far from 1");
    }

    #[test]
    fn randn_respects_std() {
        let mut rng = StdRng::seed_from_u64(8);
        let m = randn(&mut rng, 100, 100, 0.02);
        let var = m.as_slice().iter().map(|x| x * x).sum::<f32>() / 10_000.0;
        assert!((var.sqrt() - 0.02).abs() < 0.002);
    }

    #[test]
    fn uniform_within_bounds() {
        let mut rng = StdRng::seed_from_u64(9);
        let m = rand_uniform(&mut rng, 10, 10, 0.5);
        assert!(m.as_slice().iter().all(|&x| (-0.5..0.5).contains(&x)));
    }

    #[test]
    fn seeded_rng_is_deterministic() {
        let a = randn(&mut StdRng::seed_from_u64(1), 4, 4, 1.0);
        let b = randn(&mut StdRng::seed_from_u64(1), 4, 4, 1.0);
        assert_eq!(a, b);
    }
}
