//! Classical data analysis over large landmark sets — §5.4's third
//! optimisation.
//!
//! "A third alternative is to use a large number of randomly selected
//! landmarks and then rely on classical data analysis techniques such as
//! Singular Value Decomposition to extract useful information from the
//! large number of RTTs and to suppress noises."
//!
//! [`PcaModel`] fits a principal-component basis to a sample of landmark
//! vectors (eigendecomposition of the covariance matrix by cyclic Jacobi
//! rotations — self-contained, no linear-algebra dependency) and projects
//! vectors onto the top components, yielding compact, denoised coordinates
//! for ranking.

use crate::vector::LandmarkVector;

/// A fitted principal-component basis over landmark-vector space.
#[derive(Debug, Clone)]
pub struct PcaModel {
    mean: Vec<f64>,
    /// `components[k]` = the k-th principal direction (unit length),
    /// strongest first.
    components: Vec<Vec<f64>>,
    /// Variance captured by each kept component.
    variances: Vec<f64>,
}

impl PcaModel {
    /// Fits a model keeping the top `keep` components of the samples'
    /// covariance.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty, vectors have differing lengths, or
    /// `keep` is zero or exceeds the dimensionality.
    pub fn fit(samples: &[LandmarkVector], keep: usize) -> Self {
        assert!(!samples.is_empty(), "need at least one sample");
        let d = samples[0].len();
        assert!(samples.iter().all(|v| v.len() == d), "ragged samples");
        assert!(keep >= 1 && keep <= d, "keep must be in 1..=dims");

        let n = samples.len() as f64;
        let mut mean = vec![0.0; d];
        for v in samples {
            for (m, r) in mean.iter_mut().zip(v.rtts()) {
                *m += r.as_millis_f64();
            }
        }
        for m in &mut mean {
            *m /= n;
        }

        // Covariance matrix.
        let mut cov = vec![vec![0.0; d]; d];
        for v in samples {
            let centred: Vec<f64> = v
                .rtts()
                .iter()
                .zip(&mean)
                .map(|(r, m)| r.as_millis_f64() - m)
                .collect();
            for i in 0..d {
                for j in 0..d {
                    cov[i][j] += centred[i] * centred[j] / n;
                }
            }
        }

        let (eigenvalues, eigenvectors) = jacobi_eigen(&cov);
        // Order by descending eigenvalue.
        let mut order: Vec<usize> = (0..d).collect();
        #[expect(clippy::expect_used, reason = "eigenvalues are finite")]
        order.sort_by(|&a, &b| {
            eigenvalues[b]
                .partial_cmp(&eigenvalues[a])
                .expect("eigenvalues are finite")
        });
        let components = order[..keep]
            .iter()
            .map(|&k| eigenvectors.iter().map(|row| row[k]).collect())
            .collect();
        let variances = order[..keep]
            .iter()
            .map(|&k| eigenvalues[k].max(0.0))
            .collect();
        PcaModel {
            mean,
            components,
            variances,
        }
    }

    /// Number of kept components.
    pub fn dims(&self) -> usize {
        self.components.len()
    }

    /// Variance captured by each kept component, strongest first.
    pub fn variances(&self) -> &[f64] {
        &self.variances
    }

    /// Fraction of total sample variance the kept components explain.
    /// (Requires the model to have been fitted with `keep == dims` to be
    /// exactly 1.0; partial models report their captured share.)
    pub fn explained_fraction(&self, samples: &[LandmarkVector]) -> f64 {
        let total: f64 = {
            let d = self.mean.len();
            let n = samples.len() as f64;
            let mut acc = 0.0;
            for v in samples {
                for i in 0..d {
                    let c = v.rtt(i).as_millis_f64() - self.mean[i];
                    acc += c * c / n;
                }
            }
            acc
        };
        if total <= 0.0 {
            return 1.0;
        }
        (self.variances.iter().sum::<f64>() / total).min(1.0)
    }

    /// Projects a vector onto the kept components.
    ///
    /// # Panics
    ///
    /// Panics if `v`'s dimensionality differs from the training samples'.
    pub fn project(&self, v: &LandmarkVector) -> Vec<f64> {
        assert_eq!(v.len(), self.mean.len(), "dimensionality mismatch");
        let centred: Vec<f64> = v
            .rtts()
            .iter()
            .zip(&self.mean)
            .map(|(r, m)| r.as_millis_f64() - m)
            .collect();
        self.components
            .iter()
            .map(|c| c.iter().zip(&centred).map(|(a, b)| a * b).sum())
            .collect()
    }

    /// Euclidean distance between two vectors in the projected space.
    pub fn projected_distance(&self, a: &LandmarkVector, b: &LandmarkVector) -> f64 {
        let pa = self.project(a);
        let pb = self.project(b);
        pa.iter()
            .zip(&pb)
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            .sqrt()
    }
}

/// Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.
/// Returns `(eigenvalues, eigenvectors)` with eigenvector `k` in column `k`.
#[allow(
    clippy::needless_range_loop,
    reason = "the rotation kernel reads clearest indexed"
)]
fn jacobi_eigen(matrix: &[Vec<f64>]) -> (Vec<f64>, Vec<Vec<f64>>) {
    let n = matrix.len();
    let mut a: Vec<Vec<f64>> = matrix.to_vec();
    let mut v = vec![vec![0.0; n]; n];
    for (i, row) in v.iter_mut().enumerate() {
        row[i] = 1.0;
    }
    for _sweep in 0..100 {
        let mut off = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                off += a[i][j] * a[i][j];
            }
        }
        if off < 1e-12 {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                if a[p][q].abs() < 1e-15 {
                    continue;
                }
                let theta = (a[q][q] - a[p][p]) / (2.0 * a[p][q]);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                for k in 0..n {
                    let akp = a[k][p];
                    let akq = a[k][q];
                    a[k][p] = c * akp - s * akq;
                    a[k][q] = s * akp + c * akq;
                }
                for k in 0..n {
                    let apk = a[p][k];
                    let aqk = a[q][k];
                    a[p][k] = c * apk - s * aqk;
                    a[q][k] = s * apk + c * aqk;
                }
                for k in 0..n {
                    let vkp = v[k][p];
                    let vkq = v[k][q];
                    v[k][p] = c * vkp - s * vkq;
                    v[k][q] = s * vkp + c * vkq;
                }
            }
        }
    }
    let eigenvalues = (0..n).map(|i| a[i][i]).collect();
    (eigenvalues, v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(ms: &[f64]) -> LandmarkVector {
        LandmarkVector::from_millis(ms)
    }

    #[test]
    fn jacobi_diagonalises_a_known_matrix() {
        // [[2, 1], [1, 2]] has eigenvalues 3 and 1.
        let m = vec![vec![2.0, 1.0], vec![1.0, 2.0]];
        let (mut vals, _) = jacobi_eigen(&m);
        vals.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        assert!((vals[0] - 1.0).abs() < 1e-9);
        assert!((vals[1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn principal_direction_follows_the_spread() {
        // Points spread along the diagonal (x ≈ y); the first component
        // must align with (1,1)/√2.
        let samples: Vec<LandmarkVector> = (0..40)
            .map(|i| {
                let t = i as f64 * 3.0;
                sample(&[t + (i % 3) as f64, t - (i % 2) as f64])
            })
            .collect();
        let model = PcaModel::fit(&samples, 1);
        let c = &model.components[0];
        let alignment = (c[0] * c[1]).abs() / (c[0].abs() * c[1].abs()).max(1e-12);
        assert!(alignment > 0.9, "first component should be diagonal: {c:?}");
        assert!(model.explained_fraction(&samples) > 0.9);
    }

    #[test]
    fn projection_suppresses_a_noise_dimension() {
        // Two informative dimensions plus one of pure noise: with keep=2
        // the projected distance of same-signal pairs shrinks relative to
        // the raw distance that the noise inflates.
        use tao_util::rand::Rng;
        use tao_util::rand::SeedableRng;
        let mut rng = tao_util::rand::rngs::StdRng::seed_from_u64(9);
        let mut samples = Vec::new();
        for i in 0..60 {
            let base = (i % 6) as f64 * 40.0;
            samples.push(sample(&[
                base + rng.gen_range(-1.0..1.0),
                base * 0.5 + rng.gen_range(-1.0..1.0),
                rng.gen_range(0.0..30.0), // low-variance measurement noise
            ]));
        }
        // The two signal dimensions are perfectly correlated (rank-1
        // signal), so one component captures it and the noise axis is the
        // one dropped.
        let model = PcaModel::fit(&samples, 1);
        // Same signal cluster, opposite noise draws:
        let a = sample(&[40.0, 20.0, 2.0]);
        let b = sample(&[41.0, 20.5, 28.0]);
        let raw = a.euclidean_ms(&b);
        let denoised = model.projected_distance(&a, &b);
        assert!(
            denoised < raw * 0.2,
            "projection should strip the noise axis: raw {raw:.1}, denoised {denoised:.1}"
        );
    }

    #[test]
    fn full_rank_model_preserves_distances() {
        let samples: Vec<LandmarkVector> = (0..30)
            .map(|i| sample(&[i as f64, (i * 2 % 17) as f64, (i * 7 % 23) as f64]))
            .collect();
        let model = PcaModel::fit(&samples, 3);
        let a = &samples[3];
        let b = &samples[20];
        let raw = a.euclidean_ms(b);
        let projected = model.projected_distance(a, b);
        assert!(
            (raw - projected).abs() < 1e-6,
            "orthonormal full-rank projection is an isometry: {raw} vs {projected}"
        );
    }

    #[test]
    #[should_panic(expected = "keep must be")]
    fn keep_is_bounded() {
        PcaModel::fit(&[sample(&[1.0, 2.0])], 3);
    }
}
