//! The computation-time experiments behind Figures 10–11 (§VII-B).
//!
//! Each timed unit covers the full publication pipeline: mapping the table
//! to its frequency matrix plus the mechanism itself (noise for Basic;
//! transform + noise + refinement + inverse for Privelet⁺ with SA = ∅,
//! which the paper uses here because it maximizes Privelet⁺'s work).

use crate::config::TimingSweepConfig;
use crate::Result;
use privelet::mechanism::{publish_basic, publish_privelet_with, PriveletConfig};
use privelet_data::uniform::{self, TimingConfig};
use privelet_data::FrequencyMatrix;
use privelet_matrix::LaneExecutor;
use std::time::Instant;

/// One timing measurement.
#[derive(Debug, Clone)]
pub struct TimingPoint {
    /// Tuple count n.
    pub n: usize,
    /// Actual cell count m (= |A|⁴ after fourth-root rounding).
    pub m: usize,
    /// Seconds for Basic (table → matrix → noise).
    pub basic_secs: f64,
    /// Seconds for Privelet⁺ with SA = ∅ (table → matrix → HN transform →
    /// noise → inverse).
    pub privelet_secs: f64,
}

/// Times both mechanisms once on a dataset of `n` tuples and ~`m_target`
/// cells. `epsilon` is fixed at 1.0 — it does not affect the running time.
pub fn time_once(n: usize, m_target: usize, seed: u64) -> Result<TimingPoint> {
    time_once_with(&mut LaneExecutor::new(), n, m_target, seed)
}

/// [`time_once`] on a caller-provided transform engine, so repeated
/// measurements amortize the engine buffers (the first rep pays them, the
/// best-of minimum reflects the warm path).
pub fn time_once_with(
    exec: &mut LaneExecutor,
    n: usize,
    m_target: usize,
    seed: u64,
) -> Result<TimingPoint> {
    let cfg = TimingConfig::with_total_cells(m_target, n, seed);
    let table = uniform::generate(&cfg)?;

    let start = Instant::now();
    let fm = FrequencyMatrix::from_table(&table)?;
    let _basic = publish_basic(&fm, 1.0, seed)?;
    let basic_secs = start.elapsed().as_secs_f64();
    drop(_basic);

    let start = Instant::now();
    let fm = FrequencyMatrix::from_table(&table)?;
    let out = publish_privelet_with(exec, &fm, &PriveletConfig::pure(1.0, seed))?;
    let privelet_secs = start.elapsed().as_secs_f64();
    drop(out);

    Ok(TimingPoint {
        n,
        m: cfg.cell_count(),
        basic_secs,
        privelet_secs,
    })
}

/// Times both mechanisms `reps` times and keeps the minimum of each —
/// the standard way to suppress scheduler noise when the signal (e.g. the
/// O(n) term under a large O(m) term) is small.
pub fn time_best_of(n: usize, m_target: usize, seed: u64, reps: usize) -> Result<TimingPoint> {
    let mut exec = LaneExecutor::new();
    let mut best = time_once_with(&mut exec, n, m_target, seed)?;
    for r in 1..reps as u64 {
        let p = time_once_with(&mut exec, n, m_target, seed ^ r)?;
        best.basic_secs = best.basic_secs.min(p.basic_secs);
        best.privelet_secs = best.privelet_secs.min(p.privelet_secs);
    }
    Ok(best)
}

/// Repetitions per sweep point (minimum taken).
pub const SWEEP_REPS: usize = 3;

/// Figure 10: computation time vs n at fixed m.
pub fn run_timing_n_sweep(cfg: &TimingSweepConfig) -> Result<Vec<TimingPoint>> {
    cfg.n_values
        .iter()
        .map(|&n| time_best_of(n, cfg.m_for_n_sweep, cfg.seed, SWEEP_REPS))
        .collect()
}

/// Figure 11: computation time vs m at fixed n.
pub fn run_timing_m_sweep(cfg: &TimingSweepConfig) -> Result<Vec<TimingPoint>> {
    cfg.m_values
        .iter()
        .map(|&m| time_best_of(cfg.n_for_m_sweep, m, cfg.seed, SWEEP_REPS))
        .collect()
}

/// Least-squares slope/intercept of y over x; used to check the linear
/// scaling claims ("both techniques scale linearly with n / m").
pub fn linear_fit(xs: &[f64], ys: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let cov: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let var: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    let slope = if var == 0.0 { 0.0 } else { cov / var };
    (slope, my - slope * mx)
}

/// Coefficient of determination R² of a linear fit; 1.0 = perfectly linear.
pub fn r_squared(xs: &[f64], ys: &[f64]) -> f64 {
    let (slope, icept) = linear_fit(xs, ys);
    let my = ys.iter().sum::<f64>() / ys.len() as f64;
    let ss_res: f64 = xs
        .iter()
        .zip(ys)
        .map(|(x, y)| {
            let e = y - (slope * x + icept);
            e * e
        })
        .sum();
    let ss_tot: f64 = ys.iter().map(|y| (y - my) * (y - my)).sum();
    if ss_tot == 0.0 {
        1.0
    } else {
        1.0 - ss_res / ss_tot
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_once_reports_positive_times() {
        let p = time_once(20_000, 1 << 16, 7).unwrap();
        assert_eq!(p.n, 20_000);
        assert_eq!(p.m, 1 << 16);
        assert!(p.basic_secs > 0.0);
        assert!(p.privelet_secs > 0.0);
    }

    #[test]
    fn linear_fit_recovers_exact_line() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [3.0, 5.0, 7.0, 9.0];
        let (slope, icept) = linear_fit(&xs, &ys);
        assert!((slope - 2.0).abs() < 1e-12);
        assert!((icept - 1.0).abs() < 1e-12);
        assert!((r_squared(&xs, &ys) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn r_squared_detects_nonlinearity() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let quad: Vec<f64> = xs.iter().map(|x| x * x).collect();
        assert!(r_squared(&xs, &quad) < 0.99);
    }
}
