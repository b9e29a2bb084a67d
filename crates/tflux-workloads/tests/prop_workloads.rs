//! Mathematical property tests of the workload implementations — the
//! algorithms themselves, independent of any platform.

use tflux_core::{cases, SplitMix64};
use tflux_workloads::fft::{self, Cpx};
use tflux_workloads::{mmult, qsort, susan, trapez};

/// `n` reals drawn uniformly from `[-10, 10)`.
fn reals(rng: &mut SplitMix64, n: usize) -> Vec<f64> {
    let unit = |bits: u64| (bits >> 11) as f64 / (1u64 << 53) as f64;
    (0..n)
        .map(|_| -10.0 + 20.0 * unit(rng.next_u64()))
        .collect()
}

/// FFT is linear: FFT(a + b) = FFT(a) + FFT(b).
#[test]
fn fft_is_linear() {
    cases(64, |rng| {
        let re_a = reals(rng, 16);
        let re_b = reals(rng, 16);
        let a: Vec<Cpx> = re_a.iter().map(|&r| Cpx::new(r, -r * 0.5)).collect();
        let b: Vec<Cpx> = re_b.iter().map(|&r| Cpx::new(r * 0.3, r)).collect();
        let mut sum: Vec<Cpx> = a
            .iter()
            .zip(&b)
            .map(|(x, y)| Cpx::new(x.re + y.re, x.im + y.im))
            .collect();
        let (mut fa, mut fb) = (a, b);
        fft::fft_inplace(&mut fa);
        fft::fft_inplace(&mut fb);
        fft::fft_inplace(&mut sum);
        for k in 0..16 {
            assert!((sum[k].re - (fa[k].re + fb[k].re)).abs() < 1e-9);
            assert!((sum[k].im - (fa[k].im + fb[k].im)).abs() < 1e-9);
        }
    });
}

/// Parseval: sum |x|^2 = (1/N) sum |X|^2 for the unnormalized DFT.
#[test]
fn fft_satisfies_parseval() {
    cases(64, |rng| {
        let re = reals(rng, 32);
        let im = reals(rng, 32);
        let x: Vec<Cpx> = re.iter().zip(&im).map(|(&r, &i)| Cpx::new(r, i)).collect();
        let time_energy: f64 = x.iter().map(|c| c.re * c.re + c.im * c.im).sum();
        let mut fx = x;
        fft::fft_inplace(&mut fx);
        let freq_energy: f64 = fx.iter().map(|c| c.re * c.re + c.im * c.im).sum::<f64>() / 32.0;
        assert!(
            (time_energy - freq_energy).abs() < 1e-6 * (1.0 + time_energy),
            "{} vs {}",
            time_energy,
            freq_energy
        );
    });
}

/// MMULT with the identity matrix is the identity.
#[test]
fn mmult_identity() {
    cases(64, |rng| {
        let n = rng.range(1usize..24);
        let (a, _) = mmult::inputs(n);
        let mut id = vec![0.0; n * n];
        for i in 0..n {
            id[i * n + i] = 1.0;
        }
        let right = mmult::seq(&a, &id, n);
        let left = mmult::seq(&id, &a, n);
        assert_eq!(right.as_slice(), a.as_slice());
        assert_eq!(left.as_slice(), a.as_slice());
    });
}

/// QSORT output is a sorted permutation of the input.
#[test]
fn qsort_output_is_sorted_permutation() {
    cases(64, |rng| {
        let n = rng.range(1usize..2_000);
        let input = qsort::input(n);
        let out = qsort::seq(n);
        assert_eq!(out.len(), n);
        assert!(out.windows(2).all(|w| w[0] <= w[1]));
        let mut expect = input;
        expect.sort_unstable();
        assert_eq!(out, expect);
    });
}

/// TRAPEZ error shrinks ~quadratically when doubling the interval
/// count (the trapezoid rule is O(h^2)).
#[test]
fn trapez_converges_quadratically() {
    cases(64, |rng| {
        let k = rng.range(8u32..14);
        let coarse = (trapez::seq(1 << k) - std::f64::consts::PI).abs();
        let fine = (trapez::seq(1 << (k + 1)) - std::f64::consts::PI).abs();
        // allow slack for rounding at very fine grids
        assert!(
            fine < coarse * 0.3 + 1e-12,
            "coarse {}, fine {}",
            coarse,
            fine
        );
    });
}

/// SUSAN smoothing stays within the input's value range and leaves
/// borders untouched.
#[test]
fn susan_respects_range_and_borders() {
    cases(64, |rng| {
        let w = rng.range(12usize..40);
        let h = rng.range(12usize..32);
        let lut = susan::brightness_lut();
        let mut img = Vec::with_capacity(w * h);
        for y in 0..h {
            img.extend_from_slice(&susan::gen_row(w, h, y));
        }
        let out = susan::smooth_band(&img, w, h, 0, h, &lut);
        let (min, max) = img
            .iter()
            .fold((255u8, 0u8), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        for (idx, (&o, &i)) in out.iter().zip(&img).enumerate() {
            let (x, y) = (idx % w, idx / w);
            let border = x < susan::RADIUS
                || x >= w - susan::RADIUS
                || y < susan::RADIUS
                || y >= h - susan::RADIUS;
            if border {
                assert_eq!(o, i, "border pixel changed at ({},{})", x, y);
            } else {
                assert!(
                    o >= min && o <= max,
                    "({},{}): {} outside [{},{}]",
                    x,
                    y,
                    o,
                    min,
                    max
                );
            }
        }
    });
}

/// The 2-D DDM FFT equals row-FFT -> transpose -> row-FFT -> transpose.
#[test]
fn fft2d_matches_transpose_formulation() {
    // the input is fixed, so the cases only repeat one check
    cases(64, |_| {
        let n = 16usize;
        let (m, _) = fft::seq(n);
        // transpose formulation on the same input
        let mut t = fft::input(n);
        for r in 0..n {
            fft::fft_inplace(&mut t[r * n..(r + 1) * n]);
        }
        let mut tt = vec![Cpx::default(); n * n];
        for r in 0..n {
            for c in 0..n {
                tt[c * n + r] = t[r * n + c];
            }
        }
        for r in 0..n {
            fft::fft_inplace(&mut tt[r * n..(r + 1) * n]);
        }
        let mut back = vec![Cpx::default(); n * n];
        for r in 0..n {
            for c in 0..n {
                back[c * n + r] = tt[r * n + c];
            }
        }
        for (a, b) in m.iter().zip(&back) {
            assert!((a.re - b.re).abs() < 1e-9);
            assert!((a.im - b.im).abs() < 1e-9);
        }
    });
}
