//! Mathematical property tests of the workload implementations — the
//! algorithms themselves, independent of any platform.

use tflux_core::{cases, Context, SplitMix64, Unroll};
use tflux_workloads::fft::{self, Cpx};
use tflux_workloads::{mmult, qsort, susan, trapez, Params, Platform, SizeClass};

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

/// SUSAN as it was before the spatial table: a per-tap `exp` and every
/// tap read through a clamping closure. The reference the table-driven
/// `smooth_band` must match byte for byte.
fn susan_reference(img: &[u8], w: usize, h: usize, lo: usize, hi: usize, lut: &[f64]) -> Vec<u8> {
    let r = susan::RADIUS as isize;
    let at = |x: isize, y: isize| -> u8 {
        let xc = x.clamp(0, w as isize - 1) as usize;
        let yc = y.clamp(0, h as isize - 1) as usize;
        img[yc * w + xc]
    };
    let pixel = |img: &dyn Fn(isize, isize) -> u8, x: isize, y: isize| -> u8 {
        let center = img(x, y) as i32;
        let (mut num, mut den) = (0.0f64, 0.0f64);
        for dy in -r..=r {
            for dx in -r..=r {
                if dx == 0 && dy == 0 {
                    continue;
                }
                let v = img(x + dx, y + dy) as i32;
                let spatial = (-((dx * dx + dy * dy) as f64) / 7.5).exp();
                let w = spatial * lut[(v - center).unsigned_abs() as usize];
                num += w * v as f64;
                den += w;
            }
        }
        if den > 1e-12 {
            (num / den).round().clamp(0.0, 255.0) as u8
        } else {
            center as u8
        }
    };
    let mut out = Vec::with_capacity((hi - lo) * w);
    for y in lo as isize..hi as isize {
        for x in 0..w as isize {
            if x < r || x >= w as isize - r || y < r || y >= h as isize - r {
                out.push(img[y as usize * w + x as usize]);
            } else {
                out.push(pixel(&at, x, y));
            }
        }
    }
    out
}

/// MMULT as it was before the four-step fold: the plain ikj loop.
fn mmult_reference(a: &[f64], b: &[f64], n: usize) -> Vec<f64> {
    let mut c = vec![0.0; n * n];
    for i in 0..n {
        for k in 0..n {
            let aik = a[i * n + k];
            for j in 0..n {
                c[i * n + j] += aik * b[k * n + j];
            }
        }
    }
    c
}

/// The table-driven SUSAN mask gives the per-tap reference's bytes on
/// random images, down to 1×1, and on every `lo..hi` band.
#[test]
fn susan_matches_per_tap_reference() {
    let lut = susan::brightness_lut();
    cases(64, |rng| {
        let (w, h) = (rng.range(1usize..24), rng.range(1usize..20));
        let img: Vec<u8> = (0..w * h).map(|_| rng.next_u64() as u8).collect();
        let lo = rng.range(0..h);
        let hi = rng.range(lo..h + 1);
        assert_eq!(
            susan::smooth_band(&img, w, h, lo, hi, &lut),
            susan_reference(&img, w, h, lo, hi, &lut),
            "{w}x{h}, rows {lo}..{hi}"
        );
    });
    let (w, h) = (40, 24);
    let img: Vec<u8> = (0..h).flat_map(|y| susan::gen_row(w, h, y)).collect();
    assert_eq!(
        susan::smooth_band(&img, w, h, 0, h, &lut),
        susan_reference(&img, w, h, 0, h, &lut)
    );
}

/// The four-step MMULT fold gives the plain ikj loop's bits on random
/// matrices, at sizes that leave one to three `k` steps over.
#[test]
fn mmult_matches_ikj_reference() {
    cases(64, |rng| {
        let n = rng.range(1usize..20);
        let (a, b) = (reals(rng, n * n), reals(rng, n * n));
        let (got, want) = (mmult::seq(&a, &b, n), mmult_reference(&a, &b, n));
        assert!(
            got.iter()
                .zip(&want)
                .all(|(g, w)| g.to_bits() == w.to_bits()),
            "n = {n}"
        );
    });
}

/// TRAPEZ's integrand, as both old loops below evaluate it.
fn trapez_f(x: f64) -> f64 {
    4.0 / (1.0 + x * x)
}

/// TRAPEZ's `seq` as it was before the four-wide kernel: one scalar loop.
fn trapez_seq_reference(n: u64) -> f64 {
    let h = 1.0 / n as f64;
    let mut sum = 0.5 * (trapez_f(0.0) + trapez_f(1.0));
    for i in 1..n {
        sum += trapez_f(i as f64 * h);
    }
    sum * h
}

/// A TRAPEZ worker's partial sum as it was before the four-wide kernel:
/// a per-point weight, halved at the opening end point.
fn trapez_chunk_reference(n: u64, lo: u64, hi: u64) -> f64 {
    let h = 1.0 / n as f64;
    let mut s = 0.0;
    for i in lo..hi {
        let w = if i == 0 { 0.5 } else { 1.0 };
        s += w * trapez_f(i as f64 * h);
    }
    if hi == n {
        s += 0.5 * trapez_f(1.0);
    }
    s
}

/// The four-wide TRAPEZ kernel gives the old scalar loops' bits, in `seq`
/// and in every worker range: unrolls 1–9 reach each remainder length, a
/// range starting at 0 and one ending at `n`.
#[test]
fn trapez_matches_scalar_reference() {
    cases(64, |rng| {
        let n = rng.range(1u64..300);
        assert_eq!(
            trapez::seq(n).to_bits(),
            trapez_seq_reference(n).to_bits(),
            "seq, n = {n}"
        );
        let unroll = Unroll::new(n, rng.range(1u32..10));
        for c in 0..unroll.arity() {
            let range = unroll.range(Context(c));
            let (lo, hi) = (range.start, range.end);
            assert_eq!(
                trapez::chunk_sum(n, range).to_bits(),
                trapez_chunk_reference(n, lo, hi).to_bits(),
                "n = {n}, range {lo}..{hi}"
            );
        }
    });
}

/// QSORT's final merge as it was before the pairwise tree: a k-way merge
/// through a binary heap.
fn merge_kway(runs: &[&[i32]]) -> Vec<i32> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let total: usize = runs.iter().map(|r| r.len()).sum();
    let mut heap: BinaryHeap<Reverse<(i32, usize, usize)>> = runs
        .iter()
        .enumerate()
        .filter(|(_, r)| !r.is_empty())
        .map(|(ri, r)| Reverse((r[0], ri, 0)))
        .collect();
    let mut out = Vec::with_capacity(total);
    while let Some(Reverse((v, ri, i))) = heap.pop() {
        out.push(v);
        if i + 1 < runs[ri].len() {
            heap.push(Reverse((runs[ri][i + 1], ri, i + 1)));
        }
    }
    out
}

/// The pairwise merge gives the heap merge's output on 0–9 sorted runs,
/// empty runs and duplicate keys among them.
#[test]
fn qsort_merge_matches_heap_merge() {
    cases(64, |rng| {
        let runs: Vec<Vec<i32>> = (0..rng.range(0usize..10))
            .map(|_| {
                let mut r: Vec<i32> = (0..rng.range(0usize..40))
                    .map(|_| rng.below(16) as i32)
                    .collect();
                r.sort_unstable();
                r
            })
            .collect();
        let runs: Vec<&[i32]> = runs.iter().map(Vec::as_slice).collect();
        assert_eq!(qsort::merge_runs(&runs), merge_kway(&runs), "{runs:?}");
    });
}

/// QSORT on the threaded runtime returns `seq`'s array at 1–6 kernels:
/// the final DThread merges 2, 2, 3, 4, 5 and 6 runs.
#[test]
fn qsort_ddm_matches_seq_at_every_kernel_count() {
    let want = qsort::seq(tflux_workloads::sizes::qsort_n(
        SizeClass::Small,
        Platform::Native,
    ));
    for kernels in 1..=6 {
        let got = qsort::run_ddm(&Params::soft(kernels, 1, SizeClass::Small));
        assert_eq!(got, want, "kernels = {kernels}");
    }
}

/// FFT's input as it was before the tables: `sin` and `cos` per element.
fn fft_input_reference(n: usize) -> Vec<Cpx> {
    (0..n * n)
        .map(|i| {
            let x = (i % 251) as f64 / 251.0;
            let y = (i % 127) as f64 / 127.0;
            Cpx::new((x * 6.0).sin() + 0.5 * y, (y * 4.0).cos() - 0.25 * x)
        })
        .collect()
}

/// The table-driven FFT input gives the per-element formula's bits, from
/// one element to matrices that wrap both tables many times.
#[test]
fn fft_input_matches_per_element_formula() {
    for n in [1usize, 2, 16, 128, 256] {
        let (got, want) = (fft::input(n), fft_input_reference(n));
        assert_eq!(got.len(), want.len(), "n = {n}");
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                (g.re.to_bits(), g.im.to_bits()),
                (w.re.to_bits(), w.im.to_bits()),
                "n = {n}, element {i}"
            );
        }
    }
}

/// SUSAN's input row as it was before the rows were written in place: one
/// `Vec` per row, every pixel from its own formula.
fn susan_row_reference(w: usize, y: usize) -> Vec<u8> {
    (0..w)
        .map(|x| {
            let g = (x * 255 / w.max(1)) as u32;
            let p = ((x * 31 + y * 17) % 97) as u32;
            let edge = if (x / 32 + y / 32).is_multiple_of(2) {
                40
            } else {
                0
            };
            ((g + p + edge) % 256) as u8
        })
        .collect()
}

/// The in-place SUSAN rows are the per-row formula's bytes at the three
/// Table 1 sizes, for the whole image and for bands starting mid-image.
#[test]
fn susan_rows_match_per_row_reference() {
    for size in [SizeClass::Small, SizeClass::Medium, SizeClass::Large] {
        let (w, h) = tflux_workloads::sizes::susan_dims(size);
        let want: Vec<u8> = (0..h).flat_map(|y| susan_row_reference(w, y)).collect();
        assert_eq!(susan::gen_rows(w, 0..h), want, "{size:?}");
        for (lo, hi) in [(0, 1), (31, 97), (h - 3, h)] {
            assert_eq!(
                susan::gen_rows(w, lo..hi),
                want[lo * w..hi * w],
                "{size:?}, rows {lo}..{hi}"
            );
        }
    }
    cases(64, |rng| {
        let (w, y) = (rng.range(0usize..100), rng.range(0usize..200));
        assert_eq!(
            susan::gen_row(w, 0, y),
            susan_row_reference(w, y),
            "w {w}, y {y}"
        );
    });
}

/// The branch-free `merge2way` gives the heap merge's output on
/// duplicate-heavy runs (keys 0..4), with either run empty.
#[test]
fn qsort_merge2way_matches_heap_merge() {
    let sorted = |rng: &mut SplitMix64, len: usize| {
        let mut r: Vec<i32> = (0..len).map(|_| rng.below(4) as i32).collect();
        r.sort_unstable();
        r
    };
    cases(64, |rng| {
        let (la, lb) = (rng.range(0usize..60), rng.range(0usize..60));
        let (a, b) = (sorted(rng, la), sorted(rng, lb));
        for (a, b) in [(&a[..], &b[..]), (&[][..], &b[..]), (&a[..], &[][..])] {
            assert_eq!(qsort::merge2way(a, b), merge_kway(&[a, b]), "{a:?} + {b:?}");
        }
    });
}

/// A key with a tag that takes no part in the order, so a merge's choice
/// between equal keys shows.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Tagged {
    key: u8,
    tag: u32,
}

impl PartialOrd for Tagged {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        self.key.partial_cmp(&other.key)
    }
}

/// `merge2way` is stable: on equal keys `a`'s elements come first, as a
/// stable sort of `a` then `b` orders them.
#[test]
fn qsort_merge2way_takes_a_on_ties() {
    cases(64, |rng| {
        let mut run = |tag0: u32| {
            let mut r: Vec<Tagged> = (0..rng.range(0u32..40))
                .map(|t| Tagged {
                    key: rng.below(4) as u8,
                    tag: tag0 + t,
                })
                .collect();
            r.sort_by_key(|t| t.key);
            r
        };
        let (a, b) = (run(0), run(1000));
        let mut want = [a.clone(), b.clone()].concat();
        want.sort_by_key(|t| t.key);
        assert_eq!(qsort::merge2way(&a, &b), want, "{a:?} + {b:?}");
    });
}
