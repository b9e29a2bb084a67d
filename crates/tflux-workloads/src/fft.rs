//! FFT: 2-D FFT on a matrix of complex numbers (NAS FT kernel).
//!
//! §6.1.2: "this benchmark operates on the data in phases, which can only
//! be parallelized independently. The limitation in the speedup comes from
//! the fact that there is an implicit synchronization overhead between the
//! phases."
//!
//! Decomposition: three DDM blocks — row FFTs, column FFTs, and a checksum
//! reduction — with the block boundaries providing exactly the inter-phase
//! synchronization the paper names as the bottleneck. The column phase
//! walks the matrix with row-length strides, so its memory behaviour is far
//! worse than the row phase (each element on its own cache line for the
//! paper's sizes), which the trace model reproduces.

use crate::common::{Costed, Describe, Params, Region, Sink};
use crate::sizes::fft_n;
use std::ops::Range;
use tflux_core::prelude::*;
use tflux_core::Unroll;
use tflux_runtime::{BodyTable, Runtime, RuntimeConfig, SharedVar};

/// A complex number (kept as a plain pair for determinism and layout
/// control).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Cpx {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Cpx {
    /// Construct from parts.
    pub fn new(re: f64, im: f64) -> Self {
        Cpx { re, im }
    }

    fn add(self, o: Cpx) -> Cpx {
        Cpx::new(self.re + o.re, self.im + o.im)
    }

    fn sub(self, o: Cpx) -> Cpx {
        Cpx::new(self.re - o.re, self.im - o.im)
    }

    fn mul(self, o: Cpx) -> Cpx {
        Cpx::new(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )
    }
}

/// In-place iterative radix-2 Cooley–Tukey FFT. `n` must be a power of 2.
pub fn fft_inplace(a: &mut [Cpx]) {
    let n = a.len();
    assert!(n.is_power_of_two(), "FFT length must be a power of two");
    // bit reversal
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            a.swap(i, j);
        }
    }
    // butterflies
    let mut len = 2;
    while len <= n {
        let ang = -2.0 * std::f64::consts::PI / len as f64;
        let wl = Cpx::new(ang.cos(), ang.sin());
        let mut i = 0;
        while i < n {
            let mut w = Cpx::new(1.0, 0.0);
            for k in 0..len / 2 {
                let u = a[i + k];
                let v = a[i + k + len / 2].mul(w);
                a[i + k] = u.add(v);
                a[i + k + len / 2] = u.sub(v);
                w = w.mul(wl);
            }
            i += len;
        }
        len <<= 1;
    }
}

/// Deterministic input matrix (n×n, row-major). Element `i` reads
/// `sin(6x)` and `cos(4y)` at `x = (i % 251) / 251` and `y = (i % 127) / 127`,
/// so both come from small tables built here.
pub fn input(n: usize) -> Vec<Cpx> {
    let sin6: [f64; 251] = std::array::from_fn(|k| (k as f64 / 251.0 * 6.0).sin());
    let cos4: [f64; 127] = std::array::from_fn(|k| (k as f64 / 127.0 * 4.0).cos());
    (0..n * n)
        .map(|i| {
            let (a, b) = (i % 251, i % 127);
            let x = a as f64 / 251.0;
            let y = b as f64 / 127.0;
            Cpx::new(sin6[a] + 0.5 * y, cos4[b] - 0.25 * x)
        })
        .collect()
}

/// Sequential 2-D FFT: row FFTs, then column FFTs. Returns the transformed
/// matrix and its checksum.
pub fn seq(n: usize) -> (Vec<Cpx>, Cpx) {
    let mut m = input(n);
    for r in 0..n {
        fft_inplace(&mut m[r * n..(r + 1) * n]);
    }
    for c in 0..n {
        let mut col: Vec<Cpx> = (0..n).map(|r| m[r * n + c]).collect();
        fft_inplace(&mut col);
        for r in 0..n {
            m[r * n + c] = col[r];
        }
    }
    let sum = checksum(&m);
    (m, sum)
}

/// The NAS-style checksum: sum of a deterministic sample of elements.
pub(crate) fn checksum(m: &[Cpx]) -> Cpx {
    let mut s = Cpx::default();
    let step = (m.len() / 1024).max(1);
    let mut i = 0;
    while i < m.len() {
        s = s.add(m[i]);
        i += step;
    }
    s
}

/// Thread ids of the FFT program.
pub struct FftIds {
    /// Row-FFT phase.
    pub rows: ThreadId,
    /// Column-FFT phase.
    pub cols: ThreadId,
    /// Checksum reduction.
    pub check: ThreadId,
}

/// Build the three-block DDM program.
pub fn program(p: &Params) -> (DdmProgram, FftIds) {
    let n = fft_n(p.size) as u64;
    let arity = Unroll::new(n, p.unroll).arity();
    let mut b = ProgramBuilder::new();
    let b1 = b.block();
    let rows = b.thread(b1, ThreadSpec::new("fft.rows", arity));
    let b2 = b.block();
    let cols = b.thread(b2, ThreadSpec::new("fft.cols", arity));
    let b3 = b.block();
    let check = b.thread(b3, ThreadSpec::scalar("fft.check"));
    (
        b.build().expect("fft program"),
        FftIds { rows, cols, check },
    )
}

/// Run the 2-D FFT on the real runtime; returns (matrix, checksum).
pub fn run_ddm(p: &Params) -> (Vec<Cpx>, Cpx) {
    let n = fft_n(p.size);
    let (prog, ids) = program(p);
    let arity = prog.thread(ids.rows).arity;
    let data = input(n);

    let row_out = SharedVar::<Vec<Cpx>>::new(arity); // row chunks after phase 1
    let col_out = SharedVar::<Vec<Cpx>>::new(arity); // column chunks after phase 2
    let result = SharedVar::<(Vec<Cpx>, Cpx)>::scalar();

    let mut bodies = BodyTable::new(&prog);
    let (dref, rref, cref, resref) = (&data, &row_out, &col_out, &result);
    let bands = Unroll::new(n as u64, p.unroll);
    bodies.set(ids.rows, move |ctx| {
        let Range { start: lo, end: hi } = bands.range(ctx.context);
        let mut out = Vec::with_capacity((hi - lo) as usize * n);
        for r in lo..hi {
            let r = r as usize;
            let mut row = dref[r * n..(r + 1) * n].to_vec();
            fft_inplace(&mut row);
            out.extend_from_slice(&row);
        }
        rref.put(ctx.context, out);
    });
    bodies.set(ids.cols, move |ctx| {
        let Range { start: lo, end: hi } = bands.range(ctx.context);
        let mut out = Vec::with_capacity((hi - lo) as usize * n);
        for c in lo..hi {
            let c = c as usize;
            // gather column c across the row-phase chunks
            let mut col = Vec::with_capacity(n);
            for r in 0..n {
                let band = Context((r as u64 / bands.factor as u64) as u32);
                let blo = bands.range(band).start;
                let chunk_rows = rref.get(band);
                col.push(chunk_rows[(r - blo as usize) * n + c]);
            }
            fft_inplace(&mut col);
            out.extend_from_slice(&col);
        }
        cref.put(ctx.context, out);
    });
    bodies.set(ids.check, move |_| {
        // reassemble the matrix from column chunks
        let mut m = vec![Cpx::default(); n * n];
        for (band, chunkv) in cref.iter().enumerate() {
            for (ci, c) in bands.range(Context(band as u32)).enumerate() {
                for r in 0..n {
                    m[r * n + c as usize] = chunkv[ci * n + r];
                }
            }
        }
        let sum = checksum(&m);
        resref.put(Context(0), (m, sum));
    });

    Runtime::new(RuntimeConfig::with_kernels(p.kernels))
        .run(&prog, &bodies)
        .expect("fft run");
    drop(bodies);
    result.into_values().remove(0).expect("result produced")
}

/// Cycles per butterfly (complex multiply = 4 FP muls + 2 adds, plus the
/// add/sub pair and twiddle update, on a scalar in-order core).
const CYCLES_PER_BUTTERFLY: u64 = 24;

/// Cost description: matrix at 256 MB (16-byte complex elements),
/// column-phase scratch at 512 MB. FFT is not part of Fig. 7, but the
/// description serves the Cell too, so the suite is complete on every
/// platform.
pub(crate) struct FftModel {
    n: u64,
    unroll: u32,
    ids: FftIds,
    m: Region,
    scratch: Region,
}

/// Build the cost model.
pub(crate) fn model(p: &Params, ids: FftIds) -> Costed<FftModel> {
    Costed(FftModel {
        n: fft_n(p.size) as u64,
        unroll: p.unroll,
        ids,
        m: Region::new(0x1000_0000, 16),
        scratch: Region::new(0x2000_0000, 16),
    })
}

impl Describe for FftModel {
    fn describe<S: Sink>(&self, inst: Instance, out: &mut S) {
        let n = self.n;
        let logn = 64 - (n - 1).leading_zeros() as u64;
        if inst.thread == self.ids.rows {
            let Range { start: lo, end: hi } = Unroll::new(n, self.unroll).range(inst.context);
            for r in lo..hi {
                // log n passes over the row (in cache after the first)
                for _ in 0..logn {
                    self.m.scan(out, r * n, (r + 1) * n, false);
                    self.m.scan(out, r * n, (r + 1) * n, true);
                }
            }
            out.compute((hi - lo) * (n / 2) * logn * CYCLES_PER_BUTTERFLY);
        } else if inst.thread == self.ids.cols {
            let Range { start: lo, end: hi } = Unroll::new(n, self.unroll).range(inst.context);
            for c in lo..hi {
                // gather: one strided read per row element (stride = row
                // length ⇒ a fresh line each time for the paper's sizes)
                self.m.strided(out, c, c + n * n, n, false);
                // FFT in scratch, then scatter back
                for _ in 0..logn {
                    self.scratch.scan(out, c * n, (c + 1) * n, false);
                    self.scratch.scan(out, c * n, (c + 1) * n, true);
                }
                self.m.strided(out, c, c + n * n, n, true);
            }
            out.compute((hi - lo) * (n / 2) * logn * CYCLES_PER_BUTTERFLY);
        } else if inst.thread == self.ids.check {
            self.m.scan(out, 0, n * n / 16, false); // sampled walk
            out.compute(n * n / 8);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sizes::SizeClass;
    use tflux_sim::work::InstanceWork;

    /// Naive DFT for validation.
    fn dft(a: &[Cpx]) -> Vec<Cpx> {
        let n = a.len();
        (0..n)
            .map(|k| {
                let mut s = Cpx::default();
                for (j, &x) in a.iter().enumerate() {
                    let ang = -2.0 * std::f64::consts::PI * (k * j) as f64 / n as f64;
                    s = s.add(x.mul(Cpx::new(ang.cos(), ang.sin())));
                }
                s
            })
            .collect()
    }

    #[test]
    fn fft_matches_naive_dft() {
        let mut a: Vec<Cpx> = (0..16)
            .map(|i| Cpx::new((i as f64 * 0.3).sin(), (i as f64 * 0.7).cos()))
            .collect();
        let expect = dft(&a);
        fft_inplace(&mut a);
        for (got, want) in a.iter().zip(&expect) {
            assert!((got.re - want.re).abs() < 1e-9, "{got:?} vs {want:?}");
            assert!((got.im - want.im).abs() < 1e-9);
        }
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut a = vec![Cpx::default(); 8];
        a[0] = Cpx::new(1.0, 0.0);
        fft_inplace(&mut a);
        for x in &a {
            assert!((x.re - 1.0).abs() < 1e-12 && x.im.abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn fft_rejects_non_power_of_two() {
        let mut a = vec![Cpx::default(); 6];
        fft_inplace(&mut a);
    }

    #[test]
    fn ddm_matches_sequential_bitwise() {
        let p = Params::soft(3, 4, SizeClass::Small); // 32x32
        let (m_ddm, sum_ddm) = run_ddm(&p);
        let (m_seq, sum_seq) = seq(fft_n(SizeClass::Small));
        assert_eq!(m_ddm.len(), m_seq.len());
        for (a, b) in m_ddm.iter().zip(&m_seq) {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
        assert_eq!(sum_ddm.re.to_bits(), sum_seq.re.to_bits());
    }

    #[test]
    fn ddm_matches_with_ragged_unroll() {
        let p = Params::soft(2, 5, SizeClass::Small); // 32 rows / 5
        let (_, sum_ddm) = run_ddm(&p);
        let (_, sum_seq) = seq(fft_n(SizeClass::Small));
        assert_eq!(sum_ddm.re.to_bits(), sum_seq.re.to_bits());
        assert_eq!(sum_ddm.im.to_bits(), sum_seq.im.to_bits());
    }

    #[test]
    fn program_has_three_phases() {
        let p = Params::hard(4, 4, SizeClass::Small);
        let (prog, _) = program(&p);
        assert_eq!(prog.blocks().len(), 3);
    }

    #[test]
    fn column_phase_touches_more_lines_than_row_phase() {
        let p = Params::hard(4, 1, SizeClass::Medium); // n=64
        let (_, ids) = program(&p);
        let Costed(src) = model(&p, ids);
        let mut wr = InstanceWork::default();
        let mut wc = InstanceWork::default();
        src.describe(Instance::new(src.ids.rows, Context(0)), &mut wr);
        src.describe(Instance::new(src.ids.cols, Context(0)), &mut wc);
        assert!(wc.accesses.len() > wr.accesses.len());
    }
}
