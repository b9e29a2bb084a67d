//! SUSAN: image smoothing (MiBench, `susan -s`).
//!
//! §6.1.2: "SUSAN has three distinct phases which have been parallelized
//! independently: the initialization phase, the processing phase and the
//! one during which the results are written to a large output array."
//!
//! The three phases become three DDM blocks, each holding one loop DThread
//! over row bands — the block chaining gives exactly the phase barriers the
//! paper describes. Smoothing itself is the USAN-style brightness-weighted
//! 5×5 mask, as in the MiBench original: weight = spatial Gaussian (a 5×5
//! table built once per band, MiBench's `dpt`) × `exp(-(ΔI/t)²)` (a 512-entry
//! lookup table). Each pixel reads its 24 taps straight from its five rows.

use crate::common::{Costed, Describe, Params, Region, Sink};
use crate::sizes::susan_dims;
use std::ops::Range;
use tflux_core::prelude::*;
use tflux_core::Unroll;
use tflux_runtime::{BodyTable, Runtime, RuntimeConfig, SharedVar};

/// Brightness threshold of the similarity function.
pub(crate) const THRESHOLD: f64 = 27.0;
/// Mask radius (5×5 mask).
pub const RADIUS: usize = 2;

/// The brightness LUT the MiBench code builds once: index |ΔI| ∈ 0..512.
pub fn brightness_lut() -> Vec<f64> {
    (0..512)
        .map(|d| {
            let x = d as f64 / THRESHOLD;
            (-(x * x)).exp()
        })
        .collect()
}

/// Deterministic synthetic input: a gradient with an embedded pattern
/// (generated in the *init phase*, so the benchmark is self-contained).
pub fn gen_row(w: usize, _h: usize, y: usize) -> Vec<u8> {
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

/// Smooth rows `lo..hi` of `img` (w×h, row-major), returning the band.
/// Border pixels (within `RADIUS` of the edge) pass through unchanged.
pub fn smooth_band(img: &[u8], w: usize, h: usize, lo: usize, hi: usize, lut: &[f64]) -> Vec<u8> {
    let mut spatial = [[0.0f64; 2 * RADIUS + 1]; 2 * RADIUS + 1];
    for (dy, row) in (-(RADIUS as isize)..).zip(&mut spatial) {
        for (dx, s) in (-(RADIUS as isize)..).zip(row) {
            *s = (-((dx * dx + dy * dy) as f64) / 7.5).exp();
        }
    }
    let (x0, mut out) = (RADIUS.min(w), Vec::with_capacity((hi - lo) * w));
    let x1 = w.saturating_sub(RADIUS).max(x0);
    for y in lo..hi {
        let row = &img[y * w..(y + 1) * w];
        if y < RADIUS || y + RADIUS >= h {
            out.extend_from_slice(row);
            continue;
        }
        let rows = &img[(y - RADIUS) * w..(y + RADIUS + 1) * w];
        out.extend_from_slice(&row[..x0]);
        for x in x0..x1 {
            let center = row[x] as i32;
            let (mut num, mut den) = (0.0f64, 0.0f64);
            for (dy, weights) in spatial.iter().enumerate() {
                let taps = &rows[dy * w + x - RADIUS..];
                for (dx, (&s, &v)) in weights.iter().zip(taps).enumerate() {
                    if dx == RADIUS && dy == RADIUS {
                        continue;
                    }
                    let wt = s * lut[(v as i32 - center).unsigned_abs() as usize];
                    num += wt * v as f64;
                    den += wt;
                }
            }
            out.push(if den > 1e-12 {
                (num / den).round().clamp(0.0, 255.0) as u8
            } else {
                center as u8
            });
        }
        out.extend_from_slice(&row[x1..]);
    }
    out
}

/// Sequential reference: init → smooth → write-out.
pub fn seq(w: usize, h: usize) -> Vec<u8> {
    let lut = brightness_lut();
    let mut img = Vec::with_capacity(w * h);
    for y in 0..h {
        img.extend_from_slice(&gen_row(w, h, y));
    }
    // the write-out phase's copy is the returned Vec itself
    smooth_band(&img, w, h, 0, h, &lut)
}

/// Thread ids of the SUSAN program (one loop thread per phase/block).
pub struct SusanIds {
    /// Phase 1: image initialization.
    pub init: ThreadId,
    /// Phase 2: smoothing.
    pub smooth: ThreadId,
    /// Phase 3: write-out.
    pub writeout: ThreadId,
}

/// Build the three-block DDM program.
pub fn program(p: &Params) -> (DdmProgram, SusanIds) {
    let (_, h) = susan_dims(p.size);
    let arity = Unroll::new(h as u64, p.unroll).arity();
    let mut b = ProgramBuilder::new();
    let b1 = b.block();
    let init = b.thread(b1, ThreadSpec::new("susan.init", arity));
    let b2 = b.block();
    let smooth = b.thread(b2, ThreadSpec::new("susan.smooth", arity));
    let b3 = b.block();
    let writeout = b.thread(b3, ThreadSpec::new("susan.writeout", arity));
    (
        b.build().expect("susan program"),
        SusanIds {
            init,
            smooth,
            writeout,
        },
    )
}

/// Run SUSAN on the real runtime; returns the smoothed image.
pub fn run_ddm(p: &Params) -> Vec<u8> {
    let (w, h) = susan_dims(p.size);
    let (prog, ids) = program(p);
    let arity = prog.thread(ids.init).arity;
    let lut = brightness_lut();

    let img_bands = SharedVar::<Vec<u8>>::new(arity);
    let smooth_bands = SharedVar::<Vec<u8>>::new(arity);
    let out_bands = SharedVar::<Vec<u8>>::new(arity);

    let mut bodies = BodyTable::new(&prog);
    let (iref, sref, oref, lref) = (&img_bands, &smooth_bands, &out_bands, &lut);
    let bands = Unroll::new(h as u64, p.unroll);
    bodies.set(ids.init, move |ctx| {
        let Range { start: lo, end: hi } = bands.range(ctx.context);
        let mut band = Vec::with_capacity((hi - lo) as usize * w);
        for y in lo..hi {
            band.extend_from_slice(&gen_row(w, h, y as usize));
        }
        iref.put(ctx.context, band);
    });
    bodies.set(ids.smooth, move |ctx| {
        // the block barrier guarantees every init band exists; rebuild the
        // halo view from the producer slots
        let Range { start: lo, end: hi } = bands.range(ctx.context);
        let (lo, hi) = (lo as usize, hi as usize);
        let halo_lo = lo.saturating_sub(RADIUS);
        let halo_hi = (hi + RADIUS).min(h);
        let mut halo = Vec::with_capacity((halo_hi - halo_lo) * w);
        for y in halo_lo..halo_hi {
            let band_idx = Context((y as u64 / bands.factor as u64) as u32);
            let blo = bands.range(band_idx).start;
            let band = iref.get(band_idx);
            let row = y - blo as usize;
            halo.extend_from_slice(&band[row * w..(row + 1) * w]);
        }
        let band = smooth_band(
            &halo,
            w,
            halo_hi - halo_lo,
            lo - halo_lo,
            hi - halo_lo,
            lref,
        );
        sref.put(ctx.context, band);
    });
    bodies.set(ids.writeout, move |ctx| {
        oref.put(ctx.context, sref.get(ctx.context).clone());
    });

    Runtime::new(RuntimeConfig::with_kernels(p.kernels))
        .run(&prog, &bodies)
        .expect("susan run");
    drop(bodies);

    let mut out = Vec::with_capacity(w * h);
    for band in out_bands.iter() {
        out.extend_from_slice(band);
    }
    out
}

/// Cycles per smoothed pixel (24 weighted taps).
const CYCLES_PER_PIXEL: u64 = 180;
/// Cycles per generated pixel.
const CYCLES_PER_GEN: u64 = 8;

/// Cost description: image at 256 MB, smoothed at 512 MB, output array at
/// 768 MB. On the Cell, bands plus halos move by DMA and the Local Store
/// holds the halo band and the produced band.
pub(crate) struct SusanModel {
    w: usize,
    h: usize,
    unroll: u32,
    ids: SusanIds,
    img: Region,
    sm: Region,
    out: Region,
}

/// Build the cost model.
pub(crate) fn model(p: &Params, ids: SusanIds) -> Costed<SusanModel> {
    let (w, h) = susan_dims(p.size);
    Costed(SusanModel {
        w,
        h,
        unroll: p.unroll,
        ids,
        img: Region::new(0x1000_0000, 1),
        sm: Region::new(0x2000_0000, 1),
        out: Region::new(0x3000_0000, 1),
    })
}

impl Describe for SusanModel {
    fn describe<S: Sink>(&self, inst: Instance, out: &mut S) {
        let w = self.w as u64;
        let Range { start: lo, end: hi } =
            Unroll::new(self.h as u64, self.unroll).range(inst.context);
        let rows = hi - lo;
        if inst.thread == self.ids.init {
            self.img.scan(out, lo * w, hi * w, true);
            out.compute(rows * w * CYCLES_PER_GEN);
        } else if inst.thread == self.ids.smooth {
            let halo_lo = lo.saturating_sub(RADIUS as u64);
            let halo_hi = (hi + RADIUS as u64).min(self.h as u64);
            self.img.scan(out, halo_lo * w, halo_hi * w, false);
            self.sm.scan(out, lo * w, hi * w, true);
            out.compute(rows * w * CYCLES_PER_PIXEL);
        } else if inst.thread == self.ids.writeout {
            self.sm.scan(out, lo * w, hi * w, false);
            self.out.scan(out, lo * w, hi * w, true);
            out.compute(rows * w);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sizes::SizeClass;
    use tflux_cell::work::CellWorkSource;
    use tflux_sim::work::InstanceWork;

    #[test]
    fn lut_is_monotonic_decreasing() {
        let lut = brightness_lut();
        assert_eq!(lut.len(), 512);
        assert!((lut[0] - 1.0).abs() < 1e-12);
        assert!(lut.windows(2).all(|w| w[1] <= w[0]));
    }

    #[test]
    fn smoothing_preserves_constant_images() {
        let w = 32;
        let h = 16;
        let img = vec![100u8; w * h];
        let lut = brightness_lut();
        let out = smooth_band(&img, w, h, 0, h, &lut);
        assert_eq!(out, img);
    }

    #[test]
    fn smoothing_reduces_noise_variance() {
        let (w, h) = (64, 32);
        let mut img = Vec::new();
        for y in 0..h {
            img.extend_from_slice(&gen_row(w, h, y));
        }
        let lut = brightness_lut();
        let out = smooth_band(&img, w, h, 0, h, &lut);
        let variance = |v: &[u8]| {
            let m = v.iter().map(|&x| x as f64).sum::<f64>() / v.len() as f64;
            v.iter().map(|&x| (x as f64 - m).powi(2)).sum::<f64>() / v.len() as f64
        };
        // interior only (borders pass through)
        let inner: Vec<u8> = (RADIUS..h - RADIUS)
            .flat_map(|y| img[y * w + RADIUS..y * w + w - RADIUS].to_vec())
            .collect();
        let inner_out: Vec<u8> = (RADIUS..h - RADIUS)
            .flat_map(|y| out[y * w + RADIUS..y * w + w - RADIUS].to_vec())
            .collect();
        assert!(variance(&inner_out) < variance(&inner));
    }

    #[test]
    fn ddm_matches_sequential() {
        // full Small image on the real runtime
        let p = Params::soft(4, 32, SizeClass::Small);
        let (w, h) = susan_dims(SizeClass::Small);
        assert_eq!(run_ddm(&p), seq(w, h));
    }

    #[test]
    fn ddm_matches_with_odd_band_size() {
        let p = Params::soft(3, 7, SizeClass::Small); // 288 rows / 7 -> ragged
        let (w, h) = susan_dims(SizeClass::Small);
        assert_eq!(run_ddm(&p), seq(w, h));
    }

    #[test]
    fn program_has_three_blocks() {
        let p = Params::hard(4, 16, SizeClass::Small);
        let (prog, _) = program(&p);
        assert_eq!(prog.blocks().len(), 3);
    }

    #[test]
    fn sim_model_smooth_reads_halo() {
        let p = Params::hard(4, 16, SizeClass::Small);
        let (_, ids) = program(&p);
        let Costed(src) = model(&p, ids);
        let mut w = InstanceWork::default();
        src.describe(Instance::new(src.ids.smooth, Context(1)), &mut w);
        let width = 256u64;
        // halo = (16 + 4) rows read + 16 rows written, at 1 byte/pixel
        let read_lines = (20 * width).div_ceil(64);
        let write_lines = (16 * width).div_ceil(64);
        assert_eq!(w.accesses.len() as u64, read_lines + write_lines);
    }

    #[test]
    fn edge_bands_import_only_rows_that_exist() {
        let p = Params::cell(6, 32, SizeClass::Small);
        let (w, h) = susan_dims(SizeClass::Small);
        let (w, h, rows) = (w as u64, h as u64, 32u64);
        let (prog, ids) = program(&p);
        let last = prog.thread(ids.smooth).arity - 1;
        let src = model(&p, ids);
        let smooth =
            |c: u32| CellWorkSource::work(&src, Instance::new(src.0.ids.smooth, Context(c)));
        // the top band has no rows above it, the bottom band none below
        assert_eq!(smooth(0).import_bytes, (rows + RADIUS as u64) * w);
        let bottom = h - last as u64 * rows;
        assert_eq!(smooth(last).import_bytes, (bottom + RADIUS as u64) * w);
        // an interior band imports its halo on both sides
        assert_eq!(smooth(1).import_bytes, (rows + 2 * RADIUS as u64) * w);
        assert_eq!(smooth(1).export_bytes, rows * w);
    }
}
