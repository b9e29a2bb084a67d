//! Table 1: problem sizes per benchmark, size class, and platform.
//!
//! The paper separates problem sizes for the **S**imulated (TFluxHard),
//! **N**ative (TFluxSoft), and **C**ell platforms: TRAPEZ, SUSAN and FFT
//! use the same sizes everywhere; MMULT uses 64–256 when simulated and
//! 256–1024 natively; QSORT uses 10 K–50 K elements except on the Cell,
//! where 3 K–12 K is all that fits the Local Store.

/// The paper's Small / Medium / Large size classes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SizeClass {
    /// Small problem size.
    Small,
    /// Medium problem size.
    Medium,
    /// Large problem size.
    Large,
}

impl SizeClass {
    /// All classes in order.
    pub const ALL: [SizeClass; 3] = [SizeClass::Small, SizeClass::Medium, SizeClass::Large];

    /// Short label used in figure rows.
    pub fn label(&self) -> &'static str {
        match self {
            SizeClass::Small => "Small",
            SizeClass::Medium => "Medium",
            SizeClass::Large => "Large",
        }
    }

    /// Index 0/1/2.
    pub fn idx(&self) -> usize {
        match self {
            SizeClass::Small => 0,
            SizeClass::Medium => 1,
            SizeClass::Large => 2,
        }
    }
}

/// The platform a size is selected for (Table 1's S/N/C columns).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Platform {
    /// TFluxHard on the simulated Bagle machine.
    Simulated,
    /// TFluxSoft native on the Xeon server.
    Native,
    /// TFluxCell on the PS3.
    Cell,
}

/// TRAPEZ: number of integration intervals, `2^k` with k = 19/21/23.
pub fn trapez_intervals(size: SizeClass) -> u64 {
    1u64 << [19, 21, 23][size.idx()]
}

/// MMULT: square matrix dimension.
pub fn mmult_n(size: SizeClass, platform: Platform) -> usize {
    match platform {
        Platform::Simulated => [64, 128, 256][size.idx()],
        Platform::Native | Platform::Cell => [256, 512, 1024][size.idx()],
    }
}

/// QSORT: element count.
pub fn qsort_n(size: SizeClass, platform: Platform) -> usize {
    match platform {
        Platform::Simulated | Platform::Native => [10_000, 20_000, 50_000][size.idx()],
        Platform::Cell => [3_000, 6_000, 12_000][size.idx()],
    }
}

/// SUSAN: image dimensions (width, height).
pub fn susan_dims(size: SizeClass) -> (usize, usize) {
    [(256, 288), (512, 576), (1024, 576)][size.idx()]
}

/// FFT: matrix dimension (n×n complex matrix).
pub fn fft_n(size: SizeClass) -> usize {
    [32, 64, 128][size.idx()]
}

/// One row of Table 1, for the harness's `table1` reproduction.
#[derive(Clone, Debug)]
pub struct Table1Row {
    /// Benchmark name.
    pub benchmark: &'static str,
    /// Source suite.
    pub source: &'static str,
    /// Description.
    pub description: &'static str,
    /// Small/Medium/Large columns, formatted as the paper prints them.
    pub sizes: [String; 3],
}

/// Regenerate Table 1.
pub fn table1() -> Vec<Table1Row> {
    let fmt_pow = |s: SizeClass| format!("2^{}", [19, 21, 23][s.idx()]);
    let fmt_mm = |s: SizeClass| {
        format!(
            "S:{n0}x{n0} N,C:{n1}x{n1}",
            n0 = mmult_n(s, Platform::Simulated),
            n1 = mmult_n(s, Platform::Native)
        )
    };
    let fmt_qs = |s: SizeClass| {
        format!(
            "S,N:{}K C:{}K",
            qsort_n(s, Platform::Native) / 1000,
            qsort_n(s, Platform::Cell) / 1000
        )
    };
    let fmt_su = |s: SizeClass| {
        let (w, h) = susan_dims(s);
        format!("{w}x{h}")
    };
    let fmt_ff = |s: SizeClass| format!("{}", fft_n(s));
    let row = |benchmark, source, description, f: &dyn Fn(SizeClass) -> String| Table1Row {
        benchmark,
        source,
        description,
        sizes: [
            f(SizeClass::Small),
            f(SizeClass::Medium),
            f(SizeClass::Large),
        ],
    };
    vec![
        row(
            "TRAPEZ",
            "kernel",
            "Trapezoidal rule for integration",
            &fmt_pow,
        ),
        row("MMULT", "kernel", "Matrix multiply", &fmt_mm),
        row("QSORT", "MiBench", "Array sorting", &fmt_qs),
        row("SUSAN", "MiBench", "Image recognition / smoothing", &fmt_su),
        row("FFT", "NAS", "FFT on a matrix of complex numbers", &fmt_ff),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trapez_sizes_are_powers_of_two() {
        assert_eq!(trapez_intervals(SizeClass::Small), 1 << 19);
        assert_eq!(trapez_intervals(SizeClass::Large), 1 << 23);
    }

    #[test]
    fn mmult_differs_by_platform() {
        assert_eq!(mmult_n(SizeClass::Large, Platform::Simulated), 256);
        assert_eq!(mmult_n(SizeClass::Large, Platform::Native), 1024);
    }

    #[test]
    fn qsort_cell_sizes_fit_local_store() {
        for s in SizeClass::ALL {
            let bytes = qsort_n(s, Platform::Cell) * 4;
            assert!(bytes <= 64 * 1024, "cell qsort {s:?} = {bytes}B");
        }
        // native Large would NOT fit a 256K LS even before code/buffers
        assert!(qsort_n(SizeClass::Large, Platform::Native) * 4 >= 200_000);
    }

    #[test]
    fn susan_matches_paper() {
        assert_eq!(susan_dims(SizeClass::Small), (256, 288));
        assert_eq!(susan_dims(SizeClass::Large), (1024, 576));
    }

    #[test]
    fn table1_has_five_rows() {
        let t = table1();
        assert_eq!(t.len(), 5);
        assert_eq!(t[0].benchmark, "TRAPEZ");
        assert_eq!(t[4].source, "NAS");
        assert!(t[1].sizes[0].contains("64x64"));
    }
}
