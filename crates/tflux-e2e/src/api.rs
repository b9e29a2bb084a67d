//! The one place this benchmark touches the product crates.
//!
//! Every call into `tflux-*` goes through a function here, and every
//! product report is copied into a plain struct owned by the benchmark, so
//! a product refactor (one engine, one TSU, one report type) is absorbed by
//! editing this file alone. README.md lists the symbols bound.
//!
//! Deliberately not bound, because ROADMAP marks them for removal:
//! `DesEngine` / `Machine::with_engine` / `with_host_threads`, `CoreTsu`,
//! `SoftTsu`, anything in `tflux-bench`, and the `*_reference` baselines.

use std::sync::Arc;
use std::time::Duration;

pub use tflux_cell::work::UniformCellWork;
pub use tflux_cell::CellWork;
pub use tflux_core::{ArcMapping, BlockId, DdmProgram, ProgramBuilder, ThreadId, ThreadSpec};
pub use tflux_ddmcpp::{Backend, DdmModule};
pub use tflux_runtime::{Admission, BodyTable, ProgramServer, Submission};
pub use tflux_sim::{InstanceWork, Machine, WorkSource};
pub use tflux_workloads::{Bench, Params, Platform, SizeClass};

use tflux_workloads::{fft, mmult, qsort, sizes, susan, trapez};

// ---------------------------------------------------------------- soft runtime

/// What one `Runtime::run` reported, reduced to what the ledger uses.
#[derive(Clone, Copy, Debug, Default)]
pub struct SoftCounters {
    /// `RunReport::wall`: kernel launch to last join.
    pub wall: Duration,
    pub executed: u64,
    /// Σ over kernels of time blocked on an empty ready queue.
    pub wait_ns: u64,
    pub blocked_pops: u64,
    pub steals: u64,
    pub steal_misses: u64,
    pub completions: u64,
    pub rc_rmws: u64,
    pub sm_contended: u64,
    pub blocks_loaded: u64,
    pub tub_pushes: u64,
    pub tub_busy_hits: u64,
}

impl std::ops::AddAssign for SoftCounters {
    fn add_assign(&mut self, o: Self) {
        self.wall += o.wall;
        self.executed += o.executed;
        self.wait_ns += o.wait_ns;
        self.blocked_pops += o.blocked_pops;
        self.steals += o.steals;
        self.steal_misses += o.steal_misses;
        self.completions += o.completions;
        self.rc_rmws += o.rc_rmws;
        self.sm_contended += o.sm_contended;
        self.blocks_loaded += o.blocks_loaded;
        self.tub_pushes += o.tub_pushes;
        self.tub_busy_hits += o.tub_busy_hits;
    }
}

/// `Runtime::new(RuntimeConfig::with_kernels(k)).run(program, bodies)`.
pub fn soft_run(
    kernels: u32,
    program: &DdmProgram,
    bodies: &BodyTable<'_>,
) -> Result<SoftCounters, String> {
    let r = tflux_runtime::Runtime::new(tflux_runtime::RuntimeConfig::with_kernels(kernels))
        .run(program, bodies)
        .map_err(|e| e.to_string())?;
    Ok(SoftCounters {
        wall: r.wall,
        executed: r.total_executed(),
        wait_ns: r.kernels.iter().map(|k| k.wait_ns).sum(),
        blocked_pops: r.kernels.iter().map(|k| k.blocked_pops).sum(),
        steals: r.total_steals(),
        steal_misses: r.kernels.iter().map(|k| k.steal_misses).sum(),
        completions: r.tsu.completions,
        rc_rmws: r.tsu.rc_rmws,
        sm_contended: r.tsu.sm_contended,
        blocks_loaded: r.tsu.blocks_loaded,
        tub_pushes: r.tub.pushes,
        tub_busy_hits: r.tub.busy_hits,
    })
}

// ------------------------------------------------------------- paper workloads

/// The result of one paper benchmark, from either `seq` or `run_ddm`.
#[derive(Debug, PartialEq)]
pub enum PaperResult {
    Trapez(f64),
    Mmult(Vec<f64>),
    Qsort(Vec<i32>),
    Susan(Vec<u8>),
    Fft(Vec<fft::Cpx>),
}

impl PaperResult {
    /// Whether a DDM result equals the sequential one: bit-for-bit, except
    /// TRAPEZ, whose chunked summation order differs (1e-9, as the repo's
    /// own `verify_runtime` allows).
    pub fn matches(&self, reference: &PaperResult) -> bool {
        match (self, reference) {
            (PaperResult::Trapez(a), PaperResult::Trapez(b)) => (a - b).abs() < 1e-9,
            (a, b) => a == b,
        }
    }
}

/// The `seq_*` reference of a benchmark at its Native size. Like
/// `run_ddm`, it builds its own input, so the two time the same work.
pub fn paper_seq(bench: Bench, size: SizeClass) -> PaperResult {
    match bench {
        Bench::Trapez => PaperResult::Trapez(trapez::seq(sizes::trapez_intervals(size))),
        Bench::Mmult => {
            let n = sizes::mmult_n(size, Platform::Native);
            let (a, b) = mmult::inputs(n);
            PaperResult::Mmult(mmult::seq(&a, &b, n))
        }
        Bench::Qsort => PaperResult::Qsort(qsort::seq(sizes::qsort_n(size, Platform::Native))),
        Bench::Susan => {
            let (w, h) = sizes::susan_dims(size);
            PaperResult::Susan(susan::seq(w, h))
        }
        Bench::Fft => PaperResult::Fft(fft::seq(sizes::fft_n(size)).0),
    }
}

/// `tflux_workloads::<bench>::run_ddm` on the threaded runtime.
pub fn paper_ddm(bench: Bench, p: &Params) -> PaperResult {
    match bench {
        Bench::Trapez => PaperResult::Trapez(trapez::run_ddm(p)),
        Bench::Mmult => PaperResult::Mmult(mmult::run_ddm(p)),
        Bench::Qsort => PaperResult::Qsort(qsort::run_ddm(p)),
        Bench::Susan => PaperResult::Susan(susan::run_ddm(p)),
        Bench::Fft => PaperResult::Fft(fft::run_ddm(p).0),
    }
}

/// Native-platform parameters at the paper's default unroll.
pub fn native_params(bench: Bench, kernels: u32, size: SizeClass) -> Params {
    tflux_workloads::setup::with_default_unroll(bench, Params::soft(kernels, 0, size))
}

/// Native-platform parameters at an explicit unroll.
pub fn native_params_unroll(kernels: u32, unroll: u32, size: SizeClass) -> Params {
    Params::soft(kernels, unroll, size)
}

/// Instances (inlets and outlets included) of the program `run_ddm` builds.
pub fn paper_instances(bench: Bench, p: &Params) -> usize {
    match bench {
        Bench::Trapez => trapez::program(p).0,
        Bench::Mmult => mmult::program(p).0,
        Bench::Qsort => qsort::program(p).0,
        Bench::Susan => susan::program(p).0,
        Bench::Fft => fft::program(p).0,
    }
    .total_instances()
}

// ---------------------------------------------------------------------- server

/// `ProgramServer::start` with a 2-segment TUB per tenant (the default).
pub fn server_start(kernels: u32, max_resident: usize) -> ProgramServer {
    ProgramServer::start(
        tflux_runtime::ServerConfig::with_kernels(kernels)
            .max_resident(max_resident)
            .queue_depth(64),
    )
}

pub fn submission(
    program: Arc<DdmProgram>,
    bodies: BodyTable<'static>,
    weight: u32,
    epochs: u64,
) -> Submission {
    let s = Submission::new(program, bodies).weight(weight);
    if epochs > 1 {
        s.stream(epochs)
    } else {
        s
    }
}

/// `ProgramServer::submit` in blocking mode.
pub fn server_submit(server: &ProgramServer, s: Submission) -> Result<Admission, String> {
    server
        .submit(s, tflux_runtime::Submit::Block)
        .map_err(|e| e.to_string())
}

/// `Admission::wait`; returns the instances the pool executed for the tenant.
pub fn server_wait(adm: Admission) -> Result<u64, String> {
    adm.wait().map(|r| r.executed).map_err(|e| e.to_string())
}

// ------------------------------------------------------------------------- sim

/// The two simulated machines the ledger runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimMachine {
    /// `MachineConfig::bagle(27)`, the paper's TFluxHard machine.
    Bagle,
    /// `MachineConfig::sparc_t3_4(64)`, the 4-socket NUMA preset.
    Sparc,
}

impl SimMachine {
    pub fn name(self) -> &'static str {
        match self {
            SimMachine::Bagle => "bagle",
            SimMachine::Sparc => "sparc",
        }
    }

    pub fn kernels(self) -> u32 {
        match self {
            SimMachine::Bagle => 27,
            SimMachine::Sparc => 64,
        }
    }

    /// `Machine::new(cfg)` with the default engine and TSU configuration.
    pub fn build(self) -> Machine {
        let cfg = match self {
            SimMachine::Bagle => tflux_sim::MachineConfig::bagle(27),
            SimMachine::Sparc => {
                tflux_sim::MachineConfig::sparc_t3_4(64).expect("64 kernels fit the preset")
            }
        };
        Machine::new(cfg)
    }
}

pub type SimSource = Box<dyn WorkSource + Send + Sync>;

/// `tflux_workloads::setup::sim_setup` at the Simulated default unroll.
pub fn sim_setup(bench: Bench, kernels: u32, size: SizeClass) -> (DdmProgram, SimSource) {
    let p = tflux_workloads::setup::with_default_unroll(bench, Params::hard(kernels, 0, size));
    tflux_workloads::setup::sim_setup(bench, &p)
}

/// What one simulated run reported.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimCounters {
    pub cycles: u64,
    pub events: u64,
    pub instances: u64,
    pub accesses: u64,
    pub l1_hits: u64,
    pub remote_hits: u64,
    pub dev_commands: u64,
    pub dev_empty_fetches: u64,
}

fn sim_counters(r: &tflux_sim::SimReport) -> SimCounters {
    SimCounters {
        cycles: r.cycles,
        events: r.events,
        instances: r.instances as u64,
        accesses: r.mem.accesses(),
        l1_hits: r.mem.l1_hits,
        remote_hits: r.mem.remote_hits,
        dev_commands: r.dev.commands,
        dev_empty_fetches: r.dev.empty_fetches,
    }
}

/// `Machine::run`.
pub fn sim_run(
    m: &Machine,
    program: &DdmProgram,
    source: &SimSource,
) -> Result<SimCounters, String> {
    m.run(program, source.as_ref())
        .map(|r| sim_counters(&r))
        .map_err(|e| e.to_string())
}

/// `Machine::run_sequential`: the same memory system, no event loop.
pub fn sim_run_sequential(m: &Machine, program: &DdmProgram, source: &SimSource) -> SimCounters {
    sim_counters(&m.run_sequential(program, source.as_ref()))
}

/// Call `WorkSource::work` for every instance, as the machine does, and
/// return the accesses generated: trace generation with no simulator.
pub fn trace_gen(program: &DdmProgram, source: &SimSource) -> u64 {
    let mut work = InstanceWork::default();
    let mut accesses = 0u64;
    for t in 0..program.threads().len() {
        for inst in program.instances_of(ThreadId(t as u32)) {
            work.clear();
            source.work(inst, &mut work);
            accesses += std::hint::black_box(&work).accesses.len() as u64;
        }
    }
    accesses
}

// ---------------------------------------------------------------------- ddmcpp

pub fn ddm_parse(source: &str) -> Result<DdmModule, String> {
    tflux_ddmcpp::parse(source).map_err(|e| e.to_string())
}

pub fn ddm_print(module: &DdmModule) -> String {
    tflux_ddmcpp::print::print_module(module)
}

/// `lower::to_program`: module AST to a validated `DdmProgram`.
pub fn ddm_lower(module: &DdmModule) -> Result<DdmProgram, String> {
    tflux_ddmcpp::lower::to_program(module).map_err(|e| e.to_string())
}

/// `split_for_capacity`, dropping the thread renumbering.
pub fn split(program: &DdmProgram, capacity: usize) -> Result<DdmProgram, String> {
    tflux_core::split::split_for_capacity(program, capacity)
        .map(|(p, _)| p)
        .map_err(|e| e.to_string())
}

pub fn ddm_codegen(module: &DdmModule, backend: Backend) -> Result<String, String> {
    tflux_ddmcpp::codegen::generate(module, backend).map_err(|e| e.to_string())
}

pub const BACKENDS: [Backend; 3] = [Backend::Soft, Backend::Sim, Backend::Cell];

// ------------------------------------------------------------------------ cell

/// What one TFluxCell run reported.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CellCounters {
    pub cycles: u64,
    pub instances: u64,
    pub commands: u64,
    pub cmd_stalls: u64,
}

fn cell_counters(r: &tflux_cell::CellReport) -> CellCounters {
    CellCounters {
        cycles: r.cycles,
        instances: r.instances as u64,
        commands: r.commands,
        cmd_stalls: r.cmd_stalls,
    }
}

fn cell_machine(spes: u32) -> tflux_cell::CellMachine {
    tflux_cell::CellMachine::new(tflux_cell::CellConfig::ps3().with_spes(spes))
}

/// `CellMachine::run` on the PS3 preset with `spes` SPEs.
pub fn cell_run(
    spes: u32,
    program: &DdmProgram,
    work: &UniformCellWork,
) -> Result<CellCounters, String> {
    cell_machine(spes)
        .run(program, work)
        .map(|r| cell_counters(&r))
        .map_err(|e| e.to_string())
}

/// `CellMachine::run_sequential`: one SPE, no TSU or mailbox costs.
pub fn cell_run_sequential(
    program: &DdmProgram,
    work: &UniformCellWork,
) -> Result<CellCounters, String> {
    cell_machine(1)
        .run_sequential(program, work)
        .map(|r| cell_counters(&r))
        .map_err(|e| e.to_string())
}
