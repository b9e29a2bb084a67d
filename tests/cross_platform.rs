//! The portability claim: one DDM program, three platforms. Every
//! generated program (`rng::program`) must execute completely, with the
//! same scheduling bookkeeping, on five executors: the sequential
//! reference (`drain_sequential`), the threaded runtime, a one-tenant
//! `ProgramServer`, the hardware-TSU simulator and the Cell model; and a
//! DDMCPP module must lower onto all of them.

use std::sync::Arc;
use tflux::cell::work::{CellWork, FnCellWork};
use tflux::cell::{CellConfig, CellMachine};
use tflux::core::prelude::*;
use tflux::core::rng::{cases, program, SplitMix64};
use tflux::core::trace::ExecTrace;
use tflux::core::tsu::{drain_sequential, TsuStats};
use tflux::ddmcpp;
use tflux::runtime::{
    BodyTable, ProgramServer, Runtime, RuntimeConfig, ServerConfig, Submission, Submit,
};
use tflux::sim::work::{FnWork, InstanceWork};
use tflux::sim::{Machine, MachineConfig};

/// The counters no executor may disagree on.
fn bookkeeping(s: &TsuStats) -> [u64; 4] {
    [s.completions, s.fetches, s.rc_updates, s.blocks_loaded]
}

/// The instances a trace completed, as a sorted multiset.
fn completed(trace: &ExecTrace) -> Vec<Instance> {
    let mut done: Vec<Instance> = trace.spans.iter().map(|s| s.instance).collect();
    done.sort_unstable();
    done
}

/// One generated case: kernel count, per-instance base cost, program.
fn draw(rng: &mut SplitMix64) -> (u32, u64, Arc<DdmProgram>) {
    let kernels = rng.range(1u32..5);
    let cost = rng.range(100u64..1_000);
    (kernels, cost, Arc::new(program(rng, kernels)))
}

fn sim_work(cost: u64) -> FnWork<impl Fn(Instance, &mut InstanceWork)> {
    FnWork(move |i: Instance, out: &mut InstanceWork| {
        out.compute = cost + i.context.0 as u64 * 13;
    })
}

fn cell_work(cost: u64) -> FnCellWork<impl Fn(Instance) -> CellWork> {
    FnCellWork(move |i: Instance| CellWork {
        compute: cost + i.context.0 as u64 * 13,
        import_bytes: 256,
        export_bytes: 128,
        ls_bytes: 8192,
    })
}

#[test]
fn same_program_runs_on_all_three_platforms() {
    cases(32, |rng| {
        let (kernels, cost, p) = draw(rng);

        // the oracle: one thread drains the TSU, completing through funnels
        let oracle = Tsu::new(&*p, kernels, TsuConfig::default());
        let mut order = drain_sequential(&oracle).unwrap();
        order.sort_unstable();
        let expect = bookkeeping(&oracle.stats());
        assert_eq!(order.len(), p.total_instances());

        // TFluxSoft: kernel threads, then a one-tenant server pool
        let bodies = BodyTable::new(&p); // no-op bodies: scheduling only
        let (soft, trace) = Runtime::new(RuntimeConfig::with_kernels(kernels))
            .run_traced(&p, &bodies)
            .unwrap();
        assert_eq!(bookkeeping(&soft.tsu), expect, "runtime");
        assert_eq!(completed(&trace), order, "runtime");
        let server = ProgramServer::start(ServerConfig::with_kernels(kernels));
        let tenant = Submission::new(Arc::clone(&p), BodyTable::new(&p));
        let served = server
            .submit(tenant, Submit::Block)
            .unwrap()
            .wait()
            .unwrap();
        server.shutdown();
        assert_eq!(bookkeeping(&served.tsu), expect, "server");

        // TFluxHard: the simulated hardware TSU
        let hard = Machine::new(MachineConfig::bagle(kernels));
        let (report, trace) = hard.run_traced(&p, &sim_work(cost)).unwrap();
        assert_eq!(bookkeeping(&report.tsu), expect, "sim");
        assert_eq!(completed(&trace), order, "sim");

        // TFluxCell: the simulated PS3
        let cell = CellMachine::new(CellConfig::ps3().with_spes(kernels));
        let report = cell.run(&p, &cell_work(cost)).unwrap();
        assert_eq!(bookkeeping(&report.tsu), expect, "cell");
    });
}

#[test]
fn deterministic_simulators_cross_check() {
    // the two event-driven platforms repeat bit for bit on every case
    cases(32, |rng| {
        let (kernels, cost, p) = draw(rng);
        let hard = Machine::new(MachineConfig::bagle(kernels));
        let src = sim_work(cost);
        assert_eq!(
            format!("{:?}", hard.run(&p, &src).unwrap()),
            format!("{:?}", hard.run(&p, &src).unwrap())
        );
        let cell = CellMachine::new(CellConfig::ps3().with_spes(kernels));
        let src = cell_work(cost);
        assert_eq!(
            format!("{:?}", cell.run(&p, &src).unwrap()),
            format!("{:?}", cell.run(&p, &src).unwrap())
        );
    });
}

const DDM_SOURCE: &str = r#"
#pragma ddm def N 48
#pragma ddm startprogram kernels(3)
#pragma ddm block 1
#pragma ddm for thread 1 range(0, N) unroll(4) export(v) cost(700)
#pragma ddm endfor
#pragma ddm thread 2 import(v) cost(300)
#pragma ddm endthread
#pragma ddm endblock
#pragma ddm block 2
#pragma ddm thread 3 arity(6) cost(400)
#pragma ddm endthread
#pragma ddm endblock
#pragma ddm endprogram
"#;

#[test]
fn ddmcpp_module_lowers_and_runs_everywhere() {
    let module = ddmcpp::parse(DDM_SOURCE).unwrap();
    let program = ddmcpp::lower::to_program(&module).unwrap();
    let expect = program.total_instances();

    let bodies = BodyTable::new(&program); // no-op bodies: scheduling only
    let soft = Runtime::new(RuntimeConfig::with_kernels(3))
        .run(&program, &bodies)
        .unwrap();
    assert_eq!(soft.tsu.completions as usize, expect);

    let src = FnWork(|_: Instance, out: &mut InstanceWork| out.compute = 100);
    let hard = Machine::new(MachineConfig::bagle(3))
        .run(&program, &src)
        .unwrap();
    assert_eq!(hard.instances, expect);

    let csrc = FnCellWork(|_: Instance| CellWork::compute(100, 1024));
    let cell = CellMachine::new(CellConfig::ps3().with_spes(3))
        .run(&program, &csrc)
        .unwrap();
    assert_eq!(cell.instances, expect);
}

#[test]
fn ddmcpp_generates_for_every_backend() {
    for backend in [
        ddmcpp::Backend::Soft,
        ddmcpp::Backend::Sim,
        ddmcpp::Backend::Cell,
    ] {
        let out = ddmcpp::preprocess(DDM_SOURCE, backend).unwrap();
        assert!(out.contains("ProgramBuilder"), "{backend:?}");
        assert!(out.contains("pub const N: i64 = 48;"), "{backend:?}");
    }
    // backend-specific API surface
    let soft = ddmcpp::preprocess(DDM_SOURCE, ddmcpp::Backend::Soft).unwrap();
    assert!(soft.contains("tflux_runtime"));
    let sim = ddmcpp::preprocess(DDM_SOURCE, ddmcpp::Backend::Sim).unwrap();
    assert!(sim.contains("MachineConfig::bagle"));
    let cell = ddmcpp::preprocess(DDM_SOURCE, ddmcpp::Backend::Cell).unwrap();
    assert!(cell.contains("CellConfig::ps3"));
}
