//! DDMCPP in action: preprocess a C-style source annotated with
//! `#pragma ddm` directives, show the generated TFluxSoft Rust program,
//! and execute the same module directly by lowering it onto the runtime —
//! proving the front-end AST and the generated code describe the same DDM
//! program.
//!
//! ```sh
//! cargo run --example preprocess_demo
//! ```

use tflux::core::{drain_sequential, Tsu, TsuConfig};
use tflux::ddmcpp::{self, Backend};

const SOURCE: &str = r#"
// vector normalization, DDM style
#pragma ddm def N 1024
#pragma ddm var double data size(N)
#pragma ddm startprogram kernels(4)
#pragma ddm block 1
#pragma ddm for thread 1 range(0, N) unroll(64) export(data) cost(900)
    data.lock().unwrap()[i as usize] = (i as f64).sin();
#pragma ddm endfor
#pragma ddm thread 2 import(data) cost(2000)
    let d = data.lock().unwrap();
    let norm: f64 = d.iter().map(|x| x * x).sum::<f64>().sqrt();
    eprintln!("norm = {norm:.6}");
#pragma ddm endthread
#pragma ddm endblock
#pragma ddm endprogram
"#;

fn main() {
    // front-end: parse the module
    let module = ddmcpp::parse(SOURCE).expect("parse");
    println!(
        "parsed module: {} block(s), {} thread(s), kernels={:?}",
        module.blocks.len(),
        module.thread_count(),
        module.kernels
    );
    for block in &module.blocks {
        for t in &block.threads {
            println!(
                "  thread {} arity {} imports {:?} exports {:?} depends {:?}",
                t.id,
                t.shape.arity(),
                t.imports.iter().map(|i| &i.var).collect::<Vec<_>>(),
                t.exports,
                t.depends.iter().map(|d| d.thread).collect::<Vec<_>>(),
            );
        }
    }

    // back-end: generate TFluxSoft Rust
    let generated = ddmcpp::preprocess(SOURCE, Backend::Soft).expect("codegen");
    println!("\n==== generated (soft backend) ====");
    for (i, line) in generated.lines().enumerate() {
        println!("{:>3} | {line}", i + 1);
    }

    // semantic check: lower the module straight to a core program and
    // drive it with the reference executor
    let lowered = ddmcpp::lower::to_program(&module).expect("lower");
    let tsu = Tsu::new(&lowered, 4, TsuConfig::default());
    let order = drain_sequential(&tsu).unwrap();
    println!("\n==== execution order (reference executor) ====");
    println!(
        "{} instances; first 5: {:?}",
        order.len(),
        &order[..5.min(order.len())]
    );
    // and the synchronization graph for graphviz users
    println!("\n==== DOT (render with `dot -Tsvg`) ====");
    print!("{}", tflux::core::to_dot(&lowered));
}
