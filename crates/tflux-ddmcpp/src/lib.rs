//! # tflux-ddmcpp — the Data-Driven Multithreading preprocessor
//!
//! A from-scratch reimplementation of DDMCPP (Trancoso, Stavrou, Evripidou,
//! *DDMCPP: The Data-Driven Multithreading C Pre-Processor*, Interact-11
//! 2007), the tool §3.4 of the TFlux paper relies on: it "takes as input a
//! regular C code program along with DDM specific pragma directives and
//! outputs a program that includes all runtime support code and TFlux
//! interface calls".
//!
//! Like the original, the tool is split into a **front-end** — a
//! target-independent parser for the `#pragma ddm` directive grammar that
//! produces a [`DdmModule`] — and per-target **back-ends** that
//! generate code for a concrete TFlux platform:
//!
//! * [`Backend::Soft`] emits a Rust program driving `tflux-runtime`
//!   (TFluxSoft);
//! * [`Backend::Sim`] emits a Rust harness for the `tflux-sim` hardware-TSU
//!   machine (TFluxHard), using the `cost(..)` thread attribute;
//! * [`Backend::Cell`] emits a Rust harness for `tflux-cell` (TFluxCell),
//!   deriving DMA import/export byte counts from the sizes of the
//!   `import(..)`/`export(..)` variables.
//!
//! One substitution relative to 2008: the original emitted C and leaned on
//! any commodity C compiler; this port emits Rust and leans on `rustc`. The
//! thread *bodies* are passed through verbatim (the front-end never parses
//! them, exactly like the original's front-end), so sources meant for the
//! soft back-end write their bodies in Rust.
//!
//! The directive grammar is documented on [`parse_directive`], and
//! [`lower::to_program`] turns a parsed module straight into a validated
//! [`DdmProgram`](tflux_core::DdmProgram) without generating text — used by
//! tests and by anyone embedding the preprocessor.
//!
//! ```
//! let src = r#"
//! #pragma ddm startprogram kernels(2)
//! #pragma ddm block 1
//! #pragma ddm for thread 1 range(0, 8) unroll(2)
//!     // body code passes through verbatim
//! #pragma ddm endfor
//! #pragma ddm thread 2 depends(1)
//! #pragma ddm endthread
//! #pragma ddm endblock
//! #pragma ddm endprogram
//! "#;
//! let module = tflux_ddmcpp::parse(src).unwrap();
//! assert_eq!(module.blocks.len(), 1);
//! let program = tflux_ddmcpp::lower::to_program(&module).unwrap();
//! assert_eq!(program.blocks().len(), 1);
//! let rust = tflux_ddmcpp::preprocess(src, tflux_ddmcpp::Backend::Soft).unwrap();
//! assert!(rust.contains("ProgramBuilder"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod ast;
pub mod codegen;
mod directive;
mod error;
mod lexer;
pub mod lower;
mod parse;
pub mod print;

pub use ast::{BlockDecl, DdmModule, ThreadDecl, ThreadShape, VarDecl};
pub use codegen::Backend;
pub use directive::{DependsClause, ImportClause};
pub use error::{ErrorKind, PreprocessError};
// the front-end's two scanners, which the property tests drive directly
pub use directive::parse_directive;
pub use lexer::{lex, Piece};

/// Parse a DDM-annotated source into its module AST (front-end only).
pub fn parse(source: &str) -> Result<DdmModule, PreprocessError> {
    parse::parse_module(source)
}

/// Run the full preprocessor: parse + generate code for `backend`.
pub fn preprocess(source: &str, backend: Backend) -> Result<String, PreprocessError> {
    let module = parse::parse_module(source)?;
    codegen::generate(&module, backend)
}
