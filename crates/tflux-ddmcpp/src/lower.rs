//! Lower a parsed [`DdmModule`] directly into a validated core-model
//! [`DdmProgram`] — the semantic heart shared by every back-end.
//!
//! Dependencies come from two places, mirroring DDMCPP semantics:
//! explicit `depends(..)` clauses, and *implicit* producer/consumer arcs
//! derived from `import`/`export` variable pairs within a block (a thread
//! importing a variable another thread of the same block exports depends on
//! that thread).

use crate::ast::{DdmModule, ThreadDecl};
use crate::error::{ErrorKind, PreprocessError};
use std::collections::HashMap;
use tflux_core::ids::KernelId;
use tflux_core::prelude::*;

/// The result of lowering: the program plus the user-id → ThreadId map.
#[derive(Debug)]
pub struct Lowered {
    /// The validated program.
    pub program: DdmProgram,
    /// Mapping from the source's thread ids to core thread ids.
    pub thread_ids: HashMap<u32, ThreadId>,
}

/// Lower a module into a core program.
pub fn lower(module: &DdmModule) -> Result<Lowered, PreprocessError> {
    let mut b = ProgramBuilder::new();
    let mut thread_ids: HashMap<u32, ThreadId> = HashMap::new();

    for block in &module.blocks {
        let blk = b.block();
        for t in &block.threads {
            let mut spec = ThreadSpec::new(format!("t{}", t.id), t.shape.arity());
            if let Some(k) = t.kernel {
                spec = spec.with_affinity(Affinity::Fixed(KernelId(k)));
            }
            thread_ids.insert(t.id, b.thread(blk, spec));
        }
        // explicit + implicit arcs, deduplicated
        let mut arcs_done: Vec<(u32, u32)> = Vec::new();
        for t in &block.threads {
            for d in &t.depends {
                if arcs_done.contains(&(d.thread, t.id)) {
                    continue;
                }
                arcs_done.push((d.thread, t.id));
                b.arc(thread_ids[&d.thread], thread_ids[&t.id], d.mapping)
                    .map_err(|e| PreprocessError::at(t.line, ErrorKind::Lower(e.to_string())))?;
            }
            for imp in &t.imports {
                if let Some(producer) = exporter_of(block.threads.as_slice(), &imp.var, t.id) {
                    if arcs_done.contains(&(producer.id, t.id)) {
                        continue;
                    }
                    arcs_done.push((producer.id, t.id));
                    b.arc(thread_ids[&producer.id], thread_ids[&t.id], imp.mapping)
                        .map_err(|e| {
                            PreprocessError::at(t.line, ErrorKind::Lower(e.to_string()))
                        })?;
                }
            }
        }
    }

    let program = b
        .build()
        .map_err(|e| PreprocessError::at(0, ErrorKind::Lower(e.to_string())))?;
    Ok(Lowered {
        program,
        thread_ids,
    })
}

/// Convenience wrapper returning only the program.
pub fn to_program(module: &DdmModule) -> Result<DdmProgram, PreprocessError> {
    lower(module).map(|l| l.program)
}

/// Lower and automatically split blocks for a TSU of the given capacity
/// (see [`tflux_core::split::split_for_capacity`]). The returned thread-id
/// map composes the module's user ids with the split's renumbering.
pub fn to_program_with_capacity(
    module: &DdmModule,
    capacity: usize,
) -> Result<Lowered, PreprocessError> {
    let l = lower(module)?;
    let (program, renumber) = tflux_core::split::split_for_capacity(&l.program, capacity)
        .map_err(|e| PreprocessError::at(0, ErrorKind::Lower(e.to_string())))?;
    let thread_ids = l
        .thread_ids
        .into_iter()
        .map(|(user, old)| (user, renumber[&old]))
        .collect();
    Ok(Lowered {
        program,
        thread_ids,
    })
}

fn exporter_of<'a>(threads: &'a [ThreadDecl], var: &str, consumer: u32) -> Option<&'a ThreadDecl> {
    threads
        .iter()
        .find(|t| t.id != consumer && t.exports.iter().any(|e| e == var))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_module;

    #[test]
    fn lowers_structure_and_arcs() {
        let src = r#"
#pragma ddm def N 32
#pragma ddm startprogram kernels(2)
#pragma ddm block 1
#pragma ddm for thread 1 range(0, N) unroll(2) export(A)
#pragma ddm endfor
#pragma ddm thread 2 import(A)
#pragma ddm endthread
#pragma ddm endblock
#pragma ddm endprogram
"#;
        let m = parse_module(src).unwrap();
        let l = lower(&m).unwrap();
        let p = &l.program;
        assert_eq!(p.blocks().len(), 1);
        let t1 = l.thread_ids[&1];
        let t2 = l.thread_ids[&2];
        assert_eq!(p.thread(t1).arity, 16);
        assert_eq!(p.thread(t2).arity, 1);
        // implicit import arc: thread 2 waits for all 16 producers
        assert_eq!(p.initial_rc(tflux_core::Instance::scalar(t2)), 16);
    }

    #[test]
    fn explicit_and_implicit_arcs_deduplicate() {
        let src = r#"
#pragma ddm startprogram
#pragma ddm block 1
#pragma ddm thread 1 export(x)
#pragma ddm endthread
#pragma ddm thread 2 import(x) depends(1)
#pragma ddm endthread
#pragma ddm endblock
#pragma ddm endprogram
"#;
        let m = parse_module(src).unwrap();
        let l = lower(&m).unwrap();
        let t2 = l.thread_ids[&2];
        assert_eq!(l.program.initial_rc(tflux_core::Instance::scalar(t2)), 1);
    }

    #[test]
    fn dependency_cycle_reported_as_lower_error() {
        let src = r#"
#pragma ddm startprogram
#pragma ddm block 1
#pragma ddm thread 1 depends(2)
#pragma ddm endthread
#pragma ddm thread 2 depends(1)
#pragma ddm endthread
#pragma ddm endblock
#pragma ddm endprogram
"#;
        let m = parse_module(src).unwrap();
        assert!(matches!(lower(&m).unwrap_err().kind, ErrorKind::Lower(_)));
    }

    #[test]
    fn incompatible_mapping_reported() {
        let src = r#"
#pragma ddm startprogram
#pragma ddm block 1
#pragma ddm for thread 1 range(0, 8)
#pragma ddm endfor
#pragma ddm for thread 2 range(0, 9) depends(1:onetoone)
#pragma ddm endfor
#pragma ddm endblock
#pragma ddm endprogram
"#;
        let m = parse_module(src).unwrap();
        assert!(lower(&m).is_err());
    }

    #[test]
    fn capacity_lowering_splits_blocks() {
        let src = r#"
#pragma ddm startprogram
#pragma ddm block 1
#pragma ddm for thread 1 range(0, 8)
#pragma ddm endfor
#pragma ddm for thread 2 range(0, 8) depends(1)
#pragma ddm endfor
#pragma ddm endblock
#pragma ddm endprogram
"#;
        let m = parse_module(src).unwrap();
        let l = to_program_with_capacity(&m, 10).unwrap();
        assert!(l.program.blocks().len() >= 2);
        assert!(l.program.max_block_instances() <= 10);
        // user ids still resolve
        assert!(l.thread_ids.contains_key(&1) && l.thread_ids.contains_key(&2));
    }

    #[test]
    fn lowered_program_executes() {
        let src = r#"
#pragma ddm startprogram
#pragma ddm block 1
#pragma ddm for thread 1 range(0, 16)
#pragma ddm endfor
#pragma ddm thread 2 depends(1)
#pragma ddm endthread
#pragma ddm endblock
#pragma ddm block 2
#pragma ddm thread 3
#pragma ddm endthread
#pragma ddm endblock
#pragma ddm endprogram
"#;
        let m = parse_module(src).unwrap();
        let p = to_program(&m).unwrap();
        let tsu = Tsu::new(&p, 2, TsuConfig::default());
        let order = tflux_core::tsu::drain_sequential(&tsu).unwrap();
        assert_eq!(order.len(), p.total_instances());
    }
}
