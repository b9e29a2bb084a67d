//! Assemble lexed pieces into a validated [`DdmModule`].

use crate::ast::{BlockDecl, DdmModule, ThreadDecl, ThreadShape, VarDecl};
use crate::directive::{parse_directive, Directive, Expr, ThreadAttrs};
use crate::error::{ErrorKind, PreprocessError};
use crate::lexer::{lex, Piece};
use std::collections::HashMap;

/// Parse a full source file into a module.
pub(crate) fn parse_module(source: &str) -> Result<DdmModule, PreprocessError> {
    let pieces = lex(source);
    let mut module = DdmModule::default();
    let mut defs: HashMap<String, i64> = HashMap::new();

    #[derive(PartialEq)]
    enum State {
        Before,
        InProgram,
        InBlock,
        InThread,
        After,
    }
    let mut state = State::Before;
    let mut cur_block: Option<BlockDecl> = None;
    let mut cur_thread: Option<ThreadDecl> = None;
    let mut seen_threads: HashMap<u32, usize> = HashMap::new();
    let mut seen_blocks: HashMap<u32, usize> = HashMap::new();

    let resolve =
        |e: &Expr, defs: &HashMap<String, i64>, line: usize| -> Result<i64, PreprocessError> {
            match e {
                Expr::Lit(v) => Ok(*v),
                Expr::Const(name) => defs.get(name).copied().ok_or_else(|| {
                    PreprocessError::at(line, ErrorKind::UnknownConstant(name.clone()))
                }),
            }
        };

    for piece in pieces {
        match piece {
            Piece::Code { text, .. } => {
                let out = match state {
                    State::Before => &mut module.prelude,
                    State::After => &mut module.epilogue,
                    State::InThread => &mut cur_thread.as_mut().expect("thread open").body,
                    // code between threads inside a program/block is dropped
                    // by the original DDMCPP as well (only thread bodies
                    // execute); we preserve it in the prelude to stay lossless.
                    State::InProgram | State::InBlock => &mut module.prelude,
                };
                // a thread body is usually one segment: move it, not copy
                if out.is_empty() {
                    *out = text;
                } else {
                    out.push_str(&text);
                }
            }
            Piece::Error(e) => return Err(e),
            Piece::Pragma { line, text } => {
                let d = parse_directive(&text, line)?;
                match d {
                    Directive::Def { name, value } => {
                        defs.insert(name.clone(), value);
                        module.defs.push((name, value));
                    }
                    Directive::Var { ty, name, size } => {
                        let size = match size {
                            Some(e) => Some(resolve(&e, &defs, line)?.max(0) as u64),
                            None => None,
                        };
                        module.vars.push(VarDecl { ty, name, size });
                    }
                    Directive::StartProgram { kernels } => {
                        if state != State::Before {
                            return Err(PreprocessError::at(
                                line,
                                ErrorKind::Misplaced("startprogram".into()),
                            ));
                        }
                        if let Some(k) = kernels {
                            module.kernels = Some(resolve(&k, &defs, line)?.max(1) as u32);
                        }
                        state = State::InProgram;
                    }
                    Directive::EndProgram => {
                        if state != State::InProgram {
                            return Err(PreprocessError::at(
                                line,
                                ErrorKind::Misplaced("endprogram".into()),
                            ));
                        }
                        state = State::After;
                    }
                    Directive::Block(id) => {
                        if state != State::InProgram {
                            return Err(PreprocessError::at(
                                line,
                                ErrorKind::Misplaced(format!("block {id}")),
                            ));
                        }
                        if seen_blocks.insert(id, line).is_some() {
                            return Err(PreprocessError::at(line, ErrorKind::DuplicateBlock(id)));
                        }
                        cur_block = Some(BlockDecl {
                            id,
                            threads: Vec::new(),
                            line,
                        });
                        state = State::InBlock;
                    }
                    Directive::EndBlock => {
                        if state != State::InBlock {
                            return Err(PreprocessError::at(
                                line,
                                ErrorKind::Misplaced("endblock".into()),
                            ));
                        }
                        module.blocks.push(cur_block.take().expect("block open"));
                        state = State::InProgram;
                    }
                    Directive::Thread { id, attrs } | Directive::ForThread { id, attrs } => {
                        if state != State::InBlock {
                            return Err(PreprocessError::at(
                                line,
                                ErrorKind::Misplaced(format!("thread {id}")),
                            ));
                        }
                        if seen_threads.insert(id, line).is_some() {
                            return Err(PreprocessError::at(line, ErrorKind::DuplicateThread(id)));
                        }
                        let shape = build_shape(&attrs, &defs, line, &resolve)?;
                        let cost = match &attrs.cost {
                            Some(e) => resolve(e, &defs, line)?.max(0) as u64,
                            None => 0,
                        };
                        cur_thread = Some(ThreadDecl {
                            id,
                            shape,
                            kernel: attrs.kernel,
                            cost,
                            imports: attrs.imports,
                            exports: attrs.exports,
                            depends: attrs.depends,
                            body: String::new(),
                            line,
                        });
                        state = State::InThread;
                    }
                    Directive::EndThread | Directive::EndFor => {
                        if state != State::InThread {
                            return Err(PreprocessError::at(
                                line,
                                ErrorKind::Misplaced("endthread/endfor".into()),
                            ));
                        }
                        cur_block
                            .as_mut()
                            .expect("block open")
                            .threads
                            .push(cur_thread.take().expect("thread open"));
                        state = State::InBlock;
                    }
                    Directive::Shutdown => {
                        // informational in this port: kernels always shut
                        // down through the last block's outlet
                    }
                }
            }
        }
    }

    match state {
        State::Before => return Err(PreprocessError::at(0, ErrorKind::NoProgram)),
        State::After => {}
        _ => return Err(PreprocessError::at(0, ErrorKind::UnterminatedProgram)),
    }

    validate_dependencies(&module)?;
    Ok(module)
}

fn build_shape(
    attrs: &ThreadAttrs,
    defs: &HashMap<String, i64>,
    line: usize,
    resolve: &impl Fn(&Expr, &HashMap<String, i64>, usize) -> Result<i64, PreprocessError>,
) -> Result<ThreadShape, PreprocessError> {
    if let Some((lo, hi)) = &attrs.range {
        let lo = resolve(lo, defs, line)?;
        let hi = resolve(hi, defs, line)?;
        let unroll = match &attrs.unroll {
            Some(e) => resolve(e, defs, line)?.max(1) as u32,
            None => 1,
        };
        Ok(ThreadShape::Loop { lo, hi, unroll })
    } else if let Some(a) = &attrs.arity {
        let n = resolve(a, defs, line)?.max(1);
        Ok(ThreadShape::Loop {
            lo: 0,
            hi: n,
            unroll: 1,
        })
    } else {
        Ok(ThreadShape::Scalar)
    }
}

fn validate_dependencies(module: &DdmModule) -> Result<(), PreprocessError> {
    for block in &module.blocks {
        let ids: Vec<u32> = block.threads.iter().map(|t| t.id).collect();
        for t in &block.threads {
            for d in &t.depends {
                if !ids.contains(&d.thread) {
                    return Err(PreprocessError::at(
                        t.line,
                        ErrorKind::UnknownDependency {
                            thread: t.id,
                            depends_on: d.thread,
                        },
                    ));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::ThreadShape;

    const GOOD: &str = r#"
// preamble comment
#pragma ddm def N 64
#pragma ddm var double A size(N)
#pragma ddm startprogram kernels(4)
#pragma ddm block 1
#pragma ddm for thread 1 range(0, N) unroll(4) export(A) cost(500)
    A[i] = i;
#pragma ddm endfor
#pragma ddm thread 2 import(A) depends(1)
    check(A);
#pragma ddm endthread
#pragma ddm endblock
#pragma ddm endprogram
// epilogue
"#;

    #[test]
    fn parses_complete_module() {
        let m = parse_module(GOOD).unwrap();
        assert_eq!(m.kernels, Some(4));
        assert_eq!(m.defs, vec![("N".to_string(), 64)]);
        assert_eq!(m.vars.len(), 1);
        assert_eq!(m.vars[0].size, Some(64));
        assert_eq!(m.blocks.len(), 1);
        let b = &m.blocks[0];
        assert_eq!(b.threads.len(), 2);
        assert_eq!(
            b.threads[0].shape,
            ThreadShape::Loop {
                lo: 0,
                hi: 64,
                unroll: 4
            }
        );
        assert_eq!(b.threads[0].shape.arity(), 16);
        assert!(b.threads[0].body.contains("A[i] = i;"));
        assert_eq!(b.threads[1].depends[0].thread, 1);
        assert!(m.prelude.contains("preamble"));
        assert!(m.epilogue.contains("epilogue"));
        assert_eq!(b.threads[0].cost, 500);
    }

    #[test]
    fn duplicate_thread_rejected() {
        let src = "#pragma ddm startprogram\n#pragma ddm block 1\n\
                   #pragma ddm thread 1\n#pragma ddm endthread\n\
                   #pragma ddm thread 1\n#pragma ddm endthread\n\
                   #pragma ddm endblock\n#pragma ddm endprogram\n";
        let e = parse_module(src).unwrap_err();
        assert_eq!(e.kind, ErrorKind::DuplicateThread(1));
        assert_eq!(e.line, 5);
    }

    #[test]
    fn duplicate_block_rejected() {
        let src = "#pragma ddm startprogram\n#pragma ddm block 1\n#pragma ddm endblock\n\
                   #pragma ddm block 1\n#pragma ddm endblock\n#pragma ddm endprogram\n";
        assert_eq!(
            parse_module(src).unwrap_err().kind,
            ErrorKind::DuplicateBlock(1)
        );
    }

    #[test]
    fn unknown_dependency_rejected() {
        let src = "#pragma ddm startprogram\n#pragma ddm block 1\n\
                   #pragma ddm thread 1 depends(9)\n#pragma ddm endthread\n\
                   #pragma ddm endblock\n#pragma ddm endprogram\n";
        assert!(matches!(
            parse_module(src).unwrap_err().kind,
            ErrorKind::UnknownDependency {
                thread: 1,
                depends_on: 9
            }
        ));
    }

    #[test]
    fn cross_block_dependency_rejected() {
        let src = "#pragma ddm startprogram\n\
                   #pragma ddm block 1\n#pragma ddm thread 1\n#pragma ddm endthread\n#pragma ddm endblock\n\
                   #pragma ddm block 2\n#pragma ddm thread 2 depends(1)\n#pragma ddm endthread\n#pragma ddm endblock\n\
                   #pragma ddm endprogram\n";
        assert!(matches!(
            parse_module(src).unwrap_err().kind,
            ErrorKind::UnknownDependency { .. }
        ));
    }

    #[test]
    fn missing_startprogram() {
        assert_eq!(
            parse_module("int main() {}\n").unwrap_err().kind,
            ErrorKind::NoProgram
        );
    }

    #[test]
    fn unterminated_program() {
        let src = "#pragma ddm startprogram\n#pragma ddm block 1\n";
        assert_eq!(
            parse_module(src).unwrap_err().kind,
            ErrorKind::UnterminatedProgram
        );
    }

    #[test]
    fn misplaced_thread_outside_block() {
        let src = "#pragma ddm startprogram\n#pragma ddm thread 1\n";
        assert!(matches!(
            parse_module(src).unwrap_err().kind,
            ErrorKind::Misplaced(_)
        ));
    }

    #[test]
    fn unknown_constant_in_range() {
        let src = "#pragma ddm startprogram\n#pragma ddm block 1\n\
                   #pragma ddm for thread 1 range(0, MISSING)\n#pragma ddm endfor\n\
                   #pragma ddm endblock\n#pragma ddm endprogram\n";
        assert!(matches!(
            parse_module(src).unwrap_err().kind,
            ErrorKind::UnknownConstant(_)
        ));
    }

    #[test]
    fn arity_attribute_makes_loop_thread() {
        let src = "#pragma ddm startprogram\n#pragma ddm block 1\n\
                   #pragma ddm thread 1 arity(12)\n#pragma ddm endthread\n\
                   #pragma ddm endblock\n#pragma ddm endprogram\n";
        let m = parse_module(src).unwrap();
        assert_eq!(m.blocks[0].threads[0].shape.arity(), 12);
    }

    #[test]
    fn multiple_blocks_ordered() {
        let src = "#pragma ddm startprogram\n\
                   #pragma ddm block 2\n#pragma ddm thread 1\n#pragma ddm endthread\n#pragma ddm endblock\n\
                   #pragma ddm block 1\n#pragma ddm thread 2\n#pragma ddm endthread\n#pragma ddm endblock\n\
                   #pragma ddm endprogram\n";
        let m = parse_module(src).unwrap();
        // declaration order wins; ids are labels
        assert_eq!(m.blocks[0].id, 2);
        assert_eq!(m.blocks[1].id, 1);
    }

    #[test]
    fn comments_on_directive_lines_are_ignored() {
        let commented = GOOD
            .replace("#pragma ddm block 1", "#pragma ddm block 1 // first block")
            .replace("depends(1)", "depends(1) /* after t1 */")
            .replace("#pragma ddm endblock", "#pragma ddm endblock /* a */ // b");
        assert_eq!(parse_module(&commented), parse_module(GOOD));
    }

    #[test]
    fn blanks_between_hash_and_pragma_make_a_directive() {
        let spaced = GOOD.replace("#pragma ddm end", "#  pragma ddm end");
        assert_eq!(parse_module(&spaced), parse_module(GOOD));
    }

    #[test]
    fn comment_left_open_on_a_directive_line_is_a_bad_directive() {
        let src = "#pragma ddm startprogram\n#pragma ddm block 1 /* opens\n\
                   #pragma ddm endblock\n*/\n#pragma ddm endprogram\n";
        let e = parse_module(src).unwrap_err();
        assert!(matches!(e.kind, ErrorKind::BadDirective(_)), "{e:?}");
        assert_eq!(e.line, 2);
    }

    #[test]
    fn crlf_sources_keep_their_error_lines() {
        let src = "#pragma ddm startprogram\n#pragma ddm block 1\n\
                   #pragma ddm thread 1\nwork();\n#pragma ddm endthread\n\
                   #pragma ddm thread 1\n#pragma ddm endthread\n\
                   #pragma ddm endblock\n#pragma ddm endprogram\n";
        let lf = parse_module(src).unwrap_err();
        assert_eq!(
            (lf.kind.clone(), lf.line),
            (ErrorKind::DuplicateThread(1), 6)
        );
        assert_eq!(parse_module(&src.replace('\n', "\r\n")), Err(lf));
    }
}
