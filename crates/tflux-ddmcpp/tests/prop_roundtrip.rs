//! Property test: printing a module and reparsing it yields the same AST,
//! for arbitrary structurally-valid modules.

use tflux_core::{cases, ArcMapping, SplitMix64};
use tflux_ddmcpp::print::print_module;
use tflux_ddmcpp::{
    BlockDecl, DdmModule, DependsClause, ImportClause, ThreadDecl, ThreadShape, VarDecl,
};

fn mapping(rng: &mut SplitMix64) -> ArcMapping {
    match rng.below(5) {
        0 => ArcMapping::All,
        1 => ArcMapping::OneToOne,
        2 => ArcMapping::Offset(rng.range(-4i32..5)),
        3 => ArcMapping::Group {
            factor: rng.range(1u32..5),
        },
        _ => ArcMapping::Expand {
            factor: rng.range(1u32..5),
        },
    }
}

/// An identifier matching `[a-z][a-z0-9_]{0,6}`.
fn ident(rng: &mut SplitMix64) -> String {
    const REST: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_";
    let mut s = String::from(*rng.pick(&REST[..26]) as char);
    for _ in 0..rng.range(0..7) {
        s.push(*rng.pick(REST) as char);
    }
    s
}

fn shape(rng: &mut SplitMix64) -> ThreadShape {
    if rng.chance(1, 2) {
        return ThreadShape::Scalar;
    }
    let lo = rng.range(0i64..16);
    ThreadShape::Loop {
        lo,
        hi: lo + rng.range(1i64..64),
        unroll: rng.range(1u32..8),
    }
}

/// Push `item` unless an earlier entry has the same key.
fn push_unique<T, K: PartialEq>(out: &mut Vec<T>, item: T, key: impl Fn(&T) -> &K) {
    if out.iter().all(|have| key(have) != key(&item)) {
        out.push(item);
    }
}

/// Thread `id`, depending only on threads from `peer_ids`.
fn thread_decl(rng: &mut SplitMix64, id: u32, peer_ids: &[u32]) -> ThreadDecl {
    let shape = shape(rng);
    let kernel = rng.chance(1, 2).then(|| rng.range(0u32..4));
    let cost = if rng.chance(1, 2) {
        0
    } else {
        rng.range(1u64..10_000)
    };
    let mut imports: Vec<ImportClause> = Vec::new();
    for _ in 0..rng.range(0..3) {
        let clause = ImportClause {
            var: ident(rng),
            mapping: mapping(rng),
        };
        push_unique(&mut imports, clause, |c| &c.var);
    }
    let exports = (0..rng.range(0..3)).map(|_| ident(rng)).collect();
    let mut depends: Vec<DependsClause> = Vec::new();
    for _ in 0..rng.range(0..3) {
        let (i, mapping) = (rng.range(0usize..8), mapping(rng));
        if peer_ids.is_empty() {
            break;
        }
        let thread = peer_ids[i % peer_ids.len()];
        push_unique(&mut depends, DependsClause { thread, mapping }, |d| {
            &d.thread
        });
    }
    let body = if rng.chance(1, 2) {
        String::new()
    } else {
        "    do_work();\n".to_string()
    };
    ThreadDecl {
        id,
        shape,
        kernel,
        cost,
        imports,
        exports,
        depends,
        body,
        line: 0,
    }
}

fn module(rng: &mut SplitMix64) -> DdmModule {
    let block_sizes: Vec<u32> = (0..rng.range(1..4)).map(|_| rng.range(1u32..4)).collect();
    let kernels = rng.chance(1, 2).then(|| rng.range(1u32..9));
    let mut vars: Vec<VarDecl> = Vec::new();
    for _ in 0..rng.range(0..3) {
        let var = VarDecl {
            ty: "double".into(),
            name: ident(rng),
            size: rng.chance(1, 2).then(|| rng.range(1u64..256)),
        };
        push_unique(&mut vars, var, |v| &v.name);
    }
    // dense unique thread ids; dependencies point to earlier threads of
    // the same block
    let mut next_id = 1u32;
    let mut blocks = Vec::new();
    for (i, &count) in block_sizes.iter().enumerate() {
        let mut earlier: Vec<u32> = Vec::new();
        let mut threads = Vec::new();
        for _ in 0..count {
            threads.push(thread_decl(rng, next_id, &earlier));
            earlier.push(next_id);
            next_id += 1;
        }
        blocks.push(BlockDecl {
            id: i as u32 + 1,
            threads,
            line: 0,
        });
    }
    DdmModule {
        kernels,
        vars,
        defs: Vec::new(),
        blocks,
        prelude: String::new(),
        epilogue: String::new(),
    }
}

/// Printable text of at most `max` characters with no control characters
/// (the class `\PC`): ASCII, 2-, 3- and 4-byte scalars, and directive
/// vocabulary so that some draws get past the parsers' first token.
fn printable(rng: &mut SplitMix64, max: usize) -> String {
    const VOCAB: &str = "#pragma ddm |startprogram|kernels(|block |thread |for thread |range(|\
        import(|export(|depends(|var |size(|def |:offset(|:group(|unroll(|cost(|arity(|\
        kernel |endthread|,|)|-| ";
    let vocab: Vec<&str> = VOCAB.split('|').collect();
    // one inclusive range per UTF-8 width, none touching category C
    const SCALARS: [(u32, u32); 4] = [
        (0x20, 0x7E),
        (0xA1, 0xAC),
        (0x4E00, 0x9FA5),
        (0x1F600, 0x1F64F),
    ];
    let len = rng.range(0..max + 1);
    let mut s = String::new();
    while s.chars().count() < len {
        if rng.chance(1, 3) {
            s.push_str(rng.pick::<&str>(&vocab));
        } else {
            let &(lo, hi) = rng.pick(&SCALARS);
            s.push(char::from_u32(rng.range(lo..hi + 1)).expect("printable scalar"));
        }
    }
    s.chars().take(len).collect()
}

/// Erase source-position fields, which printing legitimately changes.
fn normalize(mut m: DdmModule) -> DdmModule {
    for b in &mut m.blocks {
        b.line = 0;
        for t in &mut b.threads {
            t.line = 0;
        }
    }
    m
}

#[test]
fn print_parse_roundtrip() {
    cases(128, |rng| {
        let m = module(rng);
        let printed = print_module(&m);
        let reparsed = tflux_ddmcpp::parse(&printed)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n---\n{printed}"));
        assert_eq!(normalize(m), normalize(reparsed), "printed:\n{}", printed);
    });
}

#[test]
fn parser_never_panics_on_arbitrary_input() {
    cases(128, |rng| {
        // a few lines, so that a draw can open a program and then go wrong
        let lines: Vec<String> = (0..rng.range(1..5)).map(|_| printable(rng, 32)).collect();
        let _ = tflux_ddmcpp::parse(&lines.join("\n")); // may Err, must not panic
    });
}

#[test]
fn directive_parser_never_panics() {
    cases(128, |rng| {
        let _ = tflux_ddmcpp::parse_directive(&printable(rng, 60), 1);
    });
}

/// Every backend generates without panicking for arbitrary valid
/// modules whose dependency mappings are arity-compatible (All only).
#[test]
fn codegen_never_panics_on_valid_modules() {
    cases(64, |rng| {
        // force All mappings so lowering always validates
        let mut m = module(rng);
        for b in &mut m.blocks {
            for t in &mut b.threads {
                for d in &mut t.depends {
                    d.mapping = ArcMapping::All;
                }
                for i in &mut t.imports {
                    i.mapping = ArcMapping::All;
                }
            }
        }
        for backend in [
            tflux_ddmcpp::Backend::Soft,
            tflux_ddmcpp::Backend::Sim,
            tflux_ddmcpp::Backend::Cell,
        ] {
            // import/export pairs can create implicit arcs that cycle with
            // the explicit depends; such modules must be *rejected*, not
            // panicked on — and accepted modules must generate real code
            match tflux_ddmcpp::codegen::generate(&m, backend) {
                Ok(out) => assert!(out.contains("builder.build()")),
                Err(e) => assert!(
                    matches!(e.kind, tflux_ddmcpp::ErrorKind::Lower(_)),
                    "unexpected error kind: {e}"
                ),
            }
        }
    });
}

/// Every backend generates code for a valid module whose imports all name
/// a variable an earlier thread of the same block exports: each export is
/// renamed to be unique, so every arc runs from an earlier thread to a
/// later one and lowering cannot find a cycle or an unexported import.
#[test]
fn codegen_generates_modules_whose_imports_are_exported_earlier() {
    cases(64, |rng| {
        let mut m = module(rng);
        for b in &mut m.blocks {
            let mut exported: Vec<String> = Vec::new();
            for t in &mut b.threads {
                for d in &mut t.depends {
                    d.mapping = ArcMapping::All;
                }
                t.imports.clear();
                if !exported.is_empty() {
                    for _ in 0..rng.range(0..3) {
                        let var = rng.pick(&exported).clone();
                        let clause = ImportClause {
                            var,
                            mapping: ArcMapping::All,
                        };
                        push_unique(&mut t.imports, clause, |c| &c.var);
                    }
                }
                for (n, e) in t.exports.iter_mut().enumerate() {
                    *e = format!("{e}_{}_{n}", t.id);
                    exported.push(e.clone());
                }
            }
        }
        for backend in [
            tflux_ddmcpp::Backend::Soft,
            tflux_ddmcpp::Backend::Sim,
            tflux_ddmcpp::Backend::Cell,
        ] {
            let out = tflux_ddmcpp::codegen::generate(&m, backend)
                .unwrap_or_else(|e| panic!("{e}\n---\n{}", print_module(&m)));
            assert!(out.contains("builder.build()"));
        }
    });
}
