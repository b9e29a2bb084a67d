//! Pretty-print a [`DdmModule`] back to `#pragma ddm` source.
//!
//! `parse(print(parse(src)))` is the identity on the module AST — the
//! property test in `tests/prop_roundtrip.rs` holds the printer and parser
//! to that contract. Useful for normalizing hand-written sources and for
//! tooling that rewrites DDM programs.

use crate::ast::{DdmModule, ThreadDecl, ThreadShape};
use std::fmt::Write as _;
use tflux_core::ArcMapping;

fn mapping_suffix(m: ArcMapping) -> String {
    match m {
        ArcMapping::All => String::new(),
        ArcMapping::OneToOne => ":onetoone".into(),
        ArcMapping::Offset(k) => format!(":offset({k})"),
        ArcMapping::Group { factor } => format!(":group({factor})"),
        ArcMapping::Expand { factor } => format!(":expand({factor})"),
    }
}

fn thread_directive(t: &ThreadDecl) -> String {
    let mut s = String::new();
    match t.shape {
        ThreadShape::Scalar => {
            let _ = write!(s, "#pragma ddm thread {}", t.id);
        }
        ThreadShape::Loop { lo, hi, unroll } => {
            let _ = write!(s, "#pragma ddm for thread {} range({lo}, {hi})", t.id);
            if unroll != 1 {
                let _ = write!(s, " unroll({unroll})");
            }
        }
    }
    if let Some(k) = t.kernel {
        let _ = write!(s, " kernel {k}");
    }
    if t.cost != 0 {
        let _ = write!(s, " cost({})", t.cost);
    }
    if !t.imports.is_empty() {
        let items: Vec<String> = t
            .imports
            .iter()
            .map(|i| format!("{}{}", i.var, mapping_suffix(i.mapping)))
            .collect();
        let _ = write!(s, " import({})", items.join(", "));
    }
    if !t.exports.is_empty() {
        let _ = write!(s, " export({})", t.exports.join(", "));
    }
    if !t.depends.is_empty() {
        let items: Vec<String> = t
            .depends
            .iter()
            .map(|d| format!("{}{}", d.thread, mapping_suffix(d.mapping)))
            .collect();
        let _ = write!(s, " depends({})", items.join(", "));
    }
    s
}

/// Render the module as DDM-annotated source.
pub fn print_module(m: &DdmModule) -> String {
    let mut s = String::new();
    if !m.prelude.is_empty() {
        s.push_str(&m.prelude);
        if !m.prelude.ends_with('\n') {
            s.push('\n');
        }
    }
    for (name, value) in &m.defs {
        let _ = writeln!(s, "#pragma ddm def {name} {value}");
    }
    for v in &m.vars {
        match v.size {
            Some(n) => {
                let _ = writeln!(s, "#pragma ddm var {} {} size({n})", v.ty, v.name);
            }
            None => {
                let _ = writeln!(s, "#pragma ddm var {} {}", v.ty, v.name);
            }
        }
    }
    match m.kernels {
        Some(k) => {
            let _ = writeln!(s, "#pragma ddm startprogram kernels({k})");
        }
        None => {
            let _ = writeln!(s, "#pragma ddm startprogram");
        }
    }
    for block in &m.blocks {
        let _ = writeln!(s, "#pragma ddm block {}", block.id);
        for t in &block.threads {
            let _ = writeln!(s, "{}", thread_directive(t));
            if !t.body.is_empty() {
                s.push_str(&t.body);
                if !t.body.ends_with('\n') {
                    s.push('\n');
                }
            }
            let end = match t.shape {
                ThreadShape::Scalar => "endthread",
                ThreadShape::Loop { .. } => "endfor",
            };
            let _ = writeln!(s, "#pragma ddm {end}");
        }
        let _ = writeln!(s, "#pragma ddm endblock");
    }
    let _ = writeln!(s, "#pragma ddm endprogram");
    if !m.epilogue.is_empty() {
        s.push_str(&m.epilogue);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_module;

    const SRC: &str = r#"
// helper
#pragma ddm def N 32
#pragma ddm var double A size(N)
#pragma ddm startprogram kernels(3)
#pragma ddm block 1
#pragma ddm for thread 1 range(0, N) unroll(4) cost(900) export(A)
    body_line();
#pragma ddm endfor
#pragma ddm thread 2 kernel 1 import(A:group(2)) depends(1:onetoone)
#pragma ddm endthread
#pragma ddm endblock
#pragma ddm endprogram
// bye
"#;

    #[test]
    fn roundtrip_preserves_structure() {
        // Note: thread 2's import/depends mix is arity-invalid for
        // lowering, but parse/print must still round-trip the AST.
        let m1 = parse_module(SRC).unwrap();
        let printed = print_module(&m1);
        let m2 = parse_module(&printed).unwrap();
        assert_eq!(m1, m2, "printed:\n{printed}");
    }

    #[test]
    fn print_contains_all_clauses() {
        let m = parse_module(SRC).unwrap();
        let p = print_module(&m);
        assert!(p.contains("#pragma ddm def N 32"));
        assert!(p.contains("var double A size(32)")); // resolved at parse
        assert!(p.contains("range(0, 32) unroll(4)"));
        assert!(p.contains("cost(900)"));
        assert!(p.contains("import(A:group(2))"));
        assert!(p.contains("depends(1:onetoone)"));
        assert!(p.contains("kernel 1"));
        assert!(p.contains("body_line();"));
        assert!(p.contains("// helper"));
        assert!(p.contains("// bye"));
    }

    #[test]
    fn scalar_thread_prints_endthread() {
        let m = parse_module(
            "#pragma ddm startprogram\n#pragma ddm block 1\n#pragma ddm thread 5\n#pragma ddm endthread\n#pragma ddm endblock\n#pragma ddm endprogram\n",
        )
        .unwrap();
        let p = print_module(&m);
        assert!(p.contains("#pragma ddm thread 5\n#pragma ddm endthread"));
    }
}
