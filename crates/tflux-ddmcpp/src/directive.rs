//! The `#pragma ddm` directive grammar (on [`parse_directive`]) and its
//! recursive-descent parser.
//!
//! The grammar is a faithful superset of the DDMCPP directives the TFlux
//! papers show (thread/block structure, loop threads, import/export,
//! dependencies), with `cost(..)` added so the sim/cell back-ends have a
//! work model, and `def` for compile-time constants.

use crate::error::{ErrorKind, PreprocessError};
use tflux_core::ArcMapping;

/// An integer-valued expression: a literal or a `def`-defined constant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// Integer literal.
    Lit(i64),
    /// Named constant (resolved against `def` directives at parse time).
    Const(String),
}

/// One dependency clause: producer thread id + mapping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DependsClause {
    /// Producer thread id.
    pub thread: u32,
    /// Instance mapping (defaults to [`ArcMapping::All`]).
    pub mapping: ArcMapping,
}

/// One import clause: variable name + mapping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImportClause {
    /// Imported variable.
    pub var: String,
    /// Instance mapping for the producing thread's slots.
    pub mapping: ArcMapping,
}

/// Attributes of a `thread` / `for thread` directive.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ThreadAttrs {
    /// Pinned kernel, if any.
    pub kernel: Option<u32>,
    /// Loop range (for-threads only).
    pub range: Option<(Expr, Expr)>,
    /// Unroll factor.
    pub unroll: Option<Expr>,
    /// Explicit arity (scalar threads default to 1).
    pub arity: Option<Expr>,
    /// Cost model hint for the sim/cell back-ends (cycles per instance).
    pub cost: Option<Expr>,
    /// Imported shared variables.
    pub imports: Vec<ImportClause>,
    /// Exported shared variables.
    pub exports: Vec<String>,
    /// Declared dependencies.
    pub depends: Vec<DependsClause>,
}

/// A parsed directive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Directive {
    /// `startprogram [kernels(N)]`
    StartProgram {
        /// Requested kernel count, if specified.
        kernels: Option<Expr>,
    },
    /// `endprogram`
    EndProgram,
    /// `block <id>`
    Block(u32),
    /// `endblock`
    EndBlock,
    /// `thread <id> attrs*` (scalar thread)
    Thread {
        /// Thread id.
        id: u32,
        /// Attributes.
        attrs: ThreadAttrs,
    },
    /// `endthread`
    EndThread,
    /// `for thread <id> range(a,b) attrs*` (loop thread)
    ForThread {
        /// Thread id.
        id: u32,
        /// Attributes (range is mandatory).
        attrs: ThreadAttrs,
    },
    /// `endfor`
    EndFor,
    /// `var <type> <name> [size(N)]`
    Var {
        /// C/Rust type name (passed through).
        ty: String,
        /// Variable name.
        name: String,
        /// Element count (arrays) or None (scalars).
        size: Option<Expr>,
    },
    /// `def <name> <int>`
    Def {
        /// Constant name.
        name: String,
        /// Value.
        value: i64,
    },
    /// `shutdown`
    Shutdown,
}

/// Tokenizer for one directive line.
struct Toks<'a> {
    s: &'a str,
    pos: usize,
    line: usize,
}

impl<'a> Toks<'a> {
    fn new(s: &'a str, line: usize) -> Self {
        Toks { s, pos: 0, line }
    }

    fn err(&self, msg: impl Into<String>) -> PreprocessError {
        PreprocessError::at(self.line, ErrorKind::BadDirective(msg.into()))
    }

    fn skip_ws(&mut self) {
        while self.pos < self.s.len() && self.s.as_bytes()[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<char> {
        self.skip_ws();
        self.s[self.pos..].chars().next()
    }

    fn eat(&mut self, c: char) -> bool {
        self.skip_ws();
        if self.s[self.pos..].starts_with(c) {
            self.pos += c.len_utf8();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: char) -> Result<(), PreprocessError> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{c}` at `{}`", &self.s[self.pos..])))
        }
    }

    fn word(&mut self) -> Option<&'a str> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.s.len() {
            let b = self.s.as_bytes()[self.pos];
            if b.is_ascii_alphanumeric() || b == b'_' {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos > start {
            Some(&self.s[start..self.pos])
        } else {
            None
        }
    }

    fn int(&mut self) -> Result<i64, PreprocessError> {
        self.skip_ws();
        let start = self.pos;
        if self.s[self.pos..].starts_with('-') {
            self.pos += 1;
        }
        while self.pos < self.s.len() && self.s.as_bytes()[self.pos].is_ascii_digit() {
            self.pos += 1;
        }
        self.s[start..self.pos].parse().map_err(|_| {
            PreprocessError::at(
                self.line,
                ErrorKind::BadNumber(self.s[start..].chars().take(12).collect()),
            )
        })
    }

    fn u32(&mut self) -> Result<u32, PreprocessError> {
        let v = self.int()?;
        u32::try_from(v)
            .map_err(|_| PreprocessError::at(self.line, ErrorKind::BadNumber(v.to_string())))
    }

    fn expr(&mut self) -> Result<Expr, PreprocessError> {
        self.skip_ws();
        let c = self
            .peek()
            .ok_or_else(|| self.err("expected expression, found end of line"))?;
        if c.is_ascii_digit() || c == '-' {
            Ok(Expr::Lit(self.int()?))
        } else {
            let w = self
                .word()
                .ok_or_else(|| self.err("expected constant name"))?;
            Ok(Expr::Const(w.to_string()))
        }
    }

    fn done(&mut self) -> bool {
        self.skip_ws();
        self.pos >= self.s.len()
    }
}

/// Parse one directive line (text after `#pragma ddm`):
///
/// ```text
/// directive   := startprogram [kernels(N)]
///              | endprogram
///              | block <id>
///              | endblock
///              | thread <id> attrs*
///              | endthread
///              | for thread <id> range(<expr>, <expr>) attrs*
///              | endfor
///              | var <type> <name> [size(<expr>)]
///              | def <name> <int>
///              | shutdown
/// attrs       := kernel <k> | arity(<expr>) | unroll(<expr>)
///              | cost(<expr>) | import(var[:mapping], ...)
///              | export(var, ...) | depends(<tid>[:mapping], ...)
/// mapping     := all | onetoone | offset(<int>) | group(<int>)
///              | expand(<int>)
/// expr        := integer literal | defined constant name
/// ```
pub fn parse_directive(text: &str, line: usize) -> Result<Directive, PreprocessError> {
    let mut t = Toks::new(text, line);
    let head = t
        .word()
        .ok_or_else(|| t.err("empty directive"))?
        .to_string();
    let d = match head.as_str() {
        "startprogram" => {
            let mut kernels = None;
            let save = t.pos;
            match t.word() {
                Some("kernels") => {
                    t.expect('(')?;
                    kernels = Some(t.expr()?);
                    t.expect(')')?;
                }
                _ => t.pos = save,
            }
            Directive::StartProgram { kernels }
        }
        "endprogram" => Directive::EndProgram,
        "block" => Directive::Block(t.u32()?),
        "endblock" => Directive::EndBlock,
        "thread" => {
            let id = t.u32()?;
            let attrs = parse_attrs(&mut t)?;
            Directive::Thread { id, attrs }
        }
        "endthread" => Directive::EndThread,
        "for" => {
            match t.word() {
                Some("thread") => {}
                _ => return Err(t.err("expected `for thread <id>`")),
            }
            let id = t.u32()?;
            let attrs = parse_attrs(&mut t)?;
            if attrs.range.is_none() {
                return Err(t.err("`for thread` requires range(lo, hi)"));
            }
            Directive::ForThread { id, attrs }
        }
        "endfor" => Directive::EndFor,
        "var" => {
            let ty = t
                .word()
                .ok_or_else(|| t.err("expected type in `var`"))?
                .to_string();
            let name = t
                .word()
                .ok_or_else(|| t.err("expected name in `var`"))?
                .to_string();
            let mut size = None;
            let save = t.pos;
            match t.word() {
                Some("size") => {
                    t.expect('(')?;
                    size = Some(t.expr()?);
                    t.expect(')')?;
                }
                _ => t.pos = save,
            }
            Directive::Var { ty, name, size }
        }
        "def" => {
            let name = t
                .word()
                .ok_or_else(|| t.err("expected name in `def`"))?
                .to_string();
            let value = t.int()?;
            Directive::Def { name, value }
        }
        "shutdown" => Directive::Shutdown,
        other => return Err(t.err(format!("unknown directive `{other}`"))),
    };
    if !t.done() {
        return Err(t.err(format!(
            "trailing input after directive: `{}`",
            &t.s[t.pos..]
        )));
    }
    Ok(d)
}

fn parse_mapping(t: &mut Toks<'_>) -> Result<ArcMapping, PreprocessError> {
    let w = t
        .word()
        .ok_or_else(|| t.err("expected mapping name after `:`"))?
        .to_string();
    match w.as_str() {
        "all" => Ok(ArcMapping::All),
        "onetoone" => Ok(ArcMapping::OneToOne),
        "offset" => {
            t.expect('(')?;
            let k = t.int()? as i32;
            t.expect(')')?;
            Ok(ArcMapping::Offset(k))
        }
        "group" => {
            t.expect('(')?;
            let k = t.u32()?;
            t.expect(')')?;
            Ok(ArcMapping::Group { factor: k })
        }
        "expand" => {
            t.expect('(')?;
            let k = t.u32()?;
            t.expect(')')?;
            Ok(ArcMapping::Expand { factor: k })
        }
        other => Err(t.err(format!("unknown mapping `{other}`"))),
    }
}

fn parse_attrs(t: &mut Toks<'_>) -> Result<ThreadAttrs, PreprocessError> {
    let mut a = ThreadAttrs::default();
    loop {
        t.skip_ws();
        if t.done() {
            break;
        }
        let w = t
            .word()
            .ok_or_else(|| t.err("expected attribute name"))?
            .to_string();
        match w.as_str() {
            "kernel" => a.kernel = Some(t.u32()?),
            "range" => {
                t.expect('(')?;
                let lo = t.expr()?;
                t.expect(',')?;
                let hi = t.expr()?;
                t.expect(')')?;
                a.range = Some((lo, hi));
            }
            "unroll" => {
                t.expect('(')?;
                a.unroll = Some(t.expr()?);
                t.expect(')')?;
            }
            "arity" => {
                t.expect('(')?;
                a.arity = Some(t.expr()?);
                t.expect(')')?;
            }
            "cost" => {
                t.expect('(')?;
                a.cost = Some(t.expr()?);
                t.expect(')')?;
            }
            "import" => {
                t.expect('(')?;
                loop {
                    let var = t
                        .word()
                        .ok_or_else(|| t.err("expected variable in import(..)"))?
                        .to_string();
                    let mapping = if t.eat(':') {
                        parse_mapping(t)?
                    } else {
                        ArcMapping::All
                    };
                    a.imports.push(ImportClause { var, mapping });
                    if !t.eat(',') {
                        break;
                    }
                }
                t.expect(')')?;
            }
            "export" => {
                t.expect('(')?;
                loop {
                    let var = t
                        .word()
                        .ok_or_else(|| t.err("expected variable in export(..)"))?
                        .to_string();
                    a.exports.push(var);
                    if !t.eat(',') {
                        break;
                    }
                }
                t.expect(')')?;
            }
            "depends" => {
                t.expect('(')?;
                loop {
                    let thread = t.u32()?;
                    let mapping = if t.eat(':') {
                        parse_mapping(t)?
                    } else {
                        ArcMapping::All
                    };
                    a.depends.push(DependsClause { thread, mapping });
                    if !t.eat(',') {
                        break;
                    }
                }
                t.expect(')')?;
            }
            other => return Err(t.err(format!("unknown attribute `{other}`"))),
        }
    }
    Ok(a)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Directive {
        parse_directive(s, 1).unwrap()
    }

    #[test]
    fn start_and_end() {
        assert_eq!(p("startprogram"), Directive::StartProgram { kernels: None });
        assert_eq!(
            p("startprogram kernels(4)"),
            Directive::StartProgram {
                kernels: Some(Expr::Lit(4))
            }
        );
        assert_eq!(p("endprogram"), Directive::EndProgram);
    }

    #[test]
    fn block_and_thread() {
        assert_eq!(p("block 3"), Directive::Block(3));
        match p("thread 7 kernel 2 depends(1, 3:onetoone)") {
            Directive::Thread { id, attrs } => {
                assert_eq!(id, 7);
                assert_eq!(attrs.kernel, Some(2));
                assert_eq!(
                    attrs.depends,
                    vec![
                        DependsClause {
                            thread: 1,
                            mapping: ArcMapping::All
                        },
                        DependsClause {
                            thread: 3,
                            mapping: ArcMapping::OneToOne
                        },
                    ]
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn for_thread_with_range_unroll() {
        match p("for thread 2 range(0, N) unroll(8) cost(1200)") {
            Directive::ForThread { id, attrs } => {
                assert_eq!(id, 2);
                assert_eq!(attrs.range, Some((Expr::Lit(0), Expr::Const("N".into()))));
                assert_eq!(attrs.unroll, Some(Expr::Lit(8)));
                assert_eq!(attrs.cost, Some(Expr::Lit(1200)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn for_thread_requires_range() {
        assert!(parse_directive("for thread 2 unroll(4)", 5).is_err());
    }

    #[test]
    fn import_export_mappings() {
        match p("thread 4 import(a:group(2), b) export(c, d)") {
            Directive::Thread { attrs, .. } => {
                assert_eq!(attrs.imports.len(), 2);
                assert_eq!(attrs.imports[0].mapping, ArcMapping::Group { factor: 2 });
                assert_eq!(attrs.imports[1].mapping, ArcMapping::All);
                assert_eq!(attrs.exports, vec!["c".to_string(), "d".to_string()]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn var_and_def() {
        assert_eq!(
            p("var double A size(1024)"),
            Directive::Var {
                ty: "double".into(),
                name: "A".into(),
                size: Some(Expr::Lit(1024))
            }
        );
        assert_eq!(
            p("def N 256"),
            Directive::Def {
                name: "N".into(),
                value: 256
            }
        );
    }

    #[test]
    fn negative_offset_mapping() {
        match p("thread 9 depends(8:offset(-1))") {
            Directive::Thread { attrs, .. } => {
                assert_eq!(attrs.depends[0].mapping, ArcMapping::Offset(-1));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn errors_are_reported_with_context() {
        assert!(parse_directive("thread", 9).is_err());
        assert!(parse_directive("blah 3", 9).is_err());
        assert!(parse_directive("thread 1 bogus(3)", 9).is_err());
        assert!(parse_directive("thread 1 depends(1:weird)", 9).is_err());
        let e = parse_directive("thread 1 junk", 9).unwrap_err();
        assert_eq!(e.line, 9);
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse_directive("endprogram xx", 1).is_err());
    }

    #[test]
    fn shutdown_parses() {
        assert_eq!(p("shutdown"), Directive::Shutdown);
    }
}
