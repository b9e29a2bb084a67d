//! The front-end AST: a parsed DDM module, target-independent.

use crate::directive::{DependsClause, ImportClause};

/// Whether a thread is a scalar or a loop thread, and its resolved shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ThreadShape {
    /// A single-instance thread.
    Scalar,
    /// A loop thread over `lo..hi`, unrolled by `unroll`.
    Loop {
        /// First iteration (inclusive).
        lo: i64,
        /// Last iteration (exclusive).
        hi: i64,
        /// Unroll factor (≥ 1).
        unroll: u32,
    },
}

impl ThreadShape {
    /// The DThread arity this shape produces.
    pub fn arity(&self) -> u32 {
        match *self {
            ThreadShape::Scalar => 1,
            ThreadShape::Loop { lo, hi, unroll } => {
                let n = (hi - lo).max(0) as u64;
                n.div_ceil(unroll.max(1) as u64).max(1) as u32
            }
        }
    }
}

/// A declared DThread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadDecl {
    /// User-assigned id (unique within the program).
    pub id: u32,
    /// Shape (scalar or resolved loop).
    pub shape: ThreadShape,
    /// Pinned kernel, if requested.
    pub kernel: Option<u32>,
    /// Per-instance cost hint for the sim/cell back-ends.
    pub cost: u64,
    /// Imported shared variables.
    pub imports: Vec<ImportClause>,
    /// Exported shared variables.
    pub exports: Vec<String>,
    /// Dependencies on other threads of the same block.
    pub depends: Vec<DependsClause>,
    /// The verbatim body code.
    pub body: String,
    /// Source line of the declaring directive.
    pub line: usize,
}

/// A declared DDM block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockDecl {
    /// User-assigned id.
    pub id: u32,
    /// Threads in declaration order.
    pub threads: Vec<ThreadDecl>,
    /// Source line.
    pub line: usize,
}

/// A shared-variable declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VarDecl {
    /// Type name, passed through to the back-end.
    pub ty: String,
    /// Variable name.
    pub name: String,
    /// Element count for arrays (None = scalar).
    pub size: Option<u64>,
}

impl VarDecl {
    /// Approximate byte size of the variable (used by the cell back-end for
    /// DMA cost derivation). Unknown types count as 8 bytes per element.
    pub fn byte_size(&self) -> u64 {
        let elem: u64 = match self.ty.as_str() {
            "char" | "i8" | "u8" | "bool" => 1,
            "short" | "i16" | "u16" => 2,
            "int" | "float" | "i32" | "u32" | "f32" => 4,
            _ => 8,
        };
        elem * self.size.unwrap_or(1)
    }
}

/// A fully parsed DDM module.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DdmModule {
    /// Requested kernel count (`kernels(N)` on `startprogram`).
    pub kernels: Option<u32>,
    /// Shared-variable declarations.
    pub vars: Vec<VarDecl>,
    /// Compile-time constants (`def`).
    pub defs: Vec<(String, i64)>,
    /// Blocks in program order.
    pub blocks: Vec<BlockDecl>,
    /// Code before `startprogram` (includes, helpers) — passed through.
    pub prelude: String,
    /// Code after `endprogram` — passed through.
    pub epilogue: String,
}

impl DdmModule {
    /// Find a thread declaration by user id.
    pub fn thread(&self, id: u32) -> Option<&ThreadDecl> {
        self.blocks
            .iter()
            .flat_map(|b| b.threads.iter())
            .find(|t| t.id == id)
    }

    /// Find a variable declaration.
    pub fn var(&self, name: &str) -> Option<&VarDecl> {
        self.vars.iter().find(|v| v.name == name)
    }

    /// Total declared threads.
    pub fn thread_count(&self) -> usize {
        self.blocks.iter().map(|b| b.threads.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loop_arity_with_unroll() {
        let s = ThreadShape::Loop {
            lo: 0,
            hi: 100,
            unroll: 8,
        };
        assert_eq!(s.arity(), 13);
        assert_eq!(ThreadShape::Scalar.arity(), 1);
        let empty = ThreadShape::Loop {
            lo: 5,
            hi: 5,
            unroll: 1,
        };
        assert_eq!(empty.arity(), 1);
    }

    #[test]
    fn var_byte_sizes() {
        let v = VarDecl {
            ty: "double".into(),
            name: "A".into(),
            size: Some(64),
        };
        assert_eq!(v.byte_size(), 512);
        let s = VarDecl {
            ty: "int".into(),
            name: "n".into(),
            size: None,
        };
        assert_eq!(s.byte_size(), 4);
    }
}
