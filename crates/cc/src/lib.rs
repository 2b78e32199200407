//! # spmlab-cc — the MiniC compiler and linker
//!
//! A compiler for **MiniC**, a C subset rich enough to express the paper's
//! benchmarks (table-driven speech codecs and sorting kernels), targeting
//! the TH16 architecture. It plays the role of the Dortmund energy-aware
//! compiler *encc* from the paper: it produces relocatable functions and
//! global data objects — the *memory objects* the scratchpad allocator
//! places — and, together with the linker, auto-generates the annotations
//! the WCET analyzer needs (loop bounds from source-level `__loopbound()`
//! markers, exact addresses or address ranges for every data access).
//!
//! ## Language
//!
//! * Types: `int` (32-bit), `short` (16-bit), `char` (8-bit), all signed;
//!   `void` for functions. One-dimensional global arrays.
//! * Globals with optional initialisers; scalar locals; ≤ 4 parameters.
//! * Statements: `if`/`else`, `while`, `for`, `do`-`while`, `break`,
//!   `continue`, `return`, blocks, declarations, `__loopbound(n);`.
//! * Expressions: assignment, `||`/`&&` (short-circuit), bitwise, equality,
//!   relational, shifts, `+ - * / %`, unary `- ! ~`, calls, array indexing.
//! * No pointers, structs, floats or recursion (the WCET analyzer rejects
//!   recursive call graphs).
//!
//! ```
//! use spmlab_cc::{compile, link, SpmAssignment};
//! use spmlab_isa::mem::MemoryMap;
//!
//! let src = r#"
//!     int total;
//!     int main() {
//!         int i;
//!         total = 0;
//!         for (i = 0; i < 10; i = i + 1) { __loopbound(10); total = total + i; }
//!         return total;
//!     }
//! "#;
//! let module = compile(src)?;
//! let linked = link(&module, &MemoryMap::no_spm(), &SpmAssignment::none())?;
//! assert!(linked.exe.symbol("main").is_some());
//! # Ok::<(), spmlab_cc::CcError>(())
//! ```

pub mod ast;
pub mod codegen;
pub mod interp;
pub mod lexer;
pub mod link;
pub mod module;
pub mod parser;
pub mod print;
pub mod sema;
pub mod token;

pub use link::{link, spm_end, LinkedProgram, SpmAssignment};
pub use module::{GlobalDef, ObjModule};
pub use print::print;

use std::fmt;

/// Compiles MiniC source into a relocatable object module.
///
/// # Errors
///
/// Returns a [`CcError`] carrying a source position for lexer, parser and
/// semantic errors, or an assembler error for code that exceeds encoding
/// ranges (e.g. a single function larger than the branch span).
pub fn compile(source: &str) -> Result<ObjModule, CcError> {
    let tokens = lexer::lex(source)?;
    let program = parser::parse(&tokens)?;
    let typed = sema::check(&program)?;
    codegen::generate(&typed)
}

/// Lexes and parses MiniC source into an AST without semantic checking.
///
/// Used by round-trip tests (`parse_source(print(ast))`) and by callers
/// that want to interpret or transform a program before committing to
/// [`sema::check`].
///
/// # Errors
///
/// Returns lexer or parser errors with source positions.
pub fn parse_source(source: &str) -> Result<ast::Program, CcError> {
    let tokens = lexer::lex(source)?;
    parser::parse(&tokens)
}

/// A position in MiniC source (1-based line and column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Pos {
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Compiler errors.
#[derive(Debug, Clone, PartialEq)]
pub enum CcError {
    /// Lexical error (bad character, unterminated literal).
    Lex { pos: Pos, msg: String },
    /// Syntax error.
    Parse { pos: Pos, msg: String },
    /// Semantic error (types, undefined names, unsupported constructs).
    Sema { pos: Pos, msg: String },
    /// Assembler/linker error from the ISA layer.
    Isa(spmlab_isa::IsaError),
}

impl fmt::Display for CcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CcError::Lex { pos, msg } => write!(f, "lex error at {pos}: {msg}"),
            CcError::Parse { pos, msg } => write!(f, "parse error at {pos}: {msg}"),
            CcError::Sema { pos, msg } => write!(f, "semantic error at {pos}: {msg}"),
            CcError::Isa(e) => write!(f, "assembly/link error: {e}"),
        }
    }
}

impl std::error::Error for CcError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CcError::Isa(e) => Some(e),
            _ => None,
        }
    }
}

impl From<spmlab_isa::IsaError> for CcError {
    fn from(e: spmlab_isa::IsaError) -> CcError {
        CcError::Isa(e)
    }
}
