//! # spmlab-wcet — static worst-case execution time analysis
//!
//! The stand-in for aiT in the paper's workflow. Like aiT it takes an
//! *executable* plus an annotation set and produces a safe upper bound on
//! execution time, with the classic separated architecture
//! (Theiling/Ferdinand/Wilhelm):
//!
//! 1. **CFG reconstruction** from machine code ([`mod@cfg`]), never decoding
//!    literal pools as instructions;
//! 2. **loop analysis** — dominator-based natural loops ([`loops`]) with
//!    bounds from annotations or an automatic counted-loop detector
//!    ([`bounds`]);
//! 3. **value/address analysis** — classification of every data access as
//!    exact / range / stack / unknown, mostly auto-generated by the linker
//!    ([`addrinfo`]), plus a whole-program stack-depth analysis;
//! 4. **microarchitectural analysis** — one abstract-interpretation
//!    cache analysis ([`multilevel`] over the [`cache`] domains) for
//!    every memory hierarchy: the paper's MUST-only setup, optionally
//!    extended with a persistence (first-miss) analysis, or the full
//!    multi-level MUST×MAY classification; write-back configurations add
//!    the charge-at-store write-back rule backed by the dirty-line upper
//!    bound ([`dirty`]). A hierarchy with no cache level is the
//!    scratchpad branch ("no additional analysis module required"):
//!    nothing is classified and every access is priced by its region.
//!    [`classify`] walks each block once from its converged state into
//!    a timing-free census, an access count per price class, and
//!    [`cost`] prices that census under each configuration's timing;
//! 5. **IPET** — per-function implicit path enumeration as an ILP solved by
//!    [`spmlab_ilp`] ([`ipet`]), combined bottom-up over the call graph:
//!    each function shape's constraint system is built and taken through
//!    simplex phase 1 once ([`IpetModels`]), every bound is priced by
//!    phase 2 alone and certified against the flow facts.
//!
//! The headline guarantee, exercised heavily by the test-suite: for every
//! program whose annotations hold on a given input, the reported bound is
//! ≥ the simulator's cycle count on that input.
//!
//! ```
//! use spmlab_cc::{compile, link, SpmAssignment};
//! use spmlab_isa::mem::MemoryMap;
//! use spmlab_wcet::{analyze, WcetConfig};
//!
//! let src = "int x; void main() { int i; for (i = 0; i < 10; i = i + 1) { __loopbound(10); x = x + i; } }";
//! let l = link(&compile(src)?, &MemoryMap::no_spm(), &SpmAssignment::none())?;
//! let wcet = analyze(&l.exe, &WcetConfig::region_timing(), &l.annotations)?;
//! assert!(wcet.wcet_cycles > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod addrinfo;
pub mod analysis;
pub mod bounds;
pub mod cache;
pub mod cfg;
pub mod dirty;
pub mod fixpoint;
pub mod ipet;
pub mod loops;
pub mod multilevel;
pub mod report;
pub mod stack;
#[cfg(test)]
mod timing;

pub use analysis::{analyze, classify, cost, prepare, Classified, Prepared, WcetConfig};
pub use ipet::IpetModels;
pub use report::{FuncWcet, WcetResult};

/// Errors from WCET analysis.
#[derive(Debug, Clone, PartialEq)]
pub enum WcetError {
    /// A function symbol is missing from the executable.
    MissingFunction(String),
    /// Machine code could not be decoded during CFG reconstruction.
    InvalidCode {
        func: String,
        addr: u32,
        reason: String,
    },
    /// A branch target escapes its function.
    EscapingBranch { func: String, from: u32, to: u32 },
    /// The call graph is recursive; WCET requires a DAG.
    Recursion { cycle: Vec<String> },
    /// A loop has no bound (annotation missing, auto-detection failed) —
    /// aiT reports exactly this situation to the user.
    UnboundedLoop { func: String, header: u32 },
    /// The CFG is irreducible (a loop with multiple entries).
    Irreducible { func: String, addr: u32 },
    /// The ILP solver failed.
    Ilp(spmlab_ilp::IlpError),
    /// The stack-depth analysis found inconsistent stack heights.
    StackImbalance { func: String, addr: u32 },
    /// The IPET solver's counts violate the function's flow facts: its
    /// bound is not certified.
    IpetCertificate { func: String, reason: String },
}

impl std::fmt::Display for WcetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WcetError::MissingFunction(n) => write!(f, "missing function `{n}`"),
            WcetError::InvalidCode { func, addr, reason } => {
                write!(f, "invalid code in `{func}` at {addr:#x}: {reason}")
            }
            WcetError::EscapingBranch { func, from, to } => {
                write!(f, "branch in `{func}` at {from:#x} escapes to {to:#x}")
            }
            WcetError::Recursion { cycle } => {
                write!(f, "recursive call graph: {}", cycle.join(" -> "))
            }
            WcetError::UnboundedLoop { func, header } => {
                write!(
                    f,
                    "loop at {header:#x} in `{func}` has no bound; annotate it"
                )
            }
            WcetError::Irreducible { func, addr } => {
                write!(f, "irreducible control flow in `{func}` near {addr:#x}")
            }
            WcetError::Ilp(e) => write!(f, "IPET solver: {e}"),
            WcetError::StackImbalance { func, addr } => {
                write!(f, "inconsistent stack height in `{func}` at {addr:#x}")
            }
            WcetError::IpetCertificate { func, reason } => {
                write!(f, "IPET certificate failed in `{func}`: {reason}")
            }
        }
    }
}

impl std::error::Error for WcetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WcetError::Ilp(e) => Some(e),
            _ => None,
        }
    }
}

impl From<spmlab_ilp::IlpError> for WcetError {
    fn from(e: spmlab_ilp::IlpError) -> WcetError {
        WcetError::Ilp(e)
    }
}
