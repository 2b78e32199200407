//! A hand-assembled program that reads the MMIO cycle register through
//! a literal address, the shortest such program (MiniC reaches the
//! register only through an out-of-bounds array index). The simulator's
//! unit tests and the workspace trace tests both include this file by
//! path.

use spmlab_isa::asm::{FuncBuilder, LitValue};
use spmlab_isa::image::{Executable, LoadRegion, Symbol, SymbolKind};
use spmlab_isa::insn::Insn;
use spmlab_isa::mem::{AccessWidth, MemoryMap, MAIN_BASE, MMIO_CYCLES};
use spmlab_isa::reg::{R0, R1};

/// `_start` at `MAIN_BASE`, with no scratchpad: loads the cycle
/// register's address from its literal pool, reads the register once,
/// and halts.
pub fn cycle_reader() -> Executable {
    let mut start = FuncBuilder::new("_start");
    start.ldr_lit(R1, LitValue::Const(MMIO_CYCLES));
    start.push(Insn::LdrImm {
        width: AccessWidth::Word,
        rd: R0,
        rn: R1,
        off: 0,
    });
    start.push(Insn::Swi { imm: 0 });
    let start = start.assemble().expect("assembles");
    let bytes = start.halfwords.iter().flat_map(|hw| hw.to_le_bytes());
    Executable {
        regions: vec![LoadRegion {
            addr: MAIN_BASE,
            bytes: bytes.collect(),
        }],
        symbols: vec![Symbol {
            name: "_start".into(),
            addr: MAIN_BASE,
            size: start.total_size(),
            kind: SymbolKind::Func {
                code_size: start.code_size,
            },
        }],
        entry: MAIN_BASE,
        memory_map: MemoryMap::no_spm(),
    }
}
