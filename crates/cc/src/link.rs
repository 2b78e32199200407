//! Linking: placing memory objects, resolving relocations, generating
//! annotations.
//!
//! This is where the paper's two workflow branches meet: the linker takes a
//! compiled module plus a *scratchpad assignment* (possibly empty) and
//! produces (a) the executable image with every function and global placed
//! in scratchpad or main memory, and (b) the auto-generated
//! [`AnnotationSet`] — loop bounds and access address information — that
//! the paper describes as "determined automatically from address
//! information provided by the linker".

use crate::module::ObjModule;
use crate::CcError;
use spmlab_isa::annot::{AddrInfo, AnnotationSet};
use spmlab_isa::asm::{AccessHint, ObjFunc};
use spmlab_isa::decode::decode;
use spmlab_isa::encode::encode;
use spmlab_isa::image::{Executable, LoadRegion, Symbol, SymbolKind};
use spmlab_isa::insn::Insn;
use spmlab_isa::mem::{AccessWidth, MemoryMap};
use spmlab_isa::IsaError;
use std::collections::{BTreeMap, BTreeSet};

/// Which memory objects go to the scratchpad.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct SpmAssignment {
    names: BTreeSet<String>,
}

impl SpmAssignment {
    /// Nothing on the scratchpad (the paper's cache branch, and the
    /// profiling baseline).
    pub fn none() -> SpmAssignment {
        SpmAssignment::default()
    }

    /// Builds an assignment from object names.
    pub fn of<I: IntoIterator<Item = S>, S: Into<String>>(names: I) -> SpmAssignment {
        SpmAssignment {
            names: names.into_iter().map(Into::into).collect(),
        }
    }

    /// Whether `name` is assigned to the scratchpad.
    pub fn contains(&self, name: &str) -> bool {
        self.names.contains(name)
    }

    /// Adds an object.
    pub fn insert(&mut self, name: impl Into<String>) {
        self.names.insert(name.into());
    }

    /// Iterates assigned names.
    pub fn iter(&self) -> impl Iterator<Item = &str> {
        self.names.iter().map(String::as_str)
    }

    /// Number of assigned objects.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no object is assigned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// A linked program: the executable plus its auto-generated annotations.
#[derive(Debug, Clone)]
pub struct LinkedProgram {
    /// The loadable image with symbol table.
    pub exe: Executable,
    /// Auto-generated loop bounds and access address annotations.
    pub annotations: AnnotationSet,
}

/// Name of the synthesized entry function.
pub const START_SYMBOL: &str = "_start";

/// The module's memory objects in the order [`link()`] places them after
/// `_start`: functions, then globals, each with the bytes it occupies.
fn placement_order(module: &ObjModule) -> impl Iterator<Item = (&str, u32)> {
    let funcs = module
        .funcs
        .iter()
        .map(|f| (f.name.as_str(), f.total_size()));
    let globals = module
        .globals
        .iter()
        .map(|g| (g.name.as_str(), g.size_bytes().max(1)));
    funcs.chain(globals)
}

/// Where the scratchpad part of `assign` ends, in bytes from the
/// scratchpad base. [`link()`] places the assigned objects in module order,
/// each at the next word boundary, and never moves its cursor back, so
/// under any map whose scratchpad starts at a word boundary (as
/// [`MemoryMap::with_spm`] does) the assignment fits exactly when this is
/// at most `spm_size`.
pub fn spm_end(module: &ObjModule, assign: &SpmAssignment) -> u64 {
    placement_order(module)
        .filter(|(name, _)| assign.contains(name))
        .fold(0, |end, (_, size)| ((end + 3) & !3) + u64::from(size))
}

/// Links `module` for `map`, placing `assign`ed objects in the scratchpad.
///
/// # Errors
///
/// Fails when `main` is missing, a call or assignment references an
/// undefined symbol, or a region overflows.
pub fn link(
    module: &ObjModule,
    map: &MemoryMap,
    assign: &SpmAssignment,
) -> Result<LinkedProgram, CcError> {
    if module.func("main").is_none() {
        return Err(CcError::Isa(IsaError::UndefinedSymbol("main".into())));
    }
    for name in assign.iter() {
        if module.func(name).is_none() && module.global(name).is_none() {
            return Err(CcError::Isa(IsaError::UndefinedSymbol(name.into())));
        }
    }

    // Synthesize `_start`: call main, halt.
    let start = {
        let mut f = spmlab_isa::asm::FuncBuilder::new(START_SYMBOL);
        f.bl("main");
        f.push(Insn::Swi { imm: 0 });
        f.assemble().map_err(CcError::from)?
    };

    // Lay out: functions then globals, scratchpad first, then main memory.
    let mut addr_of: BTreeMap<String, u32> = BTreeMap::new();
    let mut spm_cursor = map.spm_base;
    let spm_end = map.spm_base + map.spm_size;
    let mut main_cursor = map.main_base;
    let main_end = map.main_base + map.main_size;

    let mut place = |name: &str, size: u32, to_spm: bool| -> Result<u32, CcError> {
        let (cursor, end, region): (&mut u32, u32, &'static str) = if to_spm {
            (&mut spm_cursor, spm_end, "scratchpad")
        } else {
            (&mut main_cursor, main_end, "main")
        };
        let addr = (*cursor + 3) & !3;
        let new_end = addr as u64 + size as u64;
        if new_end > end as u64 {
            return Err(CcError::Isa(IsaError::RegionOverflow {
                region,
                need: new_end - *cursor as u64,
                have: (end - *cursor) as u64,
            }));
        }
        *cursor = new_end as u32;
        addr_of.insert(name.to_string(), addr);
        Ok(addr)
    };

    // `_start` always lives in main memory, first.
    place(START_SYMBOL, start.total_size(), false)?;
    for (name, size) in placement_order(module) {
        place(name, size, assign.contains(name))?;
    }

    // Emit bytes with relocations resolved.
    let mut spm_bytes = vec![0u8; (spm_cursor - map.spm_base) as usize];
    let mut main_bytes = vec![0u8; (main_cursor - map.main_base) as usize];
    let mut write = |addr: u32, bytes: &[u8]| {
        let (buf, base) = if addr >= map.main_base {
            (&mut main_bytes, map.main_base)
        } else {
            (&mut spm_bytes, map.spm_base)
        };
        let off = (addr - base) as usize;
        buf[off..off + bytes.len()].copy_from_slice(bytes);
    };

    let all_funcs = std::iter::once(&start).chain(module.funcs.iter());
    let mut symbols = Vec::new();
    let mut annotations = AnnotationSet::new();

    for f in all_funcs {
        let base = addr_of[&f.name];
        let bytes = resolve_func(f, base, &addr_of)?;
        write(base, &bytes);
        symbols.push(Symbol {
            name: f.name.clone(),
            addr: base,
            size: f.total_size(),
            kind: SymbolKind::Func {
                code_size: f.code_size,
            },
        });
        // Loop-bound hints → absolute header addresses.
        for &(off, bound) in &f.loop_hints {
            annotations.set_loop_bound(base + off, bound);
        }
        for &(off, total) in &f.total_hints {
            annotations.set_loop_total(base + off, total);
        }
    }
    for g in &module.globals {
        let base = addr_of[&g.name];
        write(base, &g.to_bytes());
        symbols.push(Symbol {
            name: g.name.clone(),
            addr: base,
            size: g.size_bytes().max(1),
            kind: SymbolKind::Object { width: g.width },
        });
    }
    symbols.sort_by_key(|s| s.addr);

    // Access hints → address annotations, now that objects have addresses.
    for f in std::iter::once(&start).chain(module.funcs.iter()) {
        let base = addr_of[&f.name];
        for (off, hint) in &f.access_hints {
            let insn_addr = base + off;
            let hw = f.halfwords[(*off / 2) as usize];
            let (insn, _) = decode(hw, f.halfwords.get((*off / 2 + 1) as usize).copied());
            let width = access_width_of(&insn).unwrap_or(AccessWidth::Word);
            let addr = match hint {
                AccessHint::Global {
                    symbol,
                    exact_offset,
                } => {
                    let sym_addr = *addr_of
                        .get(symbol)
                        .ok_or_else(|| CcError::Isa(IsaError::UndefinedSymbol(symbol.clone())))?;
                    let size = module
                        .global(symbol)
                        .map(|g| g.size_bytes().max(1))
                        .or_else(|| module.func(symbol).map(|f| f.total_size()))
                        .unwrap_or(4);
                    match exact_offset {
                        Some(o) => AddrInfo::Exact(sym_addr + o),
                        None => AddrInfo::Range {
                            lo: sym_addr,
                            hi: sym_addr + size,
                        },
                    }
                }
                AccessHint::StackLocal => AddrInfo::Stack,
            };
            annotations.set_access(insn_addr, width, addr);
        }
    }

    let mut regions = Vec::new();
    if !spm_bytes.is_empty() {
        regions.push(LoadRegion {
            addr: map.spm_base,
            bytes: spm_bytes,
        });
    }
    regions.push(LoadRegion {
        addr: map.main_base,
        bytes: main_bytes,
    });

    let exe = Executable {
        regions,
        symbols,
        entry: addr_of[START_SYMBOL],
        memory_map: map.clone(),
    };
    Ok(LinkedProgram { exe, annotations })
}

/// Resolves a function's relocations against final addresses and renders it
/// to bytes.
fn resolve_func(
    f: &ObjFunc,
    base: u32,
    addr_of: &BTreeMap<String, u32>,
) -> Result<Vec<u8>, CcError> {
    let mut halfwords = f.halfwords.clone();
    for reloc in &f.call_relocs {
        let target = *addr_of
            .get(&reloc.target)
            .ok_or_else(|| CcError::Isa(IsaError::UndefinedSymbol(reloc.target.clone())))?;
        let insn_addr = base + reloc.offset;
        let off = target as i64 - (insn_addr as i64 + 4);
        if off % 2 != 0 || !(-(1i64 << 22)..(1i64 << 22)).contains(&off) {
            return Err(CcError::Isa(IsaError::BranchOutOfRange {
                from: insn_addr,
                to: target as i64,
                insn: format!("bl {}", reloc.target),
            }));
        }
        let enc = encode(&Insn::Bl { off: off as i32 });
        let idx = (reloc.offset / 2) as usize;
        halfwords[idx] = enc[0];
        halfwords[idx + 1] = enc[1];
    }
    for reloc in &f.lit_relocs {
        let target = *addr_of
            .get(&reloc.symbol)
            .ok_or_else(|| CcError::Isa(IsaError::UndefinedSymbol(reloc.symbol.clone())))?;
        let idx = (reloc.offset / 2) as usize;
        halfwords[idx] = (target & 0xFFFF) as u16;
        halfwords[idx + 1] = (target >> 16) as u16;
    }
    let mut bytes = Vec::with_capacity(halfwords.len() * 2);
    for hw in &halfwords {
        bytes.extend(hw.to_le_bytes());
    }
    Ok(bytes)
}

fn access_width_of(insn: &Insn) -> Option<AccessWidth> {
    match insn {
        Insn::LdrImm { width, .. }
        | Insn::StrImm { width, .. }
        | Insn::LdrReg { width, .. }
        | Insn::StrReg { width, .. } => Some(*width),
        Insn::LdrLit { .. } | Insn::LdrSp { .. } | Insn::StrSp { .. } => Some(AccessWidth::Word),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;
    use spmlab_isa::mem::RegionKind;

    const SRC: &str = "
        int tab[8] = {1,2,3,4,5,6,7,8};
        int acc;
        int sum(int n) {
            int i; int s;
            s = 0;
            for (i = 0; i < n; i = i + 1) { __loopbound(8); s = s + tab[i]; }
            return s;
        }
        void main() { acc = sum(8); }
    ";

    #[test]
    fn links_with_no_spm() {
        let m = compile(SRC).unwrap();
        let l = link(&m, &MemoryMap::no_spm(), &SpmAssignment::none()).unwrap();
        let main = l.exe.symbol("main").unwrap();
        assert_eq!(l.exe.memory_map.region_of(main.addr), RegionKind::Main);
        assert!(l.exe.symbol(START_SYMBOL).is_some());
        assert_eq!(l.exe.entry, l.exe.symbol(START_SYMBOL).unwrap().addr);
        // One bounded loop annotated inside `sum`.
        assert_eq!(l.annotations.loop_bounds().count(), 1);
        let sum = l.exe.symbol("sum").unwrap();
        let lb = l.annotations.loop_bounds().next().unwrap();
        assert!(lb.header_addr >= sum.addr && lb.header_addr < sum.addr + sum.size);
        assert_eq!(lb.max_iterations, 8);
    }

    #[test]
    fn spm_assignment_moves_objects() {
        let m = compile(SRC).unwrap();
        let map = MemoryMap::with_spm(1024);
        let l = link(&m, &map, &SpmAssignment::of(["sum", "tab"])).unwrap();
        assert_eq!(
            map.region_of(l.exe.symbol("sum").unwrap().addr),
            RegionKind::Scratchpad
        );
        assert_eq!(
            map.region_of(l.exe.symbol("tab").unwrap().addr),
            RegionKind::Scratchpad
        );
        assert_eq!(
            map.region_of(l.exe.symbol("main").unwrap().addr),
            RegionKind::Main
        );
        // Scratchpad contents are pre-loaded: tab's first element readable.
        let tab = l.exe.symbol("tab").unwrap();
        assert_eq!(l.exe.read_word(tab.addr), Some(1));
    }

    #[test]
    fn spm_overflow_detected() {
        let m = compile(SRC).unwrap();
        let map = MemoryMap::with_spm(16);
        let err = link(&m, &map, &SpmAssignment::of(["tab"])).unwrap_err();
        assert!(
            matches!(err, CcError::Isa(IsaError::RegionOverflow { .. })),
            "{err}"
        );
    }

    #[test]
    fn missing_main_rejected() {
        let m = compile("int f() { return 1; }").unwrap();
        assert!(link(&m, &MemoryMap::no_spm(), &SpmAssignment::none()).is_err());
    }

    #[test]
    fn unknown_assignment_rejected() {
        let m = compile(SRC).unwrap();
        let err = link(&m, &MemoryMap::with_spm(64), &SpmAssignment::of(["ghost"])).unwrap_err();
        assert!(matches!(err, CcError::Isa(IsaError::UndefinedSymbol(_))));
    }

    #[test]
    fn access_annotations_generated() {
        let m = compile(SRC).unwrap();
        let l = link(&m, &MemoryMap::no_spm(), &SpmAssignment::none()).unwrap();
        let tab = l.exe.symbol("tab").unwrap();
        // At least one range annotation covering tab (the loop access).
        let has_range = l.annotations.accesses().any(|a| {
            matches!(a.addr, AddrInfo::Range { lo, hi } if lo == tab.addr && hi == tab.addr + 32)
        });
        assert!(has_range);
        // And an exact annotation for the scalar `acc`.
        let acc = l.exe.symbol("acc").unwrap();
        let has_exact = l
            .annotations
            .accesses()
            .any(|a| matches!(a.addr, AddrInfo::Exact(x) if x == acc.addr));
        assert!(has_exact);
    }

    #[test]
    fn symbols_sorted_and_disjoint() {
        let m = compile(SRC).unwrap();
        let l = link(&m, &MemoryMap::with_spm(2048), &SpmAssignment::of(["tab"])).unwrap();
        let syms = &l.exe.symbols;
        for w in syms.windows(2) {
            assert!(
                w[0].addr + w[0].size <= w[1].addr,
                "{:?} overlaps {:?}",
                w[0],
                w[1]
            );
        }
    }
}
