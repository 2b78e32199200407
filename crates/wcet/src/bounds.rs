//! Loop bounds: annotations first, automatic detection of counted loops as
//! a fallback — mirroring aiT, which detects many loops automatically and
//! asks the user to annotate the rest.

use crate::cfg::FuncCfg;
use crate::loops::NaturalLoop;
use crate::WcetError;
use spmlab_isa::annot::AnnotationSet;
use spmlab_isa::cond::Cond;
use spmlab_isa::insn::Insn;
use std::collections::BTreeMap;

/// Resolves a bound for every loop.
///
/// # Errors
///
/// [`WcetError::UnboundedLoop`] when neither an annotation nor the
/// auto-detector provides a bound.
pub fn loop_bounds(
    cfg: &FuncCfg,
    loops: &[NaturalLoop],
    annotations: &AnnotationSet,
) -> Result<BTreeMap<u32, u32>, WcetError> {
    let mut out = BTreeMap::new();
    for l in loops {
        let bound = annotations
            .loop_bound(l.header)
            .or_else(|| auto_bound(cfg, l))
            .ok_or(WcetError::UnboundedLoop {
                func: cfg.name.clone(),
                header: l.header,
            })?;
        out.insert(l.header, bound);
    }
    Ok(out)
}

/// Tries to derive a bound for a compiler-idiom counted loop whose counter
/// lives in a stack slot (the MiniC code generator keeps all locals
/// SP-relative):
///
/// ```text
/// header:    ldr rd, [sp, #slot] ; cmp rd, #limit ; b<cond> exit
/// body:      exactly one  ldr rt,[sp,#slot] ; adds/subs rt,#step ; str rt,[sp,#slot]
/// preheader: ... movs rs, #init ; str rs, [sp, #slot]   (last slot write)
/// ```
///
/// Returns the maximum number of back-edge executions, or `None` when the
/// pattern does not apply (data-dependent loops need annotations).
pub fn auto_bound(cfg: &FuncCfg, l: &NaturalLoop) -> Option<u32> {
    if l.back_edges.len() != 1 || l.entry_edges.len() != 1 {
        return None;
    }
    let header = &cfg.blocks[&l.header];
    let n = header.insns.len();
    if n < 3 {
        return None;
    }
    // header tail: LdrSp rd,#slot ; CmpImm rd,#limit ; BCond.
    let (_, load) = &header.insns[n - 3];
    let (_, cmp) = &header.insns[n - 2];
    let (br_addr, br) = &header.insns[n - 1];
    let (rd0, slot) = match load {
        Insn::LdrSp { rd, imm } => (*rd, *imm),
        _ => return None,
    };
    let (rd, limit) = match cmp {
        Insn::CmpImm { rd, imm } if *rd == rd0 => (*rd, *imm as i64),
        _ => return None,
    };
    let _ = rd;
    // `cond` becomes the condition under which the loop EXITS at the header.
    let cond = match br {
        Insn::BCond { cond, off } => {
            let taken = br_addr.wrapping_add(4).wrapping_add(*off as u32);
            let fall = header.end();
            match (!l.body.contains(&taken), !l.body.contains(&fall)) {
                (true, false) => *cond,
                (false, true) => cond.invert(),
                _ => return None,
            }
        }
        _ => return None,
    };

    // Exactly one in-loop store to the slot, in the canonical
    // load/add/store triple.
    let mut step: Option<i64> = None;
    for b in l.body.iter().map(|a| &cfg.blocks[a]) {
        let insns = &b.insns;
        for (i, (_, insn)) in insns.iter().enumerate() {
            let Insn::StrSp { rd: rs, imm } = insn else {
                continue;
            };
            if *imm != slot {
                continue;
            }
            if step.is_some() || i < 2 {
                return None; // Second writer, or no preceding update.
            }
            let (_, upd) = &insns[i - 1];
            let (_, ld) = &insns[i - 2];
            match (ld, upd) {
                (Insn::LdrSp { rd: rl, imm: li }, Insn::AddImm { rd: ru, imm: st })
                    if rl == rs && ru == rs && *li == slot =>
                {
                    step = Some(*st as i64)
                }
                (Insn::LdrSp { rd: rl, imm: li }, Insn::SubImm { rd: ru, imm: st })
                    if rl == rs && ru == rs && *li == slot =>
                {
                    step = Some(-(*st as i64))
                }
                _ => return None,
            }
        }
    }
    let step = step?;
    if step == 0 {
        return None;
    }

    // Initial value: last slot write in the (single) entry predecessor must
    // be `movs rs,#init ; str rs,[sp,#slot]`.
    let (pre, _) = l.entry_edges[0];
    let pre_insns = &cfg.blocks[&pre].insns;
    let mut init: Option<i64> = None;
    for (i, (_, insn)) in pre_insns.iter().enumerate() {
        let Insn::StrSp { rd: rs, imm } = insn else {
            continue;
        };
        if *imm != slot {
            continue;
        }
        init = match i.checked_sub(1).map(|j| &pre_insns[j].1) {
            Some(Insn::MovImm { rd, imm }) if rd == rs => Some(*imm as i64),
            _ => None,
        };
    }
    let init = init?;

    iterations(init, limit, step, cond)
}

/// Maximum body executions of `for (i = init; !(exit at i cmp limit); i += step)`,
/// where `cond` is the exit condition evaluated as `i cond limit`.
fn iterations(init: i64, limit: i64, step: i64, cond: Cond) -> Option<u32> {
    let ceil_div = |num: i64, den: i64| (num + den - 1) / den;
    let count = match (cond, step > 0) {
        // while (i < limit) i += step  — exits when i >= limit.
        (Cond::Ge, true) => ceil_div((limit - init).max(0), step),
        // while (i <= limit) i += step — exits when i > limit.
        (Cond::Gt, true) => ((limit - init) / step + 1).max(0),
        // while (i != limit) i += step — exits when i == limit.
        (Cond::Eq, true) => {
            let d = limit - init;
            if d >= 0 && d % step == 0 {
                d / step
            } else {
                return None;
            }
        }
        // while (i > limit) i -= step — exits when i <= limit.
        (Cond::Le, false) => ceil_div((init - limit).max(0), -step),
        // while (i >= limit) i -= step — exits when i < limit.
        (Cond::Lt, false) => ((init - limit) / -step + 1).max(0),
        (Cond::Eq, false) => {
            let d = init - limit;
            if d >= 0 && d % -step == 0 {
                d / -step
            } else {
                return None;
            }
        }
        _ => return None,
    };
    u32::try_from(count).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmlab_cc::{compile, link, SpmAssignment};
    use spmlab_isa::mem::MemoryMap;

    fn setup(src: &str, func: &str) -> (FuncCfg, Vec<NaturalLoop>, AnnotationSet) {
        let l = link(
            &compile(src).unwrap(),
            &MemoryMap::no_spm(),
            &SpmAssignment::none(),
        )
        .unwrap();
        let cfg = crate::cfg::build_cfg(&l.exe, l.exe.symbol(func).unwrap()).unwrap();
        let loops = crate::loops::natural_loops(&cfg).unwrap();
        (cfg, loops, l.annotations)
    }

    #[test]
    fn annotation_bound_used() {
        // The detector derives 7 for this counted loop; the annotation
        // takes precedence.
        let (cfg, loops, ann) = setup(
            "int x; void main() { int i; for (i = 0; i < 7; i = i + 1) { __loopbound(9); x = x + 1; } }",
            "main",
        );
        assert_eq!(auto_bound(&cfg, &loops[0]), Some(7));
        let bounds = loop_bounds(&cfg, &loops, &ann).unwrap();
        assert_eq!(bounds.values().copied().collect::<Vec<_>>(), vec![9]);
    }

    #[test]
    fn auto_detects_up_counting_loop() {
        // No __loopbound: rely on the detector.
        let (cfg, loops, ann) = setup(
            "int x; void main() { int i; for (i = 0; i < 12; i = i + 1) { x = x + 1; } }",
            "main",
        );
        let bounds = loop_bounds(&cfg, &loops, &ann).unwrap();
        assert_eq!(bounds.values().copied().collect::<Vec<_>>(), vec![12]);
    }

    #[test]
    fn auto_detects_le_and_step() {
        let (cfg, loops, _) = setup(
            "int x; void main() { int i; for (i = 2; i <= 20; i = i + 3) { x = x + 1; } }",
            "main",
        );
        // i = 2,5,8,11,14,17,20 → 7 iterations.
        assert_eq!(auto_bound(&cfg, &loops[0]), Some(7));
    }

    #[test]
    fn auto_detects_down_counting_loop() {
        let (cfg, loops, _) = setup(
            "int x; void main() { int i; for (i = 10; i > 0; i = i - 1) { x = x + 1; } }",
            "main",
        );
        assert_eq!(auto_bound(&cfg, &loops[0]), Some(10));
    }

    #[test]
    fn data_dependent_loop_needs_annotation() {
        let (cfg, loops, ann) = setup(
            "int n; int x; void main() { int i; for (i = 0; i < n; i = i + 1) { __loopbound(99); x = x + 1; } }",
            "main",
        );
        // Auto fails (limit is a load, compare is register-register), but
        // the annotation provides 99.
        assert_eq!(auto_bound(&cfg, &loops[0]), None);
        let bounds = loop_bounds(&cfg, &loops, &ann).unwrap();
        assert_eq!(bounds.values().copied().collect::<Vec<_>>(), vec![99]);
    }

    #[test]
    fn unbounded_loop_reported() {
        let (cfg, loops, ann) = setup(
            "int n; int x; void main() { int i; for (i = 0; i < n; i = i + 1) { x = x + 1; } }",
            "main",
        );
        let err = loop_bounds(&cfg, &loops, &ann).unwrap_err();
        assert!(matches!(err, WcetError::UnboundedLoop { .. }));
    }

    #[test]
    fn iteration_math() {
        use Cond::*;
        assert_eq!(iterations(0, 10, 1, Ge), Some(10));
        assert_eq!(iterations(0, 10, 3, Ge), Some(4)); // 0,3,6,9
        assert_eq!(iterations(0, 10, 1, Gt), Some(11)); // i<=10
        assert_eq!(iterations(0, 10, 1, Eq), Some(10)); // i!=10
        assert_eq!(iterations(0, 10, 3, Eq), None); // never hits 10
        assert_eq!(iterations(10, 0, -1, Le), Some(10)); // i>0
        assert_eq!(iterations(10, 0, -1, Lt), Some(11)); // i>=0
        assert_eq!(iterations(5, 10, -1, Le), Some(0), "starts below");
        assert_eq!(iterations(20, 10, 1, Ge), Some(0), "starts past limit");
    }
}
