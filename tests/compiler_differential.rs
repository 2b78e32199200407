//! Differential fuzzing of the whole toolchain: random MiniC programs are
//! executed twice — interpreted on the AST (the reference semantics) and
//! compiled → linked → simulated on TH16 — and every global must end up
//! identical. This hunts miscompilations in codegen, the assembler, the
//! linker and the simulator at once.

use proptest::prelude::*;
use spmlab_cc::ast::{BinOp, Expr, Func, Global, Program, Stmt, Type, UnOp};
use spmlab_cc::interp::{run_checked, InterpError};
use spmlab_cc::sema::check;
use spmlab_cc::{codegen, link, Pos, SpmAssignment};
use spmlab_isa::mem::MemoryMap;
use spmlab_sim::{simulate, MachineConfig, SimOptions};

fn pos() -> Pos {
    Pos { line: 1, col: 1 }
}

fn num(v: i64) -> Expr {
    Expr::Num {
        value: v,
        pos: pos(),
    }
}

fn var(name: &str) -> Expr {
    Expr::Var {
        name: name.into(),
        pos: pos(),
    }
}

/// Variables readable in generated expressions.
const SCALARS: [&str; 4] = ["g0", "g1", "g2", "g3"];
const LOCALS: [&str; 2] = ["x0", "x1"];
const ARRAYS: [(&str, u32); 2] = [("arr", 8), ("sarr", 8)];

fn leaf_strategy() -> impl Strategy<Value = Expr> {
    prop_oneof![
        (-1000i64..1000).prop_map(num),
        prop_oneof![
            Just(num(0)),
            Just(num(1)),
            Just(num(255)),
            Just(num(256)),
            Just(num(i32::MAX as i64)),
            Just(num(i32::MIN as i64)),
            Just(num(0x7FFF)),
            Just(num(-32768)),
        ],
        prop::sample::select(&SCALARS[..]).prop_map(var),
        prop::sample::select(&LOCALS[..]).prop_map(var),
    ]
}

fn binop_strategy() -> impl Strategy<Value = BinOp> {
    prop_oneof![
        Just(BinOp::Add),
        Just(BinOp::Sub),
        Just(BinOp::Mul),
        Just(BinOp::Div),
        Just(BinOp::Rem),
        Just(BinOp::And),
        Just(BinOp::Or),
        Just(BinOp::Xor),
        Just(BinOp::Shl),
        Just(BinOp::Shr),
        Just(BinOp::Eq),
        Just(BinOp::Ne),
        Just(BinOp::Lt),
        Just(BinOp::Le),
        Just(BinOp::Gt),
        Just(BinOp::Ge),
        Just(BinOp::LogAnd),
        Just(BinOp::LogOr),
    ]
}

fn expr_strategy() -> impl Strategy<Value = Expr> {
    leaf_strategy().prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            (binop_strategy(), inner.clone(), inner.clone()).prop_map(|(op, l, r)| Expr::Bin {
                op,
                lhs: Box::new(l),
                rhs: Box::new(r),
                pos: pos(),
            }),
            (
                prop_oneof![Just(UnOp::Neg), Just(UnOp::Not), Just(UnOp::BitNot)],
                inner.clone()
            )
                .prop_map(|(op, e)| Expr::Un {
                    op,
                    operand: Box::new(e),
                    pos: pos()
                }),
            // Masked array read: always in bounds.
            (prop::sample::select(&ARRAYS[..]), inner.clone()).prop_map(|((name, len), e)| {
                Expr::Index {
                    name: name.into(),
                    index: Box::new(Expr::Bin {
                        op: BinOp::And,
                        lhs: Box::new(e),
                        rhs: Box::new(num(len as i64 - 1)),
                        pos: pos(),
                    }),
                    pos: pos(),
                }
            }),
            // Helper call.
            (inner.clone(), inner).prop_map(|(a, b)| Expr::Call {
                name: "helper".into(),
                args: vec![a, b],
                pos: pos(),
            }),
        ]
    })
}

fn assign_target_strategy() -> impl Strategy<Value = Expr> {
    prop_oneof![
        prop::sample::select(&SCALARS[..]).prop_map(var),
        prop::sample::select(&LOCALS[..]).prop_map(var),
        (prop::sample::select(&ARRAYS[..]), leaf_strategy()).prop_map(|((name, len), e)| {
            Expr::Index {
                name: name.into(),
                index: Box::new(Expr::Bin {
                    op: BinOp::And,
                    lhs: Box::new(e),
                    rhs: Box::new(num(len as i64 - 1)),
                    pos: pos(),
                }),
                pos: pos(),
            }
        }),
    ]
}

fn stmt_strategy(loop_depth: u32) -> BoxedStrategy<Stmt> {
    let assign = (assign_target_strategy(), expr_strategy()).prop_map(|(t, v)| {
        Stmt::Expr(Expr::Assign {
            lhs: Box::new(t),
            rhs: Box::new(v),
            pos: pos(),
        })
    });
    if loop_depth >= 2 {
        return assign.boxed();
    }
    let nested = move || prop::collection::vec(stmt_strategy(loop_depth + 1), 1..4);
    prop_oneof![
        4 => assign,
        2 => (expr_strategy(), nested(), nested()).prop_map(|(c, t, e)| Stmt::If {
            cond: c,
            then: t,
            else_: e,
            pos: pos(),
        }),
        1 => (1i64..6, nested()).prop_map(move |(count, mut body)| {
            // for (iK = 0; iK < count; iK = iK + 1) with its own counter
            // per nesting level so nested loops never clobber each other.
            let ctr = format!("i{loop_depth}");
            body.insert(0, Stmt::LoopBound { bound: count as u32, pos: pos() });
            Stmt::For {
                init: Some(Box::new(Stmt::Expr(Expr::Assign {
                    lhs: Box::new(var(&ctr)),
                    rhs: Box::new(num(0)),
                    pos: pos(),
                }))),
                cond: Some(Expr::Bin {
                    op: BinOp::Lt,
                    lhs: Box::new(var(&ctr)),
                    rhs: Box::new(num(count)),
                    pos: pos(),
                }),
                step: Some(Expr::Assign {
                    lhs: Box::new(var(&ctr)),
                    rhs: Box::new(Expr::Bin {
                        op: BinOp::Add,
                        lhs: Box::new(var(&ctr)),
                        rhs: Box::new(num(1)),
                        pos: pos(),
                    }),
                    pos: pos(),
                }),
                body,
                pos: pos(),
            }
        }),
    ]
    .boxed()
}

fn program_strategy() -> impl Strategy<Value = Program> {
    let globals_init = prop::collection::vec(-300i64..300, 8);
    (
        globals_init,
        expr_strategy(),
        prop::collection::vec(stmt_strategy(0), 1..10),
    )
        .prop_map(|(ginit, helper_body, main_stmts)| {
            let globals = vec![
                Global {
                    name: "g0".into(),
                    ty: Type::Int,
                    array_len: None,
                    init: vec![ginit[0]],
                    pos: pos(),
                },
                Global {
                    name: "g1".into(),
                    ty: Type::Int,
                    array_len: None,
                    init: vec![ginit[1]],
                    pos: pos(),
                },
                Global {
                    name: "g2".into(),
                    ty: Type::Short,
                    array_len: None,
                    init: vec![ginit[2]],
                    pos: pos(),
                },
                Global {
                    name: "g3".into(),
                    ty: Type::Char,
                    array_len: None,
                    init: vec![ginit[3]],
                    pos: pos(),
                },
                Global {
                    name: "arr".into(),
                    ty: Type::Int,
                    array_len: Some(8),
                    init: ginit[..4].to_vec(),
                    pos: pos(),
                },
                Global {
                    name: "sarr".into(),
                    ty: Type::Short,
                    array_len: Some(8),
                    init: ginit[4..].to_vec(),
                    pos: pos(),
                },
            ];
            // helper may reference locals x0/x1 names? Restrict: replace
            // local references by parameters via a simple param binding.
            let helper = Func {
                name: "helper".into(),
                ret: Type::Int,
                params: vec![("x0".into(), Type::Int), ("x1".into(), Type::Int)],
                body: vec![Stmt::Return {
                    value: Some(helper_body),
                    pos: pos(),
                }],
                pos: pos(),
            };
            let mut body = vec![
                Stmt::Decl {
                    name: "x0".into(),
                    ty: Type::Int,
                    init: Some(num(3)),
                    pos: pos(),
                },
                Stmt::Decl {
                    name: "x1".into(),
                    ty: Type::Int,
                    init: Some(num(-7)),
                    pos: pos(),
                },
                Stmt::Decl {
                    name: "i0".into(),
                    ty: Type::Int,
                    init: Some(num(0)),
                    pos: pos(),
                },
                Stmt::Decl {
                    name: "i1".into(),
                    ty: Type::Int,
                    init: Some(num(0)),
                    pos: pos(),
                },
            ];
            body.extend(main_stmts);
            let main = Func {
                name: "main".into(),
                ret: Type::Void,
                params: vec![],
                body,
                pos: pos(),
            };
            Program {
                globals,
                funcs: vec![helper, main],
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 192,
        max_shrink_iters: 2048,
        .. ProptestConfig::default()
    })]

    #[test]
    fn compiled_code_matches_interpreter(program in program_strategy()) {
        // Reference semantics on the AST.
        let typed = match check(&program) {
            Ok(t) => t,
            // The generator can produce e.g. constant OOB indices after
            // folding; such programs are simply skipped.
            Err(_) => return Ok(()),
        };
        let reference = match run_checked(&typed, 2_000_000) {
            Ok(o) => o,
            Err(InterpError::StepLimit | InterpError::CallDepth) => return Ok(()),
            Err(InterpError::OutOfBounds { .. }) => return Ok(()),
            Err(e) => return Err(TestCaseError::fail(format!("interp: {e}"))),
        };

        // Compiled semantics on the simulated target.
        let module = codegen::generate(&typed)
            .map_err(|e| TestCaseError::fail(format!("codegen: {e}")))?;
        let linked = link(&module, &MemoryMap::no_spm(), &SpmAssignment::none())
            .map_err(|e| TestCaseError::fail(format!("link: {e}")))?;
        let sim = simulate(&linked.exe, &MachineConfig::uncached(), &SimOptions::default())
            .map_err(|e| TestCaseError::fail(format!("simulate: {e}")))?;

        // Every global must agree, element by element.
        for g in &program.globals {
            let len = g.array_len.unwrap_or(1);
            let expected = &reference.globals[&g.name];
            for i in 0..len {
                let got = sim.read_global_at(&linked.exe, &g.name, i)
                    .expect("global readable");
                prop_assert_eq!(
                    got,
                    expected[i as usize],
                    "global {}[{}] differs: target {} vs interpreter {}",
                    &g.name, i, got, expected[i as usize]
                );
            }
        }
    }
}

// =====================================================================
// Seeded-generator round-trip: spmlab-workloads' MiniC generator feeds
// the same three-way differential — direct AST interpretation vs the
// compiled/simulated image vs the *printed and reparsed* source. The
// printer must be a fixed point and the reparsed program must compile to
// the identical object module and simulate to the identical globals.
// =====================================================================

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn generated_programs_roundtrip_and_simulate_identically(seed in 0u64..500) {
        use spmlab_cc::{parse_source, print};
        use spmlab_workloads::gen::{estimate_steps, generate_for_seed, reference_arch};

        let g = generate_for_seed(seed, &reference_arch());

        // print ∘ parse is a fixed point of the emitted source.
        let reparsed = parse_source(&g.source)
            .map_err(|e| TestCaseError::fail(format!("seed {seed}: reparse: {e}")))?;
        prop_assert_eq!(
            print(&reparsed), g.source.clone(),
            "seed {}: print ∘ parse is not a fixed point", seed
        );

        // Both ASTs compile to the same object module.
        let typed = check(&g.program)
            .map_err(|e| TestCaseError::fail(format!("seed {seed}: sema(direct): {e}")))?;
        let typed2 = check(&reparsed)
            .map_err(|e| TestCaseError::fail(format!("seed {seed}: sema(reparsed): {e}")))?;
        let m1 = codegen::generate(&typed)
            .map_err(|e| TestCaseError::fail(format!("seed {seed}: codegen: {e}")))?;
        let m2 = codegen::generate(&typed2)
            .map_err(|e| TestCaseError::fail(format!("seed {seed}: codegen(reparsed): {e}")))?;
        prop_assert_eq!(&m1, &m2, "seed {}: reparsed source compiles differently", seed);

        // The interpreted AST and the simulated image agree on every
        // global, element by element.
        let reference = run_checked(&typed, estimate_steps(&g.program) * 4 + 100_000)
            .map_err(|e| TestCaseError::fail(format!("seed {seed}: interp: {e}")))?;
        let linked = link(&m1, &MemoryMap::no_spm(), &SpmAssignment::none())
            .map_err(|e| TestCaseError::fail(format!("seed {seed}: link: {e}")))?;
        let sim = simulate(&linked.exe, &MachineConfig::uncached(), &SimOptions::default())
            .map_err(|e| TestCaseError::fail(format!("seed {seed}: simulate: {e}")))?;
        for (name, vals) in &reference.globals {
            for (i, &expect) in vals.iter().enumerate() {
                let got = sim
                    .read_global_at(&linked.exe, name, i as u32)
                    .unwrap_or_else(|| panic!("seed {seed}: no symbol {name}"));
                prop_assert_eq!(
                    got, expect,
                    "seed {}: global {}[{}] differs (interp {}, sim {})",
                    seed, name, i, expect, got
                );
            }
        }
    }
}

// =====================================================================
// Frame-offset limit: `LdrSp`/`StrSp` address a local in 8 bits of words,
// and words spilled during nested evaluation count against it. A local
// past the limit is a compile error, never a wrapped (wrong) offset.
// =====================================================================

/// `main` with `n` locals `vK = K + 1` and the right spine of nine additions
/// `out = v0 + (v0 + … + (v0 + v{n-1}))`, whose last operand is read with
/// words spilled below the frame.
fn deep_frame_source(n: usize) -> String {
    let mut src = String::from("int out;\nvoid main() {\n");
    for k in 0..n {
        src.push_str(&format!("  int v{k} = {};\n", k + 1));
    }
    let last = n - 1;
    src.push_str(&format!(
        "  out = v0 + (v0 + (v0 + (v0 + (v0 + (v0 + (v0 + (v0 + (v0 + v{last}))))))));\n}}\n"
    ));
    src
}

#[test]
fn local_offset_past_255_words_is_a_sema_error() {
    let err = spmlab_cc::compile(&deep_frame_source(255)).expect_err("offset past 8 bits");
    match err {
        spmlab_cc::CcError::Sema { msg, .. } => {
            assert_eq!(
                msg,
                "`main` addresses a local at stack offset 258 words; MiniC allows 255"
            );
        }
        other => panic!("expected a sema error, got {other:?}"),
    }
}

#[test]
fn deep_frame_within_255_words_compiles_and_simulates() {
    let module = spmlab_cc::compile(&deep_frame_source(240)).expect("compiles");
    let linked = link(&module, &MemoryMap::no_spm(), &SpmAssignment::none()).expect("links");
    let sim = simulate(
        &linked.exe,
        &MachineConfig::uncached(),
        &SimOptions::default(),
    )
    .expect("simulates");
    assert_eq!(sim.read_global(&linked.exe, "out"), Some(9 + 240));
}
