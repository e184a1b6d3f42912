//! The seven NAS-like applications (BT, CG, FT, IS, LU, MG, SP).
//!
//! Each module rebuilds one solver's codelet population and invocation
//! schedule. The decomposition yields **67 extractable codelets** across
//! the suite, plus non-extractable residue loops (CF cannot outline
//! everything; detected codelets cover ~92 % of time, §3.1). Key paper
//! artefacts are wired in:
//!
//! * `BT/rhs.f:266-311` and `SP/rhs.f:275-320` — the memory-bound
//!   three-point stencils on five planes of the §4.4 case study
//!   (cluster B).
//! * `LU/erhs.f:49-57` and `FT/appft.f:45-47` — the triple-nested
//!   divide+exponential compute-bound twins (cluster A).
//! * `CG/cg.f:556-564` — the sparse matvec responsible for 95 % of CG's
//!   time, well-behaved on the reference but cache-state-sensitive on
//!   Atom.
//! * MG codelets run on several grid levels (multiple invocation
//!   contexts), making them ill-behaved under extraction — which is why
//!   the paper's per-application subsetting cannot predict MG.
//! * A few codelets are compilation-fragile (vectorize differently inside
//!   and outside the application), the second source of ill-behaviour.

mod bt;
mod cg;
mod ft;
mod is;
mod lu;
mod mg;
mod sp;

use fgbs_extract::Application;
use fgbs_isa::{AffineExpr, BinOp, Codelet, CodeletBuilder, Precision};

use crate::common::Class;

/// The NAS application names, suite order.
pub const NAS_APPS: [&str; 7] = ["bt", "cg", "ft", "is", "lu", "mg", "sp"];

/// Build the full NAS-like suite.
pub fn nas_suite(class: Class) -> Vec<Application> {
    vec![
        bt::build(class),
        cg::build(class),
        ft::build(class),
        is::build(class),
        lu::build(class),
        mg::build(class),
        sp::build(class),
    ]
}

/// Build one NAS application by name (`bt`, `cg`, `ft`, `is`, `lu`, `mg`,
/// `sp`).
///
/// # Panics
///
/// Panics on an unknown name.
pub fn nas_app(name: &str, class: Class) -> Application {
    match name {
        "bt" => bt::build(class),
        "cg" => cg::build(class),
        "ft" => ft::build(class),
        "is" => is::build(class),
        "lu" => lu::build(class),
        "mg" => mg::build(class),
        "sp" => sp::build(class),
        other => panic!("unknown NAS application `{other}`"),
    }
}

// ---------------------------------------------------------------------
// Shared kernel shapes.
// ---------------------------------------------------------------------

/// Three-point stencil over five planes (the cluster-B shape): one output
/// plane computed from five neighbouring points of a solution plane.
/// Arrays: out, u — `side × side` f64 each; the pair is sized to fit the
/// (scaled) Nehalem and Sandy Bridge last-level caches but not Core 2's
/// L2 (§4.4's memory-bound cluster B).
pub(crate) fn stencil5(app: &str, name: &str, file: &str, l0: u32, l1: u32) -> Codelet {
    CodeletBuilder::new(name, app)
        .source(file, l0, l1)
        .pattern("DP: three-point stencil on five planes")
        .array("out", Precision::F64)
        .array("u", Precision::F64)
        .param_loop("i")
        .param_loop("j")
        .store_at(
            "out",
            vec![AffineExpr::lda(1), AffineExpr::lit(1)],
            AffineExpr::new(1, 1),
            |b| {
                let s = vec![AffineExpr::lda(1), AffineExpr::lit(1)];
                let w = b.load_expr("u", s.clone(), AffineExpr::new(0, 1));
                let c = b.load_expr("u", s.clone(), AffineExpr::new(1, 1));
                let e = b.load_expr("u", s.clone(), AffineExpr::new(2, 1));
                let n = b.load_expr("u", s.clone(), AffineExpr::new(1, 2));
                let so = b.load_expr("u", s, AffineExpr::new(1, 0));
                (w - c * 2.0 + e) * 0.8 + (n - so) * 0.15
            },
        )
        .build()
}

/// Triple-nested divide+exponential cube (the cluster-A shape).
pub(crate) fn compute_cube(app: &str, name: &str, file: &str, l0: u32, l1: u32) -> Codelet {
    CodeletBuilder::new(name, app)
        .source(file, l0, l1)
        .pattern("DP: triple-nested high-latency divide/exponential")
        .array("q", Precision::F64)
        .array("u", Precision::F64)
        .array("v", Precision::F64)
        .param_loop("i")
        .param_loop("j")
        .param_loop("k")
        .store_at(
            "q",
            vec![AffineExpr::lda(1), AffineExpr::lit(8), AffineExpr::lit(1)],
            AffineExpr::zero(),
            |b| {
                let s = vec![AffineExpr::lda(1), AffineExpr::lit(8), AffineExpr::lit(1)];
                let x = b.load_expr("u", s.clone(), AffineExpr::zero());
                let y = b.load_expr("v", s, AffineExpr::zero());
                let (x2, y2) = (x.clone(), y.clone());
                (x / y).exp() * 0.01 + x2 / (y2 + 3.0)
            },
        )
        .build()
}

/// `y[i] = a*x[i] + y[i]` (vectorizable stream).
pub(crate) fn axpy(app: &str, name: &str, a: f64) -> Codelet {
    CodeletBuilder::new(name, app)
        .pattern("DP: vector triad")
        .array("x", Precision::F64)
        .array("y", Precision::F64)
        .param_loop("n")
        .store("y", &[1], move |b| b.load("x", &[1]) * a + b.load("y", &[1]))
        .build()
}

/// Sum-of-squares reduction (vectorizable).
pub(crate) fn norm2(app: &str, name: &str) -> Codelet {
    CodeletBuilder::new(name, app)
        .pattern("DP: sum of squares reduction")
        .array("x", Precision::F64)
        .param_loop("n")
        .update_acc("s", BinOp::Add, |b| {
            let v = b.load("x", &[1]);
            let w = b.load("x", &[1]);
            v * w
        })
        .build()
}

/// Set a vector to a constant (store-only stream).
pub(crate) fn fill(app: &str, name: &str, v: f64) -> Codelet {
    CodeletBuilder::new(name, app)
        .pattern("DP: set to constant")
        .array("x", Precision::F64)
        .param_loop("n")
        .store("x", &[1], move |b| b.constant(v))
        .build()
}

/// Element-wise multiply of two streams into a third.
pub(crate) fn vmul(app: &str, name: &str) -> Codelet {
    CodeletBuilder::new(name, app)
        .pattern("DP: vector multiply element wise")
        .array("a", Precision::F64)
        .array("b", Precision::F64)
        .array("c", Precision::F64)
        .param_loop("n")
        .store("c", &[1], |bd| bd.load("a", &[1]) * bd.load("b", &[1]))
        .build()
}

/// First-order recurrence sweep (forward substitution shape).
pub(crate) fn sweep(app: &str, name: &str, coeff: f64) -> Codelet {
    CodeletBuilder::new(name, app)
        .pattern("DP: first order recurrence sweep")
        .array("v", Precision::F64)
        .array("r", Precision::F64)
        .param_loop("n")
        .store_at("v", vec![AffineExpr::lit(1)], AffineExpr::lit(1), move |b| {
            let prev = b.load("v", &[1]);
            b.load_off("r", &[1], 1) - prev * coeff
        })
        .build()
}

/// A generic flux-difference kernel: out[i] = (u[i+1]-u[i-1])*c1 +
/// u[i]*c2 (vectorizable, reads one array thrice).
pub(crate) fn flux(app: &str, name: &str, c1: f64, c2: f64) -> Codelet {
    CodeletBuilder::new(name, app)
        .pattern("DP: flux difference")
        .array("out", Precision::F64)
        .array("u", Precision::F64)
        .param_loop("n")
        .store_at("out", vec![AffineExpr::lit(1)], AffineExpr::lit(1), move |b| {
            let e = b.load_off("u", &[1], 2);
            let w = b.load_off("u", &[1], 0);
            let c = b.load_off("u", &[1], 1);
            (e - w) * c1 + c * c2
        })
        .build()
}

/// Helper re-exported to app modules.
pub(crate) use crate::common::Alloc;

#[cfg(test)]
mod tests {
    use super::*;
    use fgbs_isa::{carried_dependence, compile, CompileMode, Fragility, TargetSpec, VOp};

    fn find<'a>(app: &'a Application, needle: &str) -> &'a Codelet {
        app.codelets
            .iter()
            .find(|c| c.name.contains(needle))
            .unwrap_or_else(|| panic!("{} not found in {}", needle, app.name))
    }

    #[test]
    fn per_app_codelet_counts() {
        let counts: Vec<(String, usize)> = nas_suite(Class::Test)
            .iter()
            .map(|a| (a.name.clone(), a.extractable().len()))
            .collect();
        let expect = [
            ("bt", 14),
            ("cg", 6),
            ("ft", 8),
            ("is", 6),
            ("lu", 11),
            ("mg", 8),
            ("sp", 14),
        ];
        for ((name, n), (en, ec)) in counts.iter().zip(expect) {
            assert_eq!(name, en);
            assert_eq!(*n, ec, "{name} codelet count");
        }
    }

    #[test]
    fn cluster_twins_share_their_shape() {
        let suite = nas_suite(Class::Test);
        let bt = &suite[0];
        let sp = &suite[6];
        let a = find(bt, "rhs.f:266-311");
        let b = find(sp, "rhs.f:275-320");
        // The stencil twins have identical bodies up to naming.
        assert_eq!(a.nest.body.len(), b.nest.body.len());
        assert_eq!(a.stride_summary(), b.stride_summary());

        let lu = &suite[4];
        let ft = &suite[2];
        let c = find(lu, "erhs.f:49-57");
        let d = find(ft, "appft.f:45-47");
        assert_eq!(c.nest.depth(), 3);
        assert_eq!(d.nest.depth(), 3);
        // Both compute cubes contain divides and transcendental calls.
        for cube in [c, d] {
            let k = compile(cube, &TargetSpec::sse128(), CompileMode::InApp);
            assert!(k.count_op(VOp::FDiv) > 0.0, "{}", cube.name);
            assert!(k.count_op(VOp::FCall) > 0.0, "{}", cube.name);
        }
    }

    #[test]
    fn fragile_codelets_are_marked() {
        let suite = nas_suite(Class::Test);
        let cases = [
            (0usize, "x_solve", Fragility::ScalarWhenStandalone),
            (4, "jacld", Fragility::ScalarWhenStandalone),
            (6, "txinvr", Fragility::VectorWhenStandalone),
        ];
        for (app, name, frag) in cases {
            assert_eq!(find(&suite[app], name).fragility, frag, "{name}");
        }
        // And everything else is robust.
        let fragile_total: usize = suite
            .iter()
            .flat_map(|a| &a.codelets)
            .filter(|c| c.fragility != Fragility::Robust)
            .count();
        assert_eq!(fragile_total, 3);
    }

    #[test]
    fn sweeps_are_recurrences() {
        let suite = nas_suite(Class::Test);
        for (app, name) in [(6usize, "x_solve"), (6, "y_solve"), (6, "z_solve"), (4, "blts"), (4, "buts")] {
            let c = find(&suite[app], name);
            assert!(carried_dependence(c), "{} must carry a dependence", c.name);
        }
    }

    #[test]
    fn mg_codelets_are_context_varying() {
        let suite = nas_suite(Class::Test);
        let mg = &suite[5];
        for i in mg.extractable() {
            assert!(
                mg.context_count(i) >= 2,
                "{} must run on several grid levels",
                mg.codelets[i].name
            );
        }
        // The other apps' codelets are single-context, except FT's fftz2.
        let ft = &suite[2];
        let varying: Vec<&str> = ft
            .extractable()
            .into_iter()
            .filter(|&i| ft.context_count(i) >= 2)
            .map(|i| ft.codelets[i].name.as_str())
            .collect();
        assert_eq!(varying, vec!["fftz2.f:55-80"]);
    }

    #[test]
    fn cg_matvec_gathers_and_divides() {
        let suite = nas_suite(Class::Test);
        let cg = &suite[1];
        let mv = find(cg, "cg.f:556-564");
        let k = compile(mv, &TargetSpec::sse128(), CompileMode::InApp);
        assert!(k.count_op(VOp::FDiv) > 0.0, "divide hides reference L3 latency");
        assert!(
            mv.nest.accesses().iter().any(|(a, _)| a.stride_class(2) == "rand"),
            "the gather from p is data-dependent"
        );
        // CG's matvec dominates the schedule time-wise: it runs every round.
        assert!(cg.invocations_of(0) >= cg.rounds);
    }

    #[test]
    fn is_codelets_are_integer() {
        let suite = nas_suite(Class::Test);
        for i in suite[3].extractable() {
            assert_eq!(
                suite[3].codelets[i].precision_label(),
                "INT",
                "{}",
                suite[3].codelets[i].name
            );
        }
    }

    #[test]
    fn shared_state_vectors_overlap_within_apps() {
        // BT's flux kernels read the same shared `u` vector.
        let suite = nas_suite(Class::Test);
        let bt = &suite[0];
        let fx = bt
            .codelets
            .iter()
            .position(|c| c.name == "rhs.f:22-57x")
            .unwrap();
        let fy = bt
            .codelets
            .iter()
            .position(|c| c.name == "rhs.f:62-97y")
            .unwrap();
        let ux = bt.contexts[fx][0].arrays[1].base;
        let uy = bt.contexts[fy][0].arrays[1].base;
        assert_eq!(ux, uy, "both fluxes stream the same shared u");
        // But their outputs are distinct regions.
        assert_ne!(
            bt.contexts[fx][0].arrays[0].base,
            bt.contexts[fy][0].arrays[0].base
        );
    }

    #[test]
    fn every_nas_codelet_interprets_in_bounds() {
        for app in nas_suite(Class::Test) {
            for (ci, c) in app.codelets.iter().enumerate() {
                for (bi, b) in app.contexts[ci].iter().enumerate() {
                    let mut mem = fgbs_isa::Memory::for_binding(c, b);
                    fgbs_isa::interpret(c, b, &mut mem).unwrap_or_else(|e| {
                        panic!("{}/{} ctx {}: {}", app.name, c.name, bi, e)
                    });
                }
            }
        }
    }

    #[test]
    fn nas_app_lookup_matches_suite() {
        for name in NAS_APPS {
            let a = nas_app(name, Class::Test);
            assert_eq!(a.name, name);
        }
    }

    #[test]
    #[should_panic(expected = "unknown NAS application")]
    fn unknown_app_panics() {
        let _ = nas_app("ep", Class::Test);
    }
}
