//! Applications the settled-replay oracle tests run: the class-test
//! suites and seeded schedules.

use fgbs_isa::{BinOp, Binding, BindingBuilder, Codelet, CodeletBuilder, Precision};

use crate::app::{Application, ScheduleEntry};

/// The class-test NR, NAS and bigdata applications. `fgbs-suites` builds
/// them against this crate's library, not its test build, so each is
/// rebuilt field by field as this build's type.
pub(crate) fn suites() -> Vec<Application> {
    use fgbs_suites::{bigdata_suite, nas_suite, nr_suite, Class};
    [
        nr_suite(Class::Test),
        nas_suite(Class::Test),
        bigdata_suite(Class::Test),
    ]
    .into_iter()
    .flatten()
    .map(|app| Application {
        name: app.name,
        codelets: app.codelets,
        contexts: app.contexts,
        schedule: app
            .schedule
            .into_iter()
            .map(|e| ScheduleEntry {
                codelet: e.codelet,
                context: e.context,
                repeats: e.repeats,
            })
            .collect(),
        rounds: app.rounds,
    })
    .collect()
}

/// Seeded draws from a 64-bit LCG.
pub(crate) struct Draw(pub(crate) u64);

impl Draw {
    /// A draw in `0..n`.
    pub(crate) fn below(&mut self, n: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 11) % n
    }
}

/// A copy, a reduction, a 3-point stencil and a random gather, with the
/// number of arrays each binds.
fn kernels() -> [(Codelet, usize); 4] {
    [
        (
            CodeletBuilder::new("copy", "S")
                .array("s", Precision::F64)
                .array("d", Precision::F64)
                .param_loop("n")
                .store("d", &[1], |b| b.load("s", &[1]))
                .build(),
            2,
        ),
        (
            CodeletBuilder::new("sum", "S")
                .array("x", Precision::F64)
                .param_loop("n")
                .update_acc("s", BinOp::Add, |b| b.load("x", &[1]))
                .build(),
            1,
        ),
        (
            CodeletBuilder::new("stencil", "S")
                .array("x", Precision::F64)
                .array("y", Precision::F64)
                .param_loop("n")
                .store("y", &[1], |b| {
                    b.load("x", &[1]) + b.load_off("x", &[1], 1) + b.load_off("x", &[1], 2)
                })
                .build(),
            2,
        ),
        (
            CodeletBuilder::new("gather", "S")
                .array("x", Precision::F64)
                .array("y", Precision::F64)
                .param_loop("n")
                .store("y", &[1], |b| b.load_random("x", 1 << 12))
                .build(),
            2,
        ),
    ]
}

/// A seeded application over [`kernels`]: each has 1-3 contexts of 64 to
/// 4096 doubles per array at one of four shared bases, so contexts of
/// different kernels overlap, and 1-8 schedule entries, a third of them
/// repeating the previous entry's kernel, run 1-9 times each over 1-9
/// rounds.
pub(crate) fn seeded_app(seed: u64) -> Application {
    let mut g = Draw(seed);
    let (codelets, arrays): (Vec<Codelet>, Vec<usize>) = kernels().into_iter().unzip();
    let contexts: Vec<Vec<Binding>> = codelets
        .iter()
        .zip(&arrays)
        .map(|(c, &n_arrays)| {
            (0..1 + g.below(3))
                .map(|_| {
                    let n = 64 << (2 * g.below(4));
                    let b = (0..n_arrays).fold(BindingBuilder::new(g.below(4) << 18), |b, _| {
                        b.vector(n + 2, 8)
                    });
                    b.param(n).seed(g.below(1 << 32)).build_for(c)
                })
                .collect()
        })
        .collect();
    let mut schedule: Vec<ScheduleEntry> = Vec::new();
    for _ in 0..1 + g.below(8) {
        let codelet = match schedule.last() {
            Some(prev) if g.below(3) == 0 => prev.codelet,
            _ => g.below(codelets.len() as u64) as usize,
        };
        schedule.push(ScheduleEntry {
            codelet,
            context: g.below(contexts[codelet].len() as u64) as usize,
            repeats: 1 + g.below(9),
        });
    }
    Application {
        name: format!("seeded-{seed}"),
        codelets,
        contexts,
        schedule,
        rounds: 1 + g.below(9),
    }
}
