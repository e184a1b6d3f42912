//! Codelet detection, extraction and microbenchmark replay.
//!
//! This crate is the Codelet Finder (CF) substitute. It models:
//!
//! * **Applications** ([`Application`]) as a set of codelets plus an
//!   *invocation schedule*: which codelet runs next, under which binding
//!   (dataset), how many times, over how many outer rounds (time steps).
//! * **Profiling runs** ([`run_application`]): executing the full schedule
//!   on one machine with instrumentation probes around every invocation —
//!   the paper's Step B. Cache state flows from one codelet to the next,
//!   exactly as in the original program.
//! * **Detection** ([`CodeletFinder`]): which loops are outlineable and
//!   long enough to measure (the paper discards codelets under a cycle
//!   threshold; CF cannot outline everything — detected codelets cover
//!   ~92 % of NAS time).
//! * **Extraction** ([`MemoryDump`], [`Microbenchmark`]): capturing the
//!   memory of the *first* invocation and replaying the codelet as a
//!   standalone program on a fresh machine, with the invocation-count rule
//!   of Step D (run ≥ 1 ms, ≥ 10 invocations, keep the median).
//! * **Well-behavedness** ([`behaves_well`]): the ±10 % standalone-vs-
//!   in-app check that gates representative selection.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod app;
mod dump;
mod finder;
mod micro;
mod profile;
#[cfg(test)]
mod testapps;
mod wellbehaved;

pub use app::{Application, ApplicationBuilder, ScheduleEntry};
pub use dump::MemoryDump;
pub use finder::{CodeletFinder, Detection};
pub use micro::{MicroResult, Microbenchmark, MIN_INVOCATIONS, MIN_RUN_SECONDS};
pub use profile::{run_application, AppRun, CodeletProfile};
pub use wellbehaved::{behaves_well, relative_difference, WELL_BEHAVED_TOLERANCE};
