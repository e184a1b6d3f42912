//! Parametric micro-architecture simulator.
//!
//! This crate replaces the paper's four physical Intel machines (Table 1:
//! Nehalem L5609 — the reference —, Atom D510, Core 2 E7500 and Sandy
//! Bridge E31240). Each [`Arch`] describes a machine: clock frequency,
//! cache hierarchy, dispatch ports, operation latencies/throughputs,
//! in-order vs out-of-order memory overlap, and hardware prefetcher
//! efficiency.
//!
//! A [`Machine`] executes [`fgbs_isa::CompiledKernel`]s invocation by
//! invocation: every memory access of every innermost iteration is played
//! through a set-associative LRU cache simulator (iterations that stay on
//! the lines just touched are credited as the L1 hits the walk would
//! find), while a port/latency model charges compute cycles. Cache state
//! persists across invocations — so running a whole application's
//! invocation schedule on one machine reproduces in-application cache
//! behaviour, and running an extracted
//! microbenchmark on a fresh machine reproduces the standalone behaviour
//! (including the paper's CG-on-Atom anomaly, where the standalone codelet
//! is faster because the application's cache pressure is not preserved).
//!
//! Hardware counters ([`HwCounters`]) accumulate exactly the events the
//! Likwid substitute in `fgbs-analysis` derives its dynamic features from.
//!
//! # Example
//!
//! ```
//! use fgbs_isa::{CodeletBuilder, Precision, BinOp, BindingBuilder, compile, CompileMode};
//! use fgbs_machine::{Arch, Machine};
//!
//! let c = CodeletBuilder::new("copy", "demo")
//!     .array("src", Precision::F64)
//!     .array("dst", Precision::F64)
//!     .param_loop("n")
//!     .store("dst", &[1], |b| b.load("src", &[1]))
//!     .build();
//! let arch = Arch::nehalem();
//! let k = compile(&c, &arch.target(), CompileMode::InApp);
//! let binding = BindingBuilder::new(0)
//!     .vector(1 << 12, 8).vector(1 << 12, 8).param(1 << 12)
//!     .build_for(&c);
//! let mut m = Machine::new(arch);
//! let meas = m.run(&k, &binding);
//! assert!(meas.cycles > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod arch;
mod cache;
mod counters;
mod exec;
mod stopwatch;
mod timing;

pub use arch::{Arch, CacheLevel, MemorySystem, OpCost, PortMask, LINE, N_PORTS, PARK_SCALE};
pub use cache::{AccessOutcome, CacheSim, Lines};
pub use counters::HwCounters;
pub use exec::{Machine, Measurement};
pub use stopwatch::Stopwatch;
pub use timing::{comp_bounds, CompBounds};
