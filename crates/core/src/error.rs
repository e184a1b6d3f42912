//! Typed pipeline errors for the fallible (`try_*`) stage entry points.
//!
//! The infallible entry points ([`crate::reduce`], [`crate::predict`],
//! [`crate::sweep_k`]) keep their panic-free, always-compute contract
//! for batch use. Long-running callers (the serve daemon) use
//! [`crate::try_reduce_cached`], [`crate::try_predict`] and
//! [`crate::try_sweep_k`] instead, which check the request deadline at
//! stage boundaries and validate numeric inputs, so a hostile request
//! degrades into a structured error — a 503 or 500 at the HTTP layer —
//! rather than a hang or a worker panic. Profiling
//! ([`crate::profile_reference`]) has no fallible variant: it always
//! runs to completion, and the daemon memoises it per suite.

use std::fmt;

/// A pipeline stage refused to run (or to keep running).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// The request's deadline expired before (or while) the stage ran.
    DeadlineExceeded {
        /// Stage boundary that observed the expiry.
        stage: &'static str,
    },
    /// A numeric input was NaN, infinite, or a degenerate zero that would
    /// poison downstream ratios (e.g. a zero-time representative).
    NonFinite {
        /// Stage that rejected the input.
        stage: &'static str,
        /// What was non-finite, with enough detail to find it.
        detail: String,
    },
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::DeadlineExceeded { stage } => {
                write!(f, "deadline exceeded at stage `{stage}`")
            }
            PipelineError::NonFinite { stage, detail } => {
                write!(f, "non-finite input at stage `{stage}`: {detail}")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_with_stage_context() {
        let d = PipelineError::DeadlineExceeded { stage: "reduce" };
        assert_eq!(d.to_string(), "deadline exceeded at stage `reduce`");
        let n = PipelineError::NonFinite {
            stage: "predict",
            detail: "codelet `nr/fft` has tref 0".into(),
        };
        assert!(n.to_string().contains("predict"));
        assert!(n.to_string().contains("nr/fft"));
    }
}
