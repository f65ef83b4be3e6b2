//! # osc-stochastic
//!
//! Stochastic computing (SC) substrate and the electronic ReSC baseline.
//!
//! In SC a real number `p ∈ [0, 1]` is represented by a random bit-stream
//! whose fraction of ones is `p`. Arithmetic then reduces to trivial logic:
//! an AND gate multiplies, a multiplexer computes a scaled addition, and
//! the Bernstein-polynomial ReSC architecture of Qian et al. \[9\] evaluates
//! arbitrary continuous functions. The DATE 2019 paper transposes exactly
//! that architecture to optics, so this crate provides:
//!
//! - [`bitstream::BitStream`] — packed stochastic bit-streams, with a
//!   word-level API (64 cycles per memory pass) that every hot path in
//!   the workspace builds on (see the module docs for the packed layout);
//! - [`lfsr::Lfsr`] — maximal-length linear feedback shift registers, the
//!   conventional SC pseudo-random source;
//! - [`sng`] — stochastic number generators (comparator SNGs over LFSR,
//!   low-discrepancy counter, and true-random sources);
//! - [`polynomial`] / [`bernstein`] — power-form and Bernstein-form
//!   polynomials with exact basis conversion;
//! - [`resc::ReScUnit`] — the electronic ReSC unit (adder + multiplexer +
//!   counter) used as the CMOS baseline (100 MHz in the paper's speedup
//!   comparison);
//! - [`ops`] — elementary SC arithmetic (AND multiply, MUX add, NOT);
//! - [`simd`] — runtime-dispatched SIMD kernels (scalar / AVX2 / AVX-512)
//!   for the lane-blocked hot paths, with `OSC_SIMD` / API overrides;
//! - [`analysis`] — accuracy vs. stream length and fault-injection studies
//!   backing the "error-resilient computing" motivation;
//! - [`gamma`] — the gamma-correction polynomial workload (Section V.C).
//!
//! # Example
//!
//! ```
//! use osc_stochastic::bernstein::BernsteinPoly;
//! use osc_stochastic::resc::ReScUnit;
//! use osc_stochastic::sng::LfsrSng;
//!
//! // The paper's Fig. 1(b) function: f1(x) = 1/4 + 9x/8 - 15x^2/8 + 5x^3/4,
//! // with Bernstein coefficients (2/8, 5/8, 3/8, 6/8).
//! let poly = BernsteinPoly::new(vec![0.25, 0.625, 0.375, 0.75]).unwrap();
//! let unit = ReScUnit::new(poly);
//! let result = unit.evaluate(0.5, 4096, &mut LfsrSng::new(16, 0xACE1).unwrap());
//! assert!((result.estimate - result.exact).abs() < 0.05);
//! ```

// Every unsafe operation sits in its own `unsafe` block with a
// `SAFETY` comment, including inside the `#[target_feature]` kernels.
#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

pub mod analysis;
pub mod bernstein;
pub mod bitstream;
pub mod fsm;
pub mod gamma;
pub mod lfsr;
pub mod ops;
pub mod polynomial;
pub mod resc;
pub mod simd;
pub mod sng;

/// Errors produced by stochastic-computing constructors.
#[derive(Debug, Clone, PartialEq)]
pub enum ScError {
    /// A probability/coefficient left the `[0, 1]` range SC can encode.
    OutOfUnitRange {
        /// Description of the offending quantity.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// Streams participating in one operation have different lengths.
    LengthMismatch {
        /// Length of the first operand.
        left: usize,
        /// Length of the second operand.
        right: usize,
    },
    /// An empty input where at least one element is required.
    Empty(&'static str),
    /// A random-source configuration a generator cannot be built from
    /// (e.g. an unsupported LFSR width). Carried as a message so remote
    /// workers can report the exact rejected configuration instead of
    /// aborting on it.
    InvalidGenerator(String),
}

impl std::fmt::Display for ScError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScError::OutOfUnitRange { what, value } => {
                write!(f, "{what} = {value} is outside [0, 1]")
            }
            ScError::LengthMismatch { left, right } => {
                write!(f, "stream length mismatch: {left} vs {right}")
            }
            ScError::Empty(what) => write!(f, "{what} must not be empty"),
            ScError::InvalidGenerator(msg) => write!(f, "invalid generator config: {msg}"),
        }
    }
}

impl std::error::Error for ScError {}

pub(crate) fn check_unit(what: &'static str, value: f64) -> Result<f64, ScError> {
    if value.is_finite() && (0.0..=1.0).contains(&value) {
        Ok(value)
    } else {
        Err(ScError::OutOfUnitRange { what, value })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert!(ScError::OutOfUnitRange {
            what: "coefficient",
            value: 1.5
        }
        .to_string()
        .contains("outside"));
        assert!(ScError::LengthMismatch { left: 8, right: 16 }
            .to_string()
            .contains("8 vs 16"));
        assert!(ScError::Empty("coefficients").to_string().contains("empty"));
    }

    #[test]
    fn check_unit_bounds() {
        assert!(check_unit("p", 0.0).is_ok());
        assert!(check_unit("p", 1.0).is_ok());
        assert!(check_unit("p", -0.01).is_err());
        assert!(check_unit("p", f64::NAN).is_err());
    }
}
