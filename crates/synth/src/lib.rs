//! Majority synthesis and AQFP legalisation passes.
//!
//! The paper lists "majority synthesis for further performance improvement
//! and automatic buffer/splitter insertion for requirement of AQFP circuits"
//! as contribution (v). This crate implements both halves on top of the
//! [`aqfp_sc_circuit::Netlist`] IR:
//!
//! * **Majority rewriting** ([`optimize`]): constant folding through
//!   AND/OR/MAJ cells (AND = MAJ(a,b,0), OR = MAJ(a,b,1)), majority
//!   simplifications (`MAJ(x,x,y) → x`, `MAJ(x,¬x,y) → y`), double-inverter
//!   elimination, buffer bypassing and structural common-subexpression
//!   elimination. All rules preserve the computed function (property-tested
//!   against exhaustive evaluation).
//! * **Legalisation** ([`legalize()`]): automatic splitter-tree insertion for
//!   every multi-sink node (constants are replicated instead — cheaper and
//!   semantics-preserving; shared RNG cells get splitters so deliberate bit
//!   sharing, as in the paper's RNG matrix, is preserved), then buffer
//!   insertion so every gate's inputs arrive at the same clock phase, with
//!   optional primary-output alignment.
//!
//! [`synthesize`] chains the two and reports before/after statistics — the
//! numbers behind the synthesis ablation bench.
//!
//! # Example
//!
//! ```
//! use aqfp_sc_circuit::Netlist;
//! use aqfp_sc_synth::{synthesize, SynthOptions};
//!
//! let mut net = Netlist::new();
//! let a = net.input("a");
//! let b = net.input("b");
//! let zero = net.constant(false);
//! let t = net.maj(a, zero, b);  // = and(a, b)
//! let d = net.buf(t);
//! let y = net.or2(d, a);        // illegal fan-out on `a`, unbalanced inputs
//! net.output("y", y);
//!
//! let result = synthesize(&net, &SynthOptions::default());
//! let legal = result.netlist;
//! assert!(legal.validate().is_ok());
//! // Function preserved: y = (a ∧ b) ∨ a = a.
//! for (a_v, b_v) in [(false, false), (false, true), (true, false), (true, true)] {
//!     assert_eq!(legal.evaluate(&[a_v, b_v], 0), vec![a_v]);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod legalize;
mod rewrite;

pub use legalize::{balance_phases, insert_splitters, legalize, LegalizeOptions};
pub use rewrite::{optimize, OptimizeResult};

use aqfp_sc_circuit::Netlist;

/// Options for the end-to-end [`synthesize`] pipeline.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SynthOptions {
    /// Skip the majority rewriting passes (legalise only).
    pub skip_rewrite: bool,
    /// Legalisation options (splitter width, output alignment).
    pub legalize: LegalizeOptions,
}

/// Before/after statistics of a synthesis run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SynthReport {
    /// Node count before synthesis.
    pub nodes_before: usize,
    /// Node count after synthesis (including inserted splitters/buffers).
    pub nodes_after: usize,
    /// JJ count before synthesis.
    pub jj_before: u64,
    /// JJ count after synthesis.
    pub jj_after: u64,
    /// Pipeline depth (phases) before synthesis.
    pub depth_before: u32,
    /// Pipeline depth (phases) after synthesis.
    pub depth_after: u32,
}

/// Result of [`synthesize`]: the legalised netlist plus statistics.
#[derive(Debug, Clone)]
pub struct SynthResult {
    /// The legalised (structurally valid) netlist.
    pub netlist: Netlist,
    /// Before/after statistics.
    pub report: SynthReport,
}

/// Runs majority rewriting followed by legalisation.
///
/// The output netlist always passes [`Netlist::validate`].
pub fn synthesize(netlist: &Netlist, options: &SynthOptions) -> SynthResult {
    let before = netlist.report();
    let rewritten = if options.skip_rewrite {
        netlist.clone()
    } else {
        optimize(netlist).netlist
    };
    let legal = legalize(&rewritten, &options.legalize);
    let after = legal.report();
    debug_assert!(legal.validate().is_ok(), "legalize produced invalid netlist");
    SynthResult {
        netlist: legal,
        report: SynthReport {
            nodes_before: before.nodes,
            nodes_after: after.nodes,
            jj_before: before.jj_count,
            jj_after: after.jj_count,
            depth_before: before.depth,
            depth_after: after.depth,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthesize_produces_valid_netlists() {
        let mut net = Netlist::new();
        let a = net.input("a");
        let b = net.input("b");
        let c = net.input("c");
        let m1 = net.maj(a, b, c);
        let m2 = net.and2(a, m1); // fan-out on a and m1-path imbalance
        let m3 = net.or2(b, m2);
        net.output("y", m3);
        let result = synthesize(&net, &SynthOptions::default());
        assert!(result.netlist.validate().is_ok());
        assert!(result.report.depth_after >= result.report.depth_before);
    }

    #[test]
    fn rewriting_can_be_disabled() {
        let mut net = Netlist::new();
        let a = net.input("a");
        let one = net.constant(true);
        let y = net.and2(a, one); // folds to a buffer when rewriting
        net.output("y", y);
        let with = synthesize(&net, &SynthOptions::default());
        let without =
            synthesize(&net, &SynthOptions { skip_rewrite: true, ..SynthOptions::default() });
        assert!(with.report.jj_after <= without.report.jj_after);
        assert!(with.netlist.validate().is_ok());
        assert!(without.netlist.validate().is_ok());
    }
}
