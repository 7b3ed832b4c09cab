use std::borrow::Borrow;

use rand::Rng;

use crate::{BitStream, BitstreamError};

/// Bitwise 3-input majority of three streams — one AQFP MAJ cell per cycle.
///
/// # Errors
///
/// Returns [`BitstreamError::LengthMismatch`] when lengths differ.
///
/// # Example
///
/// ```
/// use aqfp_sc_bitstream::{maj3_streams, BitStream};
///
/// # fn main() -> Result<(), aqfp_sc_bitstream::BitstreamError> {
/// let a = BitStream::from_bits([true, true, false, false]);
/// let b = BitStream::from_bits([true, false, true, false]);
/// let c = BitStream::from_bits([false, true, true, false]);
/// let m: Vec<bool> = maj3_streams(&a, &b, &c)?.iter().collect();
/// assert_eq!(m, [true, true, true, false]);
/// # Ok(())
/// # }
/// ```
pub fn maj3_streams(
    a: &BitStream,
    b: &BitStream,
    c: &BitStream,
) -> Result<BitStream, BitstreamError> {
    let ab = a.and(b)?;
    let ac = a.and(c)?;
    let bc = b.and(c)?;
    ab.or(&ac)?.or(&bc)
}

/// Scaled stochastic addition by an `n`-to-1 multiplexer (paper Fig. 4e).
///
/// Every cycle one input is selected uniformly at random, so the output value
/// is the *mean* of the input values — the `1/n` scaling that motivates the
/// paper's sorter-based feature-extraction block, which avoids it. The
/// inputs may be owned streams or references to them, so a window of a
/// larger activation map is read in place.
///
/// # Errors
///
/// Returns [`BitstreamError::Empty`] for no inputs and
/// [`BitstreamError::LengthMismatch`] when stream lengths differ.
pub fn mux_add<S: Borrow<BitStream>, R: Rng>(
    streams: &[S],
    rng: &mut R,
) -> Result<BitStream, BitstreamError> {
    let first = streams.first().ok_or(BitstreamError::Empty)?.borrow();
    let len = first.len();
    for s in streams {
        let s = s.borrow();
        if s.len() != len {
            return Err(BitstreamError::LengthMismatch { left: len, right: s.len() });
        }
    }
    let n = streams.len();
    Ok(BitStream::from_fn(len, |cycle| {
        let pick = rng.gen_range(0..n);
        streams[pick].borrow().get(cycle).expect("cycle < len by construction")
    }))
}

/// Float reference for an SC inner product: `Σ xᵢ·wᵢ` (no scaling).
///
/// The sorter-based feature-extraction block realises
/// `clip(Σ xᵢ·wᵢ, −1, 1)`; this helper supplies the pre-clip software value
/// used by the accuracy experiments (Table 1).
///
/// # Panics
///
/// Panics when the slices have different lengths.
pub fn weighted_inner_product_value(x: &[f64], w: &[f64]) -> f64 {
    assert_eq!(x.len(), w.len(), "input and weight lengths differ");
    x.iter().zip(w).map(|(a, b)| a * b).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Bipolar, Sng, ThermalRng};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn maj3_matches_truth_table() {
        for mask in 0..8u8 {
            let a = BitStream::from_bits([mask & 1 != 0]);
            let b = BitStream::from_bits([mask & 2 != 0]);
            let c = BitStream::from_bits([mask & 4 != 0]);
            let expect = (mask & 1 != 0) as u8 + (mask & 2 != 0) as u8 + (mask & 4 != 0) as u8 >= 2;
            let got = maj3_streams(&a, &b, &c).unwrap().get(0).unwrap();
            assert_eq!(got, expect, "mask {mask:03b}");
        }
    }

    #[test]
    fn mux_add_averages_values() {
        let mut rng = StdRng::seed_from_u64(5);
        let values = [0.8, -0.4, 0.2, -0.6];
        let mut sng = Sng::new(10, ThermalRng::with_seed(31));
        let streams: Vec<BitStream> = values
            .iter()
            .map(|&v| sng.generate(Bipolar::clamped(v), 16_384))
            .collect();
        let sum = mux_add(&streams, &mut rng).unwrap();
        let expect: f64 = values.iter().sum::<f64>() / values.len() as f64;
        assert!(
            (sum.bipolar_value().get() - expect).abs() < 0.05,
            "got {} want {expect}",
            sum.bipolar_value()
        );
    }

    #[test]
    fn mux_add_rejects_empty() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(mux_add::<BitStream, _>(&[], &mut rng), Err(BitstreamError::Empty));
    }

    #[test]
    fn mux_add_reads_borrowed_windows_like_owned_ones() {
        let streams: Vec<BitStream> =
            (0..9u64).map(|i| BitStream::from_fn(200, |c| (c as u64 * (i + 3)) % 7 < 3)).collect();
        let window: Vec<&BitStream> = streams.iter().collect();
        let owned = mux_add(&streams, &mut StdRng::seed_from_u64(11)).unwrap();
        let borrowed = mux_add(&window, &mut StdRng::seed_from_u64(11)).unwrap();
        assert_eq!(owned, borrowed);
    }

    #[test]
    fn mux_add_rejects_mismatched_lengths() {
        let mut rng = StdRng::seed_from_u64(0);
        let streams = vec![BitStream::zeros(4), BitStream::zeros(8)];
        assert!(mux_add(&streams, &mut rng).is_err());
    }

    #[test]
    fn inner_product_reference() {
        assert_eq!(weighted_inner_product_value(&[1.0, -1.0], &[0.5, 0.5]), 0.0);
        assert_eq!(weighted_inner_product_value(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "lengths differ")]
    fn inner_product_length_mismatch_panics() {
        let _ = weighted_inner_product_value(&[1.0], &[]);
    }
}
