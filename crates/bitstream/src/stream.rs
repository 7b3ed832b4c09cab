use std::fmt;

use crate::{Bipolar, BitstreamError, Unipolar, WORD_BITS};

/// A fixed-length stochastic bit-stream, packed 64 bits to a word.
///
/// Bit index 0 is the first clock cycle of the stream; inside a word, bit `i`
/// of the stream maps to bit `i % 64` of word `i / 64` (LSB first). All
/// bitwise operators keep the unused tail bits of the last word zero so that
/// [`BitStream::count_ones`] stays exact.
///
/// # Example
///
/// ```
/// use aqfp_sc_bitstream::BitStream;
///
/// let s = BitStream::from_bits([true, false, true, true]);
/// assert_eq!(s.len(), 4);
/// assert_eq!(s.count_ones(), 3);
/// assert_eq!(s.unipolar_value().get(), 0.75);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitStream {
    words: Vec<u64>,
    len: usize,
}

impl BitStream {
    /// Creates an all-zero stream of `len` bits.
    pub fn zeros(len: usize) -> Self {
        BitStream { words: vec![0; Self::words_for(len)], len }
    }

    /// Creates an all-one stream of `len` bits.
    pub fn ones(len: usize) -> Self {
        let mut s = BitStream { words: vec![u64::MAX; Self::words_for(len)], len };
        s.mask_tail();
        s
    }

    /// Creates the alternating `1010…` "neutral noise" stream of `len` bits.
    ///
    /// Its bipolar value is exactly 0 for even `len`; the paper appends it to
    /// feature-extraction inputs whenever the input count is even (§4.2).
    pub fn alternating(len: usize) -> Self {
        const PATTERN: u64 = 0x5555_5555_5555_5555; // bit 0 = 1, bit 1 = 0, ...
        let mut s = BitStream { words: vec![PATTERN; Self::words_for(len)], len };
        s.mask_tail();
        s
    }

    /// Builds a stream from an iterator of bits (cycle 0 first).
    pub fn from_bits<I: IntoIterator<Item = bool>>(bits: I) -> Self {
        let mut words = Vec::new();
        let mut len = 0usize;
        let mut cur = 0u64;
        for b in bits {
            if b {
                cur |= 1u64 << (len % WORD_BITS);
            }
            len += 1;
            if len.is_multiple_of(WORD_BITS) {
                words.push(cur);
                cur = 0;
            }
        }
        if !len.is_multiple_of(WORD_BITS) {
            words.push(cur);
        }
        BitStream { words, len }
    }

    /// Builds a stream of `len` bits by calling `f(cycle)` for each cycle.
    pub fn from_fn<F: FnMut(usize) -> bool>(len: usize, f: F) -> Self {
        Self::from_bits((0..len).map(f))
    }

    /// Refills this stream in place as a `len`-bit stream built one word at
    /// a time: `f(word_index, valid_bits)` must return the packed word for
    /// cycles `word_index * 64 ..`, of which only the low `valid_bits` bits
    /// are kept (`valid_bits` is 64 except possibly for the final word).
    pub fn fill_words_with<F: FnMut(usize, usize) -> u64>(&mut self, len: usize, mut f: F) {
        self.words.clear();
        self.words.reserve(Self::words_for(len));
        self.len = len;
        let full = len / WORD_BITS;
        for w in 0..full {
            self.words.push(f(w, WORD_BITS));
        }
        let tail = len % WORD_BITS;
        if tail != 0 {
            self.words.push(f(full, tail));
            self.mask_tail();
        }
    }

    /// Copies the `len` bits starting at cycle `start` into a new stream
    /// (cycle `start` of `self` becomes cycle 0 of the slice).
    ///
    /// # Panics
    ///
    /// Panics when `start + len` exceeds the stream length.
    pub fn slice(&self, start: usize, len: usize) -> BitStream {
        assert!(
            start.checked_add(len).is_some_and(|end| end <= self.len),
            "slice {start}..{} out of range for length {}",
            start + len,
            self.len
        );
        let mut out = BitStream::zeros(len);
        let first = start / WORD_BITS;
        let shift = start % WORD_BITS;
        if shift == 0 {
            let words = out.words.len();
            out.words.copy_from_slice(&self.words[first..first + words]);
        } else {
            for (i, w) in out.words.iter_mut().enumerate() {
                let lo = self.words[first + i] >> shift;
                let hi = self
                    .words
                    .get(first + i + 1)
                    .map_or(0, |&next| next << (WORD_BITS - shift));
                *w = lo | hi;
            }
        }
        out.mask_tail();
        out
    }

    /// Builds a stream directly from packed words.
    ///
    /// Extra bits in the final word beyond `len` are cleared.
    ///
    /// # Panics
    ///
    /// Panics if `words` holds fewer than `len` bits.
    pub fn from_words(words: Vec<u64>, len: usize) -> Self {
        assert!(
            words.len() * WORD_BITS >= len,
            "{} words cannot hold {len} bits",
            words.len()
        );
        let mut s = BitStream { words, len };
        s.words.truncate(Self::words_for(len));
        s.mask_tail();
        s
    }

    fn words_for(len: usize) -> usize {
        len.div_ceil(WORD_BITS)
    }

    fn mask_tail(&mut self) {
        let tail = self.len % WORD_BITS;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Stream length in bits (= clock cycles).
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the stream holds zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The packed storage words (LSB of word 0 is cycle 0).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Number of 1 bits in the stream.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Reads the bit at `index`.
    ///
    /// Returns `None` if `index >= len`.
    pub fn get(&self, index: usize) -> Option<bool> {
        if index >= self.len {
            return None;
        }
        Some((self.words[index / WORD_BITS] >> (index % WORD_BITS)) & 1 == 1)
    }

    /// Sets the bit at `index`.
    ///
    /// # Errors
    ///
    /// Returns [`BitstreamError::IndexOutOfBounds`] when `index >= len`.
    pub fn set(&mut self, index: usize, bit: bool) -> Result<(), BitstreamError> {
        if index >= self.len {
            return Err(BitstreamError::IndexOutOfBounds { index, len: self.len });
        }
        let mask = 1u64 << (index % WORD_BITS);
        if bit {
            self.words[index / WORD_BITS] |= mask;
        } else {
            self.words[index / WORD_BITS] &= !mask;
        }
        Ok(())
    }

    /// Iterates over the bits in cycle order.
    pub fn iter(&self) -> Iter<'_> {
        Iter { stream: self, index: 0 }
    }

    /// Empirical unipolar value: `ones / len`.
    ///
    /// # Panics
    ///
    /// Panics on an empty stream (a zero-length stream has no value).
    pub fn unipolar_value(&self) -> Unipolar {
        assert!(self.len > 0, "empty stream has no value");
        Unipolar::new(self.count_ones() as f64 / self.len as f64)
            .expect("ratio of ones is always within [0, 1]")
    }

    /// Empirical bipolar value: `(2·ones − len) / len`.
    ///
    /// # Panics
    ///
    /// Panics on an empty stream.
    pub fn bipolar_value(&self) -> Bipolar {
        assert!(self.len > 0, "empty stream has no value");
        let ones = self.count_ones() as f64;
        let n = self.len as f64;
        Bipolar::new((2.0 * ones - n) / n).expect("bit density maps into [-1, 1]")
    }

    fn zip_words(
        &self,
        other: &BitStream,
        mut f: impl FnMut(u64, u64) -> u64,
    ) -> Result<BitStream, BitstreamError> {
        if self.len != other.len {
            return Err(BitstreamError::LengthMismatch { left: self.len, right: other.len });
        }
        let words = self
            .words
            .iter()
            .zip(&other.words)
            .map(|(&a, &b)| f(a, b))
            .collect();
        let mut s = BitStream { words, len: self.len };
        s.mask_tail();
        Ok(s)
    }

    /// Bitwise AND — the unipolar SC multiplier (paper Fig. 4c).
    ///
    /// # Errors
    ///
    /// Returns [`BitstreamError::LengthMismatch`] when lengths differ.
    pub fn and(&self, other: &BitStream) -> Result<BitStream, BitstreamError> {
        self.zip_words(other, |a, b| a & b)
    }

    /// Bitwise OR.
    ///
    /// # Errors
    ///
    /// Returns [`BitstreamError::LengthMismatch`] when lengths differ.
    pub fn or(&self, other: &BitStream) -> Result<BitStream, BitstreamError> {
        self.zip_words(other, |a, b| a | b)
    }

    /// Bitwise XOR.
    ///
    /// # Errors
    ///
    /// Returns [`BitstreamError::LengthMismatch`] when lengths differ.
    pub fn xor(&self, other: &BitStream) -> Result<BitStream, BitstreamError> {
        self.zip_words(other, |a, b| a ^ b)
    }

    /// Bitwise XNOR — the bipolar SC multiplier (paper Fig. 4d).
    ///
    /// # Errors
    ///
    /// Returns [`BitstreamError::LengthMismatch`] when lengths differ.
    pub fn xnor(&self, other: &BitStream) -> Result<BitStream, BitstreamError> {
        self.zip_words(other, |a, b| !(a ^ b))
    }

    /// Bitwise NOT — the bipolar/unipolar SC negation.
    pub fn not(&self) -> BitStream {
        let words = self.words.iter().map(|&w| !w).collect();
        let mut s = BitStream { words, len: self.len };
        s.mask_tail();
        s
    }

    /// Per-cycle 2:1 multiplexer: picks `self` where `select` is 0 and
    /// `other` where `select` is 1.
    ///
    /// # Errors
    ///
    /// Returns [`BitstreamError::LengthMismatch`] when any length differs.
    pub fn mux(
        &self,
        other: &BitStream,
        select: &BitStream,
    ) -> Result<BitStream, BitstreamError> {
        if self.len != select.len {
            return Err(BitstreamError::LengthMismatch { left: self.len, right: select.len });
        }
        if self.len != other.len {
            return Err(BitstreamError::LengthMismatch { left: self.len, right: other.len });
        }
        let words = self
            .words
            .iter()
            .zip(&other.words)
            .zip(&select.words)
            .map(|((&a, &b), &s)| (a & !s) | (b & s))
            .collect();
        let mut s = BitStream { words, len: self.len };
        s.mask_tail();
        Ok(s)
    }
}

impl fmt::Debug for BitStream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Show at most 64 leading bits to keep output readable.
        let shown: String = self
            .iter()
            .take(64)
            .map(|b| if b { '1' } else { '0' })
            .collect();
        let ellipsis = if self.len > 64 { "…" } else { "" };
        write!(f, "BitStream[{}]({shown}{ellipsis})", self.len)
    }
}

impl FromIterator<bool> for BitStream {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        BitStream::from_bits(iter)
    }
}

impl<const N: usize> From<[bool; N]> for BitStream {
    fn from(bits: [bool; N]) -> Self {
        BitStream::from_bits(bits)
    }
}

/// Iterator over the bits of a [`BitStream`] in cycle order.
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    stream: &'a BitStream,
    index: usize,
}

impl Iterator for Iter<'_> {
    type Item = bool;

    fn next(&mut self) -> Option<bool> {
        let bit = self.stream.get(self.index)?;
        self.index += 1;
        Some(bit)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.stream.len - self.index;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl<'a> IntoIterator for &'a BitStream {
    type Item = bool;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_ones_have_exact_counts() {
        for len in [0usize, 1, 63, 64, 65, 127, 128, 1000] {
            assert_eq!(BitStream::zeros(len).count_ones(), 0);
            assert_eq!(BitStream::ones(len).count_ones(), len);
        }
    }

    #[test]
    fn alternating_starts_with_one_and_balances() {
        let s = BitStream::alternating(8);
        assert_eq!(s.get(0), Some(true));
        assert_eq!(s.get(1), Some(false));
        assert_eq!(s.count_ones(), 4);
        assert_eq!(s.bipolar_value().get(), 0.0);
    }

    #[test]
    fn alternating_odd_length_masks_tail() {
        let s = BitStream::alternating(65);
        assert_eq!(s.count_ones(), 33);
    }

    #[test]
    fn from_bits_round_trips_through_iter() {
        let bits = [true, false, false, true, true, false, true];
        let s = BitStream::from_bits(bits);
        let back: Vec<bool> = s.iter().collect();
        assert_eq!(back, bits);
    }

    #[test]
    fn from_fn_matches_closure() {
        let s = BitStream::from_fn(130, |i| i % 3 == 0);
        for i in 0..130 {
            assert_eq!(s.get(i), Some(i % 3 == 0), "bit {i}");
        }
    }

    #[test]
    fn from_words_clears_tail_bits() {
        let s = BitStream::from_words(vec![u64::MAX], 5);
        assert_eq!(s.count_ones(), 5);
        assert_eq!(s.len(), 5);
    }

    #[test]
    #[should_panic(expected = "cannot hold")]
    fn from_words_panics_when_too_short() {
        let _ = BitStream::from_words(vec![0], 65);
    }

    #[test]
    fn get_out_of_bounds_returns_none() {
        let s = BitStream::zeros(10);
        assert_eq!(s.get(10), None);
    }

    #[test]
    fn set_flips_single_bit() {
        let mut s = BitStream::zeros(70);
        s.set(69, true).unwrap();
        assert_eq!(s.count_ones(), 1);
        assert_eq!(s.get(69), Some(true));
        s.set(69, false).unwrap();
        assert_eq!(s.count_ones(), 0);
    }

    #[test]
    fn set_out_of_bounds_errors() {
        let mut s = BitStream::zeros(3);
        assert_eq!(
            s.set(3, true),
            Err(BitstreamError::IndexOutOfBounds { index: 3, len: 3 })
        );
    }

    #[test]
    fn xnor_is_bipolar_multiplication_on_exact_streams() {
        // 0.5 in bipolar over 8 bits: 6 ones. -0.5: 2 ones.
        let a = BitStream::from_bits([true, true, true, false, true, true, false, true]);
        let b = BitStream::from_bits([true, false, false, true, false, false, false, false]);
        assert_eq!(a.bipolar_value().get(), 0.5);
        assert_eq!(b.bipolar_value().get(), -0.5);
        let z = a.xnor(&b).unwrap();
        // XNOR multiplies exactly only for uncorrelated streams; here we just
        // check the gate identity bit-by-bit.
        for i in 0..8 {
            assert_eq!(z.get(i).unwrap(), a.get(i).unwrap() == b.get(i).unwrap());
        }
    }

    #[test]
    fn not_negates_bipolar_value() {
        let s = BitStream::from_fn(100, |i| i < 80);
        let v = s.bipolar_value().get();
        let n = s.not();
        assert!((n.bipolar_value().get() + v).abs() < 1e-12);
    }

    #[test]
    fn not_masks_tail() {
        let s = BitStream::zeros(5);
        assert_eq!(s.not().count_ones(), 5);
    }

    #[test]
    fn and_or_follow_gate_semantics() {
        let a = BitStream::from_bits([true, true, false, false]);
        let b = BitStream::from_bits([true, false, true, false]);
        let and: Vec<bool> = a.and(&b).unwrap().iter().collect();
        let or: Vec<bool> = a.or(&b).unwrap().iter().collect();
        assert_eq!(and, [true, false, false, false]);
        assert_eq!(or, [true, true, true, false]);
    }

    #[test]
    fn length_mismatch_is_reported() {
        let a = BitStream::zeros(4);
        let b = BitStream::zeros(5);
        assert_eq!(
            a.and(&b),
            Err(BitstreamError::LengthMismatch { left: 4, right: 5 })
        );
    }

    #[test]
    fn mux_selects_per_cycle() {
        let a = BitStream::from_bits([true, true, true, true]);
        let b = BitStream::from_bits([false, false, false, false]);
        let sel = BitStream::from_bits([false, true, false, true]);
        let out: Vec<bool> = a.mux(&b, &sel).unwrap().iter().collect();
        assert_eq!(out, [true, false, true, false]);
    }

    #[test]
    fn slice_matches_bit_extraction_at_any_offset() {
        let s = BitStream::from_fn(200, |i| (i * 7) % 5 < 2);
        for (start, len) in [(0usize, 200usize), (1, 64), (63, 65), (64, 64), (37, 97), (199, 1), (200, 0), (5, 0)] {
            let sliced = s.slice(start, len);
            assert_eq!(sliced.len(), len, "({start},{len})");
            for i in 0..len {
                assert_eq!(sliced.get(i), s.get(start + i), "({start},{len}) bit {i}");
            }
            // Tail bits beyond `len` in the last word must stay zero so
            // count_ones stays exact.
            assert_eq!(
                sliced.count_ones(),
                (0..len).filter(|&i| s.get(start + i) == Some(true)).count(),
                "({start},{len}) tail not masked"
            );
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slice_out_of_range_panics() {
        let _ = BitStream::zeros(10).slice(5, 6);
    }

    #[test]
    fn alternating_slices_keep_absolute_parity() {
        // The neutral 0101… stream sliced at an odd offset must start with 0
        // — restarting the pattern per chunk is exactly the count-drift bug
        // the chunked engine guards against.
        let neutral = BitStream::alternating(100);
        let odd = neutral.slice(37, 10);
        assert_eq!(odd.get(0), Some(false));
        let even = neutral.slice(38, 10);
        assert_eq!(even.get(0), Some(true));
    }

    #[test]
    fn fill_words_with_matches_from_fn() {
        let mut buf = BitStream::zeros(0);
        for len in [0usize, 5, 64, 129, 512] {
            buf.fill_words_with(len, |w, n| {
                let mut word = 0u64;
                for i in 0..n {
                    let cycle = w * WORD_BITS + i;
                    word |= u64::from(cycle % 4 == 1) << i;
                }
                word
            });
            assert_eq!(buf, BitStream::from_fn(len, |i| i % 4 == 1), "len {len}");
        }
    }

    #[test]
    fn fill_words_with_masks_tail() {
        let mut buf = BitStream::zeros(0);
        buf.fill_words_with(5, |_, _| u64::MAX);
        assert_eq!(buf.count_ones(), 5);
    }

    #[test]
    fn debug_output_is_never_empty() {
        let s = BitStream::zeros(0);
        assert!(!format!("{s:?}").is_empty());
    }

    #[test]
    fn collects_from_iterator() {
        let s: BitStream = (0..10).map(|i| i % 2 == 0).collect();
        assert_eq!(s.len(), 10);
        assert_eq!(s.count_ones(), 5);
    }
}
