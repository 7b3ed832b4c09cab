use crate::{BitStream, BitstreamError, WORD_BITS};

/// Bit-sliced "vertical" counter: accumulates many bit-streams and yields the
/// per-cycle column popcount.
///
/// The sorter-based blocks of the paper consume, every clock cycle, the
/// *column* of an `M × N` product matrix `SP` (Algorithm 1/2). Extracting
/// columns bit-by-bit would cost `O(M · N)` per block; this counter instead
/// keeps `⌈log2(M+1)⌉` carry-save bit planes and adds whole 64-cycle words at
/// a time.
///
/// It is the reference counter of the blocks' whole-stream `run()` models
/// and of [`column_counts`]; inference counts rows in place with
/// [`column_counts_into`](crate::column_counts_into) and the lane kernels.
///
/// # Example
///
/// ```
/// use aqfp_sc_bitstream::{BitStream, ColumnCounter};
///
/// # fn main() -> Result<(), aqfp_sc_bitstream::BitstreamError> {
/// let mut cc = ColumnCounter::new(4);
/// cc.add(&BitStream::from_bits([true, true, false, false]))?;
/// cc.add(&BitStream::from_bits([true, false, true, false]))?;
/// cc.add(&BitStream::from_bits([true, true, true, false]))?;
/// assert_eq!(cc.counts(), vec![3, 2, 2, 0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ColumnCounter {
    /// `planes[k][w]` holds bit `k` of the count for the 64 cycles of word `w`.
    planes: Vec<Vec<u64>>,
    words: usize,
    len: usize,
}

impl ColumnCounter {
    /// Creates a counter for streams of `len` bits.
    pub fn new(len: usize) -> Self {
        ColumnCounter {
            planes: Vec::new(),
            words: len.div_ceil(WORD_BITS),
            len,
        }
    }

    /// Stream length in bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the configured stream length is zero.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Adds one stream to every column count.
    ///
    /// # Errors
    ///
    /// Returns [`BitstreamError::LengthMismatch`] when the stream length
    /// differs from the counter's.
    pub fn add(&mut self, stream: &BitStream) -> Result<(), BitstreamError> {
        if stream.len() != self.len {
            return Err(BitstreamError::LengthMismatch { left: self.len, right: stream.len() });
        }
        self.add_words(stream.words());
        Ok(())
    }

    /// Adds every stream in `streams` (a single pass per stream, with all
    /// lengths checked up front so the counter is never left half-updated).
    ///
    /// # Errors
    ///
    /// Returns [`BitstreamError::LengthMismatch`] for the first stream whose
    /// length differs from the counter's; no stream is added in that case.
    pub fn add_all(&mut self, streams: &[BitStream]) -> Result<(), BitstreamError> {
        for s in streams {
            if s.len() != self.len {
                return Err(BitstreamError::LengthMismatch { left: self.len, right: s.len() });
            }
        }
        for s in streams {
            self.add_words(s.words());
        }
        Ok(())
    }

    /// Adds one stream's words, whose count the callers have checked.
    fn add_words(&mut self, words: &[u64]) {
        assert_eq!(words.len(), self.words, "word count mismatch");
        for (w, &word) in words.iter().enumerate() {
            self.carry_save(w, word);
        }
    }

    /// Carry-save addition of one 64-cycle word into the bit planes.
    fn carry_save(&mut self, w: usize, word: u64) {
        let mut carry = word;
        let mut k = 0;
        while carry != 0 {
            if k == self.planes.len() {
                self.planes.push(vec![0u64; self.words]);
            }
            let plane = &mut self.planes[k][w];
            let sum = *plane ^ carry;
            carry &= *plane;
            *plane = sum;
            k += 1;
        }
    }

    /// All per-cycle counts, cycle 0 first.
    pub fn counts(&self) -> Vec<u32> {
        let mut out = Vec::new();
        self.counts_into(&mut out);
        out
    }

    /// Writes all per-cycle counts into `out`, reusing its allocation.
    ///
    /// Counts are extracted 64 cycles at a time with branchless 8×8
    /// bit-matrix transposes ([`crate::extract_plane_counts`]) rather than a
    /// per-set-bit scatter loop.
    fn counts_into(&self, out: &mut Vec<u32>) {
        out.clear();
        out.resize(self.len, 0);
        assert!(self.planes.len() <= 32, "count planes exceed u32 range");
        let mut pw = [0u64; 32];
        for w in 0..self.words {
            let cyc0 = w * WORD_BITS;
            let valid = (self.len - cyc0).min(WORD_BITS);
            for (k, plane) in self.planes.iter().enumerate() {
                pw[k] = plane[w];
            }
            crate::kernel::extract_plane_counts(
                &pw[..self.planes.len()],
                valid,
                &mut out[cyc0..cyc0 + valid],
            );
        }
    }
}

/// One-shot helper: per-cycle column counts over a set of equal-length
/// streams.
///
/// # Errors
///
/// Returns [`BitstreamError::Empty`] when `streams` is empty and
/// [`BitstreamError::LengthMismatch`] when lengths differ.
///
/// # Example
///
/// ```
/// use aqfp_sc_bitstream::{column_counts, BitStream};
///
/// # fn main() -> Result<(), aqfp_sc_bitstream::BitstreamError> {
/// let streams = vec![BitStream::ones(3), BitStream::zeros(3), BitStream::ones(3)];
/// assert_eq!(column_counts(&streams)?, vec![2, 2, 2]);
/// # Ok(())
/// # }
/// ```
pub fn column_counts(streams: &[BitStream]) -> Result<Vec<u32>, BitstreamError> {
    let first = streams.first().ok_or(BitstreamError::Empty)?;
    let mut cc = ColumnCounter::new(first.len());
    cc.add_all(streams)?;
    Ok(cc.counts())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BitSource, ThermalRng};

    fn naive_counts(streams: &[BitStream]) -> Vec<u32> {
        let len = streams[0].len();
        (0..len)
            .map(|i| streams.iter().filter(|s| s.get(i) == Some(true)).count() as u32)
            .collect()
    }

    #[test]
    fn matches_naive_counting_on_random_streams() {
        let mut rng = ThermalRng::with_seed(17);
        for m in [1usize, 2, 3, 9, 31, 64, 130] {
            let streams: Vec<BitStream> = (0..m)
                .map(|_| BitStream::from_fn(200, |_| rng.next_bit()))
                .collect();
            assert_eq!(
                column_counts(&streams).unwrap(),
                naive_counts(&streams),
                "m = {m}"
            );
        }
    }

    #[test]
    fn empty_input_errors() {
        assert_eq!(column_counts(&[]), Err(BitstreamError::Empty));
    }

    #[test]
    fn length_mismatch_errors() {
        let mut cc = ColumnCounter::new(10);
        let bad = BitStream::zeros(11);
        assert!(cc.add(&bad).is_err());
    }

    #[test]
    fn all_ones_saturates_every_cycle() {
        let mut cc = ColumnCounter::new(130);
        for _ in 0..7 {
            cc.add(&BitStream::ones(130)).unwrap();
        }
        assert!(cc.counts().iter().all(|&c| c == 7));
    }

    #[test]
    fn add_words_matches_add() {
        let s = BitStream::from_fn(100, |i| i % 3 != 0);
        let mut a = ColumnCounter::new(100);
        let mut b = ColumnCounter::new(100);
        a.add(&s).unwrap();
        b.add_words(s.words());
        assert_eq!(a.counts(), b.counts());
    }

    #[test]
    fn add_all_matches_one_by_one() {
        let mut rng = ThermalRng::with_seed(31);
        let streams: Vec<BitStream> =
            (0..9).map(|_| BitStream::from_fn(150, |_| rng.next_bit())).collect();
        let mut one_by_one = ColumnCounter::new(150);
        for s in &streams {
            one_by_one.add(s).unwrap();
        }
        let mut batched = ColumnCounter::new(150);
        batched.add_all(&streams).unwrap();
        assert_eq!(one_by_one.counts(), batched.counts());
    }

    #[test]
    fn add_all_rejects_any_mismatch_without_partial_update() {
        let streams = vec![BitStream::ones(20), BitStream::ones(21)];
        let mut cc = ColumnCounter::new(20);
        assert!(cc.add_all(&streams).is_err());
        assert!(cc.counts().iter().all(|&c| c == 0));
    }

    #[test]
    fn counts_into_reuses_buffer() {
        let mut cc = ColumnCounter::new(70);
        cc.add(&BitStream::ones(70)).unwrap();
        let mut buf = vec![99u32; 3];
        cc.counts_into(&mut buf);
        assert_eq!(buf.len(), 70);
        assert!(buf.iter().all(|&c| c == 1));
    }
}
