//! Word-parallel column-count kernels.
//!
//! Stochastic-computing layers consume *column counts*: for cycle `c`, the
//! number of input rows whose bit `c` is set. The scalar path builds these by
//! walking one bit at a time; the kernels here instead add whole 64-bit
//! words, 16 rows at a time, through one Harley–Seal carry-save network
//! (`fold_slab`) into bit-planes (one plane per binary digit of the
//! count).
//!
//! Two layouts are supported, and the same slab network counts both:
//!
//! * **Word-parallel** ([`column_counts_into`]): rows are ordinary
//!   [`BitStream`] word slices for a single image — its own streams cover
//!   the chunk, weight streams are read in place at the chunk's offset.
//!   Each 64-bit word holds 64 consecutive cycles of one row; the planes
//!   are converted to per-cycle `u32` counts with 8x8 bit transposes.
//! * **Batch-transposed** ([`lane_counts_stream`] and friends): each lane
//!   word holds the *same* cycle of up to `64·W` images ("lanes") in a
//!   [`Stripe<W>`] of `W` machine words. Weight streams are
//!   image-independent, so one sweep of the weight words serves the entire
//!   batch; [`pack_lanes_into`] / [`unpack_lanes_into`] convert between the
//!   layouts with 64x64 bit-matrix transposes per 64-lane subgroup.
//!
//! All stripe arithmetic is written as straight-line per-element loops over
//! `[u64; W]`, which LLVM auto-vectorises to the platform's SIMD width
//! (SSE2/AVX2/NEON) with no unstable features; `W = 1` compiles to exactly
//! the pre-stripe scalar-word code and remains the zero-regression fallback.
//!
//! All kernels are bit-identical to the scalar per-bit path; the proptest
//! suites in `tests/` and `crates/network` pin this on both platforms.

use crate::error::BitstreamError;
use crate::stream::BitStream;
use crate::WORD_BITS;

/// Words per cache-sized kernel block (8 words = 512 cycles = one 4 KiB
/// carry-save working set at 16 planes, comfortably inside L1).
pub const BLOCK_WORDS: usize = 8;

/// Maximum number of carry-save bit planes the fixed-array kernels keep.
/// 16 planes count up to 65535 rows per column.
pub const MAX_PLANES: usize = 16;

/// Maximum rows a fixed-plane kernel accepts (`2^MAX_PLANES - 1`).
pub const MAX_KERNEL_ROWS: usize = (1 << MAX_PLANES) - 1;

/// Widest lane stripe the kernels support, in `u64` elements.
pub const MAX_STRIPE_WORDS: usize = 4;

/// Maximum lanes one stripe-generalised lane group can hold
/// (`64 · MAX_STRIPE_WORDS`).
pub const MAX_LANES: usize = WORD_BITS * MAX_STRIPE_WORDS;

/// A stripe of `W` machine words treated as one `64·W`-lane bit vector.
///
/// Lane `g` lives in bit `g % 64` of element `g / 64`. Every bitwise
/// operator acts element-wise as a straight-line loop over the fixed-size
/// array so LLVM can auto-vectorise it; `Stripe<1>` is exactly the old
/// single-`u64` lane word.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(transparent)]
pub struct Stripe<const W: usize>(pub [u64; W]);

impl<const W: usize> Stripe<W> {
    /// The all-zeros stripe.
    pub const ZERO: Self = Stripe([0; W]);

    /// Broadcasts one word to every element (e.g. a per-cycle scalar weight
    /// bit expanded to a full-stripe mask).
    #[inline(always)]
    pub fn splat(word: u64) -> Self {
        Stripe([word; W])
    }

    /// Bit `g` of the stripe (`g < 64·W`) as 0 or 1.
    #[inline(always)]
    pub fn get(&self, g: usize) -> u64 {
        (self.0[g / WORD_BITS] >> (g % WORD_BITS)) & 1
    }

    /// True when every element is zero — the carry chains branch on this.
    #[inline(always)]
    pub fn is_zero(&self) -> bool {
        let mut acc = 0u64;
        for &e in &self.0 {
            acc |= e;
        }
        acc == 0
    }
}

impl<const W: usize> Default for Stripe<W> {
    fn default() -> Self {
        Self::ZERO
    }
}

macro_rules! stripe_binop {
    ($trait:ident, $method:ident, $assign_trait:ident, $assign_method:ident, $assign_op:tt) => {
        impl<const W: usize> core::ops::$trait for Stripe<W> {
            type Output = Self;
            #[inline(always)]
            fn $method(mut self, rhs: Self) -> Self {
                core::ops::$assign_trait::$assign_method(&mut self, rhs);
                self
            }
        }
        impl<const W: usize> core::ops::$assign_trait for Stripe<W> {
            #[inline(always)]
            fn $assign_method(&mut self, rhs: Self) {
                for (a, b) in self.0.iter_mut().zip(rhs.0.iter()) {
                    *a $assign_op *b;
                }
            }
        }
    };
}

stripe_binop!(BitAnd, bitand, BitAndAssign, bitand_assign, &=);
stripe_binop!(BitOr, bitor, BitOrAssign, bitor_assign, |=);
stripe_binop!(BitXor, bitxor, BitXorAssign, bitxor_assign, ^=);

impl<const W: usize> core::ops::Not for Stripe<W> {
    type Output = Self;
    #[inline(always)]
    fn not(mut self) -> Self {
        for a in self.0.iter_mut() {
            *a = !*a;
        }
        self
    }
}

/// One input row for the word-parallel kernel (single-image layout). The
/// image operand of a product row is chunk-local: bit `c` is chunk cycle
/// `c`. Image-independent operands (weights, biases, the `0101…` neutral
/// pad) are full-length streams read in place at the chunk's absolute
/// offset: chunk cycle `c` is bit `offset + c`.
#[derive(Clone, Copy)]
pub enum KernelRow<'a> {
    /// An image stream XNORed with a weight stream: `!(x[c] ^ w[offset +
    /// c])` (weight bit 1 keeps the image bit, 0 inverts it).
    Xnor(&'a [u64], &'a [u64]),
    /// An image-independent stream contributing its own bits (e.g. a bias
    /// stream).
    Broadcast(&'a [u64]),
}

impl KernelRow<'_> {
    /// Chunk word `w` of the row, its image-independent operands read at
    /// absolute cycle `offset + 64·w`; bits past the chunk's end are
    /// unspecified.
    #[inline]
    pub fn word(&self, w: usize, offset: usize) -> u64 {
        if offset.is_multiple_of(WORD_BITS) {
            self.word_at::<true>(w, offset)
        } else {
            self.word_at::<false>(w, offset)
        }
    }

    /// [`KernelRow::word`] with the offset's word alignment fixed at
    /// compile time: `ALIGNED` (an offset that is a multiple of 64, as on
    /// the one-shot path) indexes each image-independent word directly.
    #[inline(always)]
    fn word_at<const ALIGNED: bool>(&self, w: usize, offset: usize) -> u64 {
        let read = |s: &[u64]| {
            if ALIGNED {
                s[offset / WORD_BITS + w]
            } else {
                window64(s, offset + w * WORD_BITS)
            }
        };
        match *self {
            KernelRow::Xnor(x, s) => !(x[w] ^ read(s)),
            KernelRow::Broadcast(s) => read(s),
        }
    }

    /// Panics unless the row's image-independent operand holds
    /// `scalar_words` words.
    fn check(&self, scalar_words: usize) {
        let (KernelRow::Xnor(_, s) | KernelRow::Broadcast(s)) = *self;
        assert!(s.len() >= scalar_words, "kernel row: too few scalar words");
    }
}

/// Number of `u64` words needed to hold `len` bits.
#[inline]
fn words_for(len: usize) -> usize {
    len.div_ceil(WORD_BITS)
}

/// Checks a lane-group size against the `64·W` stripe capacity, the shared
/// guard of every pack/unpack entry point.
#[inline]
fn check_lane_capacity<const W: usize>(lanes: usize) -> Result<(), BitstreamError> {
    if lanes == 0 {
        return Err(BitstreamError::Empty);
    }
    if lanes > WORD_BITS * W {
        return Err(BitstreamError::LaneCapacity { lanes, capacity: WORD_BITS * W });
    }
    Ok(())
}

/// Transpose a u64 viewed as an 8x8 bit matrix in LSB-first order:
/// bit `(r, c)` (row-major, byte `r`, bit `c` of that byte) moves to
/// `(c, r)`. Three delta swaps (Hacker's Delight flip about the
/// anti-diagonal, adapted to LSB-first byte order).
#[inline]
pub fn transpose8(mut x: u64) -> u64 {
    let t = 0x0f0f_0f0f_0000_0000u64 & (x ^ (x << 28));
    x ^= t ^ (t >> 28);
    let t = 0x3333_0000_3333_0000u64 & (x ^ (x << 14));
    x ^= t ^ (t >> 14);
    let t = 0x5500_5500_5500_5500u64 & (x ^ (x << 7));
    x ^= t ^ (t >> 7);
    x
}

/// In-place transpose of a 64x64 bit matrix stored as 64 u64 rows,
/// LSB-first (bit `c` of `a[r]` is element `(r, c)`).
pub fn transpose64(a: &mut [u64; 64]) {
    let mut j = 32usize;
    let mut m = 0x0000_0000_FFFF_FFFFu64;
    while j != 0 {
        let mut k = 0usize;
        while k < 64 {
            let t = ((a[k] >> j) ^ a[k + j]) & m;
            a[k] ^= t << j;
            a[k + j] ^= t;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        m ^= m << j;
    }
}

/// Convert carry-save bit planes for up to 64 columns into per-column
/// counts. `planes[p]` holds bit `p` of every column's count (LSB-first:
/// bit `c` of `planes[p]` belongs to column `c`). Only the first `valid`
/// columns of `out` are written. Supports up to 32 planes (`u32` counts).
pub fn extract_plane_counts(planes: &[u64], valid: usize, out: &mut [u32]) {
    assert!(planes.len() <= 32, "extract_plane_counts: too many planes");
    assert!(valid <= 64 && out.len() >= valid);
    out[..valid].fill(0);
    // Process planes in groups of 8: gather one byte column per plane into
    // a u64, transpose it, and each output byte is then 8 planes' worth of
    // one column's count bits.
    for (gi, group) in planes.chunks(8).enumerate() {
        let shift_out = 8 * gi;
        let mut sh = 0usize;
        while sh < valid {
            let mut y = 0u64;
            for (k, p) in group.iter().enumerate() {
                y |= ((p >> sh) & 0xFF) << (8 * k);
            }
            y = transpose8(y);
            let n = (valid - sh).min(8);
            for b in 0..n {
                out[sh + b] |= (((y >> (8 * b)) & 0xFF) as u32) << shift_out;
            }
            sh += 8;
        }
    }
}

/// Word-parallel column counting over the `len`-cycle chunk at absolute
/// cycle `offset` (see [`KernelRow`]): for each chunk cycle `c`, count how
/// many rows have bit `c` set, writing the counts into `counts` (resized
/// to `len`). Bit-identical to summing `BitStream::get` per row per cycle.
///
/// This is the lane kernel's slab compressor turned on its side: one
/// [`Stripe<1>`] holds 64 consecutive cycles of one row instead of one
/// cycle of 64 images, and the same [`TREE_ROWS`]-input carry-save network
/// (`fold_slab`) adds the rows up, so one compressor serves both
/// orientations (this is the one-class case of [`OffsetClasses`]).
/// Kernels of at most [`TREE_ROWS`] rows are folded one word at a time
/// straight from the rows, zero-padded to a full slab, so the count planes
/// never leave registers. Wider kernels run in blocks of up to
/// [`BLOCK_WORDS`] words: each slab is folded into every word of the block,
/// the count's four low planes acting as the network's carry-save state and
/// its sixteens carry rippling through the planes above.
///
/// Panics if an image operand is shorter than `len` bits, an
/// image-independent one ends before `offset + len`, or there are more
/// than [`MAX_KERNEL_ROWS`] rows.
pub fn column_counts_into(
    rows: &[KernelRow<'_>],
    offset: usize,
    len: usize,
    counts: &mut Vec<u32>,
) {
    assert!(rows.len() <= MAX_KERNEL_ROWS, "column_counts_into: too many rows");
    counts.clear();
    counts.resize(len, 0);
    if len == 0 || rows.is_empty() {
        return;
    }
    if offset.is_multiple_of(WORD_BITS) {
        // Aligned reads index every operand word directly, so a short
        // operand panics at its first missing word.
        count_columns::<true>(rows, offset, len, counts);
    } else {
        // The unaligned window read fills past a stream's end with zeros,
        // so the image-independent operands are checked up front.
        for r in rows {
            r.check(words_for(offset + len));
        }
        count_columns::<false>(rows, offset, len, counts);
    }
}

/// [`column_counts_into`] at a fixed word alignment of the offset.
fn count_columns<const ALIGNED: bool>(
    rows: &[KernelRow<'_>],
    offset: usize,
    len: usize,
    counts: &mut [u32],
) {
    let nw = words_for(len);
    let max_planes = bit_width(rows.len());
    // Word `w`'s counts from its planes (`Stripe<1>` is one `u64`).
    let mut extract = |w: usize, planes: &[Stripe<1>]| {
        let mut words = [0u64; MAX_PLANES];
        for (word, plane) in words.iter_mut().zip(planes) {
            *word = plane.0[0];
        }
        let cyc0 = w * WORD_BITS;
        let valid = (len - cyc0).min(WORD_BITS);
        extract_plane_counts(&words[..max_planes], valid, &mut counts[cyc0..cyc0 + valid]);
    };
    let mut x = [Stripe::<1>::ZERO; TREE_ROWS];
    if rows.len() <= TREE_ROWS {
        for w in 0..nw {
            for (slot, row) in x.iter_mut().zip(rows) {
                *slot = Stripe([row.word_at::<ALIGNED>(w, offset)]);
            }
            let mut planes = [Stripe::ZERO; TREE_PLANES];
            fold_slab(&x, &mut planes);
            extract(w, &planes);
        }
        return;
    }
    let mut acc = [[Stripe::<1>::ZERO; MAX_PLANES]; BLOCK_WORDS];
    let mut w0 = 0usize;
    while w0 < nw {
        let bw = (nw - w0).min(BLOCK_WORDS);
        let block = &mut acc[..bw];
        for acc_t in block.iter_mut() {
            acc_t[..max_planes].fill(Stripe::ZERO);
        }
        let mut folded = 0usize;
        for slab in rows.chunks(TREE_ROWS) {
            folded += slab.len();
            let planes = bit_width(folded);
            // A short last slab is a full one over zero rows.
            x[slab.len()..].fill(Stripe::ZERO);
            for (t, acc_t) in block.iter_mut().enumerate() {
                for (slot, row) in x.iter_mut().zip(slab) {
                    *slot = Stripe([row.word_at::<ALIGNED>(w0 + t, offset)]);
                }
                fold_slab(&x, &mut acc_t[..planes]);
            }
        }
        for (t, acc_t) in block.iter().enumerate() {
            extract(w0 + t, &acc_t[..max_planes]);
        }
        w0 += bw;
    }
}

/// The lanes of one group split by absolute cycle offset: a table of
/// `(offset, lane mask)` classes whose masks partition all `64·W` lanes.
/// Image-independent streams (weights, biases, the `0101…` neutral pad)
/// are read at each class's offset and broadcast to that class's lanes
/// only, so a group whose lanes sit at different absolute cycles — a
/// retire-and-refill group — still reads every such stream in place, with
/// no per-lane copy.
///
/// The first class also holds the lanes past the group, so a group whose
/// lanes all share one offset is a single class whose mask covers every
/// lane; the lane kernels take a one-class fast path for it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OffsetClasses<const W: usize> {
    classes: Vec<(usize, Stripe<W>)>,
}

impl<const W: usize> OffsetClasses<W> {
    /// Lane `g` at absolute cycle `offsets[g]`.
    ///
    /// # Panics
    ///
    /// Panics with more than `64·W` offsets.
    pub fn from_offsets(offsets: impl IntoIterator<Item = usize>) -> Self {
        let mut classes = Self::default();
        classes.regroup(offsets);
        classes
    }

    /// [`OffsetClasses::from_offsets`] in place, reusing the allocation.
    ///
    /// # Panics
    ///
    /// Panics with more than `64·W` offsets.
    pub fn regroup(&mut self, offsets: impl IntoIterator<Item = usize>) {
        self.classes.clear();
        for (g, off) in offsets.into_iter().enumerate() {
            assert!(g < WORD_BITS * W, "offset classes: more lanes than the stripe holds");
            let class = match self.classes.iter().position(|&(o, _)| o == off) {
                Some(c) => c,
                None => {
                    self.classes.push((off, Stripe::ZERO));
                    self.classes.len() - 1
                }
            };
            self.classes[class].1 .0[g / WORD_BITS] |= 1u64 << (g % WORD_BITS);
        }
        if let Some(((_, first), rest)) = self.classes.split_first_mut() {
            *first = !rest.iter().fold(Stripe::ZERO, |acc, &(_, m)| acc | m);
        }
    }

    /// Number of classes (distinct offsets).
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// True when no lane has an offset.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// The `(offset, lane mask)` classes, in order of each offset's first
    /// lane.
    pub fn as_slice(&self) -> &[(usize, Stripe<W>)] {
        &self.classes
    }
}

/// One input row for the batch-transposed (lane) kernel. Lane stripes hold
/// the same cycle of up to `64·W` images; scalar operands are
/// image-independent full-length streams (weights, biases, the neutral
/// pad), which lane `g` reads at its own class offset from the
/// [`OffsetClasses`] table passed alongside the rows: at chunk cycle `t`,
/// bit `off + t` of the stream.
#[derive(Clone, Copy)]
pub enum LaneRow<'a, const W: usize> {
    /// Lane-packed activations XNORed with a scalar weight stream: lane
    /// `g`'s bit at cycle `t` is `!(lanes[t] ^ w[off_g + t])` (weight bit
    /// 1 keeps the lane, 0 inverts it). A conv tap outside the image
    /// passes the neutral pad as its lanes: the plane whose cycle `t` is
    /// `Broadcast(neutral).word(t, classes)`.
    Xnor(&'a [Stripe<W>], &'a [u64]),
    /// Lane-packed bits contributing themselves.
    Lanes(&'a [Stripe<W>]),
    /// A scalar stream broadcast to every lane (e.g. a bias stream).
    Broadcast(&'a [u64]),
}

#[inline]
fn scalar_bit(words: &[u64], t: usize) -> u64 {
    (words[t / WORD_BITS] >> (t % WORD_BITS)) & 1
}

impl<'r, const W: usize> LaneRow<'r, W> {
    /// The lane stripe this row contributes at chunk cycle `t`: lane `g`
    /// holds the row's bit for lane `g`, its scalar operands read at the
    /// offset of `g`'s class. The kernels count these words, and a group
    /// builds its neutral pad plane from them.
    #[inline(always)]
    pub fn word(&self, t: usize, classes: &OffsetClasses<W>) -> Stripe<W> {
        let mut x = self.lanes().map_or(Stripe::ZERO, |lanes| lanes[t]);
        for &(off, mask) in classes.as_slice() {
            let bit = self.scalar(|s| scalar_bit(s, off + t)) & 1;
            x ^= mask & Stripe::splat(0u64.wrapping_sub(bit));
        }
        x
    }

    /// The row's lane operand, if it has one.
    #[inline(always)]
    fn lanes(&self) -> Option<&'r [Stripe<W>]> {
        match *self {
            LaneRow::Xnor(lanes, _) | LaneRow::Lanes(lanes) => Some(lanes),
            LaneRow::Broadcast(_) => None,
        }
    }

    /// The row's image-independent part over the window `read` takes from
    /// each scalar operand: bit `i` of the result XORs into the lane
    /// operand at the window's cycle `i` (0 for a lane-only row).
    #[inline(always)]
    fn scalar(&self, read: impl Fn(&[u64]) -> u64) -> u64 {
        match *self {
            LaneRow::Xnor(_, w) => !read(w),
            LaneRow::Lanes(_) => 0,
            LaneRow::Broadcast(s) => read(s),
        }
    }

    /// Panics unless the lane operand covers `clen` cycles and every
    /// scalar operand holds `scalar_words` words.
    fn check(&self, clen: usize, scalar_words: usize) {
        if let Some(lanes) = self.lanes() {
            assert!(lanes.len() >= clen, "lane row: too few lane words");
        }
        if let LaneRow::Xnor(_, s) | LaneRow::Broadcast(s) = *self {
            assert!(s.len() >= scalar_words, "lane row: too few scalar words");
        }
    }
}

/// Slab height of the one compressor both orientations share: the
/// carry-save network (`fold_slab`) of [`lane_counts_stream`] and
/// [`column_counts_into`] adds this many rows per step. Kernels up to this
/// many rows (every conv-1 and pool window in practice) are counted in
/// registers — cycle by cycle across the lanes, or word by word along one
/// image's streams; wider kernels are cut into slabs of this many rows,
/// each folded into a per-block accumulator.
pub const TREE_ROWS: usize = 16;

/// Count bit-planes needed for [`TREE_ROWS`] rows.
const TREE_PLANES: usize = usize::BITS as usize - TREE_ROWS.leading_zeros() as usize;

/// Bits needed to represent `n` (`bit_width(0) == 0`).
#[inline]
fn bit_width(n: usize) -> usize {
    (usize::BITS - n.leading_zeros()) as usize
}

/// 3:2 compressor: the bit-sliced full adder `(a + b + c) = sum + 2·carry`.
#[inline(always)]
fn csa<const W: usize>(a: Stripe<W>, b: Stripe<W>, c: Stripe<W>) -> (Stripe<W>, Stripe<W>) {
    (a ^ b ^ c, (a & b) | (a & c) | (b & c))
}

/// Batch-transposed column counting into plane arrays: after the call,
/// `planes[p][t]` holds bit `p` of each lane's count for cycle `t`
/// (LSB-first lane order within each stripe element). Returns the number
/// of planes written, `bit_width(rows.len())`. A plane-writing adapter
/// over [`lane_counts_stream`] for callers that want the counts in memory.
///
/// `planes` is grown/reused like a scratch arena; its contents on entry are
/// ignored.
pub fn lane_column_planes<const W: usize>(
    rows: &[LaneRow<'_, W>],
    classes: &OffsetClasses<W>,
    clen: usize,
    planes: &mut Vec<Vec<Stripe<W>>>,
) -> usize {
    let used = bit_width(rows.len());
    if planes.len() < used {
        planes.resize_with(used, Vec::new);
    }
    for p in planes.iter_mut().take(used) {
        p.clear();
        p.resize(clen, Stripe::ZERO);
    }
    lane_counts_stream(rows, classes, clen, |t, counts| {
        for (plane, &c) in planes.iter_mut().zip(counts) {
            plane[t] = c;
        }
    });
    used
}

/// Streams per-cycle lane counts to `sink` without materialising plane
/// arrays: for each cycle `t` in `0..clen`, in order, `sink(t, counts)`
/// receives the cycle's per-lane count bit-planes (LSB first,
/// `bit_width(rows.len())` entries). This is the fusion point for the lane
/// FSM sweeps — the consumer folds the counts into its recurrence
/// directly. Scalar operands are read at each lane's class offset in
/// `classes` (see [`LaneRow`]).
///
/// Kernels of at most [`TREE_ROWS`] rows are gathered one cycle at a
/// time, zero-padded to a full slab and reduced by the 16-input
/// carry-save network, so the counts never leave registers. Wider kernels
/// run a two-level compressor in blocks of 64 cycles (one 64-bit window of
/// every scalar operand per class): for every cycle of the block, the
/// same network adds each [`TREE_ROWS`]-row slab into a running count of
/// `bit_width(rows)` planes — the count's four low planes are the
/// network's carry-save state, and its sixteens carry ripples through the
/// planes above. This is Harley–Seal carry-save reduction (Muła, Kurz &
/// Lemire, arXiv:1611.07612) applied to bit-sliced lanes. The block
/// accumulator — at most 64 × 16 stripes — stays L1-resident, and the sink
/// then consumes it cycle by cycle.
///
/// # Panics
///
/// Panics when `rows` exceeds [`MAX_KERNEL_ROWS`], `classes` is empty, a
/// lane operand is shorter than `clen`, or a scalar operand ends before
/// the latest class offset plus `clen`.
#[inline]
pub fn lane_counts_stream<const W: usize, F: FnMut(usize, &[Stripe<W>])>(
    rows: &[LaneRow<'_, W>],
    classes: &OffsetClasses<W>,
    clen: usize,
    mut sink: F,
) {
    assert!(rows.len() <= MAX_KERNEL_ROWS, "lane_counts_stream: too many rows");
    assert!(!classes.is_empty(), "lane_counts_stream: no offset classes");
    let classes = classes.as_slice();
    // Scalar operands must cover `clen` bits past the latest class offset.
    let scalar_words = words_for(classes.iter().map(|&(o, _)| o).max().unwrap_or(0) + clen);
    for r in rows {
        r.check(clen, scalar_words);
    }
    let n = rows.len();
    let max_planes = bit_width(n);
    let zeros = [Stripe::<W>::ZERO; WORD_BITS];
    // One class covers every lane, so its scalar bits splat unmasked: the
    // uniform-offset fast gather.
    let one = classes.len() == 1;
    // The cut slab: each row's lane operand, and its scalar words at every
    // class offset (`words[c·TREE_ROWS + r]`, inline for one class).
    let mut lanes: [&[Stripe<W>]; TREE_ROWS] = [&zeros[..]; TREE_ROWS];
    let mut inline = [0u64; TREE_ROWS];
    let mut spill = Vec::new();
    let words: &mut [u64] = if one {
        &mut inline
    } else {
        spill.resize(TREE_ROWS * classes.len(), 0);
        &mut spill
    };
    // A narrow kernel leaves the slots past its rows at zero: it counts as
    // a full slab.
    let mut x = [Stripe::<W>::ZERO; TREE_ROWS];
    if n <= TREE_ROWS {
        let mut t0 = 0usize;
        while t0 < clen {
            let bw = (clen - t0).min(WORD_BITS);
            cut(rows, classes, t0, bw, &zeros, &mut lanes, words);
            let lanes = &lanes[..n];
            let mut count = |i: usize, x: &[Stripe<W>; TREE_ROWS]| {
                let mut counts = [Stripe::<W>::ZERO; TREE_PLANES];
                fold_slab(x, &mut counts);
                sink(t0 + i, &counts[..max_planes]);
            };
            if one {
                for i in 0..bw {
                    gather::<W, true>(lanes, words, classes, i, &mut x);
                    count(i, &x);
                }
            } else {
                for i in 0..bw {
                    gather::<W, false>(lanes, words, classes, i, &mut x);
                    count(i, &x);
                }
            }
            t0 += bw;
        }
        return;
    }
    let mut acc = [[Stripe::<W>::ZERO; MAX_PLANES]; WORD_BITS];
    let mut t0 = 0usize;
    while t0 < clen {
        let block = &mut acc[..(clen - t0).min(WORD_BITS)];
        for acc_t in block.iter_mut() {
            acc_t[..max_planes].fill(Stripe::ZERO);
        }
        let mut folded = 0usize;
        for slab in rows.chunks(TREE_ROWS) {
            folded += slab.len();
            let planes = bit_width(folded);
            // A short last slab is a full one over zero rows, so the
            // gather always walks all TREE_ROWS slots and fully unrolls.
            cut(slab, classes, t0, block.len(), &zeros, &mut lanes, words);
            if one {
                fold_block::<W, true>(block, planes, &lanes, words, classes, &mut x);
            } else {
                fold_block::<W, false>(block, planes, &lanes, words, classes, &mut x);
            }
        }
        for (i, acc_t) in block.iter().enumerate() {
            sink(t0 + i, &acc_t[..max_planes]);
        }
        t0 += block.len();
    }
}

/// Cuts up to [`TREE_ROWS`] rows to the block `t0 .. t0 + bw`: each row's
/// lane operand into `lanes` (the zero block for broadcast rows), and its
/// scalar part `s_c` over the block at class `c`'s offset into
/// `words[c·TREE_ROWS + r]` — `s_0` for the first class, `s_c ^ s_0` for
/// the others. Slots past the slab get a zero row. Since the class masks
/// partition the lanes, block cycle `i` of row `r` is then
/// `lanes[r][i] ^ splat(bit i of s_0) ^ XOR_{c≥1}(mask_c & splat(bit i of
/// s_c ^ s_0))` — every [`LaneRow`] form is such a pair, so one
/// branch-free gather serves them all, and a uniform group (one class)
/// pays one splat per row and cycle.
#[inline(always)]
fn cut<'a, const W: usize>(
    slab: &[LaneRow<'a, W>],
    classes: &[(usize, Stripe<W>)],
    t0: usize,
    bw: usize,
    zeros: &'a [Stripe<W>],
    lanes: &mut [&'a [Stripe<W>]; TREE_ROWS],
    words: &mut [u64],
) {
    for (r, slot) in lanes.iter_mut().enumerate() {
        let row = slab.get(r);
        *slot = row.and_then(LaneRow::lanes).map_or(zeros, |l| &l[t0..t0 + bw]);
        let part = |off: usize| row.map_or(0, |row| row.scalar(|s| window64(s, off + t0)));
        let first = part(classes[0].0);
        words[r] = first;
        for (c, &(off, _)) in classes.iter().enumerate().skip(1) {
            words[c * TREE_ROWS + r] = part(off) ^ first;
        }
    }
}

/// Block cycle `i` of every cut row into `x` (see [`cut`]). With `ONE`
/// the single class covers every lane: one stripe load and one splat per
/// row, the uniform-offset path; otherwise each later class adds its
/// masked difference to every row, one class at a time so the mask stays
/// in a register.
#[inline(always)]
fn gather<const W: usize, const ONE: bool>(
    lanes: &[&[Stripe<W>]],
    words: &[u64],
    classes: &[(usize, Stripe<W>)],
    i: usize,
    x: &mut [Stripe<W>; TREE_ROWS],
) {
    let splat_bit = |w: u64| Stripe::splat(0u64.wrapping_sub((w >> i) & 1));
    let (first, rest) = words.split_at(TREE_ROWS);
    for ((slot, a), &w) in x.iter_mut().zip(lanes).zip(first) {
        *slot = a[i] ^ splat_bit(w);
    }
    if ONE {
        return;
    }
    for (class, &(_, mask)) in rest.chunks_exact(TREE_ROWS).zip(&classes[1..]) {
        for ((slot, _), &w) in x.iter_mut().zip(lanes).zip(class) {
            *slot ^= mask & splat_bit(w);
        }
    }
}

/// Folds one cut slab into every cycle of a block.
#[inline(always)]
fn fold_block<const W: usize, const ONE: bool>(
    block: &mut [[Stripe<W>; MAX_PLANES]],
    planes: usize,
    lanes: &[&[Stripe<W>]; TREE_ROWS],
    words: &[u64],
    classes: &[(usize, Stripe<W>)],
    x: &mut [Stripe<W>; TREE_ROWS],
) {
    for (i, acc_t) in block.iter_mut().enumerate() {
        gather::<W, ONE>(lanes, words, classes, i, x);
        fold_slab(x, &mut acc_t[..planes]);
    }
}

/// Adds the count of one [`TREE_ROWS`]-row slab `x` into the running
/// binary count `acc` (LSB first, at least 5 planes, wide enough for the
/// new total): the Harley–Seal 16-input carry-save network, 15 full
/// adders with the low four planes as its ones/twos/fours/eights state,
/// then a half-adder ripple of the sixteens carry through the planes
/// above. Each bit position of `x` is one independent column, so the one
/// network counts both orientations: a bit per image at one cycle
/// ([`lane_counts_stream`]) or a bit per cycle of one image
/// ([`column_counts_into`], at `W = 1`).
#[inline(always)]
fn fold_slab<const W: usize>(x: &[Stripe<W>; TREE_ROWS], acc: &mut [Stripe<W>]) {
    let (ones, twos_a) = csa(acc[0], x[0], x[1]);
    let (ones, twos_b) = csa(ones, x[2], x[3]);
    let (twos, fours_a) = csa(acc[1], twos_a, twos_b);
    let (ones, twos_a) = csa(ones, x[4], x[5]);
    let (ones, twos_b) = csa(ones, x[6], x[7]);
    let (twos, fours_b) = csa(twos, twos_a, twos_b);
    let (fours, eights_a) = csa(acc[2], fours_a, fours_b);
    let (ones, twos_a) = csa(ones, x[8], x[9]);
    let (ones, twos_b) = csa(ones, x[10], x[11]);
    let (twos, fours_a) = csa(twos, twos_a, twos_b);
    let (ones, twos_a) = csa(ones, x[12], x[13]);
    let (ones, twos_b) = csa(ones, x[14], x[15]);
    let (twos, fours_b) = csa(twos, twos_a, twos_b);
    let (fours, eights_b) = csa(fours, fours_a, fours_b);
    let (eights, mut carry) = csa(acc[3], eights_a, eights_b);
    acc[0] = ones;
    acc[1] = twos;
    acc[2] = fours;
    acc[3] = eights;
    for plane in acc[4..].iter_mut() {
        let s = *plane;
        *plane = s ^ carry;
        carry &= s;
    }
}

/// Pack up to `64·W` equal-length bit streams into lane layout: `out[t]`
/// holds bit `t` of every member stream, member `g` in lane `g` (bit
/// `g % 64` of element `g / 64`, LSB-first). `out` is resized to `len`
/// stripes; lanes past the member count read as 0.
///
/// # Errors
///
/// [`BitstreamError::Empty`] with no members;
/// [`BitstreamError::LaneCapacity`] with more members than the stripe
/// holds — the typed form of the old 64-stream assertion so retire-and-
/// refill callers can surface oversized groups instead of panicking.
pub fn pack_lanes_into<'a, const W: usize, I>(
    members: I,
    len: usize,
    out: &mut Vec<Stripe<W>>,
) -> Result<(), BitstreamError>
where
    I: IntoIterator<Item = &'a BitStream>,
{
    let members: Vec<&BitStream> = members.into_iter().collect();
    check_lane_capacity::<W>(members.len())?;
    for m in &members {
        assert_eq!(m.len(), len, "pack_lanes_into: length mismatch");
    }
    out.clear();
    out.resize(len, Stripe::ZERO);
    if len == 0 {
        return Ok(());
    }
    let nw = words_for(len);
    let mut mat = [0u64; 64];
    for (e, sub) in members.chunks(WORD_BITS).enumerate() {
        for w in 0..nw {
            mat.fill(0);
            for (g, m) in sub.iter().enumerate() {
                mat[g] = m.words()[w];
            }
            transpose64(&mut mat);
            let cyc0 = w * WORD_BITS;
            let valid = (len - cyc0).min(WORD_BITS);
            for (r, &row) in mat[..valid].iter().enumerate() {
                out[cyc0 + r].0[e] = row;
            }
        }
    }
    Ok(())
}

/// 64 bits of a word-packed scalar stream starting at bit `pos`. Bits
/// beyond the stream's storage read as 0 (the stream's own tail bits are
/// already masked by [`BitStream`]'s invariants).
#[inline]
fn window64(words: &[u64], pos: usize) -> u64 {
    let i = pos / WORD_BITS;
    let s = pos % WORD_BITS;
    if i >= words.len() {
        return 0;
    }
    let lo = words[i] >> s;
    if s == 0 || i + 1 >= words.len() {
        lo
    } else {
        lo | (words[i + 1] << (WORD_BITS - s))
    }
}

/// Unpack lane layout back into per-image [`BitStream`]s: stream `g`
/// receives lane `g` of every stripe. Each stream in `outs` is overwritten
/// with a `len`-bit stream.
///
/// # Errors
///
/// [`BitstreamError::Empty`] with no output streams;
/// [`BitstreamError::LaneCapacity`] with more streams than the stripe
/// holds.
pub fn unpack_lanes_into<const W: usize>(
    lanes: &[Stripe<W>],
    len: usize,
    outs: &mut [BitStream],
) -> Result<(), BitstreamError> {
    check_lane_capacity::<W>(outs.len())?;
    assert!(lanes.len() >= len, "unpack_lanes_into: too few lane words");
    let nw = words_for(len);
    let mut mats: Vec<[u64; 64]> = vec![[0u64; 64]; nw];
    for (e, sub) in outs.chunks_mut(WORD_BITS).enumerate() {
        for (w, mat) in mats.iter_mut().enumerate() {
            let cyc0 = w * WORD_BITS;
            let valid = (len - cyc0).min(WORD_BITS);
            for (r, m) in mat[..valid].iter_mut().enumerate() {
                *m = lanes[cyc0 + r].0[e];
            }
            mat[valid..].fill(0);
            transpose64(mat);
        }
        for (g, out) in sub.iter_mut().enumerate() {
            out.fill_words_with(len, |w, _| mats[w][g]);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    fn rand_stream(seed: u64, len: usize) -> BitStream {
        let mut rng = SplitMix64::new(seed);
        BitStream::from_fn(len, |_| rng.next_u64() & 1 == 1)
    }

    fn naive_counts(rows: &[KernelRow<'_>], len: usize) -> Vec<u32> {
        let mut counts = vec![0u32; len];
        for (c, cnt) in counts.iter_mut().enumerate() {
            for r in rows {
                let bit = (r.word(c / 64, 0) >> (c % 64)) & 1;
                *cnt += bit as u32;
            }
        }
        counts
    }

    #[test]
    fn transpose8_matches_naive() {
        let mut rng = SplitMix64::new(99);
        for _ in 0..50 {
            let x = rng.next_u64();
            let y = transpose8(x);
            for r in 0..8 {
                for c in 0..8 {
                    let orig = (x >> (8 * r + c)) & 1;
                    let t = (y >> (8 * c + r)) & 1;
                    assert_eq!(orig, t, "bit ({r},{c}) of {x:#x}");
                }
            }
        }
    }

    #[test]
    fn transpose64_matches_naive() {
        let mut rng = SplitMix64::new(7);
        let mut a = [0u64; 64];
        for w in a.iter_mut() {
            *w = rng.next_u64();
        }
        let orig = a;
        transpose64(&mut a);
        #[allow(clippy::needless_range_loop)] // r/c index both matrices
        for r in 0..64 {
            for c in 0..64 {
                assert_eq!((orig[r] >> c) & 1, (a[c] >> r) & 1, "bit ({r},{c})");
            }
        }
        // Involution.
        transpose64(&mut a);
        assert_eq!(a, orig);
    }

    #[test]
    fn stripe_ops_are_elementwise() {
        let a = Stripe([0b1100u64, u64::MAX, 0, 7]);
        let b = Stripe([0b1010u64, 1, u64::MAX, 0]);
        assert_eq!((a & b).0, [0b1000, 1, 0, 0]);
        assert_eq!((a | b).0, [0b1110, u64::MAX, u64::MAX, 7]);
        assert_eq!((a ^ b).0, [0b0110, u64::MAX - 1, u64::MAX, 7]);
        assert_eq!((!Stripe::<4>::ZERO).0, [u64::MAX; 4]);
        assert_eq!(Stripe::<4>::splat(5).0, [5; 4]);
        assert!(Stripe::<4>::ZERO.is_zero());
        assert!(!a.is_zero());
        let mask = Stripe([0, 0, 1u64 << 5, 0]);
        assert_eq!(mask.get(2 * 64 + 5), 1);
        assert_eq!(mask.get(5), 0);
    }

    #[test]
    fn column_counts_match_naive_ragged() {
        for &len in &[1usize, 63, 64, 65, 130, 511, 512, 700] {
            let streams: Vec<BitStream> = (0..9).map(|i| rand_stream(i, len)).collect();
            let weights: Vec<BitStream> = (0..9).map(|i| rand_stream(100 + i, len)).collect();
            let mut rows: Vec<KernelRow<'_>> = streams
                .iter()
                .zip(&weights)
                .map(|(s, w)| KernelRow::Xnor(s.words(), w.words()))
                .collect();
            rows.push(KernelRow::Broadcast(streams[0].words()));
            let mut counts = Vec::new();
            column_counts_into(&rows, 0, len, &mut counts);
            assert_eq!(counts, naive_counts(&rows, len), "len {len}");
        }
    }

    #[test]
    fn column_counts_many_rows_overflow_byte() {
        // >255 rows exercises multi-byte-group extraction.
        let len = 70usize;
        let s = BitStream::ones(len);
        let rows: Vec<KernelRow<'_>> = (0..300).map(|_| KernelRow::Broadcast(s.words())).collect();
        let mut counts = Vec::new();
        column_counts_into(&rows, 0, len, &mut counts);
        assert!(counts.iter().all(|&c| c == 300));
    }

    #[test]
    #[should_panic(expected = "too few scalar words")]
    fn column_counts_reject_windows_past_the_stream() {
        let image = rand_stream(2, 51);
        let weight = rand_stream(3, 100);
        let rows = [KernelRow::Xnor(image.words(), weight.words())];
        let mut counts = Vec::new();
        column_counts_into(&rows, 100, 51, &mut counts);
    }

    #[test]
    fn pack_unpack_round_trip() {
        for &(n, len) in &[(1usize, 64usize), (5, 100), (64, 512), (64, 130), (17, 65)] {
            let streams: Vec<BitStream> =
                (0..n as u64).map(|i| rand_stream(i * 31 + 1, len)).collect();
            let mut lanes: Vec<Stripe<1>> = Vec::new();
            pack_lanes_into(&streams, len, &mut lanes).unwrap();
            // Lane word t bit g == stream g bit t.
            for t in (0..len).step_by(17) {
                for (g, s) in streams.iter().enumerate() {
                    assert_eq!(lanes[t].get(g) == 1, s.get(t).unwrap(), "({g},{t})");
                }
            }
            let mut outs: Vec<BitStream> = (0..n).map(|_| BitStream::zeros(0)).collect();
            unpack_lanes_into(&lanes, len, &mut outs).unwrap();
            assert_eq!(outs, streams, "n {n} len {len}");
        }
    }

    #[test]
    fn pack_unpack_round_trip_wide_stripes() {
        // Ragged last stripes: member counts that straddle element
        // boundaries of a W=4 stripe.
        for &(n, len) in &[(65usize, 100usize), (130, 65), (192, 130), (256, 70), (70, 1)] {
            let streams: Vec<BitStream> =
                (0..n as u64).map(|i| rand_stream(i * 17 + 3, len)).collect();
            let mut lanes: Vec<Stripe<4>> = Vec::new();
            pack_lanes_into(&streams, len, &mut lanes).unwrap();
            for t in (0..len).step_by(13) {
                for (g, s) in streams.iter().enumerate() {
                    assert_eq!(lanes[t].get(g) == 1, s.get(t).unwrap(), "({g},{t})");
                }
                // Lanes past the member count stay zero.
                for g in n..MAX_LANES {
                    assert_eq!(lanes[t].get(g), 0, "unused lane {g} cycle {t}");
                }
            }
            let mut outs: Vec<BitStream> = (0..n).map(|_| BitStream::zeros(0)).collect();
            unpack_lanes_into(&lanes, len, &mut outs).unwrap();
            assert_eq!(outs, streams, "n {n} len {len}");
        }
    }

    #[test]
    fn pack_and_unpack_report_capacity_errors() {
        let streams: Vec<BitStream> = (0..65u64).map(|i| rand_stream(i, 32)).collect();
        let mut lanes: Vec<Stripe<1>> = Vec::new();
        assert_eq!(
            pack_lanes_into(&streams, 32, &mut lanes),
            Err(BitstreamError::LaneCapacity { lanes: 65, capacity: 64 })
        );
        assert_eq!(
            pack_lanes_into::<1, _>(std::iter::empty(), 32, &mut lanes),
            Err(BitstreamError::Empty)
        );
        let packed = vec![Stripe::<1>::ZERO; 32];
        let mut outs: Vec<BitStream> = (0..65).map(|_| BitStream::zeros(0)).collect();
        assert_eq!(
            unpack_lanes_into(&packed, 32, &mut outs),
            Err(BitstreamError::LaneCapacity { lanes: 65, capacity: 64 })
        );
    }

    #[test]
    fn lane_planes_match_scalar_counts() {
        let n_lanes = 64usize;
        let clen = 130usize;
        let acts: Vec<Vec<BitStream>> = (0..3)
            .map(|j| {
                (0..n_lanes as u64)
                    .map(|g| rand_stream(j * 1000 + g, clen))
                    .collect()
            })
            .collect();
        let w: Vec<BitStream> = (0..3).map(|j| rand_stream(5000 + j, clen)).collect();
        let bias = rand_stream(9000, clen);
        let neutral = rand_stream(9001, clen);

        let mut lanes: Vec<Vec<Stripe<1>>> = vec![Vec::new(); 3];
        for (j, a) in acts.iter().enumerate() {
            pack_lanes_into(a, clen, &mut lanes[j]).unwrap();
        }
        let classes = OffsetClasses::from_offsets([0]);
        let pad: Vec<Stripe<1>> = (0..clen)
            .map(|t| LaneRow::Broadcast(neutral.words()).word(t, &classes))
            .collect();
        let rows = [
            LaneRow::Xnor(&lanes[0], w[0].words()),
            LaneRow::Xnor(&lanes[1], w[1].words()),
            LaneRow::Xnor(&lanes[2], w[2].words()),
            LaneRow::Broadcast(bias.words()),
            LaneRow::Xnor(&pad, w[0].words()),
        ];
        let mut planes = Vec::new();
        let used = lane_column_planes(&rows, &classes, clen, &mut planes);
        assert!(used <= 3);

        for g in 0..n_lanes {
            for t in (0..clen).step_by(13) {
                let mut expect = 0u32;
                for (j, a) in acts.iter().enumerate() {
                    let xnor = !(a[g].get(t).unwrap() ^ w[j].get(t).unwrap());
                    expect += u32::from(xnor);
                }
                expect += u32::from(bias.get(t).unwrap());
                expect += u32::from(!(neutral.get(t).unwrap() ^ w[0].get(t).unwrap()));
                let mut got = 0u32;
                for (p, plane) in planes.iter().take(used).enumerate() {
                    got += (plane[t].get(g) as u32) << p;
                }
                assert_eq!(got, expect, "lane {g} cycle {t}");
            }
        }
    }

    #[test]
    fn lane_planes_wide_stripe_matches_w1_per_subgroup() {
        // A W=4 group must produce, in stripe element e, exactly the planes
        // a W=1 run over lanes 64e..64e+64 produces — stripes are pure
        // lane-parallel width, never arithmetic.
        let n_lanes = 200usize; // ragged: 3 full elements + 8 lanes
        let clen = 97usize;
        let acts: Vec<BitStream> =
            (0..n_lanes as u64).map(|g| rand_stream(40_000 + g, clen)).collect();
        let w = rand_stream(41_000, clen);
        let bias = rand_stream(41_001, clen);

        let mut wide: Vec<Stripe<4>> = Vec::new();
        pack_lanes_into(&acts, clen, &mut wide).unwrap();
        let rows4 = [LaneRow::Xnor(&wide, w.words()), LaneRow::Broadcast(bias.words())];
        let mut planes4 = Vec::new();
        let at0 = OffsetClasses::from_offsets([0]);
        let used4 = lane_column_planes(&rows4, &at0, clen, &mut planes4);

        for (e, sub) in acts.chunks(WORD_BITS).enumerate() {
            let mut narrow: Vec<Stripe<1>> = Vec::new();
            pack_lanes_into(sub, clen, &mut narrow).unwrap();
            let rows1 = [LaneRow::Xnor(&narrow, w.words()), LaneRow::Broadcast(bias.words())];
            let mut planes1 = Vec::new();
            let at0 = OffsetClasses::from_offsets([0]);
            let used1 = lane_column_planes(&rows1, &at0, clen, &mut planes1);
            assert_eq!(used4, used1);
            for p in 0..used4 {
                for t in 0..clen {
                    assert_eq!(
                        planes4[p][t].0[e], planes1[p][t].0[0],
                        "element {e} plane {p} cycle {t}"
                    );
                }
            }
        }
    }

    #[test]
    fn offset_classes_group_lanes_by_offset() {
        // One shared offset is a single class over every lane, padding
        // lanes included.
        let uniform = OffsetClasses::<2>::from_offsets([7; 70]);
        assert_eq!(uniform.as_slice(), &[(7, !Stripe::ZERO)]);
        assert_eq!(uniform, OffsetClasses::from_offsets([7]));
        // Mixed offsets: classes in first-lane order whose masks partition
        // the stripe, lanes past the group in the first class.
        let offsets: Vec<usize> = (0..100).map(|g| [3, 0, 64, 3][g % 4]).collect();
        let classes = OffsetClasses::<2>::from_offsets(offsets.iter().copied());
        let got: Vec<usize> = classes.as_slice().iter().map(|&(o, _)| o).collect();
        assert_eq!(got, [3, 0, 64]);
        for g in 0..128 {
            let owners: Vec<usize> = classes
                .as_slice()
                .iter()
                .filter(|(_, m)| m.get(g) == 1)
                .map(|&(o, _)| o)
                .collect();
            assert_eq!(owners, [offsets.get(g).copied().unwrap_or(3)], "lane {g}");
        }
        let mut reused = classes;
        reused.regroup([5]);
        assert_eq!(reused, OffsetClasses::from_offsets([5]));
        reused.regroup(std::iter::empty());
        assert!(reused.is_empty());
    }

    /// Every row form under a class table against a per-bit reference,
    /// both as counted planes and as `LaneRow::word`: lane `g` reads its
    /// scalar operands at `offsets[g] + t`.
    fn check_class_rows<const W: usize>(offsets: &[usize], clen: usize, seed: u64) {
        let bit_len = offsets.iter().max().unwrap() + clen;
        let (w, u) = (rand_stream(seed, bit_len), rand_stream(seed + 1, bit_len));
        let acts: Vec<BitStream> =
            (0..offsets.len() as u64).map(|g| rand_stream(seed * 7 + g, clen)).collect();
        let mut lanes: Vec<Stripe<W>> = Vec::new();
        pack_lanes_into(&acts, clen, &mut lanes).unwrap();
        let classes = OffsetClasses::from_offsets(offsets.iter().copied());
        let u_plane: Vec<Stripe<W>> = (0..clen)
            .map(|t| LaneRow::Broadcast(u.words()).word(t, &classes))
            .collect();
        let rows = [
            LaneRow::Xnor(&lanes, w.words()),
            LaneRow::Lanes(&lanes),
            LaneRow::Broadcast(w.words()),
            LaneRow::Xnor(&u_plane, w.words()),
        ];
        let mut planes = Vec::new();
        let used = lane_column_planes(&rows, &classes, clen, &mut planes);
        for (g, (act, &o)) in acts.iter().zip(offsets).enumerate() {
            #[allow(clippy::needless_range_loop)] // t indexes streams, rows and planes alike
            for t in 0..clen {
                let x = act.get(t).unwrap();
                let (wb, ub) = (w.get(o + t).unwrap(), u.get(o + t).unwrap());
                let bits = [x == wb, x, wb, wb == ub];
                for (row, &bit) in rows.iter().zip(&bits) {
                    let got = row.word(t, &classes).get(g) == 1;
                    assert_eq!(got, bit, "lane {g} offset {o} cycle {t}");
                }
                let got: u32 = (0..used).map(|p| (planes[p][t].get(g) as u32) << p).sum();
                let want = bits.iter().map(|&b| u32::from(b)).sum::<u32>();
                assert_eq!(got, want, "count, lane {g} offset {o} cycle {t}");
            }
        }
    }

    #[test]
    fn class_rows_match_per_bit_gather() {
        for &(n, clen) in &[(1usize, 64usize), (3, 100), (64, 65), (17, 130), (40, 1)] {
            let offsets: Vec<usize> = (0..n).map(|g| (g * 37 + 5) % 23).collect();
            check_class_rows::<1>(&offsets, clen, n as u64);
        }
    }

    #[test]
    fn class_rows_wide_stripe_match_per_bit_gather() {
        for &(n, clen) in &[(65usize, 64usize), (128, 100), (200, 65), (256, 33)] {
            let offsets: Vec<usize> = (0..n).map(|g| (g * 29 + 3) % 11 * 32).collect();
            check_class_rows::<4>(&offsets, clen, n as u64);
        }
        // One shared unaligned offset takes the one-class path.
        check_class_rows::<4>(&[45; 150], 130, 9);
    }

    #[test]
    #[should_panic(expected = "too few scalar words")]
    fn class_rows_reject_windows_past_the_stream() {
        let stream = rand_stream(3, 100);
        let classes = OffsetClasses::<1>::from_offsets([0, 100]);
        let mut planes = Vec::new();
        lane_column_planes(&[LaneRow::Broadcast(stream.words())], &classes, 51, &mut planes);
    }
}
