//! The one driver pair behind all three neuron FSMs.
//!
//! Sorter feature extraction ([`FeatureExtraction`](crate::FeatureExtraction),
//! Algorithm 1), sorter average pooling
//! ([`AveragePooling`](crate::AveragePooling), Algorithm 2) and the CMOS
//! baseline's saturating counter ([`baseline::Btanh`](crate::baseline::Btanh))
//! run the same loop: each cycle they add a column count into one bounded
//! integer state and emit one bit. Each implements [`LaneFsm`] — its own
//! rule, written once as a scalar step and as a bit-sliced step — and this
//! module runs that rule two ways:
//!
//! - [`run_words`] steps one neuron's state over a chunk of `u32` counts,
//!   assembling each 64-cycle output word in a register;
//! - [`run_lanes`] counts each cycle's kernel rows for up to `64·W` images
//!   at once (`lane_counts_stream`: plane `p` of cycle `t` holds bit `p` of
//!   every lane's count, lane `g` in bit `g % 64` of stripe element
//!   `g / 64`) and folds the counts straight into the bit-sliced step,
//!   which evaluates the recurrence for every lane per stripe op in
//!   ripple-carry bit-plane arithmetic ([`add_sub`], [`at_least`],
//!   [`add_sub_clamp`]). It packs the caller's `i64` states into planes,
//!   monomorphises the sweep on the FSM's plane width — so the plane loops
//!   fully unroll and the state planes stay in registers across the chunk —
//!   and unpacks them again.
//!
//! Neither driver branches on which FSM it runs. Plane arrays are fixed at
//! [`PLANES`] stripes — wide enough for `2 · MAX_KERNEL_ROWS` (the largest
//! `count + state` sum any FSM can see) — and every helper walks only the
//! caller's active width.

use aqfp_sc_bitstream::{lane_counts_stream, BitStream, LaneRow, OffsetClasses, Stripe, WORD_BITS};

/// Bit planes per lane integer: covers sums up to `2^PLANES − 1`, i.e.
/// `count + state` for the widest supported kernel (65 535 rows).
pub(crate) const PLANES: usize = 18;

/// `64·W` lane-parallel unsigned integers in LSB-first bit-plane form.
pub(crate) type Planes<const W: usize> = [Stripe<W>; PLANES];

/// One neuron FSM's per-cycle rule: fold the cycle's column count into a
/// bounded non-negative state and emit one bit.
pub(crate) trait LaneFsm {
    /// Bit planes that hold every value [`LaneFsm::lane_step`] forms.
    fn planes(&self) -> usize;

    /// Folds one cycle's `count` into `state` and returns the output bit.
    fn step(&self, state: &mut i64, count: u32) -> bool;

    /// [`LaneFsm::step`] for `64·W` lanes at once, on states held in
    /// `P ≥` [`LaneFsm::planes`] bit planes (the planes above the active
    /// width carry zeros, which cannot disturb the result). `counts[p]` is
    /// plane `p` of the cycle's column count (zero at and above
    /// `counts.len()`). Returns the lanes' output bits.
    fn lane_step<const W: usize, const P: usize>(
        &self,
        state: &mut [Stripe<W>; P],
        counts: &[Stripe<W>],
    ) -> Stripe<W>;
}

/// Steps `state` over a chunk of per-cycle `counts` into `out` (reusing its
/// allocation). Threading `state` through successive chunks is
/// bit-identical to one whole-sequence call.
pub(crate) fn run_words<F: LaneFsm>(fsm: &F, counts: &[u32], state: &mut i64, out: &mut BitStream) {
    // The state lives in a register across the chunk; each output word is
    // assembled from 64 steps and stored once.
    let mut s = *state;
    out.fill_words_with(counts.len(), |w, n| {
        let mut word = 0u64;
        for (i, &c) in counts[w * WORD_BITS..w * WORD_BITS + n].iter().enumerate() {
            word |= u64::from(fsm.step(&mut s, c)) << i;
        }
        word
    });
    *state = s;
}

/// Counts each cycle's `rows` for up to `64·W` lanes at once
/// (`lane_counts_stream`, scalar operands read at each lane's class offset
/// in `classes`) and folds the counts into [`LaneFsm::lane_step`]. `states`
/// holds each active lane's state (lane `g` is `states[g]`) and is updated
/// in place; lane `g` of `out[t]` is lane `g`'s output bit. Lanes at or
/// above `states.len()` compute garbage. Per lane, chunking with
/// `states[g]` threaded through is bit-identical to [`run_words`] on that
/// lane's counts, for any stripe width `W`.
///
/// # Panics
///
/// Panics when more than `64·W` lanes are given, `out` is shorter than
/// `clen`, or a row is shorter than `clen`.
pub(crate) fn run_lanes<F: LaneFsm, const W: usize>(
    fsm: &F,
    rows: &[LaneRow<'_, W>],
    classes: &OffsetClasses<W>,
    clen: usize,
    states: &mut [i64],
    out: &mut [Stripe<W>],
) {
    assert!(states.len() <= WORD_BITS * W, "run_rows: too many lanes for stripe");
    assert!(out.len() >= clen, "run_rows: output buffer too short");
    let width = fsm.planes().min(PLANES);
    let mut planes: Planes<W> = [Stripe::ZERO; PLANES];
    pack_states(states, &mut planes, width);
    let (io, out) = (&mut planes, &mut out[..clen]);
    // Monomorphise the sweep on the plane width: with `P` a constant the
    // plane loops fully unroll and the state planes live in registers
    // across the whole chunk.
    match width {
        0..=2 => sweep::<F, W, 2>(fsm, rows, classes, clen, io, out),
        3 => sweep::<F, W, 3>(fsm, rows, classes, clen, io, out),
        4 => sweep::<F, W, 4>(fsm, rows, classes, clen, io, out),
        5 => sweep::<F, W, 5>(fsm, rows, classes, clen, io, out),
        6 => sweep::<F, W, 6>(fsm, rows, classes, clen, io, out),
        7 => sweep::<F, W, 7>(fsm, rows, classes, clen, io, out),
        8 => sweep::<F, W, 8>(fsm, rows, classes, clen, io, out),
        _ => sweep::<F, W, PLANES>(fsm, rows, classes, clen, io, out),
    }
    unpack_states(&planes, states, width);
}

/// The register-resident sweep of [`run_lanes`] at a compile-time plane
/// width `P ≥` the FSM's width.
#[inline(always)]
fn sweep<F: LaneFsm, const W: usize, const P: usize>(
    fsm: &F,
    rows: &[LaneRow<'_, W>],
    classes: &OffsetClasses<W>,
    clen: usize,
    io: &mut Planes<W>,
    out: &mut [Stripe<W>],
) {
    let mut state = [Stripe::<W>::ZERO; P];
    state.copy_from_slice(&io[..P]);
    lane_counts_stream(rows, classes, clen, |t, counts| out[t] = fsm.lane_step(&mut state, counts));
    io[..P].copy_from_slice(&state);
}

/// Fused ripple add and constant subtract over `P` planes:
/// `T = a + (counts << shift)` and `D = T − k` in one sweep (the carry and
/// the borrow advance in lockstep). Returns `(T, D, [T ≥ k])`; lanes with
/// `T < k` hold `D` wrapped. The caller guarantees `T` and `k` fit in `P`
/// bits. Each plane's subtract specialises on its bit of `k` (bit 1:
/// `D = ¬(T ⊕ b)`, `b' = ¬T ∨ b`; bit 0: `D = T ⊕ b`, `b' = ¬T ∧ b`).
#[inline(always)]
pub(crate) fn add_sub<const W: usize, const P: usize>(
    a: &[Stripe<W>; P],
    counts: &[Stripe<W>],
    shift: usize,
    k: u64,
) -> ([Stripe<W>; P], [Stripe<W>; P], Stripe<W>) {
    let mut sum = [Stripe::<W>::ZERO; P];
    let mut diff = [Stripe::<W>::ZERO; P];
    let mut carry = Stripe::ZERO;
    let mut borrow = Stripe::ZERO;
    for p in 0..P {
        let y = a[p];
        let s = match p.checked_sub(shift).and_then(|q| counts.get(q)) {
            Some(&x) => {
                let s = x ^ y ^ carry;
                carry = (x & y) | (carry & (x ^ y));
                s
            }
            None => {
                let s = y ^ carry;
                carry &= y;
                s
            }
        };
        sum[p] = s;
        if (k >> p) & 1 == 1 {
            diff[p] = !(s ^ borrow);
            borrow |= !s;
        } else {
            diff[p] = s ^ borrow;
            borrow &= !s;
        }
    }
    (sum, diff, !borrow)
}

/// Mask of lanes where `a ≥ k` (the complemented borrow of `a − k`); `k`
/// must fit in `P` bits.
#[inline(always)]
pub(crate) fn at_least<const W: usize, const P: usize>(a: &[Stripe<W>; P], k: u64) -> Stripe<W> {
    let mut borrow = Stripe::ZERO;
    for (p, &x) in a.iter().enumerate() {
        if (k >> p) & 1 == 1 {
            borrow |= !x;
        } else {
            borrow &= !x;
        }
    }
    !borrow
}

/// `a' = clamp(a + (counts << shift) − k, 0, cap)` per lane over `P`
/// planes, which must hold `a + (counts << shift)` and `cap + 1`. Returns
/// the mask of lanes where `a + (counts << shift) ≥ k`, the ones that did
/// not floor at 0.
#[inline(always)]
pub(crate) fn add_sub_clamp<const W: usize, const P: usize>(
    a: &mut [Stripe<W>; P],
    counts: &[Stripe<W>],
    shift: usize,
    k: u64,
    cap: u64,
) -> Stripe<W> {
    let (_, mut diff, ge) = add_sub(a, counts, shift, k);
    // Floor: mask the wrapped lanes to 0, which never exceeds the cap, so
    // the cap cannot be spuriously selected on them.
    for d in &mut diff {
        *d &= ge;
    }
    let over = at_least(&diff, cap + 1);
    for (p, (x, d)) in a.iter_mut().zip(diff).enumerate() {
        *x = if (cap >> p) & 1 == 1 { d | over } else { d & !over };
    }
    ge
}

/// Packs per-lane integer states into bit planes (lane `g` → bit `g % 64`
/// of element `g / 64`), touching only the first `width` planes per lane —
/// this runs once per neuron per chunk on the hot path, so the per-lane
/// loop must not walk all [`PLANES`] when the active width is 4–5. Every
/// plane is zeroed first, so planes at or above `width` read as zero.
/// Values must be non-negative and fit in `width` bits.
pub(crate) fn pack_states<const W: usize>(
    states: &[i64],
    planes: &mut Planes<W>,
    width: usize,
) {
    planes.fill(Stripe::ZERO);
    for (g, &s) in states.iter().enumerate() {
        debug_assert!(
            (0..(1i64 << width.min(PLANES))).contains(&s),
            "lane state out of range"
        );
        let (e, bit) = (g / WORD_BITS, g % WORD_BITS);
        for (p, plane) in planes.iter_mut().enumerate().take(width) {
            plane.0[e] |= (((s as u64) >> p) & 1) << bit;
        }
    }
}

/// Unpacks bit planes back into per-lane integer states, reading only the
/// first `width` planes (the runners keep everything above the active
/// width at zero).
pub(crate) fn unpack_states<const W: usize>(
    planes: &Planes<W>,
    states: &mut [i64],
    width: usize,
) {
    for (g, s) in states.iter_mut().enumerate() {
        let mut v = 0u64;
        for (p, plane) in planes.iter().enumerate().take(width) {
            v |= plane.get(g) << p;
        }
        *s = v as i64;
    }
}

/// Bits needed to represent `v` (`bit_width(0) == 0`).
#[inline]
pub(crate) fn bit_width(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Lane-packed kernel rows whose per-cycle column counts are `counts`:
/// row `j` holds lane `g`'s bit at cycle `t` iff `j < counts[g][t]`, so
/// the fused lane entries see exactly the given count sequences. Every
/// count must be at most `rows`.
#[cfg(test)]
pub(crate) fn count_rows<const W: usize>(
    counts: &[Vec<u32>],
    rows: usize,
    clen: usize,
) -> Vec<Vec<Stripe<W>>> {
    let mut out = vec![vec![Stripe::<W>::ZERO; clen]; rows];
    for (g, cs) in counts.iter().enumerate() {
        for (t, &c) in cs.iter().enumerate() {
            assert!(c as usize <= rows, "count exceeds the row count");
            for row in out.iter_mut().take(c as usize) {
                row[t].0[g / WORD_BITS] |= 1u64 << (g % WORD_BITS);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::Btanh;
    use crate::{AveragePooling, FeatureExtraction};

    /// Runs `fsm` through [`run_lanes`] at W = 2 on 101 ragged lanes of
    /// distinct count sequences (`rows` kernel rows), in uneven resumed
    /// chunks, against [`run_words`] per lane: output bits and final state.
    fn check_lanes_match_words<F: LaneFsm>(fsm: &F, rows: usize, what: &str) {
        const W: usize = 2;
        let (lanes_n, clen) = (101usize, 150usize);
        // Bursts of near-full columns drive the states into their upper
        // clamps; the stretches between them drain the states again.
        let counts: Vec<Vec<u32>> = (0..lanes_n)
            .map(|g| {
                (0..clen)
                    .map(|t| {
                        let c = if ((t + g) / 24).is_multiple_of(2) {
                            rows - ((t + g) % 3).min(rows)
                        } else {
                            (t * 7 + g * 13) % (rows + 1)
                        };
                        c as u32
                    })
                    .collect()
            })
            .collect();
        let lane_rows = count_rows::<W>(&counts, rows, clen);
        let classes = OffsetClasses::from_offsets([0]);
        let mut states = vec![0i64; lanes_n];
        let mut out = vec![Stripe::<W>::ZERO; clen];
        for (pos, c) in [(0usize, 1usize), (1, 63), (64, 65), (129, 21)] {
            let chunk: Vec<LaneRow<'_, W>> =
                lane_rows.iter().map(|row| LaneRow::Lanes(&row[pos..pos + c])).collect();
            run_lanes(fsm, &chunk, &classes, c, &mut states, &mut out[pos..pos + c]);
        }
        for (g, cs) in counts.iter().enumerate() {
            let (mut state, mut want) = (0i64, BitStream::zeros(0));
            run_words(fsm, cs, &mut state, &mut want);
            for (t, bit) in want.iter().enumerate() {
                assert_eq!(out[t].get(g) == 1, bit, "{what}: lane {g}, cycle {t}");
            }
            assert_eq!(states[g], state, "{what}: final state, lane {g}");
        }
    }

    #[test]
    fn every_width_arm_matches_the_word_runner() {
        // FE fan-ins 1, 3, …, 129 need plane widths 2–8 and then 9, which
        // runs the PLANES arm; pool windows 1–16 need widths 2–6; Btanh
        // over the same fan-ins plus 0 needs widths 3–8 and then 9 and 10
        // (at fan-in 0 for its cap `max + 1`, not for its sums).
        let fans = [1usize, 3, 5, 9, 17, 33, 65, 129];
        let mut widths = Vec::new();
        for &n in &fans {
            let fe = FeatureExtraction::new(n);
            check_lanes_match_words(&fe, fe.width(), &format!("FE fan-in {n}"));
            widths.push(fe.planes());
        }
        assert_eq!(widths, [2, 3, 4, 5, 6, 7, 8, 9]);
        widths.clear();
        for m in [1usize, 4, 9, 16] {
            let pool = AveragePooling::new(m);
            check_lanes_match_words(&pool, m, &format!("pool window {m}"));
            widths.push(pool.planes());
        }
        assert_eq!(widths, [2, 4, 5, 6]);
        widths.clear();
        for m in [0].into_iter().chain(fans) {
            let btanh = Btanh::new(m);
            check_lanes_match_words(&btanh, m, &format!("Btanh fan-in {m}"));
            widths.push(btanh.planes());
        }
        assert_eq!(widths, [3, 3, 4, 5, 6, 7, 8, 9, 10]);
    }

    #[test]
    fn pack_unpack_round_trip() {
        let vals: Vec<i64> = (0..40).map(|g| (g * 77 + 3) % 1000).collect();
        let mut planes = [Stripe::<1>::ZERO; PLANES];
        pack_states(&vals, &mut planes, 10);
        let mut back = vec![0i64; 40];
        unpack_states(&planes, &mut back, 10);
        assert_eq!(back, vals);
    }

    #[test]
    fn pack_unpack_round_trip_wide_stripe() {
        let vals: Vec<i64> = (0..250).map(|g| (g * 77 + 3) % 1000).collect();
        let mut planes = [Stripe::<4>::ZERO; PLANES];
        pack_states(&vals, &mut planes, 10);
        let mut back = vec![0i64; 250];
        unpack_states(&planes, &mut back, 10);
        assert_eq!(back, vals);
    }
}
