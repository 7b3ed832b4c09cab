//! Bit-sliced lane arithmetic for the lane-parallel FSM runners.
//!
//! The batch-transposed execution path counts XNOR columns for up to
//! `64·W` images at once (`lane_counts_stream`: plane `p` of cycle `t`
//! holds bit `p` of every lane's count, lane `g` in bit `g % 64` of stripe
//! element `g / 64`). Running each lane's activation FSM serially on
//! extracted `u32` counts would throw that parallelism away — the
//! per-cycle recurrences of [`FeatureExtraction`](crate::FeatureExtraction),
//! [`AveragePooling`](crate::AveragePooling) and
//! [`baseline::Btanh`](crate::baseline::Btanh) are all of the form
//! `t = state + count; fire = t ≥ K; state' = clamp/select(t − K)`, which
//! this module evaluates for all `64·W` lanes per stripe-op using
//! ripple-carry bit-plane arithmetic: one [`Stripe<W>`] holds bit `p` of
//! `64·W` independent integers, and every stripe op is a straight-line
//! `[u64; W]` loop LLVM auto-vectorises.
//!
//! Plane arrays are fixed at [`PLANES`] stripes — wide enough for
//! `2 · MAX_KERNEL_ROWS` (the largest `count + state` sum any FSM can see)
//! — and every helper walks only the caller's active width.

use aqfp_sc_bitstream::{Stripe, WORD_BITS};

/// Bit planes per lane integer: covers sums up to `2^PLANES − 1`, i.e.
/// `count + state` for the widest supported kernel (65 535 rows).
pub(crate) const PLANES: usize = 18;

/// `64·W` lane-parallel unsigned integers in LSB-first bit-plane form.
pub(crate) type Planes<const W: usize> = [Stripe<W>; PLANES];

/// `out = a + b` per lane over `width` planes. The caller guarantees the
/// true sums fit in `width` bits (the final carry is discarded).
///
/// Reference implementation: the production runners inline this ripple
/// carry fused with the subtract chains; tests pin the primitive here.
#[cfg(test)]
#[inline]
pub(crate) fn add<const W: usize>(
    a: &Planes<W>,
    b: &Planes<W>,
    width: usize,
    out: &mut Planes<W>,
) {
    let mut carry = Stripe::ZERO;
    for p in 0..width {
        let (x, y) = (a[p], b[p]);
        out[p] = x ^ y ^ carry;
        carry = (x & y) | (carry & (x ^ y));
    }
}

/// `out = a − k` per lane over `width` planes (two's complement; lanes that
/// underflow hold wrapped values). Returns the borrow mask: lane `g` set
/// means lane `g` had `a < k`. `width` must cover both `a` and `k`.
///
/// Reference implementation: the production runners inline this borrow
/// chain fused with the ripple carry; tests pin the primitive here.
#[cfg(test)]
#[inline]
pub(crate) fn sub_const<const W: usize>(
    a: &Planes<W>,
    k: u64,
    width: usize,
    out: &mut Planes<W>,
) -> Stripe<W> {
    let mut borrow = Stripe::ZERO;
    for p in 0..width {
        let kbit = Stripe::splat(0u64.wrapping_sub((k >> p) & 1));
        let x = a[p];
        out[p] = x ^ kbit ^ borrow;
        borrow = (!x & (kbit | borrow)) | (kbit & borrow);
    }
    borrow
}

/// Mask of lanes where `a ≥ k`, over `width` planes covering both.
///
/// Reference implementation: the production runners inline this borrow
/// chain into their select passes; tests pin the primitive here.
#[cfg(test)]
#[inline]
pub(crate) fn ge_const<const W: usize>(a: &Planes<W>, k: u64, width: usize) -> Stripe<W> {
    let mut borrow = Stripe::ZERO;
    for (p, &x) in a.iter().enumerate().take(width) {
        let kbit = Stripe::splat(0u64.wrapping_sub((k >> p) & 1));
        borrow = (!x & (kbit | borrow)) | (kbit & borrow);
    }
    !borrow
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

    fn from_vals<const W: usize>(vals: &[u64]) -> Planes<W> {
        let mut p = [Stripe::ZERO; PLANES];
        for (g, &v) in vals.iter().enumerate() {
            let (e, bit) = (g / WORD_BITS, g % WORD_BITS);
            for (pi, plane) in p.iter_mut().enumerate() {
                plane.0[e] |= ((v >> pi) & 1) << bit;
            }
        }
        p
    }

    fn to_vals<const W: usize>(p: &Planes<W>, n: usize) -> Vec<u64> {
        (0..n)
            .map(|g| {
                p.iter().enumerate().fold(0u64, |acc, (pi, plane)| {
                    acc | (plane.get(g) << pi)
                })
            })
            .collect()
    }

    #[test]
    fn add_matches_scalar() {
        let a: Vec<u64> = (0..64).map(|g| (g * 37 + 5) % 200).collect();
        let b: Vec<u64> = (0..64).map(|g| (g * 91 + 13) % 180).collect();
        let (pa, pb) = (from_vals::<1>(&a), from_vals::<1>(&b));
        let mut out = [Stripe::ZERO; PLANES];
        add(&pa, &pb, 10, &mut out);
        let got = to_vals(&out, 64);
        for g in 0..64 {
            assert_eq!(got[g], a[g] + b[g], "lane {g}");
        }
    }

    #[test]
    fn add_matches_scalar_wide_stripe() {
        let a: Vec<u64> = (0..200).map(|g| (g * 37 + 5) % 200).collect();
        let b: Vec<u64> = (0..200).map(|g| (g * 91 + 13) % 180).collect();
        let (pa, pb) = (from_vals::<4>(&a), from_vals::<4>(&b));
        let mut out = [Stripe::ZERO; PLANES];
        add(&pa, &pb, 10, &mut out);
        let got = to_vals(&out, 200);
        for g in 0..200 {
            assert_eq!(got[g], a[g] + b[g], "lane {g}");
        }
    }

    #[test]
    fn sub_const_matches_scalar_with_borrow_mask() {
        let a: Vec<u64> = (0..130).map(|g| g * 3).collect();
        let pa = from_vals::<4>(&a);
        let mut out = [Stripe::ZERO; PLANES];
        let k = 100u64;
        let borrow = sub_const(&pa, k, 10, &mut out);
        let got = to_vals(&out, 130);
        for g in 0..130 {
            let under = a[g] < k;
            assert_eq!(borrow.get(g) == 1, under, "borrow lane {g}");
            if !under {
                assert_eq!(got[g], a[g] - k, "diff lane {g}");
            }
        }
    }

    #[test]
    fn ge_const_matches_scalar() {
        let a: Vec<u64> = (0..100).map(|g| g * 5 % 97).collect();
        let pa = from_vals::<2>(&a);
        for k in [0u64, 1, 48, 96, 97] {
            let mask = ge_const(&pa, k, 8);
            for (g, &v) in a.iter().enumerate() {
                assert_eq!(mask.get(g) == 1, v >= k, "k={k} lane {g}");
            }
        }
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
