//! Property-based tests of the stochastic-computing substrate.

use aqfp_sc_bitstream::{
    column_counts, column_counts_into, lane_column_planes, maj3_streams, pack_lanes_into, scc,
    unpack_lanes_into, Bipolar, BitStream, ColumnCounter, KernelRow, LaneRow, Lfsr, OffsetClasses,
    Sng, SplitMix64, Stripe, ThermalRng,
};
use proptest::prelude::*;

/// A deterministic random stream of `len` bits.
fn random_stream(rng: &mut SplitMix64, len: usize) -> BitStream {
    BitStream::from_bits((0..len).map(|_| rng.next_u64() >> 63 == 1))
}

/// Concatenation of per-chunk generation over `partition` (which must sum
/// to the reference length) from a fresh cursor, interleaving the two
/// cursor entry points (`generate_level` / `generate_level_into`).
fn generate_partitioned<S: aqfp_sc_bitstream::WordSource>(
    sng: &mut Sng<S>,
    level: u64,
    partition: &[usize],
) -> BitStream {
    let mut bits = Vec::new();
    let mut buf = BitStream::zeros(0);
    for (i, &chunk) in partition.iter().enumerate() {
        if i % 2 == 0 {
            bits.extend(sng.generate_level(level, chunk).iter());
        } else {
            sng.generate_level_into(level, chunk, &mut buf);
            bits.extend(buf.iter());
        }
    }
    BitStream::from_bits(bits)
}

proptest! {
    // Pinned case count for predictable CI time; the harness seeds each
    // test's RNG deterministically from its name (override with
    // PROPTEST_SEED / PROPTEST_CASES).
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn count_ones_matches_iteration(bits in prop::collection::vec(any::<bool>(), 0..300)) {
        let s = BitStream::from_bits(bits.clone());
        let expect = bits.iter().filter(|&&b| b).count();
        prop_assert_eq!(s.count_ones(), expect);
        prop_assert_eq!(s.len(), bits.len());
    }

    #[test]
    fn not_is_involutive(bits in prop::collection::vec(any::<bool>(), 1..300)) {
        let s = BitStream::from_bits(bits);
        prop_assert_eq!(s.not().not(), s);
    }

    #[test]
    fn de_morgan_holds_on_streams(
        a in prop::collection::vec(any::<bool>(), 1..200),
        b in prop::collection::vec(any::<bool>(), 1..200),
    ) {
        let n = a.len().min(b.len());
        let sa = BitStream::from_bits(a[..n].to_vec());
        let sb = BitStream::from_bits(b[..n].to_vec());
        let lhs = sa.and(&sb).unwrap().not();
        let rhs = sa.not().or(&sb.not()).unwrap();
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn xnor_value_identity(
        a in prop::collection::vec(any::<bool>(), 1..200),
        b in prop::collection::vec(any::<bool>(), 1..200),
    ) {
        // ones(a xnor b) = n - ones(a) - ones(b) + 2*ones(a and b)
        let n = a.len().min(b.len());
        let sa = BitStream::from_bits(a[..n].to_vec());
        let sb = BitStream::from_bits(b[..n].to_vec());
        let xnor = sa.xnor(&sb).unwrap().count_ones() as i64;
        let and = sa.and(&sb).unwrap().count_ones() as i64;
        let expect = n as i64 - sa.count_ones() as i64 - sb.count_ones() as i64 + 2 * and;
        prop_assert_eq!(xnor, expect);
    }

    #[test]
    fn maj3_bounded_by_and_or(
        a in prop::collection::vec(any::<bool>(), 1..120),
        b in prop::collection::vec(any::<bool>(), 1..120),
        c in prop::collection::vec(any::<bool>(), 1..120),
    ) {
        let n = a.len().min(b.len()).min(c.len());
        let sa = BitStream::from_bits(a[..n].to_vec());
        let sb = BitStream::from_bits(b[..n].to_vec());
        let sc_ = BitStream::from_bits(c[..n].to_vec());
        let maj = maj3_streams(&sa, &sb, &sc_).unwrap();
        // AND of any two ≤ MAJ ≤ OR of any two (monotone majority bounds).
        let and_ab = sa.and(&sb).unwrap();
        let or_ab = sa.or(&sb).unwrap();
        prop_assert_eq!(and_ab.and(&maj).unwrap(), and_ab.clone());
        prop_assert_eq!(or_ab.or(&maj).unwrap(), or_ab);
    }

    #[test]
    fn column_counts_sum_to_total_ones(
        rows in prop::collection::vec(prop::collection::vec(any::<bool>(), 50..51), 1..40),
    ) {
        let streams: Vec<BitStream> =
            rows.iter().map(|r| BitStream::from_bits(r.clone())).collect();
        let counts = column_counts(&streams).unwrap();
        let total: u64 = counts.iter().map(|&c| c as u64).sum();
        let expect: u64 = streams.iter().map(|s| s.count_ones() as u64).sum();
        prop_assert_eq!(total, expect);
    }

    #[test]
    fn counter_is_order_invariant(
        rows in prop::collection::vec(prop::collection::vec(any::<bool>(), 33..34), 2..20),
    ) {
        let streams: Vec<BitStream> =
            rows.iter().map(|r| BitStream::from_bits(r.clone())).collect();
        let mut forward = ColumnCounter::new(33);
        for s in &streams {
            forward.add(s).unwrap();
        }
        let mut backward = ColumnCounter::new(33);
        for s in streams.iter().rev() {
            backward.add(s).unwrap();
        }
        prop_assert_eq!(forward.counts(), backward.counts());
    }

    #[test]
    fn sng_density_tracks_level(level in 0u64..=256, seed in any::<u64>()) {
        let mut sng = Sng::new(8, ThermalRng::with_seed(seed));
        let s = sng.generate_level(level, 4096);
        let expect = level as f64 / 256.0;
        let got = s.count_ones() as f64 / 4096.0;
        prop_assert!((got - expect).abs() < 0.06, "level {}: got {}", level, got);
    }

    #[test]
    fn sng_generation_is_partition_invariant_for_thermal_rng(
        seed in any::<u64>(),
        level in 0u64..=256,
        chunks in prop::collection::vec(1usize..70, 1..8),
    ) {
        // Generating N bits across ANY partition of chunk sizes must be
        // bit-identical to one-shot generation — the cursor contract the
        // chunked streaming engine relies on.
        let n: usize = chunks.iter().sum();
        let mut one_shot = Sng::new(8, ThermalRng::with_seed(seed));
        let full = one_shot.generate_level(level, n);
        let mut cursor = Sng::new(8, ThermalRng::with_seed(seed));
        prop_assert_eq!(generate_partitioned(&mut cursor, level, &chunks), full);
    }

    #[test]
    fn sng_generation_is_partition_invariant_for_splitmix(
        seed in any::<u64>(),
        level in 0u64..=256,
        chunks in prop::collection::vec(1usize..70, 1..8),
    ) {
        let n: usize = chunks.iter().sum();
        let mut one_shot = Sng::new(8, SplitMix64::new(seed));
        let full = one_shot.generate_level(level, n);
        let mut cursor = Sng::new(8, SplitMix64::new(seed));
        prop_assert_eq!(generate_partitioned(&mut cursor, level, &chunks), full);
    }

    #[test]
    fn slice_concatenation_round_trips(
        bits in prop::collection::vec(any::<bool>(), 1..300),
        chunks in prop::collection::vec(1usize..80, 1..8),
    ) {
        // Slicing a stream along any partition and concatenating the
        // slices reproduces it (tail masking must hold at every offset).
        let s = BitStream::from_bits(bits);
        let mut out = Vec::new();
        let mut offset = 0usize;
        for &c in &chunks {
            let len = c.min(s.len() - offset);
            out.extend(s.slice(offset, len).iter());
            offset += len;
            if offset == s.len() {
                break;
            }
        }
        out.extend(s.slice(offset, s.len() - offset).iter());
        prop_assert_eq!(BitStream::from_bits(out), s);
    }

    #[test]
    fn scc_is_symmetric(
        a in prop::collection::vec(any::<bool>(), 64..65),
        b in prop::collection::vec(any::<bool>(), 64..65),
    ) {
        let sa = BitStream::from_bits(a);
        let sb = BitStream::from_bits(b);
        let ab = scc(&sa, &sb).unwrap();
        let ba = scc(&sb, &sa).unwrap();
        prop_assert!((ab - ba).abs() < 1e-12);
        prop_assert!((-1.0..=1.0).contains(&ab));
    }

    #[test]
    fn lfsr_state_stays_in_range(bits in 3u32..=16, seed in any::<u64>(), steps in 1usize..200) {
        let mut lfsr = Lfsr::maximal(bits, seed);
        for _ in 0..steps {
            lfsr.step();
            prop_assert!(lfsr.state() < (1 << bits));
            prop_assert!(lfsr.state() != 0);
        }
    }

    #[test]
    fn bipolar_probability_is_affine(v in -1.0f64..=1.0) {
        let b = Bipolar::new(v).unwrap();
        prop_assert!((b.probability() - (v + 1.0) / 2.0).abs() < 1e-12);
        let back = Bipolar::from_probability(b.probability()).unwrap();
        prop_assert!((back.get() - v).abs() < 1e-12);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn word_parallel_column_counts_match_the_per_bit_reference(
        rows_pick in 0usize..20,
        rows_any in 1usize..=820,
        len_pick in 0usize..16,
        len_any in 1usize..=1100,
        broadcast_per_mille in 0usize..=1000,
        offset_pick in 0usize..14,
        offset_any in 0usize..=1100,
        seed in any::<u64>(),
    ) {
        // Row counts straddle the 16-row slabs of the compressor (15/16/17,
        // 31/32/33) and the paper's FC500 neuron (800 taps + bias), and
        // lengths straddle a 64-cycle word and an 8-word (512-cycle) block,
        // so short last slabs, short last blocks and ragged tails — where
        // the XNOR of the last word sets garbage bits beyond `len` — all
        // occur. The chunk's absolute offset sits on, one short of and one
        // past a word and a block, so both the word-aligned read and the
        // two-word window of the image-independent operands run. The row
        // mix covers both forms: product rows (dense taps) and broadcast
        // rows (bias, pad), from all products to all broadcasts. Image
        // operands hold the chunk only; image-independent ones are
        // full-length streams, sometimes ending exactly at the chunk's end.
        const ROWS: [usize; 8] = [15, 16, 17, 31, 32, 33, 800, 801];
        const LENS: [usize; 8] = [63, 64, 65, 511, 512, 513, 1024, 1089];
        const OFFSETS: [usize; 7] = [0, 1, 63, 64, 65, 511, 513];
        let n = ROWS.get(rows_pick).copied().unwrap_or(rows_any);
        let len = LENS.get(len_pick).copied().unwrap_or(len_any);
        let offset = OFFSETS.get(offset_pick).copied().unwrap_or(offset_any);
        let broadcast_rows = n * broadcast_per_mille / 1000;
        let mut rng = SplitMix64::new(seed);
        let mut forms = SplitMix64::new(!seed);
        let full = offset + len + [0, 1, 64, 200][(forms.next_u64() % 4) as usize];
        let mut stream = |len: usize| {
            let words = (0..len.div_ceil(64)).map(|_| rng.next_u64()).collect();
            BitStream::from_words(words, len)
        };
        // (form, first operand, second operand) per row: 0 = Xnor(image,
        // full), 1 = Broadcast(full).
        let operands: Vec<(u64, BitStream, BitStream)> = (0..n)
            .map(|i| {
                let form = if i < broadcast_rows { 1 } else { forms.next_u64() % 2 };
                let first = stream(if form == 0 { len } else { full });
                (form, first, stream(full))
            })
            .collect();
        let rows: Vec<KernelRow<'_>> = operands
            .iter()
            .map(|(form, a, b)| match form {
                0 => KernelRow::Xnor(a.words(), b.words()),
                _ => KernelRow::Broadcast(a.words()),
            })
            .collect();
        let mut got = Vec::new();
        column_counts_into(&rows, offset, len, &mut got);
        // Per-bit reference over the same logical rows, every
        // image-independent operand sliced at the offset.
        let at = |s: &BitStream| s.slice(offset, len);
        let materialised: Vec<BitStream> = operands
            .iter()
            .map(|(form, a, b)| match form {
                0 => a.xnor(&at(b)).unwrap(),
                _ => at(a),
            })
            .collect();
        let want = column_counts(&materialised).unwrap();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn lane_kernels_match_scalar_counts_on_sliced_chunks(
        len in 1usize..200,
        start_frac in 0usize..100,
        members in 1usize..=256,
        seed in any::<u64>(),
    ) {
        // Lane-packed column counting over an arbitrary (odd-offset) chunk
        // slice of each member stream, with the weight read in place at the
        // chunk offset, must agree with the scalar counter on the same
        // slice, for every occupied lane — including ragged last stripes
        // (member counts crossing 64-lane subgroup boundaries).
        let mut rng = SplitMix64::new(seed);
        let full = 256usize;
        let offset = (start_frac * (full - len)) / 100;
        let streams: Vec<BitStream> =
            (0..members).map(|_| random_stream(&mut rng, full)).collect();
        let weight = random_stream(&mut rng, full);
        let chunks: Vec<BitStream> =
            streams.iter().map(|s| s.slice(offset, len)).collect();
        let wchunk = weight.slice(offset, len);
        let mut lanes: Vec<Stripe<4>> = Vec::new();
        pack_lanes_into(chunks.iter(), len, &mut lanes).unwrap();
        let rows = [LaneRow::Xnor(&lanes, weight.words()), LaneRow::Broadcast(weight.words())];
        let mut planes = Vec::new();
        let classes = OffsetClasses::from_offsets([offset]);
        let used = lane_column_planes(&rows, &classes, len, &mut planes);
        for (g, chunk) in chunks.iter().enumerate() {
            let want =
                column_counts(&[chunk.xnor(&wchunk).unwrap(), wchunk.clone()]).unwrap();
            for (t, &w) in want.iter().enumerate() {
                let got: u32 = (0..used)
                    .map(|p| (planes[p][t].get(g) as u32) << p)
                    .sum();
                prop_assert_eq!(got, w, "lane {} cycle {}", g, t);
            }
        }
    }

    #[test]
    fn lane_pack_unpack_round_trips_any_width(
        len in 1usize..200,
        members in 1usize..=256,
        seed in any::<u64>(),
    ) {
        let mut rng = SplitMix64::new(seed);
        let streams: Vec<BitStream> =
            (0..members).map(|_| random_stream(&mut rng, len)).collect();
        let mut lanes: Vec<Stripe<4>> = Vec::new();
        pack_lanes_into(streams.iter(), len, &mut lanes).unwrap();
        let mut back = vec![BitStream::zeros(0); members];
        unpack_lanes_into(&lanes, len, &mut back).unwrap();
        prop_assert_eq!(back, streams);
    }

    #[test]
    fn mixed_offset_lane_rows_match_per_bit_reference_on_ragged_sets(
        classes in 1usize..=9,
        lane_count in 1usize..=256,
        width_sel in 0usize..3,
        rows in 1usize..=24,
        clen in 1usize..=200,
        aligned in 0usize..2,
        seed in any::<u64>(),
    ) {
        // Retire-and-refill groups at every stripe width: lanes split at
        // random into 1..=9 offset classes (word-aligned or not), rows of
        // every form — narrow and slab-compressed kernels — reading their
        // scalar operands in place at each lane's class offset, chunks
        // ending mid-word. The counted planes must reproduce a per-bit
        // recount for every occupied lane.
        let aligned = aligned == 1;
        match width_sel {
            0 => check_class_rows::<1>(
                classes, 1 + (lane_count - 1) % 64, rows, clen, aligned, seed,
            )?,
            1 => check_class_rows::<2>(
                classes, 1 + (lane_count - 1) % 128, rows, clen, aligned, seed,
            )?,
            _ => check_class_rows::<4>(classes, lane_count, rows, clen, aligned, seed)?,
        }
    }
}

/// Lane-kernel counts of `rows_n` random rows of every `LaneRow` form over
/// `lanes` lanes split at random into up to `classes` offset classes,
/// against a per-bit recount in which lane `g` reads each scalar operand
/// at its own offset.
fn check_class_rows<const W: usize>(
    classes: usize,
    lanes: usize,
    rows_n: usize,
    clen: usize,
    aligned: bool,
    seed: u64,
) -> Result<(), TestCaseError> {
    let mut rng = SplitMix64::new(seed);
    let class_offsets: Vec<usize> = (0..classes)
        .map(|_| {
            let o = (rng.next_u64() % 400) as usize;
            if aligned { o / 64 * 64 } else { o }
        })
        .collect();
    let offsets: Vec<usize> = (0..lanes)
        .map(|_| class_offsets[(rng.next_u64() % classes as u64) as usize])
        .collect();
    let bit_len = offsets.iter().max().unwrap() + clen;
    let forms: Vec<u64> = (0..rows_n).map(|_| rng.next_u64() % 4).collect();
    let scalars: Vec<(BitStream, BitStream)> = (0..rows_n)
        .map(|_| (random_stream(&mut rng, bit_len), random_stream(&mut rng, bit_len)))
        .collect();
    let acts: Vec<Vec<BitStream>> = (0..rows_n)
        .map(|_| (0..lanes).map(|_| random_stream(&mut rng, clen)).collect())
        .collect();
    let packed: Vec<Vec<Stripe<W>>> = acts
        .iter()
        .map(|a| {
            let mut p = Vec::new();
            pack_lanes_into(a.iter(), clen, &mut p).unwrap();
            p
        })
        .collect();
    let table = OffsetClasses::from_offsets(offsets.iter().copied());
    // Form 3 is an out-of-bounds conv tap: `u` as a lane plane at each
    // lane's class offset, XNORed with the weight `s`.
    let u_planes: Vec<Vec<Stripe<W>>> = scalars
        .iter()
        .map(|(_, u)| {
            (0..clen)
                .map(|t| LaneRow::Broadcast(u.words()).word(t, &table))
                .collect()
        })
        .collect();
    let rows: Vec<LaneRow<'_, W>> = forms
        .iter()
        .zip(packed.iter().zip(scalars.iter().zip(&u_planes)))
        .map(|(&form, (lane, ((s, _), u_plane)))| match form {
            0 => LaneRow::Xnor(lane, s.words()),
            1 => LaneRow::Lanes(lane),
            2 => LaneRow::Broadcast(s.words()),
            _ => LaneRow::Xnor(u_plane, s.words()),
        })
        .collect();
    let mut planes = Vec::new();
    let used = lane_column_planes(&rows, &table, clen, &mut planes);
    for (g, &off) in offsets.iter().enumerate() {
        #[allow(clippy::needless_range_loop)] // t indexes streams and planes alike
        for t in 0..clen {
            let want: u32 = forms
                .iter()
                .zip(acts.iter().zip(&scalars))
                .map(|(&form, (act, (s, u)))| {
                    let x = act[g].get(t).unwrap();
                    let (sb, ub) = (s.get(off + t).unwrap(), u.get(off + t).unwrap());
                    u32::from(match form {
                        0 => x == sb,
                        1 => x,
                        2 => sb,
                        _ => sb == ub,
                    })
                })
                .sum();
            let got: u32 = (0..used).map(|p| (planes[p][t].get(g) as u32) << p).sum();
            prop_assert_eq!(got, want, "lane {} offset {} cycle {}", g, off, t);
        }
    }
    Ok(())
}
