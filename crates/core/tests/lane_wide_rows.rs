//! Wide-kernel lane counting against the scalar reference: kernels of
//! 17..=1024 rows (the slab-compressor path of `lane_counts_stream`) mixed
//! from all four `LaneRow` forms, over ragged lane groups at every stripe
//! width whose lanes sit at random absolute offsets (1..=9 offset
//! classes, so both the one-class and the multi-class gathers run), with
//! chunk lengths that end mid-word and after several 64-cycle blocks. The
//! lane counts must equal `column_counts_into` per lane on the scalar
//! operands sliced at that lane's offset, and every FSM's one lane entry
//! (`run_rows_resume_into`), driven through random chunk splits that
//! thread the resumed state, must reproduce the scalar
//! `run_counts_resume_into` / `Btanh::step` bit for bit.

use aqfp_sc_bitstream::{
    column_counts_into, lane_counts_stream, pack_lanes_into, BitStream, KernelRow, LaneRow,
    OffsetClasses, SplitMix64, Stripe,
};
use aqfp_sc_core::baseline::Btanh;
use aqfp_sc_core::{AveragePooling, FeatureExtraction};
use proptest::prelude::*;

/// One kernel row: its `LaneRow` form plus the operands behind it, kept
/// both per lane (for the scalar reference) and lane-packed.
struct Row<const W: usize> {
    /// Which of the four `LaneRow` forms this row takes (0..4).
    form: usize,
    /// Lane operand, one stream per lane, and its packed stripes.
    a: Vec<BitStream>,
    a_lanes: Vec<Stripe<W>>,
    /// Full-length scalar operands (weight / bias / neutral forms), read
    /// at each lane's offset.
    s: BitStream,
    u: BitStream,
}

/// A ragged lane group split into offset classes: lane `g` sits at
/// absolute cycle `offsets[g]`, one of `distinct`.
struct Group {
    offsets: Vec<usize>,
    distinct: Vec<usize>,
}

fn random_stream(rng: &mut SplitMix64, len: usize) -> BitStream {
    BitStream::from_words((0..len.div_ceil(64)).map(|_| rng.next_u64()).collect(), len)
}

fn random_group(rng: &mut SplitMix64, lanes: usize, classes: usize) -> Group {
    // Half the tables put every class on a word boundary.
    let aligned = rng.next_u64().is_multiple_of(2);
    let distinct: Vec<usize> = (0..classes)
        .map(|_| {
            let o = (rng.next_u64() % 300) as usize;
            if aligned { o / 64 * 64 } else { o }
        })
        .collect();
    let offsets =
        (0..lanes).map(|_| distinct[(rng.next_u64() % classes as u64) as usize]).collect();
    Group { offsets, distinct }
}

fn random_rows<const W: usize>(
    rng: &mut SplitMix64,
    n: usize,
    lanes: usize,
    clen: usize,
    bit_len: usize,
) -> Vec<Row<W>> {
    (0..n)
        .map(|_| {
            let form = (rng.next_u64() % 4) as usize;
            let (a, a_lanes) = if form < 2 {
                let a: Vec<BitStream> = (0..lanes).map(|_| random_stream(rng, clen)).collect();
                let mut packed = Vec::new();
                pack_lanes_into(a.iter(), clen, &mut packed).unwrap();
                (a, packed)
            } else {
                (Vec::new(), Vec::new())
            };
            let s = random_stream(rng, bit_len);
            let u = random_stream(rng, bit_len);
            Row { form, a, a_lanes, s, u }
        })
        .collect()
}

/// The chunk `pos..pos + c` of every row as lane-kernel descriptors:
/// lane operands are re-sliced to the chunk, scalar operands stay whole
/// (the class table moves their read offset).
fn chunk_rows<const W: usize>(rows: &[Row<W>], pos: usize, c: usize) -> Vec<LaneRow<'_, W>> {
    rows.iter()
        .map(|row| match row.form {
            0 => LaneRow::Xnor(&row.a_lanes[pos..pos + c], row.s.words()),
            1 => LaneRow::Lanes(&row.a_lanes[pos..pos + c]),
            2 => LaneRow::Broadcast(row.s.words()),
            _ => LaneRow::BroadcastXnor(row.s.words(), row.u.words()),
        })
        .collect()
}

/// The group's class table with every offset moved `pos` cycles on.
fn classes_at<const W: usize>(group: &Group, pos: usize) -> OffsetClasses<W> {
    OffsetClasses::from_offsets(group.offsets.iter().map(|&o| o + pos))
}

/// Per-lane reference counts over the whole chunk via the word-parallel
/// single-image kernel, with each row in its scalar form and the scalar
/// operands sliced at the lane's offset.
fn reference_counts<const W: usize>(
    rows: &[Row<W>],
    group: &Group,
    clen: usize,
) -> Vec<Vec<u32>> {
    let sliced: Vec<Vec<(BitStream, BitStream)>> = group
        .distinct
        .iter()
        .map(|&o| rows.iter().map(|r| (r.s.slice(o, clen), r.u.slice(o, clen))).collect())
        .collect();
    group
        .offsets
        .iter()
        .enumerate()
        .map(|(g, &off)| {
            let class = group.distinct.iter().position(|&o| o == off).unwrap();
            let krows: Vec<KernelRow<'_>> = rows
                .iter()
                .zip(&sliced[class])
                .map(|(row, (s, u))| match row.form {
                    0 => KernelRow::Xnor(row.a[g].words(), s.words()),
                    1 => KernelRow::Plain(row.a[g].words()),
                    2 => KernelRow::Plain(s.words()),
                    _ => KernelRow::Xnor(s.words(), u.words()),
                })
                .collect();
            let mut counts = Vec::new();
            column_counts_into(&krows, clen, &mut counts);
            counts
        })
        .collect()
}

/// Chunk lengths covering `clen`, cycling through `cuts`.
fn split(clen: usize, cuts: &[usize]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut pos = 0usize;
    for &cut in cuts.iter().cycle() {
        if pos == clen {
            break;
        }
        let c = cut.min(clen - pos);
        out.push((pos, c));
        pos += c;
    }
    out
}

fn check<const W: usize>(
    n: usize,
    lanes: usize,
    classes: usize,
    clen: usize,
    cuts: &[usize],
    seed: u64,
) -> Result<(), TestCaseError> {
    let mut rng = SplitMix64::new(seed);
    let group = random_group(&mut rng, lanes, classes);
    let bit_len = group.distinct.iter().max().unwrap() + clen;
    let rows: Vec<Row<W>> = random_rows(&mut rng, n, lanes, clen, bit_len);
    let want = reference_counts(&rows, &group, clen);

    // Whole-chunk counts, cycle by cycle and in order.
    let descs = chunk_rows(&rows, 0, clen);
    let mut next = 0usize;
    let mut result = Ok(());
    lane_counts_stream(&descs, &classes_at(&group, 0), clen, |t, planes: &[Stripe<W>]| {
        if result.is_err() {
            return;
        }
        result = (|| {
            prop_assert_eq!(t, next, "cycles must stream in order");
            next += 1;
            for (g, counts) in want.iter().enumerate() {
                let got: u32 =
                    planes.iter().enumerate().map(|(p, s)| (s.get(g) as u32) << p).sum();
                prop_assert_eq!(got, counts[t], "lane {} cycle {}", g, t);
            }
            Ok(())
        })();
    });
    result?;
    prop_assert_eq!(next, clen, "every cycle reaches the sink");

    // Every FSM entry through resumed chunks. FE needs an odd width, so it
    // takes the longest odd prefix of the rows.
    let chunks = split(clen, cuts);
    let fe_n = if n % 2 == 1 { n } else { n - 1 };
    let fe = FeatureExtraction::new(fe_n);
    let fe_want = reference_counts(&rows[..fe_n], &group, clen);
    let pool = AveragePooling::new(n);
    let mut fe_r = vec![0i64; lanes];
    let mut pool_r = vec![0i64; lanes];
    let mut fsms: Vec<Btanh> = (0..lanes).map(|_| Btanh::new(n)).collect();
    let mut fe_out = vec![Stripe::<W>::ZERO; clen];
    let mut pool_out = vec![Stripe::<W>::ZERO; clen];
    let mut btanh_out = vec![Stripe::<W>::ZERO; clen];
    for &(pos, c) in &chunks {
        let descs = chunk_rows(&rows, pos, c);
        let at = classes_at(&group, pos);
        fe.run_rows_resume_into(&descs[..fe_n], &at, c, &mut fe_r, &mut fe_out[pos..pos + c]);
        pool.run_rows_resume_into(&descs, &at, c, &mut pool_r, &mut pool_out[pos..pos + c]);
        let mut refs: Vec<&mut Btanh> = fsms.iter_mut().collect();
        Btanh::run_rows_resume_into(&mut refs, &descs, &at, c, &mut btanh_out[pos..pos + c]);
    }
    for g in 0..lanes {
        let mut r = 0i64;
        let fe_bits = fe.run_counts_resume(&fe_want[g], &mut r);
        prop_assert_eq!(fe_r[g], r, "FE feedback, lane {}", g);
        let mut r = 0i64;
        let pool_bits = pool.run_counts_resume(&want[g], &mut r);
        prop_assert_eq!(pool_r[g], r, "pool residual, lane {}", g);
        let mut scalar = Btanh::new(n);
        for t in 0..clen {
            prop_assert_eq!(fe_out[t].get(g) == 1, fe_bits.get(t).unwrap(), "FE {} {}", g, t);
            prop_assert_eq!(
                pool_out[t].get(g) == 1,
                pool_bits.get(t).unwrap(),
                "pool lane {} cycle {}",
                g,
                t
            );
            prop_assert_eq!(
                btanh_out[t].get(g) == 1,
                scalar.step(want[g][t]),
                "Btanh lane {} cycle {}",
                g,
                t
            );
        }
        prop_assert_eq!(
            format!("{:?}", fsms[g]),
            format!("{scalar:?}"),
            "Btanh counter, lane {}",
            g
        );
    }
    Ok(())
}

proptest! {
    // Each case packs up to 1024 rows × 256 lanes and replays every lane
    // through the scalar kernels, so a modest case count keeps the suite
    // to seconds while still sampling every stripe width many times.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn wide_lane_kernels_match_scalar_counts_and_fsms(
        n in 17usize..=1024,
        width_sel in 0usize..3,
        lanes_raw in 1usize..=256,
        classes in 1usize..=9,
        clen in 1usize..=300,
        cuts in prop::collection::vec(1usize..=300, 1..5),
        seed in any::<u64>(),
    ) {
        match width_sel {
            0 => check::<1>(n, 1 + (lanes_raw - 1) % 64, classes, clen, &cuts, seed)?,
            1 => check::<2>(n, 1 + (lanes_raw - 1) % 128, classes, clen, &cuts, seed)?,
            _ => check::<4>(n, lanes_raw, classes, clen, &cuts, seed)?,
        }
    }
}
