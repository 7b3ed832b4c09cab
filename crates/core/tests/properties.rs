//! Property-based tests of the paper's block invariants.

use aqfp_sc_bitstream::{BitStream, SplitMix64};
use aqfp_sc_core::{AveragePooling, FeatureExtraction, MajorityChain};
use proptest::prelude::*;

fn streams_from(seeds: &[u64], len: usize) -> Vec<BitStream> {
    seeds
        .iter()
        .map(|&s| {
            let mut rng = SplitMix64::new(s);
            BitStream::from_fn(len, |_| {
                use aqfp_sc_bitstream::BitSource;
                rng.next_bit()
            })
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn feature_counting_equals_explicit_sorting(
        seeds in prop::collection::vec(any::<u64>(), 1..12),
        len in (64usize..256),
    ) {
        let streams = streams_from(&seeds, len);
        let fe = FeatureExtraction::new(streams.len());
        let fast = fe.run(&streams).unwrap();
        let slow = fe.run_sorting(&streams).unwrap();
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn pooling_counting_equals_explicit_sorting(
        seeds in prop::collection::vec(any::<u64>(), 1..10),
        len in (64usize..256),
    ) {
        let streams = streams_from(&seeds, len);
        let pool = AveragePooling::new(streams.len());
        let fast = pool.run(&streams).unwrap();
        let slow = pool.run_sorting(&streams).unwrap();
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn pooling_conserves_ones_with_bounded_residual(
        seeds in prop::collection::vec(any::<u64>(), 2..9),
        len in (64usize..300),
    ) {
        let streams = streams_from(&seeds, len);
        let m = streams.len();
        let pool = AveragePooling::new(m);
        let out = pool.run(&streams).unwrap();
        let total_in: usize = streams.iter().map(BitStream::count_ones).sum();
        let emitted = out.count_ones();
        // One output 1 per M input 1s; the residual stays below M.
        prop_assert!(emitted <= total_in / m);
        prop_assert!(total_in / m - emitted <= 1);
    }

    #[test]
    fn feature_output_ones_match_scalar_recursion(
        counts in prop::collection::vec(0u32..12, 10..200),
    ) {
        let m = 11usize;
        let fe = FeatureExtraction::new(m);
        let mut so = BitStream::zeros(0);
        fe.run_counts_resume_into(&counts, &mut 0, &mut so);
        let thr = m.div_ceil(2) as i64;
        let mut r = 0i64;
        let mut fires = 0usize;
        for &c in &counts {
            let t = c as i64 + r;
            if t >= thr {
                fires += 1;
            }
            r = (t - thr).clamp(0, m as i64);
        }
        prop_assert_eq!(so.count_ones(), fires);
    }

    #[test]
    fn feature_output_is_monotone_in_counts(
        counts in prop::collection::vec(0u32..10, 20..120),
    ) {
        // Adding ones to the input can never remove output ones.
        let m = 9usize;
        let fe = FeatureExtraction::new(m);
        let mut out = BitStream::zeros(0);
        fe.run_counts_resume_into(&counts, &mut 0, &mut out);
        let base = out.count_ones();
        let boosted: Vec<u32> = counts.iter().map(|&c| (c + 1).min(m as u32)).collect();
        fe.run_counts_resume_into(&boosted, &mut 0, &mut out);
        let more = out.count_ones();
        prop_assert!(more >= base);
    }

    #[test]
    fn chain_agrees_with_exact_majority_for_three_inputs(
        seeds in prop::collection::vec(any::<u64>(), 3..4),
        len in (64usize..200),
    ) {
        let streams = streams_from(&seeds, len);
        let chain = MajorityChain::new(3);
        prop_assert_eq!(
            chain.run(&streams).unwrap(),
            chain.run_exact_majority(&streams).unwrap()
        );
    }

    #[test]
    fn chain_is_monotone_under_input_boost(
        seeds in prop::collection::vec(any::<u64>(), 5..10),
        len in (64usize..200),
    ) {
        // Replacing one input with all-ones cannot decrease the output.
        let streams = streams_from(&seeds, len);
        let chain = MajorityChain::new(streams.len());
        let base = chain.run(&streams).unwrap().count_ones();
        let mut boosted = streams.clone();
        boosted[0] = BitStream::ones(len);
        let more = chain.run(&boosted).unwrap().count_ones();
        prop_assert!(more >= base);
    }

    #[test]
    fn stationary_value_is_monotone_in_probability(p in 0.05f64..0.95) {
        use aqfp_sc_core::accuracy::feature_stationary_value;
        let lo = feature_stationary_value(&[p; 9]);
        let hi = feature_stationary_value(&[(p + 0.05).min(1.0); 9]);
        prop_assert!(hi >= lo - 1e-9);
        prop_assert!((-1.0..=1.0).contains(&lo));
    }
}
