//! The trimmed histogram bins are a memory layout only: a snapshot
//! whose bins are held trimmed writes the same JSON and prints the same
//! `Debug` as the dense bin list, and parses back to an equal value.

use obs::{Bins, HistSnapshot};
use proptest::collection::vec as pvec;
use proptest::prelude::*;

/// A snapshot with every summary field set and `dense` as its bins.
fn snapshot_with(dense: &[u64]) -> HistSnapshot {
    HistSnapshot {
        count: dense.iter().sum(),
        mean: 1.5,
        stddev: 0.25,
        min: 0.5,
        max: 9.0,
        p50: 1.0,
        p95: 7.5,
        p99: 8.75,
        bins: Bins::from_dense(dense),
    }
}

/// The trimmed form of `dense` iterates, serializes and prints as
/// `dense` itself, alone and inside a snapshot, and parses back equal.
fn check_dense(dense: &[u64]) -> Result<(), TestCaseError> {
    let bins = Bins::from_dense(dense);
    prop_assert_eq!(bins.iter().collect::<Vec<u64>>(), dense.to_vec());
    prop_assert_eq!(
        serde_json::to_string(&bins).unwrap(),
        serde_json::to_string(&dense.to_vec()).unwrap()
    );
    prop_assert_eq!(format!("{bins:?}"), format!("{dense:?}"));
    prop_assert_eq!(format!("{bins:#?}"), format!("{dense:#?}"));

    let snap = snapshot_with(dense);
    let json = serde_json::to_string(&snap).unwrap();
    let dense_json = serde_json::to_string(&dense.to_vec()).unwrap();
    prop_assert!(
        json.ends_with(&format!("\"bins\":{dense_json}}}")),
        "{} does not end in the dense bins",
        json
    );
    let back: HistSnapshot = serde_json::from_str(&json).unwrap();
    prop_assert_eq!(&back, &snap);
    prop_assert_eq!(serde_json::to_string(&back).unwrap(), json);
    let debug = format!("{snap:?}");
    prop_assert!(
        debug.ends_with(&format!("bins: {dense:?} }}")),
        "{} does not end in the dense bins",
        debug
    );
    Ok(())
}

#[test]
fn an_empty_snapshot_has_no_bins() {
    let empty = HistSnapshot::empty();
    assert_eq!(empty.bins.iter().count(), 0);
    assert_eq!(format!("{:?}", empty.bins), "[]");
    let json = serde_json::to_string(&empty).unwrap();
    assert!(json.ends_with("\"bins\":[]}"), "{json}");
    assert_eq!(serde_json::from_str::<HistSnapshot>(&json).unwrap(), empty);
    check_dense(&[]).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn all_zero_bins_round_trip(len in 1usize..300) {
        check_dense(&vec![0; len])?;
    }

    #[test]
    fn a_single_bin_at_either_edge_round_trips(len in 1usize..300, count in 1u64..u64::MAX) {
        let mut first = vec![0; len];
        first[0] = count;
        check_dense(&first)?;
        let mut last = vec![0; len];
        last[len - 1] = count;
        check_dense(&last)?;
    }

    #[test]
    fn random_bins_round_trip(
        dense in pvec(prop_oneof![3 => Just(0u64), 1 => 1u64..50, 1 => any::<u64>()], 0..300),
    ) {
        check_dense(&dense)?;
    }
}
