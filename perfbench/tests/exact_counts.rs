//! The exact-count self-check: two traced runs of one seed must agree on
//! every count-type per-layer metric, on `settled_frac` and on governor
//! 0's exported ledger, so later changes can cite those counts as counts.
//!
//! One test walks every workload in turn: the crypto counters are
//! process-wide, so two workloads running on parallel test threads would
//! count each other's operations.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! (or `python3 perfbench/run.py --self-check`); a debug build spends
//! minutes in 2048-bit arithmetic.

use std::path::PathBuf;

use perfbench::episode::Kind;
use perfbench::layers;

#[test]
fn counts_repeat_exactly_for_one_seed() {
    let seed = 7;
    for kind in Kind::ALL {
        let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("exact-{kind}"));
        let a = layers::run(kind, seed, &dir);
        let b = layers::run(kind, seed, &dir);
        assert!(a.errors.is_empty(), "{kind}: {:?}", a.errors);
        assert!(b.errors.is_empty(), "{kind}: {:?}", b.errors);
        assert_eq!(a.head, b.head, "{kind}: ledgers differ");
        assert_eq!(a.settled_frac, b.settled_frac, "{kind}: settled_frac");
        assert_eq!(a.metrics.len(), b.metrics.len());
        for (x, y) in a.metrics.iter().zip(&b.metrics) {
            assert_eq!(x.name, y.name);
            if x.exact {
                assert_eq!(x.value, y.value, "{kind}: {} differs", x.name);
            }
        }
        assert!(
            a.metrics.iter().filter(|m| m.exact).count() >= 15,
            "{kind}: count metrics missing"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
