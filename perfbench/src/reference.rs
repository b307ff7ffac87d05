//! The host-speed reference: a fixed computation, independent of the
//! program under test, timed between the program's rounds so wall-clock
//! metrics can be rescaled to one nominal host speed.
//!
//! On the shared 2-core host this benchmark was built on, the CPU ran at
//! one-half to two-thirds speed for stretches of seconds to minutes. The
//! process's CPU time grew with wall time and it took no page faults, so
//! the slowdown is in instruction throughput (a busy sibling hyperthread
//! fits), not descheduling. Two runs of identical code differed by up to
//! 1.5x in wall-clock throughput, and 10-run spreads reached 30%.
//!
//! This loop (four independent 64×64→128-bit multiply chains, registers
//! only) is throughput-bound like the program's arithmetic and its event
//! loop. Timed before every round, it tracked four-round wall time with
//! correlation 0.85 on closed-modp and 0.87 on open-sim, and dividing by
//! it halved the per-interval spread (0.18 → 0.09 and 0.15 → 0.08 of the
//! mean). Loops bound by L1 latency, by table reads or by DRAM latency did
//! not track the slowdown (correlation below 0.45) and were rejected.
//!
//! The loop is the benchmark's own code, so no change to the program can
//! move it.

use std::hint::black_box;
use std::time::Instant;

/// The reference loop's time on the build host at full speed, ms.
/// Rescaled metrics read as wall-clock at that speed.
pub const NOMINAL_MS: f64 = 1.0;

const STEPS: u32 = 400_000;

/// Runs the reference loop once and returns its wall time, ms.
pub fn time_ms() -> f64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let (mut a, mut b, mut c, mut d) = black_box((1u64, 2u64, 3u64, 4u64));
    let t = Instant::now();
    for _ in 0..STEPS {
        let x = u128::from(a) * u128::from(K);
        let y = u128::from(b) * u128::from(K ^ 1);
        let z = u128::from(c) * u128::from(K ^ 2);
        let w = u128::from(d) * u128::from(K ^ 3);
        a = (x as u64).wrapping_add((x >> 64) as u64);
        b = (y as u64).wrapping_add((y >> 64) as u64) ^ a;
        c = (z as u64).wrapping_add((z >> 64) as u64);
        d = (w as u64).wrapping_add((w >> 64) as u64) ^ c;
    }
    black_box((a, b, c, d));
    t.elapsed().as_secs_f64() * 1e3
}

/// The factor that rescales a wall time to the nominal host speed, from
/// reference-loop times taken around it (their median, so one preempted
/// sample does not count).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn scale(ref_ms: &[f64]) -> f64 {
    assert!(!ref_ms.is_empty(), "need a reference sample");
    NOMINAL_MS / crate::median(ref_ms)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_loop_takes_measurable_time() {
        let ms = time_ms();
        assert!(ms > 0.01 && ms < 1_000.0, "{ms}");
        assert!((scale(&[NOMINAL_MS, 9.0, 0.1]) - 1.0).abs() < 1e-12);
    }
}
