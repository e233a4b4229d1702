//! Golden pin of the dynamic engine's complete statistics.
//!
//! Every suite kernel runs under both headline design points and the
//! full `Debug` rendering of its `SimStats` — cycles, instruction and
//! write counts, the per-pc stall and memory-traffic tables, the
//! census, per-bank reads/writes/gated cycles and wake-ups — must equal
//! `tests/golden/simstats.txt` line for line. Engine speed work must
//! leave this file untouched: a mismatch means modelled timing or
//! accounting moved, not just host time.

use std::fmt::Write as _;

use warped_compression_suite::prelude::*;
use warped_compression_suite::wc::run_suite;

const GOLDEN: &str = include_str!("golden/simstats.txt");

/// One line per (design point, kernel): `<design> <kernel> <SimStats:?>`.
fn render() -> String {
    let workloads = suite();
    let mut out = String::new();
    for point in [DesignPoint::Baseline, DesignPoint::WarpedCompression] {
        let runs = run_suite(&point.config(), &workloads).expect("suite runs cleanly");
        for run in runs {
            writeln!(out, "{} {} {:?}", point.label(), run.name, run.stats).expect("string write");
        }
    }
    out
}

#[test]
fn suite_simstats_match_golden() {
    let actual = render();
    assert_eq!(actual.lines().count(), 36, "18 kernels x 2 design points");
    for (i, (want, got)) in GOLDEN.lines().zip(actual.lines()).enumerate() {
        assert_eq!(got, want, "golden line {} differs", i + 1);
    }
    assert_eq!(
        actual.lines().count(),
        GOLDEN.lines().count(),
        "golden line count differs"
    );
}
