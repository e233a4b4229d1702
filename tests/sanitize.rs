//! Sanitizer test (`cargo test --features sanitize`).
//!
//! With the `sanitize` feature on, the simulator carries an
//! uncompressed shadow register file that checks every decompressed
//! read bit-exact, and a hazard oracle that re-verifies the scoreboard
//! on every issue/capture/retire. Any violation panics mid-run, so
//! "the run completes" *is* the assertion of zero violations.
//!
//! Every suite kernel runs under both headline design points, so the
//! oracle independently re-checks each RAW/WAW/WAR decision of the
//! scoreboard on the whole suite. `bfs`, the most divergent kernel,
//! covers the partial-write merge path, the dummy-MOV injection of §5.2
//! and the deepest SIMT stack activity — the places a compression bug
//! would corrupt values.

#![cfg(feature = "sanitize")]

use gpu_sim::GpuSim;
use warped_compression_suite::prelude::*;

#[test]
fn every_suite_kernel_runs_clean_under_both_designs() {
    for w in suite() {
        for point in [DesignPoint::Baseline, DesignPoint::WarpedCompression] {
            let mut memory = w.fresh_memory();
            let result = GpuSim::new(point.config())
                .run(w.kernel(), w.launch(), &mut memory)
                .unwrap_or_else(|e| panic!("{} under {point:?}: {e}", w.name()));
            assert!(result.stats.instructions > 0, "{}", w.name());
        }
    }
}
