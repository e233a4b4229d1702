//! Per-warp runtime state.

use simt_isa::{full_mask, SimtStack};

/// A resident warp's execution context: identity within its block plus
/// the SIMT stack. Register values live in the register file, not here.
#[derive(Clone, Debug)]
pub struct WarpState {
    /// Hardware warp slot (register file cluster = slot % 4).
    pub slot: usize,
    /// Index of this warp's block in the grid.
    pub block: usize,
    /// Warp index within the block.
    pub warp_in_block: usize,
    /// SIMT reconvergence stack.
    pub stack: SimtStack,
    /// Waiting on an unresolved branch: cannot issue.
    pub blocked: bool,
    /// Monotonic launch sequence number (GTO "oldest" order).
    pub launch_seq: u64,
    /// In-flight instructions (issue .. retire); a warp frees its slot
    /// only when done and drained.
    pub inflight: usize,
    /// Memory instructions issued but not yet dispatched. The LSU keeps
    /// per-warp program order for memory effects, so a warp may not issue
    /// a new load/store while one is still collecting operands.
    pub pending_mem: usize,
}

impl WarpState {
    /// Creates a warp ready to run from pc 0.
    pub fn new(
        slot: usize,
        block: usize,
        warp_in_block: usize,
        threads: usize,
        launch_seq: u64,
    ) -> Self {
        assert!((1..=32).contains(&threads), "warp needs 1..=32 threads");
        WarpState {
            slot,
            block,
            warp_in_block,
            stack: SimtStack::new(full_mask(threads), 0),
            blocked: false,
            launch_seq,
            inflight: 0,
            pending_mem: 0,
        }
    }

    /// Done and no in-flight instructions: slot may be recycled.
    pub fn is_drained(&self) -> bool {
        self.stack.is_done() && self.inflight == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_warp_mask() {
        let w = WarpState::new(0, 0, 0, 32, 0);
        assert_eq!(w.stack.full_mask(), u32::MAX);
        assert!(!w.stack.is_divergent());
        assert!(!w.stack.is_done());
    }

    #[test]
    fn partial_warp_mask() {
        let w = WarpState::new(0, 0, 1, 8, 0);
        assert_eq!(w.stack.full_mask(), 0xFF);
        // A partial warp running all its threads is not divergent.
        assert!(!w.stack.is_divergent());
    }

    #[test]
    fn divergence_detection() {
        let mut w = WarpState::new(0, 0, 0, 4, 0);
        w.stack.branch(0x3, 5, 9);
        assert!(w.stack.is_divergent());
    }

    #[test]
    fn drained_requires_no_inflight() {
        let mut w = WarpState::new(0, 0, 0, 1, 0);
        w.inflight = 1;
        w.stack.exit_threads();
        assert!(w.stack.is_done());
        assert!(!w.is_drained());
        w.inflight = 0;
        assert!(w.is_drained());
    }

    #[test]
    #[should_panic(expected = "1..=32 threads")]
    fn oversized_warp_rejected() {
        let _ = WarpState::new(0, 0, 0, 33, 0);
    }
}
