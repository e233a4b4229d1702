//! SIMT execution semantics shared by every engine and analysis that
//! runs a warp: the reconvergence stack and what each lane reads.
//!
//! * [`SimtStack`] — the GPGPU-Sim style reconvergence stack. Each warp
//!   carries a stack of `(pc, active mask, reconvergence pc)` entries.
//!   Execution always proceeds at the top entry. On a divergent branch
//!   the current entry is rewritten to wait at the reconvergence point
//!   and one entry per outcome is pushed; an entry pops when its pc
//!   reaches its reconvergence pc, merging its threads back. This
//!   exactly reproduces the divergence/reconvergence phases whose
//!   compression behaviour §3 and §5.2 characterise.
//! * [`WarpCoords`] — a warp's place in its launch, which fixes the
//!   value every lane reads for a [`Special`] or a kernel parameter.
//! * [`full_mask`] and [`taken_mask`] — the launch-time thread mask of a
//!   warp and the lanes a branch sends to its target.

use serde::{Deserialize, Serialize};

use crate::instr::Instruction;
use crate::operand::Special;

/// Lanes per warp: one bit of an active mask each.
const LANES: usize = u32::BITS as usize;

/// Sentinel reconvergence pc of the base entry: never popped by pc match.
const TOP_LEVEL: usize = usize::MAX;

#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
struct Entry {
    pc: usize,
    mask: u32,
    reconv: usize,
}

/// Per-warp SIMT reconvergence stack.
///
/// # Example
///
/// ```
/// use simt_isa::SimtStack;
///
/// let mut s = SimtStack::new(0xF, 0);          // 4 threads at pc 0
/// s.branch(0x3, 10, 5);                        // threads 0,1 take; reconv at 5
/// assert_eq!(s.pc(), Some(10));                // taken path runs first
/// assert_eq!(s.mask(), 0x3);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimtStack {
    entries: Vec<Entry>,
    /// The initial mask: every thread the warp launched with.
    full: u32,
}

impl SimtStack {
    /// A converged warp of the given threads starting at `start_pc`.
    ///
    /// # Panics
    ///
    /// Panics if `initial_mask` is zero — a warp needs at least one
    /// thread.
    pub fn new(initial_mask: u32, start_pc: usize) -> Self {
        assert!(initial_mask != 0, "warp needs a non-empty initial mask");
        SimtStack {
            entries: vec![Entry {
                pc: start_pc,
                mask: initial_mask,
                reconv: TOP_LEVEL,
            }],
            full: initial_mask,
        }
    }

    /// Current pc, or `None` once every thread has exited.
    pub fn pc(&self) -> Option<usize> {
        self.entries.last().map(|e| e.pc)
    }

    /// Current active mask (0 when the warp is done).
    pub fn mask(&self) -> u32 {
        self.entries.last().map(|e| e.mask).unwrap_or(0)
    }

    /// The initial mask: every thread the warp launched with.
    pub fn full_mask(&self) -> u32 {
        self.full
    }

    /// Whether the warp is executing below top level — i.e. some threads
    /// are parked at a reconvergence point.
    pub fn is_diverged(&self) -> bool {
        self.entries.len() > 1
    }

    /// Whether the warp runs in the "divergent" phase of §3: below top
    /// level, or at top level with a partial mask because some threads
    /// exited. `false` once every thread has exited.
    pub fn is_divergent(&self) -> bool {
        self.is_diverged() || (!self.is_done() && self.mask() != self.full)
    }

    /// Stack depth (1 = converged).
    pub fn depth(&self) -> usize {
        self.entries.len()
    }

    /// Advances past a non-control instruction: `pc += 1`, then pops any
    /// entries that reached their reconvergence point.
    pub fn advance(&mut self) {
        if let Some(top) = self.entries.last_mut() {
            top.pc += 1;
        }
        self.pop_reconverged();
    }

    /// Unconditional jump of the whole active mask.
    pub fn jump(&mut self, target: usize) {
        if let Some(top) = self.entries.last_mut() {
            top.pc = target;
        }
        self.pop_reconverged();
    }

    /// Moves past `instr` as it issues: `jmp` jumps, `exit` retires the
    /// active threads, `bra` waits for its taken mask
    /// ([`branch`](Self::branch)), anything else advances.
    pub fn issue(&mut self, instr: &Instruction) {
        match *instr {
            Instruction::Jmp { target } => self.jump(target),
            Instruction::Exit => self.exit_threads(),
            Instruction::Bra { .. } => {}
            _ => self.advance(),
        }
    }

    /// Resolves a conditional branch at the current pc.
    ///
    /// `taken_mask` must be a subset of the current mask. Returns `true`
    /// if the branch diverged (both outcomes non-empty).
    ///
    /// # Panics
    ///
    /// Panics if `taken_mask` has bits outside the active mask or the
    /// stack is empty.
    pub fn branch(&mut self, taken_mask: u32, target: usize, reconv: usize) -> bool {
        let top = *self.entries.last().expect("branch on finished warp");
        assert_eq!(taken_mask & !top.mask, 0, "taken mask outside active mask");
        let fall_mask = top.mask & !taken_mask;
        let fall_pc = top.pc + 1;
        let diverged = taken_mask != 0 && fall_mask != 0;
        if !diverged {
            let top = self.entries.last_mut().expect("checked non-empty");
            top.pc = if taken_mask != 0 { target } else { fall_pc };
        } else {
            // Current entry waits at the reconvergence point; push the
            // fall-through path, then the taken path (runs first).
            let top = self.entries.last_mut().expect("checked non-empty");
            top.pc = reconv;
            self.entries.push(Entry {
                pc: fall_pc,
                mask: fall_mask,
                reconv,
            });
            self.entries.push(Entry {
                pc: target,
                mask: taken_mask,
                reconv,
            });
        }
        self.pop_reconverged();
        diverged
    }

    /// Retires the currently active threads (an `exit` instruction):
    /// removes them from every stack entry and drops empty entries.
    pub fn exit_threads(&mut self) {
        let mask = self.mask();
        for e in &mut self.entries {
            e.mask &= !mask;
        }
        self.entries.retain(|e| e.mask != 0);
        self.pop_reconverged();
    }

    /// Whether every thread has exited.
    pub fn is_done(&self) -> bool {
        self.entries.is_empty()
    }

    fn pop_reconverged(&mut self) {
        while let Some(top) = self.entries.last() {
            if self.entries.len() > 1 && top.pc == top.reconv {
                self.entries.pop();
            } else {
                break;
            }
        }
    }
}

/// The launch-time thread mask of a warp with `threads` threads: the
/// low `threads` bits, all 32 for a full warp.
///
/// ```
/// assert_eq!(simt_isa::full_mask(3), 0b111);
/// assert_eq!(simt_isa::full_mask(32), u32::MAX);
/// ```
#[inline]
pub fn full_mask(threads: usize) -> u32 {
    if threads >= LANES {
        u32::MAX
    } else {
        (1u32 << threads) - 1
    }
}

/// The lanes of `active` whose branch predicate, read per lane through
/// `pred_lane`, is non-zero: the taken mask [`SimtStack::branch`]
/// expects.
#[inline]
pub fn taken_mask(active: u32, pred_lane: impl Fn(usize) -> u32) -> u32 {
    let mut taken = 0u32;
    for lane in 0..LANES {
        if active & (1 << lane) != 0 && pred_lane(lane) != 0 {
            taken |= 1 << lane;
        }
    }
    taken
}

/// One warp's place in its launch. It fixes the value each lane reads
/// for every [`Special`] and every scalar kernel parameter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WarpCoords<'a> {
    /// Index of the warp's block in the grid.
    pub block: usize,
    /// Warp index within the block.
    pub warp_in_block: usize,
    /// Blocks in the grid.
    pub blocks: usize,
    /// Threads per block.
    pub threads_per_block: usize,
    /// The launch's scalar parameters.
    pub params: &'a [u32],
}

impl WarpCoords<'_> {
    /// Threads this warp runs: 32, or fewer for the trailing warp of a
    /// block whose size is not a multiple of 32.
    pub fn threads(&self) -> usize {
        (self.threads_per_block - self.warp_in_block * LANES).min(LANES)
    }

    /// The value `lane` reads for special `s`. `%tid` is
    /// `warp_in_block·32 + lane` and `%gtid` is `block·block_dim + %tid`,
    /// both wrapping mod 2³².
    #[inline]
    pub fn special(&self, s: Special, lane: usize) -> u32 {
        let tid = (self.warp_in_block as u32)
            .wrapping_mul(LANES as u32)
            .wrapping_add(lane as u32);
        match s {
            Special::Tid => tid,
            Special::Bid => self.block as u32,
            Special::BlockDim => self.threads_per_block as u32,
            Special::GridDim => self.blocks as u32,
            Special::GlobalTid => (self.block as u32)
                .wrapping_mul(self.threads_per_block as u32)
                .wrapping_add(tid),
            Special::LaneId => lane as u32,
            Special::WarpId => self.warp_in_block as u32,
        }
    }

    /// Scalar parameter `i`, or 0 when the launch passed fewer (CUDA
    /// would fault; a benign default keeps kernels deterministic).
    #[inline]
    pub fn param(&self, i: u8) -> u32 {
        self.params.get(usize::from(i)).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn straight_line_execution() {
        let mut s = SimtStack::new(0xFFFF_FFFF, 0);
        s.advance();
        s.advance();
        assert_eq!(s.pc(), Some(2));
        assert_eq!(s.mask(), 0xFFFF_FFFF);
        assert!(!s.is_diverged());
    }

    #[test]
    fn issue_moves_past_each_kind_of_instruction() {
        use crate::{Operand, Reg};
        let mut s = SimtStack::new(0x3, 0);
        s.issue(&Instruction::Mov {
            dst: Reg(0),
            src: Operand::Imm(1),
        });
        s.issue(&Instruction::Jmp { target: 7 });
        s.issue(&Instruction::Bra {
            pred: Reg(0),
            target: 2,
            reconv: 9,
        });
        assert_eq!(s.pc(), Some(7), "a branch waits for its taken mask");
        s.issue(&Instruction::Exit);
        assert!(s.is_done());
    }

    #[test]
    fn uniform_taken_branch_jumps() {
        let mut s = SimtStack::new(0xF, 0);
        assert!(!s.branch(0xF, 7, 9));
        assert_eq!(s.pc(), Some(7));
        assert_eq!(s.depth(), 1);
    }

    #[test]
    fn uniform_not_taken_branch_falls_through() {
        let mut s = SimtStack::new(0xF, 3);
        assert!(!s.branch(0, 7, 9));
        assert_eq!(s.pc(), Some(4));
    }

    #[test]
    fn divergent_branch_runs_taken_then_fall_then_reconverges() {
        // if (tid < 2) { pc 1..3 } else { pc 3.. } reconv at 5
        let mut s = SimtStack::new(0xF, 0);
        assert!(s.branch(0x3, 3, 5));
        // Taken path first.
        assert_eq!((s.pc(), s.mask()), (Some(3), 0x3));
        assert!(s.is_diverged());
        s.advance(); // pc 4
        s.advance(); // pc 5 == reconv -> pop to fall path
        assert_eq!((s.pc(), s.mask()), (Some(1), 0xC));
        s.advance(); // 2
        s.advance(); // 3
        s.advance(); // 4
        s.advance(); // 5 == reconv -> pop to base
        assert_eq!((s.pc(), s.mask()), (Some(5), 0xF));
        assert!(!s.is_diverged());
    }

    #[test]
    fn nested_divergence() {
        let mut s = SimtStack::new(0xF, 0);
        s.branch(0x3, 10, 20); // outer
        assert_eq!((s.pc(), s.mask()), (Some(10), 0x3));
        s.branch(0x1, 15, 18); // inner, within taken path
        assert_eq!((s.pc(), s.mask()), (Some(15), 0x1));
        // base(reconv) + outer-fall + outer-taken(waiting) + inner-fall +
        // inner-taken = 5 entries.
        assert_eq!(s.depth(), 5);
        // Inner taken reaches 18 -> inner fall (pc 11, mask 0x2).
        s.jump(18);
        assert_eq!((s.pc(), s.mask()), (Some(11), 0x2));
        // Inner fall reaches 18 -> inner reconv entry (mask 0x3) at 18.
        s.jump(18);
        assert_eq!((s.pc(), s.mask()), (Some(18), 0x3));
        // Proceed to outer reconv 20 -> outer fall path pc 1 mask 0xC.
        s.jump(20);
        assert_eq!((s.pc(), s.mask()), (Some(1), 0xC));
        s.jump(20);
        assert_eq!((s.pc(), s.mask()), (Some(20), 0xF));
        assert_eq!(s.depth(), 1);
    }

    #[test]
    fn loop_branch_diverges_each_trip() {
        // while (pred) body; branch at pc 2 back to 1, reconv (exit) at 3.
        let mut s = SimtStack::new(0x7, 2);
        // Two threads keep looping, one exits.
        assert!(s.branch(0x3, 1, 3));
        assert_eq!((s.pc(), s.mask()), (Some(1), 0x3));
        s.advance(); // pc 2 (branch again)
                     // Now all remaining threads exit the loop.
        assert!(!s.branch(0x0, 1, 3));
        // Fall-through entry reaches pc 3 == reconv, pops; base entry at 3.
        assert_eq!((s.pc(), s.mask()), (Some(3), 0x7));
        assert_eq!(s.depth(), 1);
    }

    #[test]
    fn exit_under_divergence_keeps_other_paths() {
        let mut s = SimtStack::new(0xF, 0);
        s.branch(0x3, 10, 20);
        // Taken threads exit inside the branch.
        s.exit_threads();
        // Fall path continues.
        assert_eq!((s.pc(), s.mask()), (Some(1), 0xC));
        // Fall path reconverges and finishes at top level.
        s.jump(20);
        assert_eq!((s.pc(), s.mask()), (Some(20), 0xC));
        s.exit_threads();
        assert!(s.is_done());
        assert_eq!(s.mask(), 0);
        assert_eq!(s.pc(), None);
    }

    #[test]
    fn divergent_phase_covers_parked_and_exited_threads() {
        let mut s = SimtStack::new(0xF, 0);
        assert!(!s.is_divergent());
        s.branch(0x3, 10, 20);
        assert!(s.is_divergent());
        // Taken threads exit; the fall path reconverges at top level
        // with a partial mask, which is still divergent.
        s.exit_threads();
        s.jump(20);
        assert_eq!((s.depth(), s.mask()), (1, 0xC));
        assert!(s.is_divergent());
        s.exit_threads();
        assert!(!s.is_divergent());
        assert_eq!(s.full_mask(), 0xF);
    }

    #[test]
    fn full_warp_exit_finishes() {
        let mut s = SimtStack::new(u32::MAX, 0);
        s.exit_threads();
        assert!(s.is_done());
    }

    #[test]
    #[should_panic(expected = "non-empty initial mask")]
    fn empty_mask_rejected() {
        let _ = SimtStack::new(0, 0);
    }

    #[test]
    #[should_panic(expected = "outside active mask")]
    fn taken_mask_must_be_subset() {
        let mut s = SimtStack::new(0x1, 0);
        s.branch(0x2, 1, 2);
    }

    /// Warp 1 of block 1 in a 2×48 launch: the trailing 16-thread warp.
    fn trailing_warp() -> WarpCoords<'static> {
        WarpCoords {
            block: 1,
            warp_in_block: 1,
            blocks: 2,
            threads_per_block: 48,
            params: &[7, 9],
        }
    }

    #[test]
    fn specials_on_a_trailing_partial_warp() {
        let w = trailing_warp();
        assert_eq!(w.threads(), 16);
        assert_eq!(full_mask(w.threads()), 0xFFFF);
        for lane in [0, 5, 15] {
            let l = lane as u32;
            assert_eq!(w.special(Special::Tid, lane), 32 + l);
            assert_eq!(w.special(Special::Bid, lane), 1);
            assert_eq!(w.special(Special::BlockDim, lane), 48);
            assert_eq!(w.special(Special::GridDim, lane), 2);
            assert_eq!(w.special(Special::GlobalTid, lane), 48 + 32 + l);
            assert_eq!(w.special(Special::LaneId, lane), l);
            assert_eq!(w.special(Special::WarpId, lane), 1);
        }
    }

    #[test]
    fn missing_param_reads_zero() {
        let w = trailing_warp();
        assert_eq!((w.param(0), w.param(1)), (7, 9));
        assert_eq!(w.param(2), 0);
        assert_eq!(w.param(u8::MAX), 0);
    }

    #[test]
    fn taken_mask_ignores_inactive_and_zero_predicate_lanes() {
        // Predicate is non-zero on even lanes only.
        let pred = |lane: usize| u32::from(lane.is_multiple_of(2)) * (lane as u32 + 1);
        assert_eq!(taken_mask(u32::MAX, pred), 0x5555_5555);
        assert_eq!(taken_mask(0xF0, pred), 0x50);
        assert_eq!(taken_mask(0, pred), 0);
        assert_eq!(taken_mask(0xAAAA_AAAA, pred), 0);
    }

    #[test]
    fn full_mask_at_edges() {
        assert_eq!(full_mask(1), 0x1);
        assert_eq!(full_mask(31), 0x7FFF_FFFF);
        assert_eq!(full_mask(32), u32::MAX);
    }
}
