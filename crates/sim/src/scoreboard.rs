//! Per-warp register scoreboard: RAW, WAW and WAR hazard tracking.

/// Tracks pending register reads and writes per (warp slot, register).
///
/// An instruction may issue only if
/// * none of its sources has a pending write (RAW),
/// * its destination has no pending write (WAW), and
/// * its destination has no pending read (WAR — operand values are
///   captured when the collector fetches them, so a later write must not
///   land first).
///
/// The counters are dense: one row of `num_regs` entries per warp slot,
/// so every check and update is an index, never a hash lookup.
#[derive(Clone, Debug)]
pub struct Scoreboard {
    num_regs: usize,
    pending_writes: Vec<u32>,
    pending_reads: Vec<u32>,
}

impl Scoreboard {
    /// An empty scoreboard for `slots` warp slots of `num_regs`
    /// registers each.
    pub fn new(slots: usize, num_regs: usize) -> Self {
        Scoreboard {
            num_regs,
            pending_writes: vec![0; slots * num_regs],
            pending_reads: vec![0; slots * num_regs],
        }
    }

    fn index(&self, warp: usize, reg: usize) -> usize {
        debug_assert!(reg < self.num_regs, "r{reg} outside the scoreboard row");
        warp * self.num_regs + reg
    }

    /// Whether an instruction reading `srcs` and writing `dst` may issue
    /// on `warp`.
    pub fn can_issue(&self, warp: usize, srcs: &[usize], dst: Option<usize>) -> bool {
        if srcs
            .iter()
            .any(|&r| self.pending_writes[self.index(warp, r)] > 0)
        {
            return false; // RAW
        }
        if let Some(d) = dst {
            let i = self.index(warp, d);
            if self.pending_writes[i] > 0 {
                return false; // WAW
            }
            if self.pending_reads[i] > 0 {
                return false; // WAR
            }
        }
        true
    }

    /// Registers the hazards of an issuing instruction.
    pub fn issue(&mut self, warp: usize, srcs: &[usize], dst: Option<usize>) {
        for &r in srcs {
            let i = self.index(warp, r);
            self.pending_reads[i] += 1;
        }
        if let Some(d) = dst {
            let i = self.index(warp, d);
            self.pending_writes[i] += 1;
        }
    }

    /// Releases the read reservations (operands captured by the
    /// collector).
    ///
    /// # Panics
    ///
    /// Panics if a read was never registered — an accounting bug.
    pub fn release_reads(&mut self, warp: usize, srcs: &[usize]) {
        for &r in srcs {
            let i = self.index(warp, r);
            let n = self
                .pending_reads
                .get_mut(i)
                .filter(|n| **n > 0)
                .expect("release of unregistered read");
            *n -= 1;
        }
    }

    /// Releases the write reservation (result written back).
    ///
    /// # Panics
    ///
    /// Panics if the write was never registered.
    pub fn release_write(&mut self, warp: usize, dst: usize) {
        let i = self.index(warp, dst);
        let n = self
            .pending_writes
            .get_mut(i)
            .filter(|n| **n > 0)
            .expect("release of unregistered write");
        *n -= 1;
    }

    /// Whether the warp has no in-flight register activity.
    pub fn is_warp_idle(&self, warp: usize) -> bool {
        let row = warp * self.num_regs..(warp + 1) * self.num_regs;
        self.pending_writes[row.clone()].iter().all(|&n| n == 0)
            && self.pending_reads[row].iter().all(|&n| n == 0)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use rand::prelude::*;

    use super::*;

    #[test]
    fn raw_hazard_blocks() {
        let mut sb = Scoreboard::new(2, 8);
        sb.issue(0, &[1], Some(2));
        assert!(!sb.can_issue(0, &[2], None)); // RAW on r2
        sb.release_write(0, 2);
        assert!(sb.can_issue(0, &[2], None));
    }

    #[test]
    fn waw_hazard_blocks() {
        let mut sb = Scoreboard::new(2, 8);
        sb.issue(0, &[], Some(3));
        assert!(!sb.can_issue(0, &[], Some(3)));
        sb.release_write(0, 3);
        assert!(sb.can_issue(0, &[], Some(3)));
    }

    #[test]
    fn war_hazard_blocks_until_operands_captured() {
        let mut sb = Scoreboard::new(2, 8);
        sb.issue(0, &[5], Some(6));
        assert!(!sb.can_issue(0, &[], Some(5))); // WAR on r5
        sb.release_reads(0, &[5]);
        assert!(sb.can_issue(0, &[], Some(5)));
    }

    #[test]
    fn warps_are_independent() {
        let mut sb = Scoreboard::new(2, 8);
        sb.issue(0, &[1], Some(2));
        assert!(sb.can_issue(1, &[2], Some(2)));
        assert!(!sb.is_warp_idle(0));
        assert!(sb.is_warp_idle(1));
    }

    #[test]
    fn duplicate_reads_are_counted() {
        let mut sb = Scoreboard::new(2, 8);
        sb.issue(0, &[1], None);
        sb.issue(0, &[1], None);
        sb.release_reads(0, &[1]);
        assert!(!sb.can_issue(0, &[], Some(1)));
        sb.release_reads(0, &[1]);
        assert!(sb.can_issue(0, &[], Some(1)));
    }

    #[test]
    fn last_slot_last_register_is_tracked() {
        let (slots, regs) = (4, 6);
        let mut sb = Scoreboard::new(slots, regs);
        let (w, r) = (slots - 1, regs - 1);
        sb.issue(w, &[r], Some(r - 1));
        assert!(!sb.can_issue(w, &[], Some(r))); // WAR on the last cell
        assert!(!sb.can_issue(w, &[r - 1], None)); // RAW
        assert!(!sb.is_warp_idle(w));
        sb.release_reads(w, &[r]);
        sb.release_write(w, r - 1);
        assert!(sb.can_issue(w, &[r - 1], Some(r)));
        assert!(sb.is_warp_idle(w));
        sb.issue(w, &[], Some(r));
        assert!(!sb.can_issue(w, &[r], None)); // RAW on the last cell
        sb.release_write(w, r);
        assert!(sb.is_warp_idle(w));
    }

    #[test]
    fn adjacent_rows_do_not_bleed() {
        // The last register of warp 1 and the first of warp 2 are
        // neighbours in the dense table; neither may see the other.
        let regs = 5;
        let mut sb = Scoreboard::new(3, regs);
        sb.issue(1, &[regs - 1], Some(regs - 1));
        assert!(sb.can_issue(2, &[0], Some(0)));
        assert!(sb.can_issue(0, &[regs - 1], Some(regs - 1)));
        assert!(sb.is_warp_idle(0));
        assert!(sb.is_warp_idle(2));
        assert!(!sb.is_warp_idle(1));
        sb.issue(2, &[0], Some(0));
        assert!(sb.can_issue(1, &[0], Some(0)));
        assert!(!sb.can_issue(1, &[regs - 1], None));
        sb.release_reads(1, &[regs - 1]);
        sb.release_write(1, regs - 1);
        assert!(sb.is_warp_idle(1));
        assert!(!sb.is_warp_idle(2));
    }

    /// The scoreboard's original sparse form, kept as a reference model.
    #[derive(Default)]
    struct Reference {
        writes: HashMap<(usize, usize), u32>,
        reads: HashMap<(usize, usize), u32>,
    }

    impl Reference {
        fn can_issue(&self, warp: usize, srcs: &[usize], dst: Option<usize>) -> bool {
            !srcs.iter().any(|&r| self.writes.contains_key(&(warp, r)))
                && dst.is_none_or(|d| {
                    !self.writes.contains_key(&(warp, d)) && !self.reads.contains_key(&(warp, d))
                })
        }

        fn issue(&mut self, warp: usize, srcs: &[usize], dst: Option<usize>) {
            for &r in srcs {
                *self.reads.entry((warp, r)).or_insert(0) += 1;
            }
            if let Some(d) = dst {
                *self.writes.entry((warp, d)).or_insert(0) += 1;
            }
        }

        fn release(map: &mut HashMap<(usize, usize), u32>, key: (usize, usize)) {
            let n = map.get_mut(&key).expect("reference release is balanced");
            *n -= 1;
            if *n == 0 {
                map.remove(&key);
            }
        }

        fn is_warp_idle(&self, warp: usize) -> bool {
            !self
                .writes
                .keys()
                .chain(self.reads.keys())
                .any(|&(w, _)| w == warp)
        }
    }

    #[test]
    fn randomised_sequences_match_the_sparse_reference() {
        for seed in 0..32u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let slots = rng.gen_range(1..6usize);
            let regs = rng.gen_range(1..9usize);
            let mut sb = Scoreboard::new(slots, regs);
            let mut reference = Reference::default();
            // Outstanding reservations, so releases stay balanced.
            let mut reads: Vec<(usize, Vec<usize>)> = Vec::new();
            let mut writes: Vec<(usize, usize)> = Vec::new();
            for step in 0..400 {
                let warp = rng.gen_range(0..slots);
                let nsrcs = rng.gen_range(0..3usize);
                let mut srcs: Vec<usize> = (0..nsrcs).map(|_| rng.gen_range(0..regs)).collect();
                srcs.dedup();
                let dst = rng.gen_bool(0.7).then(|| rng.gen_range(0..regs));
                let ctx = format!("seed {seed} step {step}: w{warp} {srcs:?} -> {dst:?}");
                let allowed = reference.can_issue(warp, &srcs, dst);
                assert_eq!(sb.can_issue(warp, &srcs, dst), allowed, "{ctx}");
                match rng.gen_range(0..4u32) {
                    0 | 1 if allowed => {
                        sb.issue(warp, &srcs, dst);
                        reference.issue(warp, &srcs, dst);
                        reads.push((warp, srcs));
                        writes.extend(dst.map(|d| (warp, d)));
                    }
                    2 if !reads.is_empty() => {
                        let (w, srcs) = reads.swap_remove(rng.gen_range(0..reads.len()));
                        sb.release_reads(w, &srcs);
                        for r in srcs {
                            Reference::release(&mut reference.reads, (w, r));
                        }
                    }
                    3 if !writes.is_empty() => {
                        let (w, d) = writes.swap_remove(rng.gen_range(0..writes.len()));
                        sb.release_write(w, d);
                        Reference::release(&mut reference.writes, (w, d));
                    }
                    _ => {}
                }
                for w in 0..slots {
                    assert_eq!(sb.is_warp_idle(w), reference.is_warp_idle(w), "{ctx}, w{w}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "unregistered write")]
    fn unbalanced_write_release_panics() {
        Scoreboard::new(2, 8).release_write(0, 1);
    }

    #[test]
    #[should_panic(expected = "unregistered read")]
    fn unbalanced_read_release_panics() {
        Scoreboard::new(2, 8).release_reads(0, &[1]);
    }
}
