//! The streaming-multiprocessor pipeline: issue → operand collection →
//! execution → compression-aware writeback.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::mem;

use bdi::{BdiCodec, CompressedRegister, WarpRegister, WARP_SIZE};
use gpu_regfile::{BankPorts, RegFileError, RegisterFile, WarpSlot, WriteError};
use simt_isa::{Instruction, Kernel, LatencyClass, Operand, SrcRegs, WarpCoords};

use crate::config::{GpuConfig, SchedulerPolicy};
use crate::exec::{capture, decode, execute, merge_source, Dispatch, Effect, MemAccess};
use crate::launch::LaunchConfig;
use crate::memory::{GlobalMemory, MemoryFault};
use crate::scoreboard::Scoreboard;
use crate::stats::{
    MemEvent, MemTrafficStats, PcMemTraffic, PcStalls, SimStats, StallCause, StallStats, WriteEvent,
};
use crate::warp::WarpState;

/// Simulation failures.
#[derive(Clone, Debug, PartialEq)]
pub enum SimError {
    /// A thread accessed global memory out of range, attributed to the
    /// faulting access site (kernel, warp, pc).
    MemoryAt {
        /// Kernel the faulting instruction belongs to.
        kernel: String,
        /// Block index of the faulting warp.
        block: usize,
        /// Warp index within its block.
        warp_in_block: usize,
        /// Program counter of the faulting load/store.
        pc: usize,
        /// The underlying out-of-range access.
        fault: MemoryFault,
    },
    /// The configured cycle cap was exceeded.
    CycleLimit {
        /// The cap that was hit.
        limit: u64,
    },
    /// No instruction issued or retired for a very long time — a
    /// simulator or kernel bug.
    Deadlock {
        /// Cycle at which the deadlock was declared.
        cycle: u64,
    },
    /// A block needs more warp slots or register-file entries than the SM
    /// has.
    BlockTooLarge {
        /// Warps the block needs.
        warps_needed: usize,
        /// Warp slots the SM can offer for this kernel.
        slots_available: usize,
    },
    /// Register file rejected an allocation (geometry exhausted).
    RegFile(RegFileError),
    /// An operand read failed: the stored form was structurally corrupt,
    /// or register protection flagged an uncorrectable bit error (only
    /// reachable with fault injection armed).
    Read {
        /// Warp slot whose read failed.
        slot: usize,
        /// Architectural register index.
        reg: usize,
        /// The underlying register-file failure.
        source: gpu_regfile::ReadError,
    },
    /// A static issue plan failed validation or diverged from the
    /// machine state during scheduled replay — the plan does not
    /// soundly describe this kernel × launch × configuration.
    Plan {
        /// Name of the kernel whose plan was rejected (empty when not
        /// yet attributed).
        kernel: String,
        /// Global warp index the violation was detected in, if the
        /// check is warp-specific.
        warp: Option<usize>,
        /// Program counter of the offending planned step, if any.
        pc: Option<usize>,
        /// What the plan got wrong.
        message: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::MemoryAt {
                kernel,
                block,
                warp_in_block,
                pc,
                fault,
            } => write!(
                f,
                "memory fault in kernel `{kernel}` (block {block}, warp {warp_in_block}, pc {pc}): {fault}"
            ),
            SimError::CycleLimit { limit } => write!(f, "cycle limit of {limit} exceeded"),
            SimError::Deadlock { cycle } => write!(f, "no forward progress by cycle {cycle}"),
            SimError::BlockTooLarge {
                warps_needed,
                slots_available,
            } => write!(
                f,
                "block needs {warps_needed} warps but only {slots_available} slots fit this kernel"
            ),
            SimError::RegFile(e) => write!(f, "register file: {e}"),
            SimError::Read { slot, reg, source } => {
                write!(f, "read of slot {slot} r{reg} failed: {source}")
            }
            SimError::Plan {
                kernel,
                warp,
                pc,
                message,
            } => {
                write!(f, "unsound issue plan")?;
                if !kernel.is_empty() {
                    write!(f, " for kernel `{kernel}`")?;
                }
                if let Some(w) = warp {
                    write!(f, " (warp {w}")?;
                    if let Some(p) = pc {
                        write!(f, ", pc {p}")?;
                    }
                    write!(f, ")")?;
                } else if let Some(p) = pc {
                    write!(f, " (pc {p})")?;
                }
                write!(f, ": {message}")
            }
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::MemoryAt { fault, .. } => Some(fault),
            SimError::RegFile(e) => Some(e),
            SimError::Read { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<RegFileError> for SimError {
    fn from(e: RegFileError) -> Self {
        SimError::RegFile(e)
    }
}

/// Result of a completed simulation.
#[derive(Clone, Debug, PartialEq)]
pub struct SimResult {
    /// All collected statistics.
    pub stats: SimStats,
}

/// Final architectural register state of every warp, keyed by
/// `(block, warp_in_block)` and captured (decompressed) at the instant
/// the warp drains, just before its slot is freed. This is the
/// bit-identity witness the scheduled backend is checked against.
pub type FinalRegs = BTreeMap<(usize, usize), Vec<WarpRegister>>;

/// The simulator front-end: configure once, run kernels.
#[derive(Clone, Debug)]
pub struct GpuSim {
    cfg: GpuConfig,
}

impl GpuSim {
    /// Creates a simulator with the given configuration.
    pub fn new(cfg: GpuConfig) -> Self {
        GpuSim { cfg }
    }

    /// The active configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// Resident-warp slots this configuration offers `kernel`: the
    /// SM's warp-slot count capped by register-file capacity. An
    /// ahead-of-time issue plan must be laid out for exactly this
    /// residency to replay here.
    pub fn max_resident_warps(&self, kernel: &Kernel) -> usize {
        let num_regs = kernel.num_regs().max(1) as usize;
        self.cfg
            .max_warps_per_sm
            .min(RegisterFile::new(self.cfg.regfile).max_slots(num_regs))
    }

    /// Runs a kernel to completion.
    ///
    /// # Errors
    ///
    /// See [`SimError`].
    pub fn run(
        &self,
        kernel: &Kernel,
        launch: &LaunchConfig,
        memory: &mut GlobalMemory,
    ) -> Result<SimResult, SimError> {
        self.run_observed(kernel, launch, memory, &mut |_| {})
    }

    /// Runs a kernel, delivering every retired register write to
    /// `observer` (used for the Fig. 2 / Fig. 5 value characterisations).
    ///
    /// # Errors
    ///
    /// See [`SimError`].
    pub fn run_observed(
        &self,
        kernel: &Kernel,
        launch: &LaunchConfig,
        memory: &mut GlobalMemory,
        observer: &mut dyn FnMut(&WriteEvent),
    ) -> Result<SimResult, SimError> {
        self.run_block_range(kernel, launch, memory, 0..launch.blocks(), observer)
    }

    /// Runs a kernel and additionally captures every warp's final
    /// architectural register values (decompressed) at drain time.
    ///
    /// The scheduled backend replays an ahead-of-time issue plan with
    /// the scoreboard bypassed; this method provides the dynamic-core
    /// ground truth its bit-identity soundness check compares against.
    ///
    /// # Errors
    ///
    /// See [`SimError`].
    pub fn run_capturing(
        &self,
        kernel: &Kernel,
        launch: &LaunchConfig,
        memory: &mut GlobalMemory,
    ) -> Result<(SimResult, FinalRegs), SimError> {
        let mut observer = |_: &WriteEvent| {};
        let mut engine = Engine::new(
            &self.cfg,
            kernel,
            launch,
            memory,
            0..launch.blocks(),
            &mut observer,
        )?;
        engine.capture = Some(FinalRegs::new());
        let result = engine.run_loop()?;
        let regs = engine.capture.take().expect("armed above");
        Ok((result, regs))
    }

    /// Runs a kernel, delivering every dispatched global-memory access
    /// (pc, warp, active mask, per-lane effective addresses) to
    /// `mem_observer`.
    ///
    /// This is the trace the `wcsim mem` soundness gate joins against
    /// the static address abstraction.
    ///
    /// # Errors
    ///
    /// See [`SimError`].
    pub fn run_mem_observed(
        &self,
        kernel: &Kernel,
        launch: &LaunchConfig,
        memory: &mut GlobalMemory,
        mem_observer: &mut dyn FnMut(&MemEvent),
    ) -> Result<SimResult, SimError> {
        let mut observer = |_: &WriteEvent| {};
        let mut engine = Engine::new(
            &self.cfg,
            kernel,
            launch,
            memory,
            0..launch.blocks(),
            &mut observer,
        )?;
        engine.mem_observer = Some(mem_observer);
        engine.run_loop()
    }

    /// Runs only the blocks in `range` of the launch on this SM — the
    /// building block of [`run_chip`](Self::run_chip).
    pub(crate) fn run_block_range(
        &self,
        kernel: &Kernel,
        launch: &LaunchConfig,
        memory: &mut GlobalMemory,
        range: std::ops::Range<usize>,
        observer: &mut dyn FnMut(&WriteEvent),
    ) -> Result<SimResult, SimError> {
        Engine::new(&self.cfg, kernel, launch, memory, range, observer)?.run()
    }

    /// Runs a kernel with the given fault injector armed in the register
    /// file. Unlike [`run`](Self::run), the fault event log is returned
    /// even when the simulation fails — a detected uncorrectable error
    /// surfaces as `Err(SimError::Read { .. })` *and* the log records the
    /// detection, so campaigns can account for every injected fault.
    #[cfg(feature = "faults")]
    pub fn run_faulted(
        &self,
        kernel: &Kernel,
        launch: &LaunchConfig,
        memory: &mut GlobalMemory,
        injector: gpu_faults::FaultInjector,
    ) -> (Result<SimResult, SimError>, gpu_faults::FaultLog) {
        let mut observer = |_: &WriteEvent| {};
        let engine = Engine::new(
            self.config(),
            kernel,
            launch,
            memory,
            0..launch.blocks(),
            &mut observer,
        );
        match engine {
            Ok(mut engine) => {
                engine.regfile.arm_faults(injector);
                let result = engine.run_loop();
                let log = engine
                    .regfile
                    .take_fault_log()
                    .expect("injector armed above");
                (result, log)
            }
            // Launch never started: every planned fault is untriggered.
            Err(e) => (Err(e), injector.finish()),
        }
    }
}

// ---------------------------------------------------------------------
// Internal pipeline structures
// ---------------------------------------------------------------------

#[derive(Clone, Debug)]
struct Collector {
    slot: usize,
    pc: usize,
    instr: Instruction,
    mask: u32,
    divergent: bool,
    synthetic: bool,
    /// Distinct source registers, one fetch each.
    srcs: SrcRegs,
    /// Fetched operand values, parallel to `srcs`.
    values: [Option<WarpRegister>; 2],
    /// Extra result latency from decompressing compressed operands: the
    /// decompressor sits *between* the register file and the execution
    /// units (Fig. 1), a pipelined stage that lengthens the dependent
    /// path without holding the collector.
    decomp_extra: u64,
}

impl Collector {
    fn is_ready(&self) -> bool {
        self.values[..self.srcs.len()].iter().all(Option::is_some)
    }
}

// Entries are stepped in place, so the stored form stays inline: boxing
// it would allocate on every write.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
enum WbState {
    /// Executing; the result exists from `done_at` on.
    Await { done_at: u64 },
    /// Merged, waiting for a free compressor unit.
    NeedCompressor,
    /// Stored form known (after the compressor's latency, if it took
    /// that path); writes at `not_before` or later, port permitting.
    Ready {
        compressed: CompressedRegister,
        not_before: u64,
    },
    /// Written; removed at the end of the cycle.
    Retired,
}

#[derive(Clone, Debug)]
struct WbEntry {
    slot: usize,
    pc: usize,
    reg: usize,
    result: WarpRegister,
    mask: u32,
    divergent: bool,
    synthetic: bool,
    state: WbState,
}

struct Engine<'a> {
    cfg: &'a GpuConfig,
    kernel: &'a Kernel,
    launch: &'a LaunchConfig,
    memory: &'a mut GlobalMemory,
    observer: &'a mut dyn FnMut(&WriteEvent),
    codec: BdiCodec,
    regfile: RegisterFile,
    ports: BankPorts,
    scoreboard: Scoreboard,
    warps: Vec<Option<WarpState>>,
    collectors: Vec<Option<Collector>>,
    /// In-flight results in issue order, which is the order the write
    /// ports and compressors are arbitrated in.
    writebacks: Vec<WbEntry>,
    sched_last: Vec<Option<usize>>,
    /// Reused buffer for one scheduler's candidate order.
    order: Vec<usize>,
    /// Warp slots without a resident warp.
    free_slots: usize,
    now: u64,
    comp_starts: usize,
    decomp_starts: usize,
    next_block: usize,
    last_block: usize,
    launch_seq: u64,
    num_regs: usize,
    initial_reg: CompressedRegister,
    stats: SimStats,
    /// Stall counters indexed by pc, folded into `stats.stalls` at the end.
    pc_stalls: Vec<PcStalls>,
    /// Coalescer traffic indexed by pc, folded into `stats.mem` at the end.
    pc_mem: Vec<PcMemTraffic>,
    last_progress: u64,
    /// When armed, drained warps deposit their decompressed registers
    /// here just before the slot is freed.
    capture: Option<FinalRegs>,
    /// When armed, every dispatched load/store delivers a [`MemEvent`]
    /// (pc, warp, active mask, per-lane addresses) here.
    mem_observer: Option<&'a mut dyn FnMut(&MemEvent)>,
    /// Uncompressed mirror every decompressed read is checked against.
    #[cfg(feature = "sanitize")]
    shadow: gpu_regfile::ShadowRegisterFile,
    /// Independent RAW/WAW/WAR re-check of every issue/capture/retire.
    #[cfg(feature = "sanitize")]
    oracle: crate::sanitize::HazardOracle,
}

/// Declare a deadlock after this many cycles without an issue or retire.
const DEADLOCK_WINDOW: u64 = 100_000;

impl<'a> Engine<'a> {
    fn new(
        cfg: &'a GpuConfig,
        kernel: &'a Kernel,
        launch: &'a LaunchConfig,
        memory: &'a mut GlobalMemory,
        block_range: std::ops::Range<usize>,
        observer: &'a mut dyn FnMut(&WriteEvent),
    ) -> Result<Self, SimError> {
        let num_regs = kernel.num_regs().max(1) as usize;
        let regfile = RegisterFile::new(cfg.regfile);
        let max_resident = cfg.max_warps_per_sm.min(regfile.max_slots(num_regs));
        let warps_needed = launch.warps_per_block();
        if warps_needed > max_resident {
            return Err(SimError::BlockTooLarge {
                warps_needed,
                slots_available: max_resident,
            });
        }
        let codec = BdiCodec::new(cfg.compression.choices.clone());
        // Registers start at zero in the stored form a write would give
        // them (a disabled codec leaves every value uncompressed).
        let initial_reg = codec.compress(&WarpRegister::ZERO);
        Ok(Engine {
            ports: BankPorts::new(cfg.regfile.num_banks),
            scoreboard: Scoreboard::new(max_resident, num_regs),
            warps: vec![None; max_resident],
            collectors: vec![None; cfg.num_collectors],
            writebacks: Vec::new(),
            sched_last: vec![None; cfg.num_schedulers],
            order: Vec::with_capacity(max_resident),
            free_slots: max_resident,
            now: 0,
            comp_starts: 0,
            decomp_starts: 0,
            next_block: block_range.start,
            last_block: block_range.end,
            launch_seq: 0,
            num_regs,
            initial_reg,
            stats: SimStats::default(),
            pc_stalls: vec![PcStalls::default(); kernel.len()],
            pc_mem: vec![PcMemTraffic::default(); kernel.len()],
            last_progress: 0,
            capture: None,
            mem_observer: None,
            #[cfg(feature = "sanitize")]
            shadow: gpu_regfile::ShadowRegisterFile::new(),
            #[cfg(feature = "sanitize")]
            oracle: crate::sanitize::HazardOracle::new(kernel.name(), max_resident, num_regs),
            cfg,
            kernel,
            launch,
            memory,
            observer,
            codec,
            regfile,
        })
    }

    fn run(mut self) -> Result<SimResult, SimError> {
        self.run_loop()
    }

    /// The main cycle loop, separated from [`run`](Self::run) so
    /// `run_faulted` can recover the fault log from the register file
    /// after an `Err` return.
    fn run_loop(&mut self) -> Result<SimResult, SimError> {
        self.launch_blocks()?;
        while !self.is_done() {
            self.ports.begin_cycle();
            self.comp_starts = 0;
            self.decomp_starts = 0;
            self.writeback_stage()?;
            self.collector_stage()?;
            self.issue_stage();
            if self.cfg.census_interval > 0 && self.now.is_multiple_of(self.cfg.census_interval) {
                self.sample_census();
            }
            self.retire_warps();
            self.launch_blocks()?;
            self.now += 1;
            if self.now > self.cfg.max_cycles {
                return Err(SimError::CycleLimit {
                    limit: self.cfg.max_cycles,
                });
            }
            if self.now.saturating_sub(self.last_progress) > DEADLOCK_WINDOW {
                return Err(SimError::Deadlock { cycle: self.now });
            }
        }
        self.stats.cycles = self.now;
        self.stats.stalls = StallStats::from_dense(&self.pc_stalls);
        self.stats.mem = MemTrafficStats::from_dense(&self.pc_mem);
        self.stats.regfile = self.regfile.stats(self.now);
        self.stats.gating = self.cfg.regfile.gating;
        Ok(SimResult {
            stats: mem::take(&mut self.stats),
        })
    }

    fn is_done(&self) -> bool {
        self.next_block >= self.last_block && self.free_slots == self.warps.len()
    }

    // -----------------------------------------------------------------
    // Block launch / warp retirement
    // -----------------------------------------------------------------

    fn launch_blocks(&mut self) -> Result<(), SimError> {
        let wpb = self.launch.warps_per_block();
        while self.next_block < self.last_block && self.free_slots >= wpb {
            let block = self.next_block;
            // The block's warps take the lowest free slots, in order.
            let mut slot = 0;
            for w in 0..wpb {
                while self.warps[slot].is_some() {
                    slot += 1;
                }
                let threads = self.launch.coords(block, w).threads();
                self.regfile.allocate_warp_with(
                    WarpSlot(slot),
                    self.num_regs,
                    &self.initial_reg,
                    self.now,
                )?;
                #[cfg(feature = "sanitize")]
                self.shadow.allocate_warp(
                    WarpSlot(slot),
                    self.num_regs,
                    self.codec.decompress(&self.initial_reg),
                );
                self.warps[slot] = Some(WarpState::new(slot, block, w, threads, self.launch_seq));
                self.free_slots -= 1;
                self.launch_seq += 1;
            }
            self.next_block += 1;
        }
        Ok(())
    }

    fn retire_warps(&mut self) {
        for slot in 0..self.warps.len() {
            let drained_slot = match &self.warps[slot] {
                Some(w) if w.is_drained() => Some(w.slot),
                _ => None,
            };
            if let Some(s) = drained_slot {
                debug_assert!(self.scoreboard.is_warp_idle(s));
                #[cfg(feature = "sanitize")]
                {
                    self.oracle.on_warp_free(s);
                    self.shadow.free_warp(WarpSlot(s));
                }
                if let Some(cap) = self.capture.as_mut() {
                    let w = self.warps[s].as_ref().expect("drained warp present");
                    let regs = capture(&self.regfile, &self.codec, s, self.num_regs);
                    cap.insert((w.block, w.warp_in_block), regs);
                }
                self.regfile.free_warp(WarpSlot(s), self.now);
                self.warps[s] = None;
                self.free_slots += 1;
            }
        }
    }

    // -----------------------------------------------------------------
    // Issue
    // -----------------------------------------------------------------

    fn issue_stage(&mut self) {
        let mut order = mem::take(&mut self.order);
        for s in 0..self.cfg.num_schedulers {
            self.schedule_order(s, &mut order);
            for &slot in &order {
                if self.try_issue(slot) {
                    self.sched_last[s] = Some(slot);
                    self.last_progress = self.now;
                    break;
                }
            }
        }
        self.order = order;
    }

    /// Fills `slots` with the candidate warps of scheduler `s`, in
    /// policy priority order.
    fn schedule_order(&self, s: usize, slots: &mut Vec<usize>) {
        slots.clear();
        slots.extend(
            (s..self.warps.len())
                .step_by(self.cfg.num_schedulers)
                .filter(|&slot| matches!(&self.warps[slot], Some(w) if !w.stack.is_done() && !w.blocked)),
        );
        match self.cfg.scheduler {
            SchedulerPolicy::Gto => {
                // Launch sequence numbers are unique, so an unstable
                // sort gives the one oldest-first order.
                slots.sort_unstable_by_key(|&slot| {
                    self.warps[slot]
                        .as_ref()
                        .map(|w| w.launch_seq)
                        .unwrap_or(u64::MAX)
                });
                if let Some(last) = self.sched_last[s] {
                    if let Some(pos) = slots.iter().position(|&x| x == last) {
                        slots[..=pos].rotate_right(1);
                    }
                }
            }
            SchedulerPolicy::Lrr => {
                if let Some(last) = self.sched_last[s] {
                    // Rotate so iteration starts just after `last`.
                    let split = slots.iter().position(|&x| x > last).unwrap_or(0);
                    slots.rotate_left(split);
                }
            }
        }
    }

    /// Attempts to issue one instruction from the warp in `slot`.
    fn try_issue(&mut self, slot: usize) -> bool {
        let Some(warp) = self.warps[slot].as_ref() else {
            return false;
        };
        let Some(pc) = warp.stack.pc() else {
            return false;
        };
        let instr = *self.kernel.instr(pc).expect("pc validated by Kernel");
        let (mask, full_mask) = (warp.stack.mask(), warp.stack.full_mask());
        let divergent = warp.stack.is_divergent();

        // §5.2: a divergent write, stored uncompressed, to a compressed
        // register is preceded by an injected dummy MOV that
        // decompresses it in place.
        let comp = &self.cfg.compression;
        let inject = comp.is_enabled()
            && !comp.compresses_write(divergent)
            && instr
                .dst()
                .is_some_and(|d| self.regfile.is_compressed(WarpSlot(slot), d.index()));
        let (actual, actual_mask, synthetic) = if inject {
            let d = instr.dst().expect("inject requires a destination");
            (
                Instruction::Mov {
                    dst: d,
                    src: Operand::Reg(d),
                },
                full_mask,
                true,
            )
        } else {
            (instr, mask, false)
        };

        let srcs = actual.unique_srcs();
        let dst = actual.dst().map(|r| r.index());
        if !self.scoreboard.can_issue(slot, &srcs, dst) {
            self.pc_stalls[pc].record(StallCause::Scoreboard);
            return false;
        }
        // LSU ordering: memory effects happen at dispatch, so a new
        // load/store must wait until the warp's previous one has
        // dispatched — otherwise same-address accesses could reorder.
        let is_mem = actual.latency_class() == LatencyClass::Memory;
        if is_mem && self.warps[slot].as_ref().expect("checked").pending_mem > 0 {
            self.pc_stalls[pc].record(StallCause::Scoreboard);
            return false;
        }

        match actual {
            Instruction::Jmp { .. } | Instruction::Exit => {
                let warp = self.warps[slot].as_mut().expect("checked");
                warp.stack.issue(&actual);
                self.stats.count_issue(divergent, synthetic);
                true
            }
            _ => {
                let Some(ci) = self.collectors.iter().position(Option::is_none) else {
                    self.pc_stalls[pc].record(StallCause::CollectorFull);
                    return false;
                };
                self.scoreboard.issue(slot, &srcs, dst);
                #[cfg(feature = "sanitize")]
                self.oracle.on_issue(slot, pc, &srcs, dst);
                let warp = self.warps[slot].as_mut().expect("checked");
                warp.inflight += 1;
                if is_mem {
                    warp.pending_mem += 1;
                }
                match actual {
                    Instruction::Bra { .. } => warp.blocked = true,
                    _ if synthetic => {} // pc unchanged; real instruction issues later
                    _ => warp.stack.advance(),
                }
                self.collectors[ci] = Some(Collector {
                    slot,
                    pc,
                    instr: actual,
                    mask: actual_mask,
                    divergent,
                    synthetic,
                    srcs,
                    values: [None, None],
                    decomp_extra: 0,
                });
                self.stats.count_issue(divergent, synthetic);
                true
            }
        }
    }

    // -----------------------------------------------------------------
    // Operand collection and dispatch
    // -----------------------------------------------------------------

    fn collector_stage(&mut self) -> Result<(), SimError> {
        for ci in 0..self.collectors.len() {
            if self.collectors[ci].is_none() {
                continue;
            }
            self.fetch_operands(ci)?;
            if self.collectors[ci]
                .as_ref()
                .is_some_and(Collector::is_ready)
            {
                let c = self.collectors[ci].take().expect("checked above");
                self.dispatch(c)?;
                self.last_progress = self.now;
            }
        }
        Ok(())
    }

    fn fetch_operands(&mut self, ci: usize) -> Result<(), SimError> {
        let c = self.collectors[ci].as_mut().expect("occupied collector");
        let cluster = c.slot % self.cfg.regfile.num_clusters();
        let bank_base = cluster * self.cfg.regfile.banks_per_cluster;
        let srcs = c.srcs;
        for (value_slot, &reg) in c.values.iter_mut().zip(srcs.iter()) {
            if value_slot.is_some() {
                continue;
            }
            let indicator = self
                .regfile
                .indicator(WarpSlot(c.slot), reg)
                .expect("operand register is allocated");
            let compressed = indicator.is_compressed();
            if compressed && self.decomp_starts >= self.cfg.compression.num_decompressors {
                self.stats.collector_retry_cycles += 1;
                self.pc_stalls[c.pc].record(StallCause::Decompressor);
                continue;
            }
            let banks = indicator.banks_accessed();
            if !self.ports.try_read(bank_base..bank_base + banks) {
                self.stats.collector_retry_cycles += 1;
                self.pc_stalls[c.pc].record(StallCause::BankConflict);
                continue;
            }
            let sample = self
                .regfile
                .try_read(WarpSlot(c.slot), reg, self.now)
                .map_err(|source| SimError::Read {
                    slot: c.slot,
                    reg,
                    source,
                })?;
            let value = decode(&self.codec, c.slot, reg, &sample.register)?;
            #[cfg(feature = "sanitize")]
            {
                use gpu_regfile::FaultDisposition;
                if sample.fault == Some(FaultDisposition::SilentCorruption) {
                    // The injector claims the delivered value is wrong;
                    // the shadow must agree, or the classification lies.
                    assert!(
                        !self.shadow.matches(WarpSlot(c.slot), reg, &value),
                        "sanitize: injector reported silent corruption of slot {} r{} \
                         but the delivered value matches the shadow",
                        c.slot,
                        reg,
                    );
                } else {
                    self.shadow.check_read(WarpSlot(c.slot), reg, &value);
                }
            }
            *value_slot = Some(value);
            if compressed {
                self.decomp_starts += 1;
                self.stats.decompressor_activations += 1;
                c.decomp_extra = c
                    .decomp_extra
                    .max(self.cfg.compression.decompression_latency);
            }
        }
        Ok(())
    }

    fn dispatch(&mut self, c: Collector) -> Result<(), SimError> {
        self.scoreboard.release_reads(c.slot, &c.srcs);
        #[cfg(feature = "sanitize")]
        self.oracle.on_capture(c.slot, &c.srcs);
        let warp = self.warps[c.slot]
            .as_ref()
            .expect("warp alive while in flight");
        let coords = self.launch.coords(warp.block, warp.warp_in_block);
        let values = c.values.map(Option::unwrap_or_default);
        let d = Dispatch {
            instr: c.instr,
            pc: c.pc,
            mask: c.mask,
            srcs: &c.srcs,
            values: &values,
        };
        let effect = execute(self.kernel.name(), &d, &coords, self.memory)?;
        let done_at = self.now + self.cfg.latency_of(c.instr.latency_class()) + c.decomp_extra;
        let dst = c.instr.dst().map(|r| r.index());
        match effect {
            Effect::Value(result) => {
                self.push_writeback(&c, dst.expect("writes a register"), result, done_at);
            }
            Effect::Mem(access) => {
                self.record_mem(&c, &coords, &access, dst.is_none());
                if let Some(dst) = dst {
                    let result = WarpRegister::from(access.values);
                    self.push_writeback(&c, dst, result, done_at);
                }
                let warp = self.warps[c.slot].as_mut().expect("warp alive");
                warp.pending_mem -= 1;
                if dst.is_none() {
                    warp.inflight -= 1;
                }
            }
            Effect::Branch(taken, target, reconv) => {
                let warp = self.warps[c.slot].as_mut().expect("warp alive");
                warp.stack.branch(taken, target, reconv);
                warp.blocked = false;
                warp.inflight -= 1;
            }
        }
        Ok(())
    }

    /// Charges coalescer traffic for one dispatched access (distinct
    /// 32-word segments across the active lanes) and feeds the armed
    /// memory-trace observer, if any.
    fn record_mem(
        &mut self,
        c: &Collector,
        coords: &WarpCoords,
        access: &MemAccess,
        is_store: bool,
    ) {
        if c.mask == 0 {
            return;
        }
        let mut segs = [0u32; WARP_SIZE];
        let mut n = 0;
        for lane in (0..WARP_SIZE).filter(|lane| c.mask >> lane & 1 == 1) {
            segs[n] = access.addrs[lane] >> 5;
            n += 1;
        }
        let segs = &mut segs[..n];
        segs.sort_unstable();
        let distinct = (0..n).filter(|&i| i == 0 || segs[i] != segs[i - 1]).count();
        self.pc_mem[c.pc].record(distinct as u64);
        if let Some(observer) = self.mem_observer.as_mut() {
            observer(&MemEvent {
                pc: c.pc,
                block: coords.block,
                warp_in_block: coords.warp_in_block,
                mask: c.mask,
                addrs: access.addrs,
                values: access.values,
                is_store,
            });
        }
    }

    fn push_writeback(&mut self, c: &Collector, reg: usize, result: WarpRegister, done_at: u64) {
        self.writebacks.push(WbEntry {
            slot: c.slot,
            pc: c.pc,
            reg,
            result,
            mask: c.mask,
            divergent: c.divergent,
            synthetic: c.synthetic,
            state: WbState::Await { done_at },
        });
    }

    // -----------------------------------------------------------------
    // Writeback: merge → compress → bank write
    // -----------------------------------------------------------------

    /// Steps every in-flight result as far as it gets this cycle, in
    /// issue order: the write ports and compressors go to the oldest
    /// result first. Entries are updated in place and results still
    /// executing are skipped untouched; written entries are dropped
    /// once, after the pass.
    fn writeback_stage(&mut self) -> Result<(), SimError> {
        let mut retired = false;
        for i in 0..self.writebacks.len() {
            // Most entries wait here, often ~100 cycles on memory; the
            // early check keeps them off the stepping path.
            if let WbState::Await { done_at } = self.writebacks[i].state {
                if self.now < done_at {
                    continue;
                }
            }
            loop {
                match self.step_writeback(i)? {
                    StepOutcome::Progress => continue,
                    StepOutcome::Stalled => break,
                    StepOutcome::Retired => {
                        retired = true;
                        self.last_progress = self.now;
                        break;
                    }
                }
            }
        }
        if retired {
            self.writebacks
                .retain(|e| !matches!(e.state, WbState::Retired));
        }
        Ok(())
    }

    fn step_writeback(&mut self, i: usize) -> Result<StepOutcome, SimError> {
        let comp = &self.cfg.compression;
        let now = self.now;
        match self.writebacks[i].state {
            WbState::Await { done_at } => {
                if now < done_at {
                    return Ok(StepOutcome::Stalled);
                }
                self.merge_result(i)?;
                let e = &mut self.writebacks[i];
                e.state = if e.synthetic || !comp.compresses_write(e.divergent) {
                    WbState::Ready {
                        compressed: CompressedRegister::Uncompressed(e.result),
                        not_before: now,
                    }
                } else {
                    WbState::NeedCompressor
                };
                Ok(StepOutcome::Progress)
            }
            WbState::NeedCompressor => {
                if self.comp_starts >= comp.num_compressors {
                    return Ok(StepOutcome::Stalled);
                }
                self.comp_starts += 1;
                self.stats.compressor_activations += 1;
                let e = &mut self.writebacks[i];
                // The compressed form is ready to write once the
                // compressor's latency has passed.
                e.state = WbState::Ready {
                    compressed: self.codec.compress(&e.result),
                    not_before: now + comp.compression_latency,
                };
                Ok(StepOutcome::Progress)
            }
            WbState::Ready { not_before, .. } => {
                if now < not_before {
                    return Ok(StepOutcome::Stalled);
                }
                let e = &mut self.writebacks[i];
                let WbState::Ready {
                    compressed,
                    not_before,
                } = &mut e.state
                else {
                    unreachable!("matched above");
                };
                let cluster = e.slot % self.cfg.regfile.num_clusters();
                let bank_base = cluster * self.cfg.regfile.banks_per_cluster;
                let banks = compressed.banks_required();
                if !self.ports.try_write(bank_base..bank_base + banks) {
                    self.pc_stalls[e.pc].record(StallCause::WritebackPort);
                    return Ok(StepOutcome::Stalled);
                }
                match self
                    .regfile
                    .write(WarpSlot(e.slot), e.reg, *compressed, now)
                {
                    Ok(_) => {
                        #[cfg(feature = "sanitize")]
                        self.shadow.record_write(WarpSlot(e.slot), e.reg, &e.result);
                        self.retire_write(i);
                        Ok(StepOutcome::Retired)
                    }
                    Err(WriteError::NotReady { ready_at }) => {
                        self.pc_stalls[e.pc].record(StallCause::WritebackPort);
                        *not_before = ready_at;
                        Ok(StepOutcome::Stalled)
                    }
                    Err(WriteError::Unallocated) => {
                        unreachable!("warp cannot drain with writes in flight")
                    }
                }
            }
            WbState::Retired => unreachable!("retired entries are dropped each cycle"),
        }
    }

    /// Folds the old register value into the inactive lanes of a partial
    /// write, charging energy according to the divergence policy.
    fn merge_result(&mut self, i: usize) -> Result<(), SimError> {
        let (slot, reg, mask, divergent) = {
            let e = &self.writebacks[i];
            (e.slot, e.reg, e.mask, e.divergent)
        };
        if mask == u32::MAX {
            return Ok(());
        }
        let comp = &self.cfg.compression;
        let (old, decompressed) = merge_source(
            &mut self.regfile,
            &self.codec,
            comp,
            divergent,
            slot,
            reg,
            self.now,
        )?;
        self.stats.decompressor_activations += u64::from(decompressed);
        #[cfg(feature = "sanitize")]
        self.shadow.check_read(WarpSlot(slot), reg, &old);
        let e = &mut self.writebacks[i];
        e.result = old.merge_masked(&e.result, mask);
        Ok(())
    }

    /// Accounts for the write of entry `i` (which must be `Ready`) and
    /// marks it retired.
    fn retire_write(&mut self, i: usize) {
        let e = &mut self.writebacks[i];
        let WbState::Ready { compressed, .. } = mem::replace(&mut e.state, WbState::Retired) else {
            unreachable!("retire only from Ready");
        };
        self.stats
            .count_write(&compressed, e.divergent, e.synthetic);
        (self.observer)(&WriteEvent {
            pc: e.pc,
            value: e.result,
            class: compressed.class(),
            divergent: e.divergent,
            synthetic: e.synthetic,
        });
        self.scoreboard.release_write(e.slot, e.reg);
        #[cfg(feature = "sanitize")]
        self.oracle.on_retire_write(e.slot, e.reg);
        let warp = self.warps[e.slot]
            .as_mut()
            .expect("warp alive while in flight");
        warp.inflight -= 1;
    }

    // -----------------------------------------------------------------
    // Census (Fig. 12)
    // -----------------------------------------------------------------

    fn sample_census(&mut self) {
        for slot in 0..self.warps.len() {
            let Some(w) = self.warps[slot].as_ref() else {
                continue;
            };
            if w.stack.is_done() {
                continue;
            }
            let divergent = w.stack.is_divergent();
            let (compressed, total) = self.regfile.warp_census(WarpSlot(slot));
            if divergent {
                self.stats.census.div_compressed += compressed as u64;
                self.stats.census.div_total += total as u64;
            } else {
                self.stats.census.nondiv_compressed += compressed as u64;
                self.stats.census.nondiv_total += total as u64;
            }
        }
    }
}

enum StepOutcome {
    Progress,
    Stalled,
    Retired,
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt_isa::{AluOp, KernelBuilder, Reg, Special};

    fn run_kernel(
        cfg: GpuConfig,
        kernel: &Kernel,
        launch: &LaunchConfig,
        memory: &mut GlobalMemory,
    ) -> SimResult {
        GpuSim::new(cfg)
            .run(kernel, launch, memory)
            .expect("simulation succeeds")
    }

    /// mem[gtid] = gtid * 2 + 1
    fn affine_kernel() -> Kernel {
        let mut b = KernelBuilder::new("affine", 3);
        b.mov(Reg(0), Operand::Special(Special::GlobalTid));
        b.alu(AluOp::Mul, Reg(1), Reg(0).into(), Operand::Imm(2));
        b.alu(AluOp::Add, Reg(2), Reg(1).into(), Operand::Imm(1));
        b.st(Reg(0), 0, Reg(2));
        b.exit();
        b.build().unwrap()
    }

    #[test]
    fn straight_line_kernel_computes_correctly_baseline() {
        let kernel = affine_kernel();
        let mut mem = GlobalMemory::zeroed(128);
        run_kernel(
            GpuConfig::baseline(),
            &kernel,
            &LaunchConfig::new(2, 64),
            &mut mem,
        );
        for i in 0..128 {
            assert_eq!(mem.word(i).unwrap(), (i * 2 + 1) as u32, "word {i}");
        }
    }

    #[test]
    fn straight_line_kernel_computes_correctly_compressed() {
        let kernel = affine_kernel();
        let mut mem = GlobalMemory::zeroed(128);
        let r = run_kernel(
            GpuConfig::warped_compression(),
            &kernel,
            &LaunchConfig::new(2, 64),
            &mut mem,
        );
        for i in 0..128 {
            assert_eq!(mem.word(i).unwrap(), (i * 2 + 1) as u32, "word {i}");
        }
        // Affine values compress; some writes must be compressed.
        assert!(r.stats.writes_compressed > 0);
        assert!(r.stats.compression_ratio() > 1.0);
    }

    #[test]
    fn compressed_run_accesses_fewer_banks() {
        let kernel = affine_kernel();
        let launch = LaunchConfig::new(2, 64);
        let mut m1 = GlobalMemory::zeroed(128);
        let base = run_kernel(GpuConfig::baseline(), &kernel, &launch, &mut m1);
        let mut m2 = GlobalMemory::zeroed(128);
        let wc = run_kernel(GpuConfig::warped_compression(), &kernel, &launch, &mut m2);
        assert!(
            wc.stats.regfile.total_accesses() < base.stats.regfile.total_accesses(),
            "wc {} vs base {}",
            wc.stats.regfile.total_accesses(),
            base.stats.regfile.total_accesses()
        );
    }

    #[test]
    fn divergent_kernel_counts_divergence() {
        // if (tid < 16) r1 = 1 else r1 = 2; mem[gtid] = r1
        let mut b = KernelBuilder::new("div", 3);
        b.mov(Reg(0), Operand::Special(Special::Tid));
        b.alu(AluOp::SetLt, Reg(1), Reg(0).into(), Operand::Imm(16));
        let then = b.label();
        let merge = b.label();
        b.bra(Reg(1), then, merge);
        b.mov(Reg(2), Operand::Imm(2)); // else path (fallthrough)
        b.jmp(merge);
        b.bind(then);
        b.mov(Reg(2), Operand::Imm(1));
        b.bind(merge);
        b.mov(Reg(0), Operand::Special(Special::GlobalTid));
        b.st(Reg(0), 0, Reg(2));
        b.exit();
        let kernel = b.build().unwrap();

        let mut mem = GlobalMemory::zeroed(32);
        let r = run_kernel(
            GpuConfig::warped_compression(),
            &kernel,
            &LaunchConfig::new(1, 32),
            &mut mem,
        );
        for i in 0..32 {
            assert_eq!(mem.word(i).unwrap(), if i < 16 { 1 } else { 2 }, "word {i}");
        }
        assert!(r.stats.divergent_instructions > 0);
        assert!(r.stats.nondivergent_ratio() < 1.0);
    }

    #[test]
    fn divergent_writes_to_compressed_registers_inject_movs() {
        // r2 starts compressed (uniform write), then a divergent write
        // hits it -> dummy MOV must be injected.
        let mut b = KernelBuilder::new("movinject", 3);
        b.mov(Reg(0), Operand::Special(Special::Tid));
        b.mov(Reg(2), Operand::Imm(7)); // compressed <4,0>
        b.alu(AluOp::SetLt, Reg(1), Reg(0).into(), Operand::Imm(8));
        let then = b.label();
        let merge = b.label();
        b.bra(Reg(1), then, merge);
        b.jmp(merge);
        b.bind(then);
        b.alu(AluOp::Mul, Reg(2), Reg(0).into(), Reg(0).into()); // divergent write to r2
        b.bind(merge);
        b.st(Reg(0), 0, Reg(2));
        b.exit();
        let kernel = b.build().unwrap();

        let mut mem = GlobalMemory::zeroed(32);
        let r = run_kernel(
            GpuConfig::warped_compression(),
            &kernel,
            &LaunchConfig::new(1, 32),
            &mut mem,
        );
        assert!(r.stats.synthetic_movs > 0, "expected injected MOVs");
        for i in 0..32u32 {
            assert_eq!(mem.word(i as usize).unwrap(), if i < 8 { i * i } else { 7 });
        }
    }

    #[test]
    fn no_movs_without_compression() {
        let mut b = KernelBuilder::new("nomov", 3);
        b.mov(Reg(0), Operand::Special(Special::Tid));
        b.mov(Reg(2), Operand::Imm(7));
        b.alu(AluOp::SetLt, Reg(1), Reg(0).into(), Operand::Imm(8));
        let then = b.label();
        let merge = b.label();
        b.bra(Reg(1), then, merge);
        b.jmp(merge);
        b.bind(then);
        b.mov(Reg(2), Operand::Imm(9));
        b.bind(merge);
        b.exit();
        let kernel = b.build().unwrap();
        let mut mem = GlobalMemory::zeroed(1);
        let r = run_kernel(
            GpuConfig::baseline(),
            &kernel,
            &LaunchConfig::new(1, 32),
            &mut mem,
        );
        assert_eq!(r.stats.synthetic_movs, 0);
    }

    #[test]
    fn loop_kernel_terminates_and_counts() {
        // for (i = 0; i < 10; i++) acc += i; mem[gtid] = acc
        let mut b = KernelBuilder::new("loop", 4);
        b.mov(Reg(0), Operand::Imm(0)); // i
        b.mov(Reg(1), Operand::Imm(0)); // acc
        let head = b.here();
        b.alu(AluOp::Add, Reg(1), Reg(1).into(), Reg(0).into());
        b.alu(AluOp::Add, Reg(0), Reg(0).into(), Operand::Imm(1));
        b.alu(AluOp::SetLt, Reg(2), Reg(0).into(), Operand::Imm(10));
        let exit = b.label();
        b.bra(Reg(2), head, exit);
        b.bind(exit);
        b.mov(Reg(3), Operand::Special(Special::GlobalTid));
        b.st(Reg(3), 0, Reg(1));
        b.exit();
        let kernel = b.build().unwrap();
        let mut mem = GlobalMemory::zeroed(32);
        let r = run_kernel(
            GpuConfig::warped_compression(),
            &kernel,
            &LaunchConfig::new(1, 32),
            &mut mem,
        );
        for i in 0..32 {
            assert_eq!(mem.word(i).unwrap(), 45);
        }
        assert!(r.stats.instructions >= 4 * 10);
    }

    #[test]
    fn stall_breakdown_partitions_the_retry_aggregate() {
        // The legacy aggregate counts exactly the operand-fetch retry
        // causes; every other cause is attributed separately. Checked on
        // a run busy enough to exercise conflicts and hazards.
        let kernel = affine_kernel();
        let launch = LaunchConfig::new(4, 64);
        for cfg in [GpuConfig::baseline(), GpuConfig::warped_compression()] {
            let mut mem = GlobalMemory::zeroed(256);
            let r = run_kernel(cfg, &kernel, &launch, &mut mem);
            let fetch: u64 = r
                .stats
                .stalls
                .by_pc
                .values()
                .map(|p| p.operand_fetch())
                .sum();
            assert_eq!(
                fetch, r.stats.collector_retry_cycles,
                "bank_conflict + decompressor must equal collector_retry_cycles"
            );
            // Every stalled pc is a real program counter.
            for &pc in r.stats.stalls.by_pc.keys() {
                assert!(kernel.instr(pc).is_some(), "stall at unknown pc {pc}");
            }
            // The dependent ALU chain must block on the scoreboard at
            // least once somewhere.
            assert!(r.stats.stalls.total(StallCause::Scoreboard) > 0);
        }
    }

    #[test]
    fn memory_fault_is_reported() {
        let mut b = KernelBuilder::new("oob", 1);
        b.mov(Reg(0), Operand::Imm(1_000_000));
        b.st(Reg(0), 0, Reg(0));
        b.exit();
        let kernel = b.build().unwrap();
        let mut mem = GlobalMemory::zeroed(4);
        let err = GpuSim::new(GpuConfig::baseline())
            .run(&kernel, &LaunchConfig::new(1, 32), &mut mem)
            .unwrap_err();
        match err {
            SimError::MemoryAt {
                ref kernel,
                block,
                warp_in_block,
                pc,
                fault,
            } => {
                assert_eq!(kernel, "oob");
                assert_eq!((block, warp_in_block), (0, 0));
                assert_eq!(pc, 1);
                assert_eq!(fault.addr, 1_000_000);
                let msg = err.to_string();
                assert!(msg.contains("`oob`"), "context in message: {msg}");
                assert!(msg.contains("pc 1"), "pc in message: {msg}");
            }
            other => panic!("expected attributed memory fault, got {other:?}"),
        }
    }

    #[test]
    fn mem_trace_reports_addresses_and_coalescing() {
        // tid-indexed store (coalesced, 1 transaction) then a strided
        // load at stride 2 (64 words → 2 segments per access).
        let mut b = KernelBuilder::new("trace", 3);
        b.mov(Reg(0), Operand::Special(Special::Tid));
        b.alu(AluOp::Mul, Reg(1), Operand::Reg(Reg(0)), Operand::Imm(2));
        b.st(Reg(0), 0, Reg(0));
        b.ld(Reg(2), Reg(1), 0);
        b.exit();
        let kernel = b.build().unwrap();
        let mut mem = GlobalMemory::zeroed(64);
        let mut events = Vec::new();
        let r = GpuSim::new(GpuConfig::baseline())
            .run_mem_observed(&kernel, &LaunchConfig::new(1, 32), &mut mem, &mut |e| {
                events.push(*e)
            })
            .unwrap();
        assert_eq!(events.len(), 2);
        let st = &events[0];
        assert!(st.is_store);
        assert_eq!((st.pc, st.block, st.warp_in_block), (2, 0, 0));
        assert_eq!(st.mask, u32::MAX);
        let addrs: Vec<u32> = st.active_addrs().map(|(_, a)| a).collect();
        assert_eq!(addrs, (0..32).collect::<Vec<u32>>());
        let ld = &events[1];
        assert!(!ld.is_store);
        assert_eq!(ld.addrs[5], 10);
        // Coalescing traffic: the store touches one 32-word segment,
        // the strided load two.
        assert_eq!(r.stats.mem.at(2).accesses, 1);
        assert_eq!(r.stats.mem.at(2).transactions, 1);
        assert_eq!(r.stats.mem.at(3).accesses, 1);
        assert_eq!(r.stats.mem.at(3).transactions, 2);
        assert_eq!(r.stats.mem.total_accesses(), 2);
    }

    #[test]
    fn block_too_large_is_reported() {
        let kernel = affine_kernel();
        let mut mem = GlobalMemory::zeroed(4);
        // 49 warps per block exceeds the 48-slot SM.
        let err = GpuSim::new(GpuConfig::baseline())
            .run(&kernel, &LaunchConfig::new(1, 49 * 32), &mut mem)
            .unwrap_err();
        assert!(matches!(err, SimError::BlockTooLarge { .. }));
    }

    #[test]
    fn many_blocks_round_robin_through_slots() {
        let kernel = affine_kernel();
        let mut mem = GlobalMemory::zeroed(32 * 64);
        run_kernel(
            GpuConfig::warped_compression(),
            &kernel,
            &LaunchConfig::new(64, 32),
            &mut mem,
        );
        for i in 0..(32 * 64) {
            assert_eq!(mem.word(i).unwrap(), (i * 2 + 1) as u32);
        }
    }

    #[test]
    fn lrr_scheduler_also_completes() {
        let mut cfg = GpuConfig::warped_compression();
        cfg.scheduler = SchedulerPolicy::Lrr;
        let kernel = affine_kernel();
        let mut mem = GlobalMemory::zeroed(256);
        run_kernel(cfg, &kernel, &LaunchConfig::new(4, 64), &mut mem);
        for i in 0..256 {
            assert_eq!(mem.word(i).unwrap(), (i * 2 + 1) as u32);
        }
    }

    #[test]
    fn observer_sees_register_writes() {
        let kernel = affine_kernel();
        let mut mem = GlobalMemory::zeroed(32);
        let mut events = Vec::new();
        GpuSim::new(GpuConfig::warped_compression())
            .run_observed(&kernel, &LaunchConfig::new(1, 32), &mut mem, &mut |e| {
                events.push(*e)
            })
            .unwrap();
        assert_eq!(events.len() as u64, 3); // three register-writing instructions
        assert!(events.iter().all(|e| !e.divergent && !e.synthetic));
        // First write is gtid: 0..32.
        assert_eq!(events[0].value.lane(5), 5);
    }

    #[test]
    fn compression_latency_slows_execution() {
        let kernel = affine_kernel();
        let launch = LaunchConfig::new(4, 64);
        let run_at = |cl: u64, dl: u64| {
            let mut cfg = GpuConfig::warped_compression();
            cfg.compression.compression_latency = cl;
            cfg.compression.decompression_latency = dl;
            let mut mem = GlobalMemory::zeroed(256);
            run_kernel(cfg, &kernel, &launch, &mut mem).stats.cycles
        };
        let fast = run_at(2, 1);
        let slow = run_at(8, 8);
        assert!(slow >= fast, "slow {slow} < fast {fast}");
    }

    #[cfg(feature = "faults")]
    #[test]
    fn run_faulted_accounts_for_every_fault_and_is_deterministic() {
        use gpu_faults::{FaultInjector, FaultPlan, ProtectionModel};
        let kernel = affine_kernel();
        let run_once = || {
            let plan = FaultPlan::generate(7, 16, 64);
            let inj = FaultInjector::new(plan, ProtectionModel::SecDed, true);
            let mut mem = GlobalMemory::zeroed(128);
            GpuSim::new(GpuConfig::warped_compression()).run_faulted(
                &kernel,
                &LaunchConfig::new(2, 64),
                &mut mem,
                inj,
            )
        };
        let (r1, log1) = run_once();
        let (r2, log2) = run_once();
        assert_eq!(r1, r2, "same plan must give the same outcome");
        assert_eq!(log1, log2, "same plan must give the same fault log");
        assert_eq!(log1.events.len(), 16, "every planned fault resolves");
        // SEC-DED: nothing slips through silently.
        assert_eq!(log1.silent(), 0);
    }

    #[cfg(feature = "faults")]
    #[test]
    fn run_faulted_unprotected_still_completes_or_reports() {
        use gpu_faults::{FaultInjector, FaultPlan, ProtectionModel};
        let kernel = affine_kernel();
        let plan = FaultPlan::generate(42, 32, 128);
        let inj = FaultInjector::new(plan, ProtectionModel::Unprotected, false);
        let mut mem = GlobalMemory::zeroed(128);
        let (result, log) = GpuSim::new(GpuConfig::warped_compression()).run_faulted(
            &kernel,
            &LaunchConfig::new(2, 64),
            &mut mem,
            inj,
        );
        assert_eq!(log.events.len(), 32);
        // Unprotected: nothing is ever corrected or flagged.
        assert_eq!(log.corrected() + log.detected(), 0);
        if let Err(e) = result {
            // A corrupted stored form may fail decode, and a silently
            // corrupted address register may fault in memory downstream.
            assert!(
                matches!(e, SimError::Read { .. } | SimError::MemoryAt { .. }),
                "unexpected: {e}"
            );
        }
    }

    #[test]
    fn gated_cycles_appear_only_with_compression() {
        let kernel = affine_kernel();
        let launch = LaunchConfig::new(2, 64);
        let mut m1 = GlobalMemory::zeroed(128);
        let base = run_kernel(GpuConfig::baseline(), &kernel, &launch, &mut m1);
        assert_eq!(base.stats.regfile.gated_cycles.iter().sum::<u64>(), 0);
        let mut m2 = GlobalMemory::zeroed(128);
        // Short kernel: disable the gating hysteresis so the gated
        // intervals are visible within the run.
        let mut cfg = GpuConfig::warped_compression();
        cfg.regfile.gating_hysteresis = 0;
        let wc = run_kernel(cfg, &kernel, &launch, &mut m2);
        assert!(wc.stats.regfile.gated_cycles.iter().sum::<u64>() > 0);
    }
}
