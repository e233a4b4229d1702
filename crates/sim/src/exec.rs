//! The architectural datapath both engines share.
//!
//! The dynamic core ([`sm`](crate::sm)) and the scheduled replayer
//! ([`scheduled`](crate::scheduled)) differ in *when* an instruction
//! dispatches, never in *what* it does. Given the captured operand
//! values, [`execute`] computes a `mov` / `alu` result, performs a
//! `ld` / `st` against global memory, or resolves a `bra`'s taken mask;
//! each engine then applies the effect to its own bookkeeping. The
//! register-file side is shared the same way: [`decode`] for every
//! stored form read back, [`merge_source`] for the old value under a
//! partial write, and [`capture`] for a drained warp's final registers.

use bdi::{BdiCodec, CompressedRegister, WarpRegister, WARP_SIZE};
use gpu_regfile::{ReadError, RegisterFile, WarpSlot};
use simt_isa::{taken_mask, Instruction, Operand, WarpCoords};

use crate::config::{CompressionConfig, DivergencePolicy};
use crate::memory::GlobalMemory;
use crate::sm::SimError;

/// The per-lane words one load or store moved, zero in inactive lanes.
#[derive(Clone, Copy, Debug)]
pub(crate) struct MemAccess {
    /// Word address each active lane accessed.
    pub addrs: [u32; WARP_SIZE],
    /// Word each active lane loaded or stored.
    pub values: [u32; WARP_SIZE],
}

/// What one dispatched instruction does to the architectural state.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Effect {
    /// `mov` / `alu`: the destination's new value, every lane computed.
    Value(WarpRegister),
    /// `ld` / `st`: the access, already applied to memory. A load's
    /// `values` are its destination's new value.
    Mem(MemAccess),
    /// `bra`: the taken mask (active lanes whose predicate is
    /// non-zero), the target and the reconvergence pc.
    Branch(u32, usize, usize),
}

/// One instruction at dispatch: what it is, where, for which lanes, and
/// its captured operands (`values[i]` holds source register `srcs[i]`,
/// in `unique_srcs()` order).
pub(crate) struct Dispatch<'a> {
    pub instr: Instruction,
    pub pc: usize,
    pub mask: u32,
    pub srcs: &'a [usize],
    pub values: &'a [WarpRegister],
}

impl Dispatch<'_> {
    fn reg(&self, reg: usize) -> &WarpRegister {
        let i = self
            .srcs
            .iter()
            .position(|&r| r == reg)
            .expect("operand is a source");
        &self.values[i]
    }
}

/// Executes dispatch `d` of kernel `kernel` by the warp at `coords`.
/// Memory is accessed lane by lane in ascending order, so a store that
/// faults has already written the lanes below the faulting one.
///
/// # Errors
///
/// [`SimError::MemoryAt`] when an active lane's address is out of
/// range, attributed to this warp and pc.
///
/// # Panics
///
/// Panics on `jmp` / `exit`, which complete at issue.
pub(crate) fn execute(
    kernel: &str,
    d: &Dispatch,
    coords: &WarpCoords,
    memory: &mut GlobalMemory,
) -> Result<Effect, SimError> {
    let (instr, pc, mask) = (d.instr, d.pc, d.mask);
    let eval = |op: Operand, lane: usize| -> u32 {
        match op {
            Operand::Reg(r) => d.reg(r.index()).lane(lane),
            Operand::Imm(v) => v as u32,
            Operand::Param(i) => coords.param(i),
            Operand::Special(s) => coords.special(s, lane),
        }
    };
    let fault_at = |fault| SimError::MemoryAt {
        kernel: kernel.to_string(),
        block: coords.block,
        warp_in_block: coords.warp_in_block,
        pc,
        fault,
    };
    let active = (0..WARP_SIZE).filter(|lane| mask & (1 << lane) != 0);
    Ok(match instr {
        Instruction::Mov { src, .. } => {
            Effect::Value(WarpRegister::from_fn(|lane| eval(src, lane)))
        }
        Instruction::Alu { op, a, b, .. } => Effect::Value(WarpRegister::from_fn(|lane| {
            op.apply(eval(a, lane), eval(b, lane))
        })),
        Instruction::Ld { base, offset, .. } | Instruction::St { base, offset, .. } => {
            let base = d.reg(base.index());
            let src = match instr {
                Instruction::St { src, .. } => Some(d.reg(src.index())),
                _ => None,
            };
            let mut access = MemAccess {
                addrs: [0; WARP_SIZE],
                values: [0; WARP_SIZE],
            };
            for lane in active {
                let addr = base.lane(lane).wrapping_add(offset as u32);
                access.addrs[lane] = addr;
                access.values[lane] = match src {
                    Some(src) => {
                        memory.store(addr, src.lane(lane)).map_err(fault_at)?;
                        src.lane(lane)
                    }
                    None => memory.load(addr).map_err(fault_at)?,
                };
            }
            Effect::Mem(access)
        }
        Instruction::Bra {
            pred,
            target,
            reconv,
        } => {
            let pred = d.reg(pred.index());
            Effect::Branch(taken_mask(mask, |lane| pred.lane(lane)), target, reconv)
        }
        Instruction::Jmp { .. } | Instruction::Exit => {
            unreachable!("control-only instructions complete at issue")
        }
    })
}

/// Decodes a stored register of warp slot `slot`, lifting a
/// structurally corrupt form into [`SimError::Read`].
pub(crate) fn decode(
    codec: &BdiCodec,
    slot: usize,
    reg: usize,
    stored: &CompressedRegister,
) -> Result<WarpRegister, SimError> {
    codec.try_decompress(stored).map_err(|e| SimError::Read {
        slot,
        reg,
        source: ReadError::Corrupted(e),
    })
}

/// The old value of destination `reg` that a partial write merges into
/// its inactive lanes. Under the rejected §5.2 decompress-merge-recompress
/// policy a divergent merge reads it through the banks; otherwise
/// per-lane write enables make the merge free. Also returns whether the
/// merge cost a decompressor activation.
///
/// The read deliberately bypasses the fault injector: the injection
/// point is operand fetch, and a pending corruption of the destination
/// is about to be overwritten (the injector resolves it as masked on
/// the subsequent write).
pub(crate) fn merge_source(
    regfile: &mut RegisterFile,
    codec: &BdiCodec,
    comp: &CompressionConfig,
    divergent: bool,
    slot: usize,
    reg: usize,
    now: u64,
) -> Result<(WarpRegister, bool), SimError> {
    let counted = comp.is_enabled()
        && comp.divergence == DivergencePolicy::DecompressMergeRecompress
        && divergent;
    let (stored, decompressed) = if counted {
        let read = regfile.read(WarpSlot(slot), reg, now);
        (*read.register, read.register.is_compressed())
    } else {
        let stored = regfile.peek(WarpSlot(slot), reg).ok_or(SimError::Read {
            slot,
            reg,
            source: ReadError::Unallocated,
        })?;
        (*stored, false)
    };
    Ok((decode(codec, slot, reg, &stored)?, decompressed))
}

/// The decoded registers of the still-allocated warp in `slot`: its
/// [`FinalRegs`](crate::FinalRegs) entry.
pub(crate) fn capture(
    regfile: &RegisterFile,
    codec: &BdiCodec,
    slot: usize,
    num_regs: usize,
) -> Vec<WarpRegister> {
    (0..num_regs)
        .map(|r| codec.decompress(regfile.peek(WarpSlot(slot), r).expect("still allocated")))
        .collect()
}
