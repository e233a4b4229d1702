//! `suite_gates`: per suite kernel, the analyze gate, the schedule gate
//! and the mem gate — every analysis pass, the scheduled replay and
//! both join layers.
//!
//! The traced items rebuild `schedule_workload` and `mem_workload` from
//! the public calls they make, so each call can be timed from outside
//! the library; the traced run checks that the rebuilt reports equal the
//! library's own.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gpu_power::{ActivityCounts, EnergyModel, EnergyParams, ScheduleComparison};
use gpu_sim::{GpuSim, MemEvent, SimError, SimStats};
use gpu_workloads::Workload;
use simt_analysis::{
    analyze_cells, analyze_mem, analyze_with_launch, bound_kernel, schedule_kernel, Cfg,
    KernelAnalysis, LaunchInfo, MemAbs, MemCells, PerfLaunch, ScheduleBail,
};
use warped_compression::perfbound::perf_machine;
use warped_compression::{
    mem_workload, schedule_slack, schedule_workload, DesignPoint, MemReport, ScheduleCheck,
    ScheduleMode, ScheduleReport, SiteCheck, TracedConflict,
};

use crate::trace::Tracer;
use crate::{Bench, Checked, Counts};

/// One line per kernel, `<kernel> <static|fallback> refined=<n>`,
/// taken from the seed commit. A mismatch prints the actual line.
const PINS: &str = include_str!("../pins/suite_gates.txt");

pub struct SuiteGates {
    workloads: Vec<Workload>,
    /// The analyze gate's launch facts, memory image included.
    infos: Vec<LaunchInfo>,
    pins: BTreeSet<String>,
    /// Hash of each item's first output, which later passes must repeat.
    seen: Vec<Option<u64>>,
}

type Out = Result<(KernelAnalysis, ScheduleReport, MemReport), SimError>;

fn launch_info(w: &Workload) -> LaunchInfo {
    let launch = w.launch();
    let image = Arc::new(w.fresh_memory().words().to_vec());
    LaunchInfo {
        params: launch.params().to_vec(),
        blocks: u32::try_from(launch.blocks()).ok(),
        threads_per_block: u32::try_from(launch.threads_per_block()).ok(),
        mem_words: u64::try_from(image.len()).ok(),
        initial_mem: Some(image),
    }
}

impl Bench for SuiteGates {
    type Out = Out;

    fn setup(_seed: u64) -> Self {
        let workloads = gpu_workloads::suite();
        let infos = workloads.iter().map(launch_info).collect();
        let pins = PINS
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
            .map(str::to_string)
            .collect();
        SuiteGates {
            seen: vec![None; workloads.len()],
            workloads,
            infos,
            pins,
        }
    }

    fn items(&self) -> usize {
        self.workloads.len()
    }

    fn run(&self, item: usize) -> Out {
        let w = &self.workloads[item];
        let analysis = analyze_with_launch(w.kernel(), Some(&self.infos[item]));
        let schedule = schedule_workload(w, DesignPoint::WarpedCompression)?;
        let mem = mem_workload(w)?;
        Ok((analysis, schedule, mem))
    }

    fn check(&mut self, item: usize, out: Out) -> Checked {
        let name = self.workloads[item].name();
        let (analysis, schedule, mem) = match &out {
            Ok(reports) => reports,
            Err(e) => {
                eprintln!("{name}: {e}");
                return Checked::FAILED;
            }
        };
        let analyze_sound = analysis.report.error_count() == 0
            && analysis.report.warning_count() == 0
            && analysis.liveness.is_some()
            && analysis.prediction.is_some();
        let mode = if schedule.mode.is_static() {
            "static"
        } else {
            "fallback"
        };
        let actual = format!("{name} {mode} refined={}", mem.refined_loads);
        let pinned =
            self.pins.contains(&actual) && mem.schedule.static_mode == schedule.mode.is_static();
        let digest = fnv1a(format!("{out:?}").as_bytes());
        let repeats = *self.seen[item].get_or_insert(digest) == digest;
        let ok = analyze_sound
            && schedule.is_sound()
            && mem.is_sound()
            && mem.refined_value_escapes == 0
            && pinned
            && repeats;
        if !ok {
            eprintln!(
                "{name}: analyze sound {analyze_sound}, schedule violations {:?}, mem violations {:?}, \
                 repeats {repeats}, actual pin line: {actual}",
                schedule.violations(),
                mem.violations()
            );
        }
        // The dynamic run of each gate, plus the replay when it ran.
        let replay = |dynamic: u64, scheduled: u64| {
            2 * dynamic
                + if schedule.mode.is_static() {
                    scheduled
                } else {
                    0
                }
        };
        Checked {
            ok,
            cycles: replay(schedule.dynamic_cycles, schedule.scheduled_cycles),
            warp_instrs: replay(
                schedule.dynamic_instructions,
                schedule.scheduled_instructions,
            ),
        }
    }

    fn run_traced(&self, item: usize, t: &mut Tracer, counts: &mut Counts) -> Out {
        let w = &self.workloads[item];
        let analysis = t.time("analysis.lint", || {
            analyze_with_launch(w.kernel(), Some(&self.infos[item]))
        });
        let schedule = traced_schedule(w, t, counts)?;
        let mem = traced_mem(w, t, counts)?;
        if schedule.mode.is_static() {
            counts.add("schedule.static_kernels", 1);
            counts.add("replay.scheduled_cycles", schedule.scheduled_cycles);
            counts.add("replay.dynamic_cycles", schedule.dynamic_cycles);
        } else {
            counts.add("schedule.fallbacks", 1);
        }
        counts.add("mem.refined_loads", mem.refined_loads as u64);
        counts.add(
            "mem.escapes",
            mem.escape_count() + mem.refined_value_escapes,
        );
        Ok((analysis, schedule, mem))
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn activity_of(stats: &SimStats) -> ActivityCounts {
    ActivityCounts::from_regfile_with_mode(
        &stats.regfile,
        stats.compressor_activations,
        stats.decompressor_activations,
        stats.gating.into(),
    )
}

fn image_of(w: &Workload, t: &mut Tracer) -> Arc<Vec<u32>> {
    let memory = t.time("workloads.fresh_memory", || w.fresh_memory());
    Arc::new(memory.words().to_vec())
}

/// `schedule_workload` under the warped-compression design point, call
/// by call.
fn traced_schedule(
    w: &Workload,
    t: &mut Tracer,
    counts: &mut Counts,
) -> Result<ScheduleReport, SimError> {
    let span = t.open("core.schedule");
    let result = schedule_parts(w, t, counts);
    t.close(span);
    result
}

fn schedule_parts(
    w: &Workload,
    t: &mut Tracer,
    counts: &mut Counts,
) -> Result<ScheduleReport, SimError> {
    let design = DesignPoint::WarpedCompression;
    let cfg = design.config();
    let machine = perf_machine(&cfg);
    let sim = GpuSim::new(cfg);
    let kernel = w.kernel();
    let launch = w.launch();
    let perf_launch = PerfLaunch {
        blocks: launch.blocks(),
        threads_per_block: launch.threads_per_block(),
        params: launch.params().to_vec(),
        initial_mem: Some(image_of(w, t)),
    };
    let floor = t
        .time("analysis.perfbound", || {
            bound_kernel(kernel, &perf_launch, &machine)
        })
        .cycle_lower_bound;

    let mut dyn_mem = t.time("workloads.fresh_memory", || w.fresh_memory());
    let (dyn_result, dyn_regs) = t.time("sim.dynamic", || {
        sim.run_capturing(kernel, launch, &mut dyn_mem)
    })?;
    counts.engine(&dyn_result.stats, false);
    let dynamic_cycles = dyn_result.stats.cycles;
    let model = EnergyModel::new(EnergyParams::paper_table3());
    let dyn_activity = activity_of(&dyn_result.stats);

    let residency = sim.max_resident_warps(kernel);
    let plan = t.time("analysis.schedule", || {
        schedule_kernel(kernel, &perf_launch, &machine, residency)
    });
    let report = match plan {
        Ok(plan) => {
            let mut sched_mem = t.time("workloads.fresh_memory", || w.fresh_memory());
            let sched = t.time("sim.scheduled", || {
                sim.run_scheduled(kernel, &plan, launch, &mut sched_mem)
            })?;
            counts.engine(&sched.stats, true);
            ScheduleReport {
                kernel: w.name().to_string(),
                design: design.label(),
                mode: ScheduleMode::Static,
                static_floor_cycles: floor,
                scheduled_cycles: sched.stats.cycles,
                dynamic_cycles,
                slack_cycles: schedule_slack(dynamic_cycles),
                scheduled_instructions: sched.stats.instructions,
                dynamic_instructions: dyn_result.stats.instructions,
                registers_match: sched.final_regs == dyn_regs,
                memory_matches: sched_mem == dyn_mem,
                comparison: ScheduleComparison::new(
                    w.name(),
                    &model,
                    &activity_of(&sched.stats),
                    &dyn_activity,
                ),
            }
        }
        Err(bail) => ScheduleReport {
            kernel: w.name().to_string(),
            design: design.label(),
            mode: ScheduleMode::DynamicFallback {
                reason: format!("kernel `{}`: {bail}", w.name()),
            },
            static_floor_cycles: floor,
            scheduled_cycles: dynamic_cycles,
            dynamic_cycles,
            slack_cycles: schedule_slack(dynamic_cycles),
            scheduled_instructions: dyn_result.stats.instructions,
            dynamic_instructions: dyn_result.stats.instructions,
            registers_match: true,
            memory_matches: true,
            comparison: ScheduleComparison::new(w.name(), &model, &dyn_activity, &dyn_activity),
        },
    };
    Ok(report)
}

/// `mem_workload`, call by call.
fn traced_mem(w: &Workload, t: &mut Tracer, counts: &mut Counts) -> Result<MemReport, SimError> {
    let span = t.open("core.mem");
    let result = mem_parts(w, t, counts);
    t.close(span);
    result
}

fn mem_parts(w: &Workload, t: &mut Tracer, counts: &mut Counts) -> Result<MemReport, SimError> {
    let kernel = w.kernel();
    let launch = w.launch();
    let image = image_of(w, t);
    let info = LaunchInfo {
        params: launch.params().to_vec(),
        blocks: u32::try_from(launch.blocks()).ok(),
        threads_per_block: u32::try_from(launch.threads_per_block()).ok(),
        mem_words: u64::try_from(image.len()).ok(),
        initial_mem: Some(Arc::clone(&image)),
    };
    let cfg = t.time("analysis.cfg", || Cfg::build(kernel.instrs()));
    let mem = t.time("analysis.memabs", || {
        analyze_mem(
            kernel.name(),
            kernel.instrs(),
            kernel.num_regs(),
            &cfg,
            Some(&info),
        )
    });
    let cells = t.time("analysis.memcell", || {
        analyze_cells(
            kernel.name(),
            kernel.instrs(),
            usize::from(kernel.num_regs()),
            &cfg,
            Some(&info),
        )
    });
    let perf_launch = PerfLaunch {
        blocks: launch.blocks(),
        threads_per_block: launch.threads_per_block(),
        params: launch.params().to_vec(),
        initial_mem: Some(Arc::clone(&image)),
    };
    let sim_cfg = DesignPoint::WarpedCompression.config();
    let machine = perf_machine(&sim_cfg);
    let prediction = t.time("analysis.perfbound", || {
        bound_kernel(kernel, &perf_launch, &machine)
    });

    let mut join = Join::default();
    let mut memory = t.time("workloads.fresh_memory", || w.fresh_memory());
    let sim = GpuSim::new(sim_cfg);
    let mut joining = Duration::ZERO;
    let span = t.open("sim.dynamic");
    let run_start = Instant::now();
    let result = sim.run_mem_observed(kernel, launch, &mut memory, &mut |event| {
        let start = Instant::now();
        join.event(&mem, &cells, event);
        joining += start.elapsed();
    });
    t.record("core.mem", run_start, joining);
    t.close(span);
    let result = result?;
    counts.engine(&result.stats, false);

    let sites = mem
        .sites
        .iter()
        .map(|s| {
            let traffic = result.stats.mem.at(s.pc);
            let floor = prediction.mem_floor_at(s.pc);
            SiteCheck {
                pc: s.pc,
                is_store: s.is_store,
                pattern: s.pattern.name().to_string(),
                divergent: s.divergent,
                accesses: traffic.accesses,
                transactions: traffic.transactions,
                escapes: join.escapes.get(&s.pc).copied().unwrap_or(0),
                min_transactions: floor.map_or(0, |f| f.min_transactions),
                min_executions: floor.map_or(0, |f| f.min_executions),
            }
        })
        .collect();

    let residency = sim.max_resident_warps(kernel);
    let plan = t.time("analysis.schedule", || {
        schedule_kernel(kernel, &perf_launch, &machine, residency)
    });
    let bail = plan.err();
    let schedule = ScheduleCheck {
        static_mode: bail.is_none(),
        bail: bail.as_ref().map(|b| bail_name(b).to_string()),
        bail_pc: bail.as_ref().and_then(ScheduleBail::pc),
        forwardable_loads: mem.forwardable.len(),
        refined_loads: cells.refined.len(),
    };

    Ok(MemReport {
        kernel: w.name().to_string(),
        race_free: mem.race_free,
        static_races: mem.races.len(),
        sites,
        untracked_accesses: join.untracked,
        refined_loads: cells.refined.len(),
        refined_value_escapes: join.value_escapes.values().sum(),
        traced_conflicts: join.conflicts(&mem),
        schedule,
    })
}

fn bail_name(bail: &ScheduleBail) -> &'static str {
    match bail {
        ScheduleBail::UnknownPredicate { .. } => "unknown-predicate",
        ScheduleBail::FuelExhausted { .. } => "fuel-exhausted",
        ScheduleBail::BlockTooLarge { .. } => "block-too-large",
    }
}

/// One warp's traced touch of one word.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Touch {
    pub warp: (usize, usize),
    pub pc: usize,
    pub is_store: bool,
}

/// The mem gate's join of traced accesses against the static claims.
#[derive(Default)]
struct Join {
    escapes: BTreeMap<usize, u64>,
    value_escapes: BTreeMap<usize, u64>,
    untracked: u64,
    touches: BTreeMap<u32, Vec<Touch>>,
}

impl Join {
    fn event(&mut self, mem: &MemAbs, cells: &MemCells, event: &MemEvent) {
        if !event.is_store {
            if let Some(refined) = cells.refined.get(&event.pc) {
                if !refined.contains_masked(&event.values, event.mask) {
                    *self.value_escapes.entry(event.pc).or_default() += 1;
                }
            }
        }
        for (_, addr) in event.active_addrs() {
            let touch = Touch {
                warp: (event.block, event.warp_in_block),
                pc: event.pc,
                is_store: event.is_store,
            };
            let slot = self.touches.entry(addr).or_default();
            if !slot.contains(&touch) {
                slot.push(touch);
            }
        }
        let Some(site) = mem.site_index(event.pc) else {
            self.untracked += 1;
            return;
        };
        let contained = match mem.address_for(
            site,
            u32::try_from(event.block).unwrap_or(u32::MAX),
            u32::try_from(event.warp_in_block).unwrap_or(u32::MAX),
        ) {
            None => false,
            Some(abs) => abs.contains_masked(&event.addrs, event.mask),
        };
        if !contained {
            *self.escapes.entry(event.pc).or_default() += 1;
        }
    }

    fn conflicts(&self, mem: &MemAbs) -> Vec<TracedConflict> {
        let mut pairs: BTreeMap<(usize, usize, bool), bool> = BTreeMap::new();
        for accessors in self.touches.values() {
            for a in accessors.iter().filter(|a| a.is_store) {
                for b in accessors.iter().filter(|b| b.warp != a.warp) {
                    let predicted = mem
                        .races
                        .iter()
                        .any(|r| r.store_pc == a.pc && r.other_pc == b.pc);
                    pairs
                        .entry((a.pc, b.pc, b.is_store))
                        .and_modify(|p| *p &= predicted)
                        .or_insert(predicted);
                }
            }
        }
        pairs
            .into_iter()
            .map(
                |((store_pc, other_pc, other_is_store), predicted)| TracedConflict {
                    store_pc,
                    other_pc,
                    other_is_store,
                    predicted,
                },
            )
            .collect()
    }
}
