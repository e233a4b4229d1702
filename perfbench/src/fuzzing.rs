//! `fuzz_cases`: the differential fuzzer's `check_case` over the first
//! cases of the campaign whose seed is the benchmark's seed. Each case
//! is a tiny kernel, so per-launch and per-analysis fixed costs
//! dominate.
//!
//! The traced items rebuild `check_case` (without its mutation hooks)
//! from the public calls it makes, so each call can be timed from
//! outside the library; the traced run checks that the rebuilt result
//! equals the library's own.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gpu_sim::{GlobalMemory, GpuSim, LaunchConfig, MemEvent, SimError, WriteEvent};
use simt_analysis::{
    analyze_mem, analyze_with_launch, bound_kernel, schedule_kernel, Cfg, LaunchInfo, MemAbs,
    PerfLaunch,
};
use warped_compression::perfbound::perf_machine;
use warped_compression::{
    check_case, schedule_slack, CaseStats, DesignPoint, Finding, FindingCategory, FuzzCase,
    DEFAULT_CYCLE_BUDGET,
};

use crate::gates::Touch;
use crate::trace::Tracer;
use crate::{Bench, Checked, Counts};

/// Cases per pass: a few seconds of checking on one core, enough that
/// the mix of case shapes, and so the pass time, barely depends on the
/// seed.
const CASES: usize = 3000;

pub struct FuzzCases {
    seed: u64,
    cases: Vec<FuzzCase>,
    /// Each case's first result, which later passes must repeat.
    seen: Vec<Option<(u64, u64, bool)>>,
}

type Out = Result<CaseStats, Finding>;

impl Bench for FuzzCases {
    type Out = Out;

    fn setup(seed: u64) -> Self {
        FuzzCases {
            seed,
            cases: (0..CASES).map(|i| FuzzCase::generate(seed, i)).collect(),
            seen: vec![None; CASES],
        }
    }

    fn items(&self) -> usize {
        self.cases.len()
    }

    fn run(&self, item: usize) -> Out {
        check_case(&self.cases[item], DEFAULT_CYCLE_BUDGET, None)
    }

    fn check(&mut self, item: usize, out: Out) -> Checked {
        let stats = match out {
            Ok(stats) => stats,
            Err(finding) => {
                eprintln!("case {item} of seed {}: {finding:?}", self.seed);
                return Checked::FAILED;
            }
        };
        let key = (stats.dynamic_cycles, stats.instructions, stats.static_close);
        let ok = *self.seen[item].get_or_insert(key) == key;
        // `check_case` reports the cycles of its reference dynamic run
        // only, so that run is the unit of work here.
        Checked {
            ok,
            cycles: stats.dynamic_cycles,
            warp_instrs: stats.instructions,
        }
    }

    fn run_traced(&self, item: usize, t: &mut Tracer, counts: &mut Counts) -> Out {
        let case = t.time("fuzz.generate", || FuzzCase::generate(self.seed, item));
        let span = t.open("fuzz.check");
        let out = check_parts(&case, t, counts);
        t.close(span);
        counts.add("fuzz.cases", 1);
        match &out {
            Ok(stats) if stats.static_close => counts.add("fuzz.static_cases", 1),
            Ok(_) => {}
            Err(_) => counts.add("fuzz.findings", 1),
        }
        out
    }
}

fn finding(category: FindingCategory, detail: impl Into<String>) -> Finding {
    Finding {
        category,
        detail: detail.into(),
    }
}

fn sim_finding(err: SimError, stage: &str) -> Finding {
    match err {
        SimError::CycleLimit { limit } => finding(
            FindingCategory::Timeout,
            format!("{stage}: cycle watchdog expired at {limit}"),
        ),
        other => finding(FindingCategory::SimFailure, format!("{stage}: {other}")),
    }
}

fn memory(case: &FuzzCase) -> GlobalMemory {
    let mut image = case.init_words.clone();
    image.resize(case.mem_words, 0);
    GlobalMemory::from_words(image)
}

/// `check_case` without mutations, call by call.
fn check_parts(case: &FuzzCase, t: &mut Tracer, counts: &mut Counts) -> Out {
    let mut cfg = DesignPoint::WarpedCompression.config();
    cfg.max_cycles = cfg.max_cycles.min(DEFAULT_CYCLE_BUDGET);
    let kernel = &case.kernel;
    let launch = LaunchConfig::new(case.blocks, case.threads_per_block);
    let machine = perf_machine(&cfg);
    let image = Arc::new(memory(case).words().to_vec());
    let perf_launch =
        PerfLaunch::new(case.blocks, case.threads_per_block).with_memory(Arc::clone(&image));
    let sim = GpuSim::new(cfg);

    let bound = t.time("analysis.perfbound", || {
        bound_kernel(kernel, &perf_launch, &machine)
    });
    let floor = bound.cycle_lower_bound;
    let info = LaunchInfo {
        params: Vec::new(),
        blocks: u32::try_from(case.blocks).ok(),
        threads_per_block: u32::try_from(case.threads_per_block).ok(),
        mem_words: u64::try_from(case.mem_words).ok(),
        initial_mem: Some(image),
    };
    let prediction = t
        .time("analysis.lint", || analyze_with_launch(kernel, Some(&info)))
        .prediction;

    let mut worst: Vec<Option<usize>> = vec![None; kernel.len()];
    let mut dyn_mem = memory(case);
    let mut observing = Duration::ZERO;
    let span = t.open("sim.dynamic");
    let run_start = Instant::now();
    let dyn_result = sim.run_observed(kernel, &launch, &mut dyn_mem, &mut |event: &WriteEvent| {
        let start = Instant::now();
        if !event.synthetic {
            let banks = event.class.banks();
            let slot = &mut worst[event.pc];
            *slot = Some(slot.map_or(banks, |b: usize| b.max(banks)));
        }
        observing += start.elapsed();
    });
    t.record("fuzz.check", run_start, observing);
    t.close(span);
    let dyn_result = dyn_result.map_err(|e| sim_finding(e, "dynamic run"))?;
    counts.engine(&dyn_result.stats, false);
    let dynamic_cycles = dyn_result.stats.cycles;
    if dynamic_cycles < floor {
        return Err(finding(
            FindingCategory::FloorViolation,
            format!("dynamic run took {dynamic_cycles} cycles, below the static floor {floor}"),
        ));
    }
    if dyn_result.stats.instructions < bound.min_instructions {
        return Err(finding(
            FindingCategory::FloorViolation,
            format!(
                "dynamic run issued {} instructions, below the static floor {}",
                dyn_result.stats.instructions, bound.min_instructions
            ),
        ));
    }
    if let Some(prediction) = &prediction {
        for site in &prediction.sites {
            let Some(measured) = worst.get(site.pc).copied().flatten() else {
                continue;
            };
            let predicted = site.class.banks();
            if measured > predicted {
                return Err(finding(
                    FindingCategory::AbsintUnsound,
                    format!(
                        "write site pc {} r{} measured {measured} banks, predicted {predicted}",
                        site.pc, site.reg
                    ),
                ));
            }
        }
    }

    let mem_cfg = t.time("analysis.cfg", || Cfg::build(kernel.instrs()));
    let memabs = t.time("analysis.memabs", || {
        analyze_mem(
            kernel.name(),
            kernel.instrs(),
            kernel.num_regs(),
            &mem_cfg,
            Some(&info),
        )
    });
    memabs_join(case, &memabs, &sim, "warped-compression", t, counts)?;
    let mut base_cfg = DesignPoint::Baseline.config();
    base_cfg.max_cycles = base_cfg.max_cycles.min(DEFAULT_CYCLE_BUDGET);
    memabs_join(case, &memabs, &GpuSim::new(base_cfg), "baseline", t, counts)?;

    let mut static_close = false;
    let mut cap_mem = memory(case);
    let (cap_result, dyn_regs) = t
        .time("sim.dynamic", || {
            sim.run_capturing(kernel, &launch, &mut cap_mem)
        })
        .map_err(|e| sim_finding(e, "dynamic capture run"))?;
    counts.engine(&cap_result.stats, false);
    let residency = sim.max_resident_warps(kernel);
    let plan = t.time("analysis.schedule", || {
        schedule_kernel(kernel, &perf_launch, &machine, residency)
    });
    if let Ok(plan) = plan {
        let mut sched_mem = memory(case);
        let sched = match t.time("sim.scheduled", || {
            sim.run_scheduled(kernel, &plan, &launch, &mut sched_mem)
        }) {
            Ok(sched) => sched,
            Err(err @ SimError::Plan { .. }) => {
                return Err(finding(FindingCategory::PlanRejected, err.to_string()));
            }
            Err(e) => return Err(sim_finding(e, "scheduled replay")),
        };
        counts.engine(&sched.stats, true);
        counts.add("replay.scheduled_cycles", sched.stats.cycles);
        counts.add("replay.dynamic_cycles", dynamic_cycles);
        static_close = true;
        if sched.final_regs != dyn_regs {
            return Err(finding(
                FindingCategory::ScheduleMismatch,
                "scheduled replay's final registers differ from the dynamic core",
            ));
        }
        if sched_mem != cap_mem {
            return Err(finding(
                FindingCategory::ScheduleMismatch,
                "scheduled replay's global memory differs from the dynamic core",
            ));
        }
        if sched.stats.cycles < floor {
            return Err(finding(
                FindingCategory::FloorViolation,
                format!(
                    "scheduled replay took {} cycles, below the static floor {floor}",
                    sched.stats.cycles
                ),
            ));
        }
        let slack = schedule_slack(dynamic_cycles);
        if sched.stats.cycles > dynamic_cycles + slack {
            return Err(finding(
                FindingCategory::SlackViolation,
                format!(
                    "scheduled replay took {} cycles, dynamic {dynamic_cycles} + slack {slack}",
                    sched.stats.cycles
                ),
            ));
        }
    }
    Ok(CaseStats {
        dynamic_cycles,
        instructions: dyn_result.stats.instructions,
        static_close,
    })
}

/// The memabs oracle: the case re-run with per-access tracing, every
/// access joined against the abstract address sets and the race
/// verdict.
fn memabs_join(
    case: &FuzzCase,
    mem: &MemAbs,
    sim: &GpuSim,
    design: &str,
    t: &mut Tracer,
    counts: &mut Counts,
) -> Result<(), Finding> {
    let mut events: Vec<MemEvent> = Vec::new();
    let mut memory = memory(case);
    let launch = LaunchConfig::new(case.blocks, case.threads_per_block);
    let result = t
        .time("sim.dynamic", || {
            sim.run_mem_observed(&case.kernel, &launch, &mut memory, &mut |e| {
                events.push(*e);
            })
        })
        .map_err(|e| sim_finding(e, &format!("{design} mem-traced run")))?;
    counts.engine(&result.stats, false);

    let unsound = |detail: String| finding(FindingCategory::MemabsUnsound, detail);
    let mut touches: HashMap<u32, Vec<Touch>> = HashMap::new();
    for event in &events {
        let Some(site) = mem.site_index(event.pc) else {
            return Err(unsound(format!(
                "{design}: traced access at statically-unreachable pc {}",
                event.pc
            )));
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
            return Err(unsound(format!(
                "{design}: traced address escaped the abstract set at pc {}",
                event.pc
            )));
        }
        for (_, addr) in event.active_addrs() {
            let touch = Touch {
                warp: (event.block, event.warp_in_block),
                pc: event.pc,
                is_store: event.is_store,
            };
            let slot = touches.entry(addr).or_default();
            if !slot.contains(&touch) {
                slot.push(touch);
            }
        }
    }
    let Some(race_free) = mem.race_free else {
        return Ok(());
    };
    for accessors in touches.values() {
        for a in accessors.iter().filter(|a| a.is_store) {
            for b in accessors.iter().filter(|b| b.warp != a.warp) {
                let (a_pc, b_pc) = (a.pc, b.pc);
                if race_free {
                    return Err(unsound(format!(
                        "{design}: traced cross-warp conflict @{a_pc} vs @{b_pc} under a \
                         race-free verdict"
                    )));
                }
                if !mem
                    .races
                    .iter()
                    .any(|r| r.store_pc == a_pc && r.other_pc == b_pc)
                {
                    return Err(unsound(format!(
                        "{design}: traced cross-warp conflict @{a_pc} vs @{b_pc} missing from \
                         the static race list"
                    )));
                }
            }
        }
    }
    Ok(())
}
