//! `suite_dynamic`: every suite kernel under the baseline and
//! warped-compression design points through `run_workload`, priced with
//! `energy_of` — the dynamic engine, its observers and the power model.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use gpu_power::{EnergyParams, EnergyReport};
use gpu_sim::{GpuConfig, GpuSim, SimError};
use gpu_workloads::Workload;
use warped_compression::{
    energy_of, run_workload, ChoiceBreakdown, DesignPoint, RunOutput, SimilarityHistogram,
};

use crate::trace::Tracer;
use crate::{Bench, Checked, Counts};

/// One line per item, `<kernel> <design> <fingerprint>`, taken from
/// the seed commit's simulator. A mismatch prints the actual line.
const PINS: &str = include_str!("../pins/suite_dynamic.txt");

const DESIGNS: [DesignPoint; 2] = [DesignPoint::Baseline, DesignPoint::WarpedCompression];

pub struct SuiteDynamic {
    items: Vec<(Workload, DesignPoint, GpuConfig)>,
    params: EnergyParams,
    pins: BTreeSet<String>,
}

type Out = Result<(RunOutput, EnergyReport), SimError>;

/// The simulated statistics and energy an item must reproduce.
fn fingerprint(w: &Workload, design: DesignPoint, run: &RunOutput, e: &EnergyReport) -> String {
    let s = &run.stats;
    format!(
        "{} {} cycles={} instrs={} writes={} comp={} decomp={} bank_reads={:?} bank_writes={:?} energy_pj={:?}",
        w.name(),
        design.label(),
        s.cycles,
        s.instructions,
        s.writes,
        s.compressor_activations,
        s.decompressor_activations,
        s.regfile.bank_reads,
        s.regfile.bank_writes,
        e.total_pj()
    )
}

impl Bench for SuiteDynamic {
    type Out = Out;

    fn setup(_seed: u64) -> Self {
        let items: Vec<_> = gpu_workloads::suite()
            .into_iter()
            .flat_map(|w| DESIGNS.map(|d| (w.clone(), d, d.config())))
            .collect();
        let pins = PINS
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
            .map(str::to_string)
            .collect();
        SuiteDynamic {
            items,
            params: EnergyParams::paper_table3(),
            pins,
        }
    }

    fn items(&self) -> usize {
        self.items.len()
    }

    fn run(&self, item: usize) -> Out {
        let (w, _, cfg) = &self.items[item];
        let run = run_workload(cfg, w)?;
        let energy = energy_of(&run.stats, &self.params);
        Ok((run, energy))
    }

    fn check(&mut self, item: usize, out: Out) -> Checked {
        let (w, design, _) = &self.items[item];
        let Ok((run, energy)) = out else {
            eprintln!("{} {}: {:?}", w.name(), design.label(), out.err());
            return Checked::FAILED;
        };
        let actual = fingerprint(w, *design, &run, &energy);
        let ok = self.pins.contains(&actual);
        if !ok {
            eprintln!("pin mismatch, actual: {actual}");
        }
        Checked {
            ok,
            cycles: run.stats.cycles,
            warp_instrs: run.stats.instructions,
        }
    }

    fn run_traced(&self, item: usize, t: &mut Tracer, counts: &mut Counts) -> Out {
        let (w, _, cfg) = &self.items[item];
        // `run_workload`, call by call.
        let mut memory = t.time("workloads.fresh_memory", || w.fresh_memory());
        let mut similarity = SimilarityHistogram::new();
        let mut breakdown = ChoiceBreakdown::new();
        let mut observe = Duration::ZERO;
        let span = t.open("sim.dynamic");
        let run_start = Instant::now();
        let result = GpuSim::new(cfg.clone()).run_observed(
            w.kernel(),
            w.launch(),
            &mut memory,
            &mut |event| {
                let start = Instant::now();
                similarity.record(event);
                breakdown.record(event);
                observe += start.elapsed();
            },
        );
        t.record("core.observe", run_start, observe);
        t.close(span);
        let out = result.map(|r| RunOutput {
            name: w.name().to_string(),
            stats: r.stats,
            similarity,
            breakdown,
        });
        let out = out.map(|run| {
            let energy = t.time("power.energy", || energy_of(&run.stats, &self.params));
            (run, energy)
        });
        if let Ok((run, _)) = &out {
            counts.engine(&run.stats, false);
        }
        out
    }
}
