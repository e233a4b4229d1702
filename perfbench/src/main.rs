//! Host-time benchmark of the warped-compression reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <suite_dynamic|suite_gates|fuzz_cases> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Each workload is a fixed list of items
//! driven serially from one thread, pass after pass, in an order
//! shuffled from the seed, until `--seconds` have elapsed. Every item's
//! output is checked; an item whose check fails counts as failed.
//!
//! * `suite_dynamic` — every suite kernel under the baseline and
//!   warped-compression design points through `run_workload`, priced
//!   with `energy_of` (the `wcsim run` / figures path; dynamic engine,
//!   no analysis). Simulated statistics and energy must equal the values
//!   pinned in `pins/suite_dynamic.txt`.
//! * `suite_gates` — per suite kernel, the analyze gate
//!   (`analyze_with_launch`), `schedule_workload` and `mem_workload`:
//!   every analysis pass, the scheduled replay and both join layers.
//!   Every report must be sound, and the static/fallback verdicts and
//!   refined-load counts must equal `pins/suite_gates.txt`.
//! * `fuzz_cases` — `check_case` over the first cases of the fuzz
//!   campaign whose seed is `--seed`: tiny kernels where per-launch and
//!   per-analysis fixed costs dominate. No case may produce a finding.
//!   `check_case` reports only its reference dynamic run, so that run's
//!   cycles are the unit of work here.
//!
//! All times are host time; simulated cycles are only the unit of work.
//! The host's speed drifts by ±20% over minutes on a shared cloud VM, so
//! each pass is bracketed by a fixed calibration slice and its times
//! are scaled to the speed at which that slice takes `CAL_REFERENCE_S`
//! (see [`calibration_s`]). The measured pass time and slice time are
//! printed on the line before the result. The model has not been validated against
//! hardware, so no accuracy figure is given.
//!
//! With `--trace 0` the last stdout line carries the end-to-end
//! metrics. With `--trace 1` the run alternates untraced passes with
//! traced ones, in which the benchmark times its calls into each
//! crate's public functions (composite calls are taken apart into
//! those calls), and reports per-item layer self times, scaled like the
//! end-to-end times, plus exact counts summed over one pass. A layer a
//! workload does not run reports 0. The spans and the counts are
//! written to `.bench_out/`.

mod dynamic;
mod fuzzing;
mod gates;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use gpu_sim::SimStats;

use trace::Tracer;

/// Worker threads the vendored rayon stand-in may use. Every item is
/// called serially, and no suite-wide parallel entry point is used.
const RAYON_THREADS: &str = "1";

/// Set-ups timed before the first pass. More are timed after every
/// pass, for `SETUP_BURST_S` each time, so that the samples span the
/// run as the passes do; `setup_s` is the median of all of them.
const FIRST_SETUPS: usize = 5;
const SETUP_BURST_S: f64 = 0.1;

/// What the run loop learns from one item after its output check.
pub struct Checked {
    pub ok: bool,
    /// Simulated cycles of the engine runs the item made.
    pub cycles: u64,
    /// Simulated warp-instructions of those runs.
    pub warp_instrs: u64,
}

impl Checked {
    pub const FAILED: Checked = Checked {
        ok: false,
        cycles: 0,
        warp_instrs: 0,
    };
}

/// One benchmark workload: a fixed item list built in `setup`.
pub trait Bench: Sized {
    type Out: std::fmt::Debug;
    /// Builds every input.
    fn setup(seed: u64) -> Self;
    fn items(&self) -> usize;
    /// The timed call.
    fn run(&self, item: usize) -> Self::Out;
    /// Checks an output against the pins and against the item's
    /// earlier outputs.
    fn check(&mut self, item: usize, out: Self::Out) -> Checked;
    /// The item taken apart into its public calls, each under a span.
    /// Its output must equal that of [`run`](Self::run).
    fn run_traced(&self, item: usize, t: &mut Tracer, counts: &mut Counts) -> Self::Out;
}

/// Exact counts from traced items, keyed by metric or helper name.
#[derive(Default, PartialEq)]
pub struct Counts(BTreeMap<&'static str, u64>);

impl Counts {
    pub fn add(&mut self, key: &'static str, n: u64) {
        *self.0.entry(key).or_insert(0) += n;
    }

    fn get(&self, key: &str) -> u64 {
        self.0.get(key).copied().unwrap_or(0)
    }

    /// Adds one engine run's statistics.
    pub fn engine(&mut self, stats: &SimStats, scheduled: bool) {
        self.add("sim.cycles", stats.cycles);
        if !scheduled {
            self.add("sim.dynamic_cycles", stats.cycles);
        }
        self.add("sim.warp_instrs", stats.instructions);
        self.add("sim.write_events", stats.writes);
        self.add("sim.collector_retry_cycles", stats.collector_retry_cycles);
        self.add("regfile.bank_reads", stats.regfile.total_reads());
        self.add("regfile.bank_writes", stats.regfile.total_writes());
        self.add("bdi.compressor_activations", stats.compressor_activations);
        self.add(
            "bdi.decompressor_activations",
            stats.decompressor_activations,
        );
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds must be 1..=600, not {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() -> ExitCode {
    // Before anything reads it: the rayon stand-in caches its cap on
    // first use.
    std::env::set_var("RAYON_NUM_THREADS", RAYON_THREADS);
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "suite_dynamic" => drive::<dynamic::SuiteDynamic>(&args),
        "suite_gates" => drive::<gates::SuiteGates>(&args),
        "fuzz_cases" => drive::<fuzzing::FuzzCases>(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn drive<B: Bench>(args: &Args) -> Result<String, String> {
    if args.trace {
        traced::<B>(args)
    } else {
        untraced::<B>(args)
    }
}

fn time_setup<B: Bench>(seed: u64, samples: &mut Vec<f64>) -> B {
    let start = Instant::now();
    let bench = B::setup(seed);
    samples.push(start.elapsed().as_secs_f64());
    bench
}

/// One untimed warm-up item, so lazy state (the SIMD tier detect,
/// allocator growth) is paid before any item is timed.
fn warm_up<B: Bench>(bench: &B) {
    std::hint::black_box(bench.run(0));
}

/// Totals over the items of one or more untraced passes.
#[derive(Default)]
struct Passes {
    /// Pass and item times at the reference host speed.
    pass_s: Vec<f64>,
    item_ms: Vec<f64>,
    item_s_total: f64,
    /// Pass times as measured.
    raw_pass_s: Vec<f64>,
    cycles: u64,
    warp_instrs: u64,
    attempted: u64,
    failed: u64,
}

impl Passes {
    /// One pass over every item, in an order shuffled by `rng`; returns
    /// the measured seconds of each item, for [`record`](Self::record).
    fn pass<B: Bench>(&mut self, bench: &mut B, rng: &mut SplitMix) -> Vec<f64> {
        let mut item_s = Vec::with_capacity(bench.items());
        for item in rng.permutation(bench.items()) {
            let start = Instant::now();
            let out = std::hint::black_box(bench.run(item));
            item_s.push(start.elapsed().as_secs_f64());
            let checked = bench.check(item, out);
            self.cycles += checked.cycles;
            self.warp_instrs += checked.warp_instrs;
            self.attempted += 1;
            self.failed += u64::from(!checked.ok);
        }
        item_s
    }

    /// Records one pass's item times, multiplied by `scale` to bring
    /// them to the reference host speed.
    fn record(&mut self, item_s: &[f64], scale: f64) {
        let raw: f64 = item_s.iter().sum();
        self.item_ms.extend(item_s.iter().map(|s| s * scale * 1e3));
        self.item_s_total += raw * scale;
        self.pass_s.push(raw * scale);
        self.raw_pass_s.push(raw);
    }
}

fn untraced<B: Bench>(args: &Args) -> Result<String, String> {
    let mut cal = calibration_s();
    let mut cals = vec![cal];
    let mut setup_s: Vec<f64> = Vec::new();
    let mut bench = time_setup::<B>(args.seed, &mut setup_s);
    for _ in 1..FIRST_SETUPS {
        bench = time_setup::<B>(args.seed, &mut setup_s);
    }
    scale_tail(&mut setup_s, 0, CAL_REFERENCE_S / cal);
    warm_up(&bench);

    let mut rng = SplitMix(args.seed);
    let mut p = Passes::default();
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    while p.pass_s.is_empty() || start.elapsed() < budget {
        let item_s = p.pass(&mut bench, &mut rng);
        let after = calibration_s();
        p.record(&item_s, 2.0 * CAL_REFERENCE_S / (cal + after));
        cal = after;
        cals.push(cal);
        let first = setup_s.len();
        let burst = Instant::now();
        while burst.elapsed().as_secs_f64() < SETUP_BURST_S {
            drop(time_setup::<B>(args.seed, &mut setup_s));
        }
        scale_tail(&mut setup_s, first, CAL_REFERENCE_S / cal);
    }

    println!(
        "perfbench: {} seed {}: rayon threads {RAYON_THREADS} (host parallelism {}), \
         {} passes, {} item samples, {} set-ups; measured pass_s {}, calibration slice {} s \
         (reference {CAL_REFERENCE_S} s)",
        args.workload,
        args.seed,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        p.pass_s.len(),
        p.item_ms.len(),
        setup_s.len(),
        median(&p.raw_pass_s),
        median(&cals),
    );
    let metrics = [
        ("setup_s", median(&setup_s), "s"),
        ("pass_s", median(&p.pass_s), "s"),
        ("item_ms_p50", quantile(&p.item_ms, 0.5), "ms"),
        ("item_ms_p90", quantile(&p.item_ms, 0.9), "ms"),
        ("sim_cycles_per_s", p.cycles as f64 / p.item_s_total, "1/s"),
        (
            "warp_instrs_per_s",
            p.warp_instrs as f64 / p.item_s_total,
            "1/s",
        ),
        ("peak_rss_mb", peak_rss_mb()?, "MB"),
    ];
    Ok(result_line(p.failed == 0, p.attempted, p.failed, &metrics))
}

fn scale_tail(samples: &mut [f64], from: usize, scale: f64) {
    for s in &mut samples[from..] {
        *s *= scale;
    }
}

/// Seconds one calibration slice takes on the reference host, a quiet
/// period of a 2-core cloud VM. Timings are reported at this speed.
const CAL_REFERENCE_S: f64 = 0.04;

/// Times one calibration slice: fixed work owned by the benchmark, with
/// the simulator's mix of ordered-map, hash-map, small-vector and sort
/// traffic. The host's speed drifts by ±20% over minutes, and the
/// simulator and this slice drift together, so each pass's timings are
/// scaled by the reference slice time over the slices measured on
/// either side of the pass.
fn calibration_s() -> f64 {
    let start = Instant::now();
    std::hint::black_box(calibration_work());
    start.elapsed().as_secs_f64()
}

/// Kept to about half a megabyte at its peak, below the peak of any
/// workload, so that it does not set `peak_rss_mb`.
fn calibration_work() -> u64 {
    type FixedHash = std::hash::BuildHasherDefault<std::collections::hash_map::DefaultHasher>;
    let mut rng = SplitMix(0x5EED);
    let mut acc = 0u64;
    for _ in 0..8 {
        let mut ordered = BTreeMap::new();
        let mut hashed: std::collections::HashMap<(u32, u32), u64, FixedHash> =
            std::collections::HashMap::default();
        for i in 0..10_000u64 {
            let k = rng.next_u64() % 25_000;
            ordered.insert(k, i);
            hashed.insert((k as u32, i as u32 & 31), i);
            if i % 8 == 0 {
                acc += std::hint::black_box(vec![i as u32; 32]).len() as u64;
            }
        }
        for _ in 0..10_000 {
            let k = rng.next_u64() % 25_000;
            acc += ordered.range(k..).next().map_or(0, |(_, v)| *v);
            acc += hashed.get(&(k as u32, 3)).copied().unwrap_or(1);
        }
        drop((ordered, hashed));
        for _ in 0..4 {
            let mut v: Vec<u64> = (0..25_000).map(|_| rng.next_u64()).collect();
            v.sort_unstable();
            acc += v[1000];
        }
    }
    acc
}

/// Per-item layer self times reported by the traced run: metric name,
/// span name.
const LAYER_MS: [(&str, &str); 15] = [
    ("sim.dynamic_ms", "sim.dynamic"),
    ("sim.scheduled_ms", "sim.scheduled"),
    ("core.observe_ms", "core.observe"),
    ("power.energy_ms", "power.energy"),
    ("workloads.fresh_memory_ms", "workloads.fresh_memory"),
    ("analysis.cfg_ms", "analysis.cfg"),
    ("analysis.lint_ms", "analysis.lint"),
    ("analysis.memabs_ms", "analysis.memabs"),
    ("analysis.memcell_ms", "analysis.memcell"),
    ("analysis.perfbound_ms", "analysis.perfbound"),
    ("analysis.schedule_ms", "analysis.schedule"),
    ("core.schedule_self_ms", "core.schedule"),
    ("core.mem_self_ms", "core.mem"),
    ("fuzz.generate_ms", "fuzz.generate"),
    ("fuzz.check_ms", "fuzz.check"),
];

/// Exact counts reported by the traced run, summed over one pass.
const COUNTS: [&str; 13] = [
    "sim.cycles",
    "sim.warp_instrs",
    "sim.write_events",
    "sim.collector_retry_cycles",
    "regfile.bank_reads",
    "regfile.bank_writes",
    "bdi.compressor_activations",
    "bdi.decompressor_activations",
    "schedule.static_kernels",
    "schedule.fallbacks",
    "mem.refined_loads",
    "mem.escapes",
    "fuzz.findings",
];

fn traced<B: Bench>(args: &Args) -> Result<String, String> {
    let mut bench = B::setup(args.seed);
    warm_up(&bench);
    // The library's own output per item, which the traced items must
    // reproduce exactly.
    let reference: Vec<String> = (0..bench.items())
        .map(|i| format!("{:?}", bench.run(i)))
        .collect();
    let mut rng = SplitMix(args.seed);
    let mut cals = vec![calibration_s()];
    let mut untraced = Passes::default();
    let mut tracer = Tracer::new();
    let mut traced_pass_s = Vec::new();
    let mut first: Option<Counts> = None;
    let mut counts_repeat = true;
    let (mut attempted, mut failed) = (0u64, 0u64);

    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    while traced_pass_s.is_empty() || start.elapsed() < budget {
        // Measured, unscaled: only the overhead ratio uses these.
        let item_s = untraced.pass(&mut bench, &mut rng);
        untraced.record(&item_s, 1.0);
        let mut counts = Counts::default();
        let mut pass_ns = 0;
        for item in rng.permutation(bench.items()) {
            let root = tracer.open_item(item);
            let out = bench.run_traced(item, &mut tracer, &mut counts);
            pass_ns += tracer.close(root);
            let ok = format!("{out:?}") == reference[item] && bench.check(item, out).ok;
            attempted += 1;
            failed += u64::from(!ok);
        }
        traced_pass_s.push(pass_ns as f64 / 1e9);
        cals.push(calibration_s());
        match &first {
            None => first = Some(counts),
            Some(c) => counts_repeat &= *c == counts,
        }
    }
    let counts = first.expect("at least one traced pass");
    let passes = traced_pass_s.len() as f64;
    let items = passes * bench.items() as f64;
    let (self_ns, roots_ns) = tracer.self_times();
    // Layer times at the reference host speed, as the untraced run's.
    let scale = CAL_REFERENCE_S / median(&cals);
    let ms_per_item =
        |span: &str| self_ns.get(span).copied().unwrap_or(0) as f64 * scale / items / 1e6;

    let mut metrics: Vec<(&str, f64, &str)> = LAYER_MS
        .iter()
        .map(|&(metric, span)| (metric, ms_per_item(span), "ms"))
        .collect();
    let dynamic_cycles = counts.get("sim.dynamic_cycles") as f64 * passes;
    metrics.push((
        "sim.ns_per_cycle",
        ratio(
            self_ns.get("sim.dynamic").copied().unwrap_or(0) as f64 * scale,
            dynamic_cycles,
        ),
        "ns",
    ));
    for key in COUNTS {
        metrics.push((key, counts.get(key) as f64, "count"));
    }
    metrics.push((
        "sim.replay_vs_dynamic_cycles",
        ratio(
            counts.get("replay.scheduled_cycles") as f64,
            counts.get("replay.dynamic_cycles") as f64,
        ),
        "ratio",
    ));
    metrics.push((
        "fuzz.static_frac",
        ratio(
            counts.get("fuzz.static_cases") as f64,
            counts.get("fuzz.cases") as f64,
        ),
        "ratio",
    ));
    let root_self = self_ns.get(trace::ROOT).copied().unwrap_or(0) as f64;
    metrics.push((
        "trace.coverage",
        1.0 - ratio(root_self, roots_ns as f64),
        "ratio",
    ));
    metrics.push((
        "trace.overhead",
        ratio(median(&traced_pass_s), median(&untraced.pass_s)),
        "ratio",
    ));

    let stem = format!(".bench_out/{}-seed{}", args.workload, args.seed);
    std::fs::create_dir_all(".bench_out").map_err(|e| format!(".bench_out: {e}"))?;
    let mut counts_text = String::new();
    for (key, n) in &counts.0 {
        let _ = writeln!(counts_text, "{key} {n}");
    }
    write(&format!("{stem}.counts.txt"), &counts_text)?;
    write(&format!("{stem}.spans.jsonl"), &tracer.to_jsonl())?;

    println!(
        "perfbench: {} seed {} traced: rayon threads {RAYON_THREADS}, {} traced and {} untraced \
         passes, counts repeat: {counts_repeat}",
        args.workload,
        args.seed,
        traced_pass_s.len(),
        untraced.pass_s.len()
    );
    let attempted = attempted + untraced.attempted;
    let failed = failed + untraced.failed;
    Ok(result_line(
        failed == 0 && counts_repeat,
        attempted,
        failed,
        &metrics,
    ))
}

fn write(path: &str, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let mut out = format!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{"#
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            out,
            r#"{sep}"{name}": {{"value": {value}, "unit": "{unit}"}}"#
        );
    }
    out.push_str("}}");
    out
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Quantile `q` of `xs`: a mean of the order statistics weighted by a
/// normal density centred on rank `q(n-1)` with a standard deviation of
/// `sqrt(q(1-q)n)` ranks, the large-sample form of the Harrell–Davis
/// estimator. Pooled item times form one narrow cluster per distinct
/// item, between which a single order statistic would jump.
fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    let centre = q * (n - 1.0);
    let sd = (q * (1.0 - q) * n).sqrt().max(0.5);
    let (mut sum, mut weights) = (0.0, 0.0);
    for (rank, x) in v.iter().enumerate() {
        let z = (rank as f64 - centre) / sd;
        if z.abs() <= 4.0 {
            let w = (-0.5 * z * z).exp();
            sum += w * x;
            weights += w;
        }
    }
    sum / weights
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// SplitMix64: the seeded item order.
struct SplitMix(u64);

impl SplitMix {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A Fisher–Yates shuffle of `0..n`.
    fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
        v
    }
}
