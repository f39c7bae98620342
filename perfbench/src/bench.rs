//! Running a workload, checking its outputs, and turning the runs into
//! named metrics.
//!
//! An untraced run (`trace = false`) times `System::new` over every
//! point in set-up passes, then runs the whole workload through
//! `hermes_exec::Engine` (one worker, a fresh empty result cache per
//! pass) until the time budget is spent, and reports end-to-end metrics.
//! A traced run alternates an untraced engine pass with a pass of the
//! traced runner ([`crate::traced`]) and reports per-layer metrics; it
//! also checks that the traced runner reproduces the engine's result on
//! every point.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use hermes_exec::{Engine, Job, Outcome, Provenance, ResultCache, RunLite};
use hermes_sim::{RunStats, System};
use hermes_types::{geomean, Hist};

use crate::traced::{run_traced, LayerTimes, TracedRun};
use crate::workloads::{Point, Workload};

/// Set-up passes per untraced run: at least this many, and at least
/// [`SETUP_MIN`] of them; `setup_s` is their median.
const SETUP_PASSES: usize = 5;
const SETUP_MIN: Duration = Duration::from_secs(1);

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What one benchmark run reports.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Points attempted.
    pub attempted: usize,
    /// Failed points: index → the first failure seen, with the point's
    /// configuration.
    pub failures: BTreeMap<usize, String>,
    /// Metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result (simulated
    /// outputs, digests, per-point breakdowns).
    pub notes: Vec<String>,
}

impl Report {
    /// Whether every point ran and passed every check.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    fn fail(&mut self, i: usize, p: &Point, why: impl AsRef<str>) {
        self.failures.entry(i).or_insert_with(|| {
            format!(
                "{}/{} ({} cores, trace seed {}): {}",
                p.tag,
                p.spec.name,
                p.cfg.cores,
                p.spec.seed,
                why.as_ref()
            )
        });
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed` and
    /// every metric with its unit.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failures.len(),
            metrics.join(", ")
        )
    }
}

/// How to run a workload.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload, seeded.
    pub workload: Workload,
    /// The benchmark seed (recorded in the output).
    pub seed: u64,
    /// Measurement budget: passes repeat until it is spent (at least
    /// one pass).
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// Directory for the passes' throw-away result caches.
    pub work_dir: PathBuf,
}

/// Runs one benchmark run.
pub fn run(opts: &Options) -> Report {
    let w = &opts.workload;
    let mut r = Report {
        attempted: w.points.len(),
        ..Report::default()
    };
    r.notes.push(format!(
        "workload {}: {} points, window {}+{} instructions/core, seed {}",
        w.name,
        w.points.len(),
        w.warmup,
        w.instr,
        opts.seed
    ));
    if opts.trace {
        run_traced_passes(opts, &mut r);
    } else {
        run_untraced(opts, &mut r);
    }
    for (i, why) in &r.failures {
        r.notes.push(format!("FAILED point {i}: {why}"));
    }
    r.notes.push(format!(
        "failed_frac {} ({} of {} points)",
        r.failures.len() as f64 / r.attempted.max(1) as f64,
        r.failures.len(),
        r.attempted
    ));
    r
}

fn run_untraced(opts: &Options, r: &mut Report) {
    let w = &opts.workload;
    let start = Instant::now();
    let mut setup = Vec::new();
    while setup.len() < SETUP_PASSES || start.elapsed() < SETUP_MIN {
        setup.push(setup_pass(w, r).as_secs_f64());
    }

    let start = Instant::now();
    let mut kips = Vec::new();
    let mut first: Option<Vec<Option<RunLite>>> = None;
    loop {
        let (wall, outs) = engine_pass(w, &opts.work_dir);
        kips.push(w.requested_instructions() as f64 / wall.as_secs_f64() / 1e3);
        let lites = collect_outcomes(w, outs, r);
        match &first {
            None => first = Some(lites),
            Some(f) => {
                for (i, (a, b)) in f.iter().zip(&lites).enumerate() {
                    if let (Some(a), Some(b)) = (a, b) {
                        if a.to_kv() != b.to_kv() {
                            r.fail(i, &w.points[i], "result differs between passes");
                        }
                    }
                }
            }
        }
        if !budget_left(start, kips.len(), opts.seconds) {
            break;
        }
    }
    let lites = first.expect("at least one pass");
    simulated_outputs(&lites, r);
    r.notes
        .push(format!("engine passes {}: sim_kips {kips:.1?}", kips.len()));

    r.metric("sim_kips", median(&kips), "kinstr/s");
    r.metric("setup_s", median(&setup), "s");
    r.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

/// Times `System::new` on every point; a panicking point fails.
fn setup_pass(w: &Workload, r: &mut Report) -> Duration {
    let mut total = Duration::ZERO;
    for (i, p) in w.points.iter().enumerate() {
        let cfg = p.cfg.clone();
        let t0 = Instant::now();
        let built = catch_unwind(AssertUnwindSafe(|| {
            System::new(cfg, std::slice::from_ref(&p.spec))
        }));
        total += t0.elapsed();
        match built {
            Ok(sys) => drop(sys),
            Err(e) => r.fail(i, p, format!("System::new panicked: {}", panic_text(&*e))),
        }
    }
    total
}

/// One untraced pass over the workload through the execution engine,
/// with one worker and a fresh empty result cache. A panicking batch is
/// re-run point by point, so one bad point fails alone.
fn engine_pass(w: &Workload, work_dir: &Path) -> (Duration, Vec<Result<Outcome, String>>) {
    let jobs: Vec<Job> = w
        .points
        .iter()
        .map(|p| Job::new(p.tag, p.cfg.clone(), p.spec.clone(), w.warmup, w.instr))
        .collect();
    let dir = fresh_dir(work_dir);
    let engine = Engine::with_cache(1, ResultCache::new(&dir).quiet()).quiet();
    let t0 = Instant::now();
    let batch = catch_unwind(AssertUnwindSafe(|| engine.run_batch(&jobs)));
    let wall = t0.elapsed();
    let _ = std::fs::remove_dir_all(&dir);
    let outs = match batch {
        Ok(outs) => outs.into_iter().map(Ok).collect(),
        Err(_) => jobs
            .iter()
            .map(|job| {
                let dir = fresh_dir(work_dir);
                let engine = Engine::with_cache(1, ResultCache::new(&dir).quiet()).quiet();
                let one = catch_unwind(AssertUnwindSafe(|| {
                    engine.run_batch(std::slice::from_ref(job))
                }));
                let _ = std::fs::remove_dir_all(&dir);
                one.map(|mut v| v.remove(0))
                    .map_err(|e| format!("simulation panicked: {}", panic_text(&*e)))
            })
            .collect(),
    };
    (wall, outs)
}

/// Checks each outcome; failed points yield `None`.
fn collect_outcomes(
    w: &Workload,
    outs: Vec<Result<Outcome, String>>,
    r: &mut Report,
) -> Vec<Option<RunLite>> {
    outs.into_iter()
        .enumerate()
        .map(|(i, o)| {
            let p = &w.points[i];
            match o {
                Ok(o) => {
                    if let Err(why) = check_lite(p, &o.result) {
                        r.fail(i, p, why);
                    }
                    Some(o.result)
                }
                Err(why) => {
                    r.fail(i, p, why);
                    None
                }
            }
        })
        .collect()
}

/// Output checks on one point's engine record.
fn check_lite(p: &Point, l: &RunLite) -> Result<(), String> {
    if !(l.ipc.is_finite() && l.ipc > 0.0) {
        return Err(format!("ipc {} is not finite and positive", l.ipc));
    }
    for (name, v) in [
        ("accuracy", l.accuracy),
        ("coverage", l.coverage),
        ("offchip_rate", l.offchip_rate),
    ] {
        if !(0.0..=1.0).contains(&v) {
            return Err(format!("{name} {v} outside [0, 1]"));
        }
    }
    let preds = l.pred_tp + l.pred_fp + l.pred_fn + l.pred_tn;
    if p.cfg.hermes.enabled() != (preds > 0.0) {
        return Err(format!(
            "predictor resolved {preds} loads with Hermes {}",
            if p.cfg.hermes.enabled() { "on" } else { "off" }
        ));
    }
    Ok(())
}

/// Output checks on one traced point: quotas and the predictor's
/// conservation law.
fn check_traced(p: &Point, w: &Workload, t: &TracedRun) -> Result<(), String> {
    let width = p.cfg.core.retire_width as u64;
    if t.stats.cores.len() != p.cfg.cores {
        return Err(format!(
            "{} core records for {} cores",
            t.stats.cores.len(),
            p.cfg.cores
        ));
    }
    for (i, c) in t.stats.cores.iter().enumerate() {
        // A core retires up to `retire_width` per cycle, so the cycle
        // that reaches the quota may overshoot it by less than one group.
        if c.instructions != w.instr || !(w.instr..w.instr + width).contains(&c.core.retired) {
            return Err(format!(
                "core {i} retired {} in the window against a quota of {}",
                c.core.retired, w.instr
            ));
        }
        let resolved = c.pred.total();
        let expect = if p.cfg.hermes.enabled() {
            t.delivered[i]
        } else {
            0
        };
        if resolved != expect {
            return Err(format!(
                "core {i}: predictor confusion matrix sums to {resolved}, \
                 {expect} predicted loads completed"
            ));
        }
    }
    Ok(())
}

/// Prints the simulated outputs: IPC geomean, Hermes speedup, and a
/// digest of every point's record (not gated: a declared model change
/// may move them).
fn simulated_outputs(lites: &[Option<RunLite>], r: &mut Report) {
    if lites.iter().any(Option::is_none) {
        r.notes
            .push("simulated outputs: incomplete (failed points)".into());
        return;
    }
    let lites: Vec<&RunLite> = lites.iter().flatten().collect();
    let ipcs: Vec<f64> = lites.iter().map(|l| l.ipc).collect();
    // Points come in (baseline, Hermes) pairs on the same trace.
    let speedups: Vec<f64> = lites
        .chunks(2)
        .map(|pair| pair[1].ipc / pair[0].ipc)
        .collect();
    let mut kv = String::new();
    for l in &lites {
        kv.push_str(&l.to_kv());
    }
    r.notes.push(format!("ipc_geomean {}", geomean(&ipcs)));
    r.notes
        .push(format!("hermes_speedup {}", geomean(&speedups)));
    r.notes
        .push(format!("runlite_digest {:016x}", fnv1a(kv.as_bytes())));
}

fn run_traced_passes(opts: &Options, r: &mut Report) {
    let w = &opts.workload;
    let start = Instant::now();
    let mut untraced_wall = Vec::new();
    let mut traced_wall = Vec::new();
    let mut passes: Vec<LayerTimes> = Vec::new();
    let mut c = Counts::default();
    let mut first_stats: Vec<Option<String>> = vec![None; w.points.len()];
    let mut exec: [u64; 4];
    loop {
        let (wall, outs) = engine_pass(w, &opts.work_dir);
        untraced_wall.push(wall.as_secs_f64());
        exec = [0; 4];
        for o in outs.iter().flatten() {
            exec[0] += 1;
            match o.provenance {
                Provenance::Computed => exec[1] += 1,
                Provenance::Deduped => exec[2] += 1,
                Provenance::Cache | Provenance::Waited => exec[3] += 1,
            }
        }
        let lites = collect_outcomes(w, outs, r);
        if passes.is_empty() {
            simulated_outputs(&lites, r);
        }

        let mut lt = LayerTimes::default();
        let t0 = Instant::now();
        for (i, p) in w.points.iter().enumerate() {
            let mut pt = LayerTimes::default();
            let traced = catch_unwind(AssertUnwindSafe(|| {
                run_traced(
                    &p.cfg,
                    std::slice::from_ref(&p.spec),
                    w.warmup,
                    w.instr,
                    &mut pt,
                )
            }));
            lt.add(&pt);
            let traced = match traced {
                Ok(t) => t,
                Err(e) => {
                    r.fail(i, p, format!("traced run panicked: {}", panic_text(&*e)));
                    continue;
                }
            };
            if let Some(l) = &lites[i] {
                if RunLite::from_stats(&traced.stats).to_kv() != l.to_kv() {
                    r.fail(i, p, "traced runner diverged from the untraced run");
                }
            }
            if let Err(why) = check_traced(p, w, &traced) {
                r.fail(i, p, why);
            }
            let stats = format!("{:?}", traced.stats);
            match &first_stats[i] {
                None => {
                    c.add(&traced.stats);
                    r.notes.push(breakdown(p, &pt));
                    first_stats[i] = Some(stats);
                }
                Some(first) if *first != stats => {
                    r.fail(i, p, "traced statistics differ between passes")
                }
                Some(_) => {}
            }
        }
        traced_wall.push(t0.elapsed().as_secs_f64());
        passes.push(lt);
        if !budget_left(start, passes.len(), opts.seconds) {
            break;
        }
    }
    r.notes.push(format!("traced passes {}", passes.len()));
    let med = |f: &dyn Fn(&LayerTimes) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let t0 = &passes[0];
    let s = |d: Duration| d.as_secs_f64();

    r.metric("loop.steps", t0.steps as f64, "count");
    r.metric("loop.self_s", med(&|t| s(t.loop_self())), "s");
    r.metric("loop.query_s", med(&|t| s(t.query)), "s");
    r.metric(
        "loop.ff_skip_frac",
        ratio(t0.skipped_cycles, t0.cycles),
        "frac",
    );

    r.metric("core.tick_s", med(&|t| s(t.core_tick_self())), "s");
    r.metric("core.ticks", t0.core_ticks as f64, "count");
    r.metric(
        "core.ns_per_instr",
        med(&|t| s(t.core_tick_self()) * 1e9 / t.retired.max(1) as f64),
        "ns/instr",
    );
    r.metric("core.finish_s", med(&|t| s(t.core_finish)), "s");
    r.metric(
        "core.rob_occ_mean",
        ratio(c.rob_occupancy_sum, c.core_cycles),
        "entries",
    );
    r.metric("core.lsq_full_stalls", c.lsq_full_stalls as f64, "count");

    r.metric("hier.issue_load_s", med(&|t| s(t.issue_load)), "s");
    r.metric("hier.loads_issued", t0.loads_issued as f64, "count");
    r.metric("hier.issue_store_s", med(&|t| s(t.issue_store)), "s");
    r.metric("hier.stores_issued", t0.stores_issued as f64, "count");
    r.metric("hier.tick_s", med(&|t| s(t.hier_tick)), "s");
    r.metric("hier.ticks", t0.hier_ticks as f64, "count");
    r.metric("hier.complete_s", med(&|t| s(t.drain)), "s");
    r.metric("hier.completions", t0.completions as f64, "count");

    r.metric("l1.accesses", c.l1_accesses as f64, "count");
    r.metric(
        "l1.accesses_per_issue",
        ratio(c.l1_accesses, c.mem_retired),
        "ratio",
    );
    r.metric("l2.accesses", c.l2_accesses as f64, "count");
    r.metric("llc.demand_accesses", c.llc_demand_accesses as f64, "count");
    r.metric("llc.demand_misses", c.llc_demand_misses as f64, "count");

    r.metric("coh.upgrades", c.coh_upgrades as f64, "count");
    r.metric("coh.invalidations", c.coh_invalidations as f64, "count");
    r.metric("coh.dirty_forwards", c.coh_dirty_forwards as f64, "count");
    r.metric(
        "coh.back_invalidations",
        c.coh_back_invalidations as f64,
        "count",
    );

    r.metric("dram.reads", c.dram_reads as f64, "count");
    r.metric("dram.writes", c.dram_writes as f64, "count");
    r.metric(
        "dram.row_hit_frac",
        ratio(c.row_hits, c.row_accesses),
        "frac",
    );
    r.metric(
        "dram.qdelay_p95",
        c.queue_delay.quantile_log2(0.95),
        "cycles",
    );
    r.metric(
        "dram.rq_occ_p95",
        c.rq_occupancy.quantile_linear(0.95),
        "slots",
    );
    r.metric("dram.hermes_dropped", c.hermes_dropped as f64, "count");

    r.metric("pred.calls", c.pred_calls as f64, "count");
    r.metric(
        "pred.precision",
        ratio(c.pred_tp, c.pred_tp + c.pred_fp),
        "frac",
    );
    r.metric(
        "pred.recall",
        ratio(c.pred_tp, c.pred_tp + c.pred_fn),
        "frac",
    );
    r.metric(
        "spec.useful_frac",
        ratio(c.spec_useful, c.spec_useful + c.spec_wasted),
        "frac",
    );

    r.metric("pf.issued", c.pf_issued as f64, "count");
    r.metric("pf.useful_frac", ratio(c.pf_useful, c.pf_issued), "frac");

    r.metric("vm.dtlb_accesses", c.dtlb_accesses as f64, "count");
    r.metric("vm.stlb_misses", c.stlb_misses as f64, "count");
    r.metric("vm.walks", c.walks as f64, "count");
    r.metric("vm.walk_mem_accesses", c.walk_mem_accesses as f64, "count");

    r.metric("setup.trace_build_s", med(&|t| s(t.trace_build)), "s");
    r.metric("setup.hierarchy_new_s", med(&|t| s(t.hierarchy_new)), "s");

    r.metric("exec.points", exec[0] as f64, "count");
    r.metric("exec.computed", exec[1] as f64, "count");
    r.metric("exec.deduped", exec[2] as f64, "count");
    r.metric("exec.cached", exec[3] as f64, "count");

    r.metric(
        "trace.overhead_frac",
        median(&traced_wall) / median(&untraced_wall) - 1.0,
        "frac",
    );
}

/// One line per point: where the traced run's host time went.
fn breakdown(p: &Point, t: &LayerTimes) -> String {
    let total = (t.main_loop + t.trace_build + t.hierarchy_new).as_secs_f64();
    let pct = |d: Duration| 100.0 * d.as_secs_f64() / total.max(f64::MIN_POSITIVE);
    format!(
        "breakdown {}/{} seed {}: {:.3} s traced | hier.tick {:.1}% | core.tick {:.1}% | \
         issue_load {:.1}% | issue_store {:.1}% | complete {:.1}% | finish {:.1}% | \
         query {:.1}% | loop.self {:.1}% | setup {:.1}% | steps {}",
        p.tag,
        p.spec.name,
        p.spec.seed,
        total,
        pct(t.hier_tick),
        pct(t.core_tick_self()),
        pct(t.issue_load),
        pct(t.issue_store),
        pct(t.drain),
        pct(t.core_finish),
        pct(t.query),
        pct(t.loop_self()),
        pct(t.trace_build + t.hierarchy_new),
        t.steps,
    )
}

/// Deterministic work counts summed over a pass's points.
#[derive(Debug, Clone, Default)]
struct Counts {
    core_cycles: u64,
    rob_occupancy_sum: u64,
    lsq_full_stalls: u64,
    mem_retired: u64,
    l1_accesses: u64,
    l2_accesses: u64,
    llc_demand_accesses: u64,
    llc_demand_misses: u64,
    coh_upgrades: u64,
    coh_invalidations: u64,
    coh_dirty_forwards: u64,
    coh_back_invalidations: u64,
    dram_reads: u64,
    dram_writes: u64,
    row_hits: u64,
    row_accesses: u64,
    hermes_dropped: u64,
    queue_delay: Hist,
    rq_occupancy: Hist,
    pred_calls: u64,
    pred_tp: u64,
    pred_fp: u64,
    pred_fn: u64,
    spec_useful: u64,
    spec_wasted: u64,
    pf_issued: u64,
    pf_useful: u64,
    dtlb_accesses: u64,
    stlb_misses: u64,
    walks: u64,
    walk_mem_accesses: u64,
}

impl Counts {
    fn add(&mut self, s: &RunStats) {
        for c in &s.cores {
            self.core_cycles += c.cycles;
            self.rob_occupancy_sum += c.core.rob_occupancy_sum;
            self.lsq_full_stalls += c.core.lsq_full_stalls;
            self.mem_retired += c.core.loads + c.core.stores;
            let h = &c.hier;
            self.l1_accesses += h.l1_accesses;
            self.l2_accesses += h.l2_accesses;
            self.llc_demand_accesses += h.llc_demand_accesses;
            self.llc_demand_misses += h.llc_demand_misses;
            self.coh_upgrades += h.coh_upgrades;
            self.coh_invalidations += h.coh_invalidations;
            self.coh_dirty_forwards += h.coh_dirty_forwards;
            self.coh_back_invalidations += h.coh_back_invalidations;
            self.spec_useful += h.spec_reads_useful;
            self.spec_wasted += h.spec_reads_wasted;
            self.pf_issued += h.prefetches_issued;
            self.pf_useful += h.prefetches_useful;
            self.dtlb_accesses += h.dtlb_accesses;
            self.stlb_misses += h.stlb_misses;
            self.walks += h.walks_completed;
            self.walk_mem_accesses += h.walk_mem_accesses;
            self.pred_calls += c.pred.total();
            self.pred_tp += c.pred.tp;
            self.pred_fp += c.pred.fp;
            self.pred_fn += c.pred.fn_;
        }
        let d = &s.dram;
        self.dram_reads += d.total_reads();
        self.dram_writes += d.writes;
        self.row_hits += d.row_hits;
        self.row_accesses += d.row_hits + d.row_empty + d.row_conflicts;
        self.hermes_dropped += d.hermes_dropped;
        self.queue_delay.merge(&d.queue_delay_hist);
        self.rq_occupancy.merge(&d.rq_occupancy_hist);
    }
}

/// Whether another pass, as long as the mean of the `done` passes since
/// `start`, still ends within the budget.
fn budget_left(start: Instant, done: usize, seconds: f64) -> bool {
    let elapsed = start.elapsed().as_secs_f64();
    elapsed + elapsed / done as f64 <= seconds
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Median (mean of the middle pair for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB; 0 where
/// `/proc` is unavailable.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn fresh_dir(work_dir: &Path) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    work_dir.join(format!("cache-{}-{n}", std::process::id()))
}

fn panic_text(e: &(dyn std::any::Any + Send)) -> String {
    e.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| e.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".into())
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn result_json_has_the_contract_keys() {
        let mut r = Report {
            attempted: 2,
            ..Report::default()
        };
        r.metric("setup_s", 0.5, "s");
        assert_eq!(
            r.result_json(),
            "{\"correct\": true, \"attempted\": 2, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
