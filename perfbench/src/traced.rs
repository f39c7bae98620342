//! Outside-in traced runner.
//!
//! [`run_traced`] is `System::run` rebuilt from the simulator's public
//! API — `AnyCore`, `Hierarchy` and the `MemoryPort` trait — with every
//! call into a layer timed. It follows the tick loop with idle-cycle
//! fast-forward, which the repository's scheduler-equivalence tests pin
//! bit-exact to the default calendar scheduler, so its statistics must
//! equal an untraced run's on every point (the benchmark checks this).
//!
//! Layers inside `Hierarchy::tick` (cache arrays, retries, coherence,
//! DRAM, prefetchers, the predictor) are not timed here; the benchmark
//! reports their work as counts from `RunStats`.

use std::time::{Duration, Instant};

use hermes_cpu::{LoadIssue, MemoryPort, ServedBy, StoreIssue};
use hermes_ooo::AnyCore;
use hermes_sim::hierarchy::Hierarchy;
use hermes_sim::power::{PowerBreakdown, PowerModel};
use hermes_sim::stats::CoreRunStats;
use hermes_sim::{RunStats, SystemConfig};
use hermes_trace::WorkloadSpec;
use hermes_types::Cycle;

/// Host time and call counts per layer boundary, summed over runs.
#[derive(Debug, Clone, Default)]
pub struct LayerTimes {
    /// `WorkloadSpec::build_for` (trace generators).
    pub trace_build: Duration,
    /// `Hierarchy::new`.
    pub hierarchy_new: Duration,
    /// The whole main loop, warmup and measurement, all calls included.
    pub main_loop: Duration,
    /// Main-loop iterations (simulated cycles actually stepped).
    pub steps: u64,
    /// Simulated cycles jumped over by fast-forward.
    pub skipped_cycles: u64,
    /// Simulated cycles in total (warmup and measurement).
    pub cycles: u64,
    /// Scheduling queries: `Hierarchy::{next_event_at,reset_stats}` and
    /// `AnyCore::{next_work_at,skip_stalled,reset_stats}`.
    pub query: Duration,
    /// `AnyCore::tick`, including the port calls it makes.
    pub core_tick: Duration,
    /// `AnyCore::tick` calls.
    pub core_ticks: u64,
    /// `AnyCore::finish_load`.
    pub core_finish: Duration,
    /// `MemoryPort::issue_load` into the hierarchy.
    pub issue_load: Duration,
    /// Loads issued.
    pub loads_issued: u64,
    /// `MemoryPort::issue_store` into the hierarchy.
    pub issue_store: Duration,
    /// Stores issued.
    pub stores_issued: u64,
    /// `Hierarchy::tick`.
    pub hier_tick: Duration,
    /// `Hierarchy::tick` calls.
    pub hier_ticks: u64,
    /// `Hierarchy::drain_finished`.
    pub drain: Duration,
    /// Load completions delivered to cores.
    pub completions: u64,
    /// Instructions retired by all cores, warmup and measurement.
    pub retired: u64,
}

impl LayerTimes {
    /// Adds `o` into `self`.
    pub fn add(&mut self, o: &LayerTimes) {
        self.trace_build += o.trace_build;
        self.hierarchy_new += o.hierarchy_new;
        self.main_loop += o.main_loop;
        self.steps += o.steps;
        self.skipped_cycles += o.skipped_cycles;
        self.cycles += o.cycles;
        self.query += o.query;
        self.core_tick += o.core_tick;
        self.core_ticks += o.core_ticks;
        self.core_finish += o.core_finish;
        self.issue_load += o.issue_load;
        self.loads_issued += o.loads_issued;
        self.issue_store += o.issue_store;
        self.stores_issued += o.stores_issued;
        self.hier_tick += o.hier_tick;
        self.hier_ticks += o.hier_ticks;
        self.drain += o.drain;
        self.completions += o.completions;
        self.retired += o.retired;
    }

    /// `AnyCore::tick` minus the port calls made from inside it.
    pub fn core_tick_self(&self) -> Duration {
        self.core_tick
            .saturating_sub(self.issue_load + self.issue_store)
    }

    /// Main-loop time not spent in any timed call.
    pub fn loop_self(&self) -> Duration {
        self.main_loop.saturating_sub(
            self.query + self.core_tick + self.core_finish + self.hier_tick + self.drain,
        )
    }
}

/// A `MemoryPort` that times each call into the hierarchy.
struct TimedPort<'a> {
    hier: &'a mut Hierarchy,
    t: &'a mut LayerTimes,
}

impl MemoryPort for TimedPort<'_> {
    fn issue_load(&mut self, req: LoadIssue, now: Cycle) {
        let t0 = Instant::now();
        self.hier.issue_load(req, now);
        self.t.issue_load += t0.elapsed();
        self.t.loads_issued += 1;
    }

    fn issue_store(&mut self, req: StoreIssue, now: Cycle) {
        let t0 = Instant::now();
        self.hier.issue_store(req, now);
        self.t.issue_store += t0.elapsed();
        self.t.stores_issued += 1;
    }

    fn note_lifecycle(&mut self, core: usize, token: u64, at: Cycle, kind: &'static str) {
        self.hier.note_lifecycle(core, token, at, kind);
    }
}

/// The simulated machine the runner steps.
struct Machine {
    cores: Vec<AnyCore>,
    hier: Hierarchy,
    cycle: Cycle,
    fast_forward: bool,
    finished: Vec<(usize, u64, ServedBy)>,
    /// Completions delivered to each core since the warmup boundary.
    delivered: Vec<u64>,
}

impl Machine {
    /// One main-loop iteration: jump idle cycles, then step one cycle.
    fn advance(&mut self, t: &mut LayerTimes) {
        let t0 = Instant::now();
        let mut target = Cycle::MAX;
        if self.fast_forward {
            target = self.hier.next_event_at();
            for core in &self.cores {
                target = target.min(core.next_work_at());
            }
        }
        // `Cycle::MAX` means nothing will ever happen: step anyway so the
        // forward-progress budget fires.
        if target != Cycle::MAX && target > self.cycle {
            let skipped = target - self.cycle;
            for core in &mut self.cores {
                core.skip_stalled(skipped);
            }
            self.cycle = target;
            t.skipped_cycles += skipped;
        }
        let t1 = Instant::now();
        t.query += t1 - t0;

        let now = self.cycle;
        self.hier.tick(now);
        let t2 = Instant::now();
        t.hier_tick += t2 - t1;
        t.hier_ticks += 1;

        self.hier.drain_finished(&mut self.finished);
        let t3 = Instant::now();
        t.drain += t3 - t2;

        for &(core, token, served) in &self.finished {
            self.cores[core].finish_load(token, now, served);
            self.delivered[core] += 1;
        }
        t.completions += self.finished.len() as u64;
        let mut t4 = Instant::now();
        t.core_finish += t4 - t3;

        for core in &mut self.cores {
            let mut port = TimedPort {
                hier: &mut self.hier,
                t: &mut *t,
            };
            core.tick(now, &mut port);
            let t5 = Instant::now();
            t.core_tick += t5 - t4;
            t4 = t5;
        }
        t.core_ticks += self.cores.len() as u64;
        t.steps += 1;
        self.cycle += 1;
    }
}

/// What a traced run yields beyond `RunStats`.
#[derive(Debug, Clone)]
pub struct TracedRun {
    /// The same statistics `System::run` returns.
    pub stats: RunStats,
    /// Per core: load completions delivered between the warmup boundary
    /// and the core's measurement snapshot (the loads the predictor
    /// resolved in the window).
    pub delivered: Vec<u64>,
}

/// Builds and runs one point like `System::new(cfg, specs).run(warmup,
/// sim)`, timing every layer call into `t`.
///
/// # Panics
///
/// Panics where `System::run` does: an empty `specs`, an invalid
/// configuration, a zero window, or no forward progress within the
/// cycle budget.
pub fn run_traced(
    cfg: &SystemConfig,
    specs: &[WorkloadSpec],
    warmup: u64,
    sim: u64,
    t: &mut LayerTimes,
) -> TracedRun {
    assert!(!specs.is_empty(), "need at least one workload");
    assert!(sim > 0, "measurement window must be nonzero");
    cfg.validate();
    let n = cfg.cores;

    let t0 = Instant::now();
    let traces: Vec<_> = (0..n)
        .map(|i| specs[i % specs.len()].build_for(i))
        .collect();
    t.trace_build += t0.elapsed();
    let cores = traces
        .into_iter()
        .enumerate()
        .map(|(i, tr)| AnyCore::new(i, cfg.core.clone(), tr))
        .collect();
    let t1 = Instant::now();
    let hier = Hierarchy::new(cfg.clone());
    t.hierarchy_new += t1.elapsed();

    let mut m = Machine {
        cores,
        hier,
        cycle: 0,
        fast_forward: cfg.fast_forward,
        finished: Vec::new(),
        delivered: vec![0; n],
    };
    let budget = (warmup + sim) * 400 + 2_000_000;
    let loop_start = Instant::now();

    while m.cores.iter().any(|c| c.retired() < warmup) {
        m.advance(t);
        assert!(m.cycle < budget, "no forward progress during warmup");
    }
    let warm_retired: u64 = m.cores.iter().map(AnyCore::retired).sum();
    let tr = Instant::now();
    for c in &mut m.cores {
        c.reset_stats();
    }
    m.hier.reset_stats();
    m.delivered.iter_mut().for_each(|d| *d = 0);
    t.query += tr.elapsed();
    let measure_start = m.cycle;

    let mut snapshots: Vec<Option<CoreRunStats>> = vec![None; n];
    let mut delivered = vec![0; n];
    while snapshots.iter().any(Option::is_none) {
        m.advance(t);
        assert!(
            m.cycle < measure_start + budget,
            "no forward progress during measurement"
        );
        for i in 0..n {
            if snapshots[i].is_none() && m.cores[i].retired() >= sim {
                let spec = &specs[i % specs.len()];
                delivered[i] = m.delivered[i];
                snapshots[i] = Some(CoreRunStats {
                    workload: spec.name.clone(),
                    category: spec.category,
                    instructions: sim,
                    cycles: m.cycle - measure_start,
                    core: *m.cores[i].stats(),
                    hier: m.hier.core_stats()[i],
                    pred: m.hier.predictor_stats()[i],
                });
            }
        }
    }
    t.main_loop += loop_start.elapsed();
    t.cycles += m.cycle;
    t.retired += warm_retired + m.cores.iter().map(AnyCore::retired).sum::<u64>();

    let cores: Vec<CoreRunStats> = snapshots
        .into_iter()
        .map(|s| s.expect("loop exits when all set"))
        .collect();
    let dram = *m.hier.dram_stats();
    let instructions = cores.iter().map(|c| c.instructions).sum();
    let predictions = cores.iter().map(|c| c.pred.total()).sum();
    let pf_accesses = cores.iter().map(|c| c.hier.llc_demand_accesses).sum();
    let power = PowerBreakdown::compute(
        &PowerModel::default(),
        &cores.iter().map(|c| c.hier).collect::<Vec<_>>(),
        &dram,
        instructions,
        predictions,
        pf_accesses,
    );
    TracedRun {
        stats: RunStats {
            total_cycles: m.cycle - measure_start,
            cores,
            dram,
            power,
            probe: m.hier.probe_report(),
        },
        delivered,
    }
}
