//! Allocation gate for the simulator's steady state.
//!
//! Once a run is warm, simulating one more instruction should not touch
//! the heap: the ROB ring, the MSHR waiter lists, the park and walk lists
//! and the in-flight maps all reuse their storage. This test binary
//! installs a counting global allocator (a per-thread counter, so other
//! tests running in parallel threads do not disturb it) and runs each
//! configuration twice with the same warmup and two measured windows
//! that differ by `EXTRA` instructions per core. Set-up and the shared
//! part of the run allocate the same in both, so the difference divided
//! by the extra instructions is the marginal allocation rate.
//!
//! The count is a host-independent work counter: it does not depend on
//! the machine's speed or load, only on the code.

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::cell::Cell;

use hermes_repro::hermes::{HermesConfig, PredictorKind};
use hermes_repro::hermes_cache::CoherenceConfig;
use hermes_repro::hermes_cpu::{CoreModel, OooConfig};
use hermes_repro::hermes_sim::{system::run_one, SystemConfig};
use hermes_repro::hermes_trace::{suite, WorkloadSpec};
use hermes_repro::hermes_vm::VmConfig;

/// Counts `alloc`, `alloc_zeroed` and `realloc` calls on the calling
/// thread, then defers to the system allocator.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the allocator may run while the thread's locals are
    // being torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

fn allocs_so_far() -> u64 {
    ALLOCS.with(Cell::get)
}

// SAFETY: every call forwards unchanged to the system allocator; the
// counter update neither allocates nor touches the memory handed out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        SystemAlloc.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        SystemAlloc.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        SystemAlloc.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        SystemAlloc.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const WARMUP: u64 = 10_000;
const MEASURED: u64 = 10_000;
const EXTRA: u64 = 20_000;
/// Marginal allocations allowed per extra simulated instruction.
const BOUND: f64 = 0.01;

/// Allocations made on this thread by one `run_one` call.
fn run_allocs(cfg: &SystemConfig, spec: &WorkloadSpec, measured: u64) -> u64 {
    let cfg = cfg.clone();
    let before = allocs_so_far();
    let r = run_one(cfg, spec, WARMUP, measured);
    let after = allocs_so_far();
    assert!(r.cores.iter().all(|c| c.instructions >= measured));
    after - before
}

/// Marginal allocations per extra simulated instruction (all cores).
fn marginal_allocs(cfg: &SystemConfig, spec: &WorkloadSpec) -> f64 {
    let short = run_allocs(cfg, spec, MEASURED);
    let long = run_allocs(cfg, spec, MEASURED + EXTRA);
    let rate = long.saturating_sub(short) as f64 / (EXTRA * cfg.cores as u64) as f64;
    eprintln!(
        "{}: {short} allocations at {MEASURED} measured, {long} at {}: {rate:.4} per extra instruction",
        spec.name,
        MEASURED + EXTRA
    );
    rate
}

fn find(specs: Vec<WorkloadSpec>, name: &str) -> WorkloadSpec {
    specs
        .into_iter()
        .find(|s| s.name == name)
        .expect("trace is in the suite")
}

#[test]
fn ooo_vm_four_cores_allocate_nothing_per_instruction() {
    // The `ooo-vm-4c` benchmark's Hermes point on `mcf-like`.
    let cfg = SystemConfig {
        cores: 4,
        ..SystemConfig::baseline_1c()
    }
    .with_core_model(CoreModel::OoO(OooConfig::baseline()))
    .with_vm(VmConfig::baseline())
    .with_hermes(HermesConfig::hermes_o(PredictorKind::Popet));
    let spec = find(suite::default_suite(), "mcf-like");
    let rate = marginal_allocs(&cfg, &spec);
    assert!(
        rate <= BOUND,
        "{rate:.4} allocations per simulated instruction (bound {BOUND})"
    );
}

#[test]
fn coherent_two_cores_allocate_nothing_per_instruction() {
    // The `coherent-2c` benchmark's Hermes point on `pc-ring`: MESI,
    // POPET with the coherence features and the speculative-read filter.
    let cfg = SystemConfig {
        cores: 2,
        ..SystemConfig::baseline_1c()
    }
    .with_coherence(CoherenceConfig::baseline())
    .with_hermes(
        HermesConfig::hermes_o(PredictorKind::Popet)
            .with_coh_features()
            .with_filter(),
    );
    let spec = find(suite::sharing_suite(500), "pc-ring");
    let rate = marginal_allocs(&cfg, &spec);
    assert!(
        rate <= BOUND,
        "{rate:.4} allocations per simulated instruction (bound {BOUND})"
    );
}
