//! System-level tests for the out-of-order core model (`hermes-ooo`).
//!
//! Three invariants: selecting `CoreModel::Legacy` explicitly is
//! indistinguishable from the default (the pinned goldens in
//! `hier_equivalence.rs` freeze the default itself), idle-cycle
//! fast-forward is invisible in the statistics under `CoreModel::OoO`
//! on both single-core and coherent multi-core systems, and the OoO
//! model behaves like a real window end-to-end — Hermes still pays off,
//! and deeper ROBs buy measurable memory-level parallelism.

use hermes_repro::hermes::{HermesConfig, PredictorKind};
use hermes_repro::hermes_cache::CoherenceConfig;
use hermes_repro::hermes_cpu::{CoreModel, OooConfig};
use hermes_repro::hermes_sim::{system::run_one, RunStats, System, SystemConfig};
use hermes_repro::hermes_trace::suite;
use hermes_repro::hermes_vm::VmConfig;

/// Canonical rendering of every deterministic counter, including the
/// OoO-only ones (zero under the legacy model).
fn digest(r: &RunStats) -> String {
    let mut s = format!("total_cycles={}", r.total_cycles);
    for c in &r.cores {
        s.push_str(&format!(
            ";[{} cyc={} ret={} ld={} st={} br={} bm={} l1={} l2={} llc={} dram={} ob={} onb={} sco={} scl={} sso={} erc={} hreq={} tp={} fp={} fn={} tn={} robsum={} rsfull={} lsqfull={} fwd={} flush={}]",
            c.workload,
            c.cycles,
            c.instructions,
            c.core.loads,
            c.core.stores,
            c.core.branches,
            c.core.branch_mispredicts,
            c.core.served_l1,
            c.core.served_l2,
            c.core.served_llc,
            c.core.served_dram,
            c.core.offchip_blocking,
            c.core.offchip_nonblocking,
            c.core.stall_cycles_offchip,
            c.core.stall_cycles_onchip_load,
            c.core.stall_cycles_other,
            c.core.empty_rob_cycles,
            c.hier.hermes_requests,
            c.pred.tp,
            c.pred.fp,
            c.pred.fn_,
            c.pred.tn,
            c.core.rob_occupancy_sum,
            c.core.rs_full_stalls,
            c.core.lsq_full_stalls,
            c.core.forwarded_loads,
            c.core.flushes,
        ));
    }
    s.push_str(&format!(
        ";dram[rd={} rp={} rh={} w={} hit={} empty={} conf={}]",
        r.dram.reads_demand,
        r.dram.reads_prefetch,
        r.dram.reads_hermes,
        r.dram.writes,
        r.dram.row_hits,
        r.dram.row_empty,
        r.dram.row_conflicts,
    ));
    s
}

fn ooo(cfg: SystemConfig) -> SystemConfig {
    cfg.with_core_model(CoreModel::OoO(OooConfig::baseline()))
}

#[test]
fn explicit_legacy_model_matches_default() {
    let smoke = suite::smoke_suite();
    for spec in [&smoke[0], &smoke[1], &smoke[3]] {
        let implicit = run_one(SystemConfig::baseline_1c(), spec, 3_000, 8_000);
        let explicit = run_one(
            SystemConfig::baseline_1c().with_core_model(CoreModel::Legacy),
            spec,
            3_000,
            8_000,
        );
        assert_eq!(
            digest(&implicit),
            digest(&explicit),
            "explicit CoreModel::Legacy diverged from the default on {}",
            spec.name
        );
    }
}

#[test]
fn fast_forward_is_cycle_exact_under_ooo() {
    let smoke = suite::smoke_suite();
    let configs: Vec<(&str, SystemConfig)> = vec![
        ("ooo-base", ooo(SystemConfig::baseline_1c())),
        (
            "ooo+hermes",
            ooo(SystemConfig::baseline_1c())
                .with_hermes(HermesConfig::hermes_o(PredictorKind::Popet)),
        ),
        // `ooo_sweep`'s starved LSQ point: dispatch stalls on a full
        // LQ/SQ, which fast-forward skips.
        (
            "ooo-lsq16x8",
            ooo(SystemConfig::baseline_1c()
                .with_rob(256)
                .with_lq(16)
                .with_sq(8)),
        ),
        // A small scheduler: dispatch stalls on a full RS.
        (
            "ooo-rs16",
            SystemConfig::baseline_1c().with_core_model(CoreModel::OoO(OooConfig {
                rs_entries: 16,
                ..OooConfig::baseline()
            })),
        ),
        // The `ooo-vm-4c` benchmark shape: four OoO cores with page walks
        // sharing one DRAM channel.
        (
            "ooo-vm-4c",
            ooo(SystemConfig {
                cores: 4,
                ..SystemConfig::baseline_1c()
            })
            .with_vm(VmConfig::baseline()),
        ),
    ];
    let (mut rs_stalls, mut lsq_stalls) = (0, 0);
    for (name, cfg) in configs {
        for spec in [&smoke[0], &smoke[1], &smoke[3]] {
            let off = run_one(cfg.clone().with_fast_forward(false), spec, 3_000, 8_000);
            let on = run_one(cfg.clone().with_fast_forward(true), spec, 3_000, 8_000);
            assert_eq!(
                digest(&off),
                digest(&on),
                "fast-forward changed OoO results for {name}/{}",
                spec.name
            );
            for c in &off.cores {
                rs_stalls += c.core.rs_full_stalls;
                lsq_stalls += c.core.lsq_full_stalls;
            }
        }
    }
    // Both dispatch-stall skips must have been exercised.
    assert!(rs_stalls > 0, "no input stalled dispatch on a full RS");
    assert!(lsq_stalls > 0, "no input stalled dispatch on a full LQ/SQ");
}

#[test]
fn fast_forward_is_cycle_exact_under_ooo_multicore_coherent() {
    let specs = suite::sharing_suite(500);
    for cores in [1usize, 4] {
        let cfg = |ff| {
            ooo(SystemConfig {
                cores,
                ..SystemConfig::baseline_1c()
            })
            .with_coherence(CoherenceConfig::baseline())
            .with_hermes(HermesConfig::hermes_o(PredictorKind::Popet))
            .with_fast_forward(ff)
        };
        let off = System::new(cfg(false), &specs).run(2_000, 6_000);
        let on = System::new(cfg(true), &specs).run(2_000, 6_000);
        assert_eq!(
            digest(&off),
            digest(&on),
            "fast-forward changed coherent OoO results on {cores} cores"
        );
    }
}

#[test]
fn ooo_counters_populated_only_under_ooo() {
    let smoke = suite::smoke_suite();
    let legacy = run_one(SystemConfig::baseline_1c(), &smoke[1], 2_000, 6_000);
    let o = run_one(ooo(SystemConfig::baseline_1c()), &smoke[1], 2_000, 6_000);
    let lc = &legacy.cores[0].core;
    let oc = &o.cores[0].core;
    assert_eq!(
        lc.rob_occupancy_sum + lc.rs_full_stalls + lc.lsq_full_stalls + lc.forwarded_loads,
        0,
        "legacy model must never touch the OoO counters"
    );
    assert!(oc.rob_occupancy_sum > 0, "OoO run sampled no ROB occupancy");
    assert_eq!(o.cores[0].instructions, 6_000);
}

#[test]
fn ideal_hermes_speeds_up_chase_under_ooo() {
    // The headline claim survives the real window: firing the DRAM read
    // at dispatch still shortens the pointer chase when loads occupy
    // actual ROB/LSQ slots while in flight.
    let smoke = suite::smoke_suite();
    let base = run_one(ooo(SystemConfig::baseline_1c()), &smoke[0], 3_000, 8_000);
    let ideal = run_one(
        ooo(SystemConfig::baseline_1c()).with_hermes(HermesConfig::hermes_o(PredictorKind::Ideal)),
        &smoke[0],
        3_000,
        8_000,
    );
    assert!(
        ideal.total_cycles < base.total_cycles,
        "Ideal Hermes did not speed up smoke-chase under OoO: {} !< {}",
        ideal.total_cycles,
        base.total_cycles
    );
}

#[test]
fn deeper_rob_buys_mlp_under_ooo() {
    // pagerank has abundant independent loads; a 32-entry window cannot
    // keep enough of them in flight, a 512-entry window can. The legacy
    // model could not express this distinction at all.
    let smoke = suite::smoke_suite();
    let run_rob = |rob| {
        run_one(
            ooo(SystemConfig::baseline_1c().with_rob(rob)),
            &smoke[3],
            3_000,
            8_000,
        )
        .total_cycles
    };
    let (small, big) = (run_rob(32), run_rob(512));
    assert!(
        big < small,
        "512-entry ROB not faster than 32-entry on pagerank: {big} !< {small}"
    );
}

/// Digests of a 200-entry ROB (1 core, Hermes-O/POPET, warmup 3 000 /
/// measure 8 000), pinned when both cores still kept their window in a
/// `VecDeque` of exactly that length. The ROB ring rounds 200 up to 256
/// slots; dispatch must still stop at 200. The `ooo-rs256` scheduler is
/// larger than the window, so the ROB is what fills (`robsum` is
/// 200 × cycles on both traces).
const GOLDEN_ROB200: &[(&str, usize, &str)] = &[
    ("legacy", 0, "total_cycles=329550;[smoke-chase cyc=329550 ret=8000 ld=2000 st=0 br=2000 bm=0 l1=0 l2=0 llc=34 dram=1966 ob=1966 onb=0 sco=321748 scl=1802 sso=6000 erc=0 hreq=2000 tp=1966 fp=34 fn=0 tn=0 robsum=0 rsfull=0 lsqfull=0 fwd=0 flush=0];dram[rd=0 rp=1005 rh=2000 w=0 hit=836 empty=0 conf=2169]"),
    ("legacy", 3, "total_cycles=67568;[smoke-pagerank cyc=67568 ret=8000 ld=4840 st=496 br=496 bm=0 l1=920 l2=217 llc=717 dram=2986 ob=1220 onb=1766 sco=58731 scl=0 sso=8837 erc=0 hreq=4474 tp=2949 fp=1516 fn=77 tn=349 robsum=0 rsfull=0 lsqfull=0 fwd=0 flush=0];dram[rd=3 rp=1009 rh=2206 w=0 hit=362 empty=0 conf=2856]"),
    ("ooo", 0, "total_cycles=329550;[smoke-chase cyc=329550 ret=8000 ld=2000 st=0 br=2000 bm=0 l1=0 l2=0 llc=34 dram=1966 ob=1966 onb=0 sco=321748 scl=1802 sso=6000 erc=0 hreq=2000 tp=1966 fp=34 fn=0 tn=0 robsum=32301900 rsfull=329550 lsqfull=0 fwd=0 flush=0];dram[rd=0 rp=1005 rh=2000 w=0 hit=836 empty=0 conf=2169]"),
    ("ooo", 3, "total_cycles=133562;[smoke-pagerank cyc=133562 ret=8000 ld=4837 st=496 br=496 bm=0 l1=2550 l2=221 llc=742 dram=1324 ob=1303 onb=21 sco=107315 scl=17063 sso=8687 erc=0 hreq=1875 tp=1298 fp=577 fn=26 tn=2936 robsum=15633507 rsfull=133217 lsqfull=0 fwd=0 flush=0];dram[rd=10 rp=951 rh=1872 w=0 hit=568 empty=0 conf=2265]"),
    ("ooo-rs256", 0, "total_cycles=329550;[smoke-chase cyc=329550 ret=8000 ld=2000 st=0 br=2000 bm=0 l1=0 l2=0 llc=34 dram=1966 ob=1966 onb=0 sco=321748 scl=1802 sso=6000 erc=0 hreq=2000 tp=1966 fp=34 fn=0 tn=0 robsum=65910000 rsfull=0 lsqfull=0 fwd=0 flush=0];dram[rd=0 rp=1005 rh=2000 w=0 hit=836 empty=0 conf=2169]"),
    ("ooo-rs256", 3, "total_cycles=133562;[smoke-pagerank cyc=133562 ret=8000 ld=4837 st=496 br=496 bm=0 l1=2550 l2=221 llc=742 dram=1324 ob=1303 onb=21 sco=107315 scl=17063 sso=8687 erc=0 hreq=1875 tp=1298 fp=577 fn=26 tn=2936 robsum=26712400 rsfull=0 lsqfull=0 fwd=0 flush=0];dram[rd=10 rp=951 rh=1872 w=0 hit=568 empty=0 conf=2265]"),
];

#[test]
fn non_power_of_two_rob_matches_pinned_digests() {
    let smoke = suite::smoke_suite();
    for &(model, wi, golden) in GOLDEN_ROB200 {
        let cfg = match model {
            "legacy" => SystemConfig::baseline_1c(),
            "ooo" => ooo(SystemConfig::baseline_1c()),
            "ooo-rs256" => SystemConfig::baseline_1c().with_core_model(CoreModel::OoO(OooConfig {
                rs_entries: 256,
                ..OooConfig::baseline()
            })),
            _ => unreachable!("unknown model tag {model}"),
        }
        .with_rob(200)
        .with_hermes(HermesConfig::hermes_o(PredictorKind::Popet));
        let r = run_one(cfg, &smoke[wi], 3_000, 8_000);
        assert_eq!(
            digest(&r),
            golden,
            "200-entry ROB diverged: {model}/{}",
            smoke[wi].name
        );
    }
}
