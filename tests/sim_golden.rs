//! Golden outputs of the simulator on the `doacross-sim` population.
//!
//! The population is the `perfbench` `doacross-sim` loop set: the 7
//! Fig. 5 DOACROSS loops (generator seed `0x1CC9_2008`), the 6 classic
//! kernels and the 8 Livermore loops. Each loop runs, at
//! [`ITERS`] iterations, through
//!
//! * `simulate_sequential`: total cycles, cache counters and memory
//!   image;
//! * `simulate_spmt` on its SMS and its TMS schedule: every
//!   [`SimStats`] field and the memory image;
//! * `simulate_spmt_injected` on the TMS schedule under a hot
//!   [`FaultPlan`] (forced misspeculation and stall jitter), which
//!   drives the squash/replay path and the jittered arrival table.
//!
//! Every number is pinned. The simulator's data structures may change;
//! its outputs may not. On a mismatch the test prints the whole table
//! as it now reads, so a deliberate model change can re-pin it.

use tms_core::cost::CostModel;
use tms_core::{schedule_sms, schedule_tms, TmsConfig};
use tms_ddg::{Ddg, InstId};
use tms_faults::{FaultPlan, FaultRates};
use tms_machine::{ArchParams, MachineModel};
use tms_sim::{simulate_sequential, simulate_spmt, simulate_spmt_injected, SimConfig, SimStats};
use tms_trace::Trace;
use tms_workloads::{doacross_suite, kernels, livermore_suite};

/// Iterations per run: enough for every loop to reach steady state and
/// for the store log to wrap many times, few enough for a debug build.
const ITERS: u64 = 2_000;

/// Fault-plan seed of the injected run.
const FAULT_SEED: u64 = 0xFA17_2008;

fn population() -> Vec<Ddg> {
    doacross_suite(0x1CC9_2008)
        .into_iter()
        .map(|l| l.ddg)
        .chain(kernels::all_kernels())
        .chain(livermore_suite())
        .collect()
}

/// SplitMix64 step folded over a word stream.
fn fold(h: u64, x: u64) -> u64 {
    let mut z = (h ^ x).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fingerprint of a memory image over its entries sorted by address,
/// so it does not depend on the map's hasher or iteration order.
fn image_fp<'a>(image: impl IntoIterator<Item = (&'a u64, &'a (InstId, u64))>) -> u64 {
    let mut entries: Vec<(u64, u32, u64)> = image
        .into_iter()
        .map(|(&a, &(inst, iter))| (a, inst.0, iter))
        .collect();
    entries.sort_unstable();
    let mut h = fold(0, entries.len() as u64);
    for (a, inst, iter) in entries {
        h = fold(fold(fold(h, a), inst as u64), iter);
    }
    h
}

/// Every [`SimStats`] field, in declaration order. Destructured without
/// `..`, so a new field fails to compile here until it is pinned too.
fn stats_fields(s: &SimStats) -> [u64; 14] {
    let SimStats {
        total_cycles,
        committed_threads,
        sync_stall_cycles,
        local_stall_cycles,
        send_recv_pairs,
        misspeculations,
        cascade_squashes,
        squashed_cycles,
        spawn_cycles,
        commit_cycles,
        invalidation_cycles,
        l1_hits,
        l2_hits,
        mem_accesses,
    } = *s;
    [
        total_cycles,
        committed_threads,
        sync_stall_cycles,
        local_stall_cycles,
        send_recv_pairs,
        misspeculations,
        cascade_squashes,
        squashed_cycles,
        spawn_cycles,
        commit_cycles,
        invalidation_cycles,
        l1_hits,
        l2_hits,
        mem_accesses,
    ]
}

fn hot_plan() -> FaultPlan {
    FaultPlan::with_rates(
        FAULT_SEED,
        FaultRates {
            misspec_per_1024: 96,
            jitter_per_1024: 512,
            jitter_max_cycles: 9,
            ..FaultRates::default()
        },
    )
}

/// One pinned line per loop. `plan` is shared by the whole population
/// (its sites are keyed by loop name).
fn golden_line(ddg: &Ddg, plan: &FaultPlan) -> String {
    let machine = MachineModel::icpp2008();
    let arch = ArchParams::with_ncore(4);
    let model = CostModel::new(arch.costs, 4);
    let sms = schedule_sms(ddg, &machine).expect("SMS schedules").schedule;
    let tms = schedule_tms(ddg, &machine, &model, &TmsConfig::default())
        .expect("TMS schedules")
        .schedule;
    let cfg = SimConfig::icpp2008(ITERS);

    let seq = simulate_sequential(ddg, &machine, &cfg);
    let seq_fp = image_fp(&seq.memory_image);
    let mut line = format!(
        "{} seq {} {:?} {seq_fp:016x}",
        ddg.name(),
        seq.total_cycles,
        seq.cache_counts
    );
    let runs = [
        ("sms", simulate_spmt(ddg, &sms, &cfg)),
        ("tms", simulate_spmt(ddg, &tms, &cfg)),
        (
            "tms+faults",
            simulate_spmt_injected(ddg, &tms, &cfg, &Trace::disabled(), plan),
        ),
    ];
    for (tag, out) in &runs {
        // Squashes, replays and jitter perturb timing, never the
        // committed state.
        assert_eq!(
            image_fp(&out.memory_image),
            seq_fp,
            "{} {tag}: memory image differs from sequential",
            ddg.name()
        );
        line += &format!(" | {tag} {:?}", stats_fields(&out.stats));
    }
    line
}

/// `name seq <cycles> [l1, l2, misses] <image fp> | <run> [SimStats…]…`
/// — stats fields in [`stats_fields`] order — then the fault plan's
/// injection counts over the population.
const GOLDEN: &[&str] = &[
    "art.L0 seq 16107 [5997, 0, 3] ccbd20f09f3d3f51 | sms [26126, 2002, 80300, 0, 28000, 0, 0, 0, 6003, 4004, 0, 5988, 9, 3] | tms [12583, 2002, 16763, 5254, 20000, 22, 22, 858, 6003, 4004, 330, 5988, 75, 3] | tms+faults [18167, 2002, 32989, 21964, 20000, 200, 186, 8674, 6003, 4004, 3000, 5990, 607, 3]",
    "art.L1 seq 13665 [13993, 0, 7] acc7c704fa4c1527 | sms [26203, 2002, 80529, 0, 12000, 0, 0, 0, 6003, 4004, 0, 13972, 21, 7] | tms [14804, 2003, 28273, 4780, 18000, 22, 22, 1144, 6006, 4006, 330, 13972, 175, 7] | tms+faults [20070, 2003, 40542, 27279, 18000, 217, 179, 9952, 6006, 4006, 3255, 13973, 1539, 7]",
    "art.L2 seq 14166 [9995, 0, 5] d6b2a7404abe099d | sms [26144, 2002, 82118, 396, 26000, 0, 0, 0, 6003, 4004, 0, 9980, 15, 5] | tms [12897, 2002, 15026, 4646, 22000, 22, 22, 1012, 6003, 4004, 330, 9980, 125, 5] | tms+faults [18866, 2002, 32335, 23428, 22000, 199, 181, 8885, 6003, 4004, 2985, 9982, 1004, 5]",
    "art.L3 seq 16156 [7996, 0, 4] d6b2a7404abe099d | sms [26202, 2002, 80523, 4, 26000, 0, 0, 0, 6003, 4004, 0, 7984, 12, 4] | tms [15038, 2003, 23462, 3876, 28000, 22, 22, 1144, 6006, 4006, 330, 7984, 100, 4] | tms+faults [21387, 2003, 41884, 19662, 28000, 222, 184, 11008, 6006, 4006, 3330, 7985, 895, 4]",
    "equake.L0 seq 52411 [49883, 90, 27] bd4367290a816a1f | sms [58561, 2002, 173117, 5357, 40000, 0, 0, 0, 6003, 4004, 0, 49737, 236, 27] | tms [31670, 2003, 29156, 13312, 72000, 18, 18, 1626, 6006, 4006, 270, 49724, 698, 28] | tms+faults [38094, 2003, 47035, 71495, 72000, 211, 35, 16031, 6006, 4006, 3165, 49725, 5508, 25]",
    "lucas.L0 seq 142170 [43978, 0, 22] 4c32d933ae994411 | sms [132523, 2002, 362713, 11628, 56000, 36, 36, 14256, 6003, 4004, 540, 43906, 864, 22] | tms [132523, 2002, 362713, 11628, 56000, 36, 36, 14256, 6003, 4004, 540, 43906, 864, 22] | tms+faults [124274, 2002, 305829, 56882, 56000, 255, 77, 65871, 6003, 4004, 3825, 43929, 5637, 22]",
    "fma3d.L0 seq 40300 [49975, 0, 25] 08dd949362ee24da | sms [44329, 2003, 114828, 2123, 58000, 0, 0, 0, 6006, 4006, 0, 49900, 75, 25] | tms [25459, 2003, 34408, 6655, 70000, 26, 26, 1765, 6006, 4006, 390, 49900, 718, 32] | tms+faults [30515, 2003, 49729, 29973, 70000, 180, 112, 11488, 6006, 4006, 2700, 49903, 4572, 25]",
    "daxpy seq 3086 [5997, 0, 3] d4528606b74f700c | sms [12108, 2004, 38280, 0, 24000, 0, 0, 0, 6009, 4008, 0, 5988, 9, 3] | tms [10077, 2001, 22027, 208, 6000, 0, 0, 0, 6000, 4002, 0, 5988, 9, 3] | tms+faults [14624, 2001, 32243, 3250, 6000, 171, 170, 6003, 6000, 4002, 2565, 5988, 522, 3]",
    "dot seq 4084 [3998, 0, 2] e220a8397b1dcdaf | sms [12103, 2003, 38261, 0, 12000, 0, 0, 0, 6006, 4006, 0, 3992, 6, 2] | tms [12082, 2000, 30189, 181, 4000, 0, 0, 0, 5997, 4000, 0, 3992, 6, 2] | tms+faults [17095, 2000, 44015, 3286, 4000, 173, 164, 6929, 5997, 4000, 2595, 3992, 352, 2]",
    "rec1-reg seq 12077 [3998, 0, 2] 4cc3201efa1ee8fe | sms [20107, 2001, 68252, 104, 4000, 0, 0, 0, 6000, 4002, 0, 3992, 6, 2] | tms [20107, 2001, 68252, 104, 4000, 0, 0, 0, 6000, 4002, 0, 3992, 6, 2] | tms+faults [22351, 2001, 68927, 1850, 4000, 194, 159, 9518, 6000, 4002, 2910, 3992, 394, 2]",
    "rec1-mem seq 6746 [5997, 0, 3] 4cc3201efa1ee8fe | sms [68057, 2001, 5, 54204, 2000, 1999, 1999, 92041, 6000, 4002, 29985, 7990, 4004, 3] | tms [68057, 2001, 5, 54204, 2000, 1999, 1999, 92041, 6000, 4002, 29985, 7990, 4004, 3] | tms+faults [71072, 2001, 5, 54204, 2000, 2200, 1999, 103833, 6000, 4002, 33000, 8191, 4406, 3]",
    "stencil3 seq 4087 [7996, 0, 4] da58abc239c46698 | sms [12118, 2006, 40311, 0, 34000, 0, 0, 0, 6015, 4012, 0, 7984, 12, 4] | tms [10081, 2001, 18046, 312, 6000, 0, 0, 0, 6000, 4002, 0, 7984, 12, 4] | tms+faults [15094, 2001, 29334, 5604, 6000, 196, 196, 6944, 6000, 4002, 2940, 7984, 796, 4]",
    "maybe-alias seq 3195 [3998, 0, 2] 4cc3201efa1ee8fe | sms [28029, 2000, 91753, 339, 2000, 0, 0, 0, 5997, 4000, 0, 3991, 7, 2] | tms [11875, 2000, 15193, 4902, 2000, 86, 86, 3637, 5997, 4000, 1290, 3994, 176, 2] | tms+faults [16646, 2000, 27587, 8952, 2000, 262, 250, 10434, 5997, 4000, 3930, 4003, 519, 2]",
    "lfk1-hydro seq 6086 [7996, 0, 4] 2729e838bc415340 | sms [14205, 2005, 44489, 0, 22000, 0, 0, 0, 6012, 4010, 0, 7984, 12, 4] | tms [18126, 2003, 56323, 181, 14000, 0, 0, 0, 6006, 4006, 0, 7984, 12, 4] | tms+faults [21661, 2003, 63398, 3853, 14000, 204, 168, 9859, 6006, 4006, 3060, 7984, 828, 4]",
    "lfk3-inner seq 4084 [3998, 0, 2] e220a8397b1dcdaf | sms [12103, 2003, 38261, 0, 12000, 0, 0, 0, 6006, 4006, 0, 3992, 6, 2] | tms [12082, 2000, 30189, 181, 4000, 0, 0, 0, 5997, 4000, 0, 3992, 6, 2] | tms+faults [17122, 2000, 43654, 3429, 4000, 189, 175, 7587, 5997, 4000, 2835, 3992, 384, 2]",
    "lfk5-tridiag seq 20078 [7996, 0, 4] b8b0b9ae93974cc3 | sms [68057, 2001, 5, 54204, 2000, 1999, 1999, 92041, 6000, 4002, 29985, 9986, 6006, 4] | tms [68057, 2001, 5, 54204, 2000, 1999, 1999, 92041, 6000, 4002, 29985, 9986, 6006, 4] | tms+faults [70907, 2001, 5, 54204, 2000, 2189, 1999, 103525, 6000, 4002, 32835, 10176, 6576, 4]",
    "lfk7-state seq 20843 [19990, 0, 10] f6d6b42bb16b060c | sms [24290, 2003, 74792, 466, 22000, 0, 0, 0, 6006, 4006, 0, 19960, 30, 10] | tms [14094, 2000, 24, 1752, 2000, 0, 0, 0, 5997, 4000, 0, 19960, 30, 10] | tms+faults [18396, 2000, 10622, 26380, 2000, 163, 146, 6591, 5997, 4000, 2445, 19960, 1660, 10]",
    "lfk11-firstsum seq 4081 [3998, 0, 2] a6f98f6f8859ec40 | sms [12096, 2002, 42234, 0, 10000, 0, 0, 0, 6003, 4004, 0, 3992, 6, 2] | tms [12096, 2002, 42234, 0, 10000, 0, 0, 0, 6003, 4004, 0, 3992, 6, 2] | tms+faults [16865, 2002, 54285, 0, 10000, 182, 173, 7326, 6003, 4004, 2730, 3992, 370, 2]",
    "lfk12-firstdiff seq 3073 [5997, 0, 3] dc43d84e6370ea85 | sms [12096, 2002, 42234, 0, 12000, 0, 0, 0, 6003, 4004, 0, 5988, 9, 3] | tms [10069, 2001, 29983, 104, 6000, 0, 0, 0, 6000, 4002, 0, 5988, 9, 3] | tms+faults [14211, 2001, 36465, 1994, 6000, 210, 210, 7112, 6000, 4002, 3150, 5988, 639, 3]",
    "lfk19-linrec seq 16080 [5997, 0, 3] d4528606b74f700c | sms [24110, 2001, 78249, 181, 4000, 0, 0, 0, 6000, 4002, 0, 5988, 9, 3] | tms [24110, 2001, 78249, 181, 4000, 0, 0, 0, 6000, 4002, 0, 5988, 9, 3] | tms+faults [25508, 2001, 76122, 3511, 4000, 185, 119, 10166, 6000, 4002, 2775, 5988, 564, 3]",
    "lfk24-firstmin seq 4080 [1999, 0, 1] e220a8397b1dcdaf | sms [12095, 2002, 42235, 0, 12000, 0, 0, 0, 6003, 4004, 0, 1996, 3, 1] | tms [12091, 2001, 42213, 0, 8000, 0, 0, 0, 6000, 4002, 0, 1996, 3, 1] | tms+faults [16341, 2001, 51207, 0, 8000, 197, 188, 7671, 6000, 4002, 2955, 1996, 200, 1]",
    "injected misspec 3943 jitter 21074",
];

#[test]
fn simulator_outputs_match_the_golden_table() {
    let plan = hot_plan();
    let mut got: Vec<String> = population()
        .iter()
        .map(|ddg| golden_line(ddg, &plan))
        .collect();
    assert_eq!(got.len(), 21, "the doacross-sim population has 21 loops");
    // The injected runs must really squash and really jitter, or the
    // table would not cover those paths.
    let fired = plan.injected();
    for site in [tms_faults::SITE_SIM_MISSPEC, tms_faults::SITE_SIM_JITTER] {
        assert!(
            fired.get(site).copied().unwrap_or(0) > 0,
            "{site} never fired: {fired:?}"
        );
    }
    got.push(format!(
        "injected misspec {} jitter {}",
        fired[tms_faults::SITE_SIM_MISSPEC],
        fired[tms_faults::SITE_SIM_JITTER]
    ));
    if got != GOLDEN {
        eprintln!("simulator outputs now read:");
        for line in &got {
            eprintln!("    \"{line}\",");
        }
        for (i, line) in got.iter().enumerate() {
            assert_eq!(Some(line.as_str()), GOLDEN.get(i).copied(), "loop {i}");
        }
        panic!("golden table has {} lines, got {}", GOLDEN.len(), got.len());
    }
}
