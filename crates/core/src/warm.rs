//! Warm-started scheduling attempts: decision-log record and replay.
//!
//! The TMS search dispatches many engine attempts per loop that differ
//! only in the `(C_delay, P_max)` knobs at a fixed II. The engine's
//! control flow at each step is fully determined by (a) window bounds
//! and resource feasibility — functions of the partial schedule alone —
//! and (b) the slot policy's verdicts, which depend on the knobs only
//! through threshold comparisons against knob-independent physical
//! facts: the sync delay of each new inter-iteration register
//! dependence and the accumulated misspeculation product (see
//! [`crate::tms::TmsPolicy`]).
//!
//! An [`AttemptLog`] records, per engine step, those facts ([`Probe`])
//! and the action the engine took ([`StepAction`]). A later attempt at
//! the same II *replays* the log: every prefix step whose probes still
//! yield the same verdicts under the new knobs is applied directly —
//! no window computation, no policy evaluation — and the first
//! diverging step truncates the log, after which the ordinary cold
//! loop resumes from the identical intermediate state and appends
//! fresh steps. Because a validated step is by construction exactly
//! the step the cold engine would have taken, replay is
//! equivalence-preserving: the warm engine produces byte-identical
//! schedules, and byte-identical failures, to the cold one
//! (`tests/bnb_equivalence.rs` pins this over fuzzed populations).
//!
//! # Cross-II carryover
//!
//! Probe facts do **not** transfer across II: sync delays and
//! misspeculation products are functions of rows *modulo II*, so a log
//! recorded at II can never be probe-replayed at II+1. What does
//! transfer is each step's window derivation, when it was
//! **carried-free** (no loop-carried edge relaxation improved a bound —
//! see `crate::window`'s transfer argument): the recorded `es`/`ls`
//! bounds, the [`crate::window::WindowKind`], and the carried-free
//! property itself are provably what the sweeps would recompute at any
//! larger II against the same placements. Each [`Step`] therefore
//! records its [`WinFacts`]; when the engine receives a log recorded at
//! a *smaller* II it demotes the steps from a replayable script to a
//! passive **guide**: the cold loop runs in full — fits, probes,
//! ejections, actions all recomputed live against the new II — but as
//! long as every executed action equals the guide's recorded action
//! (which inductively pins the placed state to the recorded run's), a
//! guide step whose facts are carried-free substitutes its recorded
//! bounds for the two longest-path sweeps. The first diverging action
//! (or a non-transferable step) drops the guide and the search is
//! simply cold from there, so byte-identity to the cold engine holds by
//! construction. [`AttemptLog::ii`] carries the recording II; logs from
//! a larger II are discarded (bounds transfer upward only).

use crate::window::WindowKind;
use tms_ddg::InstId;

/// The II-transferable derivation facts of one step's scheduling
/// window, recorded alongside the step so a later attempt at a larger
/// II can rebuild the window without the longest-path sweeps (see
/// [`crate::window::window_from_facts`] and the module docs).
///
/// One is stored per [`Step`], so the two optional bounds are kept as
/// plain `i64`s with an `i64::MIN` "unbounded" sentinel (no window
/// bound is ever that far out), which keeps the struct at 24 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WinFacts {
    /// The node the window was computed for.
    pub v: InstId,
    /// How the window was derived (which neighbour sides were placed —
    /// a reachability fact, II-independent given the same placements).
    pub kind: WindowKind,
    /// Neither bound sweep improved a distance through a loop-carried
    /// edge: the bounds transfer verbatim to any larger II. When
    /// `false` the facts are II-bound and a guided replay recomputes
    /// this step's window cold (the guide can still survive on action
    /// match).
    pub carried_free: bool,
    es: i64,
    ls: i64,
}

/// The stored form of an absent window bound.
const UNBOUNDED: i64 = i64::MIN;

impl WinFacts {
    /// Facts for `v`'s window: its derivation kind, the transitive
    /// early and late starts (`None` when nothing upstream /
    /// downstream was placed) and whether they are carried-free.
    pub fn new(
        v: InstId,
        kind: WindowKind,
        es: Option<i64>,
        ls: Option<i64>,
        carried_free: bool,
    ) -> WinFacts {
        debug_assert!(es != Some(UNBOUNDED) && ls != Some(UNBOUNDED));
        WinFacts {
            v,
            kind,
            carried_free,
            es: es.unwrap_or(UNBOUNDED),
            ls: ls.unwrap_or(UNBOUNDED),
        }
    }

    /// Transitive early start (`None` when nothing upstream was
    /// placed).
    #[inline]
    pub fn es(&self) -> Option<i64> {
        (self.es != UNBOUNDED).then_some(self.es)
    }

    /// Transitive late start (`None` when nothing downstream was
    /// placed).
    #[inline]
    pub fn ls(&self) -> Option<i64> {
        (self.ls != UNBOUNDED).then_some(self.ls)
    }
}

/// The knob-independent facts behind one slot-policy verdict.
///
/// Recorded by [`crate::sms::SlotPolicy::accept_probed`]; revalidated
/// under different knobs by [`crate::sms::SlotPolicy::probe_holds`].
/// Every fact is a pure function of the partial-schedule state at the
/// moment of the probe, so two attempts that share a placement prefix
/// share these values exactly.
///
/// Probes are the bulk of a warm-start log, so a probe is 16 bytes:
/// sync delays are stored as `i32` (a sync delay is a row difference
/// plus a latency and a communication cost, far inside `i32`; the
/// constructors saturate, which preserves every comparison against a
/// `C_delay` threshold and maps the "no dependence" sentinel
/// `i64::MIN` to `i32::MIN`), and an acceptance with and without a
/// misspeculation product are separate variants rather than one
/// variant carrying an `Option<f64>`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Probe {
    /// The policy reported no reusable facts (the default for policies
    /// that don't implement probing, e.g. SMS's accept-all). Never
    /// revalidates: replay stops here and the cold loop takes over.
    Opaque,
    /// Condition C1 rejected the slot: a new inter-iteration register
    /// dependence had sync delay `sync`, exceeding the `C_delay`
    /// threshold. Still a rejection under knobs whose threshold the
    /// recorded sync also exceeds.
    C1Reject {
        /// Sync delay of the first violating dependence.
        sync: i32,
    },
    /// C1 passed but condition C2 rejected the slot: the
    /// misspeculation product of non-preserved memory dependences
    /// exceeded `P_max`. Still a rejection if the new threshold pair
    /// rejects either fact.
    C2Reject {
        /// Largest sync delay among the new inter-iteration register
        /// dependences (`i32::MIN` when there were none).
        sync_max: i32,
        /// The misspeculation product that exceeded `P_max`.
        misspec: f64,
    },
    /// The slot was accepted and added no speculated memory dependence,
    /// so C2 was vacuous (a placement fact independent of the knobs).
    /// Still an acceptance if `sync_max` stays within the new
    /// `C_delay`.
    Accept {
        /// Largest sync delay among the new inter-iteration register
        /// dependences (`i32::MIN` when there were none).
        sync_max: i32,
    },
    /// The slot was accepted with condition C2 evaluated. Still an
    /// acceptance if `sync_max` stays within the new `C_delay` and the
    /// misspeculation product within the new `P_max`.
    AcceptSpeculated {
        /// Largest sync delay among the new inter-iteration register
        /// dependences (`i32::MIN` when there were none).
        sync_max: i32,
        /// The misspeculation product C2 evaluated.
        misspec: f64,
    },
}

/// Narrow a sync delay to its stored width, saturating.
#[inline]
fn sync_fact(sync: i64) -> i32 {
    sync.clamp(i32::MIN.into(), i32::MAX.into()) as i32
}

impl Probe {
    /// A C1 rejection at sync delay `sync`.
    #[inline]
    pub fn c1_reject(sync: i64) -> Probe {
        Probe::C1Reject {
            sync: sync_fact(sync),
        }
    }

    /// A C2 rejection.
    #[inline]
    pub fn c2_reject(sync_max: i64, misspec: f64) -> Probe {
        Probe::C2Reject {
            sync_max: sync_fact(sync_max),
            misspec,
        }
    }

    /// An acceptance; `misspec` is `None` when C2 was vacuous.
    #[inline]
    pub fn accept(sync_max: i64, misspec: Option<f64>) -> Probe {
        let sync_max = sync_fact(sync_max);
        match misspec {
            None => Probe::Accept { sync_max },
            Some(misspec) => Probe::AcceptSpeculated { sync_max, misspec },
        }
    }

    /// Whether this probe's verdict was an acceptance. [`Probe::Opaque`]
    /// carries no verdict and counts as not-accepted; only policies
    /// that produce richer variants call this.
    #[inline]
    pub fn accepted(&self) -> bool {
        matches!(self, Probe::Accept { .. } | Probe::AcceptSpeculated { .. })
    }
}

/// Why a recorded attempt failed (the terminal step of an incomplete
/// log). Mirrors the cold engine's three failure exits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailKind {
    /// The ejection budget ran out before the node found a slot.
    EjectBudget,
    /// No cycle in the forced-placement scan was policy-accepted.
    NoForcedSlot,
    /// The forced slot stayed resource-blocked even after evicting the
    /// row's occupants.
    ForcedUnfit,
}

/// A half-open `u32` index range into one of an [`AttemptLog`]'s
/// arenas (its probes or its ejections). Two
/// `u32`s instead of a per-step `Vec` keep a [`Step`] small and its
/// recording allocation-free.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Span {
    /// First index.
    pub start: u32,
    /// One past the last index.
    pub end: u32,
}

impl Span {
    /// The span from `start` to the arena's current length.
    #[inline]
    pub fn to_end<T>(start: usize, arena: &[T]) -> Span {
        Span {
            start: start as u32,
            end: arena.len() as u32,
        }
    }

    /// As a slice-index range.
    #[inline]
    pub fn range(self) -> std::ops::Range<usize> {
        self.start as usize..self.end as usize
    }
}

/// What the engine did at one step, after the step's probes resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepAction {
    /// Ordinary windowed placement of `v` at `cycle`.
    Place {
        /// The node placed.
        v: InstId,
        /// Its issue cycle.
        cycle: i64,
    },
    /// IMS-style forced placement: evict `eject_before` (row/width
    /// conflicts), place `v` at `cycle`, evict `eject_after` (violated
    /// neighbours). Replay must apply the three phases in this order —
    /// the MRT asserts a slot is free before placing into it.
    Force {
        /// The node force-placed.
        v: InstId,
        /// Its issue cycle.
        cycle: i64,
        /// Row occupants evicted to make space (in eviction order), in
        /// the log's ejection arena.
        eject_before: Span,
        /// Neighbours evicted for dependence violations (in order), in
        /// the log's ejection arena; starts where `eject_before` ends.
        eject_after: Span,
    },
    /// The attempt failed here. A validated `Fail` step ends replay
    /// with the identical failure, skipping the whole attempt.
    Fail(FailKind),
}

/// One engine step: the policy verdicts that determined it, then the
/// action taken. The probes cover exactly the `accept` calls the cold
/// engine made this step (resource-infeasible cycles are skipped
/// without consulting the policy, and their feasibility is a function
/// of the partial schedule, which replay reproduces exactly).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Step {
    /// Verdict facts, in evaluation order, in the log's probe arena.
    pub probes: Span,
    /// The action the verdicts led to.
    pub action: StepAction,
    /// Derivation facts of the window this step scanned (every engine
    /// step computes exactly one window, `Fail` exits included). The
    /// cross-II guide consumes these; same-II replay ignores them.
    pub win: WinFacts,
}

/// A recorded attempt at one II, replayable under different
/// `(C_delay, P_max)` knobs at the same II and demotable to a cross-II
/// guide at a larger one. Owned by the TMS search's per-II cache
/// (seeded across II rows from the nearest lower row); the engine both
/// consumes (replays or guides from) and refreshes (re-records) it in
/// [`crate::sms::try_schedule_logged`].
///
/// # Storage layout
///
/// A log is three flat vectors: the [`Step`]s, one arena of every
/// step's [`Probe`]s and one arena of every forced step's ejected
/// nodes. Steps reference their probes and ejections by [`Span`], and
/// the arenas hold exactly the referenced entries, in step order (each
/// step's spans start where the previous step's end). Recording
/// appends to the arenas, so a log grows by amortised vector doubling
/// rather than by a few small allocations per step, and truncating the
/// log at a step ([`AttemptLog::truncate`]) truncates all three
/// vectors.
#[derive(Debug, Clone, Default)]
pub struct AttemptLog {
    /// The recorded steps. Always a faithful prefix of what the cold
    /// engine would do for *some* knob setting at [`AttemptLog::ii`]:
    /// replay truncates at the first diverging step and recording
    /// appends from there.
    pub(crate) steps: Vec<Step>,
    /// Probe arena: every step's verdict facts, in step order.
    pub(crate) probes: Vec<Probe>,
    /// Ejection arena: every forced step's `eject_before` then
    /// `eject_after` nodes, in step order.
    pub(crate) ejects: Vec<InstId>,
    /// Whether the log ends in a completed schedule (every node
    /// placed). A complete, fully-validated log rebuilds the schedule
    /// without a single policy call.
    pub complete: bool,
    /// The II the steps were recorded at; `0` means never recorded
    /// (a legal II is always ≥ 1). The engine replays a log whose II
    /// matches the attempt, guides from one recorded at a smaller II,
    /// and discards one from a larger II.
    pub ii: u32,
    /// Steps applied by replay in the most recent attempt.
    pub replayed: u64,
    /// Steps executed cold (and recorded) in the most recent attempt.
    pub executed: u64,
    /// Steps of the most recent attempt whose window was rebuilt from
    /// cross-II-transferred facts instead of the longest-path sweeps.
    pub cross_replayed: u64,
}

impl AttemptLog {
    /// An empty log (first attempt at an II runs fully cold).
    pub fn new() -> Self {
        Self::default()
    }

    /// A slice of the ejection arena.
    #[inline]
    pub fn ejected(&self, span: Span) -> &[InstId] {
        &self.ejects[span.range()]
    }

    /// Keep the first `len` steps, dropping the rest and the arena
    /// entries they referenced. A truncated log is no longer complete.
    pub fn truncate(&mut self, len: usize) {
        let Some(first) = self.steps.get(len) else {
            return;
        };
        self.probes.truncate(first.probes.start as usize);
        // The arenas hold exactly the referenced entries in step order,
        // so the first dropped forced step marks the ejection cut.
        if let Some(cut) = self.steps[len..].iter().find_map(|s| match s.action {
            StepAction::Force { eject_before, .. } => Some(eject_before.start),
            _ => None,
        }) {
            self.ejects.truncate(cut as usize);
        }
        self.steps.truncate(len);
        self.complete = false;
    }

    /// Shrink any vector whose capacity is more than a sixteenth over
    /// its length (vector doubling leaves up to half of it idle, and a
    /// long failed attempt can grow an arena far past what the log
    /// keeps once a later attempt truncates it). The search calls this
    /// after every attempt, so a row's footprint tracks its record
    /// rather than the longest attempt it ever saw.
    pub fn release_slack(&mut self) {
        fn trim<T>(v: &mut Vec<T>) {
            if v.capacity() > v.len() + v.len() / 16 + 64 {
                v.shrink_to_fit();
            }
        }
        trim(&mut self.steps);
        trim(&mut self.probes);
        trim(&mut self.ejects);
    }

    /// The seed a larger II row starts from: the steps' actions and
    /// window facts (plus the ejections the actions reference) and the
    /// recording II. The engine only ever *guides* from such a log —
    /// probe facts are functions of rows mod II and never transfer — so
    /// the probes are left behind and every step's probe span is empty.
    pub fn cross_ii_seed(&self) -> AttemptLog {
        AttemptLog {
            steps: self
                .steps
                .iter()
                .map(|s| Step {
                    probes: Span::default(),
                    ..*s
                })
                .collect(),
            ejects: self.ejects.clone(),
            ii: self.ii,
            ..AttemptLog::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::order::sms_order;
    use crate::sms::{order_priorities, try_schedule_logged, SchedScratch};
    use crate::tms::{ProbePlan, TmsPolicy};
    use tms_ddg::analysis::TimeFrames;
    use tms_ddg::Ddg;
    use tms_machine::{mii, ArchParams, CostConstants, MachineModel};

    /// One loop prepared for direct engine attempts.
    struct Fixture {
        ddg: Ddg,
        machine: MachineModel,
        costs: CostConstants,
        plan: ProbePlan,
        order: Vec<InstId>,
        pos: Vec<usize>,
        mii: u32,
    }

    impl Fixture {
        fn new(ddg: Ddg) -> Fixture {
            let machine = MachineModel::icpp2008();
            let order = sms_order(&ddg);
            let pos = order_priorities(&order, ddg.num_insts());
            Fixture {
                mii: mii(&ddg, &machine),
                plan: ProbePlan::new(&ddg),
                costs: ArchParams::with_ncore(4).costs,
                machine,
                order,
                pos,
                ddg,
            }
        }

        /// One logged attempt at `ii` under `(c_delay, p_max)`.
        fn attempt(&self, ii: u32, c_delay: u32, p_max: f64, log: &mut AttemptLog) {
            let frames = TimeFrames::compute(&self.ddg, ii).expect("frames at a legal II");
            let policy = TmsPolicy::new(&self.costs, &self.plan, c_delay, p_max);
            try_schedule_logged(
                &self.ddg,
                &self.machine,
                ii,
                &self.order,
                &self.pos,
                &policy,
                &frames,
                &mut SchedScratch::new(),
                log,
            );
        }

        /// A log recorded cold (from empty) at `ii` under the knobs.
        fn cold(&self, ii: u32, c_delay: u32, p_max: f64) -> AttemptLog {
            let mut log = AttemptLog::new();
            self.attempt(ii, c_delay, p_max, &mut log);
            log
        }
    }

    /// specfp loops whose attempts force placements (so their logs
    /// hold ejections) at the knob settings below.
    fn fixtures() -> Vec<Fixture> {
        tms_workloads::specfp_profiles()
            .iter()
            .filter(|p| matches!(p.name, "lucas" | "mgrid"))
            .flat_map(|p| p.generate(0x7315_2008).into_iter().take(3))
            .map(Fixture::new)
            .collect()
    }

    const KNOBS: [(u32, f64); 3] = [(4, 0.01), (12, 0.05), (40, 0.2)];

    /// Whether two logs record the same decisions: steps, probes,
    /// ejections, completeness and II (not the per-attempt tallies).
    fn same_record(a: &AttemptLog, b: &AttemptLog) -> bool {
        a.steps == b.steps
            && a.probes == b.probes
            && a.ejects == b.ejects
            && a.complete == b.complete
            && a.ii == b.ii
    }

    fn assert_consistent(log: &AttemptLog) {
        let mut probe_end = 0;
        let mut eject_end = 0;
        for s in &log.steps {
            assert_eq!(s.probes.start, probe_end, "probe spans are contiguous");
            probe_end = s.probes.end;
            if let StepAction::Force {
                eject_before,
                eject_after,
                ..
            } = s.action
            {
                assert_eq!(eject_before.start, eject_end, "eject spans are contiguous");
                assert_eq!(eject_after.start, eject_before.end);
                eject_end = eject_after.end;
            }
        }
        assert_eq!(
            probe_end as usize,
            log.probes.len(),
            "no unreferenced probes"
        );
        assert_eq!(
            eject_end as usize,
            log.ejects.len(),
            "no unreferenced ejections"
        );
    }

    #[test]
    fn truncated_and_re_recorded_log_equals_the_cold_record() {
        let mut forced = 0;
        for f in fixtures() {
            for ii in [f.mii, f.mii + 1] {
                for (i, &(c_delay, p_max)) in KNOBS.iter().enumerate() {
                    let cold = f.cold(ii, c_delay, p_max);
                    assert_consistent(&cold);
                    forced += cold
                        .steps
                        .iter()
                        .filter(|s| matches!(s.action, StepAction::Force { .. }))
                        .count();
                    // Cut mid-way, then let the engine replay the kept
                    // prefix and record the rest.
                    for cut in [cold.steps.len() / 3, cold.steps.len() / 2] {
                        let mut log = cold.clone();
                        log.truncate(cut);
                        assert_eq!(log.steps.len(), cut);
                        assert_consistent(&log);
                        f.attempt(ii, c_delay, p_max, &mut log);
                        assert_eq!(log.replayed, cut as u64, "{}", f.ddg.name());
                        assert!(same_record(&log, &cold), "{} cut at {cut}", f.ddg.name());
                    }
                    // Replay under other knobs truncates at the first
                    // diverging step and re-records from there.
                    let (c2, p2) = KNOBS[(i + 1) % KNOBS.len()];
                    let mut log = cold.clone();
                    f.attempt(ii, c2, p2, &mut log);
                    assert_consistent(&log);
                    assert!(
                        same_record(&log, &f.cold(ii, c2, p2)),
                        "{} at ii {ii}: diverged replay differs from cold",
                        f.ddg.name()
                    );
                }
            }
        }
        assert!(forced > 0, "no fixture forced a placement");
    }

    #[test]
    fn cross_ii_seed_carries_actions_and_facts_but_no_probes() {
        for f in fixtures() {
            let (c_delay, p_max) = KNOBS[1];
            let log = f.cold(f.mii, c_delay, p_max);
            let seed = log.cross_ii_seed();
            assert!(seed.probes.is_empty());
            assert!(seed.steps.iter().all(|s| s.probes == Span::default()));
            assert_eq!(seed.steps.len(), log.steps.len());
            for (a, b) in seed.steps.iter().zip(&log.steps) {
                assert_eq!((a.action, a.win), (b.action, b.win));
            }
            assert_eq!(seed.ejects, log.ejects);
            assert_eq!(seed.ii, log.ii);
            assert!(!seed.complete);
            // Guided from the seed, the next II records exactly what a
            // cold attempt there records.
            let mut next = seed;
            f.attempt(f.mii + 1, c_delay, p_max, &mut next);
            assert_consistent(&next);
            assert!(same_record(&next, &f.cold(f.mii + 1, c_delay, p_max)));
        }
    }
}
