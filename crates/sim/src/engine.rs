//! The SpMT execution engine.
//!
//! Threads (kernel iterations) are processed in logical order. Each
//! thread walks its kernel rows with mixed semantics:
//!
//! * **local operands** are dataflow — a cache miss delays only the
//!   dependent chain, as the out-of-order core would hide it;
//! * **RECV waits block the thread** — a RECV on an empty queue stalls
//!   the pipe (the Voltron queue model), so every later row of the
//!   thread slips by the wait. This is what turns a large
//!   `sync(x, y)` into true inter-thread serialisation: the stalled
//!   thread's own SENDs issue late, the successor stalls in turn, and
//!   steady-state thread spacing converges to the synchronisation
//!   delay — the paper's Figure 2(c) behaviour.
//!
//! Memory speculation uses real addresses: the [`crate::addr`] streams
//! realise each memory dependence's profiled probability, and a load
//! that executed *before* an older thread's store to the same address
//! is a violation — detected, charged `C_inv`, and replayed exactly as
//! the paper's MDT/invalentation protocol prescribes. Replayed threads
//! have all register values resident (no RECV stalls), matching the
//! cost model's `max(0, C_delay − C_spn)` re-execution gain.

use crate::addr::AddressMap;
use crate::cache::CacheHierarchy;
use crate::config::SimConfig;
use crate::hash::{FastMap, MemoryImage};
use crate::program::ThreadProgram;
use crate::stats::SimStats;
use crate::trace::{RunTrace, ThreadTrace};
use std::collections::VecDeque;
use tms_core::postpass::CommPlan;
use tms_core::schedule::Schedule;
use tms_ddg::{Ddg, InstId};
use tms_faults::FaultPlan;
use tms_trace::Trace;

/// Result of an SpMT simulation.
#[derive(Debug, Clone)]
pub struct SpmtOutcome {
    /// Measured statistics.
    pub stats: SimStats,
    /// Final memory image: address → `(store inst, original iteration)`
    /// of the program-order-last committed store. Compared against the
    /// sequential reference to validate squash/replay bookkeeping.
    pub memory_image: MemoryImage,
    /// Per-thread timeline records (when `SimConfig::collect_trace`).
    pub trace: Option<RunTrace>,
}

/// Per-op and per-access buffers of one thread run, allocated once per
/// simulation and refilled by every [`exec_thread`] call (threads and
/// replays alike).
struct ThreadBufs {
    /// Completion time per op (`None`: the op is outside the iteration
    /// range in this thread).
    completes: Vec<Option<u64>>,
    /// Send time per op (value ready + 1 for the SEND slot).
    sends: Vec<Option<u64>>,
    /// Loads performed: `(addr, issue time)`.
    loads: Vec<(u64, u64)>,
    /// Stores performed: `(addr, write time, inst, orig iter)`.
    stores: Vec<(u64, u64, InstId, u64)>,
}

impl ThreadBufs {
    fn new(n_ops: usize) -> Self {
        ThreadBufs {
            completes: vec![None; n_ops],
            sends: vec![None; n_ops],
            loads: Vec::new(),
            stores: Vec::new(),
        }
    }
}

/// Arrival times of the inter-thread register values bound for one
/// thread, as a flat `(producer op, hop)` table: slot
/// `op * stride + hop`, with `stride` one more than the largest hop
/// count of any SEND or RECV (slot 0 of each op is unused). Two tables,
/// this thread's and the previous one's, are swapped between threads.
struct Arrivals {
    stride: usize,
    at: Vec<Option<u64>>,
}

impl Arrivals {
    fn new(program: &ThreadProgram) -> Self {
        let max_hop = program
            .sends
            .iter()
            .map(|&(_, h)| h)
            .chain(
                program
                    .ops
                    .iter()
                    .flat_map(|op| op.comm_deps.iter().map(|&(_, h)| h)),
            )
            .max()
            .unwrap_or(0);
        let stride = max_hop as usize + 1;
        Arrivals {
            stride,
            at: vec![None; program.ops.len() * stride],
        }
    }

    #[inline]
    fn get(&self, op: usize, hop: u32) -> Option<u64> {
        self.at[op * self.stride + hop as usize]
    }

    #[inline]
    fn set(&mut self, op: usize, hop: u32, t: Option<u64>) {
        self.at[op * self.stride + hop as usize] = t;
    }
}

/// Sentinel of [`LoggedStore::prev`]: no older store to the address.
const NO_STORE: u64 = u64::MAX;

/// One committed store in the [`StoreLog`].
struct LoggedStore {
    addr: u64,
    /// Cycle the store wrote.
    t_w: u64,
    /// Log index of the previous logged store to `addr`, or
    /// [`NO_STORE`].
    prev: u64,
}

/// Committed stores of the threads inside the overlap window, for
/// violation detection.
///
/// Stores are logged in commit order and retire in commit order (whole
/// threads, oldest first), so the log is a FIFO ring. Every store gets a
/// log index (`base` + its ring position); each store links to the
/// previous store to its address, and `newest` maps an address to its
/// newest store, so a lookup walks exactly the logged stores to that
/// address. A link below `base` points at a retired store and ends the
/// walk.
struct StoreLog {
    stores: VecDeque<LoggedStore>,
    /// Log index of `stores[0]`.
    base: u64,
    newest: FastMap<u64, u64>,
    /// `(thread, stores logged)` per logged thread, oldest first.
    threads: VecDeque<(u64, usize)>,
}

impl StoreLog {
    fn new() -> Self {
        StoreLog {
            stores: VecDeque::new(),
            base: 0,
            newest: FastMap::default(),
            threads: VecDeque::new(),
        }
    }

    /// Latest write time among logged stores to `addr` later than
    /// `t_r`.
    fn latest_write_after(&self, addr: u64, t_r: u64) -> Option<u64> {
        let mut latest = None;
        let mut i = *self.newest.get(&addr)?;
        while i != NO_STORE && i >= self.base {
            let s = &self.stores[(i - self.base) as usize];
            if s.t_w > t_r {
                latest = latest.max(Some(s.t_w));
            }
            i = s.prev;
        }
        latest
    }

    /// Log thread `k`'s committed stores.
    fn push_thread(&mut self, k: u64, stores: &[(u64, u64, InstId, u64)]) {
        for &(addr, t_w, _, _) in stores {
            let i = self.base + self.stores.len() as u64;
            let prev = self.newest.insert(addr, i).unwrap_or(NO_STORE);
            self.stores.push_back(LoggedStore { addr, t_w, prev });
        }
        self.threads.push_back((k, stores.len()));
    }

    /// Retire every thread at least `keep_window` older than `k`.
    fn prune(&mut self, k: u64, keep_window: u64, tracer: &Trace) {
        while let Some(&(old_k, n)) = self.threads.front() {
            if k - old_k < keep_window {
                break;
            }
            self.threads.pop_front();
            tracer.count("sim.prune.popped", 1);
            for _ in 0..n {
                let s = self.stores.pop_front().expect("thread's stores are logged");
                if self.newest.get(&s.addr) == Some(&self.base) {
                    self.newest.remove(&s.addr);
                }
                self.base += 1;
            }
        }
    }
}

/// Result of executing one thread once; its per-op and per-access
/// outputs are left in the [`ThreadBufs`].
struct ThreadRun {
    /// End of the thread (max completion, or start when empty).
    end: u64,
    /// RECV stall cycles.
    sync_stall: u64,
    /// Intra-thread operand stall cycles.
    local_stall: u64,
    /// Dynamic SEND/RECV pairs attributed to this thread.
    pairs: u64,
}

/// Simulate `schedule` on the SpMT system described by `config`.
pub fn simulate_spmt(ddg: &Ddg, schedule: &Schedule, config: &SimConfig) -> SpmtOutcome {
    simulate_spmt_traced(ddg, schedule, config, &Trace::disabled())
}

/// [`simulate_spmt`] with instrumentation.
///
/// The run itself is byte-identical whether `trace` is enabled or not —
/// the trace only *observes*. It records:
///
/// * **exact cycle attribution**: per committed thread the commit-chain
///   advance `commit_end − prev_commit_end` is partitioned into
///   `sim.cycles.commit` (`C_ci` + write-buffer overflow),
///   `sim.cycles.exec` (execution exposed beyond the previous commit)
///   and `sim.cycles.wait` (exposed idle lead-in: spawn serialisation
///   and restart floors). The three counters sum to
///   [`SimStats::total_cycles`] by construction — no unattributed
///   cycles;
/// * **store-log pruning work**: `sim.prune.popped` (entries retired —
///   at most one per committed thread now that the log is a ring) and
///   the `sim.prune.log_len` histogram, whose max is bounded by the
///   overlap window `keep_window`;
/// * **virtual-time thread events** (category `sim.vthread`, one track
///   per core, cycle timestamps) when [`SimConfig::collect_trace`] is
///   set, mirroring the [`RunTrace`] records on a Perfetto-loadable
///   timeline;
/// * **virtual-time counter tracks** (category `sim.vcounter`, `"ph":"C"`,
///   also [`SimConfig::collect_trace`]-gated): `sim.prune.log_len`
///   sampled at every commit, and a `core{n}.busy` square wave per
///   core, so Perfetto plots resource pressure over the cycle axis.
pub fn simulate_spmt_traced(
    ddg: &Ddg,
    schedule: &Schedule,
    config: &SimConfig,
    tracer: &Trace,
) -> SpmtOutcome {
    simulate_spmt_injected(ddg, schedule, config, tracer, &FaultPlan::disabled())
}

/// [`simulate_spmt_traced`] under a deterministic fault plan.
///
/// Two injection sites, both pure functions of `(seed, loop, thread)`
/// so the run is reproducible at any sweep worker count:
///
/// * **forced misspeculation** (`sim.misspec`): a thread that found no
///   genuine violation is squashed anyway, charged `C_inv`, its L1
///   flushed, and replayed through the *real* rollback path. The site
///   is latched fire-once per `(loop, thread)`, so the replay converges
///   exactly like a genuine violation and the memory image still equals
///   the sequential reference — misspeculation perturbs timing, never
///   results. Requires [`SimConfig::detect_violations`] (the squash
///   machinery it exercises).
/// * **stall jitter** (`sim.stall_jitter`): selected threads see every
///   inter-thread register value arrive a few cycles late, modelling
///   ring-queue contention. Pure delay — RECV stalls may grow, commits
///   never reorder.
///
/// With a disabled plan this is byte-identical to
/// [`simulate_spmt_traced`].
pub fn simulate_spmt_injected(
    ddg: &Ddg,
    schedule: &Schedule,
    config: &SimConfig,
    tracer: &Trace,
    faults: &FaultPlan,
) -> SpmtOutcome {
    let plan = CommPlan::build(ddg, schedule);
    let program = ThreadProgram::lower(ddg, schedule, &plan);
    let addr_map = AddressMap::new(ddg, config.seed);
    let mut caches = CacheHierarchy::new(config.arch.cache, config.arch.ncore);
    let costs = config.arch.costs;
    let ncore = config.arch.ncore as usize;

    let mut stats = SimStats::default();
    let mut memory_image = MemoryImage::default();
    let mut trace = config.collect_trace.then(RunTrace::default);
    let total_threads = if config.n_iter == 0 {
        0
    } else {
        program.total_threads(config.n_iter)
    };

    let mut core_free = vec![0u64; ncore];
    let mut prev_start = 0u64;
    let mut prev_commit_end = 0u64;
    let mut restart_floor = 0u64;
    let c_reg_com = costs.c_reg_com as u64;
    let mut bufs = ThreadBufs::new(program.ops.len());
    let mut prev_sends: Vec<Option<u64>> = vec![None; program.ops.len()];
    let mut arrivals = Arrivals::new(&program);
    let mut prev_arrivals = Arrivals::new(&program);
    // Store log for violation detection, pruned to the window in which
    // overlap is possible.
    let mut store_log = StoreLog::new();
    let keep_window = (ncore as u64 + program.stages as u64 + 4).max(8);

    for k in 0..total_threads {
        let core = (k % ncore as u64) as usize;
        let natural_start = if k == 0 {
            0
        } else {
            stats.spawn_cycles += costs.c_spn as u64;
            prev_start + costs.c_spn as u64
        };
        let mut start = natural_start.max(core_free[core]);
        if start < restart_floor {
            // This thread was in flight when an older thread rolled
            // back: it is squashed and restarts after the invalidation.
            stats.cascade_squashes += 1;
            stats.squashed_cycles += restart_floor - start;
            start = restart_floor;
        }
        prev_start = start;

        // Arrival times of inter-thread register values for thread k.
        // Every slot a SEND can fill is rewritten, so nothing of the
        // table's previous use survives.
        let mut any_arrival = false;
        for &(op, hops) in &program.sends {
            let t = prev_sends[op].map(|t| t + c_reg_com);
            any_arrival |= t.is_some();
            arrivals.set(op, 1, t);
            for h in 2..=hops {
                // Relay copy in the previous thread re-sends.
                let t = prev_arrivals.get(op, h - 1).map(|t| t + 1 + c_reg_com);
                any_arrival |= t.is_some();
                arrivals.set(op, h, t);
            }
        }
        if faults.is_enabled() && any_arrival {
            // Injected ring-queue contention: every value bound for this
            // thread is uniformly late. Applied to the arrival table (not
            // per-op) so relays downstream see the same times the clean
            // run recorded.
            let extra = faults.stall_jitter(ddg.name(), k);
            if extra > 0 {
                for t in arrivals.at.iter_mut().flatten() {
                    *t += extra;
                }
            }
        }

        // Execute; replay on violation (bounded, converges because the
        // replay starts after every offending store).
        let mut run_start = start;
        let mut values_resident = false;
        let mut squashes_this_thread = 0u32;
        let run = loop {
            let run = exec_thread(
                ddg,
                &program,
                &addr_map,
                &mut caches,
                config,
                core,
                k,
                run_start,
                &arrivals,
                values_resident,
                &mut bufs,
            );
            if !config.detect_violations {
                break run;
            }
            // A load that issued before an older thread's store to the
            // same address read stale data.
            let mut detect: Option<u64> = None;
            for &(a, t_r) in &bufs.loads {
                detect = detect.max(store_log.latest_write_after(a, t_r));
            }
            if detect.is_none() && faults.forced_misspec(ddg.name(), k) {
                // Injected misspeculation burst: squash a clean thread
                // through the genuine rollback path. The offending
                // "store" is pinned at the run's start, so the replay
                // begins at `run_start + C_inv` — the fire-once latch
                // guarantees the replayed run passes.
                detect = Some(run_start);
            }
            match detect {
                None => break run,
                Some(t_w) => {
                    stats.misspeculations += 1;
                    squashes_this_thread += 1;
                    stats.squashed_cycles += run.end.saturating_sub(run_start);
                    stats.invalidation_cycles += costs.c_inv as u64;
                    caches.flush_l1(core);
                    run_start = t_w.max(run_start) + costs.c_inv as u64;
                    restart_floor = restart_floor.max(run_start);
                    // Replayed threads have their register inputs
                    // already satisfied (§4.2's re-execution gain).
                    values_resident = true;
                }
            }
        };

        // Commit in order. Double buffering hides the drain for up to
        // `spec_write_buffer_entries` speculative stores; a thread that
        // overflows the buffer serialises one extra cycle per excess
        // store into its commit.
        let overflow =
            (bufs.stores.len() as u64).saturating_sub(config.arch.spec_write_buffer_entries as u64);
        let commit_end = run.end.max(prev_commit_end) + costs.c_ci as u64 + overflow;
        stats.commit_cycles += costs.c_ci as u64 + overflow;
        stats.committed_threads += 1;
        if tracer.is_enabled() {
            // Exact attribution of the commit-chain advance: the delta
            // past the previous commit is commit cost plus whatever ran
            // or idled *exposed* (not hidden under the older thread).
            let commit_cost = costs.c_ci as u64 + overflow;
            let exposed = run.end.saturating_sub(prev_commit_end);
            let exec_exposed = run.end.saturating_sub(run_start.max(prev_commit_end));
            tracer.count("sim.cycles.commit", commit_cost);
            tracer.count("sim.cycles.exec", exec_exposed);
            tracer.count("sim.cycles.wait", exposed - exec_exposed);
            tracer.count("sim.threads.committed", 1);
        }
        stats.sync_stall_cycles += run.sync_stall;
        stats.local_stall_cycles += run.local_stall;
        stats.send_recv_pairs += run.pairs;
        prev_commit_end = commit_end;
        // Double buffering: the core frees as soon as the thread ends;
        // the 2-cycle commit drains concurrently.
        core_free[core] = run.end;

        // Record committed stores.
        for &(a, _, inst, iter) in &bufs.stores {
            // Program-order-last writer wins: (iter, inst id).
            let last = memory_image.entry(a).or_insert((inst, iter));
            if (last.1, last.0) < (iter, inst) {
                *last = (inst, iter);
            }
        }
        store_log.push_thread(k, &bufs.stores);
        // Prune the store log outside the overlap window.
        store_log.prune(k, keep_window, tracer);
        if tracer.is_enabled() {
            // Bounded-window regression check: after pruning, the log
            // spans at most `keep_window` distinct committed threads.
            tracer.record("sim.prune.log_len", store_log.threads.len() as u64);
        }

        if let Some(tr) = trace.as_mut() {
            tr.threads.push(ThreadTrace {
                thread: k,
                core: core as u32,
                start: run_start,
                end: run.end,
                commit_end,
                sync_stall: run.sync_stall,
                local_stall: run.local_stall,
                squashes: squashes_this_thread,
            });
            // Mirror the record onto the virtual-time timeline (cycle
            // timestamps, one track per core) so a single loop's thread
            // schedule can be inspected in Perfetto. Only when the
            // caller asked for per-thread records: a whole sweep would
            // otherwise overlay thousands of loops at cycle 0.
            tracer.event_at(
                "sim.vthread",
                || format!("t{k}"),
                core as u64,
                run_start,
                run.end.saturating_sub(run_start).max(1),
                || {
                    vec![
                        ("thread", k.to_string()),
                        ("commit_end", commit_end.to_string()),
                        ("sync_stall", run.sync_stall.to_string()),
                        ("squashes", squashes_this_thread.to_string()),
                    ]
                },
            );
            // Counter tracks over the same cycle axis: store-log
            // length sampled at every commit (pressure on the
            // violation-detection window), and a per-core occupancy
            // square wave (1 while a thread runs on the core). Tied
            // samples keep commit order under the stable render sort,
            // so a back-to-back handoff renders off-then-on.
            tracer.counter_sample(
                "sim.vcounter",
                || "sim.prune.log_len".to_string(),
                0,
                commit_end,
                store_log.threads.len() as u64,
            );
            tracer.counter_sample(
                "sim.vcounter",
                || format!("core{core}.busy"),
                core as u64,
                run_start,
                1,
            );
            tracer.counter_sample(
                "sim.vcounter",
                || format!("core{core}.busy"),
                core as u64,
                run.end.max(run_start + 1),
                0,
            );
        }

        std::mem::swap(&mut prev_sends, &mut bufs.sends);
        std::mem::swap(&mut prev_arrivals, &mut arrivals);
        stats.total_cycles = commit_end;
    }

    stats.l1_hits = caches.counts[0];
    stats.l2_hits = caches.counts[1];
    stats.mem_accesses = caches.counts[2];
    SpmtOutcome {
        stats,
        memory_image,
        trace,
    }
}

/// Execute one thread from `start`, returning its timeline; its
/// completions, sends, loads and stores are left in `bufs`.
#[allow(clippy::too_many_arguments)]
fn exec_thread(
    ddg: &Ddg,
    program: &ThreadProgram,
    addr_map: &AddressMap,
    caches: &mut CacheHierarchy,
    config: &SimConfig,
    core: usize,
    k: u64,
    start: u64,
    arrivals: &Arrivals,
    values_resident: bool,
    bufs: &mut ThreadBufs,
) -> ThreadRun {
    let ThreadBufs {
        completes,
        sends,
        loads,
        stores,
    } = bufs;
    completes.fill(None);
    sends.fill(None);
    loads.clear();
    stores.clear();
    let mut sync_stall = 0u64;
    let mut local_stall = 0u64;
    let mut end = start;
    // Cumulative slip from blocking RECVs: every row after a stalled
    // RECV is pushed back by the wait.
    let mut slip = 0u64;

    for (i, op) in program.ops.iter().enumerate() {
        let Some(iter) = program.orig_iter(i, k, config.n_iter) else {
            continue;
        };
        let sched_t = start + op.row as u64 + slip;
        let mut ready_local = sched_t;
        for &d in &op.local_deps {
            if let Some(t) = completes[d] {
                ready_local = ready_local.max(t);
            }
        }
        let mut ready_comm = 0u64;
        if !values_resident {
            for &(p, h) in &op.comm_deps {
                if k >= h as u64 {
                    if let Some(t) = arrivals.get(p, h) {
                        ready_comm = ready_comm.max(t);
                    }
                }
            }
        }
        let issue = ready_local.max(ready_comm);
        if ready_comm > sched_t {
            // The RECV blocked the pipe: the whole remainder of the
            // thread slips by the queue wait.
            sync_stall += ready_comm - sched_t;
            slip += ready_comm - sched_t;
        }
        if ready_local > sched_t.max(ready_comm) {
            local_stall += ready_local - sched_t.max(ready_comm);
        }

        let mut lat = op.latency as u64;
        if op.op.is_memory() {
            let a = addr_map.addr(ddg, op.inst, iter);
            if op.op.is_load() {
                if config.model_caches {
                    let (l, _) = caches.access(core, a);
                    lat = l as u64;
                }
                loads.push((a, issue));
            } else {
                if config.model_caches {
                    let _ = caches.access(core, a);
                }
                // Stores complete into the speculative write buffer.
                lat = 1;
                stores.push((a, issue + 1, op.inst, iter));
            }
        }
        let done = issue + lat;
        completes[i] = Some(done);
        end = end.max(done);
    }

    let mut pairs = 0u64;
    // SEND queue backpressure: each inter-core queue holds
    // `comm_queue_entries` values and the receiver drains it at ring
    // rate, so overflow only costs the *producing* thread: one cycle
    // per excess send lingers at its end (the core cannot retire the
    // blocked SENDs). Arrival times are unaffected — the values were
    // computed; they just occupy the producer longer.
    let n_sends = program
        .sends
        .iter()
        .filter(|&&(op, _)| completes[op].is_some())
        .count() as u64;
    let backpressure = n_sends.saturating_sub(config.arch.comm_queue_entries as u64);
    for &(op, hops) in &program.sends {
        if let Some(c) = completes[op] {
            sends[op] = Some(c + 1);
            pairs += hops as u64;
        }
    }
    end += backpressure;

    ThreadRun {
        end,
        sync_stall,
        local_stall,
        pairs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tms_core::schedule::Schedule;
    use tms_ddg::{DdgBuilder, OpClass};

    fn cfg(n_iter: u64, ncore: u32) -> SimConfig {
        let mut c = SimConfig::with_ncore(n_iter, ncore);
        c.model_caches = false;
        c
    }

    /// Independent iterations: ld -> fadd -> st in a single stage
    /// (II = 8 holds the whole chain) — a pure DOALL kernel with no
    /// inter-thread dependences at all.
    fn doall() -> (Ddg, Schedule) {
        let mut b = DdgBuilder::new("doall");
        let l = b.inst("ld", OpClass::Load);
        let f = b.inst("f", OpClass::FpAdd);
        let s = b.inst("st", OpClass::Store);
        b.reg_flow(l, f, 0);
        b.reg_flow(f, s, 0);
        let g = b.build().unwrap();
        let sch = Schedule::from_times(&g, 8, vec![0, 3, 5]);
        (g, sch)
    }

    #[test]
    fn commits_every_thread() {
        let (g, sch) = doall();
        let out = simulate_spmt(&g, &sch, &cfg(50, 4));
        // 50 iterations, single stage => 50 threads.
        assert_eq!(out.stats.committed_threads, 50);
        assert!(out.stats.total_cycles > 0);
        assert_eq!(out.stats.misspeculations, 0);
        assert_eq!(out.stats.sync_stall_cycles, 0);
    }

    #[test]
    fn zero_iterations_is_empty_run() {
        let (g, sch) = doall();
        let out = simulate_spmt(&g, &sch, &cfg(0, 4));
        assert_eq!(out.stats.committed_threads, 0);
        assert_eq!(out.stats.total_cycles, 0);
        assert!(out.memory_image.is_empty());
    }

    #[test]
    fn memory_image_records_last_writer() {
        let (g, sch) = doall();
        let out = simulate_spmt(&g, &sch, &cfg(10, 4));
        // The store writes its private stream: 10 distinct addresses.
        assert_eq!(out.memory_image.len(), 10);
        for &(inst, _) in out.memory_image.values() {
            assert_eq!(inst, InstId(2));
        }
    }

    #[test]
    fn more_cores_run_faster() {
        let (g, sch) = doall();
        let t1 = simulate_spmt(&g, &sch, &cfg(200, 1)).stats.total_cycles;
        let t4 = simulate_spmt(&g, &sch, &cfg(200, 4)).stats.total_cycles;
        assert!(
            t4 < t1,
            "4 cores ({t4}) should beat 1 core ({t1}) on a DOALL loop"
        );
    }

    #[test]
    fn sync_dependence_stalls_show_up() {
        // Producer at the END of the kernel feeding the next thread's
        // first row — the paper's SMS pathology. Long sync per thread.
        let mut b = DdgBuilder::new("sync");
        let cons = b.inst("cons", OpClass::IntAlu);
        let mid = b.inst_lat("mid", OpClass::FpAdd, 6);
        let prod = b.inst("prod", OpClass::IntAlu);
        b.reg_flow(cons, mid, 0);
        b.reg_flow(mid, prod, 0);
        b.reg_flow(prod, cons, 1);
        let g = b.build().unwrap();
        let sch = Schedule::from_times(&g, 8, vec![0, 1, 7]);
        let out = simulate_spmt(&g, &sch, &cfg(40, 4));
        assert!(out.stats.sync_stall_cycles > 0, "must stall at RECVs");
        assert!(out.stats.send_recv_pairs >= 39, "one pair per boundary");
    }

    #[test]
    fn violation_squashes_and_replays() {
        // A certain (p=1) memory dependence left speculated: consumer
        // loads the producer's previous-iteration store. Schedule both
        // at the same row so overlapping threads race.
        let mut b = DdgBuilder::new("viol");
        let st = b.inst("st", OpClass::Store);
        let ld = b.inst("ld", OpClass::Load);
        b.mem_flow(st, ld, 1, 1.0);
        let g = b.build().unwrap();
        // ld at row 0, st at row 7: thread k+1's load issues well
        // before thread k's store completes.
        let sch = Schedule::from_times(&g, 8, vec![7, 0]);
        let out = simulate_spmt(&g, &sch, &cfg(40, 4));
        assert!(out.stats.misspeculations > 0, "races must be detected");
        assert!(out.stats.invalidation_cycles >= 15 * out.stats.misspeculations);
        // All threads still commit.
        assert_eq!(out.stats.committed_threads, 40);
    }

    #[test]
    fn no_violation_when_detection_disabled() {
        let mut b = DdgBuilder::new("viol");
        let st = b.inst("st", OpClass::Store);
        let ld = b.inst("ld", OpClass::Load);
        b.mem_flow(st, ld, 1, 1.0);
        let g = b.build().unwrap();
        let sch = Schedule::from_times(&g, 8, vec![7, 0]);
        let mut c = cfg(40, 4);
        c.detect_violations = false;
        let out = simulate_spmt(&g, &sch, &c);
        assert_eq!(out.stats.misspeculations, 0);
    }

    #[test]
    fn low_probability_dependence_rarely_misspeculates() {
        let mut b = DdgBuilder::new("lowp");
        let st = b.inst("st", OpClass::Store);
        let ld = b.inst("ld", OpClass::Load);
        b.mem_flow(st, ld, 1, 0.01);
        let g = b.build().unwrap();
        let sch = Schedule::from_times(&g, 8, vec![7, 0]);
        let out = simulate_spmt(&g, &sch, &cfg(1000, 4));
        let freq = out.stats.misspec_frequency();
        assert!(freq < 0.05, "freq {freq} should be ~1%");
        assert!(out.stats.misspeculations > 0, "but not zero over 1000");
    }

    #[test]
    fn deterministic_given_seed() {
        let (g, sch) = doall();
        let a = simulate_spmt(&g, &sch, &cfg(100, 4));
        let b = simulate_spmt(&g, &sch, &cfg(100, 4));
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn trace_collection_records_every_thread() {
        let (g, sch) = doall();
        let mut c = cfg(20, 4);
        c.collect_trace = true;
        let out = simulate_spmt(&g, &sch, &c);
        let tr = out.trace.expect("trace requested");
        assert_eq!(tr.threads.len() as u64, out.stats.committed_threads);
        // Threads start in order, run on round-robin cores, and the
        // per-thread stall totals add up to the run's.
        for (i, t) in tr.threads.iter().enumerate() {
            assert_eq!(t.thread, i as u64);
            assert_eq!(t.core, (i % 4) as u32);
            assert!(t.end >= t.start);
            assert!(t.commit_end >= t.end);
        }
        let sync: u64 = tr.threads.iter().map(|t| t.sync_stall).sum();
        assert_eq!(sync, out.stats.sync_stall_cycles);
        assert!(!tr.timeline(60).is_empty());
        // Off by default.
        let out = simulate_spmt(&g, &sch, &cfg(20, 4));
        assert!(out.trace.is_none());
    }

    #[test]
    fn cycle_attribution_reconciles_and_prune_is_bounded() {
        // Run a violating kernel (squashes + restart floors stress the
        // wait attribution) under an enabled tracer.
        let mut b = DdgBuilder::new("viol");
        let st = b.inst("st", OpClass::Store);
        let ld = b.inst("ld", OpClass::Load);
        b.mem_flow(st, ld, 1, 1.0);
        let g = b.build().unwrap();
        let sch = Schedule::from_times(&g, 8, vec![7, 0]);
        let tracer = Trace::enabled();
        let out = simulate_spmt_traced(&g, &sch, &cfg(200, 4), &tracer);
        let attributed = tracer.counter("sim.cycles.commit")
            + tracer.counter("sim.cycles.exec")
            + tracer.counter("sim.cycles.wait");
        assert_eq!(
            attributed, out.stats.total_cycles,
            "attribution must have no unaccounted cycles"
        );
        assert_eq!(
            tracer.counter("sim.threads.committed"),
            out.stats.committed_threads
        );
        // Store-log pruning: O(1) per committed thread, window-bounded.
        // Mirrors the engine's formula: one stage (times 0 and 7 both
        // fit under II = 8) on 4 cores.
        let (ncore, stages) = (4u64, 1u64);
        let keep_window = (ncore + stages + 4).max(8);
        let len = tracer.value_stats("sim.prune.log_len").unwrap();
        assert!(len.max <= keep_window, "log len {} > window", len.max);
        assert!(tracer.counter("sim.prune.popped") <= out.stats.committed_threads);

        // The tracer only observes: stats are identical untraced.
        let untraced = simulate_spmt(&g, &sch, &cfg(200, 4));
        assert_eq!(untraced.stats, out.stats);
    }

    #[test]
    fn write_buffer_overflow_slows_commit() {
        // 70 independent stores per iteration vs a 64-entry buffer:
        // each thread's commit pays the 6-store overflow.
        let mut b = DdgBuilder::new("stores");
        for i in 0..70 {
            b.inst(format!("st{i}"), OpClass::Store);
        }
        let g = b.build().unwrap();
        let times: Vec<i64> = (0..70).map(|i| i / 2).collect();
        let sch = Schedule::from_times(&g, 35, times);
        let mut small = cfg(30, 4);
        small.arch.spec_write_buffer_entries = 64;
        let mut big = cfg(30, 4);
        big.arch.spec_write_buffer_entries = 1024;
        let t_small = simulate_spmt(&g, &sch, &small).stats;
        let t_big = simulate_spmt(&g, &sch, &big).stats;
        assert_eq!(t_small.commit_cycles, t_big.commit_cycles + 6 * 30);
    }

    #[test]
    fn queue_backpressure_delays_sends() {
        // One producer chain with many distinct carried values: shrink
        // the queue to force backpressure and the run must slow.
        let mut b = DdgBuilder::new("queues");
        let mut prods = Vec::new();
        for i in 0..20 {
            let p = b.inst(format!("p{i}"), OpClass::IntAlu);
            let c = b.inst(format!("c{i}"), OpClass::IntAlu);
            b.reg_flow(p, c, 1);
            prods.push(p);
        }
        let g = b.build().unwrap();
        let times: Vec<i64> = (0..40).map(|i| i / 4).collect();
        let sch = Schedule::from_times(&g, 10, times);
        let mut wide = cfg(60, 4);
        wide.arch.comm_queue_entries = 64;
        let mut narrow = cfg(60, 4);
        narrow.arch.comm_queue_entries = 4;
        let t_wide = simulate_spmt(&g, &sch, &wide).stats.total_cycles;
        let t_narrow = simulate_spmt(&g, &sch, &narrow).stats.total_cycles;
        assert!(
            t_narrow > t_wide,
            "narrow queues ({t_narrow}) must cost more than wide ({t_wide})"
        );
    }

    #[test]
    fn disabled_fault_plan_is_byte_identical() {
        let (g, sch) = doall();
        let clean = simulate_spmt(&g, &sch, &cfg(100, 4));
        let injected = simulate_spmt_injected(
            &g,
            &sch,
            &cfg(100, 4),
            &Trace::disabled(),
            &tms_faults::FaultPlan::disabled(),
        );
        assert_eq!(clean.stats, injected.stats);
        assert_eq!(clean.memory_image, injected.memory_image);
    }

    #[test]
    fn forced_misspec_perturbs_timing_but_not_results() {
        let (g, sch) = doall();
        let clean = simulate_spmt(&g, &sch, &cfg(100, 4));
        assert_eq!(clean.stats.misspeculations, 0);

        let rates = tms_faults::FaultRates {
            misspec_per_1024: 512, // roughly half the threads
            jitter_per_1024: 0,
            ..tms_faults::FaultRates::default()
        };
        let plan = tms_faults::FaultPlan::with_rates(7, rates);
        let out = simulate_spmt_injected(&g, &sch, &cfg(100, 4), &Trace::disabled(), &plan);

        assert!(out.stats.misspeculations > 0, "injection must fire");
        assert_eq!(
            out.stats.misspeculations,
            *plan
                .injected()
                .get(tms_faults::SITE_SIM_MISSPEC)
                .expect("site recorded"),
            "every injected squash is accounted"
        );
        // The rollback path is the real one: every thread still
        // commits, C_inv is charged, and the memory image is untouched.
        assert_eq!(out.stats.committed_threads, 100);
        assert!(out.stats.invalidation_cycles >= 15 * out.stats.misspeculations);
        assert_eq!(out.memory_image, clean.memory_image);
        assert!(out.stats.total_cycles > clean.stats.total_cycles);

        // Deterministic: a fresh plan with the same seed reproduces it.
        let plan2 = tms_faults::FaultPlan::with_rates(7, rates);
        let again = simulate_spmt_injected(&g, &sch, &cfg(100, 4), &Trace::disabled(), &plan2);
        assert_eq!(again.stats, out.stats);
    }

    #[test]
    fn stall_jitter_only_delays() {
        // A kernel with real inter-thread communication so arrivals
        // exist to be jittered.
        let mut b = DdgBuilder::new("sync");
        let cons = b.inst("cons", OpClass::IntAlu);
        let prod = b.inst("prod", OpClass::IntAlu);
        b.reg_flow(cons, prod, 0);
        b.reg_flow(prod, cons, 1);
        let g = b.build().unwrap();
        let sch = Schedule::from_times(&g, 4, vec![0, 2]);
        let clean = simulate_spmt(&g, &sch, &cfg(80, 4));

        let rates = tms_faults::FaultRates {
            misspec_per_1024: 0,
            jitter_per_1024: 1024, // every thread
            jitter_max_cycles: 9,
            ..tms_faults::FaultRates::default()
        };
        let plan = tms_faults::FaultPlan::with_rates(11, rates);
        let out = simulate_spmt_injected(&g, &sch, &cfg(80, 4), &Trace::disabled(), &plan);

        assert_eq!(out.stats.committed_threads, clean.stats.committed_threads);
        assert_eq!(out.stats.misspeculations, 0);
        assert_eq!(out.memory_image, clean.memory_image);
        assert!(
            out.stats.total_cycles >= clean.stats.total_cycles,
            "jitter ({}) can only slow the run ({})",
            out.stats.total_cycles,
            clean.stats.total_cycles
        );
        assert!(out.stats.sync_stall_cycles > clean.stats.sync_stall_cycles);
    }

    #[test]
    fn store_log_matches_a_naive_window() {
        // Threads commit 0..3 stores each over a few hot addresses; the
        // ring's lookups must equal a scan over the same window.
        let mut log = StoreLog::new();
        let mut naive: Vec<(u64, u64, u64)> = Vec::new(); // (thread, addr, t_w)
        let keep_window = 5;
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for k in 0..400u64 {
            for a in 0..6u64 {
                let t_r = next() % 200;
                let want = naive
                    .iter()
                    .filter(|&&(_, na, t_w)| na == a && t_w > t_r)
                    .map(|&(_, _, t_w)| t_w)
                    .max();
                assert_eq!(log.latest_write_after(a, t_r), want, "thread {k} addr {a}");
            }
            let stores: Vec<(u64, u64, InstId, u64)> = (0..next() % 4)
                .map(|_| (next() % 6, next() % 200, InstId(0), k))
                .collect();
            naive.extend(stores.iter().map(|&(a, t_w, _, _)| (k, a, t_w)));
            log.push_thread(k, &stores);
            log.prune(k, keep_window, &Trace::disabled());
            naive.retain(|&(tk, _, _)| k - tk < keep_window);
            assert_eq!(log.stores.len(), naive.len());
            assert!(log.threads.len() as u64 <= keep_window);
        }
        // Only addresses with a logged store keep a map entry.
        assert!(log.newest.len() <= 6);
    }

    #[test]
    fn spawn_serialisation_bounds_throughput() {
        // With a trivial loop, threads can at best start C_spn apart.
        let mut b = DdgBuilder::new("tiny");
        b.inst("x", OpClass::IntAlu);
        let g = b.build().unwrap();
        let sch = Schedule::from_times(&g, 1, vec![0]);
        let out = simulate_spmt(&g, &sch, &cfg(100, 4));
        assert!(
            out.stats.total_cycles >= 99 * 3,
            "spawn chain is the serial bottleneck: {}",
            out.stats.total_cycles
        );
    }
}
