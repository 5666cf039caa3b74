//! Cycle-level speculative-multithreading (SpMT) multicore simulator.
//!
//! Implements the execution model of §3 of *Thread-Sensitive Modulo
//! Scheduling for Multicore Processors* (ICPP 2008): a ring of cores
//! executing the iterations of a modulo-scheduled kernel as speculative
//! threads in round-robin order.
//!
//! * **Synchronised dependences** — inter-thread register values move
//!   through SEND/RECV queues (Voltron queue model, `C_reg_com` = 3
//!   cycles end to end); a RECV on an empty queue stalls the consumer
//!   and the stall cycles are accounted (the paper's Figure 6a metric).
//! * **Speculated dependences** — inter-thread memory dependences are
//!   not synchronised; an MDT-style check flags any load that read a
//!   location an older thread only wrote later, squashing the violating
//!   thread (and the more speculative ones in flight) and re-executing
//!   it after the `C_inv` = 15-cycle invalidation.
//! * **Spawn/commit** — each thread's first action spawns its successor
//!   (`C_spn` = 3); threads commit in order through a double-buffered
//!   speculative write buffer (`C_ci` = 2).
//! * **Memory hierarchy** — per-core L1D and a shared L2 with Table 1
//!   latencies; addresses come from per-instruction synthetic streams
//!   whose cross-iteration aliasing realises the DDG's dependence
//!   probabilities (see [`addr`]).
//!
//! The simulator processes threads in logical order, each as an
//! in-order walk of its kernel rows with cumulative slip — the level of
//! detail at which modulo scheduling determines behaviour. See
//! DESIGN.md for the substitution argument versus the paper's
//! SimpleScalar-based simulator.

pub mod addr;
pub mod cache;
pub mod config;
pub mod engine;
mod hash;
pub mod program;
pub mod seq;
pub mod stats;
pub mod trace;

pub use config::SimConfig;
pub use engine::{simulate_spmt, simulate_spmt_injected, simulate_spmt_traced, SpmtOutcome};
pub use hash::MemoryImage;
pub use seq::{simulate_sequential, SeqOutcome};
pub use stats::SimStats;
pub use trace::{RunTrace, ThreadTrace};
