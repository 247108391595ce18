//! # wg-workload — experiment orchestration and load generation
//!
//! This crate assembles complete client ⇄ network ⇄ server systems out of the
//! component models and runs the experiments of the paper's evaluation.
//! Every system is a client population plugged into one serial event loop
//! (the private `harness` module), which owns the event queue, the LAN
//! fan-in, the [`wg_server::NfsServer`], the fault plan and the scheduler
//! counters:
//!
//! * [`system`] — the file-copy system behind Tables 1–6 and Figure 1 and
//!   the paper's "several clients" remarks: one [`ExperimentConfig`] and one
//!   [`FileCopySystem`] run a writer fleet of N clients, each copying its
//!   own byte budget into a chain of segment files with an independent
//!   salted write stream, over one shared medium or per-client LAN
//!   segments.  The paper's copy is the one-client, one-file case; a fleet
//!   adds per-client, aggregate and fairness results
//!   ([`MultiClientResult`]).
//! * [`sfs`] — a SPEC SFS 1.0 (LADDIS)-like mixed-operation load generator
//!   and the throughput/latency sweep behind Figures 2 and 3, scalable to N
//!   independent generator streams over the same per-client LAN topology
//!   and sweepable in parallel on a thread pool.
//! * [`results`] — the result records the benchmark harness prints, shaped
//!   like the rows of the paper's tables.
//!
//! Everything is deterministic: the same configuration and seed produce the
//! same numbers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod harness;
mod multi;
pub mod results;
pub mod sfs;
pub mod system;

pub use results::{FileCopyResult, MultiClientResult, SfsPoint, TableRow};
pub use sfs::{SfsConfig, SfsMix, SfsSweep};
pub use system::{ExperimentConfig, FileCopySystem, NetworkKind};
