//! # wg-workload — experiment orchestration and load generation
//!
//! This crate assembles complete client ⇄ network ⇄ server systems out of the
//! component models and runs the experiments of the paper's evaluation.
//! Every system is a client population plugged into one serial event loop
//! (the private `harness` module), which owns the event queue, the LAN
//! fan-in, the [`wg_server::NfsServer`], the fault plan and the scheduler
//! counters:
//!
//! * [`system`] — the single-client 10 MB file-copy system behind Tables 1–6
//!   and Figure 1: one [`wg_client::FileWriterClient`] on one Ethernet or
//!   FDDI segment, the one-client case of the multi-client writer fleet.
//! * [`multi`] — the N-client scale-out system reproducing the paper's
//!   "several clients" remarks: independent salted write streams sharing one
//!   medium (or riding per-client LAN segments) into one server, with
//!   per-client, aggregate and fairness results.
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
pub mod multi;
pub mod results;
pub mod sfs;
pub mod system;

pub use multi::{MultiClientConfig, MultiClientSystem};
pub use results::{FileCopyResult, MultiClientResult, SfsPoint, TableRow};
pub use sfs::{SfsConfig, SfsMix, SfsRunStats, SfsSweep};
pub use system::{ExperimentConfig, FileCopySystem, NetworkKind};
