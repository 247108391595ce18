//! # wg-apps — runnable examples and cross-crate integration tests
//!
//! This crate carries no library code of its own; it exists to host
//!
//! * the runnable library example in the repository-level `examples/`
//!   directory, `quickstart` (the paper's artefacts are `wg-bench`'s
//!   `paper` bin), and
//! * the repository-level integration tests in `tests/` that exercise the
//!   whole stack — client, network, server, filesystem and storage — together
//!   (`end_to_end`, `crash_consistency`, `table_shapes`, `protocol_roundtrip`,
//!   `retransmission`, `multi_client`, `sfs_scale`, `io_overlap`,
//!   `zero_copy`, `golden_tables`).
//!
//! See the workspace README for a guided tour.

#![forbid(unsafe_code)]
