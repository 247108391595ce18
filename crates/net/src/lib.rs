//! # wg-net — network medium model and the server socket buffer
//!
//! The paper's experiments run over two private networks: 10 Mb/s Ethernet and
//! 100 Mb/s FDDI.  Both are shared media: request datagrams from the client
//! and reply datagrams from the server serialise onto the same segment.  NFS
//! requests are UDP datagrams of up to a little over 8 KB, fragmented into
//! link-layer packets (the "freight train of 8K datagrams fragmented into
//! transport units" of the paper's case study).
//!
//! This crate provides:
//!
//! * [`MediumParams`] — link calibrations ([`MediumParams::ethernet`],
//!   [`MediumParams::fddi`]), including the per-medium procrastination
//!   interval the paper derived empirically (8 ms Ethernet, 5 ms FDDI),
//! * [`Medium`] — the shared half-duplex link model with fragmentation,
//!   serialisation/propagation delay, optional loss injection and per
//!   direction byte accounting,
//! * [`SocketBuffer`] — the bounded server-side incoming request queue that
//!   both drops datagrams when overrun (triggering client retransmission) and
//!   is scanned by the paper's "mbuf hunter" looking for follow-on writes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod medium;
pub mod sockbuf;

pub use medium::{Medium, MediumParams, TransmitOutcome};
pub use sockbuf::SocketBuffer;
