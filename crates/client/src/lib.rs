//! # wg-client — the NFS client model
//!
//! The paper's case study (§5) and every file-copy table is driven by one
//! workstation-class client writing a large file through the NFS client
//! kernel code: the application process writes into the client's cache, and
//! whenever a full 8 KB block "needs to go to the wire" the request is handed
//! to a `biod` write-behind daemon if one is idle; if all biods are busy the
//! application sends the request itself and *blocks until that particular
//! request is answered*.  `close(2)` blocks until every outstanding write has
//! been answered (sync-on-close).  The number of biods therefore bounds the
//! client's outstanding-request window at `biods + 1`, which is precisely the
//! parameter swept across the columns of Tables 1–6 (0, 3, 7, 11, 15, 19, 23
//! biods).
//!
//! [`FileWriterClient`] reproduces that state machine, including the
//! retransmission timer with exponential backoff that kicks in when the
//! server drops a request (socket-buffer overrun) or a datagram is lost.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod writer;

pub use writer::{
    ClientAction, ClientConfig, ClientInput, ClientStats, FileWriterClient, TimerKind,
};
