//! # wg-disk — disk service-time model and stripe driver
//!
//! The paper's evaluation is dominated by the behaviour of a single RZ26 SCSI
//! disk (and a 3-disk stripe set built from them): a synchronous 8 KB write
//! costs a seek, half a rotation and a short transfer, while a clustered 64 KB
//! write costs almost the same — which is exactly why write gathering plus UFS
//! clustering wins.  This crate models that behaviour:
//!
//! * [`Disk`] — a FIFO, non-preemptive single-spindle RZ26 whose timings are
//!   the [`model`] module's constants; it tracks head position so sequential
//!   transfers avoid seek and rotation costs,
//! * [`StripeSet`] — the simple striping driver from the paper's Results
//!   section (3 × RZ26 in Tables 5 and 6) over [`STRIPE_UNIT`]-sized units,
//! * [`BlockDevice`] — the object-safe interface the filesystem and NVRAM
//!   layers drive, with uniform [`DeviceStats`] (KB/s and transactions/s, the
//!   two disk columns in every table), queued submission
//!   ([`BlockDevice::submit`] enqueues on the owning spindle's FIFO queue) so
//!   pieces of different logical requests interleave per spindle, and a
//!   per-spindle [`SpindleStats`] breakdown for overlap observability.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod device;
pub mod model;
pub mod stripe;

pub use device::{BlockDevice, DeviceStats, DiskRequest, IoKind, SpindleStats};
pub use model::Disk;
pub use stripe::{StripeSet, STRIPE_UNIT};
