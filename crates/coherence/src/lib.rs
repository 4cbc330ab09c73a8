//! The Alpha 21364's directory-based, forwarding cache-coherence protocol
//! (paper §2).
//!
//! Three message types drive the protocol: a requesting processor sends a
//! **Request** to the home directory; if the block is Exclusive elsewhere
//! the directory sends a **Forward** to the owner, who sends the
//! **Response** straight to the requester (and a sharing write-back to the
//! directory); if the block is Shared and the request modifies it,
//! Forward/invalidates go to every sharer while the Response returns
//! immediately.
//!
//! [`Directory`] is the functional state machine; it emits
//! [`Transaction`]s — ordered critical-path [`Leg`]s plus concurrent side
//! legs — which the machine models in `alphasim-system` turn into latency
//! (Figs. 12–14: read-clean vs. the 3-hop read-dirty) and fabric traffic.
//!
//! # Examples
//!
//! ```
//! use alphasim_coherence::{Directory, AccessKind, ServedBy};
//!
//! let mut dir = Directory::new();
//! let t = dir.access(0, 1, 100, AccessKind::Read);
//! assert_eq!(t.served_by, ServedBy::Memory); // read-clean
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

mod directory;
pub mod retry;
mod transaction;

pub use directory::{AccessKind, Directory, DirectoryStats, LineState};
pub use retry::{LivelockReport, PendingSet, PendingTx, RetryPolicy, StuckTx, Watchdog};
pub use transaction::{bytes, Leg, ServedBy, Transaction};
