//! Protocol transactions: the message legs a coherence operation generates.

use alphasim_net::MessageClass;
use serde::{Deserialize, Serialize};

/// Payload sizes on the 21364 fabric: short command packets and a 64-byte
/// cache block plus header.
pub mod bytes {
    /// A command packet (Request / Forward / invalidate).
    pub const COMMAND: u64 = 16;
    /// A data-bearing response: 64-byte block + header.
    pub const BLOCK: u64 = 80;
}

/// One protocol message between two CPUs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Leg {
    /// Sending CPU.
    pub from: usize,
    /// Receiving CPU.
    pub to: usize,
    /// Coherence class (determines the virtual channel).
    pub class: MessageClass,
    /// Packet size in bytes.
    pub bytes: u64,
}

impl Leg {
    /// A command-sized leg.
    pub fn command(from: usize, to: usize, class: MessageClass) -> Self {
        Leg {
            from,
            to,
            class,
            bytes: bytes::COMMAND,
        }
    }

    /// A block-carrying leg.
    pub fn block(from: usize, to: usize, class: MessageClass) -> Self {
        Leg {
            from,
            to,
            class,
            bytes: bytes::BLOCK,
        }
    }

    /// Whether the leg actually crosses the fabric.
    pub fn is_remote(&self) -> bool {
        self.from != self.to
    }
}

/// What finally supplied the data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ServedBy {
    /// The home node's memory (a "read-clean" in the paper's Fig. 12).
    Memory,
    /// Another CPU's cache (a "read-dirty": the block was Exclusive
    /// elsewhere and was forwarded).
    OwnerCache,
    /// The requester already had sufficient rights; no transaction needed.
    AlreadyHeld,
}

/// The full message pattern of one coherence operation.
///
/// `critical` legs happen strictly in sequence and determine the load-to-use
/// latency; `side` legs (invalidations, sharing write-backs) consume fabric
/// bandwidth but are off the critical path — the 21364's forwarding protocol
/// responds to the requester without waiting for them.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Transaction {
    /// In-order critical-path legs.
    pub critical: Vec<Leg>,
    /// Concurrent off-critical-path legs.
    pub side: Vec<Leg>,
    /// Data source.
    pub served_by: ServedBy,
}

impl Transaction {
    /// A purely local operation.
    pub fn local(served_by: ServedBy) -> Self {
        Transaction {
            critical: Vec::new(),
            side: Vec::new(),
            served_by,
        }
    }

    /// Total bytes this transaction puts on the fabric (critical + side,
    /// remote legs only).
    pub fn fabric_bytes(&self) -> u64 {
        self.critical
            .iter()
            .chain(&self.side)
            .filter(|l| l.is_remote())
            .map(|l| l.bytes)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leg_constructors() {
        let c = Leg::command(0, 1, MessageClass::Request);
        assert_eq!(c.bytes, 16);
        assert!(c.is_remote());
        let b = Leg::block(2, 2, MessageClass::BlockResponse);
        assert_eq!(b.bytes, 80);
        assert!(!b.is_remote());
    }

    #[test]
    fn fabric_bytes_ignores_local_legs() {
        let t = Transaction {
            critical: vec![
                Leg::command(0, 0, MessageClass::Request), // local, free
                Leg::block(1, 0, MessageClass::BlockResponse),
            ],
            side: vec![Leg::command(1, 2, MessageClass::Forward)],
            served_by: ServedBy::Memory,
        };
        assert_eq!(t.fabric_bytes(), 80 + 16);
    }

    #[test]
    fn local_transaction_is_empty() {
        let t = Transaction::local(ServedBy::AlreadyHeld);
        assert_eq!(t.fabric_bytes(), 0);
        assert!(t.critical.is_empty() && t.side.is_empty());
    }
}
