//! Static verification of the GS1280 reproduction.
//!
//! Three analyses, all wired into CI:
//!
//! * [`mc`] + [`protocol`] — an explicit-state **model checker**: a generic
//!   BFS kernel driven by a transition relation extracted from
//!   `alphasim-coherence` (the real [`Directory`] runs inside every
//!   transition). It exhaustively enumerates the reachable space of
//!   (directory line state × in-flight transactions × timeout/NAK/poison
//!   states), checks safety (exactly one exclusive owner, no stale sharer
//!   survives a write, poison never leaves a pending entry) and progress
//!   (every reachable state has an enabled transition; retry backoff
//!   saturates at its cap), and prints a minimal-length counterexample
//!   trace on violation. CPU-permutation **symmetry reduction** and an
//!   ample-set **partial-order reduction** ([`mc::Reduction`]) shrink the
//!   search enough to exhaust the fault-extended recovery protocol (link
//!   failure/repair racing timeout–NAK–poison–retry) at 6–8 CPUs.
//! * [`cdg`] — the **channel-dependency-graph analyzer**, the one checker
//!   of the escape network: the full CDG over (directed link × dateline VC
//!   × coherence class), including the cross-class edges of
//!   `MessageClass::may_generate`, verified acyclic on the healthy torus
//!   *and* under degraded topologies the fault campaigns produce (single
//!   and double link cuts, routed up*/down*), reporting the offending cycle
//!   otherwise. A streaming builder certifies P×Q tori up
//!   to 32×32; deterministic seeded sampling keeps the degraded sweeps
//!   tractable at scale.
//! * [`lint`] — a **determinism lint** over the workspace sources: flags
//!   reproducibility hazards (hash-ordered containers, wall-clock reads,
//!   ambient RNG, truncating casts in timing arithmetic) outside test code,
//!   with `// lint-allow: <rule>` escape comments for the audited
//!   exceptions; an allow comment whose rule no longer fires anywhere on
//!   its line is itself flagged as stale. `cargo run -p verify --bin lint`
//!   exits non-zero on any unexplained finding. Its shared-mutable-state
//!   rule is the one part of the epoch engine's outbox hand-off the
//!   compiler cannot prove; `compile_fail` doctests in
//!   `alphasim_kernel::shard` prove the rest.
//!
//! The `report` binary regenerates `results/verify.json` (state counts per
//! configuration, CDG sweep summaries, lint totals) deterministically;
//! `--check` asserts the committed artifact is byte-identical.
//!
//! [`Directory`]: alphasim_coherence::Directory

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod cdg;
pub mod lint;
pub mod mc;
pub mod protocol;
pub mod report;

pub use cdg::{Cdg, CdgVerdict, Channel, SweepSummary};
pub use lint::{scan_workspace, Finding};
pub use mc::{check, check_reduced, Counterexample, Exploration, Model, Reduction, Verdict};
pub use protocol::{backoff_saturates, Mutation, ProtocolModel};

use std::path::{Path, PathBuf};

/// The workspace root, resolved from this crate's manifest directory.
///
/// # Panics
///
/// Panics if the crate is somehow not two levels below the workspace root.
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/verify sits two levels below the workspace root")
        .to_path_buf()
}
