//! Property tests for the workload models.

// Test/harness code may unwrap freely; the workspace denies it in libraries.
#![allow(clippy::unwrap_used)]

use alphasim_workloads::spec::{MachinePerf, PhasePattern, SpecProfile, Suite};
use alphasim_workloads::PointerChase;
use proptest::prelude::*;

fn arb_profile() -> impl Strategy<Value = SpecProfile> {
    (
        0.5f64..2.0,                             // base_ipc
        0.0f64..60.0,                            // refs_per_kinst
        (16u64..200_000).prop_map(|k| k * 1024), // working set
        0.0f64..=1.0,                            // overlap
    )
        .prop_map(|(base_ipc, refs, ws, overlap)| SpecProfile {
            name: "synthetic",
            suite: Suite::Fp,
            base_ipc,
            refs_per_kinst: refs,
            working_set: ws,
            overlap,
            phase: PhasePattern::Flat,
        })
}

proptest! {
    /// A bigger cache never lowers modelled IPC (all else equal).
    #[test]
    fn bigger_cache_never_hurts(profile in arb_profile()) {
        let small = MachinePerf::gs1280();
        let mut big = small.clone();
        big.l2_bytes *= 4;
        prop_assert!(profile.ipc(&big) >= profile.ipc(&small) - 1e-12);
    }

    /// Faster memory never lowers modelled IPC.
    #[test]
    fn faster_memory_never_hurts(profile in arb_profile(), speedup in 1.0f64..4.0) {
        let slow = MachinePerf::gs1280();
        let mut fast = slow.clone();
        fast.memory_latency_ns /= speedup;
        prop_assert!(profile.ipc(&fast) >= profile.ipc(&slow) - 1e-12);
    }

    /// Striping (higher effective latency, capped bandwidth) never raises
    /// IPC or rate — Fig. 25 can only show degradations.
    #[test]
    fn striping_never_helps(profile in arb_profile(), n in 1usize..32) {
        let plain = MachinePerf::gs1280();
        let striped = MachinePerf::gs1280_striped();
        prop_assert!(profile.ipc(&striped) <= profile.ipc(&plain) + 1e-12);
        prop_assert!(profile.rate(&striped, n) <= profile.rate(&plain, n) + 1e-9);
    }

    /// IPC is bounded by the core's base IPC and is always positive.
    #[test]
    fn ipc_is_bounded(profile in arb_profile()) {
        for m in [MachinePerf::gs1280(), MachinePerf::es45(), MachinePerf::gs320()] {
            let ipc = profile.ipc(&m);
            prop_assert!(ipc > 0.0);
            prop_assert!(ipc <= profile.base_ipc + 1e-12);
        }
    }

    /// Rate never decreases when copies are added.
    #[test]
    fn rate_is_monotone_in_copies(profile in arb_profile(), n in 1usize..31) {
        let m = MachinePerf::gs320();
        prop_assert!(profile.rate(&m, n + 1) >= profile.rate(&m, n) - 1e-9);
    }

    /// Pointer-chase addresses always stay inside the dataset and visit
    /// every element exactly once per lap.
    #[test]
    fn pointer_chase_covers_dataset(size_k in 1u64..256, stride_pow in 2u32..10) {
        let stride = 1u64 << stride_pow;
        let size = size_k * 1024;
        prop_assume!(size >= stride);
        let pc = PointerChase::new(size, stride);
        let n = pc.elements();
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..n {
            let a = pc.address(i).get();
            prop_assert!(a < size);
            prop_assert_eq!(a % stride, 0);
            seen.insert(a);
        }
        prop_assert_eq!(seen.len() as u64, n);
    }
}
