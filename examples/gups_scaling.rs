//! The GUPS experiment (paper §5.3, Figs. 23–24): random table updates
//! stressing inter-processor bandwidth, where the GS1280's torus is over
//! 10x ahead of the GS320's hierarchical switch.
//!
//! ```text
//! cargo run --release --example gups_scaling
//! ```

// Test/harness code may unwrap freely; the workspace denies it in libraries.
#![allow(clippy::unwrap_used)]

use alphasim::experiments::apps;

fn main() {
    // Each update is one remote round trip in the event-driven load test.
    println!("{:>6} {:>18} {:>18}", "CPUs", "GS1280 Mup/s", "GS320 Mup/s");
    for cpus in [4usize, 8, 16, 32] {
        let g = apps::gups_mups_gs1280(cpus, 150);
        let q = apps::gups_mups_gs320(cpus, 150);
        println!("{cpus:>6} {g:>18.1} {q:>18.1}");
    }
    let g64 = apps::gups_mups_gs1280(64, 150);
    println!("{:>6} {g64:>18.1} {:>18}", 64, "-");

    let fig24 = apps::fig24(150);
    let s = &fig24.series[0];
    println!(
        "\n32P GS1280 utilization: Zbox {:.0}%  N/S links {:.0}%  E/W links {:.0}%",
        s.points[0].y, s.points[1].y, s.points[2].y
    );
    println!("(the paper's Fig. 24: E/W links run hotter than N/S on the 8x4 torus)");
}
