//! Hot-spot detection with Xmesh and the striping cure (paper §6,
//! Figs. 26–27): all CPUs read one CPU's memory; Xmesh spots the glowing
//! node; striping spreads the load over the module pair.
//!
//! ```text
//! cargo run --release --example hotspot_xmesh
//! ```

// Test/harness code may unwrap freely; the workspace denies it in libraries.
#![allow(clippy::unwrap_used)]

use alphasim::experiments::network;

fn main() {
    print!("{}", network::fig27(150));

    println!("\nFig. 26 — does striping help this pattern?");
    let fig = network::fig26(&[1, 4, 8, 16, 30], 120);
    let plain = &fig.series[0];
    let striped = &fig.series[1];
    println!("{:>14} {:>22} {:>22}", "", "non-striped", "striped");
    for (p, s) in plain.points.iter().zip(&striped.points) {
        println!(
            "{:>14} {:>12.0} MB/s {:>6.0}ns {:>12.0} MB/s {:>6.0}ns",
            "", p.x, p.y, s.x, s.y
        );
    }
    let gain = striped.points.iter().map(|p| p.x).fold(0.0, f64::max)
        / plain.points.iter().map(|p| p.x).fold(0.0, f64::max);
    println!(
        "\nstriping improves hot-spot bandwidth {:.0}% (paper: up to 80%)",
        (gain - 1.0) * 100.0
    );
}
