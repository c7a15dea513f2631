//! The nginx experiment (paper §6.3): instrument the server module with
//! each scheme and measure multi-worker throughput degradation.
//!
//! Run with: `cargo run --release --example nginx_bench [-- <requests>]`

use pythia::analysis::{SliceContext, VulnerabilityReport};
use pythia::core::{instrument_with, Scheme, VmConfig};
use pythia::workloads::{nginx_module, run_workers};

fn main() {
    let requests: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(600);
    let workers = 12; // the paper's workload generator uses 12 threads
    println!("nginx-sim: {requests} requests x {workers} workers\n");

    let module = nginx_module(requests);
    let ctx = SliceContext::new(&module);
    let report = VulnerabilityReport::analyze(&ctx);

    let mut base = 0.0;
    println!(
        "{:<8} {:>12} {:>12} {:>10}",
        "scheme", "bytes", "throughput", "slowdown"
    );
    for scheme in [Scheme::Vanilla, Scheme::Cpa, Scheme::Pythia, Scheme::Dfi] {
        let inst = instrument_with(&module, &ctx, &report, scheme);
        let run = match run_workers(&inst.module, workers, 0x1234, &VmConfig::default()) {
            Ok(run) => run,
            Err(e) => {
                println!("{:<8} ERROR: {e}", scheme.name());
                continue;
            }
        };
        let tp = run.throughput();
        if scheme == Scheme::Vanilla {
            base = tp;
        }
        println!(
            "{:<8} {:>12} {:>12.2} {:>+9.1}%",
            scheme.name(),
            run.bytes,
            tp,
            if base > 0.0 {
                (1.0 - tp / base) * 100.0
            } else {
                0.0
            },
        );
    }
    println!("\npaper reference: CPA degrades nginx by 49.13%, Pythia by 20.15%");
}
