//! The server scenario family: per-scheme event-loop runs and their
//! report (`reproduce --scenario server`, DESIGN.md §5i).
//!
//! The scenario instruments the event-loop server module once per scheme
//! (through the same lint-certified gate as every suite variant), drives
//! [`pythia_workloads::run_event_loop`] for each variant, and renders
//! the results two ways:
//!
//! - `BENCH_server.json` — machine-readable per-scheme detection rates
//!   by window offset, allocator churn stats and simulated requests/sec.
//!   Every number is derived from deterministic counters and simulated
//!   cycles, so the file is **byte-identical across repeated runs and
//!   across VM engines** (the determinism tests pin this).
//! - a human detection-vs-offset table (EXPERIMENTS.md records it).
//!
//! Wall-clock throughput (which *does* differ per engine) goes to stderr
//! only; `scripts/bench.sh` compares it legacy-vs-block.

use crate::pool;
use crate::table::Table;
use pythia_core::{RunConfig, VariantBuilder};
use pythia_ir::{verify, Module, PythiaError};
use pythia_passes::Scheme;
use pythia_vm::DecodedModule;
use pythia_workloads::{
    run_event_loop, server_module, EventLoopConfig, ServerRunStats, CANCEL_PERMILLE,
    CLOSE_PERMILLE, SLICE_INSTS, WINDOW_OFFSETS,
};
use std::time::Instant;

/// `BENCH_server.json` layout version (fields: DESIGN.md §5i); bumped
/// when a field is added, removed, renamed or changes meaning.
const SERVER_JSON_SCHEMA: u32 = 2;

/// Scenario parameters (the `--scenario server` CLI surface).
#[derive(Debug, Clone)]
pub struct ServerScenarioSpec {
    /// Connection slots per event loop (`--connections`).
    pub connections: usize,
    /// Requests to retire per scheme variant (`--requests`).
    pub requests: u64,
    /// Master seed.
    pub seed: u64,
    /// The VM engine of the loops, the context policy of the server
    /// module's analysis, and how many loops run at once.
    pub run: RunConfig,
}

impl Default for ServerScenarioSpec {
    fn default() -> Self {
        // The standard configuration drives 4 schemes x 250k = 1M
        // simulated requests.
        ServerScenarioSpec {
            connections: 64,
            requests: 250_000,
            seed: 0x5EB0_517E,
            run: RunConfig::default(),
        }
    }
}

impl ServerScenarioSpec {
    /// The event-loop configuration every scheme's loop runs with.
    pub fn loop_config(&self) -> EventLoopConfig {
        EventLoopConfig::standard(self.connections, self.requests, self.seed, self.run.vm.engine)
    }
}

/// One scheme variant's event-loop run.
#[derive(Debug, Clone)]
pub struct SchemeServerRun {
    /// The scheme.
    pub scheme: Scheme,
    /// Protection obligations `pythia-lint` certified on the variant.
    pub lint_checks: usize,
    /// The deterministic loop counters.
    pub stats: ServerRunStats,
    /// Wall-clock seconds of this variant's loop (engine-dependent;
    /// never enters the JSON).
    pub wall_secs: f64,
}

/// The whole scenario: all scheme runs plus both renderings.
#[derive(Debug, Clone)]
pub struct ServerScenarioRun {
    /// Per-scheme runs in [`Scheme::ALL`] order.
    pub runs: Vec<SchemeServerRun>,
    /// `BENCH_server.json` content (deterministic, engine-free).
    pub json: String,
    /// Human detection-vs-offset table.
    pub table: String,
    /// Requests retired across all schemes.
    pub total_requests: u64,
    /// Internal errors across all schemes (must be zero).
    pub internal_errors: u64,
    /// Wall-clock seconds for the whole scenario.
    pub wall_secs: f64,
}

/// Run the server scenario: instrument + certify each scheme variant of
/// the server module, drive one event loop per variant on the worker
/// pool (`spec.run.threads` wide; results in scheme order, so the JSON
/// is the same at every width), and render the JSON + table.
///
/// # Errors
///
/// [`PythiaError`] when the module fails verification, a variant fails
/// lint certification, or an event loop rejects its configuration.
pub fn run_server_scenario(spec: &ServerScenarioSpec) -> Result<ServerScenarioRun, PythiaError> {
    let t0 = Instant::now();
    let module = server_module();
    verify::verify_module(&module)?;
    let build = VariantBuilder::new(&module, spec.run.ctx_policy);
    let cert = build.certifier();
    let variants: Vec<(Scheme, Module, usize)> = Scheme::ALL
        .iter()
        .map(|&s| {
            let inst = build.instrument(s);
            let checks = build.certify(&cert, &inst)?;
            Ok((s, inst.module, checks))
        })
        .collect::<Result<_, PythiaError>>()?;

    let cfg = spec.loop_config();
    // One loop per variant on the worker pool; outcomes come back in
    // scheme order whatever the pool width.
    let outcomes = pool::run(&variants, spec.run.threads, |(s, m, checks)| {
        let decoded = DecodedModule::eager(m);
        let t = Instant::now();
        let stats = run_event_loop(m, decoded, &cfg)?;
        Ok(SchemeServerRun {
            scheme: *s,
            lint_checks: *checks,
            stats,
            wall_secs: t.elapsed().as_secs_f64(),
        })
    });
    let mut runs = Vec::with_capacity(outcomes.len());
    for (o, (s, _, _)) in outcomes.into_iter().zip(&variants) {
        runs.push(o.map_err(|e| e.with_function(format!("server-{s}")))?);
    }

    let json = render_json(&cfg, &runs);
    let table = render_table(&cfg, &runs);
    Ok(ServerScenarioRun {
        total_requests: runs.iter().map(|r| r.stats.retired).sum(),
        internal_errors: runs.iter().map(|r| r.stats.internal_errors).sum(),
        runs,
        json,
        table,
        wall_secs: t0.elapsed().as_secs_f64(),
    })
}

fn render_json(cfg: &EventLoopConfig, runs: &[SchemeServerRun]) -> String {
    let mut out = String::with_capacity(8192);
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": {SERVER_JSON_SCHEMA},\n"));
    out.push_str("  \"scenario\": \"server\",\n");
    out.push_str(&format!("  \"connections\": {},\n", cfg.connections));
    out.push_str(&format!("  \"requests_per_scheme\": {},\n", cfg.requests));
    out.push_str(&format!(
        "  \"total_requests\": {},\n",
        runs.iter().map(|r| r.stats.retired).sum::<u64>()
    ));
    out.push_str(&format!("  \"seed\": {},\n", cfg.seed));
    out.push_str(&format!("  \"epoch_len\": {},\n", cfg.epoch_len()));
    out.push_str(&format!("  \"slice_insts\": {SLICE_INSTS},\n"));
    out.push_str(&format!("  \"close_permille\": {CLOSE_PERMILLE},\n"));
    out.push_str(&format!("  \"cancel_permille\": {CANCEL_PERMILLE},\n"));
    out.push_str("  \"schemes\": [\n");
    for (i, r) in runs.iter().enumerate() {
        let s = &r.stats;
        out.push_str("    {\n");
        out.push_str(&format!("      \"scheme\": \"{}\",\n", r.scheme.name()));
        out.push_str(&format!("      \"lint_checks\": {},\n", r.lint_checks));
        out.push_str(&format!("      \"retired\": {},\n", s.retired));
        out.push_str(&format!("      \"admitted\": {},\n", s.admitted));
        out.push_str(&format!("      \"cancelled\": {},\n", s.cancelled));
        out.push_str(&format!("      \"multi_slice\": {},\n", s.multi_slice));
        out.push_str(&format!("      \"slices\": {},\n", s.slices));
        out.push_str(&format!("      \"epochs\": {},\n", s.epochs));
        out.push_str(&format!("      \"closed\": {},\n", s.closed));
        out.push_str(&format!("      \"internal_errors\": {},\n", s.internal_errors));
        out.push_str(&format!("      \"response_sum\": {},\n", s.response_sum));
        out.push_str(&format!("      \"insts\": {},\n", s.insts));
        out.push_str(&format!("      \"cycles\": {},\n", s.cycles));
        out.push_str(&format!("      \"sim_rps\": {:.1},\n", s.sim_rps()));
        out.push_str(&format!(
            "      \"peak_resident_bytes\": {},\n",
            s.peak_resident_bytes
        ));
        out.push_str(&format!("      \"attacks\": {},\n", s.attacks));
        out.push_str(&format!(
            "      \"in_window_detections\": {},\n",
            s.in_window_detections()
        ));
        out.push_str("      \"arena\": {\n");
        out.push_str(&format!(
            "        \"shared_allocs\": {}, \"shared_frees\": {}, \"shared_peak_bytes\": {}, \"shared_section_reuse\": {},\n",
            s.arena_shared.allocs, s.arena_shared.frees, s.arena_shared.peak_bytes, s.arena_shared.fastbin_hits
        ));
        out.push_str(&format!(
            "        \"isolated_allocs\": {}, \"isolated_frees\": {}, \"isolated_peak_bytes\": {}, \"isolated_section_reuse\": {}\n",
            s.arena_isolated.allocs, s.arena_isolated.frees, s.arena_isolated.peak_bytes, s.arena_isolated.fastbin_hits
        ));
        out.push_str("      },\n");
        out.push_str("      \"offsets\": [\n");
        for (j, o) in s.offsets.iter().enumerate() {
            out.push_str(&format!(
                "        {{\"offset\": \"{}\", \"events\": {}, \"attacks\": {}, \"detected\": {}, \"rate\": {:.3}, \"canary\": {}, \"datapac\": {}, \"dfi\": {}, \"dop\": {}, \"other\": {}}}{}\n",
                o.label,
                o.offset_events,
                o.attacks,
                o.detected(),
                o.rate(),
                o.canary,
                o.datapac,
                o.dfi,
                o.dop,
                o.other,
                if j + 1 < s.offsets.len() { "," } else { "" }
            ));
        }
        out.push_str("      ]\n");
        out.push_str(&format!(
            "    }}{}\n",
            if i + 1 < runs.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn render_table(cfg: &EventLoopConfig, runs: &[SchemeServerRun]) -> String {
    let mut out = String::new();
    out.push_str("## server scenario — detection probability by window offset\n\n");
    out.push_str(&format!(
        "epoch = {} events; offset = delivery distance past the last re-randomization boundary\n\n",
        cfg.epoch_len()
    ));
    let mut headers = vec!["offset".to_owned()];
    headers.extend(runs.iter().map(|r| r.scheme.name().to_owned()));
    let mut t = Table::new(headers);
    for (j, &(_, _, label)) in WINDOW_OFFSETS.iter().enumerate() {
        let mut row = vec![label.to_owned()];
        for r in runs {
            let o = &r.stats.offsets[j];
            row.push(format!("{:.3} ({}/{})", o.rate(), o.detected(), o.attacks));
        }
        t.row(row);
    }
    out.push_str(&t.render());
    out.push('\n');
    let mut t2 = Table::new(vec![
        "scheme",
        "retired",
        "cancelled",
        "multi-slice",
        "dop wins",
        "sim req/s",
        "arena reuse",
        "peak resident",
    ]);
    for r in runs {
        let s = &r.stats;
        t2.row(vec![
            r.scheme.name().to_owned(),
            s.retired.to_string(),
            s.cancelled.to_string(),
            s.multi_slice.to_string(),
            s.offsets
                .iter()
                .map(|o| o.dop)
                .sum::<u64>()
                .to_string(),
            format!("{:.0}", s.sim_rps()),
            s.arena_shared.fastbin_hits.to_string(),
            format!("{} KiB", s.peak_resident_bytes / 1024),
        ]);
    }
    out.push_str(&t2.render());
    out
}
