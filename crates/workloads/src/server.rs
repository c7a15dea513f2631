//! The event-loop multi-tenant server workload (DESIGN.md §5i).
//!
//! The nginx-sim measures scheme overhead on one module run per worker
//! thread; this scenario measures detection and overhead under *traffic*:
//! a deterministic single-threaded event loop multiplexes N simulated
//! connections over an instrumented request-handler module, with
//!
//! - **budget-sliced execution**: each event grants an in-flight request
//!   one more instruction quantum; the VM re-runs the handler from its
//!   deterministic start with the cumulative budget (restart-based
//!   slicing), so a request either retires, stays in flight, or — when
//!   the client abandoned it — is cancelled mid-handler;
//! - **per-request section-heap arenas** from `pythia-heap`: every
//!   admission carves a shared-section arena, every connection holds an
//!   isolated-section scratch buffer, and keep-alive churn (configurable
//!   close probability) recycles both, so allocator reuse is measured
//!   under realistic pressure;
//! - **canary re-randomization epochs**: event time is sliced into
//!   epochs; request VMs admitted in epoch `e` draw canaries from that
//!   epoch's RNG stream ([`sched::EpochClock`]);
//! - **an attack injector** that leaks a handler's canaries at one event
//!   and delivers a splice-replay overflow at a controlled offset after
//!   the next epoch boundary — sweeping the offset measures the
//!   detection-probability curve inside vs outside the window.
//!
//! The handler is a privilege-check workload in the spirit of the
//! paper's Listing 1: a request buffer overflow can rewrite an
//! authenticated `role` slot into [`ADMIN_MAGIC`], bending the handler
//! to its privileged exit ([`ADMIN_EXIT`]) unless a scheme detects the
//! corruption. Everything the loop reports is derived from simulated
//! cycles and deterministic counters — never wall-clock — so reports are
//! byte-identical across runs *and* across VM engines.

pub mod sched;

use crate::server::sched::{attack_timetable, ConnRing, EpochClock};
use pythia_heap::{AllocStats, Section, SectionConfig, SectionedHeap};
use pythia_ir::{BinOp, CastKind, CmpPred, FunctionBuilder, Inst, Intrinsic, Module, PythiaError, Ty};
use pythia_vm::{
    AttackSpec, CostModel, DecodedModule, DetectionMechanism, Engine, ExitReason, InputPlan, Trap,
    Vm, VmConfig,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// The forged role value ("ADMIN!__" as a big-endian u64): the DOP
/// payload writes it over the handler's `role` slot.
pub const ADMIN_MAGIC: u64 = 0x41444d49_4e215f5f;

/// The handler's privileged exit value — observing it from an attacked
/// request means the data-oriented attack succeeded undetected.
pub const ADMIN_EXIT: i64 = 777;

/// The swept delivery offsets, as fractions of the epoch length:
/// `(numerator, denominator, label)`. Offset 0 delivers exactly on an
/// epoch boundary — the leaked canary is always stale (outside the
/// window); deeper offsets land inside the window where a leak from the
/// same epoch replays successfully.
pub const WINDOW_OFFSETS: [(u64, u64, &str); 6] = [
    (0, 16, "0"),
    (1, 16, "1/16"),
    (2, 16, "1/8"),
    (4, 16, "1/4"),
    (8, 16, "1/2"),
    (12, 16, "3/4"),
];

/// Build the request-handler module.
///
/// `handle_request(conn, req)` mirrors the paper's Listing-1 shape under
/// server traffic: `role` legitimately arrives from input (scan channel,
/// IC execution 0), the request body is read into a 64-byte buffer (get
/// channel, IC execution 1 — the attacked channel), a header word is
/// copied out (move channel, IC execution 2), a parse loop checksums the
/// body (iteration count varies with `conn`/`req`, so requests need
/// different numbers of budget slices), and the final privilege check
/// loads `role` — the frame neighbour an overflow of the request buffer
/// can rewrite.
pub fn server_module() -> Module {
    let mut m = Module::new("server");
    let fmt = m.add_str_global("fmt_d", "%d");

    let handler = {
        let mut b = FunctionBuilder::new("handle_request", vec![Ty::I64, Ty::I64], Ty::I64);
        let conn = b.func().arg(0);
        let req = b.func().arg(1);
        // Frame order matters: `role` sits above `reqbuf`, so an
        // oversized read can rewrite it; `hdr` sits below and stays safe.
        let hdr = b.alloca(Ty::array(Ty::I8, 16));
        let reqbuf = b.alloca(Ty::array(Ty::I8, 64));
        let role = b.alloca(Ty::I64);

        // Authentication: role legitimately comes from input.
        let fmt_a = b.global_addr(fmt, Ty::array(Ty::I8, 3));
        b.call_intrinsic(Intrinsic::Scanf, vec![fmt_a, role], Ty::I64);

        // Socket read of the request body — the vulnerable channel.
        let lim = b.const_i64(63);
        b.call_intrinsic(Intrinsic::Read, vec![conn, reqbuf, lim], Ty::I64);

        // Header-word copy (ngx_cpymem-style move channel).
        let eight = b.const_i64(8);
        b.call_intrinsic(Intrinsic::Memcpy, vec![hdr, reqbuf, eight], Ty::ptr(Ty::I8));

        // Parse loop: checksum the body. `conn`/`req` modulate the
        // iteration count so the per-request instruction cost varies.
        let zero = b.const_i64(0);
        let one = b.const_i64(1);
        let base = b.const_i64(96);
        let thirty_two = b.const_i64(32);
        let sixty_four = b.const_i64(64);
        let four = b.const_i64(4);
        let c8 = b.bin(BinOp::Srem, conn, eight);
        let cs = b.bin(BinOp::Mul, c8, thirty_two);
        let r4 = b.bin(BinOp::Srem, req, four);
        let rs = b.bin(BinOp::Mul, r4, eight);
        let it0 = b.add(base, cs);
        let iters = b.add(it0, rs);
        let pre = b.current_block();
        let scan = b.new_block("scan");
        let scanned = b.new_block("scanned");
        b.jmp(scan);
        b.switch_to(scan);
        let k = b.phi(vec![(pre, zero)]);
        let sum = b.phi(vec![(pre, zero)]);
        let ki = b.bin(BinOp::Srem, k, sixty_four);
        let bp = b.gep(reqbuf, ki);
        let byte = b.load(bp);
        let wide = b.cast(CastKind::Sext, byte, Ty::I64);
        let sum2 = b.add(sum, wide);
        let k2 = b.add(k, one);
        if let Some(Inst::Phi { incomings }) = b.func_mut().inst_mut(k) {
            incomings.push((scan, k2));
        }
        if let Some(Inst::Phi { incomings }) = b.func_mut().inst_mut(sum) {
            incomings.push((scan, sum2));
        }
        let kc = b.icmp(CmpPred::Slt, k2, iters);
        b.br(kc, scan, scanned);
        b.switch_to(scanned);

        // Status from the checksum parity (keeps `reqbuf` in a branch
        // backslice, as the vulnerability analysis requires).
        let two = b.const_i64(2);
        let two_hundred = b.const_i64(200);
        let four_oh_four = b.const_i64(404);
        let par = b.bin(BinOp::Srem, sum2, two);
        let pc = b.icmp(CmpPred::Eq, par, zero);
        let (ok, nf, join) = (b.new_block("ok"), b.new_block("nf"), b.new_block("join"));
        b.br(pc, ok, nf);
        b.switch_to(ok);
        b.jmp(join);
        b.switch_to(nf);
        b.jmp(join);
        b.switch_to(join);
        let status = b.phi(vec![(ok, two_hundred), (nf, four_oh_four)]);

        // Header sanity check (keeps `hdr` branch-relevant too).
        let h0 = b.gep(hdr, zero);
        let hb = b.load(h0);
        let hwide = b.cast(CastKind::Sext, hb, Ty::I64);
        let hc = b.icmp(CmpPred::Sge, hwide, zero);
        let (hok, hbad, hjoin) = (b.new_block("hok"), b.new_block("hbad"), b.new_block("hjoin"));
        b.br(hc, hok, hbad);
        b.switch_to(hok);
        b.jmp(hjoin);
        b.switch_to(hbad);
        b.jmp(hjoin);
        b.switch_to(hjoin);
        let status2 = b.phi(vec![(hok, status), (hbad, four_oh_four)]);

        // The privilege check — the DOP target.
        let rv = b.load(role);
        let magic = b.const_i64(ADMIN_MAGIC as i64);
        let mc = b.icmp(CmpPred::Eq, rv, magic);
        let (admin, normal) = (b.new_block("admin"), b.new_block("normal"));
        b.br(mc, admin, normal);
        b.switch_to(admin);
        let marker = b.const_i64(ADMIN_EXIT);
        b.ret(Some(marker));
        b.switch_to(normal);
        let r1 = b.bin(BinOp::And, req, one);
        let out = b.add(status2, r1);
        b.ret(Some(out));
        m.add_function(b.finish())
    };

    // Stand-alone entry (verify, lint smoke, pythia's main-anchored
    // section init): serve one request.
    {
        let mut b = FunctionBuilder::new("main", vec![], Ty::I64);
        let zero = b.const_i64(0);
        let r = b.call(handler, vec![zero, zero], Ty::I64);
        b.ret(Some(r));
        m.add_function(b.finish());
    }
    m
}

/// Event-loop configuration. [`EventLoopConfig::standard`] derives the
/// epoch length from the request count so small smoke runs still pass
/// several re-randomization boundaries.
#[derive(Debug, Clone)]
pub struct EventLoopConfig {
    /// Active connection slots (a closed connection is immediately
    /// replaced, keeping the multiplexing width constant).
    pub connections: usize,
    /// Stop once this many requests have retired (cancelled requests do
    /// not count).
    pub requests: u64,
    /// Master seed: epoch seeds, per-request input streams, churn and
    /// jitter draws all derive from it via [`sched::stream_seed`].
    pub seed: u64,
    /// Events per canary re-randomization epoch.
    pub epoch_len: u64,
    /// Instruction quantum granted per event to an in-flight request.
    pub slice_insts: u64,
    /// Slices after which a stuck request is abandoned as an internal
    /// error (a correctness backstop, not a feature).
    pub max_slices: u64,
    /// Probability (per mille) that a connection closes after a response.
    pub close_permille: u32,
    /// Probability (per mille) that a request is abandoned by its client
    /// mid-handler: once its next slice exhausts the budget the request
    /// is cancelled instead of resumed.
    pub cancel_permille: u32,
    /// Cap on attack repetitions per window offset.
    pub max_attack_reps: u64,
    /// VM execution engine.
    pub engine: Engine,
}

impl EventLoopConfig {
    /// The standard configuration at a given scale. The epoch length is
    /// derived from the request count (clamped to `[64, 2048]`) so the
    /// attack injector always has epochs to race.
    pub fn standard(connections: usize, requests: u64, seed: u64, engine: Engine) -> Self {
        let epoch_len = (requests / 128).max(1).next_power_of_two().clamp(64, 2048);
        EventLoopConfig {
            connections,
            requests,
            seed,
            epoch_len,
            slice_insts: 1600,
            max_slices: 64,
            close_permille: 125,
            cancel_permille: 40,
            max_attack_reps: 64,
            engine,
        }
    }
}

/// Detection outcomes of all attacks delivered at one window offset.
#[derive(Debug, Clone, Copy, Default)]
pub struct OffsetStats {
    /// Human label (fraction of the epoch length).
    pub label: &'static str,
    /// Delivery offset in events after the epoch boundary.
    pub offset_events: u64,
    /// Attacks delivered at this offset.
    pub attacks: u64,
    /// Detections by the PA-signed canary (Pythia).
    pub canary: u64,
    /// Detections by data-PAC authentication (CPA).
    pub datapac: u64,
    /// Detections by DFI's CHKDEF.
    pub dfi: u64,
    /// Undetected privileged exits — the DOP attack succeeded.
    pub dop: u64,
    /// Everything else (faults, benign completion of the payload).
    pub other: u64,
}

impl OffsetStats {
    /// Total detections at this offset.
    pub fn detected(&self) -> u64 {
        self.canary + self.datapac + self.dfi
    }

    /// Detection probability at this offset.
    pub fn rate(&self) -> f64 {
        if self.attacks == 0 {
            0.0
        } else {
            self.detected() as f64 / self.attacks as f64
        }
    }
}

/// Deterministic result of one event-loop run (one scheme variant).
#[derive(Debug, Clone, Default)]
pub struct ServerRunStats {
    /// Events processed.
    pub events: u64,
    /// Re-randomization epochs passed.
    pub epochs: u64,
    /// Requests admitted.
    pub admitted: u64,
    /// Requests retired (completed).
    pub retired: u64,
    /// Requests cancelled mid-handler.
    pub cancelled: u64,
    /// Retired requests that needed more than one slice.
    pub multi_slice: u64,
    /// Total slices executed (VM runs, background traffic only).
    pub slices: u64,
    /// Connections closed by keep-alive churn.
    pub closed: u64,
    /// Connections reopened to replace closed ones.
    pub reopened: u64,
    /// Setup failures, benign traps, stuck requests — must be zero.
    pub internal_errors: u64,
    /// Wrapping sum of all retired responses (cheap cross-engine output
    /// checksum).
    pub response_sum: u64,
    /// Instructions executed by background traffic.
    pub insts: u64,
    /// Simulated cycles of background traffic.
    pub cycles: u64,
    /// Largest resident footprint of any single request VM.
    pub peak_resident_bytes: u64,
    /// Host-side arena allocator counters (per-request arenas,
    /// shared section).
    pub arena_shared: AllocStats,
    /// Host-side arena allocator counters (per-connection scratch,
    /// isolated section).
    pub arena_isolated: AllocStats,
    /// Attacks delivered.
    pub attacks: u64,
    /// Per-offset detection rows, in [`WINDOW_OFFSETS`] order.
    pub offsets: Vec<OffsetStats>,
}

impl ServerRunStats {
    /// Simulated requests per second at a 1 GHz nominal clock — derived
    /// from cycles, so it is engine-independent.
    pub fn sim_rps(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.retired as f64 * 1e9 / self.cycles as f64
        }
    }

    /// Detections from deliveries *inside* the window (offset > 0).
    pub fn in_window_detections(&self) -> u64 {
        self.offsets.iter().skip(1).map(OffsetStats::detected).sum()
    }
}

/// One in-flight request: everything needed to re-run its handler
/// deterministically with a larger cumulative budget.
struct Inflight {
    reqno: u64,
    input_seed: u64,
    vm_seed: u64,
    slices: u64,
    cancel_marked: bool,
    arena: Option<u64>,
}

/// One connection slot.
struct Conn {
    conn_id: u64,
    scratch: Option<u64>,
    inflight: Option<Inflight>,
}

/// Drive the event loop over `module` (the server module, possibly
/// instrumented) until [`EventLoopConfig::requests`] requests retire.
///
/// # Errors
///
/// [`PythiaError::Setup`] for nonsensical configurations (zero
/// connections, epochs too long for the request budget). Per-request
/// problems never abort the loop — they count into
/// [`ServerRunStats::internal_errors`].
pub fn run_event_loop(
    module: &Module,
    decoded: Arc<DecodedModule>,
    cfg: &EventLoopConfig,
) -> Result<ServerRunStats, PythiaError> {
    if cfg.connections == 0 {
        return Err(PythiaError::setup("server needs at least one connection"));
    }
    if cfg.epoch_len < 16 || cfg.requests < 4 * cfg.epoch_len {
        return Err(PythiaError::setup(format!(
            "server needs requests >= 4 * epoch_len (got {} requests, epoch {})",
            cfg.requests, cfg.epoch_len
        )));
    }
    if cfg.slice_insts < 100 || cfg.max_slices == 0 {
        return Err(PythiaError::setup("server slice budget too small"));
    }
    let clock = EpochClock {
        epoch_len: cfg.epoch_len,
        base_seed: cfg.seed,
    };
    let offsets: Vec<u64> = WINDOW_OFFSETS
        .iter()
        .map(|(n, d, _)| cfg.epoch_len * n / d)
        .collect();
    // Every delivery lands before event `requests`; the loop needs at
    // least one event per retired request, so all scheduled attacks fire.
    let timetable = attack_timetable(&clock, &offsets, cfg.requests, cfg.max_attack_reps);
    let mut next_attack = 0usize;

    let mut stats = ServerRunStats {
        offsets: WINDOW_OFFSETS
            .iter()
            .zip(&offsets)
            .map(|(&(_, _, label), &off)| OffsetStats {
                label,
                offset_events: off,
                ..OffsetStats::default()
            })
            .collect(),
        ..ServerRunStats::default()
    };

    let mut heap = SectionedHeap::try_new(SectionConfig::default())
        .map_err(|e| PythiaError::setup(format!("server arena heap: {e}")))?;
    let mut churn = SmallRng::seed_from_u64(sched::stream_seed(cfg.seed, 0xC0C0_C0C0));
    let mut next_conn_id: u64 = 0;
    let mut open_conn = |heap: &mut SectionedHeap, stats: &mut ServerRunStats| -> Conn {
        let conn_id = next_conn_id;
        next_conn_id += 1;
        let size = 256 + (sched::splitmix64(sched::stream_seed(cfg.seed, conn_id)) & 0xff);
        let scratch = heap.alloc(Section::Isolated, size);
        if scratch.is_none() {
            stats.internal_errors += 1;
        }
        Conn {
            conn_id,
            scratch,
            inflight: None,
        }
    };
    let mut conns: Vec<Conn> = Vec::with_capacity(cfg.connections);
    for _ in 0..cfg.connections {
        conns.push(open_conn(&mut heap, &mut stats));
    }
    let mut ring = ConnRing::new(cfg.connections);

    let vm_cfg = |seed: u64, max_insts: u64, witness: bool| VmConfig {
        seed,
        max_insts,
        max_call_depth: 64,
        heap: SectionConfig::default(),
        cost: CostModel::default(),
        trace_limit: 0,
        profile: false,
        engine: cfg.engine,
        record_witness: witness,
        inline_exec: true,
    };

    let mut event: u64 = 0;
    while stats.retired < cfg.requests {
        // ---- attack injector: deliveries due at this event ------------
        while next_attack < timetable.len() && timetable[next_attack].delivery_event <= event {
            let slot = timetable[next_attack];
            next_attack += 1;
            let row = &mut stats.offsets[slot.offset_index];
            row.attacks += 1;
            stats.attacks += 1;
            let attack_id = stats.attacks;
            let input_seed = sched::stream_seed(cfg.seed, 0xA7AC_0000_0000 | attack_id);
            let conn_arg = (0x7000 + attack_id) as i64;
            let req_arg = attack_id as i64;
            let del_epoch = clock.epoch_of(slot.delivery_event);
            let leak_epoch = clock.epoch_of(slot.delivery_event.saturating_sub(slot.jitter));

            // Recon: replay the victim request at the *leak* epoch's
            // canary stream with witness recording on — what an intra-
            // epoch disclosure primitive would have shown the attacker.
            let mut probe = Vm::with_decoded(
                module,
                decoded.clone(),
                vm_cfg(clock.epoch_seed(leak_epoch), 10_000_000, true),
                InputPlan::benign(input_seed),
            );
            if probe.run("handle_request", &[conn_arg, req_arg]).is_err() {
                stats.internal_errors += 1;
                row.other += 1;
                continue;
            }
            let w = probe.witness();
            let a_base = w.ic_writes.iter().find(|e| e.0 == 1).map(|e| e.1);
            let role_addr = w.ic_writes.iter().find(|e| e.0 == 0).map(|e| e.1);
            let (Some(a_base), Some(role_addr)) = (a_base, role_addr) else {
                stats.internal_errors += 1;
                row.other += 1;
                continue;
            };
            let span = role_addr.wrapping_sub(a_base).wrapping_add(8);
            if role_addr <= a_base || span > 4096 {
                stats.internal_errors += 1;
                row.other += 1;
                continue;
            }
            // Splice payload: junk, leaked canary values replayed at
            // their slots, ADMIN_MAGIC over the role.
            let mut payload = vec![0x41u8; span as usize];
            for &(md, val) in &w.ga_signs {
                if md >= a_base && md + 8 <= role_addr {
                    let off = (md - a_base) as usize;
                    payload[off..off + 8].copy_from_slice(&val.to_le_bytes());
                }
            }
            let tail = span as usize - 8;
            payload[tail..].copy_from_slice(&ADMIN_MAGIC.to_le_bytes());

            // Delivery: same request, delivery epoch's canary stream,
            // payload on IC execution 1 (the socket read). Attack-borne
            // requests run unsliced — the attacker paces its own client.
            let mut vm = Vm::with_decoded(
                module,
                decoded.clone(),
                vm_cfg(clock.epoch_seed(del_epoch), 10_000_000, false),
                InputPlan::with_attack(
                    input_seed,
                    AttackSpec {
                        ic_execution: 1,
                        payload,
                    },
                ),
            );
            match vm.run("handle_request", &[conn_arg, req_arg]) {
                Err(_) => {
                    stats.internal_errors += 1;
                    row.other += 1;
                }
                Ok(r) => match r.detected() {
                    Some(DetectionMechanism::Canary) => row.canary += 1,
                    Some(DetectionMechanism::DataPac) => row.datapac += 1,
                    Some(DetectionMechanism::Dfi) => row.dfi += 1,
                    None if r.exit.value() == Some(ADMIN_EXIT) => row.dop += 1,
                    None => row.other += 1,
                },
            }
        }

        // ---- background traffic: service one connection slot ----------
        let epoch = clock.epoch_of(event);
        let slot = ring.take_turn();
        let conn = &mut conns[slot];
        let mut fl = match conn.inflight.take() {
            Some(fl) => fl,
            None => {
                let reqno = stats.admitted;
                stats.admitted += 1;
                let input_seed = sched::stream_seed(cfg.seed, 0x5EED_0000_0000 | reqno);
                let arena = heap.alloc(
                    Section::Shared,
                    192 + (sched::splitmix64(input_seed) & 0x3ff),
                );
                if arena.is_none() {
                    stats.internal_errors += 1;
                }
                Inflight {
                    reqno,
                    input_seed,
                    vm_seed: clock.epoch_seed(epoch),
                    slices: 0,
                    cancel_marked: churn.gen_range(0..1000) < cfg.cancel_permille,
                    arena,
                }
            }
        };

        fl.slices += 1;
        stats.slices += 1;
        let budget = fl.slices * cfg.slice_insts;
        let mut vm = Vm::with_decoded(
            module,
            decoded.clone(),
            vm_cfg(fl.vm_seed, budget, false),
            InputPlan::benign(fl.input_seed),
        );
        let outcome = vm.run("handle_request", &[conn.conn_id as i64, fl.reqno as i64]);
        let mut done = true;
        match outcome {
            Err(_) => stats.internal_errors += 1,
            Ok(r) => {
                stats.insts += r.metrics.insts;
                stats.cycles += r.metrics.cycles();
                stats.peak_resident_bytes =
                    stats.peak_resident_bytes.max(vm.memory().resident_bytes());
                match r.exit {
                    ExitReason::Trapped(Trap::InstBudgetExhausted) => {
                        if fl.cancel_marked {
                            stats.cancelled += 1;
                        } else if fl.slices >= cfg.max_slices {
                            stats.internal_errors += 1;
                        } else {
                            done = false;
                        }
                    }
                    ExitReason::Returned(v) | ExitReason::Exited(v) => {
                        stats.retired += 1;
                        stats.response_sum = stats.response_sum.wrapping_add(v as u64);
                        if fl.slices > 1 {
                            stats.multi_slice += 1;
                        }
                    }
                    // A benign request must never trap.
                    ExitReason::Trapped(_) => stats.internal_errors += 1,
                }
            }
        }
        if done {
            if let Some(a) = fl.arena.take() {
                if heap.free(a).is_err() {
                    stats.internal_errors += 1;
                }
            }
            // Keep-alive churn: maybe close and replace the connection.
            if churn.gen_range(0..1000) < cfg.close_permille {
                stats.closed += 1;
                if let Some(s) = conn.scratch.take() {
                    if heap.free(s).is_err() {
                        stats.internal_errors += 1;
                    }
                }
                *conn = open_conn(&mut heap, &mut stats);
                stats.reopened += 1;
            }
        } else {
            conn.inflight = Some(fl);
        }
        event += 1;
    }

    stats.events = event;
    stats.epochs = clock.epoch_of(event.saturating_sub(1)) + 1;
    // All scheduled deliveries land before event `requests` <= events.
    stats.internal_errors += (timetable.len() - next_attack) as u64;
    stats.arena_shared = heap.stats(Section::Shared);
    stats.arena_isolated = heap.stats(Section::Isolated);
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pythia_ir::verify;

    fn loop_cfg(requests: u64) -> EventLoopConfig {
        let mut c = EventLoopConfig::standard(8, requests, 0x5EB0, Engine::Block);
        c.epoch_len = 64;
        c
    }

    #[test]
    fn server_module_verifies_and_serves_benignly() {
        let m = server_module();
        verify::verify_module(&m).expect("valid IR");
        let mut vm = Vm::new(&m, VmConfig::default(), InputPlan::benign(7));
        let r = vm.run("main", &[]).unwrap();
        let v = r.exit.value().expect("benign request completes");
        assert_ne!(v, ADMIN_EXIT, "benign input must not take the admin exit");
    }

    #[test]
    fn vanilla_event_loop_retires_and_attacks_succeed() {
        let m = server_module();
        let decoded = Arc::new(DecodedModule::new(&m));
        decoded.decode_all(&m);
        let cfg = loop_cfg(1024);
        let s = run_event_loop(&m, decoded, &cfg).unwrap();
        assert_eq!(s.retired, 1024);
        assert_eq!(s.internal_errors, 0);
        assert!(s.attacks > 0, "injector must have fired");
        // Unprotected server: every delivery is an undetected DOP win.
        for row in &s.offsets {
            assert_eq!(row.detected(), 0);
            assert_eq!(row.dop, row.attacks);
        }
        assert!(s.cancelled > 0, "some requests must be cancelled");
        assert!(s.multi_slice > 0, "some requests must need several slices");
        assert!(s.closed > 0, "keep-alive churn must close connections");
        // Outstanding arenas at stop = admitted - (retired + cancelled),
        // i.e. the requests still in flight; everything else was freed.
        let in_flight = s.admitted - s.retired - s.cancelled;
        assert_eq!(s.arena_shared.allocs, s.arena_shared.frees + in_flight);
        assert!(s.arena_shared.fastbin_hits > 0, "arena churn must reuse sections");
    }

    #[test]
    fn event_loop_is_deterministic_across_engines() {
        let m = server_module();
        let mut runs = Vec::new();
        for engine in [Engine::Legacy, Engine::Block, Engine::Block] {
            let decoded = Arc::new(DecodedModule::new(&m));
            if engine == Engine::Block {
                decoded.decode_all(&m);
            }
            let mut cfg = loop_cfg(512);
            cfg.engine = engine;
            runs.push(run_event_loop(&m, decoded, &cfg).unwrap());
        }
        for r in &runs[1..] {
            assert_eq!(r.retired, runs[0].retired);
            assert_eq!(r.events, runs[0].events);
            assert_eq!(r.response_sum, runs[0].response_sum);
            assert_eq!(r.cycles, runs[0].cycles);
            assert_eq!(r.insts, runs[0].insts);
        }
    }
}
