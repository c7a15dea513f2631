//! The event-loop multi-tenant server workload (DESIGN.md §5i).
//!
//! The nginx-sim measures scheme overhead on one module run per worker
//! thread; this scenario measures detection and overhead under *traffic*:
//! a deterministic single-threaded event loop multiplexes N simulated
//! connections over an instrumented request-handler module, with
//!
//! - **turn-sliced scheduling**: each event grants one in-flight request
//!   one more turn of [`SLICE_INSTS`] instructions. Its handler ran once,
//!   to its end, at admission, which fixed its outcome (retire, error, or
//!   cancel when the client abandoned it) and the turns it holds its slot;
//! - **per-request section-heap arenas** from `pythia-heap`: every
//!   admission carves a shared-section arena, every connection holds an
//!   isolated-section scratch buffer, and keep-alive churn (a fixed
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

use crate::server::sched::{attack_timetable, AttackSlot, EpochClock};
use pythia_heap::{AllocStats, Section, SectionedHeap, GRANULE, ISOLATED_CAPACITY};
use pythia_ir::{
    BinOp, CastKind, CmpPred, FunctionBuilder, Inst, Intrinsic, Module, PythiaError, Ty,
};
use pythia_vm::{
    AttackSpec, DecodedModule, DetectionMechanism, Engine, ExitReason, InputPlan, RunResult, Trap,
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
        let (hok, hbad, hjoin) = (
            b.new_block("hok"),
            b.new_block("hbad"),
            b.new_block("hjoin"),
        );
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

/// Instructions a request may run per turn of its connection slot.
pub const SLICE_INSTS: u64 = 1600;
/// Turns after which an unfinished request is abandoned as an internal
/// error (a correctness backstop, not a feature).
const MAX_SLICES: u64 = 64;
/// Probability (per mille) that a connection closes after a response.
pub const CLOSE_PERMILLE: u32 = 125;
/// Probability (per mille) that a client abandons its request: a marked
/// request that does not finish within one turn is cancelled.
pub const CANCEL_PERMILLE: u32 = 40;
/// A connection's scratch buffer: `SCRATCH_BASE` plus up to `SCRATCH_SPREAD` bytes.
const SCRATCH_BASE: u64 = 256;
const SCRATCH_SPREAD: u64 = 0xff;

/// Event-loop configuration. The epoch length and every other loop
/// parameter derive from these four values.
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
    /// VM execution engine.
    pub engine: Engine,
}

impl EventLoopConfig {
    /// The configuration at a given scale.
    pub fn standard(connections: usize, requests: u64, seed: u64, engine: Engine) -> Self {
        EventLoopConfig {
            connections,
            requests,
            seed,
            engine,
        }
    }

    /// Events per canary re-randomization epoch, derived from the request
    /// count (clamped to `[64, 2048]`) so small runs still pass several
    /// boundaries and the attack injector always has epochs to race.
    pub fn epoch_len(&self) -> u64 {
        (self.requests / 128).next_power_of_two().clamp(64, 2048)
    }

    /// The most connection slots one loop accepts: `2 * connections - 1`
    /// largest scratch buffers fit the isolated section, half of it being
    /// headroom for the holes churn leaves (DESIGN.md §5i).
    pub fn max_connections() -> usize {
        let chunk = (SCRATCH_BASE + SCRATCH_SPREAD).next_multiple_of(GRANULE);
        (ISOLATED_CAPACITY / chunk).div_ceil(2) as usize
    }

    /// Check the configuration before any work: one loop needs between
    /// one and [`EventLoopConfig::max_connections`] slots and at least
    /// four epochs of requests.
    ///
    /// # Errors
    ///
    /// [`PythiaError::Setup`] naming the first violated bound.
    pub fn validate(&self) -> Result<(), PythiaError> {
        let (max, epoch_len) = (Self::max_connections(), self.epoch_len());
        let what = if !(1..=max).contains(&self.connections) {
            format!(
                "server needs 1..={max} connections (got {})",
                self.connections
            )
        } else if self.requests < 4 * epoch_len {
            let got = self.requests;
            format!(
                "server needs requests >= 4 * epoch_len (got {got} requests, epoch {epoch_len})"
            )
        } else {
            return Ok(());
        };
        Err(PythiaError::setup(what))
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
    /// Turns serviced: one per event, so also the number of events.
    pub slices: u64,
    /// Connections closed by keep-alive churn.
    pub closed: u64,
    /// Setup failures, benign traps, stuck requests — must be zero.
    pub internal_errors: u64,
    /// Wrapping sum of all retired responses (cheap cross-engine output
    /// checksum).
    pub response_sum: u64,
    /// Instructions executed by background traffic, each charged once.
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

/// What a request's last turn does, fixed at admission: respond, count a
/// cancellation, or count an internal error (`Vm::run` error, trap, stuck).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Retire(i64),
    Cancel,
    Error,
}

/// One in-flight request: its handler has already run; it holds its
/// slot for `need` turns, and its outcome applies on the last one.
struct Inflight {
    slices: u64,
    need: u64,
    outcome: Outcome,
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
/// [`PythiaError::Setup`] when [`EventLoopConfig::validate`] rejects
/// `cfg`. Per-request problems never abort the loop — they count into
/// [`ServerRunStats::internal_errors`].
pub fn run_event_loop(
    module: &Module,
    decoded: Arc<DecodedModule>,
    cfg: &EventLoopConfig,
) -> Result<ServerRunStats, PythiaError> {
    cfg.validate()?;
    let mut handler = Handler::new(module, decoded, cfg.engine);
    let clock = EpochClock {
        epoch_len: cfg.epoch_len(),
        base_seed: cfg.seed,
    };
    let mut stats = ServerRunStats {
        offsets: WINDOW_OFFSETS
            .iter()
            .map(|&(n, d, label)| OffsetStats {
                label,
                offset_events: clock.epoch_len * n / d,
                ..OffsetStats::default()
            })
            .collect(),
        ..ServerRunStats::default()
    };
    let offsets: Vec<u64> = stats.offsets.iter().map(|o| o.offset_events).collect();
    // Every delivery lands before event `requests`; the loop needs at
    // least one event per retired request, so all scheduled attacks fire.
    let mut timetable = attack_timetable(&clock, &offsets, cfg.requests)
        .into_iter()
        .peekable();

    let mut heap = SectionedHeap::default();
    let mut churn = SmallRng::seed_from_u64(sched::stream_seed(cfg.seed, 0xC0C0_C0C0));
    let open_conn = |conn_id: u64, heap: &mut SectionedHeap, stats: &mut ServerRunStats| {
        let draw = sched::splitmix64(sched::stream_seed(cfg.seed, conn_id));
        let size = SCRATCH_BASE + (draw & SCRATCH_SPREAD);
        let scratch = heap.alloc(Section::Isolated, size);
        stats.internal_errors += u64::from(scratch.is_none());
        Conn {
            conn_id,
            scratch,
            inflight: None,
        }
    };
    let mut conns: Vec<Conn> = (0..cfg.connections as u64)
        .map(|id| open_conn(id, &mut heap, &mut stats))
        .collect();

    while stats.retired < cfg.requests {
        // Every event services exactly one turn, so turns count events.
        let event = stats.slices;
        // ---- attack injector: deliveries due at this event ------------
        while let Some(slot) = timetable.next_if(|s| s.delivery_event <= event) {
            stats.attacks += 1;
            let delivered = handler.attack(cfg.seed, &clock, slot, stats.attacks);
            let row = &mut stats.offsets[slot.offset_index];
            row.attacks += 1;
            match delivered.map(|r| (r.detected(), r.exit.value())) {
                None => {
                    stats.internal_errors += 1;
                    row.other += 1;
                }
                Some((Some(DetectionMechanism::Canary), _)) => row.canary += 1,
                Some((Some(DetectionMechanism::DataPac), _)) => row.datapac += 1,
                Some((Some(DetectionMechanism::Dfi), _)) => row.dfi += 1,
                Some((None, Some(ADMIN_EXIT))) => row.dop += 1,
                Some(_) => row.other += 1,
            }
        }

        // ---- background traffic: one turn of the next slot, round-robin
        let conn = &mut conns[sched::round_robin(event, cfg.connections)];
        let mut fl = match conn.inflight.take() {
            Some(fl) => fl,
            None => {
                let reqno = stats.admitted;
                stats.admitted += 1;
                let input_seed = sched::stream_seed(cfg.seed, 0x5EED_0000_0000 | reqno);
                let size = 192 + (sched::splitmix64(input_seed) & 0x3ff);
                let arena = heap.alloc(Section::Shared, size);
                stats.internal_errors += u64::from(arena.is_none());
                let request = Request {
                    vm_seed: clock.epoch_seed(clock.epoch_of(event)),
                    input_seed,
                    args: [conn.conn_id as i64, reqno as i64],
                    cancel_marked: churn.gen_range(0..1000) < CANCEL_PERMILLE,
                };
                let (outcome, need) = handler.serve(&request, &mut stats);
                Inflight {
                    slices: 0,
                    need,
                    outcome,
                    arena,
                }
            }
        };

        fl.slices += 1;
        stats.slices += 1;
        if fl.slices < fl.need {
            conn.inflight = Some(fl);
        } else {
            match fl.outcome {
                Outcome::Retire(v) => {
                    stats.retired += 1;
                    stats.response_sum = stats.response_sum.wrapping_add(v as u64);
                    if fl.need > 1 {
                        stats.multi_slice += 1;
                    }
                }
                Outcome::Cancel => stats.cancelled += 1,
                Outcome::Error => stats.internal_errors += 1,
            }
            if fl.arena.is_some_and(|a| heap.free(a).is_err()) {
                stats.internal_errors += 1;
            }
            // Keep-alive churn: maybe close and replace the connection.
            if churn.gen_range(0..1000) < CLOSE_PERMILLE {
                stats.closed += 1;
                if conn.scratch.is_some_and(|s| heap.free(s).is_err()) {
                    stats.internal_errors += 1;
                }
                let id = cfg.connections as u64 + stats.closed - 1;
                *conn = open_conn(id, &mut heap, &mut stats);
            }
        }
    }

    stats.epochs = clock.epoch_of(stats.slices.saturating_sub(1)) + 1;
    // All scheduled deliveries land before event `requests` <= events.
    stats.internal_errors += timetable.count() as u64;
    stats.arena_shared = heap.stats(Section::Shared);
    stats.arena_isolated = heap.stats(Section::Isolated);
    Ok(stats)
}

/// The instrumented handler module every request of one loop runs, and
/// the one VM the loop runs them on: every request, recon probe and
/// delivery resets it ([`Vm::reset`]) to the fresh VM it needs.
struct Handler<'m> {
    engine: Engine,
    vm: Vm<'m>,
}

/// A background request's inputs, all fixed when it is admitted.
struct Request {
    vm_seed: u64,
    input_seed: u64,
    args: [i64; 2],
    cancel_marked: bool,
}

impl<'m> Handler<'m> {
    fn new(module: &'m Module, decoded: Arc<DecodedModule>, engine: Engine) -> Self {
        let vm = Vm::with_decoded(
            module,
            decoded,
            Self::cfg(engine, 0, 0, false),
            InputPlan::benign(0),
        );
        Handler { engine, vm }
    }

    /// A request VM's config: canary seed `seed`, budget `max_insts`.
    fn cfg(engine: Engine, seed: u64, max_insts: u64, witness: bool) -> VmConfig {
        VmConfig {
            seed,
            max_insts,
            max_call_depth: 64,
            profile: false,
            engine,
            record_witness: witness,
            inline_exec: true,
            ..VmConfig::default()
        }
    }

    /// The loop's VM, reset to a fresh request VM with canary seed
    /// `seed` and budget `max_insts`.
    fn vm(&mut self, seed: u64, max_insts: u64, witness: bool, plan: InputPlan) -> &mut Vm<'m> {
        let cfg = Self::cfg(self.engine, seed, max_insts, witness);
        self.vm.reset(cfg, plan);
        &mut self.vm
    }

    /// Run an admitted request's handler once, charge the run to `stats`,
    /// and fix its outcome and the turns it holds its slot. A run of
    /// `insts` instructions finishes exactly when its budget is at least
    /// `insts`, so it needs `ceil(insts / SLICE_INSTS)` turns (DESIGN.md
    /// §5i).
    fn serve(&mut self, req: &Request, stats: &mut ServerRunStats) -> (Outcome, u64) {
        let budget = if req.cancel_marked {
            SLICE_INSTS
        } else {
            MAX_SLICES * SLICE_INSTS
        };
        let vm = self.vm(
            req.vm_seed,
            budget,
            false,
            InputPlan::benign(req.input_seed),
        );
        // A setup or VM-internal error counts on the first turn, which
        // matches the restart model only while there are none (§5i).
        let Ok(r) = vm.run("handle_request", &req.args) else {
            return (Outcome::Error, 1);
        };
        stats.insts += r.metrics.insts;
        stats.cycles += r.metrics.cycles();
        stats.peak_resident_bytes = stats.peak_resident_bytes.max(vm.memory().resident_bytes());
        let turns = r.metrics.insts.div_ceil(SLICE_INSTS).max(1);
        match r.exit {
            ExitReason::Returned(v) | ExitReason::Exited(v) => (Outcome::Retire(v), turns),
            ExitReason::Trapped(Trap::InstBudgetExhausted) if req.cancel_marked => {
                (Outcome::Cancel, 1)
            }
            ExitReason::Trapped(Trap::InstBudgetExhausted) => (Outcome::Error, MAX_SLICES),
            // A benign request must never trap.
            ExitReason::Trapped(_) => (Outcome::Error, turns),
        }
    }

    /// Run attack number `attack_id` at `slot`, on the attacker's own
    /// connection (it takes no turns). `None` when a VM fails or the recon
    /// cannot place the payload.
    fn attack(
        &mut self,
        seed: u64,
        clock: &EpochClock,
        slot: AttackSlot,
        attack_id: u64,
    ) -> Option<RunResult> {
        let input_seed = sched::stream_seed(seed, 0xA7AC_0000_0000 | attack_id);
        let args = [(0x7000 + attack_id) as i64, attack_id as i64];
        let leak_epoch = clock.epoch_of(slot.delivery_event.saturating_sub(slot.jitter));
        let del_epoch = clock.epoch_of(slot.delivery_event);

        // Recon: replay the victim request at the *leak* epoch's canary
        // stream with witness recording on — what an intra-epoch
        // disclosure primitive would have shown the attacker.
        let leak_seed = clock.epoch_seed(leak_epoch);
        let probe = self.vm(leak_seed, 10_000_000, true, InputPlan::benign(input_seed));
        probe.run("handle_request", &args).ok()?;
        // The witness lives in the VM: everything read from it is read
        // before the delivery resets the VM.
        let w = probe.witness();
        let a_base = w.ic_writes.iter().find(|e| e.0 == 1)?.1;
        let role_addr = w.ic_writes.iter().find(|e| e.0 == 0)?.1;
        let span = role_addr.wrapping_sub(a_base).wrapping_add(8);
        if role_addr <= a_base || span > 4096 {
            return None;
        }
        // Splice payload: junk, leaked canary values replayed at their
        // slots, ADMIN_MAGIC over the role.
        let mut payload = vec![0x41u8; span as usize];
        for &(md, val) in &w.ga_signs {
            if md >= a_base && md + 8 <= role_addr {
                let off = (md - a_base) as usize;
                payload[off..off + 8].copy_from_slice(&val.to_le_bytes());
            }
        }
        let tail = span as usize - 8;
        payload[tail..].copy_from_slice(&ADMIN_MAGIC.to_le_bytes());

        // Delivery: same request, delivery epoch's canary stream, payload
        // on IC execution 1 (the socket read).
        let attack = AttackSpec {
            ic_execution: 1,
            payload,
        };
        let plan = InputPlan::with_attack(input_seed, attack);
        let vm = self.vm(clock.epoch_seed(del_epoch), 10_000_000, false, plan);
        vm.run("handle_request", &args).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pythia_ir::verify;

    fn loop_cfg(requests: u64) -> EventLoopConfig {
        EventLoopConfig::standard(8, requests, 0x5EB0, Engine::Block)
    }

    /// `module`'s handler, decoded ahead.
    fn handler_for(module: &Module, engine: Engine) -> Handler<'_> {
        Handler::new(module, DecodedModule::eager(module), engine)
    }

    /// `handle_request(conn, req)` that adds `req` to `conn` `adds` times
    /// in straight-line code and returns the sum.
    fn straight_line_handler(adds: u64) -> Module {
        let mut m = Module::new("straight");
        let mut b = FunctionBuilder::new("handle_request", vec![Ty::I64, Ty::I64], Ty::I64);
        let mut acc = b.func().arg(0);
        let req = b.func().arg(1);
        for _ in 0..adds {
            acc = b.add(acc, req);
        }
        b.ret(Some(acc));
        m.add_function(b.finish());
        m
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
        let decoded = DecodedModule::eager(&m);
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
        assert!(
            s.arena_shared.fastbin_hits > 0,
            "arena churn must reuse sections"
        );
    }

    #[test]
    fn event_loop_is_deterministic_across_engines() {
        let m = server_module();
        let mut runs = Vec::new();
        for engine in [Engine::Legacy, Engine::Block, Engine::Block] {
            let mut cfg = loop_cfg(512);
            cfg.engine = engine;
            runs.push(run_event_loop(&m, DecodedModule::eager(&m), &cfg).unwrap());
        }
        for r in &runs[1..] {
            assert_eq!(r.retired, runs[0].retired);
            assert_eq!(r.slices, runs[0].slices);
            assert_eq!(r.response_sum, runs[0].response_sum);
            assert_eq!(r.cycles, runs[0].cycles);
            assert_eq!(r.insts, runs[0].insts);
        }
    }

    /// The counters of `loop_cfg(1024)` as the restart-slicing loop
    /// recorded them, where every turn re-ran its handler from the start
    /// with a budget of `turn * SLICE_INSTS`. Running each request once
    /// must reproduce all of them; only `insts` and `cycles` (now each
    /// instruction charged once) may differ.
    #[test]
    fn event_loop_counters_match_the_restart_model() {
        let m = server_module();
        let decoded = DecodedModule::eager(&m);
        let s = run_event_loop(&m, decoded, &loop_cfg(1024)).unwrap();
        assert_eq!(
            (s.epochs, s.admitted, s.retired, s.cancelled),
            (30, 1059, 1024, 31)
        );
        assert_eq!((s.multi_slice, s.slices, s.closed), (733, 1903, 131));
        assert_eq!(
            (
                s.internal_errors,
                s.response_sum,
                s.peak_resident_bytes,
                s.attacks
            ),
            (0, 272_634, 8192, 12)
        );
        assert_eq!(
            s.arena_shared,
            AllocStats {
                allocs: 1059,
                frees: 1055,
                bytes_in_use: 1664,
                peak_bytes: 6752,
                fastbin_hits: 335,
                freelist_hits: 313,
                wilderness_hits: 411,
                failures: 0,
                coalesces: 669,
            }
        );
        assert_eq!(
            s.arena_isolated,
            AllocStats {
                allocs: 139,
                frees: 131,
                bytes_in_use: 3152,
                peak_bytes: 3440,
                fastbin_hits: 102,
                freelist_hits: 0,
                wilderness_hits: 37,
                failures: 0,
                coalesces: 0,
            }
        );
        let rows: Vec<_> = s
            .offsets
            .iter()
            .map(|o| {
                (
                    o.label,
                    o.offset_events,
                    o.attacks,
                    o.detected(),
                    o.dop,
                    o.other,
                )
            })
            .collect();
        assert_eq!(
            rows,
            [
                ("0", 0, 2, 0, 2, 0),
                ("1/16", 4, 2, 0, 2, 0),
                ("1/8", 8, 2, 0, 2, 0),
                ("1/4", 16, 2, 0, 2, 0),
                ("1/2", 32, 2, 0, 2, 0),
                ("3/4", 48, 2, 0, 2, 0),
            ]
        );
    }

    /// A handler of exactly `k * SLICE_INSTS` instructions retires on
    /// turn `k`, one instruction more on turn `k + 1` — the first turn at
    /// which a restart with budget `turn * SLICE_INSTS` would finish —
    /// and past [`MAX_SLICES`] turns the request is stuck.
    #[test]
    fn a_request_of_k_slices_retires_on_turn_k() {
        for engine in [Engine::Legacy, Engine::Block] {
            let serve_adds = |adds: u64, cancel_marked: bool| {
                let m = straight_line_handler(adds);
                let req = Request {
                    vm_seed: 1,
                    input_seed: 2,
                    args: [0, 1],
                    cancel_marked,
                };
                let mut stats = ServerRunStats::default();
                let (outcome, need) = handler_for(&m, engine).serve(&req, &mut stats);
                (outcome, need, stats.insts)
            };
            // The first turn at which the restart model's re-run finishes.
            let restart_turn = |adds: u64| {
                let m = straight_line_handler(adds);
                let mut handler = handler_for(&m, engine);
                (1..)
                    .find(|turn| {
                        let plan = InputPlan::benign(2);
                        let vm = handler.vm(1, turn * SLICE_INSTS, false, plan);
                        let r = vm.run("handle_request", &[0, 1]).unwrap();
                        r.exit != ExitReason::Trapped(Trap::InstBudgetExhausted)
                    })
                    .unwrap()
            };
            // Instructions the handler runs besides its additions.
            let fixed = serve_adds(0, false).2;
            for k in [1, 2, 5] {
                let adds = k * SLICE_INSTS - fixed;
                let retire = |a: u64| Outcome::Retire(a as i64);
                assert_eq!(
                    serve_adds(adds, false),
                    (retire(adds), k, k * SLICE_INSTS),
                    "{engine:?}"
                );
                assert_eq!(restart_turn(adds), k, "{engine:?}");
                assert_eq!(
                    serve_adds(adds + 1, false),
                    (retire(adds + 1), k + 1, k * SLICE_INSTS + 1),
                    "{engine:?}"
                );
                assert_eq!(restart_turn(adds + 1), k + 1, "{engine:?}");
            }
            // A cancel-marked request gets one turn; the client is gone
            // if that does not finish it.
            let one = SLICE_INSTS - fixed;
            assert_eq!(serve_adds(one, true).0, Outcome::Retire(one as i64));
            assert_eq!(serve_adds(one + 1, true), (Outcome::Cancel, 1, SLICE_INSTS));
            // The last turn the backstop allows, and one instruction past it.
            let last = MAX_SLICES * SLICE_INSTS - fixed;
            assert_eq!(serve_adds(last, false).1, MAX_SLICES);
            let stuck = (Outcome::Error, MAX_SLICES, MAX_SLICES * SLICE_INSTS);
            assert_eq!(serve_adds(last + 1, false), stuck);
        }
    }

    /// Whether `n` connections' scratch buffers survive a churn built to
    /// fragment the isolated section: each round replaces every buffer
    /// below the largest size, one at a time, by alternately a granule
    /// smaller one and a largest one. No fastbin can serve either, so
    /// every round strands a hole just under a buffer beside each largest
    /// buffer while `n - 1` others stay live.
    fn scratch_churn_fits(n: usize) -> bool {
        let largest = (SCRATCH_BASE + SCRATCH_SPREAD).next_multiple_of(GRANULE);
        let mut heap = SectionedHeap::default();
        let mut small = largest - GRANULE;
        let mut turn = 0u64;
        let mut alloc = |heap: &mut SectionedHeap, small: u64| {
            turn += 1;
            let size = if turn % 2 == 1 { small } else { largest };
            heap.alloc(Section::Isolated, size).map(|a| (a, size))
        };
        let mut live = Vec::new();
        for _ in 0..n {
            let Some(buf) = alloc(&mut heap, small) else {
                return false;
            };
            live.push(buf);
        }
        while live.iter().any(|&(_, size)| size < largest) {
            small -= GRANULE;
            assert!(small >= SCRATCH_BASE, "every size is a scratch size");
            let (kept, churned): (Vec<_>, Vec<_>) =
                live.into_iter().partition(|&(_, size)| size == largest);
            live = kept;
            for (addr, _) in churned {
                heap.free(addr).unwrap();
                let Some(buf) = alloc(&mut heap, small) else {
                    return false;
                };
                live.push(buf);
            }
        }
        assert_eq!(heap.stats(Section::Isolated).failures, 0);
        true
    }

    /// The connection bound leaves the isolated section room for the
    /// holes churn strands: the fragmenting churn fits at the bound and
    /// overruns the section 1/16 above it.
    #[test]
    fn scratch_churn_fits_the_isolated_section_at_max_connections() {
        let max = EventLoopConfig::max_connections();
        assert!(scratch_churn_fits(max));
        assert!(!scratch_churn_fits(max + max / 16));
    }

    #[test]
    fn configs_outside_the_bounds_are_rejected() {
        let max = EventLoopConfig::max_connections();
        assert_eq!(max, 4096);
        let cfg = |connections, requests| {
            EventLoopConfig::standard(connections, requests, 1, Engine::Block)
        };
        assert!(cfg(max, 256).validate().is_ok());
        assert!(cfg(1, 256).validate().is_ok());
        for bad in [cfg(0, 256), cfg(max + 1, 256), cfg(8, 255)] {
            assert!(
                matches!(bad.validate(), Err(PythiaError::Setup { .. })),
                "{bad:?}"
            );
        }
    }
}
