//! The PIR interpreter.
//!
//! Executes a verified [`Module`] against the simulated memory, cache,
//! cost model, PA context, sectioned heap and input plan. All the
//! defense-relevant runtime behaviour lives here:
//!
//! - **overflows are physical**: an input channel that delivers more bytes
//!   than the destination object holds really writes the adjacent bytes
//!   (canaries, neighbouring variables, whatever the frame layout says);
//! - `pacauth` recomputes the PAC and traps on mismatch ([`Trap::PacAuthFailure`]);
//! - `setdef`/`chkdef` maintain a shadow last-writer table and trap on
//!   data-flow violations; input channels tag their writes with the call
//!   site's [`dfi_def_id`] so legitimate channel writes pass their checks;
//! - every instruction is metered through the [`CostModel`] and the cache
//!   simulator, producing the run metrics the evaluation figures use.

use crate::cache::{CacheSim, CacheStats};
use crate::cost::CostModel;
use crate::decode::{
    cost_table, op_class, DecodedModule, FrameLayout, MNEMONICS, MN_BR, MN_CALL, MN_CHKDEF,
    MN_LOAD, MN_PACAUTH, MN_PACSIGN, MN_PACSTRIP, MN_PHI, MN_SETDEF, MN_STORE, N_MNEMONICS,
};
use crate::input::{InputPlan, IntOrPayload};
use crate::memory::{layout, FastMap, Memory, MemoryError, MemoryFault};
use crate::profile::Profile;
use pythia_heap::{AllocStats, Section, SectionedHeap};
use pythia_ir::{
    dfi_def_id, BinOp, BlockId, Callee, CastKind, DetectionKind, FuncId, Inst, Intrinsic, Module,
    PaKey, PythiaError, Ty, ValueId, ValueKind,
};
use pythia_pa::PaContext;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Why a run stopped abnormally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trap {
    /// A `pacauth` failed — the PAC did not match (tampering detected).
    PacAuthFailure {
        /// Which key the failing authentication used (`Ga` = canary).
        key: PaKey,
    },
    /// A `chkdef` found an unexpected last writer.
    DfiViolation {
        /// The last-writer id found in the shadow table.
        found: u32,
    },
    /// An access faulted (null page, beyond the VA, or a poisoned pointer
    /// whose PAC bits made the address non-canonical).
    MemoryFault {
        /// Faulting address.
        addr: u64,
        /// Whether it was a write.
        write: bool,
    },
    /// Integer division by zero.
    DivByZero,
    /// `abort()` was called.
    Abort,
    /// The stack region was exhausted.
    StackOverflow,
    /// Call depth exceeded the configured limit.
    CallDepthExceeded,
    /// An indirect call did not target a function address.
    BadIndirectCall,
    /// `free()` of a pointer the allocator does not own.
    InvalidFree {
        /// The bogus address.
        addr: u64,
    },
    /// The instruction budget ran out (likely an infinite loop).
    InstBudgetExhausted,
    /// A load/store asked for an access width the machine model does not
    /// support (e.g. a 3-byte aggregate loaded as a scalar).
    UnsupportedScalarSize {
        /// The address of the rejected access.
        addr: u64,
        /// The unsupported width.
        size: u64,
    },
}

/// Which defense mechanism a trap corresponds to, for attack-detection
/// reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectionMechanism {
    /// PA authentication of a signed data value (CPA / Pythia heap).
    DataPac,
    /// PA-signed stack canary (Pythia stack scheme, `Ga` key).
    Canary,
    /// DFI SETDEF/CHKDEF check.
    Dfi,
}

impl Trap {
    /// The defense that fired, if this trap is a detection.
    pub fn detection(&self) -> Option<DetectionMechanism> {
        match self {
            Trap::PacAuthFailure { key: PaKey::Ga } => Some(DetectionMechanism::Canary),
            Trap::PacAuthFailure { .. } => Some(DetectionMechanism::DataPac),
            Trap::DfiViolation { .. } => Some(DetectionMechanism::Dfi),
            _ => None,
        }
    }

    /// Classify this trap into the workspace error taxonomy: detections
    /// become [`PythiaError::Detection`] (canary / data-PAC / DFI), every
    /// other trap is a benign [`PythiaError::Fault`]. Traps stay *data*
    /// inside [`RunResult`]; this mapping is for reports that need the
    /// taxonomy (see DESIGN.md).
    pub fn to_error(&self) -> PythiaError {
        let kind = match self.detection() {
            Some(DetectionMechanism::Canary) => Some(DetectionKind::Canary),
            Some(DetectionMechanism::DataPac) => Some(DetectionKind::DataPac),
            Some(DetectionMechanism::Dfi) => Some(DetectionKind::Dfi),
            None => None,
        };
        let err = match kind {
            Some(k) => PythiaError::detection(k, self.to_string()),
            None => PythiaError::fault(self.to_string()),
        };
        match self {
            Trap::MemoryFault { addr, .. }
            | Trap::InvalidFree { addr }
            | Trap::UnsupportedScalarSize { addr, .. } => err.with_address(*addr),
            _ => err,
        }
    }
}

/// Internal control flow of the interpreter: either a machine [`Trap`]
/// (data — surfaces as [`ExitReason::Trapped`]) or a [`PythiaError`]
/// (surfaces as `Err` from [`Vm::run`]).
pub(crate) enum Halt {
    Trap(Trap),
    Error(Box<PythiaError>),
}

impl From<Trap> for Halt {
    fn from(t: Trap) -> Self {
        Halt::Trap(t)
    }
}

impl From<MemoryFault> for Halt {
    fn from(MemoryFault { addr, write }: MemoryFault) -> Self {
        Halt::Trap(Trap::MemoryFault { addr, write })
    }
}

impl From<MemoryError> for Halt {
    fn from(e: MemoryError) -> Self {
        match e {
            MemoryError::Fault(f) => f.into(),
            MemoryError::UnsupportedScalarSize { addr, size } => {
                Halt::Trap(Trap::UnsupportedScalarSize { addr, size })
            }
        }
    }
}

impl From<PythiaError> for Halt {
    fn from(e: PythiaError) -> Self {
        Halt::Error(Box::new(e))
    }
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trap::PacAuthFailure { key } => {
                write!(f, "PAC authentication failure ({} key)", key.mnemonic())
            }
            Trap::DfiViolation { found } => write!(f, "DFI violation (last writer {found})"),
            Trap::MemoryFault { addr, write } => write!(
                f,
                "memory fault: {} {addr:#x}",
                if *write { "write to" } else { "read of" }
            ),
            Trap::DivByZero => write!(f, "division by zero"),
            Trap::Abort => write!(f, "abort() called"),
            Trap::StackOverflow => write!(f, "stack overflow"),
            Trap::CallDepthExceeded => write!(f, "call depth exceeded"),
            Trap::BadIndirectCall => write!(f, "indirect call to non-function"),
            Trap::InvalidFree { addr } => write!(f, "invalid free of {addr:#x}"),
            Trap::InstBudgetExhausted => write!(f, "instruction budget exhausted"),
            Trap::UnsupportedScalarSize { addr, size } => {
                write!(f, "unsupported scalar size {size} at {addr:#x}")
            }
        }
    }
}

/// How a run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExitReason {
    /// The entry function returned normally.
    Returned(i64),
    /// `exit(code)` was called.
    Exited(i64),
    /// A trap fired.
    Trapped(Trap),
}

impl ExitReason {
    /// The returned/exit value, if the run completed.
    pub fn value(&self) -> Option<i64> {
        match self {
            ExitReason::Returned(v) | ExitReason::Exited(v) => Some(*v),
            ExitReason::Trapped(_) => None,
        }
    }

    /// The trap, if the run trapped.
    pub fn trap(&self) -> Option<Trap> {
        match self {
            ExitReason::Trapped(t) => Some(*t),
            _ => None,
        }
    }
}

/// Dynamic execution counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunMetrics {
    /// Instructions executed.
    pub insts: u64,
    /// Accumulated cost in millicycles.
    pub cycles_mc: u64,
    /// PA instructions executed.
    pub pa_insts: u64,
    /// DFI instructions executed.
    pub dfi_insts: u64,
    /// Loads executed.
    pub loads: u64,
    /// Stores executed.
    pub stores: u64,
    /// Conditional branches executed.
    pub branches: u64,
    /// Calls executed (function + intrinsic).
    pub calls: u64,
    /// Input-channel calls executed.
    pub ic_calls: u64,
    /// Memory-writing input-channel executions.
    pub ic_writes: u64,
    /// Cache counters.
    pub cache: CacheStats,
    /// Shared-section heap counters.
    pub heap_shared: AllocStats,
    /// Isolated-section heap counters.
    pub heap_isolated: AllocStats,
    /// Heap sectioning setup calls.
    pub heap_init_calls: u64,
    /// Distinct static PA instruction sites that executed at least once.
    pub pa_sites: u64,
}

impl RunMetrics {
    /// Total cycles (rounded up from millicycles).
    pub fn cycles(&self) -> u64 {
        CostModel::to_cycles(self.cycles_mc)
    }

    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        let c = self.cycles();
        if c == 0 {
            0.0
        } else {
            self.insts as f64 / c as f64
        }
    }
}

/// Result of one run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// How the run ended.
    pub exit: ExitReason,
    /// The metered counters.
    pub metrics: RunMetrics,
    /// The execution profile (empty when [`VmConfig::profile`] is off).
    pub profile: Profile,
}

impl RunResult {
    /// Whether a defense detected an attack during this run.
    pub fn detected(&self) -> Option<DetectionMechanism> {
        self.exit.trap().and_then(|t| t.detection())
    }
}

/// Which execution engine [`Vm::run`] drives.
///
/// Both engines are observation-equivalent: identical exit reasons,
/// [`RunMetrics`], [`Profile`] counters, trace events and trap points on
/// every module (certified by the differential tests and the
/// `scripts/check.sh` engine gate). `Block` is the default; `Legacy` is
/// kept as the differential baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// The original per-instruction match-dispatch interpreter.
    Legacy,
    /// The block-cached translated engine: blocks are lowered once into
    /// flat pre-resolved op buffers (see [`crate::decode`]) and executed
    /// by a tight dispatch loop with superblock chaining.
    #[default]
    Block,
}

impl Engine {
    /// Stable lowercase name (reports, bench labels).
    pub fn name(self) -> &'static str {
        match self {
            Engine::Legacy => "legacy",
            Engine::Block => "block",
        }
    }
}

/// VM configuration.
#[derive(Debug, Clone)]
pub struct VmConfig {
    /// Seed for PA keys and the canary RNG.
    pub seed: u64,
    /// Instruction budget.
    pub max_insts: u64,
    /// Call-depth limit.
    pub max_call_depth: usize,
    /// Record the first N executed instructions as a [`TraceEvent`] list
    /// (0 disables tracing).
    pub trace_limit: u64,
    /// Fill the execution [`Profile`] at run end (opcode/intrinsic
    /// histograms, PA/shadow counters). Purely observational: toggling it
    /// never changes [`RunMetrics`] or the exit reason.
    pub profile: bool,
    /// Which execution engine to use ([`Engine::Block`] by default).
    pub engine: Engine,
    /// Record a disclosure [`Witness`] (executed `Ga` canary signs and
    /// memory-writing input-channel executions). Purely observational —
    /// metrics, profile and exit reason never change. The server
    /// scenario's attack injector uses this to model an in-epoch leak.
    pub record_witness: bool,
    /// Run the entry function on the caller's stack instead of a
    /// dedicated 32 MiB interpreter thread. For fleets of tiny runs
    /// (the event-loop server retires ~10⁶ request VMs per scenario)
    /// the per-run thread spawn dominates; callers opting in must keep
    /// `max_call_depth` small enough for their own stack.
    pub inline_exec: bool,
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig {
            seed: 0xC0FFEE,
            max_insts: 50_000_000,
            max_call_depth: 400,
            trace_limit: 0,
            profile: true,
            engine: Engine::Block,
            record_witness: false,
            inline_exec: false,
        }
    }
}

/// What an attacker with an intra-epoch disclosure primitive learns from
/// one run (recorded only when [`VmConfig::record_witness`] is set): the
/// concrete canary values the run signed and where every input channel
/// wrote. The server scenario's injector replays these to splice valid
/// in-epoch canaries into an overflow payload (DESIGN.md §5i).
#[derive(Debug, Clone, Default)]
pub struct Witness {
    /// Every executed `Ga` (canary) `pacsign`: `(modifier, signed value)`.
    /// The modifier is the canary slot address under the Pythia scheme.
    pub ga_signs: Vec<(u64, u64)>,
    /// Every memory-writing input-channel execution:
    /// `(ic execution index, destination address, declared capacity)`.
    pub ic_writes: Vec<(u64, u64, u64)>,
}

/// A legacy-engine call frame. Alloca addresses live in the shared dense
/// [`FrameLayout`] (see [`crate::decode`]), not in a per-frame map.
struct Frame {
    values: Vec<i64>,
    base: u64,
}

/// One recorded instruction execution (see [`VmConfig::trace_limit`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Function the instruction belongs to.
    pub func: FuncId,
    /// The instruction's value id.
    pub value: ValueId,
    /// Static mnemonic.
    pub mnemonic: &'static str,
}

/// The interpreter. Construct with [`Vm::new`], execute with [`Vm::run`].
///
/// Fields are `pub(crate)` so the block engine (`engine.rs`) shares the
/// exact same machine state — memory, cache, heap, PA context, shadow
/// table, metrics — as the legacy interpreter.
pub struct Vm<'m> {
    pub(crate) module: &'m Module,
    pub(crate) cfg: VmConfig,
    pub(crate) mem: Memory,
    pub(crate) cache: CacheSim,
    pub(crate) pa: PaContext,
    pub(crate) heap: SectionedHeap,
    pub(crate) plan: InputPlan,
    pub(crate) rng: SmallRng,
    pub(crate) shadow: FastMap<u32>,
    pub(crate) metrics: RunMetrics,
    pub(crate) sp: u64,
    pub(crate) globals_addr: Vec<u64>,
    pub(crate) globals_map: BTreeMap<u64, u64>,
    /// Live call frames, outermost first: `(frame base, function)`.
    /// Pushed and popped by both engines; only [`Vm::capacity_at`] reads
    /// it, through the function's [`FrameLayout`].
    pub(crate) frames: Vec<(u64, FuncId)>,
    pub(crate) ic_write_counter: u64,
    pub(crate) halted: Option<i64>,
    /// Executed PA sites, one bit per [`DecodedModule::pa_site`] number;
    /// empty until the first PA op runs.
    pub(crate) pa_site_bits: Vec<u64>,
    pub(crate) profile: Profile,
    pub(crate) trace: Vec<TraceEvent>,
    /// A setup problem found during construction, reported by the next
    /// [`Vm::run`] (construction stays infallible for ergonomics).
    pub(crate) setup_error: Option<PythiaError>,
    /// The shared decode cache (frame layouts for both engines, decoded
    /// superblocks for the block engine).
    pub(crate) decoded: Arc<DecodedModule>,
    /// The cost model every instruction is metered through.
    pub(crate) cost: CostModel,
    /// Per-class base costs of [`Self::cost`].
    pub(crate) cost_tbl: [u64; 256],
    /// Executed instructions per op class ([`op_class`], both engines):
    /// the one record of what ran. [`Vm::run`] derives every per-class
    /// counter of [`RunMetrics`] and [`Profile`] from it at run end.
    pub(crate) op_counts: [u64; 256],
    /// Executed signs and auths per PA key (both engines), folded into
    /// `Profile::pa.by_key`.
    pub(crate) pa_key_counts: [u64; 5],
    /// Intrinsic calls by [`intrinsic_slot`] (both engines), folded into
    /// [`Profile::intrinsics`] at the end of [`Vm::run`].
    intrinsic_counts: [u64; N_INTRINSICS],
    /// Whether the next executed instruction should be traced. Starts as
    /// `trace_limit > 0` and is flipped off once the limit is reached, so
    /// a disabled/full trace costs one boolean test per instruction.
    pub(crate) trace_on: bool,
    /// Scratch for parallel-copy phi prologues of more than four copies
    /// (block engine).
    pub(crate) phi_scratch: Vec<i64>,
    /// Retired frame value arrays, reused by the block engine so a call
    /// costs a memset instead of a malloc + memset (pure optimization:
    /// frames are fully re-initialized on reuse).
    pub(crate) frame_pool: Vec<Vec<i64>>,
    /// Retired call-argument buffers, same idea.
    pub(crate) argv_pool: Vec<Vec<i64>>,
    /// Reusable zero buffer for frame clearing.
    zeros: Vec<u8>,
    /// Disclosure record (populated only under
    /// [`VmConfig::record_witness`]).
    pub(crate) witness: Witness,
}

impl<'m> Vm<'m> {
    /// Build a VM for `module` (globals are materialized immediately).
    ///
    /// Construction never fails: a global layout that does not fit the
    /// address space is recorded and surfaced as a
    /// [`PythiaError::Setup`] by the next [`Vm::run`].
    pub fn new(module: &'m Module, cfg: VmConfig, plan: InputPlan) -> Self {
        Self::new_inner(module, None, cfg, plan)
    }

    /// Like [`Vm::new`], but reuse an existing decode cache. `decoded`
    /// must have been built from this same `module`; sharing one
    /// [`DecodedModule`] across many VMs (e.g. every attack run of a
    /// campaign) means each block is decoded at most once.
    pub fn with_decoded(
        module: &'m Module,
        decoded: Arc<DecodedModule>,
        cfg: VmConfig,
        plan: InputPlan,
    ) -> Self {
        Self::new_inner(module, Some(decoded), cfg, plan)
    }

    fn new_inner(
        module: &'m Module,
        decoded: Option<Arc<DecodedModule>>,
        cfg: VmConfig,
        plan: InputPlan,
    ) -> Self {
        let cost = CostModel::default();
        let mut vm = Vm {
            module,
            pa: PaContext::from_seed(cfg.seed ^ 0x5041_5041),
            heap: SectionedHeap::default(),
            cache: CacheSim::m1_like(),
            mem: Memory::new(),
            plan,
            rng: SmallRng::seed_from_u64(cfg.seed.wrapping_mul(0x9e3779b97f4a7c15)),
            shadow: FastMap::default(),
            metrics: RunMetrics::default(),
            sp: layout::STACK_BASE,
            globals_addr: Vec::new(),
            globals_map: BTreeMap::new(),
            frames: Vec::new(),
            ic_write_counter: 0,
            halted: None,
            pa_site_bits: Vec::new(),
            profile: Profile::default(),
            trace: Vec::new(),
            setup_error: None,
            decoded: decoded.unwrap_or_else(|| Arc::new(DecodedModule::new(module))),
            cost,
            cost_tbl: cost_table(&cost),
            op_counts: [0; 256],
            pa_key_counts: [0; 5],
            intrinsic_counts: [0; N_INTRINSICS],
            trace_on: cfg.trace_limit > 0,
            phi_scratch: Vec::new(),
            frame_pool: Vec::new(),
            argv_pool: Vec::new(),
            zeros: Vec::new(),
            witness: Witness::default(),
            cfg,
        };
        if let Err(e) = vm.init_globals() {
            vm.setup_error.get_or_insert(e);
        }
        vm
    }

    /// The PA context (for tests that want to forge/check values).
    pub fn pa(&self) -> &PaContext {
        &self.pa
    }

    /// The recorded execution trace (empty unless
    /// [`VmConfig::trace_limit`] is non-zero).
    pub fn trace(&self) -> &[TraceEvent] {
        &self.trace
    }

    fn init_globals(&mut self) -> Result<(), PythiaError> {
        let slots = pythia_ir::layout::global_slots(self.module, layout::GLOBALS_BASE);
        for (gid, slot) in self.module.global_ids().zip(slots) {
            let g = self.module.global(gid);
            let (addr, size) = (slot.start, slot.size);
            if addr.saturating_add(size) > (1u64 << crate::memory::VA_BITS) {
                return Err(PythiaError::setup(format!(
                    "global `{}` ({size} bytes) does not fit the address space",
                    g.name
                ))
                .with_address(addr));
            }
            self.globals_addr.push(addr);
            // Memory is zero-fill, so only the explicit initializer bytes
            // need materializing (a huge zero-initialized global must not
            // allocate its full size host-side).
            let bytes: &[u8] = match &g.init {
                pythia_ir::GlobalInit::Zero => &[],
                pythia_ir::GlobalInit::Bytes(b) => {
                    let n = (b.len() as u64).min(size) as usize;
                    &b[..n]
                }
                pythia_ir::GlobalInit::Str(s) => {
                    let b = s.as_bytes();
                    let n = (b.len() as u64).min(size.saturating_sub(1)) as usize;
                    &b[..n]
                }
            };
            self.mem.write_bytes(addr, bytes).map_err(|f| {
                PythiaError::setup(format!("global `{}` initializer faulted", g.name))
                    .with_address(f.addr)
            })?;
            self.globals_map.insert(addr, size);
        }
        Ok(())
    }

    /// Address of global `gid`.
    pub fn global_addr(&self, gid: pythia_ir::GlobalId) -> u64 {
        self.globals_addr[gid.0 as usize]
    }

    /// Read access to the simulated memory (for tests/scenarios).
    pub fn memory(&self) -> &Memory {
        &self.mem
    }

    /// The disclosure witness recorded by the last run (empty unless
    /// [`VmConfig::record_witness`] was set).
    pub fn witness(&self) -> &Witness {
        &self.witness
    }

    /// Record one executed `Ga` canary sign into the witness. Shared by
    /// both engines' `PacSign` arms; a no-op unless witness recording is
    /// on.
    #[inline]
    pub(crate) fn witness_ga_sign(&mut self, key: PaKey, modifier: u64, signed: u64) {
        if self.cfg.record_witness && key == PaKey::Ga {
            self.witness.ga_signs.push((modifier, signed));
        }
    }

    /// Record one memory-writing input-channel execution into the
    /// witness (both engines funnel through `exec_intrinsic`).
    #[inline]
    pub(crate) fn witness_ic_write(&mut self, n: u64, dst: u64, cap: u64) {
        if self.cfg.record_witness {
            self.witness.ic_writes.push((n, dst, cap));
        }
    }

    /// Run `entry` with integer `args`. Returns the exit reason plus
    /// metrics. The VM can be reused only for a single run.
    ///
    /// # Errors
    ///
    /// [`PythiaError::Setup`] when `entry` names zero or several functions
    /// of the module, or when construction recorded a problem (invalid
    /// heap geometry, oversized globals). Traps are *not* errors: they
    /// surface as [`ExitReason::Trapped`] in the `Ok` result.
    pub fn run(&mut self, entry: &str, args: &[i64]) -> Result<RunResult, PythiaError> {
        if let Some(e) = self.setup_error.take() {
            return Err(e);
        }
        let matches = self
            .module
            .functions()
            .iter()
            .filter(|f| f.name == entry)
            .count();
        if matches > 1 {
            return Err(
                PythiaError::setup(format!("{matches} functions named `{entry}`"))
                    .with_function(entry),
            );
        }
        let Some(fid) = self.module.func_by_name(entry) else {
            return Err(
                PythiaError::setup(format!("no function named `{entry}`")).with_function(entry)
            );
        };
        let exit = match self.exec_entry(fid, args) {
            Ok(v) => match self.halted {
                Some(code) => ExitReason::Exited(code),
                None => ExitReason::Returned(v),
            },
            Err(Halt::Trap(t)) => ExitReason::Trapped(t),
            Err(Halt::Error(e)) => return Err(*e),
        };
        // Every counter below equals an op-class or intrinsic count: each
        // was bumped right after its instruction was metered, before
        // anything that could fail, so deriving it here is exact.
        let c = &self.op_counts;
        self.metrics.loads = c[MN_LOAD];
        self.metrics.stores = c[MN_STORE];
        self.metrics.calls = c[MN_CALL];
        self.metrics.branches = c[MN_BR];
        self.metrics.pa_insts = c[MN_PACSIGN] + c[MN_PACAUTH] + c[MN_PACSTRIP];
        self.metrics.dfi_insts = c[MN_SETDEF] + c[MN_CHKDEF];
        self.metrics.ic_calls = INTRINSICS
            .iter()
            .filter(|i| i.is_input_channel())
            .map(|&i| self.intrinsic_counts[intrinsic_slot(i)])
            .sum();
        self.metrics.cache = self.cache.stats();
        self.metrics.heap_shared = self.heap.stats(Section::Shared);
        self.metrics.heap_isolated = self.heap.stats(Section::Isolated);
        self.metrics.heap_init_calls = self.heap.init_calls();
        self.metrics.pa_sites = self
            .pa_site_bits
            .iter()
            .map(|w| u64::from(w.count_ones()))
            .sum();
        if self.cfg.profile {
            // The opcode histogram and its base millicycles: the base
            // cost of an instruction depends only on its class, so
            // `sum(base) == count * base`.
            for (i, &n) in self.op_counts.iter().take(N_MNEMONICS).enumerate() {
                if n > 0 {
                    self.profile.opcodes.insert(MNEMONICS[i], n);
                    self.profile
                        .opcode_mc
                        .insert(MNEMONICS[i], n * self.cost_tbl[i]);
                }
            }
            for (k, &n) in self.pa_key_counts.iter().enumerate() {
                if n > 0 {
                    self.profile.pa.by_key.insert(PaKey::ALL[k].mnemonic(), n);
                }
            }
            for i in INTRINSICS {
                let n = self.intrinsic_counts[intrinsic_slot(i)];
                if n > 0 {
                    self.profile.intrinsics.insert(i.name(), n);
                }
            }
            let c = &self.op_counts;
            self.profile.pa.signs = c[MN_PACSIGN];
            self.profile.pa.auths = c[MN_PACAUTH];
            self.profile.pa.strips = c[MN_PACSTRIP];
            self.profile.shadow.setdefs = c[MN_SETDEF];
            self.profile.shadow.chkdefs = c[MN_CHKDEF];
            // A failed auth or a fault halts the run, so there is at most
            // one of either, and it is the exit reason.
            let trap = exit.trap();
            self.profile.pa.auth_failures =
                u64::from(matches!(trap, Some(Trap::PacAuthFailure { .. })));
            self.profile.mem_faults = u64::from(matches!(trap, Some(Trap::MemoryFault { .. })));
            self.profile.scan_static_pa(self.module);
            self.profile.resident_bytes = self.mem.resident_bytes();
        }
        Ok(RunResult {
            exit,
            metrics: self.metrics,
            profile: std::mem::take(&mut self.profile),
        })
    }

    // ---- helpers -------------------------------------------------------

    /// Run the entry function on a dedicated thread with an explicit
    /// stack. Debug-build interpreter frames are large enough that the
    /// maximum call depth (400) can overflow a caller's default thread
    /// stack (scoped workers get 2 MiB); the explicit 32 MiB stack makes
    /// the depth limit the only recursion bound. A panic on the
    /// interpreter thread is converted into [`PythiaError::Internal`]
    /// instead of unwinding into the caller.
    fn exec_entry(&mut self, fid: FuncId, args: &[i64]) -> Result<i64, Halt> {
        const INTERP_STACK: usize = 32 << 20;
        let engine = self.cfg.engine;
        let exec = move |this: &mut Self| match engine {
            Engine::Legacy => this.exec_function(fid, args, 0),
            Engine::Block => this.exec_function_block(fid, args, 0),
        };
        // Opt-in fast path: no interpreter thread. The caller vouches
        // that its own stack holds `max_call_depth` frames; the server
        // event loop uses this to avoid ~10⁶ spawns per scenario.
        if self.cfg.inline_exec {
            return exec(self);
        }
        let this = &mut *self;
        let spawned = std::thread::scope(|s| {
            let worker = std::thread::Builder::new()
                .name("pythia-interp".into())
                .stack_size(INTERP_STACK)
                .spawn_scoped(s, move || exec(this));
            worker.ok().map(|h| {
                h.join()
                    .unwrap_or_else(|p| Err(PythiaError::from_panic(p.as_ref()).into()))
            })
        });
        // Spawn failure (resource exhaustion): degrade to running on the
        // caller's stack rather than refusing outright.
        spawned.unwrap_or_else(|| exec(self))
    }

    pub(crate) fn charge(&mut self, mc: u64) {
        self.metrics.cycles_mc += mc;
    }

    /// Record a trace event and flip tracing off once the limit is hit
    /// (so the hot loops test a single cached boolean).
    pub(crate) fn push_trace(&mut self, fid: FuncId, iv: ValueId, mnemonic: &'static str) {
        self.trace.push(TraceEvent {
            func: fid,
            value: iv,
            mnemonic,
        });
        if self.trace.len() as u64 >= self.cfg.trace_limit {
            self.trace_on = false;
        }
    }

    /// Zero `len` bytes at `addr` through a reusable buffer (frame clears
    /// happen on every call; a fresh `vec![0; size]` per frame is not).
    pub(crate) fn write_zeros(&mut self, addr: u64, len: u64) -> Result<(), MemoryFault> {
        let n = len as usize;
        if self.zeros.len() < n {
            self.zeros.resize(n, 0);
        }
        self.mem.write_bytes(addr, &self.zeros[..n])
    }

    fn cache_access(&mut self, addr: u64) -> u64 {
        let out = self.cache.access(addr);
        self.cost.cache_extra(out)
    }

    fn cache_range(&mut self, addr: u64, len: u64) -> u64 {
        if len == 0 {
            return 0;
        }
        let out = self.cache.access_range(addr, len);
        self.cost.cache_extra(out)
    }

    pub(crate) fn mem_read(&mut self, addr: u64, size: u64) -> Result<i64, Halt> {
        let extra = self.cache_access(addr);
        self.charge(extra);
        Ok(self.mem.read_scalar(addr, size)?)
    }

    pub(crate) fn mem_write(&mut self, addr: u64, size: u64, value: i64) -> Result<(), Halt> {
        let extra = self.cache_access(addr);
        self.charge(extra);
        Ok(self.mem.write_scalar(addr, size, value)?)
    }

    /// Open a zeroed `size`-byte frame for `fid` at the stack pointer
    /// and return its base (both engines).
    pub(crate) fn push_frame(&mut self, fid: FuncId, size: u64) -> Result<u64, Halt> {
        let base = self.sp;
        if base.saturating_add(size) > layout::STACK_BASE + layout::STACK_SIZE {
            return Err(Trap::StackOverflow.into());
        }
        self.sp = base + size;
        // Zero the frame (stack reuse would otherwise leak prior frames).
        if size > 0 {
            self.write_zeros(base, size)?;
        }
        self.frames.push((base, fid));
        Ok(base)
    }

    /// Close the innermost frame, opened at `base` with `size` bytes:
    /// drop the shadow tags of its granules and reset the stack pointer
    /// (both engines).
    pub(crate) fn pop_frame(&mut self, base: u64, size: u64) {
        self.frames.pop();
        // Removing granules from an empty shadow map is a no-op; skipping
        // it keeps the non-DFI schemes off the hash path entirely.
        if size > 0 && !self.shadow.is_empty() {
            for g in (base >> 3)..=((base + size - 1) >> 3) {
                self.shadow.remove(&g);
            }
        }
        self.sp = base;
    }

    /// Mark PA site `site` ([`DecodedModule::pa_site`]) executed. The
    /// bitset is allocated by the first PA op, so a PA-free run never
    /// pays for it.
    #[inline]
    pub(crate) fn mark_pa_site(&mut self, site: usize) {
        if self.pa_site_bits.is_empty() {
            self.pa_site_bits = vec![0; self.decoded.site_words()];
        }
        self.pa_site_bits[site / 64] |= 1 << (site % 64);
    }

    /// Remaining capacity of the object containing `addr` (for benign
    /// input sizing). Unknown addresses get a conservative 64.
    fn capacity_at(&self, addr: u64) -> u64 {
        if let Some(end) = self.stack_object_end(addr) {
            return end - addr;
        }
        if let Some((base, size)) = self.heap.find_containing(addr) {
            return base + size - addr;
        }
        if let Some((&base, &size)) = self.globals_map.range(..=addr).next_back() {
            if addr < base + size {
                return base + size - addr;
            }
        }
        64
    }

    /// End address of the live stack object containing `addr`, if any.
    ///
    /// Frames are contiguous and pushed at rising bases, and each frame's
    /// objects are disjoint, at least a byte long, and in rising offset
    /// order inside its `frame_size`. So the only object that can contain
    /// `addr` is the one with the greatest start `<= addr` in the topmost
    /// frame whose base is `<= addr`: two binary searches.
    fn stack_object_end(&self, addr: u64) -> Option<u64> {
        let top = self.frames.partition_point(|&(base, _)| base <= addr);
        let &(base, fid) = self.frames.get(top.checked_sub(1)?)?;
        let objects = &self.decoded.layout(fid).objects;
        let off = addr - base;
        let slot = objects[..objects.partition_point(|s| s.off <= off)].last()?;
        (off < slot.off + slot.size).then(|| base + slot.off + slot.size)
    }

    fn shadow_tag(&mut self, addr: u64, len: u64, def_id: u32) {
        if len == 0 {
            return;
        }
        let granules = (addr.saturating_add(len - 1) >> 3) - (addr >> 3) + 1;
        if self.cfg.profile {
            self.profile.shadow.bulk_tags += granules;
        }
        for g in (addr >> 3)..=(addr.saturating_add(len - 1) >> 3) {
            self.shadow.insert(g, def_id);
        }
    }

    fn value_of(&self, f: &pythia_ir::Function, values: &[i64], v: ValueId) -> i64 {
        match &f.value(v).kind {
            ValueKind::ConstInt(c) => *c,
            ValueKind::ConstNull => 0,
            ValueKind::GlobalAddr(g) => self.globals_addr[g.0 as usize] as i64,
            ValueKind::FuncAddr(fid) => (0x4000 + fid.0 as u64 * 16) as i64,
            ValueKind::Arg(_) | ValueKind::Inst(_) => values[v.0 as usize],
        }
    }

    // ---- the interpreter ------------------------------------------------

    #[allow(clippy::too_many_lines)]
    fn exec_function(&mut self, fid: FuncId, args: &[i64], depth: usize) -> Result<i64, Halt> {
        if depth >= self.cfg.max_call_depth {
            return Err(Trap::CallDepthExceeded.into());
        }
        let m = self.module;
        let f = m.func(fid);

        // The dense per-function frame layout (allocas in entry-block
        // order, low to high), computed once at decode time.
        let dm = self.decoded.clone();
        let flayout = dm.layout(fid);
        let size = flayout.frame_size;
        let base = self.push_frame(fid, size)?;
        let mut frame = Frame {
            values: vec![0i64; f.num_values()],
            base,
        };
        for (i, &a) in args.iter().enumerate().take(f.params.len()) {
            frame.values[i] = a;
        }

        let result = self.exec_blocks(fid, &mut frame, flayout, depth);
        self.pop_frame(base, size);
        result
    }

    #[allow(clippy::too_many_lines)]
    fn exec_blocks(
        &mut self,
        fid: FuncId,
        frame: &mut Frame,
        flayout: &FrameLayout,
        depth: usize,
    ) -> Result<i64, Halt> {
        let m = self.module;
        let f = m.func(fid);
        let mut block = f.entry();
        let mut prev: Option<BlockId> = None;

        'blocks: loop {
            // `f` borrows the module (not `self`), so the instruction list
            // can be borrowed across the loop — no per-iteration clone.
            let insts = &f.block(block).insts;

            // Phase 1: evaluate all leading phis simultaneously.
            let mut idx = 0;
            let mut phi_writes: Vec<(ValueId, i64)> = Vec::new();
            while idx < insts.len() {
                let iv = insts[idx];
                match f.inst(iv) {
                    Some(Inst::Phi { incomings }) => {
                        // Both cases below are rejected by the verifier;
                        // running an unverified module is a setup error,
                        // not a panic.
                        let pred = prev.ok_or_else(|| {
                            PythiaError::setup("phi in entry block (module not verified?)")
                                .with_function(f.name.clone())
                                .with_instruction(iv.0)
                        })?;
                        let (_, src) =
                            incomings.iter().find(|(b, _)| *b == pred).ok_or_else(|| {
                                PythiaError::setup(
                                    "phi does not cover predecessor (module not verified?)",
                                )
                                .with_function(f.name.clone())
                                .with_instruction(iv.0)
                            })?;
                        let v = self.value_of(f, &frame.values, *src);
                        phi_writes.push((iv, v));
                        self.metrics.insts += 1;
                        self.charge(self.cost.copy);
                        self.op_counts[MN_PHI] += 1;
                        idx += 1;
                    }
                    _ => break,
                }
            }
            for (iv, v) in phi_writes {
                frame.values[iv.0 as usize] = v;
            }

            // Phase 2: straight-line execution.
            for &iv in &insts[idx..] {
                if self.metrics.insts >= self.cfg.max_insts {
                    return Err(Trap::InstBudgetExhausted.into());
                }
                self.metrics.insts += 1;
                // Borrow the instruction (legacy used to clone it here —
                // one `Inst` clone per executed instruction).
                let inst = f.inst(iv).ok_or_else(|| {
                    PythiaError::internal("block member is not an instruction")
                        .with_function(f.name.clone())
                        .with_instruction(iv.0)
                })?;
                if self.trace_on {
                    self.push_trace(fid, iv, inst.mnemonic());
                }
                self.charge(self.cost.base_cost(inst));
                self.op_counts[op_class(inst) as usize] += 1;

                match inst {
                    Inst::Alloca { .. } => {
                        let off = flayout.offset_of(iv).ok_or_else(|| {
                            PythiaError::internal("alloca missing from frame layout")
                                .with_function(f.name.clone())
                                .with_instruction(iv.0)
                        })?;
                        frame.values[iv.0 as usize] = frame.base.saturating_add(off) as i64;
                    }
                    Inst::Load { ptr } => {
                        let addr = self.value_of(f, &frame.values, *ptr) as u64;
                        let size = f.value(iv).ty.size().clamp(1, 8);
                        frame.values[iv.0 as usize] = self.mem_read(addr, size)?;
                    }
                    Inst::Store { ptr, value } => {
                        let addr = self.value_of(f, &frame.values, *ptr) as u64;
                        let v = self.value_of(f, &frame.values, *value);
                        let size = f.value(*value).ty.size().clamp(1, 8);
                        self.mem_write(addr, size, v)?;
                    }
                    Inst::Gep { base, index, elem } => {
                        let b = self.value_of(f, &frame.values, *base);
                        let i = self.value_of(f, &frame.values, *index);
                        frame.values[iv.0 as usize] =
                            b.wrapping_add(i.wrapping_mul(elem.size().max(1) as i64));
                    }
                    Inst::FieldAddr { base, field } => {
                        let b = self.value_of(f, &frame.values, *base) as u64;
                        let off = match f.value(*base).ty.pointee() {
                            // An out-of-range field index (unverified input)
                            // falls through to the flat fallback instead of
                            // panicking inside `field_offset`.
                            Some(s @ Ty::Struct(fields)) if (*field as usize) < fields.len() => {
                                s.field_offset(*field)
                            }
                            _ => u64::from(*field).saturating_mul(8),
                        };
                        frame.values[iv.0 as usize] = b.wrapping_add(off) as i64;
                    }
                    Inst::Bin { op, lhs, rhs } => {
                        let a = self.value_of(f, &frame.values, *lhs);
                        let b = self.value_of(f, &frame.values, *rhs);
                        let raw = eval_bin(*op, a, b).ok_or(Trap::DivByZero)?;
                        frame.values[iv.0 as usize] = f.value(iv).ty.wrap(raw);
                    }
                    Inst::Icmp { pred, lhs, rhs } => {
                        let a = self.value_of(f, &frame.values, *lhs);
                        let b = self.value_of(f, &frame.values, *rhs);
                        frame.values[iv.0 as usize] = i64::from(pred.eval(a, b));
                    }
                    Inst::Cast { kind, value, to } => {
                        let v = self.value_of(f, &frame.values, *value);
                        frame.values[iv.0 as usize] = eval_cast(*kind, v, to);
                    }
                    Inst::Select {
                        cond,
                        on_true,
                        on_false,
                    } => {
                        let c = self.value_of(f, &frame.values, *cond);
                        frame.values[iv.0 as usize] = if c != 0 {
                            self.value_of(f, &frame.values, *on_true)
                        } else {
                            self.value_of(f, &frame.values, *on_false)
                        };
                    }
                    Inst::Phi { incomings } => {
                        // A phi after a non-phi: treat as copy from pred.
                        let pred = prev.ok_or_else(|| {
                            PythiaError::setup("phi in entry block (module not verified?)")
                                .with_function(f.name.clone())
                                .with_instruction(iv.0)
                        })?;
                        if let Some((_, src)) = incomings.iter().find(|(b, _)| *b == pred) {
                            frame.values[iv.0 as usize] = self.value_of(f, &frame.values, *src);
                        }
                    }
                    Inst::PacSign {
                        value,
                        key,
                        modifier,
                    } => {
                        self.mark_pa_site(self.decoded.pa_site(fid, iv));
                        self.pa_key_counts[*key as usize] += 1;
                        let v = self.value_of(f, &frame.values, *value) as u64;
                        let md = self.value_of(f, &frame.values, *modifier) as u64;
                        let signed = self.pa.sign(*key, v, md);
                        self.witness_ga_sign(*key, md, signed);
                        frame.values[iv.0 as usize] = signed as i64;
                    }
                    Inst::PacAuth {
                        value,
                        key,
                        modifier,
                    } => {
                        self.mark_pa_site(self.decoded.pa_site(fid, iv));
                        self.pa_key_counts[*key as usize] += 1;
                        let v = self.value_of(f, &frame.values, *value) as u64;
                        let md = self.value_of(f, &frame.values, *modifier) as u64;
                        match self.pa.auth(*key, v, md) {
                            Ok(raw) => frame.values[iv.0 as usize] = raw as i64,
                            Err(_) => return Err(Trap::PacAuthFailure { key: *key }.into()),
                        }
                    }
                    Inst::PacStrip { value } => {
                        self.mark_pa_site(self.decoded.pa_site(fid, iv));
                        let v = self.value_of(f, &frame.values, *value) as u64;
                        frame.values[iv.0 as usize] = self.pa.strip(v) as i64;
                    }
                    Inst::SetDef { ptr, def_id } => {
                        let addr = self.value_of(f, &frame.values, *ptr) as u64;
                        self.shadow.insert(addr >> 3, *def_id);
                    }
                    Inst::ChkDef { ptr, allowed } => {
                        let addr = self.value_of(f, &frame.values, *ptr) as u64;
                        if let Some(&found) = self.shadow.get(&(addr >> 3)) {
                            if !allowed.contains(&found) {
                                return Err(Trap::DfiViolation { found }.into());
                            }
                        }
                    }
                    Inst::Call { callee, args } => {
                        let argv: Vec<i64> = args
                            .iter()
                            .map(|a| self.value_of(f, &frame.values, *a))
                            .collect();
                        let ret = match callee {
                            Callee::Func(target) => {
                                self.exec_function(*target, &argv, depth + 1)?
                            }
                            Callee::Intrinsic(i) => self.exec_intrinsic(fid, iv, *i, &argv)?,
                            Callee::Indirect(v) => {
                                let addr = self.value_of(f, &frame.values, *v) as u64;
                                if addr < 0x4000 || !(addr - 0x4000).is_multiple_of(16) {
                                    return Err(Trap::BadIndirectCall.into());
                                }
                                let target = FuncId(((addr - 0x4000) / 16) as u32);
                                if target.0 as usize >= m.functions().len() {
                                    return Err(Trap::BadIndirectCall.into());
                                }
                                self.exec_function(target, &argv, depth + 1)?
                            }
                        };
                        frame.values[iv.0 as usize] = ret;
                        if self.halted.is_some() {
                            return Ok(0);
                        }
                    }
                    Inst::Br {
                        cond,
                        then_bb,
                        else_bb,
                    } => {
                        let c = self.value_of(f, &frame.values, *cond);
                        prev = Some(block);
                        block = if c != 0 { *then_bb } else { *else_bb };
                        continue 'blocks;
                    }
                    Inst::Jmp { target } => {
                        prev = Some(block);
                        block = *target;
                        continue 'blocks;
                    }
                    Inst::Ret { value } => {
                        let v = value
                            .map(|v| self.value_of(f, &frame.values, v))
                            .unwrap_or(0);
                        return Ok(v);
                    }
                    Inst::Unreachable => return Err(Trap::Abort.into()),
                }
            }
            // Falling off a block without a terminator is a verifier error;
            // treat as abort to stay safe.
            return Err(Trap::Abort.into());
        }
    }

    // ---- intrinsics -----------------------------------------------------

    #[allow(clippy::too_many_lines)]
    pub(crate) fn exec_intrinsic(
        &mut self,
        fid: FuncId,
        call: ValueId,
        i: Intrinsic,
        args: &[i64],
    ) -> Result<i64, Halt> {
        self.charge(self.cost.libcall);
        self.intrinsic_counts[intrinsic_slot(i)] += 1;
        let arg = |n: usize| args.get(n).copied().unwrap_or(0);
        let uarg = |n: usize| arg(n) as u64;
        // Bulk lengths beyond the instruction budget would materialize
        // absurd host-side buffers (an adversarial `memset(p, 0, 2^60)`);
        // treat them as budget exhaustion before allocating anything.
        let bulk_limit = self.cfg.max_insts;

        // Helper-free writing: the borrow checker dislikes closures here.
        macro_rules! bulk_write {
            ($dst:expr, $bytes:expr, $nul:expr) => {{
                let dst: u64 = $dst;
                let bytes: &[u8] = $bytes;
                self.metrics.ic_writes += 1;
                let mc = self.cost.bulk_per_byte * bytes.len() as u64;
                self.charge(mc);
                let extra = self.cache_range(dst, bytes.len() as u64 + 1);
                self.charge(extra);
                self.mem.write_bytes(dst, bytes)?;
                if $nul {
                    let nul_addr = dst.checked_add(bytes.len() as u64).ok_or(MemoryFault {
                        addr: u64::MAX,
                        write: true,
                    })?;
                    self.mem.write_u8(nul_addr, 0)?;
                }
                let len = bytes.len() as u64 + if $nul { 1 } else { 0 };
                self.shadow_tag(dst, len, dfi_def_id(fid, call));
                bytes.len() as i64
            }};
        }

        let next_ic = |vm: &mut Vm<'m>| {
            let n = vm.ic_write_counter;
            vm.ic_write_counter += 1;
            n
        };

        match i {
            // ---- print class: read-only channels ----
            Intrinsic::Printf | Intrinsic::Fprintf | Intrinsic::Puts => {
                let fmt_addr = if i == Intrinsic::Fprintf {
                    uarg(1)
                } else {
                    uarg(0)
                };
                let s = self.mem.read_cstr(fmt_addr, 256)?;
                self.charge(self.cost.bulk_per_byte * s.len() as u64);
                Ok(s.len() as i64)
            }
            // ---- scan class ----
            Intrinsic::Scanf | Intrinsic::Sscanf => {
                let dst = if i == Intrinsic::Scanf {
                    uarg(1)
                } else {
                    uarg(2)
                };
                let n = next_ic(self);
                self.witness_ic_write(n, dst, 8);
                match self.plan.int_input(n) {
                    IntOrPayload::Int(v) => {
                        self.metrics.ic_writes += 1;
                        let extra = self.cache_access(dst);
                        self.charge(extra);
                        self.mem.write_scalar(dst, 8, v)?;
                        self.shadow_tag(dst, 8, dfi_def_id(fid, call));
                        Ok(1)
                    }
                    IntOrPayload::Payload(p) => {
                        bulk_write!(dst, &p, false);
                        Ok(1)
                    }
                }
            }
            // ---- get class ----
            Intrinsic::Gets => {
                let dst = uarg(0);
                let n = next_ic(self);
                let cap = self.capacity_at(dst);
                self.witness_ic_write(n, dst, cap);
                let bytes = self.plan.string_input(n, cap);
                bulk_write!(dst, &bytes, true);
                Ok(dst as i64)
            }
            Intrinsic::Fgets => {
                let dst = uarg(0);
                let limit = uarg(1).max(1);
                let n = next_ic(self);
                let cap = self.capacity_at(dst).min(limit);
                self.witness_ic_write(n, dst, cap);
                let bytes = self.plan.string_input(n, cap);
                bulk_write!(dst, &bytes, true);
                Ok(dst as i64)
            }
            Intrinsic::Read => {
                let dst = uarg(1);
                let limit = uarg(2);
                let n = next_ic(self);
                let cap = self.capacity_at(dst).min(limit.max(1));
                self.witness_ic_write(n, dst, cap);
                let bytes = self.plan.string_input(n, cap + 1);
                let written = bulk_write!(dst, &bytes, false);
                Ok(written)
            }
            // ---- move/copy class ----
            Intrinsic::Memcpy | Intrinsic::Memmove => {
                let dst = uarg(0);
                let src = uarg(1);
                let len = uarg(2);
                if len > bulk_limit {
                    return Err(Trap::InstBudgetExhausted.into());
                }
                let n = next_ic(self);
                self.witness_ic_write(n, dst, len);
                let bytes = match self.plan.attack_for(n) {
                    Some(a) => a.payload.clone(),
                    None => self.mem.read_bytes(src, len)?,
                };
                let extra = self.cache_range(src, bytes.len() as u64);
                self.charge(extra);
                bulk_write!(dst, &bytes, false);
                Ok(dst as i64)
            }
            Intrinsic::Strcpy => {
                let dst = uarg(0);
                let src = uarg(1);
                let n = next_ic(self);
                let bytes = match self.plan.attack_for(n) {
                    Some(a) => a.payload.clone(),
                    None => self.mem.read_cstr(src, 1 << 16)?,
                };
                let extra = self.cache_range(src, bytes.len() as u64);
                self.charge(extra);
                bulk_write!(dst, &bytes, true);
                Ok(dst as i64)
            }
            Intrinsic::Strncpy | Intrinsic::Sstrncpy => {
                let dst = uarg(0);
                let src = uarg(1);
                let limit = uarg(2);
                let n = next_ic(self);
                let mut bytes = match self.plan.attack_for(n) {
                    Some(a) => a.payload.clone(),
                    None => self.mem.read_cstr(src, 1 << 16)?,
                };
                if self.plan.attack_for(n).is_none() {
                    bytes.truncate(limit as usize);
                }
                let extra = self.cache_range(src, bytes.len() as u64);
                self.charge(extra);
                bulk_write!(dst, &bytes, true);
                Ok(dst as i64)
            }
            // ---- put class ----
            Intrinsic::Strcat | Intrinsic::Strncat => {
                let dst = uarg(0);
                let src = uarg(1);
                let n = next_ic(self);
                let existing = self.mem.read_cstr(dst, 1 << 16)?;
                let mut bytes = match self.plan.attack_for(n) {
                    Some(a) => a.payload.clone(),
                    None => self.mem.read_cstr(src, 1 << 16)?,
                };
                if i == Intrinsic::Strncat && self.plan.attack_for(n).is_none() {
                    bytes.truncate(uarg(2) as usize);
                }
                bulk_write!(dst + existing.len() as u64, &bytes, true);
                Ok(dst as i64)
            }
            Intrinsic::Sprintf => {
                let dst = uarg(0);
                let n = next_ic(self);
                let bytes = match self.plan.attack_for(n) {
                    Some(a) => a.payload.clone(),
                    None => {
                        let mut s = Vec::new();
                        for (k, a) in args.iter().enumerate().skip(1) {
                            if k > 1 {
                                s.push(b' ');
                            }
                            s.extend_from_slice(a.to_string().as_bytes());
                        }
                        s
                    }
                };
                bulk_write!(dst, &bytes, true);
                Ok(bytes.len() as i64)
            }
            // ---- map class ----
            Intrinsic::Mmap => {
                let len = uarg(0).max(1);
                self.metrics.ic_writes += 1;
                let _ = next_ic(self);
                Ok(self.heap.alloc(Section::Shared, len).unwrap_or(0) as i64)
            }
            // ---- allocation ----
            Intrinsic::Malloc => {
                let len = uarg(0).max(1);
                Ok(self.heap.alloc(Section::Shared, len).unwrap_or(0) as i64)
            }
            Intrinsic::SecureMalloc => {
                self.charge(self.cost.secure_malloc_extra);
                let len = uarg(0).max(1);
                Ok(self.heap.alloc(Section::Isolated, len).unwrap_or(0) as i64)
            }
            Intrinsic::Calloc => {
                let len = uarg(0).saturating_mul(uarg(1)).max(1);
                match self.heap.alloc(Section::Shared, len) {
                    Some(p) => {
                        let zeros = vec![0u8; len as usize];
                        self.mem.write_bytes(p, &zeros)?;
                        Ok(p as i64)
                    }
                    None => Ok(0),
                }
            }
            Intrinsic::Realloc => {
                let old = uarg(0);
                let len = uarg(1).max(1);
                if old == 0 {
                    return Ok(self.heap.alloc(Section::Shared, len).unwrap_or(0) as i64);
                }
                let old_size = self.heap.allocated_size(old).unwrap_or(0);
                let section = self.heap.section_of(old).unwrap_or(Section::Shared);
                match self.heap.alloc(section, len) {
                    Some(p) => {
                        let n = old_size.min(len);
                        let bytes = self.mem.read_bytes(old, n)?;
                        self.mem.write_bytes(p, &bytes)?;
                        let _ = self.heap.free(old);
                        Ok(p as i64)
                    }
                    None => Ok(0),
                }
            }
            Intrinsic::Free => {
                let p = uarg(0);
                if p == 0 {
                    return Ok(0);
                }
                match self.heap.free(p) {
                    Ok(_) => Ok(0),
                    Err(_) => Err(Trap::InvalidFree { addr: p }.into()),
                }
            }
            // ---- string helpers ----
            Intrinsic::Strlen => {
                let p = uarg(0);
                let s = self.mem.read_cstr(p, 1 << 20)?;
                self.charge(self.cost.bulk_per_byte * s.len() as u64);
                let extra = self.cache_range(p, s.len() as u64 + 1);
                self.charge(extra);
                Ok(s.len() as i64)
            }
            Intrinsic::Strcmp | Intrinsic::Strncmp => {
                let a = self.mem.read_cstr(uarg(0), 1 << 16)?;
                let b = self.mem.read_cstr(uarg(1), 1 << 16)?;
                let (a, b) = if i == Intrinsic::Strncmp {
                    let n = uarg(2) as usize;
                    (a[..a.len().min(n)].to_vec(), b[..b.len().min(n)].to_vec())
                } else {
                    (a, b)
                };
                self.charge(self.cost.bulk_per_byte * (a.len() + b.len()) as u64);
                Ok(match a.cmp(&b) {
                    std::cmp::Ordering::Less => -1,
                    std::cmp::Ordering::Equal => 0,
                    std::cmp::Ordering::Greater => 1,
                })
            }
            Intrinsic::Memset => {
                let dst = uarg(0);
                let byte = (arg(1) & 0xff) as u8;
                let len = uarg(2);
                if len > bulk_limit {
                    return Err(Trap::InstBudgetExhausted.into());
                }
                let bytes = vec![byte; len as usize];
                let _ = next_ic(self);
                bulk_write!(dst, &bytes, false);
                Ok(dst as i64)
            }
            // ---- process control ----
            Intrinsic::Exit => {
                self.halted = Some(arg(0));
                Ok(0)
            }
            Intrinsic::Abort => Err(Trap::Abort.into()),
            // ---- runtime support ----
            Intrinsic::PythiaRandom => {
                self.charge(self.cost.random_call);
                Ok((self.rng.gen::<u64>() & self.pa.config().va_mask()) as i64)
            }
            Intrinsic::HeapSectionInit => {
                self.charge(self.cost.section_init);
                self.heap.record_init_call();
                Ok(0)
            }
            // `Intrinsic` is #[non_exhaustive]; future library functions
            // default to a no-op returning 0.
            _ => Ok(0),
        }
    }
}

/// Slots of the dense intrinsic histogram: one per [`Intrinsic`]
/// discriminant, `heap_section_init` being the last.
const N_INTRINSICS: usize = Intrinsic::HeapSectionInit as usize + 1;

/// Every intrinsic the histogram folds, in slot order: [`Intrinsic::ALL`]
/// (the library functions) plus the instrumentation's section setup call.
const INTRINSICS: [Intrinsic; N_INTRINSICS] = {
    let mut all = [Intrinsic::HeapSectionInit; N_INTRINSICS];
    let mut k = 0;
    while k < Intrinsic::ALL.len() {
        all[k] = Intrinsic::ALL[k];
        k += 1;
    }
    all
};

/// The histogram slot of intrinsic `i`.
#[inline]
fn intrinsic_slot(i: Intrinsic) -> usize {
    i as usize
}

pub(crate) fn eval_bin(op: BinOp, a: i64, b: i64) -> Option<i64> {
    Some(match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Sdiv => {
            if b == 0 {
                return None;
            }
            a.wrapping_div(b)
        }
        BinOp::Srem => {
            if b == 0 {
                return None;
            }
            a.wrapping_rem(b)
        }
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Shl => a.wrapping_shl(b as u32 & 63),
        BinOp::Ashr => a.wrapping_shr(b as u32 & 63),
        BinOp::Lshr => ((a as u64).wrapping_shr(b as u32 & 63)) as i64,
    })
}

pub(crate) fn eval_cast(kind: CastKind, v: i64, to: &Ty) -> i64 {
    match kind {
        CastKind::Zext => match to.bits() {
            Some(64) | None => v,
            Some(_) => v, // value already narrowed at producer
        },
        CastKind::Sext | CastKind::Trunc => to.wrap(v),
        CastKind::PtrToInt | CastKind::IntToPtr | CastKind::Bitcast => v,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::AttackSpec;
    use pythia_ir::{CmpPred, FunctionBuilder};

    fn run_module(m: &Module, entry: &str, args: &[i64]) -> RunResult {
        let mut vm = Vm::new(m, VmConfig::default(), InputPlan::benign(1));
        vm.run(entry, args).unwrap()
    }

    #[test]
    fn arithmetic_and_return() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("main", vec![], Ty::I64);
        let a = b.const_i64(6);
        let c = b.const_i64(7);
        let p = b.mul(a, c);
        b.ret(Some(p));
        m.add_function(b.finish());
        assert_eq!(run_module(&m, "main", &[]).exit, ExitReason::Returned(42));
    }

    #[test]
    fn loads_and_stores_round_trip() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("main", vec![], Ty::I64);
        let slot = b.alloca(Ty::I64);
        let v = b.const_i64(-99);
        b.store(v, slot);
        let l = b.load(slot);
        b.ret(Some(l));
        m.add_function(b.finish());
        assert_eq!(run_module(&m, "main", &[]).exit, ExitReason::Returned(-99));
    }

    #[test]
    fn narrow_types_wrap() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("main", vec![], Ty::I64);
        let slot = b.alloca(Ty::I8);
        let v = b.const_int(Ty::I8, 200); // 200 as i8 = -56
        b.store(v, slot);
        let l = b.load(slot);
        let wide = b.cast(CastKind::Sext, l, Ty::I64);
        b.ret(Some(wide));
        m.add_function(b.finish());
        assert_eq!(run_module(&m, "main", &[]).exit, ExitReason::Returned(-56));
    }

    #[test]
    fn loop_with_phi_counts_to_ten() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("main", vec![], Ty::I64);
        let body = b.new_block("body");
        let exit = b.new_block("exit");
        let zero = b.const_i64(0);
        let one = b.const_i64(1);
        let ten = b.const_i64(10);
        b.jmp(body);
        b.switch_to(body);
        // i = phi [entry: 0], [body: i+1]
        let f = b.func_mut();
        let _ = f; // keep builder API
        let phi = {
            // build phi with forward ref to the add
            let entry = pythia_ir::BlockId(0);
            b.phi(vec![(entry, zero)])
        };
        let next = b.add(phi, one);
        // patch the phi to include the loop edge
        if let Some(Inst::Phi { incomings }) = b.func_mut().inst_mut(phi) {
            incomings.push((body, next));
        }
        let c = b.icmp(CmpPred::Slt, next, ten);
        b.br(c, body, exit);
        b.switch_to(exit);
        b.ret(Some(next));
        m.add_function(b.finish());
        let r = run_module(&m, "main", &[]);
        assert_eq!(r.exit, ExitReason::Returned(10));
        assert!(r.metrics.branches >= 9);
    }

    #[test]
    fn function_calls_pass_arguments() {
        let mut m = Module::new("m");
        let mut cb = FunctionBuilder::new("addmul", vec![Ty::I64, Ty::I64], Ty::I64);
        let x = cb.func().arg(0);
        let y = cb.func().arg(1);
        let s = cb.add(x, y);
        let p = cb.mul(s, y);
        cb.ret(Some(p));
        let callee = m.add_function(cb.finish());
        let mut b = FunctionBuilder::new("main", vec![], Ty::I64);
        let a1 = b.const_i64(3);
        let a2 = b.const_i64(4);
        let r = b.call(callee, vec![a1, a2], Ty::I64);
        b.ret(Some(r));
        m.add_function(b.finish());
        assert_eq!(run_module(&m, "main", &[]).exit, ExitReason::Returned(28));
    }

    #[test]
    fn indirect_call_dispatches() {
        let mut m = Module::new("m");
        let mut cb = FunctionBuilder::new("target", vec![Ty::I64], Ty::I64);
        let x = cb.func().arg(0);
        let one = cb.const_i64(1);
        let r = cb.add(x, one);
        cb.ret(Some(r));
        let target = m.add_function(cb.finish());
        let mut b = FunctionBuilder::new("main", vec![], Ty::I64);
        let fp = b.func_addr(target);
        let five = b.const_i64(5);
        let r = b.call_indirect(fp, vec![five], Ty::I64);
        b.ret(Some(r));
        m.add_function(b.finish());
        assert_eq!(run_module(&m, "main", &[]).exit, ExitReason::Returned(6));
    }

    #[test]
    fn division_by_zero_traps() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("main", vec![Ty::I64], Ty::I64);
        let one = b.const_i64(1);
        let x = b.func().arg(0);
        let d = b.bin(BinOp::Sdiv, one, x);
        b.ret(Some(d));
        m.add_function(b.finish());
        assert_eq!(
            run_module(&m, "main", &[0]).exit,
            ExitReason::Trapped(Trap::DivByZero)
        );
        assert_eq!(run_module(&m, "main", &[1]).exit, ExitReason::Returned(1));
    }

    #[test]
    fn null_deref_faults() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("main", vec![], Ty::I64);
        let null = b.const_null(Ty::ptr(Ty::I64));
        let v = b.load(null);
        b.ret(Some(v));
        m.add_function(b.finish());
        assert!(matches!(
            run_module(&m, "main", &[]).exit,
            ExitReason::Trapped(Trap::MemoryFault {
                addr: 0,
                write: false
            })
        ));
    }

    #[test]
    fn exit_intrinsic_halts() {
        let mut m = Module::new("m");
        let mut cb = FunctionBuilder::new("die", vec![], Ty::Void);
        let code = cb.const_i64(7);
        cb.call_intrinsic(Intrinsic::Exit, vec![code], Ty::Void);
        cb.ret(None);
        let die = m.add_function(cb.finish());
        let mut b = FunctionBuilder::new("main", vec![], Ty::I64);
        b.call(die, vec![], Ty::Void);
        let never = b.const_i64(123);
        b.ret(Some(never));
        m.add_function(b.finish());
        assert_eq!(run_module(&m, "main", &[]).exit, ExitReason::Exited(7));
    }

    #[test]
    fn gets_overflow_corrupts_adjacent_alloca() {
        // Frame: buf[8], sentinel i64. Benign run leaves the sentinel 0;
        // a 24-byte payload smashes through it.
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("main", vec![], Ty::I64);
        let buf = b.alloca(Ty::array(Ty::I8, 8));
        let sentinel = b.alloca(Ty::I64);
        b.call_intrinsic(Intrinsic::Gets, vec![buf], Ty::ptr(Ty::I8));
        let v = b.load(sentinel);
        b.ret(Some(v));
        m.add_function(b.finish());

        let benign = run_module(&m, "main", &[]);
        assert_eq!(benign.exit, ExitReason::Returned(0));

        let mut vm = Vm::new(
            &m,
            VmConfig::default(),
            InputPlan::with_attack(1, AttackSpec::smash(0, 24)),
        );
        let attacked = vm.run("main", &[]).unwrap();
        assert!(
            matches!(attacked.exit, ExitReason::Returned(v) if v != 0),
            "sentinel must be corrupted, got {:?}",
            attacked.exit
        );
    }

    #[test]
    fn bulk_writes_to_wrapping_destinations_trap_on_both_engines() {
        // A 24-byte payload written at the top of the address space (or
        // of the VA) faults as data: the cache model's line range must
        // not overflow first, in debug and release builds alike.
        for dst in [u64::MAX - 15, u64::MAX, (1 << 40) - 4] {
            for intrinsic in [Intrinsic::Gets, Intrinsic::Read, Intrinsic::Memcpy] {
                let mut m = Module::new("m");
                let mut b = FunctionBuilder::new("main", vec![], Ty::I64);
                let src = b.alloca(Ty::array(Ty::I8, 32));
                let k = b.const_i64(dst as i64);
                let p = b.cast(CastKind::IntToPtr, k, Ty::ptr(Ty::I8));
                let n = b.const_i64(32);
                let args = match intrinsic {
                    Intrinsic::Gets => vec![p],
                    Intrinsic::Read => vec![b.const_i64(0), p, n],
                    _ => vec![p, src, n],
                };
                b.call_intrinsic(intrinsic, args, Ty::I64);
                let zero = b.const_i64(0);
                b.ret(Some(zero));
                m.add_function(b.finish());
                for engine in [Engine::Legacy, Engine::Block] {
                    let cfg = VmConfig {
                        engine,
                        ..VmConfig::default()
                    };
                    let plan = InputPlan::with_attack(1, AttackSpec::smash(0, 24));
                    let exit = Vm::new(&m, cfg, plan).run("main", &[]).map(|r| r.exit);
                    assert!(
                        matches!(
                            exit,
                            Ok(ExitReason::Trapped(Trap::MemoryFault { write: true, .. }))
                        ),
                        "{intrinsic:?} to {dst:#x} on {engine:?}: {exit:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn strcpy_copies_between_buffers() {
        let mut m = Module::new("m");
        let g = m.add_str_global("src", "hello");
        let mut b = FunctionBuilder::new("main", vec![], Ty::I64);
        let dst = b.alloca(Ty::array(Ty::I8, 16));
        let ga = b.global_addr(g, Ty::array(Ty::I8, 6));
        b.call_intrinsic(Intrinsic::Strcpy, vec![dst, ga], Ty::ptr(Ty::I8));
        let len = b.call_intrinsic(Intrinsic::Strlen, vec![dst], Ty::I64);
        b.ret(Some(len));
        m.add_function(b.finish());
        assert_eq!(run_module(&m, "main", &[]).exit, ExitReason::Returned(5));
    }

    #[test]
    fn intrinsic_histogram_folds_every_slot() {
        for (k, i) in INTRINSICS.into_iter().enumerate() {
            assert_eq!(intrinsic_slot(i), k, "{}", i.name());
        }
        let mut m = Module::new("m");
        let g = m.add_str_global("src", "hi");
        let mut b = FunctionBuilder::new("main", vec![], Ty::I64);
        let dst = b.alloca(Ty::array(Ty::I8, 16));
        let ga = b.global_addr(g, Ty::array(Ty::I8, 3));
        for _ in 0..2 {
            b.call_intrinsic(Intrinsic::Strcpy, vec![dst, ga], Ty::ptr(Ty::I8));
        }
        b.call_intrinsic(Intrinsic::HeapSectionInit, vec![], Ty::Void);
        let len = b.call_intrinsic(Intrinsic::Strlen, vec![dst], Ty::I64);
        b.ret(Some(len));
        m.add_function(b.finish());
        for engine in [Engine::Legacy, Engine::Block] {
            let cfg = VmConfig {
                engine,
                ..VmConfig::default()
            };
            let r = Vm::new(&m, cfg, InputPlan::benign(1))
                .run("main", &[])
                .unwrap();
            let want = BTreeMap::from([("heap_section_init", 1), ("strcpy", 2), ("strlen", 1)]);
            assert_eq!(r.profile.intrinsics, want, "{engine:?}");
        }
    }

    #[test]
    fn strcmp_on_globals() {
        let mut m = Module::new("m");
        let g1 = m.add_str_global("a", "admin");
        let g2 = m.add_str_global("b", "admin");
        let g3 = m.add_str_global("c", "user");
        let mut b = FunctionBuilder::new("main", vec![], Ty::I64);
        let p1 = b.global_addr(g1, Ty::array(Ty::I8, 6));
        let p2 = b.global_addr(g2, Ty::array(Ty::I8, 6));
        let p3 = b.global_addr(g3, Ty::array(Ty::I8, 5));
        let eq = b.call_intrinsic(Intrinsic::Strcmp, vec![p1, p2], Ty::I64);
        let ne = b.call_intrinsic(Intrinsic::Strcmp, vec![p1, p3], Ty::I64);
        let hundred = b.const_i64(100);
        let scaled = b.mul(ne, hundred);
        let sum = b.add(eq, scaled);
        b.ret(Some(sum));
        m.add_function(b.finish());
        assert_eq!(run_module(&m, "main", &[]).exit, ExitReason::Returned(-100));
    }

    #[test]
    fn malloc_free_and_heap_isolation() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("main", vec![], Ty::I64);
        let n = b.const_i64(64);
        let shared = b.call_intrinsic(Intrinsic::Malloc, vec![n], Ty::ptr(Ty::I64));
        let iso = b.call_intrinsic(Intrinsic::SecureMalloc, vec![n], Ty::ptr(Ty::I64));
        let v = b.const_i64(11);
        b.store(v, iso);
        let l = b.load(iso);
        b.call_intrinsic(Intrinsic::Free, vec![shared], Ty::Void);
        b.call_intrinsic(Intrinsic::Free, vec![iso], Ty::Void);
        b.ret(Some(l));
        m.add_function(b.finish());
        let r = run_module(&m, "main", &[]);
        assert_eq!(r.exit, ExitReason::Returned(11));
        assert_eq!(r.metrics.heap_shared.allocs, 1);
        assert_eq!(r.metrics.heap_isolated.allocs, 1);
        assert_eq!(r.metrics.heap_isolated.frees, 1);
    }

    #[test]
    fn pac_sign_auth_round_trip_in_program() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("main", vec![], Ty::I64);
        let slot = b.alloca(Ty::I64);
        let secret = b.const_i64(0x1234);
        let md = b.cast(CastKind::PtrToInt, slot, Ty::I64);
        let signed = b.pac_sign(secret, PaKey::Da, md);
        b.store(signed, slot);
        let raw = b.load(slot);
        let authed = b.pac_auth(raw, PaKey::Da, md);
        b.ret(Some(authed));
        m.add_function(b.finish());
        let r = run_module(&m, "main", &[]);
        assert_eq!(r.exit, ExitReason::Returned(0x1234));
        assert_eq!(r.metrics.pa_insts, 2);
    }

    #[test]
    fn pac_auth_detects_overflow_tampering() {
        // Signed value stored below a buffer; a gets() overflow overwrites
        // it; the subsequent pacauth must trap.
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("main", vec![], Ty::I64);
        let buf = b.alloca(Ty::array(Ty::I8, 8));
        let slot = b.alloca(Ty::I64);
        let secret = b.const_i64(0x42);
        let md = b.cast(CastKind::PtrToInt, slot, Ty::I64);
        let signed = b.pac_sign(secret, PaKey::Da, md);
        b.store(signed, slot);
        b.call_intrinsic(Intrinsic::Gets, vec![buf], Ty::ptr(Ty::I8));
        let raw = b.load(slot);
        let authed = b.pac_auth(raw, PaKey::Da, md);
        b.ret(Some(authed));
        m.add_function(b.finish());

        // Benign: authenticates fine.
        assert_eq!(run_module(&m, "main", &[]).exit, ExitReason::Returned(0x42));
        // Attack: overflow rewrites the signed slot -> PAC failure.
        let mut vm = Vm::new(
            &m,
            VmConfig::default(),
            InputPlan::with_attack(1, AttackSpec::smash(0, 32)),
        );
        let r = vm.run("main", &[]).unwrap();
        assert_eq!(
            r.exit,
            ExitReason::Trapped(Trap::PacAuthFailure { key: PaKey::Da })
        );
        assert_eq!(r.detected(), Some(DetectionMechanism::DataPac));
    }

    #[test]
    fn canary_trap_reports_canary_mechanism() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("main", vec![], Ty::I64);
        let buf = b.alloca(Ty::array(Ty::I8, 8));
        let can = b.alloca(Ty::I64);
        let rnd = b.call_intrinsic(Intrinsic::PythiaRandom, vec![], Ty::I64);
        let md = b.cast(CastKind::PtrToInt, can, Ty::I64);
        let signed = b.pac_sign(rnd, PaKey::Ga, md);
        b.store(signed, can);
        b.call_intrinsic(Intrinsic::Gets, vec![buf], Ty::ptr(Ty::I8));
        let raw = b.load(can);
        b.pac_auth(raw, PaKey::Ga, md);
        let zero = b.const_i64(0);
        b.ret(Some(zero));
        m.add_function(b.finish());

        assert_eq!(run_module(&m, "main", &[]).exit, ExitReason::Returned(0));
        let mut vm = Vm::new(
            &m,
            VmConfig::default(),
            InputPlan::with_attack(1, AttackSpec::smash(0, 32)),
        );
        let r = vm.run("main", &[]).unwrap();
        assert_eq!(r.detected(), Some(DetectionMechanism::Canary));
    }

    #[test]
    fn dfi_detects_foreign_write() {
        // Variable x is only legally written by store#1 (def id 7). An IC
        // overflow writes it with the IC's own def id; chkdef must trap.
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("main", vec![], Ty::I64);
        let buf = b.alloca(Ty::array(Ty::I8, 8));
        let x = b.alloca(Ty::I64);
        let five = b.const_i64(5);
        b.store(five, x);
        b.set_def(x, 7);
        b.call_intrinsic(Intrinsic::Gets, vec![buf], Ty::ptr(Ty::I8));
        b.chk_def(x, vec![7]);
        let v = b.load(x);
        b.ret(Some(v));
        m.add_function(b.finish());

        assert_eq!(run_module(&m, "main", &[]).exit, ExitReason::Returned(5));
        let mut vm = Vm::new(
            &m,
            VmConfig::default(),
            InputPlan::with_attack(1, AttackSpec::smash(0, 24)),
        );
        let r = vm.run("main", &[]).unwrap();
        assert!(matches!(
            r.exit,
            ExitReason::Trapped(Trap::DfiViolation { .. })
        ));
        assert_eq!(r.detected(), Some(DetectionMechanism::Dfi));
    }

    #[test]
    fn scanf_writes_plan_integer() {
        let mut m = Module::new("m");
        let fmt = m.add_str_global("fmt", "%d");
        let mut b = FunctionBuilder::new("main", vec![], Ty::I64);
        let x = b.alloca(Ty::I64);
        let ga = b.global_addr(fmt, Ty::array(Ty::I8, 3));
        b.call_intrinsic(Intrinsic::Scanf, vec![ga, x], Ty::I64);
        let v = b.load(x);
        b.ret(Some(v));
        m.add_function(b.finish());
        let r = run_module(&m, "main", &[]);
        assert!(
            matches!(r.exit, ExitReason::Returned(v) if (0..=100).contains(&v)),
            "unexpected {:?}",
            r.exit
        );
        assert_eq!(r.metrics.ic_calls, 1);
        assert_eq!(r.metrics.ic_writes, 1);
    }

    #[test]
    fn instruction_budget_stops_infinite_loop() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("main", vec![], Ty::I64);
        let spin = b.new_block("spin");
        b.jmp(spin);
        b.switch_to(spin);
        b.jmp(spin);
        m.add_function(b.finish());
        let cfg = VmConfig {
            max_insts: 10_000,
            ..VmConfig::default()
        };
        let mut vm = Vm::new(&m, cfg, InputPlan::benign(1));
        assert_eq!(
            vm.run("main", &[]).unwrap().exit,
            ExitReason::Trapped(Trap::InstBudgetExhausted)
        );
    }

    #[test]
    fn recursion_depth_limit() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("rec", vec![Ty::I64], Ty::I64);
        let x = b.func().arg(0);
        let r = b.call(pythia_ir::FuncId(0), vec![x], Ty::I64);
        b.ret(Some(r));
        m.add_function(b.finish());
        let mut vm = Vm::new(&m, VmConfig::default(), InputPlan::benign(1));
        assert_eq!(
            vm.run("rec", &[1]).unwrap().exit,
            ExitReason::Trapped(Trap::CallDepthExceeded)
        );
    }

    #[test]
    fn metrics_account_cycles_and_ipc() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("main", vec![], Ty::I64);
        let slot = b.alloca(Ty::I64);
        let mut v = b.const_i64(0);
        let one = b.const_i64(1);
        for _ in 0..10 {
            v = b.add(v, one);
            b.store(v, slot);
        }
        let l = b.load(slot);
        b.ret(Some(l));
        m.add_function(b.finish());
        let r = run_module(&m, "main", &[]);
        assert_eq!(r.exit, ExitReason::Returned(10));
        assert!(r.metrics.cycles() > 0);
        let ipc = r.metrics.ipc();
        assert!(ipc > 0.0 && ipc < 6.0, "IPC {ipc} out of plausible range");
        assert_eq!(r.metrics.stores, 10);
        assert!(r.metrics.cache.accesses > 0);
    }

    #[test]
    fn stale_stack_shadow_cleared_between_calls() {
        // A callee setdefs its local; a second call to another function
        // reusing the same stack slot must not see the stale def.
        let mut m = Module::new("m");
        let mut f1 = FunctionBuilder::new("writer", vec![], Ty::Void);
        let a = f1.alloca(Ty::I64);
        f1.set_def(a, 99);
        f1.ret(None);
        let writer = m.add_function(f1.finish());
        let mut f2 = FunctionBuilder::new("checker", vec![], Ty::Void);
        let a2 = f2.alloca(Ty::I64);
        f2.chk_def(a2, vec![1]); // would trap if def 99 leaked through
        f2.ret(None);
        let checker = m.add_function(f2.finish());
        let mut b = FunctionBuilder::new("main", vec![], Ty::I64);
        b.call(writer, vec![], Ty::Void);
        b.call(checker, vec![], Ty::Void);
        let zero = b.const_i64(0);
        b.ret(Some(zero));
        m.add_function(b.finish());
        assert_eq!(run_module(&m, "main", &[]).exit, ExitReason::Returned(0));
    }

    #[test]
    fn missing_entry_is_a_setup_error_not_a_panic() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("main", vec![], Ty::I64);
        let z = b.const_i64(0);
        b.ret(Some(z));
        m.add_function(b.finish());
        let mut vm = Vm::new(&m, VmConfig::default(), InputPlan::benign(1));
        let err = vm.run("nope", &[]).unwrap_err();
        assert_eq!(err.variant(), "setup");
        assert_eq!(err.context().function.as_deref(), Some("nope"));
    }

    #[test]
    fn duplicate_entry_is_a_setup_error() {
        let mut m = Module::new("m");
        for _ in 0..2 {
            let mut b = FunctionBuilder::new("main", vec![], Ty::I64);
            let z = b.const_i64(0);
            b.ret(Some(z));
            m.add_function(b.finish());
        }
        let mut vm = Vm::new(&m, VmConfig::default(), InputPlan::benign(1));
        let err = vm.run("main", &[]).unwrap_err();
        assert_eq!(err.variant(), "setup");
        assert!(err.to_string().contains("2 functions"));
    }

    #[test]
    fn odd_width_load_traps_instead_of_panicking() {
        // A load typed [3 x i8] clamps to a 3-byte scalar access, which
        // the machine model rejects as a trap (previously a panic).
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("main", vec![], Ty::I64);
        let slot = b.alloca(Ty::array(Ty::I8, 3));
        let p = b.cast(CastKind::Bitcast, slot, Ty::ptr(Ty::array(Ty::I8, 3)));
        let v = b.load(p);
        let w = b.cast(CastKind::Bitcast, v, Ty::I64);
        b.ret(Some(w));
        m.add_function(b.finish());
        let r = run_module(&m, "main", &[]);
        assert!(matches!(
            r.exit,
            ExitReason::Trapped(Trap::UnsupportedScalarSize { size: 3, .. })
        ));
    }

    #[test]
    fn trap_classification_maps_to_taxonomy() {
        let canary = Trap::PacAuthFailure { key: PaKey::Ga }.to_error();
        assert_eq!(canary.variant(), "detection");
        assert!(canary.to_string().contains("canary"));
        let pac = Trap::PacAuthFailure { key: PaKey::Da }.to_error();
        assert!(pac.to_string().contains("data-pac"));
        let dfi = Trap::DfiViolation { found: 3 }.to_error();
        assert!(dfi.to_string().contains("dfi"));
        let fault = Trap::MemoryFault {
            addr: 0x42,
            write: true,
        }
        .to_error();
        assert_eq!(fault.variant(), "fault");
        assert_eq!(fault.context().address, Some(0x42));
    }

    #[test]
    fn signed_pointer_dereference_without_auth_faults() {
        // Using a PAC-signed pointer directly as an address must fault
        // (the PAC bits make it non-canonical) — hardware-faithful.
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("main", vec![], Ty::I64);
        let slot = b.alloca(Ty::I64);
        let md = b.const_i64(0);
        let p = b.cast(CastKind::PtrToInt, slot, Ty::I64);
        let signed = b.pac_sign(p, PaKey::Da, md);
        let bad = b.cast(CastKind::IntToPtr, signed, Ty::ptr(Ty::I64));
        let v = b.load(bad);
        b.ret(Some(v));
        m.add_function(b.finish());
        assert!(matches!(
            run_module(&m, "main", &[]).exit,
            ExitReason::Trapped(Trap::MemoryFault { .. })
        ));
    }
}

#[cfg(test)]
mod capacity_tests {
    use super::*;
    use pythia_ir::FunctionBuilder;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// `capacity_at` as it was with a live-object map: the greatest
    /// stack object start `<= addr` across every live frame, then the
    /// heap, then the globals.
    fn reference(vm: &Vm<'_>, objects: &BTreeMap<u64, u64>, addr: u64) -> u64 {
        if let Some((&base, &size)) = objects.range(..=addr).next_back() {
            if addr < base + size {
                return base + size - addr;
            }
        }
        if let Some((base, size)) = vm.heap.find_containing(addr) {
            return base + size - addr;
        }
        if let Some((&base, &size)) = vm.globals_map.range(..=addr).next_back() {
            if addr < base + size {
                return base + size - addr;
            }
        }
        64
    }

    /// Functions whose frames have no object, padding gaps between
    /// mixed-alignment objects, arrays and a single small object.
    fn module() -> Module {
        let mut m = Module::new("frames");
        m.add_str_global("greeting", "hello, frames");
        m.add_str_global("other", "x");
        let frames: [&[(Ty, u32)]; 4] = [
            &[],
            &[
                (Ty::I8, 1),
                (Ty::I64, 1),
                (Ty::array(Ty::I8, 5), 1),
                (Ty::I32, 1),
            ],
            &[(Ty::array(Ty::I8, 13), 3), (Ty::I16, 1), (Ty::I64, 2)],
            &[(Ty::I16, 1)],
        ];
        for (k, objects) in frames.into_iter().enumerate() {
            let mut b = FunctionBuilder::new(format!("f{k}"), vec![], Ty::Void);
            for (elem, count) in objects {
                b.alloca_n(elem.clone(), *count);
            }
            b.ret(None);
            m.add_function(b.finish());
        }
        m
    }

    #[test]
    fn frame_stack_capacity_matches_the_live_object_map() {
        let m = module();
        let n_funcs = m.functions().len() as u32;
        for seed in 0..8 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut vm = Vm::new(&m, VmConfig::default(), InputPlan::benign(1));
            let chunks: Vec<u64> = (0..4)
                .filter_map(|i| vm.heap.alloc(Section::Shared, 8 + 24 * i))
                .collect();
            let mut objects = BTreeMap::new();
            let mut sp = layout::STACK_BASE;
            for _ in 0..300 {
                // Push (as a call does) or pop (as its return does).
                if vm.frames.is_empty() || rng.gen_range(0u32..3) > 0 {
                    let fid = FuncId(rng.gen_range(0..n_funcs));
                    let fl = vm.decoded.layout(fid);
                    for s in &fl.objects {
                        objects.insert(sp + s.off, s.size);
                    }
                    vm.frames.push((sp, fid));
                    sp += fl.frame_size;
                } else {
                    let (base, fid) = vm.frames.pop().expect("a live frame");
                    for s in &vm.decoded.layout(fid).objects {
                        objects.remove(&(base + s.off));
                    }
                    sp = base;
                }
                // Probe every object edge, the frame bases, above the top
                // frame, the heap chunks, the globals and random stack
                // addresses.
                let mut probes: Vec<u64> = objects
                    .iter()
                    .flat_map(|(&b, &s)| [b - 1, b, b + s / 2, b + s - 1, b + s])
                    .collect();
                probes.extend(vm.frames.iter().map(|&(b, _)| b));
                probes.extend([sp, sp + 1, sp + 4096]);
                probes.extend(chunks.iter().flat_map(|&c| [c, c + 7, c - 1]));
                probes.extend(vm.globals_addr.iter().flat_map(|&g| [g, g + 3]));
                probes.extend(
                    (0..8).map(|_| {
                        layout::STACK_BASE + rng.gen_range(0..sp + 64 - layout::STACK_BASE)
                    }),
                );
                for addr in probes {
                    assert_eq!(
                        vm.capacity_at(addr),
                        reference(&vm, &objects, addr),
                        "seed {seed}, {addr:#x}, frames {:?}",
                        vm.frames
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use pythia_ir::FunctionBuilder;

    fn traced_run(limit: u64) -> Vec<TraceEvent> {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("main", vec![], Ty::I64);
        let slot = b.alloca(Ty::I64);
        let one = b.const_i64(1);
        b.store(one, slot);
        let v = b.load(slot);
        b.ret(Some(v));
        m.add_function(b.finish());
        let cfg = VmConfig {
            trace_limit: limit,
            ..VmConfig::default()
        };
        let mut vm = Vm::new(&m, cfg, InputPlan::benign(1));
        let r = vm.run("main", &[]).unwrap();
        assert_eq!(r.exit, ExitReason::Returned(1));
        vm.trace().to_vec()
    }

    #[test]
    fn trace_disabled_by_default() {
        assert!(traced_run(0).is_empty());
    }

    #[test]
    fn trace_records_in_execution_order() {
        let t = traced_run(100);
        let mnemonics: Vec<&str> = t.iter().map(|e| e.mnemonic).collect();
        assert_eq!(mnemonics, vec!["alloca", "store", "load", "ret"]);
        assert!(t.iter().all(|e| e.func == pythia_ir::FuncId(0)));
    }

    #[test]
    fn trace_respects_the_limit() {
        assert_eq!(traced_run(2).len(), 2);
    }
}

#[cfg(test)]
mod intrinsic_tests {
    use super::*;
    use pythia_ir::FunctionBuilder;

    fn run_main(m: &Module) -> RunResult {
        let mut vm = Vm::new(m, VmConfig::default(), InputPlan::benign(1));
        vm.run("main", &[]).unwrap()
    }

    #[test]
    fn calloc_zeroes_reused_memory() {
        // malloc, dirty it, free, calloc the same size: must read 0.
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("main", vec![], Ty::I64);
        let n = b.const_i64(32);
        let one = b.const_i64(1);
        let p1 = b.call_intrinsic(Intrinsic::Malloc, vec![n], Ty::ptr(Ty::I64));
        let dirty = b.const_i64(0x5555);
        b.store(dirty, p1);
        b.call_intrinsic(Intrinsic::Free, vec![p1], Ty::Void);
        let p2 = b.call_intrinsic(Intrinsic::Calloc, vec![n, one], Ty::ptr(Ty::I64));
        let v = b.load(p2);
        b.ret(Some(v));
        m.add_function(b.finish());
        assert_eq!(run_main(&m).exit, ExitReason::Returned(0));
    }

    #[test]
    fn realloc_preserves_contents() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("main", vec![], Ty::I64);
        let n = b.const_i64(16);
        let big = b.const_i64(64);
        let p = b.call_intrinsic(Intrinsic::Malloc, vec![n], Ty::ptr(Ty::I64));
        let magic = b.const_i64(0xBEEF);
        b.store(magic, p);
        let q = b.call_intrinsic(Intrinsic::Realloc, vec![p, big], Ty::ptr(Ty::I64));
        let v = b.load(q);
        b.ret(Some(v));
        m.add_function(b.finish());
        assert_eq!(run_main(&m).exit, ExitReason::Returned(0xBEEF));
    }

    #[test]
    fn free_of_stack_pointer_traps() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("main", vec![], Ty::I64);
        let slot = b.alloca(Ty::I64);
        b.call_intrinsic(Intrinsic::Free, vec![slot], Ty::Void);
        let zero = b.const_i64(0);
        b.ret(Some(zero));
        m.add_function(b.finish());
        assert!(matches!(
            run_main(&m).exit,
            ExitReason::Trapped(Trap::InvalidFree { .. })
        ));
    }

    #[test]
    fn free_null_is_a_noop() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("main", vec![], Ty::I64);
        let null = b.const_null(Ty::ptr(Ty::I8));
        b.call_intrinsic(Intrinsic::Free, vec![null], Ty::Void);
        let zero = b.const_i64(0);
        b.ret(Some(zero));
        m.add_function(b.finish());
        assert_eq!(run_main(&m).exit, ExitReason::Returned(0));
    }

    #[test]
    fn memset_fills_and_strncmp_compares() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("main", vec![], Ty::I64);
        let b1 = b.alloca(Ty::array(Ty::I8, 8));
        let b2 = b.alloca(Ty::array(Ty::I8, 8));
        let ch = b.const_i64(0x41);
        let four = b.const_i64(4);
        b.call_intrinsic(Intrinsic::Memset, vec![b1, ch, four], Ty::ptr(Ty::I8));
        b.call_intrinsic(Intrinsic::Memset, vec![b2, ch, four], Ty::ptr(Ty::I8));
        let eq = b.call_intrinsic(Intrinsic::Strncmp, vec![b1, b2, four], Ty::I64);
        b.ret(Some(eq));
        m.add_function(b.finish());
        assert_eq!(run_main(&m).exit, ExitReason::Returned(0));
    }

    #[test]
    fn sprintf_writes_decimal_text() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("main", vec![], Ty::I64);
        let buf = b.alloca(Ty::array(Ty::I8, 16));
        let v = b.const_i64(1234);
        b.call_intrinsic(Intrinsic::Sprintf, vec![buf, v], Ty::I64);
        let n = b.call_intrinsic(Intrinsic::Strlen, vec![buf], Ty::I64);
        b.ret(Some(n));
        m.add_function(b.finish());
        assert_eq!(run_main(&m).exit, ExitReason::Returned(4)); // "1234"
    }

    #[test]
    fn strcat_appends() {
        let mut m = Module::new("m");
        let g1 = m.add_str_global("a", "foo");
        let g2 = m.add_str_global("b", "bar");
        let mut b = FunctionBuilder::new("main", vec![], Ty::I64);
        let buf = b.alloca(Ty::array(Ty::I8, 16));
        let p1 = b.global_addr(g1, Ty::array(Ty::I8, 4));
        let p2 = b.global_addr(g2, Ty::array(Ty::I8, 4));
        b.call_intrinsic(Intrinsic::Strcpy, vec![buf, p1], Ty::ptr(Ty::I8));
        b.call_intrinsic(Intrinsic::Strcat, vec![buf, p2], Ty::ptr(Ty::I8));
        let n = b.call_intrinsic(Intrinsic::Strlen, vec![buf], Ty::I64);
        b.ret(Some(n));
        m.add_function(b.finish());
        assert_eq!(run_main(&m).exit, ExitReason::Returned(6)); // "foobar"
    }

    #[test]
    fn mmap_allocates_shared_memory() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("main", vec![], Ty::I64);
        let n = b.const_i64(4096);
        let p = b.call_intrinsic(Intrinsic::Mmap, vec![n], Ty::ptr(Ty::I64));
        let v = b.const_i64(9);
        b.store(v, p);
        let l = b.load(p);
        b.ret(Some(l));
        m.add_function(b.finish());
        let r = run_main(&m);
        assert_eq!(r.exit, ExitReason::Returned(9));
        assert_eq!(r.metrics.heap_shared.allocs, 1);
    }

    #[test]
    fn abort_traps() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("main", vec![], Ty::I64);
        b.call_intrinsic(Intrinsic::Abort, vec![], Ty::Void);
        let zero = b.const_i64(0);
        b.ret(Some(zero));
        m.add_function(b.finish());
        assert_eq!(run_main(&m).exit, ExitReason::Trapped(Trap::Abort));
    }
}
