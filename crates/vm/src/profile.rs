//! The execution profile: where a run's cost went.
//!
//! [`Profile`] is filled by the VM once, at the end of a run (gated on
//! [`VmConfig::profile`](crate::VmConfig)), from the per-op-class,
//! per-PA-key and per-intrinsic counts both engines keep while they
//! interpret: per-opcode and per-intrinsic execution histograms with
//! attributed base millicycles, PA sign/auth/strip counters (dynamic
//! executions *and* a static scan of the module, so profiled runs can be
//! cross-checked against the instrumentation pass's own accounting),
//! shadow-memory traffic, memory-fault counts and the resident
//! footprint. The per-section heap counters live in
//! [`RunMetrics`](crate::RunMetrics).
//!
//! Everything in here is deterministic for a fixed module/seed/config:
//! histograms are `BTreeMap`s keyed by `&'static str` mnemonics, counters
//! are exact, and nothing records wall-clock time — so profiles from
//! serial and parallel suite runs compare equal, and enabling profiling
//! cannot change any reported measurement (it only observes).

use pythia_ir::{Inst, Module};
use std::collections::BTreeMap;

/// PA operation counters: dynamic executions split by kind and key, plus
/// the static instruction counts of the module that ran.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PaProfile {
    /// `pacsign` executions.
    pub signs: u64,
    /// `pacauth` executions (successful or trapping).
    pub auths: u64,
    /// `pacstrip` executions.
    pub strips: u64,
    /// `pacauth` executions that trapped (PAC mismatch).
    pub auth_failures: u64,
    /// Sign/auth executions per PA key mnemonic (`da`, `ga`, ...).
    pub by_key: BTreeMap<&'static str, u64>,
    /// Static `pacsign` instructions present in the executed module.
    pub static_signs: u64,
    /// Static `pacauth` instructions present in the executed module.
    pub static_auths: u64,
    /// Static `pacstrip` instructions present in the executed module.
    pub static_strips: u64,
}

impl PaProfile {
    /// Total dynamic PA executions (sign + auth + strip).
    pub fn executed(&self) -> u64 {
        self.signs + self.auths + self.strips
    }

    /// Static sign + auth instruction count — directly comparable with
    /// `InstrumentationStats::pa_total()` from `pythia-passes`, because
    /// the passes only ever insert signs and auths into PA-free modules.
    pub fn static_sign_auth(&self) -> u64 {
        self.static_signs + self.static_auths
    }
}

/// Shadow-memory (DFI last-writer table) traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShadowProfile {
    /// `setdef` executions (single-granule shadow updates).
    pub setdefs: u64,
    /// `chkdef` executions (shadow lookups).
    pub chkdefs: u64,
    /// 8-byte granules tagged by bulk input-channel writes.
    pub bulk_tags: u64,
}

impl ShadowProfile {
    /// Total shadow-table updates (setdef + bulk input-channel tags).
    pub fn updates(&self) -> u64 {
        self.setdefs + self.bulk_tags
    }
}

/// Everything the VM observed about one run. See the module docs for the
/// determinism contract.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Profile {
    /// Executions per opcode mnemonic (`Bin`/`Cast`/`Icmp` report their
    /// sub-mnemonic: `add`, `zext`, `eq`, ...).
    pub opcodes: BTreeMap<&'static str, u64>,
    /// Base-cost millicycles attributed per opcode mnemonic (excludes
    /// cache penalties and intrinsic extras).
    pub opcode_mc: BTreeMap<&'static str, u64>,
    /// Executions per intrinsic name (`memcpy`, `gets`, ...).
    pub intrinsics: BTreeMap<&'static str, u64>,
    /// PA operation counters.
    pub pa: PaProfile,
    /// Shadow-memory traffic.
    pub shadow: ShadowProfile,
    /// Memory faults raised (at most one per run — faults halt the VM).
    pub mem_faults: u64,
    /// Simulated memory touched by the run, in bytes (page granularity).
    pub resident_bytes: u64,
}

impl Profile {
    /// The `n` most-executed opcodes, most frequent first (ties break by
    /// mnemonic, so the order is deterministic).
    pub fn top_opcodes(&self, n: usize) -> Vec<(&'static str, u64)> {
        let mut v: Vec<(&'static str, u64)> = self.opcodes.iter().map(|(&k, &c)| (k, c)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        v.truncate(n);
        v
    }

    /// Total opcode executions recorded.
    pub fn total_ops(&self) -> u64 {
        self.opcodes.values().sum()
    }
}

/// Count the static PA instructions of a module: `(signs, auths, strips)`.
pub fn static_pa_counts(module: &Module) -> (u64, u64, u64) {
    let (mut signs, mut auths, mut strips) = (0, 0, 0);
    for f in module.functions() {
        for bb in f.block_ids() {
            for &iv in &f.block(bb).insts {
                match f.inst(iv) {
                    Some(Inst::PacSign { .. }) => signs += 1,
                    Some(Inst::PacAuth { .. }) => auths += 1,
                    Some(Inst::PacStrip { .. }) => strips += 1,
                    _ => {}
                }
            }
        }
    }
    (signs, auths, strips)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pythia_ir::{FunctionBuilder, PaKey, Ty};

    #[test]
    fn top_opcodes_ranks_by_count_and_breaks_ties_by_mnemonic() {
        let mut p = Profile::default();
        p.opcodes.extend([("store", 1), ("load", 2), ("add", 1)]);
        assert_eq!(p.total_ops(), 4);
        assert_eq!(p.top_opcodes(1), vec![("load", 2)]);
        assert_eq!(
            p.top_opcodes(3),
            vec![("load", 2), ("add", 1), ("store", 1)]
        );
    }

    #[test]
    fn static_scan_counts_pa_instructions() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("main", vec![], Ty::I64);
        let v = b.const_i64(7);
        let md = b.const_i64(1);
        let s = b.pac_sign(v, PaKey::Da, md);
        let a = b.pac_auth(s, PaKey::Da, md);
        b.ret(Some(a));
        m.add_function(b.finish());
        assert_eq!(static_pa_counts(&m), (1, 1, 0));
    }
}
