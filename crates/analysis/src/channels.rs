//! Input-channel discovery and classification (paper §2.6 / Fig. 5b).

use pythia_ir::{Callee, FuncId, IcCategory, Inst, Intrinsic, Module, ValueId};
use std::collections::BTreeMap;

/// One input-channel call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IcSite {
    /// Function containing the call.
    pub func: FuncId,
    /// The call instruction's value.
    pub call: ValueId,
    /// Which library channel it is.
    pub intrinsic: Intrinsic,
    /// Paper category.
    pub category: IcCategory,
}

impl IcSite {
    /// Whether this channel can write attacker bytes into memory.
    pub fn writes_memory(&self) -> bool {
        self.intrinsic.writes_memory()
    }

    /// The destination pointer operand of the channel, if it writes memory.
    pub fn dest_ptr(&self, m: &Module) -> Option<ValueId> {
        let f = m.func(self.func);
        match f.inst(self.call) {
            Some(Inst::Call { args, .. }) => {
                self.intrinsic.dest_arg().and_then(|i| args.get(i).copied())
            }
            _ => None,
        }
    }
}

/// All input channels of a module, plus the category histogram the paper
/// reports in Fig. 5b.
#[derive(Debug, Clone, Default)]
pub struct InputChannels {
    /// Every IC call site, in module order.
    pub sites: Vec<IcSite>,
}

impl InputChannels {
    /// Scan a module for input-channel call sites.
    pub fn find(m: &Module) -> Self {
        let mut sites = Vec::new();
        for fid in m.func_ids() {
            let f = m.func(fid);
            for bb in f.block_ids() {
                for &iv in &f.block(bb).insts {
                    if let Some(Inst::Call {
                        callee: Callee::Intrinsic(i),
                        ..
                    }) = f.inst(iv)
                    {
                        if let Some(category) = i.ic_category() {
                            sites.push(IcSite {
                                func: fid,
                                call: iv,
                                intrinsic: *i,
                                category,
                            });
                        }
                    }
                }
            }
        }
        InputChannels { sites }
    }

    /// Total number of input channels.
    pub fn total(&self) -> usize {
        self.sites.len()
    }

    /// Category histogram (Fig. 5b).
    pub fn histogram(&self) -> BTreeMap<IcCategory, usize> {
        let mut h = BTreeMap::new();
        for s in &self.sites {
            *h.entry(s.category).or_insert(0) += 1;
        }
        h
    }

    /// Fraction of sites in `cat` (0.0 if there are no sites).
    pub fn fraction(&self, cat: IcCategory) -> f64 {
        if self.sites.is_empty() {
            return 0.0;
        }
        let n = self.sites.iter().filter(|s| s.category == cat).count();
        n as f64 / self.sites.len() as f64
    }

    /// Only the memory-writing channels (the attack surface).
    pub fn writing_sites(&self) -> impl Iterator<Item = &IcSite> + '_ {
        self.sites.iter().filter(|s| s.writes_memory())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pythia_ir::{FunctionBuilder, Module, Ty};

    fn module_with_ics() -> (Module, FuncId) {
        let mut m = Module::new("m");
        let fmt = m.add_str_global("fmt", "%d");
        let mut b = FunctionBuilder::new("f", vec![], Ty::Void);
        let buf = b.alloca(Ty::array(Ty::I8, 16));
        let src = b.alloca(Ty::array(Ty::I8, 16));
        let ga = b.global_addr(fmt, Ty::array(Ty::I8, 3));
        b.call_intrinsic(Intrinsic::Printf, vec![ga], Ty::I64);
        b.call_intrinsic(Intrinsic::Strcpy, vec![buf, src], Ty::ptr(Ty::I8));
        b.call_intrinsic(Intrinsic::Memcpy, vec![buf, src], Ty::ptr(Ty::I8));
        let n = b.const_i64(8);
        b.call_intrinsic(Intrinsic::Fgets, vec![buf, n], Ty::ptr(Ty::I8));
        b.call_intrinsic(Intrinsic::Strlen, vec![buf], Ty::I64); // not an IC
        b.ret(None);
        let fid = m.add_function(b.finish());
        (m, fid)
    }

    #[test]
    fn finds_and_classifies() {
        let (m, fid) = module_with_ics();
        let ics = InputChannels::find(&m);
        assert_eq!(ics.total(), 4);
        let h = ics.histogram();
        assert_eq!(h.get(&IcCategory::Print), Some(&1));
        assert_eq!(h.get(&IcCategory::MoveCopy), Some(&2));
        assert_eq!(h.get(&IcCategory::Get), Some(&1));
        assert!(ics.sites.iter().all(|s| s.func == fid));
        assert!((ics.fraction(IcCategory::MoveCopy) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn writing_sites_exclude_print() {
        let (m, _) = module_with_ics();
        let ics = InputChannels::find(&m);
        let writing: Vec<_> = ics.writing_sites().collect();
        assert_eq!(writing.len(), 3);
        assert!(writing.iter().all(|s| s.category != IcCategory::Print));
    }

    #[test]
    fn dest_ptr_resolves() {
        let (m, _) = module_with_ics();
        let ics = InputChannels::find(&m);
        for s in ics.writing_sites() {
            assert!(s.dest_ptr(&m).is_some());
        }
    }

    #[test]
    fn empty_module_has_no_channels() {
        let m = Module::new("empty");
        let ics = InputChannels::find(&m);
        assert_eq!(ics.total(), 0);
        assert_eq!(ics.fraction(IcCategory::Print), 0.0);
    }
}
