//! SSA def-use chains (paper Definition 2.2).

use pythia_ir::{Function, Inst, ValueId, ValueKind};

/// Def-use chains for one function: for every value, the instruction values
/// that use it as an operand.
#[derive(Debug, Clone)]
pub struct DefUse {
    users: Vec<Vec<ValueId>>,
}

impl DefUse {
    /// Compute chains for `f`.
    pub fn compute(f: &Function) -> Self {
        let mut users = vec![Vec::new(); f.num_values()];
        let home = f.placement();
        for v in f.value_ids() {
            if let ValueKind::Inst(inst) = &f.value(v).kind {
                // Only instructions actually placed in a block are real uses.
                if home.block_of(v).is_none() {
                    continue;
                }
                inst.for_each_operand(|op| users[op.0 as usize].push(v));
            }
        }
        DefUse { users }
    }

    /// Instructions using `v` as an operand.
    pub fn users(&self, v: ValueId) -> &[ValueId] {
        &self.users[v.0 as usize]
    }

    /// Number of uses of `v`.
    pub fn num_uses(&self, v: ValueId) -> usize {
        self.users[v.0 as usize].len()
    }

    /// Loads that read through pointer `p` (directly).
    pub fn loads_through(&self, f: &Function, p: ValueId) -> Vec<ValueId> {
        self.users(p)
            .iter()
            .copied()
            .filter(|u| matches!(f.inst(*u), Some(Inst::Load { ptr }) if *ptr == p))
            .collect()
    }

    /// Stores that write through pointer `p` (directly).
    pub fn stores_through(&self, f: &Function, p: ValueId) -> Vec<ValueId> {
        self.users(p)
            .iter()
            .copied()
            .filter(|u| matches!(f.inst(*u), Some(Inst::Store { ptr, .. }) if *ptr == p))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pythia_ir::{FunctionBuilder, Ty};

    #[test]
    fn users_tracked() {
        let mut b = FunctionBuilder::new("f", vec![Ty::I64], Ty::I64);
        let x = b.func().arg(0);
        let one = b.const_i64(1);
        let a = b.add(x, one);
        let c = b.add(a, x);
        b.ret(Some(c));
        let f = b.finish();
        let du = DefUse::compute(&f);
        assert_eq!(du.num_uses(x), 2);
        assert_eq!(du.num_uses(a), 1);
        assert_eq!(du.num_uses(c), 1); // the ret
    }

    #[test]
    fn loads_and_stores_through_pointer() {
        let mut b = FunctionBuilder::new("f", vec![], Ty::Void);
        let p = b.alloca(Ty::I64);
        let one = b.const_i64(1);
        b.store(one, p);
        let l1 = b.load(p);
        let l2 = b.load(p);
        b.store(l1, p);
        b.ret(None);
        let f = b.finish();
        let du = DefUse::compute(&f);
        assert_eq!(du.loads_through(&f, p), vec![l1, l2]);
        assert_eq!(du.stores_through(&f, p).len(), 2);
    }

    #[test]
    fn unplaced_instructions_do_not_count_as_uses() {
        use pythia_ir::{Function, ValueData, ValueKind};
        let mut f = Function::new("f", vec![Ty::I64], Ty::Void);
        let x = f.arg(0);
        // An instruction value never inserted into any block:
        let _orphan = f.add_value(ValueData {
            kind: ValueKind::Inst(Inst::Ret { value: Some(x) }),
            ty: Ty::Void,
            name: None,
        });
        let du = DefUse::compute(&f);
        assert_eq!(du.num_uses(x), 0);
    }
}
