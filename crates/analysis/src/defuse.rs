//! SSA def-use chains (paper Definition 2.2).

use pythia_ir::{Function, ValueId, ValueKind};

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
        assert_eq!(du.users(x).len(), 2);
        assert_eq!(du.users(a).len(), 1);
        assert_eq!(du.users(c).len(), 1); // the ret
    }

    #[test]
    fn unplaced_instructions_do_not_count_as_uses() {
        use pythia_ir::{Function, Inst, ValueData, ValueKind};
        let mut f = Function::new("f", vec![Ty::I64], Ty::Void);
        let x = f.arg(0);
        // An instruction value never inserted into any block:
        let _orphan = f.add_value(ValueData {
            kind: ValueKind::Inst(Inst::Ret { value: Some(x) }),
            ty: Ty::Void,
            name: None,
        });
        let du = DefUse::compute(&f);
        assert_eq!(du.users(x).len(), 0);
    }
}
