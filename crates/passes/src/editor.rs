//! Plan-based function editing.
//!
//! Instrumentation wants to say "insert these new instructions before/after
//! that existing one" and "replace uses of X with Y" without worrying about
//! positions shifting under its feet. [`EditPlan`] collects such requests;
//! [`EditPlan::apply`] rebuilds the affected blocks in one pass.

use pythia_ir::{Function, Inst, Ty, ValueData, ValueId, ValueKind};
use std::collections::HashMap;

/// A batch of pending edits against one function.
#[derive(Debug, Default)]
pub struct EditPlan {
    before: HashMap<ValueId, Vec<ValueId>>,
    after: HashMap<ValueId, Vec<ValueId>>,
    /// old -> (new, uses exempt from rewriting)
    replacements: Vec<(ValueId, ValueId, Vec<ValueId>)>,
}

impl EditPlan {
    /// Fresh empty plan.
    pub fn new() -> Self {
        EditPlan::default()
    }

    /// Create a new instruction *value* (not yet placed anywhere).
    pub fn new_inst(f: &mut Function, inst: Inst, ty: Ty) -> ValueId {
        f.add_value(ValueData {
            kind: ValueKind::Inst(inst),
            ty,
            name: None,
        })
    }

    /// Queue `new` for insertion immediately before `anchor`.
    pub fn insert_before(&mut self, anchor: ValueId, new: ValueId) {
        self.before.entry(anchor).or_default().push(new);
    }

    /// Queue `new` for insertion immediately after `anchor` (multiple
    /// inserts keep their queue order).
    pub fn insert_after(&mut self, anchor: ValueId, new: ValueId) {
        self.after.entry(anchor).or_default().push(new);
    }

    /// Queue a use-rewrite: every operand reference to `old` becomes `new`,
    /// except inside `new` and the instructions in `exempt`.
    ///
    /// Each value may be replaced once per plan, and no replacement's
    /// `new` may be another's `old`: rewrites never chain, so applying
    /// them all in one pass is the same as applying them one by one.
    pub fn replace_uses(&mut self, old: ValueId, new: ValueId, exempt: &[ValueId]) {
        self.replacements.push((old, new, exempt.to_vec()));
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.before.is_empty() && self.after.is_empty() && self.replacements.is_empty()
    }

    /// Apply the plan to `f`.
    pub fn apply(self, f: &mut Function) {
        // 1. Rebuild every block with insertions.
        if !(self.before.is_empty() && self.after.is_empty()) {
            for bb in 0..f.num_blocks() {
                let bb = pythia_ir::BlockId(bb as u32);
                let old = f.block(bb).insts.clone();
                let mut rebuilt = Vec::with_capacity(old.len());
                for iv in old {
                    if let Some(pre) = self.before.get(&iv) {
                        rebuilt.extend(pre.iter().copied());
                    }
                    rebuilt.push(iv);
                    if let Some(post) = self.after.get(&iv) {
                        rebuilt.extend(post.iter().copied());
                    }
                }
                f.block_mut(bb).insts = rebuilt;
            }
        }
        // 2. Rewrite uses in one pass over the values, looking each
        //    operand up in an old -> replacement index.
        if self.replacements.is_empty() {
            return;
        }
        const NONE: u32 = u32::MAX;
        let mut index = vec![NONE; f.num_values()];
        for (i, (old, _, _)) in self.replacements.iter().enumerate() {
            if let Some(slot) = index.get_mut(old.0 as usize) {
                debug_assert_eq!(*slot, NONE, "{old:?} is replaced twice");
                *slot = i as u32;
            }
        }
        debug_assert!(
            self.replacements
                .iter()
                .all(|(_, new, _)| index.get(new.0 as usize).is_none_or(|&i| i == NONE)),
            "a replacement's new value is another's old: the rewrites would chain"
        );
        for v in 0..f.num_values() {
            let v = ValueId(v as u32);
            let Some(inst) = f.inst_mut(v) else {
                continue;
            };
            inst.map_operands(|op| match index.get(op.0 as usize) {
                Some(&i) if i != NONE => {
                    let (_, new, exempt) = &self.replacements[i as usize];
                    if v == *new || exempt.contains(&v) {
                        op
                    } else {
                        *new
                    }
                }
                _ => op,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pythia_ir::{FunctionBuilder, PaKey};

    #[test]
    fn insertion_preserves_order() {
        let mut b = FunctionBuilder::new("f", vec![], Ty::I64);
        let slot = b.alloca(Ty::I64);
        let v = b.const_i64(5);
        let st = b.store(v, slot);
        let ld = b.load(slot);
        b.ret(Some(ld));
        let mut f = b.finish();

        let mut plan = EditPlan::new();
        let sign = EditPlan::new_inst(
            &mut f,
            Inst::PacSign {
                value: v,
                key: PaKey::Da,
                modifier: slot,
            },
            Ty::I64,
        );
        plan.insert_before(st, sign);
        let auth = EditPlan::new_inst(
            &mut f,
            Inst::PacAuth {
                value: ld,
                key: PaKey::Da,
                modifier: slot,
            },
            Ty::I64,
        );
        plan.insert_after(ld, auth);
        plan.apply(&mut f);

        let entry = f.entry();
        let insts = &f.block(entry).insts;
        let pos = |v: ValueId| insts.iter().position(|x| *x == v).unwrap();
        assert!(pos(sign) < pos(st));
        assert_eq!(pos(auth), pos(ld) + 1);
    }

    #[test]
    fn replace_uses_respects_exemptions() {
        let mut b = FunctionBuilder::new("f", vec![], Ty::I64);
        let slot = b.alloca(Ty::I64);
        let ld = b.load(slot);
        b.ret(Some(ld));
        let mut f = b.finish();

        let mut plan = EditPlan::new();
        let auth = EditPlan::new_inst(
            &mut f,
            Inst::PacAuth {
                value: ld,
                key: PaKey::Da,
                modifier: slot,
            },
            Ty::I64,
        );
        plan.insert_after(ld, auth);
        plan.replace_uses(ld, auth, &[auth]);
        plan.apply(&mut f);

        // ret must now return the authenticated value...
        let entry = f.entry();
        let last = *f.block(entry).insts.last().unwrap();
        assert_eq!(f.inst(last), Some(&Inst::Ret { value: Some(auth) }));
        // ...while the auth still consumes the raw load.
        assert_eq!(
            f.inst(auth),
            Some(&Inst::PacAuth {
                value: ld,
                key: PaKey::Da,
                modifier: slot
            })
        );
    }

    /// Apply `reps` one after another, each with its own full pass over
    /// the values: the meaning a plan's use-rewrites are defined by.
    fn rewrite_sequentially(f: &mut Function, reps: &[(ValueId, ValueId, Vec<ValueId>)]) {
        for (old, new, exempt) in reps {
            for v in f.value_ids().collect::<Vec<_>>() {
                if exempt.contains(&v) || v == *new {
                    continue;
                }
                if let Some(inst) = f.inst_mut(v) {
                    inst.map_operands(|op| if op == *old { *new } else { op });
                }
            }
        }
    }

    #[test]
    fn one_pass_rewrite_matches_sequential_rewrites() {
        // A chain of loads and adds, each add feeding the next: every load
        // is authenticated (auth exempt) and every add signed and
        // authenticated (sign and auth exempt), as CPA's load and SSA
        // signing queue them.
        let mut b = FunctionBuilder::new("f", vec![Ty::I64], Ty::I64);
        let x = b.func().arg(0);
        let slot = b.alloca(Ty::I64);
        b.store(x, slot);
        let mut acc = b.load(slot);
        let mut loads = vec![acc];
        let mut adds = Vec::new();
        for _ in 0..40 {
            let ld = b.load(slot);
            loads.push(ld);
            acc = b.add(acc, ld);
            adds.push(acc);
        }
        b.ret(Some(acc));
        let mut f = b.finish();
        let zero = f.add_value(ValueData {
            kind: ValueKind::ConstInt(0),
            ty: Ty::I64,
            name: None,
        });

        let mut plan = EditPlan::new();
        let mut inserts_only = EditPlan::new();
        let mut reps = Vec::new();
        for &ld in &loads {
            let auth = EditPlan::new_inst(
                &mut f,
                Inst::PacAuth {
                    value: ld,
                    key: PaKey::Da,
                    modifier: slot,
                },
                Ty::I64,
            );
            for p in [&mut plan, &mut inserts_only] {
                p.insert_after(ld, auth);
            }
            plan.replace_uses(ld, auth, &[auth]);
            reps.push((ld, auth, vec![auth]));
        }
        for &a in &adds {
            let sign = EditPlan::new_inst(
                &mut f,
                Inst::PacSign {
                    value: a,
                    key: PaKey::Da,
                    modifier: zero,
                },
                Ty::I64,
            );
            let auth = EditPlan::new_inst(
                &mut f,
                Inst::PacAuth {
                    value: sign,
                    key: PaKey::Da,
                    modifier: zero,
                },
                Ty::I64,
            );
            for p in [&mut plan, &mut inserts_only] {
                p.insert_after(a, sign);
                p.insert_after(a, auth);
            }
            plan.replace_uses(a, auth, &[sign, auth]);
            reps.push((a, auth, vec![sign, auth]));
        }

        let mut expected = f.clone();
        inserts_only.apply(&mut expected);
        rewrite_sequentially(&mut expected, &reps);
        plan.apply(&mut f);
        assert_eq!(f, expected);

        // The rewrite did something: the return reads the last add's
        // authenticated value, not the add itself.
        let (_, last_auth, _) = reps.last().unwrap();
        let entry = f.entry();
        let ret = *f.block(entry).insts.last().unwrap();
        assert_eq!(
            f.inst(ret),
            Some(&Inst::Ret {
                value: Some(*last_auth)
            })
        );
    }

    #[test]
    fn multiple_inserts_at_same_anchor_keep_queue_order() {
        let mut b = FunctionBuilder::new("f", vec![], Ty::Void);
        let r = b.ret(None);
        let mut f = b.finish();
        let mut plan = EditPlan::new();
        let c1 = EditPlan::new_inst(&mut f, Inst::Unreachable, Ty::Void);
        let c2 = EditPlan::new_inst(&mut f, Inst::Unreachable, Ty::Void);
        plan.insert_before(r, c1);
        plan.insert_before(r, c2);
        plan.apply(&mut f);
        let entry = f.entry();
        assert_eq!(f.block(entry).insts, vec![c1, c2, r]);
    }
}
