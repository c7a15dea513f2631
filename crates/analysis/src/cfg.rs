//! Control-flow graph ordering: the reverse postorder every dataflow
//! fixpoint ([`crate::dataflow::solve`]) iterates in.

use pythia_ir::{BlockId, Function};

/// Reverse postorder of the blocks reachable from the entry.
pub fn reverse_postorder(f: &Function) -> Vec<BlockId> {
    let n = f.num_blocks();
    let mut visited = vec![false; n];
    let mut post = Vec::with_capacity(n);
    // Iterative DFS with explicit stack of (block, next-successor-index).
    let mut stack: Vec<(BlockId, usize)> = vec![(f.entry(), 0)];
    visited[f.entry().0 as usize] = true;
    while !stack.is_empty() {
        let (bb, idx) = {
            let top = stack.last_mut().expect("stack non-empty");
            let pair = (top.0, top.1);
            top.1 += 1;
            pair
        };
        let succs = f.successors(bb);
        if idx < succs.len() {
            let s = succs[idx];
            if !visited[s.0 as usize] {
                visited[s.0 as usize] = true;
                stack.push((s, 0));
            }
        } else {
            post.push(bb);
            stack.pop();
        }
    }
    post.reverse();
    post
}

#[cfg(test)]
mod tests {
    use super::*;
    use pythia_ir::{CmpPred, FunctionBuilder, Ty};

    /// entry -> (a, b); a -> join; b -> join; join -> ret
    fn diamond() -> pythia_ir::Function {
        let mut b = FunctionBuilder::new("d", vec![Ty::I64], Ty::I64);
        let a = b.new_block("a");
        let c = b.new_block("c");
        let j = b.new_block("j");
        let x = b.func().arg(0);
        let zero = b.const_i64(0);
        let cond = b.icmp(CmpPred::Sgt, x, zero);
        b.br(cond, a, c);
        b.switch_to(a);
        b.jmp(j);
        b.switch_to(c);
        b.jmp(j);
        b.switch_to(j);
        b.ret(Some(x));
        b.finish()
    }

    #[test]
    fn rpo_starts_at_entry_and_covers_reachable() {
        let f = diamond();
        let rpo = reverse_postorder(&f);
        assert_eq!(rpo[0], f.entry());
        assert_eq!(rpo.len(), 4);
        // The join comes after both arms.
        assert_eq!(rpo[3], BlockId(3));
    }

    #[test]
    fn unreachable_blocks_are_left_out() {
        let mut b = FunctionBuilder::new("u", vec![], Ty::Void);
        let dead = b.new_block("dead");
        b.ret(None);
        b.switch_to(dead);
        b.ret(None);
        let f = b.finish();
        assert_eq!(reverse_postorder(&f), vec![f.entry()]);
    }
}
