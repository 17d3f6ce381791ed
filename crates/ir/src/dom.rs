//! Dominator-tree computation (Cooper–Harvey–Kennedy iterative algorithm).

use crate::cfg::Cfg;
use crate::types::BlockId;

/// Dominator tree of a function's CFG.
///
/// Unreachable blocks have no immediate dominator and are reported as not
/// dominated by (and not dominating) anything except themselves.
#[derive(Clone, Debug)]
pub struct DomTree {
    /// Immediate dominator per block (`None` for the entry and unreachable
    /// blocks).
    pub idom: Vec<Option<BlockId>>,
    entry: BlockId,
}

/// A block whose immediate dominator is not known yet.
const UNDEF: usize = usize::MAX;

impl DomTree {
    /// Compute the dominator tree of the graph `cfg`.
    pub fn compute(cfg: &Cfg) -> Self {
        let rpo = cfg.rpo();
        // The iteration runs on reverse-postorder positions: `doms[i]` is
        // the position of the immediate dominator of `rpo[i]`, and the
        // entry (position 0) is its own, as the algorithm's sentinel.
        let mut doms = vec![UNDEF; rpo.len()];
        doms[0] = 0;
        let intersect = |doms: &[usize], mut x: usize, mut y: usize| {
            while x != y {
                while x > y {
                    x = doms[x];
                }
                while y > x {
                    y = doms[y];
                }
            }
            x
        };

        let mut changed = true;
        while changed {
            changed = false;
            for (i, &b) in rpo.iter().enumerate().skip(1) {
                let mut new_idom = UNDEF;
                for &p in cfg.preds(b) {
                    // Unreachable and not-yet-processed predecessors don't count.
                    let Some(pi) = cfg.rpo_pos(p).filter(|&pi| doms[pi] != UNDEF) else {
                        continue;
                    };
                    new_idom = match new_idom {
                        UNDEF => pi,
                        cur => intersect(&doms, cur, pi),
                    };
                }
                if new_idom != UNDEF && doms[i] != new_idom {
                    doms[i] = new_idom;
                    changed = true;
                }
            }
        }
        let mut idom = vec![None; cfg.num_blocks()];
        for (&b, &d) in rpo.iter().zip(&doms).skip(1) {
            idom[b.index()] = Some(rpo[d]);
        }
        DomTree {
            idom,
            entry: cfg.entry(),
        }
    }

    /// Is `b` reachable from the entry?
    pub fn is_reachable(&self, b: BlockId) -> bool {
        b == self.entry || self.idom[b.index()].is_some()
    }

    /// Does `a` dominate `b`? (Reflexive: every block dominates itself.)
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        if !self.is_reachable(a) || !self.is_reachable(b) {
            return a == b;
        }
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match self.idom[cur.index()] {
                Some(d) => cur = d,
                // `cur` is the entry (no idom) and was already compared to
                // `a` at the top of the loop.
                None => return false,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::program::Function;
    use crate::types::RegClass;

    /// Diamond: b0 -> {b1, b2} -> b3
    fn diamond() -> (Function, [BlockId; 4]) {
        let mut fb = FunctionBuilder::new("d");
        let x = fb.param(RegClass::Int);
        let b1 = fb.new_block();
        let b2 = fb.new_block();
        let b3 = fb.new_block();
        let p = fb.cmp_lti(x, 0);
        fb.branch(p, b1, b2);
        fb.switch_to(b1);
        fb.br(b3);
        fb.switch_to(b2);
        fb.br(b3);
        fb.switch_to(b3);
        fb.ret(None);
        let f = fb.finish();
        let e = f.entry;
        (f, [e, b1, b2, b3])
    }

    #[test]
    fn diamond_idoms() {
        let (f, [b0, b1, b2, b3]) = diamond();
        let dt = DomTree::compute(&Cfg::new(&f));
        assert_eq!(dt.idom[b0.index()], None);
        assert_eq!(dt.idom[b1.index()], Some(b0));
        assert_eq!(dt.idom[b2.index()], Some(b0));
        assert_eq!(dt.idom[b3.index()], Some(b0));
        assert!(dt.dominates(b0, b3));
        assert!(!dt.dominates(b1, b3));
        assert!(dt.dominates(b3, b3));
    }

    #[test]
    fn loop_header_dominates_body() {
        // b0 -> b1 (header) -> b2 (body) -> b1 ; b1 -> b3 (exit)
        let mut fb = FunctionBuilder::new("l");
        let x = fb.param(RegClass::Int);
        let b1 = fb.new_block();
        let b2 = fb.new_block();
        let b3 = fb.new_block();
        fb.br(b1);
        fb.switch_to(b1);
        let p = fb.cmp_lti(x, 10);
        fb.branch(p, b2, b3);
        fb.switch_to(b2);
        fb.br(b1);
        fb.switch_to(b3);
        fb.ret(None);
        let f = fb.finish();
        let dt = DomTree::compute(&Cfg::new(&f));
        assert!(dt.dominates(b1, b2));
        assert!(dt.dominates(b1, b3));
        assert!(!dt.dominates(b2, b3));
    }

    #[test]
    fn unreachable_blocks_flagged() {
        let mut fb = FunctionBuilder::new("u");
        let dead = fb.new_block();
        fb.ret(None);
        fb.switch_to(dead);
        fb.ret(None);
        let f = fb.finish();
        let dt = DomTree::compute(&Cfg::new(&f));
        assert!(!dt.is_reachable(dead));
        assert!(dt.is_reachable(f.entry));
    }
}
