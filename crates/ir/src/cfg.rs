//! A function's control-flow graph in flat form.
//!
//! [`Cfg::new`] scans each block's branch targets once and keeps successor
//! and predecessor lists in compressed sparse rows (one offset table and one
//! edge array each), plus the reverse postorder from the entry and every
//! block's position in it. Every CFG query of the analyses and passes is a
//! slice lookup, so none of them rescans instructions or allocates.
//!
//! Edge order is the IR's: a block's successors are listed as
//! [`Block::successors`](crate::Block::successors) yields them (each `CBr`
//! target in program order, then the final `Br` target), duplicates
//! included, and a block's predecessors in increasing block order with one
//! entry per edge. Reverse postorder, loop order and so every pass's output
//! depend on that order.
//!
//! A `Cfg` describes the function it was built from at that moment. Nothing
//! caches it: a pass that rewrites control flow builds a new one.

use crate::program::Function;
use crate::types::BlockId;

/// RPO position of a block the entry cannot reach.
const UNREACHED: u32 = u32::MAX;

/// Successors, predecessors and reverse postorder of one function.
#[derive(Clone, Debug)]
pub struct Cfg {
    /// `succs[succ_at[b]..succ_at[b + 1]]` are block `b`'s successors.
    succ_at: Vec<u32>,
    succs: Vec<BlockId>,
    /// `preds[pred_at[b]..pred_at[b + 1]]` are block `b`'s predecessors.
    pred_at: Vec<u32>,
    preds: Vec<BlockId>,
    /// Reachable blocks in reverse postorder, entry first.
    rpo: Vec<BlockId>,
    /// Each block's index in `rpo`, [`UNREACHED`] if it has none.
    rpo_pos: Vec<u32>,
}

impl Cfg {
    /// Build the graph of `func`.
    pub fn new(func: &Function) -> Self {
        let nb = func.blocks.len();
        let mut succ_at = Vec::with_capacity(nb + 1);
        let mut succs = Vec::with_capacity(2 * nb);
        // Predecessor counts first, at the slot of the block they belong to.
        let mut pred_at = vec![0u32; nb + 1];
        succ_at.push(0);
        for block in &func.blocks {
            for s in block.successors() {
                succs.push(s);
                pred_at[s.index()] += 1;
            }
            succ_at.push(succs.len() as u32);
        }
        // Running sums turn each count into its list's end; filling the
        // edges backwards then walks every end down to its list's start and
        // leaves each list in increasing source order.
        let mut total = 0;
        for at in &mut pred_at {
            total += *at;
            *at = total;
        }
        let mut preds = vec![BlockId(0); succs.len()];
        for b in (0..nb).rev() {
            for &s in &succs[succ_at[b] as usize..succ_at[b + 1] as usize] {
                pred_at[s.index()] -= 1;
                preds[pred_at[s.index()] as usize] = BlockId(b as u32);
            }
        }

        let mut cfg = Cfg {
            succ_at,
            succs,
            pred_at,
            preds,
            rpo: Vec::with_capacity(nb),
            rpo_pos: vec![UNREACHED; nb],
        };
        cfg.number_reachable(func.entry);
        cfg
    }

    /// Depth-first search from `entry` taking successors in order; fills
    /// `rpo` and `rpo_pos`.
    fn number_reachable(&mut self, entry: BlockId) {
        // Explicit stack of (block, index of its next successor to try);
        // `rpo_pos` doubles as the visited mark until the numbering.
        let mut stack: Vec<(BlockId, usize)> = vec![(entry, 0)];
        self.rpo_pos[entry.index()] = 0;
        while let Some(&mut (b, ref mut next)) = stack.last_mut() {
            match self.succs(b).get(*next) {
                Some(&s) => {
                    *next += 1;
                    if self.rpo_pos[s.index()] == UNREACHED {
                        self.rpo_pos[s.index()] = 0;
                        stack.push((s, 0));
                    }
                }
                None => {
                    self.rpo.push(b); // postorder, reversed below
                    stack.pop();
                }
            }
        }
        self.rpo.reverse();
        for (i, b) in self.rpo.iter().enumerate() {
            self.rpo_pos[b.index()] = i as u32;
        }
    }

    /// The entry block (the first block in reverse postorder).
    pub fn entry(&self) -> BlockId {
        self.rpo[0]
    }

    /// Number of blocks, reachable or not.
    pub fn num_blocks(&self) -> usize {
        self.rpo_pos.len()
    }

    /// Successors of `b`, in branch order with duplicates.
    pub fn succs(&self, b: BlockId) -> &[BlockId] {
        &self.succs[self.succ_at[b.index()] as usize..self.succ_at[b.index() + 1] as usize]
    }

    /// Predecessors of `b`, in increasing block order, one per edge.
    pub fn preds(&self, b: BlockId) -> &[BlockId] {
        &self.preds[self.pred_at[b.index()] as usize..self.pred_at[b.index() + 1] as usize]
    }

    /// Blocks reachable from the entry, in reverse postorder (entry first).
    pub fn rpo(&self) -> &[BlockId] {
        &self.rpo
    }

    /// `b`'s index in [`Cfg::rpo`], or `None` if the entry cannot reach it.
    pub fn rpo_pos(&self, b: BlockId) -> Option<usize> {
        let p = self.rpo_pos[b.index()];
        (p != UNREACHED).then_some(p as usize)
    }

    /// Can the entry reach `b`?
    pub fn is_reachable(&self, b: BlockId) -> bool {
        self.rpo_pos[b.index()] != UNREACHED
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::types::RegClass;

    #[test]
    fn duplicate_edges_and_unreachable_blocks() {
        // b0 branches to b1 on both edges; b1 loops to itself and returns
        // through b2; b3 is unreachable and jumps into b2.
        let mut fb = FunctionBuilder::new("g");
        let x = fb.param(RegClass::Int);
        let b1 = fb.new_block();
        let b2 = fb.new_block();
        let b3 = fb.new_block();
        let p = fb.cmp_lti(x, 0);
        fb.branch(p, b1, b1);
        fb.switch_to(b1);
        let q = fb.cmp_lti(x, 5);
        fb.branch(q, b1, b2);
        fb.switch_to(b2);
        fb.ret(None);
        fb.switch_to(b3);
        fb.br(b2);
        let f = fb.finish();
        let cfg = Cfg::new(&f);
        let b0 = f.entry;
        assert_eq!(cfg.succs(b0), [b1, b1]);
        assert_eq!(cfg.succs(b1), [b1, b2]);
        assert_eq!(cfg.preds(b1), [b0, b0, b1]);
        assert_eq!(cfg.preds(b2), [b1, b3]);
        assert_eq!(cfg.rpo(), [b0, b1, b2]);
        assert_eq!(cfg.rpo_pos(b2), Some(2));
        assert!(!cfg.is_reachable(b3));
        assert_eq!(cfg.rpo_pos(b3), None);
        assert_eq!(cfg.num_blocks(), 4);
    }
}
