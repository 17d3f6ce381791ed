//! Natural-loop detection and loop nesting.

use crate::cfg::Cfg;
use crate::dom::DomTree;
use crate::types::BlockId;
use crate::util::BitSet;

/// A natural loop: a header plus the set of blocks that can reach one of the
/// header's backedge sources without passing through the header.
#[derive(Clone, Debug)]
pub struct NaturalLoop {
    /// Loop header (target of the backedges).
    pub header: BlockId,
    /// All blocks in the loop, including the header.
    pub blocks: BitSet,
    /// Sources of backedges into the header.
    pub latches: Vec<BlockId>,
    /// Index of the innermost enclosing loop, if any.
    pub parent: Option<usize>,
    /// Nesting depth (outermost = 1).
    pub depth: u32,
}

impl NaturalLoop {
    /// Is `b` inside this loop?
    pub fn contains(&self, b: BlockId) -> bool {
        self.blocks.contains(b.index())
    }

    /// Blocks outside the loop that the loop can exit to.
    pub fn exit_targets(&self, cfg: &Cfg) -> Vec<BlockId> {
        let mut out = Vec::new();
        for bi in self.blocks.iter() {
            for &s in cfg.succs(BlockId(bi as u32)) {
                if !self.contains(s) && !out.contains(&s) {
                    out.push(s);
                }
            }
        }
        out
    }
}

/// All natural loops of a function, with nesting resolved.
#[derive(Clone, Debug)]
pub struct LoopForest {
    /// Loops, ordered outermost-first within each nest.
    pub loops: Vec<NaturalLoop>,
    /// For each block, the innermost loop containing it, if any.
    pub innermost: Vec<Option<usize>>,
}

impl LoopForest {
    /// Detect the natural loops of the graph `cfg` using its dominator
    /// tree. Loops sharing a header are merged (standard practice).
    pub fn compute(cfg: &Cfg, dt: &DomTree) -> Self {
        let n = cfg.num_blocks();
        // Collect backedges u -> h where h dominates u.
        let mut by_header: Vec<(BlockId, Vec<BlockId>)> = Vec::new();
        for &u in cfg.rpo() {
            for &s in cfg.succs(u) {
                if dt.dominates(s, u) {
                    match by_header.iter_mut().find(|(h, _)| *h == s) {
                        Some((_, ls)) => ls.push(u),
                        None => by_header.push((s, vec![u])),
                    }
                }
            }
        }
        // Build each loop's block set by walking predecessors from latches.
        let mut stack: Vec<BlockId> = Vec::new();
        let mut loops: Vec<NaturalLoop> = by_header
            .into_iter()
            .map(|(header, latches)| {
                let mut blocks = BitSet::new(n);
                blocks.insert(header.index());
                for &l in &latches {
                    if blocks.insert(l.index()) {
                        stack.push(l);
                    }
                }
                while let Some(b) = stack.pop() {
                    for &p in cfg.preds(b) {
                        if cfg.is_reachable(p) && blocks.insert(p.index()) {
                            stack.push(p);
                        }
                    }
                }
                NaturalLoop {
                    header,
                    blocks,
                    latches,
                    parent: None,
                    depth: 1,
                }
            })
            .collect();

        // Nesting: loop A is inside loop B iff B contains A's header and A != B.
        // Sort by block count so parents (larger) come later; the innermost
        // enclosing loop is the smallest strictly-containing one.
        let order: Vec<usize> = {
            let mut ix: Vec<usize> = (0..loops.len()).collect();
            ix.sort_by_key(|&i| loops[i].blocks.count());
            ix
        };
        for (oi, &i) in order.iter().enumerate() {
            // Find the smallest loop later in the order containing header i.
            for &j in order.iter().skip(oi + 1) {
                if loops[j].blocks.contains(loops[i].header.index()) {
                    loops[i].parent = Some(j);
                    break;
                }
            }
        }
        // Depths.
        for i in 0..loops.len() {
            let mut d = 1;
            let mut cur = loops[i].parent;
            while let Some(p) = cur {
                d += 1;
                cur = loops[p].parent;
            }
            loops[i].depth = d;
        }
        // Innermost loop per block.
        let mut innermost: Vec<Option<usize>> = vec![None; n];
        for (li, l) in loops.iter().enumerate() {
            for b in l.blocks.iter() {
                match innermost[b] {
                    Some(prev) if loops[prev].blocks.count() <= l.blocks.count() => {}
                    _ => innermost[b] = Some(li),
                }
            }
        }
        LoopForest { loops, innermost }
    }

    /// Loop-nesting depth of a block (0 = not in any loop).
    pub fn depth_of(&self, b: BlockId) -> u32 {
        self.innermost[b.index()].map_or(0, |l| self.loops[l].depth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::program::Function;
    use crate::types::RegClass;

    /// Two-level nest:
    /// b0 -> b1(outer hdr) -> b2(inner hdr) -> b3(inner body) -> b2 ;
    /// b2 -> b4 -> b1 ; b1 -> b5(exit)
    fn nest() -> (Function, [BlockId; 6]) {
        let mut fb = FunctionBuilder::new("nest");
        let x = fb.param(RegClass::Int);
        let b1 = fb.new_block();
        let b2 = fb.new_block();
        let b3 = fb.new_block();
        let b4 = fb.new_block();
        let b5 = fb.new_block();
        fb.br(b1);
        fb.switch_to(b1);
        let p1 = fb.cmp_lti(x, 10);
        fb.branch(p1, b2, b5);
        fb.switch_to(b2);
        let p2 = fb.cmp_lti(x, 5);
        fb.branch(p2, b3, b4);
        fb.switch_to(b3);
        fb.br(b2);
        fb.switch_to(b4);
        fb.br(b1);
        fb.switch_to(b5);
        fb.ret(None);
        let f = fb.finish();
        let e = f.entry;
        (f, [e, b1, b2, b3, b4, b5])
    }

    #[test]
    fn detects_nested_loops() {
        let (f, [b0, b1, b2, b3, b4, b5]) = nest();
        let cfg = Cfg::new(&f);
        let dt = DomTree::compute(&cfg);
        let lf = LoopForest::compute(&cfg, &dt);
        assert_eq!(lf.loops.len(), 2);
        let outer = lf.loops.iter().position(|l| l.header == b1).unwrap();
        let inner = lf.loops.iter().position(|l| l.header == b2).unwrap();
        assert_eq!(lf.loops[inner].parent, Some(outer));
        assert_eq!(lf.loops[outer].depth, 1);
        assert_eq!(lf.loops[inner].depth, 2);
        assert_eq!(lf.depth_of(b3), 2);
        assert_eq!(lf.depth_of(b4), 1);
        assert_eq!(lf.depth_of(b0), 0);
        assert_eq!(lf.depth_of(b5), 0);
        assert!(lf.loops[outer].contains(b2));
        assert!(!lf.loops[inner].contains(b4));
    }

    #[test]
    fn exit_targets_found() {
        let (f, [_, b1, _, _, _, b5]) = nest();
        let cfg = Cfg::new(&f);
        let dt = DomTree::compute(&cfg);
        let lf = LoopForest::compute(&cfg, &dt);
        let outer = lf.loops.iter().position(|l| l.header == b1).unwrap();
        assert_eq!(lf.loops[outer].exit_targets(&cfg), vec![b5]);
    }

    #[test]
    fn straight_line_has_no_loops() {
        let mut fb = FunctionBuilder::new("s");
        fb.ret(None);
        let f = fb.finish();
        let cfg = Cfg::new(&f);
        let dt = DomTree::compute(&cfg);
        let lf = LoopForest::compute(&cfg, &dt);
        assert!(lf.loops.is_empty());
    }
}
