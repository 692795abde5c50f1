//! The factored distance index: exact O(1) distances on single-homed
//! transit-stub graphs — one read of a stub's (or the core's) all-pairs
//! table, or `up[a] + core[attach[a]][attach[b]] + up[b]`, the same
//! saturating `u64` sum Dijkstra forms along the same path (DESIGN.md §14).

use std::collections::BinaryHeap;

use tao_util::det::DetMap;
use tao_util::time::SimDuration;

use crate::graph::{Graph, NodeIdx, NodeKind};
use crate::shortest_path::dijkstra_into;

/// Most table entries an index may hold: 128 MiB of `u64`. tsk-small, the
/// densest preset, needs 3.1 M; anything larger is answered from rows.
const MAX_ENTRIES: u64 = 1 << 24;

/// Block 0 is the transit core; stub domains are blocks 1, 2, ….
const CORE: u32 = 0;

#[derive(Debug, Clone, Copy)]
struct Router {
    block: u32,
    /// Position inside the block.
    local: u32,
    /// Where this router's row of its block's table starts in `tables`.
    row: u32,
    /// Core position of the transit router the block hangs off (a transit
    /// router's own position).
    attach: u32,
    /// Distance to that transit router: intra-stub distance to the access
    /// router plus the gateway link. Zero for transit routers.
    up: SimDuration,
}

/// All-pairs tables per block plus the per-router records that join them.
#[derive(Debug)]
pub(crate) struct DistanceIndex {
    routers: Vec<Router>,
    /// The core's table first (so `attach` pairs index it from zero), then
    /// one `size²` table per stub domain, row-major.
    tables: Vec<SimDuration>,
    core_len: usize,
}

impl DistanceIndex {
    /// Builds the index, or `None` when `graph` does not factor: a stub
    /// domain with no boundary edge, with several, or with one that lands
    /// on another stub — or tables past [`MAX_ENTRIES`].
    pub(crate) fn build(graph: &Graph) -> Option<DistanceIndex> {
        let csr = graph.csr();
        let mut block_of: DetMap<u32, u32> = DetMap::new();
        let mut members: Vec<Vec<u32>> = vec![Vec::new()];
        let mut routers = Vec::with_capacity(graph.node_count());
        for v in graph.nodes() {
            let block = match graph.kind(v) {
                NodeKind::Transit { .. } => CORE,
                NodeKind::Stub { domain } => *block_of.entry(domain).or_insert_with(|| {
                    members.push(Vec::new());
                    members.len() as u32 - 1
                }),
            };
            let local = members[block as usize].len() as u32;
            members[block as usize].push(v.0);
            routers.push(Router {
                block,
                local,
                row: 0,
                attach: local,
                up: SimDuration::ZERO,
            });
        }

        // Each stub's one boundary edge: (access router's position, the
        // transit router's core position, gateway link).
        let mut gates: Vec<Option<(usize, u32, SimDuration)>> = vec![None; members.len()];
        for (b, stub) in members.iter().enumerate().skip(1) {
            for &u in stub {
                for e in csr.row(u as usize) {
                    let to = routers[e.to as usize];
                    if to.block as usize == b {
                        continue;
                    }
                    if to.block != CORE || gates[b].is_some() {
                        return None;
                    }
                    gates[b] = Some((routers[u as usize].local as usize, to.local, e.weight));
                }
            }
            gates[b]?;
        }

        // Σ size² ≤ n² < 2⁶⁴: the sum cannot overflow.
        let total: u64 = members.iter().map(|m| (m.len() as u64).pow(2)).sum();
        if total > MAX_ENTRIES {
            return None;
        }

        // One Dijkstra per router, confined to its block; `dist` is indexed
        // by router and handed back all-`MAX` by the copy into the table.
        let mut tables = vec![SimDuration::MAX; total as usize];
        let mut dist = vec![SimDuration::MAX; routers.len()];
        let mut heap = BinaryHeap::new();
        let mut base = 0;
        for (b, block) in members.iter().enumerate() {
            let size = block.len();
            let table = &mut tables[base..base + size * size];
            for (&s, row) in block.iter().zip(table.chunks_exact_mut(size)) {
                let inside = |to: u32| routers[to as usize].block as usize == b;
                dijkstra_into(csr, s, &mut dist, &mut heap, inside);
                for (slot, &m) in row.iter_mut().zip(block) {
                    *slot = std::mem::replace(&mut dist[m as usize], SimDuration::MAX);
                }
            }
            for (i, &v) in block.iter().enumerate() {
                let r = &mut routers[v as usize];
                r.row = (base + i * size) as u32;
                if let Some((access, attach, link)) = gates[b] {
                    r.attach = attach;
                    r.up = table[i * size + access] + link;
                }
            }
            base += size * size;
        }
        Some(DistanceIndex {
            routers,
            tables,
            core_len: members[0].len(),
        })
    }

    /// The shortest-path latency between `a` and `b`.
    pub(crate) fn distance(&self, a: NodeIdx, b: NodeIdx) -> SimDuration {
        let (ra, rb) = (&self.routers[a.index()], &self.routers[b.index()]);
        if ra.block == rb.block {
            self.tables[(ra.row + rb.local) as usize]
        } else {
            let core = self.tables[ra.attach as usize * self.core_len + rb.attach as usize];
            ra.up + core + rb.up
        }
    }
}
