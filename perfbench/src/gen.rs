//! Seeded O(n) input generators. The program only ever sees what these
//! return.
//!
//! `netbw_graph::schemes::random_bounded` rescans every node for each
//! drawn flow, which is O(flows × nodes) and takes longer to build a 100k
//! schedule than the engine takes to drain it. These generators draw
//! bounded-degree endpoints from shuffled degree slots instead.

use crate::util::Rng;
use netbw::graph::{CommGraph, Communication};

/// One queued transfer: `(key, communication, start time)`.
pub type Transfer = (u64, Communication, f64);

/// `count` endpoint pairs over `nodes` nodes with at most `max_deg`
/// outgoing and `max_deg` incoming flows per node and no self-loop.
pub fn bounded_pairs(rng: &mut Rng, nodes: u32, count: usize, max_deg: u32) -> Vec<(u32, u32)> {
    assert!(nodes >= 2 && count <= (nodes * max_deg) as usize);
    let slots = |rng: &mut Rng| {
        let mut v: Vec<u32> = (0..nodes * max_deg).map(|i| i / max_deg).collect();
        rng.shuffle(&mut v);
        v
    };
    let src = slots(rng);
    let mut dst = slots(rng);
    let len = dst.len();
    let mut pairs = Vec::with_capacity(count);
    for i in 0..count {
        // A self-loop trades destination slots with another pair whose
        // endpoints stay distinct after the swap; degrees are unchanged.
        if src[i] == dst[i] {
            let ok = |j: usize| dst[j] != src[i] && src[j] != src[i];
            let j = (i + 1..len)
                .chain(0..i)
                .find(|&j| ok(j))
                .expect("at least two nodes");
            dst.swap(i, j);
            if j < i {
                pairs[j] = (src[j], dst[j]);
            }
        }
        pairs.push((src[i], dst[i]));
    }
    pairs
}

/// `drain_deep_gige`: `flows` bounded-degree (≤3 out, ≤3 in) transfers
/// over `flows / 2` nodes, 256 KiB–1 MiB each, starts staggered so that
/// about `concurrent` run at once under the GigE parameters.
pub fn deep_schedule(seed: u64, flows: usize, concurrent: f64, bandwidth: f64) -> Vec<Transfer> {
    let mut rng = Rng::new(seed);
    let pairs = bounded_pairs(&mut rng, (flows / 2).max(2) as u32, flows, 3);
    let (lo, hi) = (256u64 << 10, 1u64 << 20);
    let stagger = (lo + hi) as f64 / 2.0 / bandwidth / concurrent;
    pairs
        .into_iter()
        .enumerate()
        .map(|(i, (s, d))| {
            let size = lo + rng.below(hi - lo);
            (i as u64, Communication::new(s, d, size), stagger * i as f64)
        })
        .collect()
}

/// `drain_tenants_myrinet`: `tenants` disjoint tenants of `nodes` nodes
/// and `flows` transfers each. Every tenant runs its own Poisson arrival
/// process (same rate, phase drawn per tenant) keeping a handful of
/// its flows in flight, well inside the Myrinet model's state-set budget.
pub fn tenant_schedule(
    seed: u64,
    tenants: u32,
    nodes: u32,
    flows: usize,
    bandwidth: f64,
) -> Vec<Transfer> {
    let mut rng = Rng::new(seed);
    let (lo, hi) = (64u64 << 10, 1u64 << 20);
    let mean_alone = (lo + hi) as f64 / 2.0 / bandwidth;
    let mut out = Vec::with_capacity(tenants as usize * flows);
    for t in 0..tenants {
        let base = t * nodes;
        // about three of the tenant's flows in flight on average; the
        // phase is the tenant's own, so no two tenants are in step
        let rate = 3.0 / mean_alone;
        let mut at = rng.unit() * flows as f64 / rate;
        for _ in 0..flows {
            at += rng.exp(rate);
            let s = rng.below(nodes as u64) as u32;
            let d = (s + 1 + rng.below(nodes as u64 - 1) as u32) % nodes;
            let size = lo + rng.below(hi - lo);
            out.push((0, Communication::new(base + s, base + d, size), at));
        }
    }
    out.sort_by(|a, b| a.2.total_cmp(&b.2));
    for (i, t) in out.iter_mut().enumerate() {
        t.0 = i as u64;
    }
    out
}

/// `battery_3fabric`: the paper's schemes plus `count` random schemes of
/// `flows` bounded-degree flows over `nodes` nodes, all at `size` bytes.
pub fn battery(seed: u64, count: usize, nodes: u32, flows: usize, size: u64) -> Vec<CommGraph> {
    let mut rng = Rng::new(seed);
    let mut out = netbw::workloads::synthetic::paper_battery(size);
    for i in 0..count {
        let mut g = CommGraph::named(format!("bench-{nodes}n-{flows}c-{i}"));
        for (s, d) in bounded_pairs(&mut rng, nodes, flows, 3) {
            g.add_auto(s, d, size);
        }
        out.push(g);
    }
    out
}
