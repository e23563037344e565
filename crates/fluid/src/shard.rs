//! The shard table behind every event-driven engine mode: per-shard
//! timelines and penalty caches over the shared slab, settled by one
//! barrier (see [`crate::EngineMode`]).
//!
//! The default engine ([`crate::EngineMode::Heap`]) is the one-shard case:
//! a single *unpartitioned* shard holds every flow, with no component
//! tracker, no member list, no cross-shard heap and no refinement — its
//! settle is one cache refresh plus a re-anchor of the affected flows, and
//! its next event is a peek at the shard's own heaps.
//!
//! The sharded modes partition the population by conflict component. The
//! penalty models are component-local (see [`netbw_core::components`]):
//! flows in disjoint connected components of the shared-endpoint graph
//! never influence each other's penalty. So each component ("shard") gets
//! its own [`crate::event_heap`] timeline and [`PenaltyCache`] (with its
//! own model scratch). A settle then refreshes only the *dirty* shards —
//! and those refreshes are independent, so they can run in parallel
//! through a [`crate::dispatch::SettleDispatch`].
//!
//! The partition **refines in both directions**, driven by the
//! [`ComponentTracker`]. Arrivals coarsen it: a new flow joins an
//! existing shard, creates a fresh one, or *bridges* two — in which case
//! the loser shard is retired: its member list and event heaps are
//! spliced into the winner, its cache counters fold into the set-wide
//! accumulator, and the winner's cache is invalidated for a full rebuild.
//! Departures refine it back apart: the tracker classifies each one as
//! [`ComponentRemoval::Shrunk`], [`ComponentRemoval::Drained`] (the
//! shard's last flow left, so its slot retires), or
//! [`ComponentRemoval::Split`] — in which case `ShardSet::split` carves
//! the splinter component out of its shard: member keys are partitioned
//! by a tracker lookup, the splinter gets a [`PenaltyCache::fork`] of the
//! kept cache (with zeroed counters: the kept shard keeps the history, so
//! the aggregate counts it once) with each side noting the other's
//! members as departures
//! (penalties are component-local, so both sides' next delta refresh
//! reproduces identical values and the engine's resync skips — the split
//! is bitwise invisible), and the splinter's event heaps are rebuilt from
//! its members under freshly bumped slot epochs so the kept shard's old
//! entries go stale lazily. A union of true components is still a safe
//! partition cell, so splitting is purely a performance refinement —
//! without it any long-lived population degrades toward one mega-shard.
//!
//! One model behaviour is *not* component-local: a Myrinet state-set
//! budget refusal degrades the whole query population to the max-conflict
//! approximation, so an over-budget component in the unpartitioned engine
//! changes the penalties of every other component in the same query. The
//! first time any shard's refresh reports such a fallback, the settle
//! barrier `ShardSet::collapse_all`s the partition into a single global
//! shard — *pinned* to the offending component's root — and redoes the
//! settle globally, keeping the modes bit-for-bit equal in every regime.
//! The collapse is no longer permanent until drain: the tracker keeps
//! running underneath it, and the moment the pinned component drains or
//! splits, `ShardSet::explode` rebuilds the true partition from the
//! live slab and per-component settling resumes. (If some component is
//! *still* over budget, its fresh cache's first refresh reports a new
//! fallback and the barrier re-collapses at the same instant — exactly
//! matching the unpartitioned engine's global degradation, so equality holds
//! through the thrash.)
//!
//! Cross-shard event ordering goes through one lazy min-heap of
//! `(next event time, shard, version)` entries: every change to a shard's
//! timeline bumps its version and pushes a fresh entry, and stale entries
//! are discarded on pop — the same lazy-invalidation idea the per-shard
//! completion heaps already use, one level up. Retired shard slots *are*
//! reused (drains and splits would otherwise leak slots forever on a
//! churning population), which is safe because a slot's version continues
//! from where the previous occupant left off: every stale entry carries a
//! version at most the retired shard's last, and the new occupant starts
//! strictly above it.

use crate::cache::{CacheStats, PenaltyCache};
use crate::event_heap::{EventHeaps, TimelineStats};
use crate::slab::{FlowKey, Slab};
use netbw_core::{ComponentChange, ComponentRemoval, ComponentRoot, ComponentTracker};
use netbw_graph::Communication;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// The slot fields the shard table reads when re-partitioning live flows.
/// Implemented by the engine's (private) slot type so [`ShardSet`] can
/// move members between shards without knowing the slot layout.
pub(crate) trait SlotView {
    /// The flow's endpoints.
    fn comm(&self) -> &Communication;
    /// Whether the flow is past its gate and contending for bandwidth.
    fn contending(&self) -> bool;
    /// The cached completion time (meaningful while contending).
    fn finish(&self) -> f64;
    /// The gate time (meaningful while not contending).
    fn gate(&self) -> f64;
}

/// Partition-shape counters for the sharded engine: how many shards are
/// live right now and how often the partition has refined (split),
/// coarsened (merged), drained, budget-collapsed or un-collapsed since
/// the engine was built. Cumulative across resets.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Live shards in the current partition.
    pub live_shards: usize,
    /// Shards carved apart because a departure split their component.
    pub splits: u64,
    /// Shard pairs merged because an arrival bridged their components.
    pub merges: u64,
    /// Shards retired because their last member departed.
    pub drains: u64,
    /// Partition collapses forced by a Myrinet budget fallback.
    pub budget_collapses: u64,
    /// Collapses undone early because the pinned component departed.
    pub uncollapses: u64,
    /// Whether the partition is currently collapsed into one shard.
    pub collapsed: bool,
}

/// One conflict component's private engine state.
pub(crate) struct Shard {
    /// The tracker root of the component this shard holds. Kept in sync
    /// through root re-seats and splits; meaningless while the partition
    /// is collapsed.
    pub(crate) root: ComponentRoot,
    /// The shard's penalty cache (and model scratch).
    pub(crate) cache: PenaltyCache,
    /// The shard's completion/gate heaps.
    pub(crate) events: EventHeaps,
    /// Every flow ever assigned to this shard and not yet known-dead;
    /// stale keys (completed flows) are compacted lazily before a rebuild
    /// gather or a split. Only those two read this — warm settles stage
    /// the population from the cache's pending change sets.
    pub(crate) members: Vec<FlowKey>,
    /// Staging buffer for the next refresh's population (recycled through
    /// [`PenaltyCache::refresh`]).
    pub(crate) staged: Vec<FlowKey>,
    /// Communications aligned with `staged` (same recycling).
    pub(crate) comms_buf: Vec<Communication>,
    /// Bumped on every timeline change; the cross-shard event heap stamps
    /// its entries with this, so superseded entries go stale. Survives the
    /// shard's retirement: a reused slot continues from the last version.
    pub(crate) version: u64,
    /// Whether the shard sits in the dirty list awaiting a settle.
    pub(crate) dirty: bool,
}

impl Shard {
    fn new(root: ComponentRoot) -> Self {
        Shard {
            root,
            cache: PenaltyCache::new(),
            events: EventHeaps::default(),
            members: Vec::new(),
            staged: Vec::new(),
            comms_buf: Vec::new(),
            version: 0,
            dirty: false,
        }
    }

    /// An independent deep copy (cache via [`PenaltyCache::fork`], heaps
    /// entry-for-entry) that settles bit-for-bit like the original.
    fn fork(&self) -> Shard {
        let mut out = Shard::new(self.root);
        self.fork_into(&mut out);
        out
    }

    /// [`Self::fork`] into an existing shard, reusing its allocations
    /// (cache via [`PenaltyCache::fork_into`], heaps via
    /// [`EventHeaps::fork_into`]). Bitwise identical outcome to `fork`.
    fn fork_into(&self, target: &mut Shard) {
        target.root = self.root;
        self.cache.fork_into(&mut target.cache);
        self.events.fork_into(&mut target.events);
        target.members.clone_from(&self.members);
        target.staged.clone_from(&self.staged);
        target.comms_buf.clone_from(&self.comms_buf);
        target.version = self.version;
        target.dirty = self.dirty;
    }
}

/// A cross-shard event-heap entry: one shard's next completion-or-gate
/// time as of `version`. Min-ordered by time with a shard-id tiebreak so
/// simultaneous events pop deterministically.
#[derive(Clone, Copy, Debug)]
struct ShardNext {
    time: f64,
    shard: usize,
    version: u64,
}

impl PartialEq for ShardNext {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for ShardNext {}
impl PartialOrd for ShardNext {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for ShardNext {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.shard.cmp(&self.shard))
            .then_with(|| other.version.cmp(&self.version))
    }
}

/// How a [`ShardSet`] partitions the flow population.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) enum Partition {
    /// One unpartitioned shard (index 0) holds every flow for the set's
    /// whole life: no tracker, no member list, no cross-shard heap, no
    /// refinement. The default engine and the scan modes.
    Single,
    /// One shard per conflict component, refined in both directions.
    #[default]
    Refine,
    /// One shard per conflict component, coarsening only: departures are
    /// ignored (the tracker keeps every edge forever) — the
    /// pre-refinement behaviour, kept as the ablation baseline the split
    /// benchmarks compare against.
    MergeOnly,
}

/// The engine's shard table: component tracker, live shards, the dirty
/// list and the cross-shard event heap, plus the counters of retired
/// shards (so aggregate stats survive merges and resets). `Default` is an
/// empty refining table.
#[derive(Default)]
pub(crate) struct ShardSet {
    partition: Partition,
    tracker: ComponentTracker,
    /// Shard index per tracker root index. Entries go stale when a root
    /// is absorbed, re-seated or drained; lookups that may hit a stale
    /// entry (only [`Self::explode`]'s) validate against the shard's own
    /// `root` field before trusting it.
    shard_of_root: Vec<usize>,
    /// Live shards; a retired slot goes to `None` and onto `free_slots`
    /// for reuse.
    shards: Vec<Option<Shard>>,
    /// Count of `Some` entries in `shards`.
    live: usize,
    /// Retired shard slots, each with the version its last occupant
    /// reached — a new occupant's version continues strictly above it so
    /// stale [`ShardNext`] entries can never alias across occupancies.
    free_slots: Vec<(usize, u64)>,
    /// Indices of shards with pending population changes, in marking
    /// order (settles sort it).
    pub(crate) dirty: Vec<usize>,
    next_events: BinaryHeap<ShardNext>,
    /// Cache counters of retired shards (merged away, drained, or cleared
    /// by a reset).
    retired_cache: CacheStats,
    /// Timeline counters of drained/exploded/reset shards (merges fold
    /// the loser's counters into the winner's heaps directly).
    retired_timeline: TimelineStats,
    /// Set while the partition is collapsed into a single global shard
    /// (see [`Self::collapse_all`]); every assignment routes here until
    /// the pinned component departs or the population drains.
    collapsed_into: Option<usize>,
    /// The root of the component whose budget fallback forced the
    /// collapse. The tracker keeps running while collapsed so this pin
    /// follows bridges and root re-seats; the moment the pinned component
    /// drains or splits, [`Self::explode`] rebuilds the partition.
    collapsed_pin: Option<ComponentRoot>,
    /// Settles served entirely from valid shard caches, reported as
    /// [`CacheStats::reuses`].
    reused_settles: u64,
    /// Scratch buffer for the candidate shards of one event.
    candidates: Vec<usize>,
    splits: u64,
    merges: u64,
    drains: u64,
    collapses: u64,
    uncollapses: u64,
}

impl ShardSet {
    /// An empty shard table. A [`Partition::Single`] table starts with its
    /// one shard in place and dirty, so the first settle queries the model
    /// even when every flow is still gated — exactly like a fresh cache.
    pub(crate) fn new(partition: Partition) -> Self {
        let mut set = ShardSet {
            partition,
            ..ShardSet::default()
        };
        if partition == Partition::Single {
            set.shards.push(Some(Shard::new(0)));
            set.live = 1;
            set.mark_dirty(0);
        }
        set
    }

    /// Whether the population is split by conflict component (the sharded
    /// modes) rather than held in the one unpartitioned shard.
    #[inline]
    pub(crate) fn is_partitioned(&self) -> bool {
        self.partition != Partition::Single
    }

    /// Whether departures refine the partition (and so must be reported
    /// through [`Self::depart`]).
    #[inline]
    pub(crate) fn refines(&self) -> bool {
        self.partition == Partition::Refine
    }

    /// Number of live conflict-component shards; 0 for the unpartitioned
    /// table, whose single shard is not a component.
    #[inline]
    pub(crate) fn live_count(&self) -> usize {
        if self.is_partitioned() {
            self.live
        } else {
            0
        }
    }

    /// Partition-shape counters (live count plus cumulative transitions).
    pub(crate) fn shard_stats(&self) -> ShardStats {
        ShardStats {
            live_shards: self.live_count(),
            splits: self.splits,
            merges: self.merges,
            drains: self.drains,
            budget_collapses: self.collapses,
            uncollapses: self.uncollapses,
            collapsed: self.collapsed_into.is_some(),
        }
    }

    /// Routes a flow's endpoints through the component tracker, creating
    /// or merging shards as needed, and returns the index of the shard
    /// the flow belongs to (always 0 when unpartitioned).
    #[inline]
    pub(crate) fn assign(&mut self, comm: &Communication) -> usize {
        if !self.is_partitioned() {
            return 0;
        }
        if let Some(id) = self.collapsed_into {
            // The partition is pinned flat, but the tracker keeps running
            // so departures can still un-collapse it: if the new flow
            // bridges the pinned component into a union, the pin follows
            // the union's root.
            if self.refines() {
                if let ComponentChange::Bridged { root, absorbed } =
                    self.tracker.insert(comm.src, comm.dst)
                {
                    if self.collapsed_pin == Some(absorbed) {
                        self.collapsed_pin = Some(root);
                    }
                }
            }
            return id;
        }
        match self.tracker.insert(comm.src, comm.dst) {
            ComponentChange::Created { root } => self.alloc(root),
            ComponentChange::Joined { root } => self.shard_of_root[root as usize],
            ComponentChange::Bridged { root, absorbed } => {
                let winner = self.shard_of_root[root as usize];
                let loser = self.shard_of_root[absorbed as usize];
                self.merge(winner, loser);
                winner
            }
        }
    }

    /// Enters a freshly inserted flow into shard `id`: as a member (only
    /// the partitioned table keeps member lists), then as an arrival if it
    /// contends at once (`gate` is `None`) or as a `(gate, epoch)` entry in
    /// the shard's gate heap otherwise.
    pub(crate) fn admit<T>(
        &mut self,
        id: usize,
        flow: FlowKey,
        gate: Option<(f64, u64)>,
        slots: &Slab<T>,
    ) {
        let partitioned = self.is_partitioned();
        let sh = self.shard_mut(id);
        if partitioned {
            sh.members.push(flow);
        }
        match gate {
            None => {
                sh.cache.note_arrival(flow);
                self.mark_dirty(id);
            }
            Some((gate, epoch)) => sh.events.push_gate(gate, flow, epoch),
        }
        self.refresh_next(id, slots);
    }

    /// Handles a completed flow's departure: removes its edge from the
    /// tracker and refines the partition to match — re-seating a root,
    /// retiring a drained shard, splitting a disconnected one, or
    /// un-collapsing a budget-collapsed partition whose pinned component
    /// just departed. Call after the flow's slot has left the slab, and
    /// only on a refining table.
    pub(crate) fn depart<S: SlotView>(&mut self, comm: &Communication, slots: &mut Slab<S>) {
        debug_assert!(self.refines(), "only a refining table tracks departures");
        let removal = self.tracker.remove(comm.src, comm.dst);
        if self.collapsed_into.is_some() {
            // Only the global shard exists: no per-shard bookkeeping, but
            // keep the pin pointing at the offending component — and the
            // moment that component drains or breaks apart, the reason
            // for the collapse is gone, so rebuild the true partition.
            match removal {
                ComponentRemoval::Shrunk { old_root, root } => {
                    if self.collapsed_pin == Some(old_root) {
                        self.collapsed_pin = Some(root);
                    }
                }
                ComponentRemoval::Drained { root } | ComponentRemoval::Split { root, .. } => {
                    if self.collapsed_pin == Some(root) {
                        self.explode(slots);
                    }
                }
            }
            return;
        }
        match removal {
            ComponentRemoval::Shrunk { old_root, root } => {
                if old_root != root {
                    let id = self.shard_of_root[old_root as usize];
                    self.shards[id].as_mut().expect("shrunk shard is live").root = root;
                    self.map_root(root, id);
                }
            }
            ComponentRemoval::Drained { root } => {
                // Gated flows hold tracker edges until their own
                // completion, so a drained component has no live members
                // of any kind: the shard retires wholesale.
                let id = self.shard_of_root[root as usize];
                self.retire(id);
                self.drains += 1;
            }
            ComponentRemoval::Split { root, split_root } => {
                let id = self.shard_of_root[root as usize];
                self.split(id, split_root, slots);
            }
        }
    }

    /// Carves the `split_root` component out of shard `id` into a fresh
    /// shard. Member keys are partitioned by a tracker lookup (compacting
    /// stale keys on the way); the splinter's cache is a fork of the kept
    /// cache with each side noting the other's contending members as
    /// departures, so both sides' next delta refresh reproduces exactly
    /// the penalties the joint query would have (penalties are
    /// component-local) and the engine's resync skips every slot — the
    /// split never perturbs the trajectory. Moved members get their slot
    /// epoch bumped and their due event re-pushed into the splinter's
    /// fresh heaps, lazily invalidating the kept shard's old entries.
    fn split<S: SlotView>(&mut self, id: usize, split_root: ComponentRoot, slots: &mut Slab<S>) {
        self.splits += 1;
        let mut moved: Vec<FlowKey> = Vec::new();
        {
            let tracker = &mut self.tracker;
            let kept = self.shards[id].as_mut().expect("split shard is live");
            kept.members.retain(|&k| match slots.get(k) {
                None => false,
                Some(slot) => {
                    if tracker.find(slot.comm().src) == Some(split_root) {
                        moved.push(k);
                        false
                    } else {
                        true
                    }
                }
            });
        }
        let kept = self.shards[id].as_mut().expect("split shard is live");
        let mut sp_cache = kept.cache.fork_uncounted();
        let mut sp_events = EventHeaps::default();
        for &k in &kept.members {
            if slots.get(k).expect("retained member is live").contending() {
                sp_cache.note_departure(k);
            }
        }
        for &k in &moved {
            let slot = slots.get(k).expect("moved member is live");
            let contending = slot.contending();
            let (finish, gate) = (slot.finish(), slot.gate());
            if contending {
                kept.cache.note_departure(k);
            }
            let epoch = slots.bump_epoch(k).expect("moved member is live");
            if contending {
                sp_events.push_completion(finish, k, epoch);
            } else {
                sp_events.push_gate(gate, k, epoch);
            }
        }
        let sid = self.alloc(split_root);
        let sp = self.shards[sid].as_mut().expect("splinter shard is live");
        sp.cache = sp_cache;
        sp.events = sp_events;
        sp.members = moved;
        self.mark_dirty(id);
        self.mark_dirty(sid);
        self.refresh_next(id, slots);
        self.refresh_next(sid, slots);
    }

    /// Undoes a budget collapse early: retires the global shard and
    /// rebuilds the true partition from the live slab, one shard per
    /// tracker component, with every flow's due event pushed at its
    /// current epoch. Each reborn cache is fresh, so every shard's first
    /// settle is a full component-local rebuild — identical to the global
    /// non-refused query restricted to that component. If some component
    /// is still over budget, its first refresh reports a new fallback and
    /// the barrier re-collapses at the same instant.
    fn explode<S: SlotView>(&mut self, slots: &Slab<S>) {
        self.uncollapses += 1;
        let gid = self
            .collapsed_into
            .take()
            .expect("explode undoes a collapse");
        self.collapsed_pin = None;
        self.retire(gid);
        debug_assert!(
            self.dirty.is_empty(),
            "retiring the global shard leaves nothing dirty"
        );
        let mut created: Vec<usize> = Vec::new();
        for k in slots.keys() {
            let slot = slots.get(k).expect("iterated key is live");
            let root = self
                .tracker
                .find(slot.comm().src)
                .expect("live flow endpoints are tracked");
            let id = self.root_shard_or_alloc(root, &mut created);
            let epoch = slots.epoch(k).expect("iterated key is live");
            let sh = self.shards[id].as_mut().expect("reborn shard is live");
            sh.members.push(k);
            if slot.contending() {
                sh.events.push_completion(slot.finish(), k, epoch);
            } else {
                sh.events.push_gate(slot.gate(), k, epoch);
            }
        }
        for id in created {
            self.mark_dirty(id);
            self.refresh_next(id, slots);
        }
    }

    /// A validated root→shard lookup for [`Self::explode`]: mappings left
    /// over from before the collapse (or from roots re-seated while
    /// collapsed) are garbage, so only trust an entry whose shard is live
    /// and agrees it holds `root`; otherwise allocate.
    fn root_shard_or_alloc(&mut self, root: ComponentRoot, created: &mut Vec<usize>) -> usize {
        if let Some(&id) = self.shard_of_root.get(root as usize) {
            if id != usize::MAX
                && self
                    .shards
                    .get(id)
                    .and_then(Option::as_ref)
                    .is_some_and(|sh| sh.root == root)
            {
                return id;
            }
        }
        let id = self.alloc(root);
        created.push(id);
        id
    }

    /// Creates a live shard for `root`, reusing a retired slot when one
    /// is free (continuing its version) and mapping the root to it.
    fn alloc(&mut self, root: ComponentRoot) -> usize {
        let id = match self.free_slots.pop() {
            Some((slot, version)) => {
                debug_assert!(self.shards[slot].is_none(), "free slot is vacant");
                let mut sh = Shard::new(root);
                sh.version = version + 1;
                self.shards[slot] = Some(sh);
                slot
            }
            None => {
                self.shards.push(Some(Shard::new(root)));
                self.shards.len() - 1
            }
        };
        self.live += 1;
        self.map_root(root, id);
        id
    }

    /// Points `root` at shard `id`, growing the map as needed.
    fn map_root(&mut self, root: ComponentRoot, id: usize) {
        let root = root as usize;
        if self.shard_of_root.len() <= root {
            self.shard_of_root.resize(root + 1, usize::MAX);
        }
        self.shard_of_root[root] = id;
    }

    /// Retires shard `id`: folds its counters into the retired
    /// accumulators, drops it from the dirty list, and frees its slot for
    /// reuse (recording the version its successor must continue from).
    fn retire(&mut self, id: usize) {
        let sh = self.shards[id].take().expect("retired shard is live");
        self.live -= 1;
        self.retired_cache.absorb(sh.cache.stats());
        self.retired_timeline.absorb(sh.events.stats);
        if sh.dirty {
            self.dirty.retain(|&d| d != id);
        }
        self.free_slots.push((id, sh.version));
    }

    /// Splices shard `loser` into shard `winner`: members and event heaps
    /// move over verbatim (slab keys and epochs are global, so every
    /// entry stays valid), the loser's cache counters are folded into the
    /// retired accumulator, and the winner is invalidated for a full
    /// rebuild — no positional delta can describe two populations
    /// becoming one.
    fn merge(&mut self, winner: usize, loser: usize) {
        debug_assert_ne!(winner, loser);
        self.merges += 1;
        let loser_shard = self.shards[loser].take().expect("absorbed shard is live");
        self.live -= 1;
        self.retired_cache.absorb(loser_shard.cache.stats());
        let w = self.shards[winner].as_mut().expect("winning shard is live");
        w.members.extend(loser_shard.members);
        w.events.append(loser_shard.events);
        w.cache.invalidate_rebuild();
        // The loser's global entries go stale by its slot retiring; the
        // winner's by the version bump at its next refresh.
        if !w.dirty {
            w.dirty = true;
            self.dirty.push(winner);
        }
        if loser_shard.dirty {
            self.dirty.retain(|&d| d != loser);
        }
        self.free_slots.push((loser, loser_shard.version));
    }

    /// Whether the partition has been collapsed into one global shard.
    #[cfg(test)]
    pub(crate) fn is_collapsed(&self) -> bool {
        self.collapsed_into.is_some()
    }

    /// Merges every live shard into the lowest-indexed one and routes all
    /// future assignments there, leaving exactly the merged shard dirty
    /// (queued for a full rebuild). `pin` names the root of the component
    /// whose refusal forced the collapse; its departure (drain or split)
    /// triggers [`Self::explode`], un-collapsing early. `None` keeps the
    /// collapse pinned until the population drains.
    ///
    /// This is the bitwise-equality escape hatch for models whose answers
    /// have cross-component reach: a Myrinet budget refusal degrades the
    /// *whole* query population to the max-conflict approximation, so the
    /// moment any shard's refresh reports [`QueryOutcome::budget_fallback`]
    /// the per-component factoring stops being safe. A single global shard
    /// runs the exact same queries as the unpartitioned engine, restoring
    /// bit-for-bit equality at the cost of the partition.
    ///
    /// [`QueryOutcome::budget_fallback`]: netbw_core::QueryOutcome
    pub(crate) fn collapse_all(&mut self, pin: Option<ComponentRoot>) -> usize {
        self.collapses += 1;
        let survivor = self
            .shards
            .iter()
            .position(Option::is_some)
            .expect("collapse needs a live shard");
        let losers: Vec<usize> = (survivor + 1..self.shards.len())
            .filter(|&id| self.shards[id].is_some())
            .collect();
        for id in losers {
            self.merge(survivor, id);
        }
        // Re-derive the dirty list from scratch: every loser is gone and
        // the survivor needs a full rebuild regardless of its prior state.
        self.dirty.clear();
        self.dirty.push(survivor);
        let sh = self.shards[survivor].as_mut().expect("survivor is live");
        sh.dirty = true;
        sh.cache.invalidate_rebuild();
        self.collapsed_into = Some(survivor);
        self.collapsed_pin = pin;
        survivor
    }

    /// Marks a shard's population as changed, queueing it for the next
    /// settle.
    #[inline]
    pub(crate) fn mark_dirty(&mut self, id: usize) {
        let sh = self.shards[id].as_mut().expect("dirty shard is live");
        if !sh.dirty {
            sh.dirty = true;
            self.dirty.push(id);
        }
    }

    /// Mutable access to one live shard.
    #[inline]
    pub(crate) fn shard_mut(&mut self, id: usize) -> &mut Shard {
        self.shards[id].as_mut().expect("shard is live")
    }

    /// Mutable access to each of the (sorted, distinct) shard indices at
    /// once — the borrow split that lets one settle barrier hand disjoint
    /// shards to parallel jobs.
    pub(crate) fn disjoint_mut(&mut self, ids: &[usize]) -> Vec<&mut Shard> {
        let mut out = Vec::with_capacity(ids.len());
        let mut rest: &mut [Option<Shard>] = &mut self.shards;
        let mut offset = 0;
        for &id in ids {
            debug_assert!(id >= offset, "ids must be sorted and distinct");
            let (_, tail) = rest.split_at_mut(id - offset);
            let (head, tail) = tail.split_at_mut(1);
            out.push(head[0].as_mut().expect("dirty shard is live"));
            rest = tail;
            offset = id + 1;
        }
        out
    }

    /// Records a settle that found every shard cache valid (a table with
    /// no live shard has no cache to reuse).
    #[inline]
    pub(crate) fn note_reused_settle(&mut self) {
        if self.live > 0 {
            self.reused_settles += 1;
        }
    }

    /// Recomputes shard `id`'s next event (earliest live completion or
    /// gate) and publishes it to the cross-shard heap under a fresh
    /// version, invalidating every earlier entry for the shard. Call
    /// after anything that may move the shard's timeline. A no-op when
    /// unpartitioned: [`Self::peek_next`] reads the one shard directly.
    pub(crate) fn refresh_next<T>(&mut self, id: usize, slots: &Slab<T>) {
        if !self.is_partitioned() {
            return;
        }
        let sh = self.shards[id].as_mut().expect("shard is live");
        sh.version += 1;
        if let Some(next) = sh.events.peek_next(slots) {
            self.next_events.push(ShardNext {
                time: next,
                shard: id,
                version: sh.version,
            });
        }
    }

    /// The earliest next-event time across all shards, discarding stale
    /// entries from the top of the cross-shard heap (or, unpartitioned,
    /// from the one shard's own heaps).
    pub(crate) fn peek_next<T>(&mut self, slots: &Slab<T>) -> Option<f64> {
        if !self.is_partitioned() {
            return self.shard_mut(0).events.peek_next(slots);
        }
        while let Some(top) = self.next_events.peek() {
            if self.entry_is_live(top) {
                return Some(top.time);
            }
            self.next_events.pop();
        }
        None
    }

    /// Pops every live entry with `time <= bound` and returns the (sorted,
    /// distinct) shards they name — the shards that may have a gate or
    /// completion due at the current event (unpartitioned: always the one
    /// shard). The caller must [`Self::refresh_next`] each one after
    /// processing it.
    #[inline]
    pub(crate) fn take_candidates(&mut self, bound: f64) -> Vec<usize> {
        let mut out = std::mem::take(&mut self.candidates);
        out.clear();
        if !self.is_partitioned() {
            out.push(0);
            return out;
        }
        while let Some(top) = self.next_events.peek() {
            if top.time > bound {
                break;
            }
            let entry = self.next_events.pop().expect("peeked entry pops");
            if self.entry_is_live(&entry) {
                out.push(entry.shard);
            }
        }
        // At most one live entry exists per shard (each refresh bumps the
        // version), so the list is already duplicate-free; sort it so
        // simultaneous events process in deterministic shard order.
        out.sort_unstable();
        out
    }

    /// Returns a candidate list taken with [`Self::take_candidates`] for
    /// buffer reuse.
    #[inline]
    pub(crate) fn recycle_candidates(&mut self, buf: Vec<usize>) {
        self.candidates = buf;
    }

    fn entry_is_live(&self, entry: &ShardNext) -> bool {
        self.shards[entry.shard]
            .as_ref()
            .is_some_and(|sh| sh.version == entry.version)
    }

    /// Aggregated cache counters: live shards plus everything retired,
    /// plus the served-from-cache settles the set itself noted.
    pub(crate) fn cache_stats(&self) -> CacheStats {
        let mut stats = self.retired_cache;
        for sh in self.shards.iter().flatten() {
            stats.absorb(sh.cache.stats());
        }
        stats.reuses += self.reused_settles;
        stats
    }

    /// Aggregated timeline counters: live shards plus retired ones.
    pub(crate) fn timeline_stats(&self) -> TimelineStats {
        let mut stats = self.retired_timeline;
        for sh in self.shards.iter().flatten() {
            stats.absorb(sh.events.stats);
        }
        stats
    }

    /// An independent deep copy of the whole shard table: tracker,
    /// per-shard caches (scratch included) and heaps, the dirty list and
    /// the cross-shard event heap. The fork and the original settle
    /// bit-for-bit identically from here on without sharing any state.
    pub(crate) fn fork(&self) -> ShardSet {
        let mut out = ShardSet::new(self.partition);
        self.fork_into(&mut out);
        out
    }

    /// [`Self::fork`] into an existing shard table, reusing its
    /// allocations: the tracker, the shard slots (matching `Some`/`Some`
    /// slots clone in place, shard caches and heaps included) and every
    /// side table `clone_from` into the target. Bitwise identical outcome
    /// to `fork` — including the always-empty `candidates` scratch.
    pub(crate) fn fork_into(&self, target: &mut ShardSet) {
        target.partition = self.partition;
        self.tracker.fork_into(&mut target.tracker);
        target.shard_of_root.clone_from(&self.shard_of_root);
        target.shards.truncate(self.shards.len());
        for (i, slot) in self.shards.iter().enumerate() {
            if let Some(tgt) = target.shards.get_mut(i) {
                match (slot, tgt) {
                    (Some(src), Some(t)) => src.fork_into(t),
                    (src, t) => *t = src.as_ref().map(Shard::fork),
                }
            } else {
                target.shards.push(slot.as_ref().map(Shard::fork));
            }
        }
        target.live = self.live;
        target.free_slots.clone_from(&self.free_slots);
        target.dirty.clone_from(&self.dirty);
        target.next_events.clone_from(&self.next_events);
        target.retired_cache = self.retired_cache;
        target.retired_timeline = self.retired_timeline;
        target.collapsed_into = self.collapsed_into;
        target.collapsed_pin = self.collapsed_pin;
        target.reused_settles = self.reused_settles;
        target.candidates.clear();
        target.splits = self.splits;
        target.merges = self.merges;
        target.drains = self.drains;
        target.collapses = self.collapses;
        target.uncollapses = self.uncollapses;
    }

    /// Quiescent-barrier reset, called by the engine when the flow
    /// population drains to empty: every shard is provably memberless, so
    /// the partition (and a [`Self::collapse_all`] pin left by a Myrinet
    /// budget fallback) can be forgotten wholesale. Counters fold into
    /// the retired accumulators exactly like [`Self::reset`], so stats
    /// stay cumulative across the barrier. A no-op when unpartitioned:
    /// there is no partition to forget, and the one shard's cache must
    /// still settle the departures of the final batch.
    #[inline]
    pub(crate) fn quiesce(&mut self) {
        if self.is_partitioned() {
            self.reset();
        }
    }

    /// Drops every shard and the component structure while folding their
    /// counters into the retired accumulators — stats (including the
    /// partition-shape counters) stay cumulative across resets. The
    /// unpartitioned table instead keeps its one shard, returning its
    /// cache to the pre-first-settle state (scratch allocation and
    /// counters kept) and re-queueing it for that first settle.
    pub(crate) fn reset(&mut self) {
        if !self.is_partitioned() {
            let sh = self.shard_mut(0);
            sh.cache.reset();
            sh.events.clear();
            self.mark_dirty(0);
            return;
        }
        for sh in self.shards.iter().flatten() {
            self.retired_cache.absorb(sh.cache.stats());
            self.retired_timeline.absorb(sh.events.stats);
        }
        self.tracker.clear();
        self.shard_of_root.clear();
        self.shards.clear();
        self.live = 0;
        self.free_slots.clear();
        self.dirty.clear();
        self.next_events.clear();
        self.collapsed_into = None;
        self.collapsed_pin = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn comm(src: u32, dst: u32) -> Communication {
        Communication::new(src, dst, 100)
    }

    /// A minimal slot for exercising the re-partitioning paths.
    struct TSlot {
        comm: Communication,
        contending: bool,
        finish: f64,
        gate: f64,
    }

    impl TSlot {
        fn running(src: u32, dst: u32, finish: f64) -> TSlot {
            TSlot {
                comm: comm(src, dst),
                contending: true,
                finish,
                gate: 0.0,
            }
        }
    }

    impl SlotView for TSlot {
        fn comm(&self) -> &Communication {
            &self.comm
        }
        fn contending(&self) -> bool {
            self.contending
        }
        fn finish(&self) -> f64 {
            self.finish
        }
        fn gate(&self) -> f64 {
            self.gate
        }
    }

    #[test]
    fn assign_creates_joins_and_merges() {
        let mut set = ShardSet::new(Partition::Refine);
        let a = set.assign(&comm(0, 1));
        let b = set.assign(&comm(2, 3));
        assert_ne!(a, b);
        assert_eq!(set.live_count(), 2);
        assert_eq!(set.assign(&comm(0, 4)), a, "shared endpoint joins");
        let bridged = set.assign(&comm(1, 2));
        assert!(bridged == a || bridged == b);
        assert_eq!(set.live_count(), 1, "bridge retires the loser");
        assert_eq!(set.shard_stats().merges, 1);
        // the whole union now routes to the surviving shard
        assert_eq!(set.assign(&comm(3, 4)), bridged);
    }

    #[test]
    fn merge_moves_members_and_invalidates_the_winner() {
        let mut set = ShardSet::new(Partition::Refine);
        let mut slab: Slab<()> = Slab::new();
        let (k0, k1) = (slab.insert(()), slab.insert(()));
        let a = set.assign(&comm(0, 1));
        let b = set.assign(&comm(2, 3));
        set.shard_mut(a).members.push(k0);
        set.shard_mut(b).members.push(k1);
        set.shard_mut(b).events.push_gate(5.0, k1, 0);
        set.refresh_next(b, &slab);
        assert_eq!(set.peek_next(&slab), Some(5.0));
        let survivor = set.assign(&comm(1, 2));
        assert_eq!(set.shard_mut(survivor).members.len(), 2);
        assert!(set.shard_mut(survivor).dirty, "merge queues a rebuild");
        assert_eq!(set.dirty, vec![survivor]);
        // the merged gate survives in the winner's heaps...
        assert_eq!(set.shard_mut(survivor).events.peek_gate(&slab), Some(5.0));
        // ...but the retired shard's cross-shard entry went stale, and the
        // winner republishes under a fresh version
        set.refresh_next(survivor, &slab);
        assert_eq!(set.peek_next(&slab), Some(5.0));
        assert_eq!(set.take_candidates(5.0), vec![survivor]);
    }

    #[test]
    fn stale_versions_are_discarded_on_peek_and_pop() {
        let mut set = ShardSet::new(Partition::Refine);
        let mut slab: Slab<()> = Slab::new();
        let (k0, k1) = (slab.insert(()), slab.insert(()));
        let a = set.assign(&comm(0, 1));
        set.shard_mut(a).events.push_gate(3.0, k0, 0);
        set.refresh_next(a, &slab);
        // a second refresh supersedes the first entry
        set.shard_mut(a).events.push_gate(1.0, k1, 0);
        set.refresh_next(a, &slab);
        assert_eq!(set.peek_next(&slab), Some(1.0));
        let c = set.take_candidates(1.0);
        assert_eq!(c, vec![a]);
        set.recycle_candidates(c);
        // both entries are gone (one live, one stale) until republished
        assert_eq!(set.peek_next(&slab), None);
    }

    #[test]
    fn dirty_marking_is_idempotent() {
        let mut set = ShardSet::new(Partition::Refine);
        let a = set.assign(&comm(0, 1));
        set.mark_dirty(a);
        set.mark_dirty(a);
        assert_eq!(set.dirty, vec![a]);
    }

    #[test]
    fn disjoint_mut_hands_out_every_requested_shard() {
        let mut set = ShardSet::new(Partition::Refine);
        let ids = [
            set.assign(&comm(0, 1)),
            set.assign(&comm(2, 3)),
            set.assign(&comm(4, 5)),
        ];
        let picked = [ids[0], ids[2]];
        let shards = set.disjoint_mut(&picked);
        assert_eq!(shards.len(), 2);
        for sh in shards {
            sh.version += 1;
        }
    }

    #[test]
    fn collapse_merges_everything_and_pins_future_assignments() {
        let mut set = ShardSet::new(Partition::Refine);
        let a = set.assign(&comm(0, 1));
        let _b = set.assign(&comm(2, 3));
        let _c = set.assign(&comm(4, 5));
        assert_eq!(set.live_count(), 3);
        let survivor = set.collapse_all(None);
        assert_eq!(survivor, a, "lowest live shard survives");
        assert!(set.is_collapsed());
        assert_eq!(set.live_count(), 1);
        assert_eq!(set.dirty, vec![survivor], "exactly the survivor is queued");
        assert_eq!(set.shard_stats().budget_collapses, 1);
        assert!(set.shard_stats().collapsed);
        // A brand-new component would have created a shard before the
        // collapse; now it routes straight to the survivor.
        assert_eq!(set.assign(&comm(6, 7)), survivor);
        assert_eq!(set.live_count(), 1);
        // ...and a reset lifts the collapse along with the partition.
        set.reset();
        assert!(!set.is_collapsed());
        assert_ne!(set.assign(&comm(0, 1)), set.assign(&comm(2, 3)));
    }

    #[test]
    fn reset_folds_counters_and_forgets_structure() {
        let mut set = ShardSet::new(Partition::Refine);
        let mut slab: Slab<()> = Slab::new();
        let k0 = slab.insert(());
        let a = set.assign(&comm(0, 1));
        set.shard_mut(a).events.push_gate(1.0, k0, 0);
        set.note_reused_settle();
        let before = set.timeline_stats();
        assert_eq!(before.gate_pushes, 1);
        set.reset();
        assert_eq!(set.live_count(), 0);
        assert_eq!(set.peek_next(&slab), None);
        assert_eq!(set.timeline_stats().gate_pushes, 1, "stats survive reset");
        assert_eq!(set.cache_stats().reuses, 1);
        // and the next assignment starts a fresh shard table
        let b = set.assign(&comm(0, 1));
        assert_eq!(set.live_count(), 1);
        let _ = b;
    }

    #[test]
    fn unpartitioned_set_is_invisible() {
        // The default engine's table: one shard for everything, and none
        // of the partition machinery ever runs.
        fn assert_invisible(set: &ShardSet) {
            assert_eq!(set.tracker.node_count(), 0, "tracker untouched");
            assert!(
                set.shards.iter().flatten().count() <= 1,
                "one shard at most"
            );
            assert!(set.next_events.is_empty(), "no cross-shard publish");
            assert_eq!(set.live_count(), 0, "the one shard is not a component");
            assert_eq!(set.shard_stats(), ShardStats::default());
        }
        let mut set = ShardSet::new(Partition::Single);
        let mut slab: Slab<TSlot> = Slab::new();
        assert_eq!(set.dirty, vec![0], "a fresh table settles once");
        assert_invisible(&set);
        // Add: two disjoint components, a bridge and a gated flow all land
        // in shard 0, which keeps no member list.
        let mut keys = Vec::new();
        for (src, dst) in [(0, 1), (2, 3), (1, 2)] {
            let id = set.assign(&comm(src, dst));
            assert_eq!(id, 0);
            let k = slab.insert(TSlot::running(src, dst, 10.0));
            set.admit(id, k, None, &slab);
            keys.push(k);
        }
        let gated = slab.insert(TSlot {
            contending: false,
            gate: 5.0,
            ..TSlot::running(4, 5, f64::INFINITY)
        });
        assert_eq!(set.assign(&comm(4, 5)), 0);
        set.admit(0, gated, Some((5.0, slab.epoch(gated).unwrap())), &slab);
        assert!(set.shard_mut(0).members.is_empty());
        assert_eq!(
            set.peek_next(&slab),
            Some(5.0),
            "read from the shard's heaps"
        );
        let candidates = set.take_candidates(0.0);
        assert_eq!(candidates, vec![0]);
        set.recycle_candidates(candidates);
        assert_invisible(&set);
        // Drain: the quiescent barrier keeps the shard, whose cache must
        // still settle the final departures.
        for k in keys.into_iter().chain([gated]) {
            slab.remove(k);
        }
        set.quiesce();
        assert!(set.shards[0].is_some());
        assert_invisible(&set);
        // fork_into overwrites a partitioned target wholesale.
        let mut target = ShardSet::new(Partition::Refine);
        target.assign(&comm(7, 8));
        set.fork_into(&mut target);
        assert_invisible(&target);
        assert_invisible(&set.fork());
        // Reset keeps the shard and re-queues it for a first settle (the
        // flag and list are cleared here as a settle would).
        set.shard_mut(0).dirty = false;
        set.dirty.clear();
        set.reset();
        assert_eq!(set.dirty, vec![0]);
        assert_invisible(&set);
    }

    #[test]
    fn departures_split_shards_and_reuse_slots() {
        let mut set = ShardSet::new(Partition::Refine);
        let mut slab: Slab<TSlot> = Slab::new();
        // One chain component 0-1-2-3 out of three flows.
        let a = set.assign(&comm(0, 1));
        assert_eq!(set.assign(&comm(1, 2)), a);
        assert_eq!(set.assign(&comm(2, 3)), a);
        let k01 = slab.insert(TSlot::running(0, 1, 10.0));
        let k12 = slab.insert(TSlot::running(1, 2, 20.0));
        let k23 = slab.insert(TSlot::running(2, 3, 30.0));
        let sh = set.shard_mut(a);
        sh.members.extend([k01, k12, k23]);
        for (k, t) in [(k01, 10.0), (k12, 20.0), (k23, 30.0)] {
            sh.events.push_completion(t, k, 0);
        }
        set.refresh_next(a, &slab);
        assert_eq!(set.peek_next(&slab), Some(10.0));
        // The middle flow completes: its slot leaves the slab, then the
        // departure splits {0,1,2,3} into {0,1} and {2,3}.
        slab.remove(k12);
        set.depart(&comm(1, 2), &mut slab);
        assert_eq!(set.live_count(), 2);
        let stats = set.shard_stats();
        assert_eq!((stats.splits, stats.drains), (1, 0));
        // The kept shard holds {k01}, the splinter {k23}, both dirty.
        assert_eq!(set.shard_mut(a).members, vec![k01]);
        let sid = *set.dirty.iter().find(|&&d| d != a).expect("splinter dirty");
        assert_eq!(set.shard_mut(sid).members, vec![k23]);
        // The splinter's completion entry was re-pushed under the bumped
        // epoch; the kept shard's old k23 entry is stale and lazily
        // skipped, so both shards report their true next events.
        assert_eq!(set.shard_mut(a).events.peek_finish(&slab), Some(10.0));
        assert_eq!(set.shard_mut(sid).events.peek_finish(&slab), Some(30.0));
        assert_eq!(set.peek_next(&slab), Some(10.0));
        // Draining {0,1} retires the kept shard and frees its slot...
        slab.remove(k01);
        set.depart(&comm(0, 1), &mut slab);
        assert_eq!(set.live_count(), 1);
        assert_eq!(set.shard_stats().drains, 1);
        // ...which the next brand-new component reuses.
        assert_eq!(set.assign(&comm(8, 9)), a, "retired slot is reused");
        // A stale cross-shard entry for the old occupant can never fire
        // against the new one: versions continued past the retiree's.
        set.refresh_next(a, &slab);
        assert_eq!(
            set.peek_next(&slab),
            Some(30.0),
            "splinter's completion leads"
        );
    }

    #[test]
    fn pinned_component_departure_uncollapses() {
        let mut set = ShardSet::new(Partition::Refine);
        let mut slab: Slab<TSlot> = Slab::new();
        let a = set.assign(&comm(0, 1));
        let b = set.assign(&comm(2, 3));
        let k01 = slab.insert(TSlot::running(0, 1, 5.0));
        let k23 = slab.insert(TSlot::running(2, 3, 7.0));
        set.shard_mut(a).members.push(k01);
        set.shard_mut(a).events.push_completion(5.0, k01, 0);
        set.shard_mut(b).members.push(k23);
        set.shard_mut(b).events.push_completion(7.0, k23, 0);
        let pin = set
            .tracker
            .find(comm(0, 1).src)
            .expect("component 0-1 is tracked");
        let gid = set.collapse_all(Some(pin));
        assert!(set.is_collapsed());
        assert_eq!(set.live_count(), 1);
        // A departure in the non-pinned component keeps the collapse.
        slab.remove(k23);
        set.depart(&comm(2, 3), &mut slab);
        assert!(set.is_collapsed(), "non-pinned departure keeps the pin");
        // Re-admit the 2-3 flow (routes to the global shard while
        // collapsed), then drain the pinned component: the collapse lifts
        // and the true partition is rebuilt from the live slab.
        assert_eq!(set.assign(&comm(2, 3)), gid);
        let k23b = slab.insert(TSlot::running(2, 3, 7.0));
        set.shard_mut(gid).members.push(k23b);
        set.shard_mut(gid)
            .events
            .push_completion(7.0, k23b, slab.epoch(k23b).unwrap());
        slab.remove(k01);
        set.depart(&comm(0, 1), &mut slab);
        assert!(!set.is_collapsed(), "pinned drain un-collapses");
        assert_eq!(set.live_count(), 1);
        assert_eq!(set.shard_stats().uncollapses, 1);
        // The reborn shard holds the surviving flow, is queued for a full
        // rebuild, and republished its next event.
        assert_eq!(set.dirty.len(), 1);
        let reborn = set.dirty[0];
        assert_eq!(set.shard_mut(reborn).members, vec![k23b]);
        assert!(set.shard_mut(reborn).dirty);
        assert_eq!(set.peek_next(&slab), Some(7.0));
    }
}
