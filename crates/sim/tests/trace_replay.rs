//! Trace-driven replay equivalence for the sharded fluid backend: a
//! battery of parsed `netbw-trace` text traces runs end-to-end through
//! the simulator (placement, MPI send/recv/any-source/barrier semantics,
//! eager and rendezvous messages) against the default heap engine and the
//! component-sharded engine. The reports must be bit-for-bit identical —
//! same task finish times, same per-message windows — and the sharded
//! backend must surface its cache and timeline counters aggregated across
//! shards through the [`NetworkBackend`] trait.

use netbw_core::{GigabitEthernetModel, MyrinetModel, PenaltyModel};
use netbw_fluid::{EngineMode, FluidNetwork, NetworkParams};
use netbw_graph::NodeId;
use netbw_sim::{ClusterSpec, NetworkBackend, Placement, PlacementPolicy, SimReport, Simulator};
use netbw_trace::parse_trace;

/// Four disjoint task pairs exchange (four conflict components under RRN
/// placement), then — after a barrier — pair 0 bridges into pair 1: the
/// sharded backend merges those two shards mid-run.
const PAIRS_THEN_BRIDGE: &str = "\
tasks 8
t0 send 1 2097152
t1 recv 0 2097152
t2 send 3 1048576
t3 recv 2 1048576
t4 send 5 1572864
t5 recv 4 1572864
t6 send 7 524288
t7 recv 6 524288
t0 barrier
t1 barrier
t2 barrier
t3 barrier
t4 barrier
t5 barrier
t6 barrier
t7 barrier
t1 send 2 1048576
t2 recv 1 1048576
";

/// A compute-staggered ring with any-source receives: one conflict
/// component whose population churns as sends drain at different times.
/// Even ranks send before receiving, odd ranks receive first — the usual
/// alternation that keeps a rendezvous ring deadlock-free.
const STAGGERED_RING: &str = "\
tasks 6
t0 compute 0.05
t0 send 1 1048576
t0 recv any 262144
t1 compute 0.1
t1 recv 0 1048576
t1 send 2 786432
t2 compute 0.15
t2 send 3 1048576
t2 recv any 786432
t3 compute 0.2
t3 recv 2 1048576
t3 send 4 262144
t4 compute 0.25
t4 send 5 1048576
t4 recv any 262144
t5 compute 0.3
t5 recv 4 1048576
t5 send 0 262144
";

/// A fan-in (everyone sends to rank 0) with small eager-sized messages
/// riding beside large rendezvous ones, closed by a barrier.
const FAN_IN: &str = "\
tasks 5
t1 compute 0.02
t1 send 0 4096
t2 compute 0.04
t2 send 0 2097152
t3 compute 0.06
t3 send 0 4096
t4 compute 0.08
t4 send 0 1048576
t0 recv any 4096
t0 recv any 2097152
t0 recv any 4096
t0 recv any 1048576
t0 barrier
t1 barrier
t2 barrier
t3 barrier
t4 barrier
";

fn battery() -> Vec<(&'static str, &'static str)> {
    vec![
        ("pairs_then_bridge", PAIRS_THEN_BRIDGE),
        ("staggered_ring", STAGGERED_RING),
        ("fan_in", FAN_IN),
    ]
}

fn replay<M: PenaltyModel>(
    trace_text: &str,
    cluster: ClusterSpec,
    policy: &PlacementPolicy,
    backend: FluidNetwork<M>,
) -> SimReport {
    let trace = parse_trace(trace_text).expect("battery traces parse");
    let placement = Placement::assign(policy, trace.len(), &cluster);
    Simulator::new(&trace, cluster, placement, backend)
        .run()
        .expect("battery traces replay")
}

fn assert_reports_bitwise_equal(heap: &SimReport, sharded: &SimReport, label: &str) {
    assert_eq!(heap.tasks.len(), sharded.tasks.len(), "{label}");
    for (i, (a, b)) in heap.tasks.iter().zip(&sharded.tasks).enumerate() {
        assert_eq!(
            a.finish.to_bits(),
            b.finish.to_bits(),
            "{label}: task {i} finish {} vs {}",
            a.finish,
            b.finish
        );
        assert_eq!(a.send_time.to_bits(), b.send_time.to_bits(), "{label}: {i}");
        assert_eq!(a.recv_time.to_bits(), b.recv_time.to_bits(), "{label}: {i}");
        assert_eq!(
            a.barrier_time.to_bits(),
            b.barrier_time.to_bits(),
            "{label}: {i}"
        );
        assert_eq!(a.bytes_sent, b.bytes_sent, "{label}: task {i}");
    }
    assert_eq!(heap.messages.len(), sharded.messages.len(), "{label}");
    for (a, b) in heap.messages.iter().zip(&sharded.messages) {
        assert_eq!(
            (a.src_task, a.dst_task, a.bytes, a.intra_node, a.eager),
            (b.src_task, b.dst_task, b.bytes, b.intra_node, b.eager),
            "{label}"
        );
        assert_eq!(a.start.to_bits(), b.start.to_bits(), "{label}: {a:?}");
        assert_eq!(a.end.to_bits(), b.end.to_bits(), "{label}: {a:?}");
    }
}

#[test]
fn parsed_trace_battery_replays_bitwise_on_the_sharded_backend() {
    let params = NetworkParams::new(2.0, 0.25);
    for (label, text) in battery() {
        let cluster = ClusterSpec::smp(8);
        let policy = PlacementPolicy::RoundRobinNode;
        let heap = replay(
            text,
            cluster,
            &policy,
            FluidNetwork::new(MyrinetModel::default(), params),
        );
        let sharded = replay(
            text,
            cluster,
            &policy,
            FluidNetwork::new(MyrinetModel::default(), params).with_mode(EngineMode::Sharded),
        );
        assert!(heap.makespan() > 0.0, "{label}: trace must do work");
        assert_reports_bitwise_equal(&heap, &sharded, label);

        let heap = replay(
            text,
            cluster,
            &policy,
            FluidNetwork::new(GigabitEthernetModel::default(), params),
        );
        let sharded = replay(
            text,
            cluster,
            &policy,
            FluidNetwork::new(GigabitEthernetModel::default(), params)
                .with_mode(EngineMode::Sharded),
        );
        assert_reports_bitwise_equal(&heap, &sharded, label);
    }
}

#[test]
fn explicit_placement_with_intra_node_pairs_replays_bitwise() {
    // Pairs 0-1 and 2-3 share a node each (intra-node messages bypass the
    // network entirely), pairs 4-5 and 6-7 cross the fabric, and the
    // post-barrier bridge crosses nodes: the sharded backend only ever
    // sees the inter-node flows and must still agree with the heap.
    let params = NetworkParams::new(1.0, 0.1);
    let cluster = ClusterSpec::smp(6).with_cores(2);
    let nodes: Vec<NodeId> = [0u32, 0, 1, 1, 2, 3, 4, 5].map(NodeId).to_vec();
    let policy = PlacementPolicy::Explicit(nodes);
    let heap = replay(
        PAIRS_THEN_BRIDGE,
        cluster,
        &policy,
        FluidNetwork::new(MyrinetModel::default(), params),
    );
    let sharded = replay(
        PAIRS_THEN_BRIDGE,
        cluster,
        &policy,
        FluidNetwork::new(MyrinetModel::default(), params).with_mode(EngineMode::Sharded),
    );
    assert!(
        heap.messages.iter().any(|m| m.intra_node),
        "placement must exercise intra-node messages"
    );
    assert!(
        heap.messages.iter().any(|m| !m.intra_node),
        "placement must exercise the fabric too"
    );
    assert_reports_bitwise_equal(&heap, &sharded, "explicit placement");
}

#[test]
fn sharded_backend_aggregates_stats_across_shards() {
    // Replay the multi-component trace with the simulator holding the
    // backend by `&mut`, then read the counters off the network itself:
    // the per-shard caches and timelines must aggregate into the trait's
    // stats (rebuild per shard, every flow anchored in some shard's heap)
    // even though the fully drained slab has quiesced the partition —
    // retired shards leave their counters behind.
    let trace = parse_trace(PAIRS_THEN_BRIDGE).expect("trace parses");
    let cluster = ClusterSpec::smp(8);
    let placement = Placement::assign(&PlacementPolicy::RoundRobinNode, trace.len(), &cluster);
    let mut net = FluidNetwork::new(MyrinetModel::default(), NetworkParams::new(2.0, 0.25))
        .with_mode(EngineMode::Sharded);
    let report = Simulator::new(&trace, cluster, placement, &mut net)
        .run()
        .expect("trace replays");
    let inter_node = report.messages.iter().filter(|m| !m.intra_node).count();
    assert_eq!(inter_node, 5, "four pair flows plus the bridge");
    assert_eq!(
        net.shard_count(),
        0,
        "a fully drained replay quiesces the partition"
    );
    let cache = NetworkBackend::cache_stats(&&mut net).expect("fluid backends expose cache stats");
    assert!(
        cache.scratch_rebuilds >= 4,
        "each shard rebuilds its scratch once: {cache:?}"
    );
    assert!(cache.model_queries > 0, "{cache:?}");
    let timeline =
        NetworkBackend::timeline_stats(&&mut net).expect("fluid backends expose timeline stats");
    assert!(
        timeline.heap_pushes >= inter_node as u64,
        "every fabric flow anchors in some shard's heap: {timeline:?}"
    );
    assert!(timeline.rescans >= 4, "one rescan per shard: {timeline:?}");
}
