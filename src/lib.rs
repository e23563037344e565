//! # netbw — predictive models for bandwidth sharing in HPC clusters
//!
//! A from-scratch reproduction of *Vienne, Martinasso, Vincent, Méhaut —
//! "Predictive models for bandwidth sharing in high performance clusters",
//! IEEE Cluster 2008* (HAL hal-00953618), as a production-grade Rust
//! workspace.
//!
//! Concurrent MPI communications contend for NIC and link bandwidth; the
//! penalty `P = T/Tref` measures how much slower each transfer runs than
//! it would alone. The paper contributes two predictive models — a
//! quantitative one for Gigabit Ethernet/TCP and a state-enumeration one
//! for Myrinet 2000's Stop & Go flow control — embedded in a trace-driven
//! cluster simulator and validated on synthetic graphs and HPL/Linpack.
//!
//! ## Crate map
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`graph`] | `netbw-graph` | communication graphs, conflict taxonomy, scheme DSL, generators |
//! | [`core`] | `netbw-core` | the penalty models (GigE, Myrinet, InfiniBand-extension, baselines) and calibration |
//! | [`fluid`] | `netbw-fluid` | progressive solver: penalties → completion times |
//! | [`sim`] | `netbw-sim` | trace-driven cluster simulator (placement, MPI semantics) |
//! | [`packet`] | `netbw-packet` | packet-level fabric simulators (the "hardware") |
//! | [`workloads`] | `netbw-workloads` | HPL trace generator, synthetic batteries |
//! | [`trace`] | `netbw-trace` | MPE-like event trace format |
//! | [`eval`] | `netbw-eval` | Erel/Eabs metrics, measured-vs-predicted experiments, sweep execution engine |
//! | [`serve`] | `netbw-serve` | long-running what-if service: speculative placement queries on warm forked engine state |
//!
//! ## Quickstart
//!
//! ```
//! use netbw::prelude::*;
//!
//! // the paper's Fig. 5 scheme, and its Fig. 6 penalties
//! let scheme = netbw::graph::schemes::fig5();
//! let model = MyrinetModel::default();
//! let penalties = model.penalties(scheme.comms());
//! assert_eq!(penalties[0].value(), 5.0);
//!
//! // completion times through the fluid solver
//! let mut solver = FluidSolver::new(model, NetworkParams::myrinet2000());
//! let times = solver.solve(&scheme);
//! assert!(times[0].completion > times[3].completion);
//! ```

pub use netbw_core as core;
pub use netbw_eval as eval;
pub use netbw_fluid as fluid;
pub use netbw_graph as graph;
pub use netbw_packet as packet;
pub use netbw_serve as serve;
pub use netbw_sim as sim;
pub use netbw_trace as trace;
pub use netbw_workloads as workloads;

/// One-stop import of the items most programs need.
pub mod prelude {
    pub use netbw_core::prelude::*;
    pub use netbw_eval::{compare_hpl, compare_scheme, fig2_table, EvalSession, SweepStats, Table};
    pub use netbw_fluid::{EngineMode, FluidNetwork, FluidSolver, NetworkParams};
    pub use netbw_graph::prelude::*;
    pub use netbw_packet::{FabricConfig, PacketFabric, PacketNetwork};
    pub use netbw_serve::{ServeConfig, WhatIfQuery, WhatIfService};
    pub use netbw_sim::{ClusterSpec, Placement, PlacementPolicy, Simulator};
    pub use netbw_trace::{Event, TaskTrace, Trace};
    pub use netbw_workloads::HplConfig;
}
