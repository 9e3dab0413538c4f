//! Machine–domain bipartite behavior graph.
//!
//! One day of DNS traffic between ISP clients and the local resolver is
//! summarized as an undirected bipartite graph `G = (M, D, E)`: machine
//! `m_i` is connected to domain `d_j` iff `m_i` queried `d_j` during the
//! observation window (paper Section II-A1). Domain nodes carry annotations
//! (resolved IP set, e2LD); machine and domain nodes carry three-valued
//! labels seeded from a blacklist/whitelist and propagated to machines.
//!
//! The crate provides:
//!
//! - [`GraphBuilder`] / [`BehaviorGraph`] — compact CSR storage in both
//!   directions, built by one counting sort per side from unordered pairs,
//!   whichever entry point ([`GraphBuilder::build`],
//!   [`GraphBuilder::from_queries`], [`GraphBuilder::from_runs`]) feeds it;
//! - [`EdgeRuns`] — bounded-memory pair accumulation in deduplicated runs
//!   grouped by machine, spilled to disk at about 4 B per pair and read
//!   back unmerged by [`GraphBuilder::from_runs`];
//! - [`labeling`] — seed-label application and machine-label propagation;
//! - [`pruning`] — the conservative filtering rules R1–R4 with the paper's
//!   two exceptions (infected machines survive R1; known malware domains
//!   survive R3);
//! - [`hiding`] — the label-hiding view used when measuring features for
//!   known (training) domains without leaking their own ground truth.

#![warn(missing_docs)]
// Library code returns typed errors; a panic site needs a reasoned
// `#[expect(clippy::…, reason = "…")]`, which fails the build once stale.
// Hash-set/map iteration order differs per process, so it must not reach
// ordered output; a site whose order provably cannot matter is an
// `#[expect]` too — a plain `#[allow]` is denied.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::undocumented_unsafe_blocks,
    clippy::iter_over_hash_type,
    clippy::allow_attributes
)]
pub mod builder;
pub mod graph;
pub mod hiding;
pub mod labeling;
#[doc(hidden)]
pub mod persist;
pub mod pruning;
pub mod runs;
pub mod validate;

#[doc(hidden)]
pub use builder::DeltaBuilder;
pub use builder::GraphBuilder;
pub use graph::{BehaviorGraph, DomainIdx, MachineIdx};
pub use hiding::HiddenLabelView;
#[doc(hidden)]
pub use persist::{read_graph, write_graph};
pub use pruning::{PruneConfig, PruneStats};
pub use runs::{EdgeRuns, DEFAULT_RUN_CAPACITY};
