//! Conservative parallel shard runner for zone-partitioned simulations.
//!
//! A cluster is a set of *zones*, each owning its own discrete-event
//! engine and whatever stack sits on top of it, spread across worker
//! threads. Zones only interact through [`Envelope`]s carried over
//! wide-area links whose minimum latency — the *lookahead* — bounds how
//! far one zone can affect another: a message sent at time `t` cannot be
//! delivered before `t + lookahead`.
//!
//! That bound is what makes conservative synchronization work. Each
//! round, every zone publishes the deadline of its earliest pending
//! event `T` and its earliest possible cross-zone *emission* `E`; zone
//! `z` can safely simulate up to and including its window
//! `W_z = min_j (E_j + D(j, z))` — `D` being the min-plus closure of
//! the per-pair [`LookaheadMatrix`] — without hearing from anyone:
//! nothing any other zone does can produce a delivery inside that
//! window. Outbound cross-zone messages are drained into per-zone
//! mailboxes, exchanged at the round's single barrier, and re-injected
//! sorted by `(deliver_time, src_zone, seq)`, so the merged execution
//! is byte-identical for any worker count, including one.
//!
//! The runner is engine-agnostic: anything implementing [`ZoneWorker`]
//! can ride it, which keeps this crate dependency-free and lets the
//! protocol be unit-tested against toy workers.

mod envelope;
mod runner;

pub use envelope::Envelope;
pub use runner::{run_cluster, ClusterConfig, ClusterReport, LookaheadMatrix, ZoneWorker};
