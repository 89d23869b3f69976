//! The serving tier: a long-lived daemon that ingests a paper stream while
//! concurrently answering who-is / author-profile / name-group queries.
//!
//! The paper frames reconstruction as a one-shot fit, but its headline
//! efficiency claim is the *incremental* interface (§V-E): new mentions are
//! disambiguated against the fitted network without retraining. This crate
//! turns that primitive into a service with three load-bearing pieces:
//!
//! * **Epoch snapshots** ([`Snapshot`], [`EpochStore`]): readers hold an
//!   `Arc<Snapshot>` — partition, frozen [`iuad_core::SimilarityEngine`],
//!   CSR topology — at epoch N while the ingest thread mutates its own
//!   live state. Publishing epoch N+1 re-canonicalizes the live engine in
//!   place via [`iuad_core::SimilarityEngine::refresh`] over the vertices
//!   touched since the last publish and swaps the pointer; an old epoch
//!   retires once its last reader drops. The engine caches every vertex
//!   from the fit on, and streaming adds no edge, so a refresh only
//!   rebuilds touched profiles.
//! * **Write-ahead log** ([`Wal`]): every accepted paper is appended with
//!   its assignment decisions before the ingest reply, and every epoch
//!   publish leaves a marker. Warm restart replays the log — applying the
//!   *recorded* decisions, re-publishing at the recorded boundaries — and
//!   reproduces the pre-shutdown state bit for bit (fingerprint-equal
//!   partition, `diff_from`-equal engine).
//! * **Request plane** ([`Daemon`]): std-only (no async runtime) — a TCP
//!   listener, a small worker pool over a channel, line-delimited JSON.
//!   Hot-name query skew (scale-free collaboration networks concentrate
//!   mentions on hub names) is handled by per-name-group admission
//!   control: over-cap queries get a `shed` response instead of queueing
//!   behind the hot group, keeping tail latency bounded for everyone else.
//!   Shed responses carry the cause, the queue depth, and a
//!   `retry_after_ms` hint that [`Client::call_with_backoff`] honours.
//! * **Checkpoints & crash recovery** ([`checkpoint`], [`fault`],
//!   [`crash`]): the WAL is compacted into fingerprint-stamped checkpoint
//!   files written atomically; recovery ([`ServeState::recover`]) walks a
//!   state machine — newest valid checkpoint, older fallback, plain
//!   replay — and is pinned bit-identical to the never-crashed daemon at
//!   every named [`CrashPoint`] by the crash matrix
//!   ([`crash::run_crash_matrix`]).
//! * **Replication & failover** ([`replica`]): the primary ships its
//!   durable WAL stream — records enter the [`ReplicationHub`] only after
//!   the WAL append returns — over length-prefixed TCP to read-only
//!   [`Follower`] daemons, which bootstrap from the newest checkpoint,
//!   resume via a state-derived cursor handshake, stamp every response
//!   with `{epoch, staleness}`, and shed reads past `max_lag_epochs` with
//!   cause `replica-lag`. The replica fault matrix
//!   ([`replica::run_replica_matrix`]) pins followers bit-identical to
//!   the primary across torn ship frames, follower kills, seeded link
//!   partitions, and primary death; [`client::FailoverClient`] routes
//!   ingest to the primary and reads round-robin across healthy
//!   followers, demoting endpoints that fail the `health` op.
//!
//! The wire protocol, WAL format, checkpoint format, and recovery state
//! machine are documented in the repository README ("Serving" section).

#![warn(missing_docs)]

use std::io::{BufRead, Read};

pub mod checkpoint;
pub mod client;
pub mod crash;
pub mod daemon;
pub mod fault;
pub mod fingerprint;
pub mod load;
pub mod replica;
pub mod snapshot;
pub mod state;
pub mod wal;

pub use checkpoint::{
    checkpoint_path, list_checkpoints, read_checkpoint, Checkpoint, CheckpointMeta,
};
pub use client::{response_field, response_ok, response_shed, Backoff, Client, FailoverClient};
pub use crash::{run_crash_matrix, CrashCase, CrashReport, CrashSpec};
pub use daemon::{Daemon, DaemonConfig, DaemonStats};
pub use fault::{CrashPoint, FaultInjector, SimulatedCrash};
pub use fingerprint::{fingerprint_hex, partition_fingerprint};
pub use load::{run_replica_smoke, run_smoke, ReplicaSmokeOutcome, SmokeOutcome};
pub use replica::{
    run_replica_matrix, Follower, FollowerConfig, ReplicaCase, ReplicaLink, ReplicaReport,
    ReplicaSpec, ReplicaStatus, ReplicationHub, ReplicationServer, Role, SyncFrame,
};
pub use snapshot::{EpochStore, ProfileView, Snapshot};
pub use state::{Recovery, ServeState};
pub use wal::{read_wal, Wal, WalDecision, WalRecord};

/// Most bytes one daemon request line or replication frame may hold,
/// newline included. A peer that sends more without a newline is refused
/// and disconnected instead of growing the reader's buffer without bound.
/// The daemon refuses an ingest whose logged record could frame past this
/// cap ([`WalRecord::widest_frame_len`]), so every record it ships fits a
/// follower's frame read.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Append one `\n`-terminated line from `reader` to `buf`, buffering at
/// most one byte past [`MAX_LINE_BYTES`]. Returns the bytes appended (0 at
/// end of stream), or an [`std::io::ErrorKind::InvalidData`] error once
/// `buf` holds more than the cap. Partial bytes stay in `buf` across a read
/// timeout, and the next call appends the rest.
pub(crate) fn read_capped_line<R: BufRead>(
    reader: &mut R,
    buf: &mut Vec<u8>,
) -> std::io::Result<usize> {
    let budget = (MAX_LINE_BYTES + 1).saturating_sub(buf.len()) as u64;
    let read = reader.take(budget).read_until(b'\n', buf)?;
    if buf.len() > MAX_LINE_BYTES {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("line too long (over {MAX_LINE_BYTES} bytes)"),
        ));
    }
    Ok(read)
}
