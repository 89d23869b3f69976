//! The ingest side: live mutable state, epoch publishing, WAL replay.
//!
//! [`ServeState`] owns the fitted pipeline's parts. Ingest streams each
//! paper through [`iuad_core::ingest_paper`], the §V-E decide-then-absorb
//! path that [`iuad_core::Iuad::ingest`] also uses; each accepted paper is
//! WAL-logged with its decisions before the caller sees the reply.
//! Publishing an epoch re-canonicalizes the live engine in place with one
//! [`SimilarityEngine::refresh`] over the vertices touched since the last
//! publish: absorbed-into profiles are rebuilt exactly from their
//! mentions. Streaming adds no edge, so every vertex's structural caches
//! already match a rebuild: the fitted engine caches every vertex, and
//! absorb gives a founded vertex its isolated-vertex features. The engine
//! holds no group-level state (join evidence is Stage 2's), so the
//! refreshed engine is identical to a from-scratch build over the live
//! network. The snapshot takes a deep clone of it (and of the network and
//! context), and subsequent decisions score against the same canonical
//! state.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use iuad_core::{
    absorb_mention, ingest_paper, Decision, Gcn, Iuad, IuadConfig, ProfileContext, Scn,
    SimilarityEngine, VertexProfile,
};
use iuad_corpus::{NameId, Paper, PaperId};
use iuad_graph::VertexId;

use crate::checkpoint::{
    list_checkpoints, prune_checkpoints, read_checkpoint, write_checkpoint, CheckpointMeta,
};
use crate::fault::{CrashPoint, FaultInjector};
use crate::fingerprint::partition_fingerprint;
use crate::snapshot::Snapshot;
use crate::wal::{read_wal, Wal, WalRecord};

/// Live mutable serving state (owned by the daemon's ingest thread).
#[derive(Debug)]
pub struct ServeState {
    config: IuadConfig,
    ctx: ProfileContext,
    gcn: Gcn,
    network: Scn,
    engine: SimilarityEngine,
    /// Vertices absorbed into since the last publish.
    touched: Vec<VertexId>,
    /// Next streamed paper id: ids continue the base corpus contiguously
    /// (incoming papers have their id rewritten), keeping the context's
    /// per-paper tables index-addressable.
    next_paper: u32,
    epoch: u64,
    papers_ingested: u64,
    wal: Option<Wal>,
    faults: Option<Arc<FaultInjector>>,
    /// Replication hub, when this state is a primary shipping its WAL to
    /// followers. Records are offered to the hub only *after* the WAL
    /// append returns (flushed, and fsynced under `--fsync`), so a
    /// follower can never observe a record ahead of the primary's durable
    /// horizon.
    ship: Option<Arc<crate::replica::ReplicationHub>>,
}

/// What applying one record did to the state — see
/// [`ServeState::apply_record`].
#[derive(Debug)]
pub enum RecordOutcome {
    /// The state already contained the record (idempotent resume skip).
    Skipped,
    /// A paper record was registered and absorbed.
    Paper,
    /// An epoch marker re-published; the frozen snapshot it produced. A
    /// snapshot owns deep clones of the live network, context and engine
    /// (see [`ServeState::publish`]); it is boxed because its hundreds of
    /// bytes of inline headers would dwarf the other variants.
    Published(Box<Snapshot>),
}

/// How a [`ServeState::recover`] run rebuilt the state — which checkpoint
/// (if any) it started from, how much WAL tail it replayed, and how many
/// damaged checkpoints it had to skip on the way.
#[derive(Debug)]
pub struct Recovery {
    /// The recovered state (bit-identical to the pre-crash daemon).
    pub state: ServeState,
    /// Sequence number of the checkpoint used, `None` for plain replay.
    pub checkpoint_seq: Option<u64>,
    /// Records folded into that checkpoint.
    pub checkpoint_records: usize,
    /// WAL tail records applied on top (after idempotent skips).
    pub tail_records: usize,
    /// Checkpoints rejected as corrupt or inconsistent before one worked.
    pub corrupt_checkpoints: usize,
}

impl ServeState {
    /// Wrap a fitted pipeline. `wal`, when given, receives every accepted
    /// paper and epoch marker from here on.
    pub fn new(iuad: Iuad, wal: Option<Wal>) -> ServeState {
        let parts = iuad.into_state();
        ServeState {
            next_paper: parts.ctx.paper_years.len() as u32,
            config: parts.config,
            ctx: parts.ctx,
            gcn: parts.gcn,
            network: parts.network,
            engine: parts.engine,
            touched: Vec::new(),
            epoch: 0,
            papers_ingested: 0,
            wal,
            faults: None,
            ship: None,
        }
    }

    /// Attach (or replace) the WAL after construction — the replay path
    /// builds the state first, then reopens the log for appending. The
    /// state's fault plan (if any) is propagated to the new log.
    pub fn set_wal(&mut self, mut wal: Option<Wal>) {
        if let Some(w) = &mut wal {
            w.set_faults(self.faults.clone());
        }
        self.wal = wal;
    }

    /// Whether a WAL is attached (checkpointing requires one).
    pub fn has_wal(&self) -> bool {
        self.wal.is_some()
    }

    /// Attach a fault plan (crash-matrix runs); threads through to the WAL
    /// and checkpoint writer. `None` disarms.
    pub fn set_faults(&mut self, faults: Option<Arc<FaultInjector>>) {
        if let Some(wal) = &mut self.wal {
            wal.set_faults(faults.clone());
        }
        self.faults = faults;
    }

    /// An independent copy of the in-memory state, without the WAL handle
    /// or fault plan. Recovery clones one fitted base per candidate
    /// checkpoint instead of re-fitting, and the crash matrix clones its
    /// uncrashed control from the same base as the crashing run.
    pub fn clone_base(&self) -> ServeState {
        ServeState {
            config: self.config.clone(),
            ctx: self.ctx.clone(),
            gcn: self.gcn.clone(),
            network: self.network.clone(),
            engine: self.engine.clone(),
            touched: self.touched.clone(),
            next_paper: self.next_paper,
            epoch: self.epoch,
            papers_ingested: self.papers_ingested,
            wal: None,
            faults: None,
            ship: None,
        }
    }

    /// Attach a replication hub: every durably-logged record from here on
    /// is also offered to connected followers. `None` detaches.
    pub fn set_ship(&mut self, ship: Option<Arc<crate::replica::ReplicationHub>>) {
        self.ship = ship;
    }

    /// Ingest one paper: rewrite its id to the next slot, register its
    /// evidence with the context, decide-and-absorb every author slot, and
    /// WAL the record. Returns the assigned id and the per-slot decisions.
    /// A replicated caller keeps [`WalRecord::widest_frame_len`] within
    /// [`crate::MAX_LINE_BYTES`], as the daemon does, or followers cannot
    /// read the shipped record.
    ///
    /// # Panics
    /// On WAL write failure: an acknowledged ingest must be durable, so a
    /// broken log is fatal rather than silently lossy.
    pub fn ingest(&mut self, mut paper: Paper) -> (PaperId, Vec<(NameId, Decision)>) {
        paper.id = PaperId(self.next_paper);
        self.next_paper += 1;
        self.ctx.register_paper(&paper);
        let decisions = self.apply(&paper);
        if let Some(wal) = &mut self.wal {
            let record = WalRecord::Paper {
                paper: paper.clone(),
                decisions: decisions.iter().map(|&(_, d)| d).collect(),
            };
            wal.append(&record)
                .expect("WAL append failed; refusing to acknowledge ingest");
            if let Some(ship) = &self.ship {
                // The append above returned, so the record is durable —
                // only now may followers see it.
                ship.append(record);
            }
        }
        self.papers_ingested += 1;
        (paper.id, decisions)
    }

    /// Decide live and absorb every slot of `paper` through the shared
    /// [`ingest_paper`] path, tracking touched vertices for the next
    /// publish.
    fn apply(&mut self, paper: &Paper) -> Vec<(NameId, Decision)> {
        let resolved = ingest_paper(
            &mut self.network,
            &self.ctx,
            &mut self.engine,
            self.gcn.model.as_ref(),
            self.config.gcn.delta,
            paper,
        );
        self.touched.extend(resolved.iter().map(|&(_, _, v)| v));
        resolved.into_iter().map(|(name, d, _)| (name, d)).collect()
    }

    /// Absorb every slot of `paper` with the *recorded* decisions,
    /// validating each decision against the network state at its own
    /// absorb step (a slot may legitimately reference a vertex the
    /// previous slot of the same paper just created, so validation cannot
    /// run up front). Checkpoint and WAL bytes are external input to
    /// recovery — a record that parsed but carries an out-of-range vertex
    /// or one publishing under a different name must fail the attempt, not
    /// corrupt the rebuilt network. Absorbing needs only each mention's
    /// single-paper profile, not the structural evidence a live decision
    /// gathers.
    fn apply_recorded(&mut self, paper: &Paper, decisions: &[Decision]) -> Result<(), String> {
        if decisions.len() != paper.authors.len() {
            return Err(format!(
                "record for paper {} carries {} decisions for {} author slots",
                paper.id.0,
                decisions.len(),
                paper.authors.len()
            ));
        }
        for (slot, (&decision, &name)) in decisions.iter().zip(&paper.authors).enumerate() {
            if let Decision::Existing { vertex, .. } = decision {
                if vertex.index() >= self.network.graph.num_vertices() {
                    return Err(format!(
                        "paper {} slot {slot}: decision references vertex {} but the network has {}",
                        paper.id.0,
                        vertex.0,
                        self.network.graph.num_vertices()
                    ));
                }
                let have = self.network.graph.vertex(vertex).name;
                if have != name {
                    return Err(format!(
                        "paper {} slot {slot}: decision assigns name {} to vertex {} of name {}",
                        paper.id.0, name.0, vertex.0, have.0
                    ));
                }
            }
            let profile = VertexProfile::from_new_paper(name, paper, &self.ctx);
            let v = absorb_mention(
                &mut self.network,
                &mut self.engine,
                paper,
                slot,
                decision,
                &profile,
            );
            self.touched.push(v);
        }
        Ok(())
    }

    /// Apply a recorded stream (checkpoint fold or WAL tail) on top of the
    /// current state. With `resume`, records the state already contains —
    /// paper ids below `next_paper`, epoch markers at or below the current
    /// epoch — are skipped idempotently, which is what makes replaying a
    /// WAL tail after a checkpoint (including the crash window where the
    /// checkpoint renamed but the WAL was not yet truncated) safe. After
    /// the skips, any discontinuity (a paper-id gap, an epoch marker that
    /// is not the next epoch, a decision the network cannot hold) is an
    /// error: a gap means records exist only in a checkpoint we could not
    /// read, and a wrong state must never be served. Returns the number of
    /// records applied.
    pub fn apply_records(&mut self, records: &[WalRecord], resume: bool) -> Result<usize, String> {
        let mut applied = 0usize;
        for record in records {
            if !matches!(self.apply_record(record, resume)?, RecordOutcome::Skipped) {
                applied += 1;
            }
        }
        Ok(applied)
    }

    /// Apply one recorded operation — the single-step form of
    /// [`ServeState::apply_records`], with identical resume/gap semantics.
    /// The replication follower applies shipped records through this one
    /// at a time so it can hand each published [`Snapshot`] to its epoch
    /// store as it happens rather than after the whole batch.
    pub fn apply_record(
        &mut self,
        record: &WalRecord,
        resume: bool,
    ) -> Result<RecordOutcome, String> {
        match record {
            WalRecord::Paper { paper, decisions } => {
                if resume && paper.id.0 < self.next_paper {
                    return Ok(RecordOutcome::Skipped);
                }
                if paper.id != PaperId(self.next_paper) {
                    return Err(format!(
                        "paper-id gap: record {} but the next slot is {} — \
                         the stream does not continue this state",
                        paper.id.0, self.next_paper
                    ));
                }
                self.next_paper += 1;
                self.ctx.register_paper(paper);
                self.apply_recorded(paper, decisions)?;
                self.papers_ingested += 1;
                Ok(RecordOutcome::Paper)
            }
            &WalRecord::Epoch(marker) => {
                if resume && marker <= self.epoch {
                    return Ok(RecordOutcome::Skipped);
                }
                if marker != self.epoch + 1 {
                    return Err(format!(
                        "epoch drift: marker {marker} after epoch {}",
                        self.epoch
                    ));
                }
                Ok(RecordOutcome::Published(Box::new(self.publish())))
            }
        }
    }

    /// Publish the next epoch: canonicalize the live engine over the
    /// touched set, mark the WAL, and return a frozen [`Snapshot`].
    pub fn publish(&mut self) -> Snapshot {
        if let Some(faults) = &self.faults {
            faults.check(CrashPoint::BeforePublish);
        }
        self.engine.refresh(
            &self.touched,
            &self.network,
            &self.ctx,
            &self.config.parallel,
        );
        self.touched.clear();
        self.epoch += 1;
        if let Some(wal) = &mut self.wal {
            let record = WalRecord::Epoch(self.epoch);
            wal.append(&record)
                .expect("WAL append failed at epoch publish");
            if let Some(ship) = &self.ship {
                ship.append(record);
            }
        }
        if let Some(faults) = &self.faults {
            faults.check(CrashPoint::AfterPublish);
        }
        self.snapshot_now()
    }

    /// A [`Snapshot`] of the state as it stands, labelled with the last
    /// *published* epoch — no publish happens, the live engine is used as
    /// is. This seeds a follower's [`crate::EpochStore`] at bootstrap:
    /// the recovered state sits exactly at its last epoch marker plus any
    /// durable tail papers, all of which are the primary's durable prefix,
    /// so serving them under the last published epoch label never exposes
    /// an epoch the primary did not publish.
    pub fn snapshot_now(&self) -> Snapshot {
        Snapshot {
            epoch: self.epoch,
            network: self.network.clone(),
            ctx: self.ctx.clone(),
            engine: self.engine.clone(),
            model: self.gcn.model.clone(),
            delta: self.config.gcn.delta,
        }
    }

    /// Fold the durable history into a new checkpoint and truncate the
    /// WAL to empty. The fold is the previous valid checkpoint's records
    /// plus the current WAL contents (minus the idempotent overlap left by
    /// a crash between a past checkpoint's rename and its WAL truncation);
    /// the result is cross-checked against the live counters before
    /// anything is written, the checkpoint is written atomically
    /// (temp-file + rename + directory fsync), and only then is the WAL
    /// truncated — a crash at any point leaves a recoverable disk state
    /// (see [`ServeState::recover`]). All but the newest two checkpoints
    /// are pruned. Returns the new checkpoint's header.
    ///
    /// # Errors
    /// Without an attached WAL, on any I/O failure, or if the fold does
    /// not reproduce the live counters (a corrupt prior checkpoint — the
    /// checkpoint is refused rather than written wrong).
    pub fn checkpoint(&mut self) -> Result<CheckpointMeta, String> {
        // A fold that does not describe exactly the live state means the
        // prior checkpoint lied (or the WAL lost records), and folding
        // would bake the damage into the new base.
        let (wal_path, records) = self.checked_history("checkpoint")?;
        let listed = list_checkpoints(&wal_path).map_err(|e| e.to_string())?;
        let next_seq = listed.last().map_or(1, |&(seq, _)| seq + 1);
        let meta = CheckpointMeta {
            version: 1,
            seq: next_seq,
            epoch: self.epoch,
            papers: self.papers_ingested,
            next_paper: self.next_paper,
            fingerprint: format!("{:016x}", self.fingerprint()),
            records: records.len() as u64,
        };
        write_checkpoint(&wal_path, &meta, &records, self.faults.as_ref())
            .map_err(|e| format!("checkpoint write: {e}"))?;
        self.wal
            .as_mut()
            .expect("WAL present")
            .truncate_after_checkpoint()
            .map_err(|e| format!("WAL truncation after checkpoint: {e}"))?;
        prune_checkpoints(&wal_path, 2).map_err(|e| e.to_string())?;
        Ok(meta)
    }

    /// The complete durable record stream from record 0: the newest
    /// readable checkpoint's records plus the current WAL contents, minus
    /// the idempotent overlap left by a crash between a checkpoint's
    /// rename and its WAL truncation. Because every checkpoint folds its
    /// predecessor (see [`ServeState::checkpoint`]), this *is* the full
    /// history — the replication hub seeds itself from it so a follower
    /// can cursor-handshake at any offset, not just the live tail.
    fn fold_history(wal_path: &Path) -> Result<Vec<WalRecord>, String> {
        let listed = list_checkpoints(wal_path).map_err(|e| e.to_string())?;
        let prior = listed
            .iter()
            .rev()
            .find_map(|(_, path)| read_checkpoint(path).ok());
        let tail = if wal_path.exists() {
            read_wal(wal_path).map_err(|e| e.to_string())?
        } else {
            Vec::new()
        };
        let (mut records, skip_paper, skip_epoch) = match prior {
            Some(cp) => (cp.records, cp.meta.next_paper, cp.meta.epoch),
            None => (Vec::new(), 0, 0),
        };
        records.extend(tail.into_iter().filter(|record| match record {
            WalRecord::Paper { paper, .. } => paper.id.0 >= skip_paper,
            &WalRecord::Epoch(epoch) => epoch > skip_epoch,
        }));
        Ok(records)
    }

    /// The folded durable history (newest checkpoint + WAL tail, from
    /// record 0) of this state's attached WAL, cross-checked against the
    /// live counters — the record stream a replication hub must be
    /// seeded with before this state starts shipping.
    ///
    /// # Errors
    /// Without an attached WAL, on I/O failure, or if the fold does not
    /// reproduce the live counters (history that cannot rebuild this
    /// state must not be shipped to followers).
    pub fn durable_history(&self) -> Result<Vec<WalRecord>, String> {
        Ok(self.checked_history("durable history")?.1)
    }

    /// The attached WAL's path and its [`ServeState::fold_history`],
    /// provided the fold holds exactly as many papers and epoch markers as
    /// the live state embodies. `what` names the caller in the errors.
    fn checked_history(&self, what: &str) -> Result<(PathBuf, Vec<WalRecord>), String> {
        let wal_path = self
            .wal
            .as_ref()
            .ok_or_else(|| format!("{what} requires an attached WAL"))?
            .path()
            .to_path_buf();
        let records = Self::fold_history(&wal_path)?;
        let epochs = records
            .iter()
            .filter(|r| matches!(r, WalRecord::Epoch(_)))
            .count() as u64;
        let papers = records.len() as u64 - epochs;
        if papers != self.papers_ingested || epochs != self.epoch {
            return Err(format!(
                "{what} refused: the fold has {papers} papers / {epochs} epochs but the \
                 live state has {} / {}, so it cannot rebuild the state",
                self.papers_ingested, self.epoch
            ));
        }
        Ok((wal_path, records))
    }

    /// Rebuild the serving state from disk: the recovery state machine.
    /// Replay absorbs the *recorded* decisions and re-publishes at the
    /// recorded epoch markers (publish canonicalizes merged profiles, so
    /// cadence matters), which makes the rebuilt state bit-identical to
    /// the live one; `wal-replay-matches-live` pins this per regime.
    ///
    /// Candidates are tried in order of freshness — each checkpoint from
    /// newest to oldest, then (when it can be correct) plain WAL replay:
    ///
    /// 1. Strictly read the checkpoint; reject on any framing damage.
    /// 2. Replay its records over a clone of the fitted base and verify
    ///    the rebuilt fingerprint, epoch, and paper counts against the
    ///    header; reject on any mismatch.
    /// 3. Apply the WAL tail idempotently on top; reject on any gap
    ///    (records that exist only inside a newer, corrupt checkpoint).
    ///    When a newer checkpoint was rejected, the tail must additionally
    ///    carry this candidate forward by at least one record — an empty
    ///    tail cannot prove an older checkpoint is still current, and the
    ///    rejected one may hold records that exist nowhere else.
    ///
    /// Each attempt runs under `catch_unwind` so arbitrarily corrupt bytes
    /// degrade to fallback, never a panic. Plain replay is attempted only
    /// when no checkpoint files exist (never compacted) or the WAL is
    /// non-empty and continues the base corpus directly (first checkpoint
    /// write died before truncation) — an empty WAL next to unreadable
    /// checkpoints is unrecoverable, and serving the bare base fit would
    /// be serving a wrong epoch.
    ///
    /// # Errors
    /// When no candidate rebuilds a consistent state. The daemon must
    /// refuse to start rather than serve wrong answers.
    pub fn recover(iuad: Iuad, wal_path: &Path) -> Result<Recovery, String> {
        Self::recover_from_base(&ServeState::new(iuad, None), wal_path)
    }

    /// [`ServeState::recover`] against an already-built fresh-fit base
    /// (cloned per candidate, never mutated) — the crash matrix recovers
    /// many times from one fit instead of re-fitting per case.
    ///
    /// # Errors
    /// As [`ServeState::recover`].
    pub fn recover_from_base(base: &ServeState, wal_path: &Path) -> Result<Recovery, String> {
        let tail = if wal_path.exists() {
            read_wal(wal_path).map_err(|e| format!("WAL read: {e}"))?
        } else {
            Vec::new()
        };
        let listed = list_checkpoints(wal_path).unwrap_or_default();
        let mut corrupt = 0usize;
        for (seq, path) in listed.iter().rev() {
            // Once a *newer* checkpoint has been rejected, an older one is
            // only trustworthy if the WAL tail proves it is still current
            // (the rejected checkpoint may hold records that exist nowhere
            // else — after its WAL truncation, an empty tail next to an
            // older checkpoint is indistinguishable from silent data
            // loss, and serving the older state would be serving a wrong
            // epoch).
            let newer_rejected = corrupt > 0;
            let Ok(cp) = read_checkpoint(path) else {
                corrupt += 1;
                continue;
            };
            let want_fp = u64::from_str_radix(&cp.meta.fingerprint, 16);
            let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(
                || -> Result<(ServeState, usize), String> {
                    let mut state = base.clone_base();
                    state.apply_records(&cp.records, false)?;
                    if want_fp.as_ref().ok() != Some(&state.fingerprint())
                        || state.epoch != cp.meta.epoch
                        || state.papers_ingested != cp.meta.papers
                        || state.next_paper != cp.meta.next_paper
                    {
                        return Err("checkpoint header disagrees with its records".to_owned());
                    }
                    let applied = state.apply_records(&tail, true)?;
                    Ok((state, applied))
                },
            ));
            match attempt {
                Ok(Ok((_, 0))) if newer_rejected => {
                    // The candidate rebuilds cleanly but nothing in the WAL
                    // carries it past the rejected newer checkpoint, so its
                    // currency cannot be proven. Keep looking (and fail
                    // recovery) instead of serving a possibly-stale epoch.
                    corrupt += 1;
                }
                Ok(Ok((state, applied))) => {
                    return Ok(Recovery {
                        state,
                        checkpoint_seq: Some(*seq),
                        checkpoint_records: cp.records.len(),
                        tail_records: applied,
                        corrupt_checkpoints: corrupt,
                    });
                }
                _ => corrupt += 1,
            }
        }
        if listed.is_empty() || !tail.is_empty() {
            let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(
                || -> Result<(ServeState, usize), String> {
                    let mut state = base.clone_base();
                    let applied = state.apply_records(&tail, false)?;
                    Ok((state, applied))
                },
            ));
            if let Ok(Ok((state, applied))) = attempt {
                return Ok(Recovery {
                    state,
                    checkpoint_seq: None,
                    checkpoint_records: 0,
                    tail_records: applied,
                    corrupt_checkpoints: corrupt,
                });
            }
        }
        Err(format!(
            "unrecoverable serving state at {}: {corrupt} checkpoint(s) rejected and the \
             WAL tail does not continue any valid base — refusing to serve a wrong epoch",
            wal_path.display()
        ))
    }

    /// Canonical partition fingerprint of the live network.
    pub fn fingerprint(&self) -> u64 {
        partition_fingerprint(&self.network)
    }

    /// The live network (read-only; tests compare replayed vs live).
    pub fn network(&self) -> &Scn {
        &self.network
    }

    /// The live engine (read-only; tests compare via
    /// [`SimilarityEngine::diff_from`]).
    pub fn engine(&self) -> &SimilarityEngine {
        &self.engine
    }

    /// Extended context (read-only).
    pub fn ctx(&self) -> &ProfileContext {
        &self.ctx
    }

    /// Last published epoch (0 before the first publish).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Papers accepted since the fit (not counting the base corpus).
    pub fn papers_ingested(&self) -> u64 {
        self.papers_ingested
    }
}
