//! Epoch snapshots: the frozen read side of the daemon.
//!
//! A [`Snapshot`] is a self-contained, immutable view of the fitted state
//! at one epoch — partition (whose graph answers collaborator queries),
//! similarity caches, scoring model. Readers clone an `Arc<Snapshot>` out
//! of the [`EpochStore`] and answer every query against it without taking
//! any lock shared with ingest; the store's `RwLock` guards only the
//! pointer swap, which is O(1). An old epoch is *retired* (its memory
//! reclaimed) automatically when the last reader's `Arc` drops; the store
//! tracks retirement through `Weak` handles so tests and stats can observe
//! it without keeping the epoch alive.

use std::sync::{Arc, Mutex, RwLock, Weak};

use iuad_core::{disambiguate_mention, Decision, ProfileContext, Scn, SimilarityEngine};
use iuad_corpus::{NameId, Paper};
use iuad_graph::VertexId;
use iuad_mixture::TwoComponentMixture;

use crate::fingerprint::partition_fingerprint;

/// An immutable view of the fitted state at one epoch.
#[derive(Debug)]
pub struct Snapshot {
    /// The epoch this snapshot was published at (1-based; the fit itself
    /// is "epoch 0" and is never served directly).
    pub epoch: u64,
    /// The merged collaboration network, including every paper absorbed
    /// up to this epoch.
    pub network: Scn,
    /// Corpus context extended with every absorbed paper's evidence.
    pub ctx: ProfileContext,
    /// Canonicalized similarity caches over every vertex of `network`.
    pub engine: SimilarityEngine,
    /// The fitted mixture; `None` when the base corpus had no ambiguity
    /// (every who-is query then answers new-author).
    pub model: Option<TwoComponentMixture>,
    /// Decision threshold δ.
    pub delta: f64,
}

/// What a profile query returns about one vertex.
#[derive(Debug, Clone)]
pub struct ProfileView {
    /// The vertex's name.
    pub name: NameId,
    /// Number of mentions assigned to it.
    pub mentions: usize,
    /// Number of distinct papers.
    pub papers: usize,
    /// Collaborator vertices at this epoch, ascending.
    pub collaborators: Vec<VertexId>,
}

impl Snapshot {
    /// Who-is: disambiguate the author at `slot` of a (transient, not
    /// ingested) paper against this epoch's network.
    pub fn whois(&self, paper: &Paper, slot: usize) -> Decision {
        match &self.model {
            Some(model) => disambiguate_mention(
                &self.network,
                &self.ctx,
                &self.engine,
                model,
                self.delta,
                paper,
                slot,
            ),
            None => Decision::NewAuthor { best_score: None },
        }
    }

    /// The vertices publishing under `name` (empty when unseen).
    pub fn name_group(&self, name: NameId) -> &[VertexId] {
        self.network.by_name.get(&name).map_or(&[], Vec::as_slice)
    }

    /// Profile of one vertex, or `None` for an out-of-range id.
    pub fn profile(&self, v: VertexId) -> Option<ProfileView> {
        if v.index() >= self.network.graph.num_vertices() {
            return None;
        }
        let payload = self.network.graph.vertex(v);
        Some(ProfileView {
            name: payload.name,
            mentions: payload.mentions.len(),
            papers: payload.papers().len(),
            collaborators: self.network.graph.sorted_neighbors(v),
        })
    }

    /// Canonical partition fingerprint of this epoch.
    pub fn fingerprint(&self) -> u64 {
        partition_fingerprint(&self.network)
    }
}

/// The published-epoch pointer plus retirement bookkeeping.
#[derive(Debug)]
pub struct EpochStore {
    current: RwLock<Arc<Snapshot>>,
    /// Epochs that have been superseded, with a weak handle each: a dead
    /// weak means the last reader dropped and the epoch's memory is gone.
    retired: Mutex<Vec<(u64, Weak<Snapshot>)>>,
}

impl EpochStore {
    /// Start the store at an initial snapshot.
    pub fn new(snapshot: Snapshot) -> EpochStore {
        EpochStore {
            current: RwLock::new(Arc::new(snapshot)),
            retired: Mutex::new(Vec::new()),
        }
    }

    /// The current epoch's snapshot. Readers keep the returned `Arc` for
    /// as long as they need a consistent view; it stays valid (and
    /// unchanged) across any number of publishes.
    pub fn load(&self) -> Arc<Snapshot> {
        self.current.read().expect("epoch store poisoned").clone()
    }

    /// Atomically swap in a new epoch. The superseded snapshot moves to
    /// the retired list; fully-dropped retirees are pruned. Returns the
    /// new epoch number.
    pub fn publish(&self, snapshot: Snapshot) -> u64 {
        let epoch = snapshot.epoch;
        let next = Arc::new(snapshot);
        let prev = {
            let mut slot = self.current.write().expect("epoch store poisoned");
            std::mem::replace(&mut *slot, next)
        };
        let mut retired = self.retired.lock().expect("retired list poisoned");
        retired.push((prev.epoch, Arc::downgrade(&prev)));
        drop(prev);
        retired.retain(|(_, weak)| weak.strong_count() > 0);
        epoch
    }

    /// Superseded epochs still pinned by at least one reader.
    pub fn epochs_still_held(&self) -> Vec<u64> {
        let mut retired = self.retired.lock().expect("retired list poisoned");
        retired.retain(|(_, weak)| weak.strong_count() > 0);
        retired.iter().map(|&(e, _)| e).collect()
    }
}
