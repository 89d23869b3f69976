//! Vertex profiles: the per-vertex evidence the six similarity functions
//! consume, plus the corpus-level context (embeddings, frequencies) they
//! are normalised against.
//!
//! The per-vertex containers ([`KeywordYears`], [`VenueCounts`]) are sorted
//! association lists, not hash maps: the similarity functions γ₄ and γ₆
//! intersect two profiles per candidate pair, and a two-pointer merge join
//! over contiguous sorted slices beats per-key hash probes on that hot path
//! (see `similarity.rs`).

use iuad_corpus::{Corpus, Mention, NameId, Paper, PaperId, VenueId};
use iuad_par::ParallelConfig;
use iuad_text::{
    centroid, tokenize_filtered, train_sgns_with_stats, Embeddings, SgnsConfig, SgnsStats, Vocab,
};

/// Per-paper keyword ids in one flat CSR-style slab: paper `i`'s keywords
/// are `words[offsets[i]..offsets[i + 1]]`.
///
/// The former `Vec<Vec<u32>>` layout paid a 24-byte header plus a separate
/// heap allocation per paper — at a million papers that is a million tiny
/// allocations before the pipeline proper starts. The slab stores the same
/// ids in two contiguous buffers and indexes like a slice table.
#[derive(Debug, Clone, PartialEq)]
pub struct KeywordSlab {
    offsets: Vec<u32>,
    words: Vec<u32>,
}

impl Default for KeywordSlab {
    fn default() -> Self {
        KeywordSlab {
            offsets: vec![0],
            words: Vec::new(),
        }
    }
}

impl KeywordSlab {
    /// Number of papers in the slab.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when no paper has been pushed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append the next paper's keyword list.
    pub fn push<I: IntoIterator<Item = u32>>(&mut self, words: I) {
        self.words.extend(words);
        let end = u32::try_from(self.words.len()).unwrap_or_else(|_| {
            panic!(
                "KeywordSlab overflow: {} keyword ids exceed the u32 offset space",
                self.words.len()
            )
        });
        self.offsets.push(end);
    }

    /// Iterate papers' keyword slices in paper-id order.
    pub fn iter(&self) -> impl Iterator<Item = &[u32]> + '_ {
        (0..self.len()).map(move |i| &self[i])
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.offsets.capacity() * 4 + self.words.capacity() * 4
    }
}

impl std::ops::Index<usize> for KeywordSlab {
    type Output = [u32];

    fn index(&self, paper: usize) -> &[u32] {
        &self.words[self.offsets[paper] as usize..self.offsets[paper + 1] as usize]
    }
}

/// Corpus-level context shared by all similarity computations.
///
/// Built once per corpus: the title vocabulary, SGNS keyword embeddings,
/// per-paper keyword ids, corpus word frequencies `F_B` and venue
/// frequencies `F_H`.
#[derive(Debug, Clone)]
pub struct ProfileContext {
    /// Title vocabulary (stop words removed at tokenisation).
    pub vocab: Vocab,
    /// SGNS embeddings over the vocabulary.
    pub embeddings: Embeddings,
    /// Keyword ids per paper (stop words and frequent words excluded).
    pub paper_keywords: KeywordSlab,
    /// Publication year per paper.
    pub paper_years: Vec<u16>,
    /// Venue per paper.
    pub paper_venues: Vec<VenueId>,
    /// `F_H(h)`: number of papers published in venue `h` (Equation 9).
    pub venue_freq: Vec<u32>,
    /// `ln(max(F_B(b), 2))` per word — γ₄'s denominator, hoisted out of the
    /// per-pair loop so the hot path performs no `ln` calls.
    pub word_ln_freq: Vec<f64>,
    /// `1 / ln(max(F_H(h), 2))` per venue — γ₆'s Adamic/Adar weight,
    /// likewise precomputed.
    pub venue_aa_weight: Vec<f64>,
    /// Fraction-of-documents threshold above which a word counts as
    /// "frequent" and is excluded from keywords (§V-B2).
    pub frequent_word_fraction: f64,
}

/// γ₆'s Adamic/Adar weight for a venue unseen at context-build time
/// (possible in the incremental setting): `F_H` defaults to 1, clamped to 2.
pub(crate) fn unseen_venue_aa_weight() -> f64 {
    1.0 / 2.0f64.ln()
}

impl ProfileContext {
    /// Build the context: tokenise titles, train SGNS, precompute keyword
    /// ids and frequency tables. `seed` drives embedding training only.
    pub fn build(corpus: &Corpus, embedding_dim: usize, seed: u64) -> Self {
        Self::build_parallel(corpus, embedding_dim, seed, &ParallelConfig::sequential())
    }

    /// [`ProfileContext::build`] with SGNS segment compute fanned out over
    /// `par` threads. The trainer's schedule is thread-count-invariant, so
    /// the result is bit-identical to the sequential build.
    pub fn build_parallel(
        corpus: &Corpus,
        embedding_dim: usize,
        seed: u64,
        par: &ParallelConfig,
    ) -> Self {
        Self::build_with_stats(corpus, embedding_dim, seed, par).0
    }

    /// [`ProfileContext::build_parallel`] plus the SGNS sub-stage timing
    /// breakdown ([`crate::Iuad::fit`] records it as the `sgns_vocab_build`,
    /// `sgns_sampler_build` and `sgns_epoch_loop` stage rows).
    pub fn build_with_stats(
        corpus: &Corpus,
        embedding_dim: usize,
        seed: u64,
        par: &ParallelConfig,
    ) -> (Self, SgnsStats) {
        let frequent_word_fraction = 0.10;
        // Tokenise + intern + encode in one streaming pass per title:
        // `observe_doc` makes the one-pass build id-identical to the former
        // two-pass `Vocab::build` + `encode`, without materialising every
        // title's tokens as owned `String`s (or cloning them into the
        // vocabulary) first. Only the encoded `u32` docs are kept, and only
        // for the duration of SGNS training.
        let mut vocab = Vocab::default();
        let mut encoded: Vec<Vec<u32>> = Vec::with_capacity(corpus.papers.len());
        for p in &corpus.papers {
            let tokens = tokenize_filtered(&p.title);
            let mut ids = Vec::with_capacity(tokens.len());
            vocab.observe_doc(tokens.iter().map(String::as_str), &mut ids);
            encoded.push(ids);
        }
        let (embeddings, sgns_stats) = train_sgns_with_stats(
            &encoded,
            vocab.len(),
            &SgnsConfig {
                dim: embedding_dim,
                epochs: 4,
                seed,
                parallel: *par,
                ..Default::default()
            },
        );
        // Keywords: drop corpus-frequent words (generic vocabulary that
        // slipped past the stop list).
        let mut paper_keywords = KeywordSlab::default();
        for doc in &encoded {
            paper_keywords.push(
                doc.iter()
                    .copied()
                    .filter(|&w| !vocab.is_frequent(w, frequent_word_fraction)),
            );
        }
        drop(encoded);
        let mut venue_freq = vec![0u32; corpus.num_venues()];
        for p in &corpus.papers {
            venue_freq[p.venue.index()] += 1;
        }
        let word_ln_freq: Vec<f64> = (0..vocab.len() as u32)
            .map(|w| (vocab.term_count(w) as f64).max(2.0).ln())
            .collect();
        let venue_aa_weight: Vec<f64> = venue_freq
            .iter()
            .map(|&f| 1.0 / (f64::from(f).max(2.0)).ln())
            .collect();
        (
            ProfileContext {
                vocab,
                embeddings,
                paper_keywords,
                paper_years: corpus.papers.iter().map(|p| p.year).collect(),
                paper_venues: corpus.papers.iter().map(|p| p.venue).collect(),
                venue_freq,
                word_ln_freq,
                venue_aa_weight,
                frequent_word_fraction,
            },
            sgns_stats,
        )
    }

    /// `F_B(b)`: corpus-wide occurrence count of keyword `b` (Equation 7).
    pub fn word_freq(&self, word: u32) -> u64 {
        self.vocab.term_count(word)
    }

    /// Append a streamed paper to the per-paper evidence tables so profile
    /// rebuilds ([`VertexProfile::from_mentions`]) can index it. Keyword
    /// derivation mirrors [`VertexProfile::from_new_paper`] exactly; the
    /// trained parts of the context (vocabulary, embeddings, frequency
    /// tables) stay frozen — the incremental setting never retrains (§V-E).
    /// Papers must be registered in ascending contiguous id order.
    pub fn register_paper(&mut self, paper: &Paper) {
        assert_eq!(
            paper.id.index(),
            self.paper_keywords.len(),
            "papers must be registered in contiguous id order"
        );
        let tokens = tokenize_filtered(&paper.title);
        let keywords: Vec<u32> = self
            .vocab
            .encode(tokens.iter().map(String::as_str))
            .into_iter()
            .filter(|&w| !self.vocab.is_frequent(w, self.frequent_word_fraction))
            .collect();
        self.paper_keywords.push(keywords);
        self.paper_years.push(paper.year);
        self.paper_venues.push(paper.venue);
    }

    /// Approximate heap footprint of the context in bytes: the interned
    /// vocabulary, the embedding matrix, and every per-paper evidence
    /// table. The scale bench divides this by the mention count to track
    /// the memory-per-mention budget.
    pub fn heap_bytes(&self) -> usize {
        self.vocab.heap_bytes()
            + self.embeddings.heap_bytes()
            + self.paper_keywords.heap_bytes()
            + self.paper_years.capacity() * std::mem::size_of::<u16>()
            + self.paper_venues.capacity() * std::mem::size_of::<VenueId>()
            + self.venue_freq.capacity() * std::mem::size_of::<u32>()
            + self.word_ln_freq.capacity() * std::mem::size_of::<f64>()
            + self.venue_aa_weight.capacity() * std::mem::size_of::<f64>()
    }
}

/// `B(v)` with usage years: keyword → ascending years, in flat
/// struct-of-arrays layout — strictly ascending `words`, with each word's
/// years a `offsets[i]..offsets[i+1]` slice of one contiguous `years`
/// buffer. γ₄'s merge join scans the packed `u32` word array (4 bytes per
/// step, no per-keyword heap indirection) and only touches years on a
/// match; the minimum year gap is then a two-pointer scan over the two
/// ascending year slices.
#[derive(Debug, Clone, PartialEq)]
pub struct KeywordYears {
    words: Vec<u32>,
    offsets: Vec<u32>,
    years: Vec<u16>,
}

impl Default for KeywordYears {
    fn default() -> Self {
        KeywordYears {
            words: Vec::new(),
            offsets: vec![0],
            years: Vec::new(),
        }
    }
}

impl KeywordYears {
    /// Build from `(keyword, year)` observations in any order.
    pub fn from_pairs(mut pairs: Vec<(u32, u16)>) -> Self {
        pairs.sort_unstable();
        let mut out = KeywordYears::default();
        for (w, y) in pairs {
            if out.words.last() != Some(&w) {
                out.words.push(w);
                out.offsets.push(out.years.len() as u32);
            }
            out.years.push(y);
            *out.offsets.last_mut().unwrap() = out.years.len() as u32;
        }
        out
    }

    /// Set the years of `word` (sorted on insertion), replacing any previous
    /// entry. Rebuilds the flat buffers — a test/fixture constructor, not a
    /// hot path.
    pub fn insert(&mut self, word: u32, years: Vec<u16>) {
        let mut pairs: Vec<(u32, u16)> = self
            .iter()
            .filter(|&(w, _)| w != word)
            .flat_map(|(w, ys)| ys.iter().map(move |&y| (w, y)).collect::<Vec<_>>())
            .collect();
        pairs.extend(years.into_iter().map(|y| (word, y)));
        *self = Self::from_pairs(pairs);
    }

    /// The ascending years of `word`, if present.
    pub fn years_of(&self, word: u32) -> Option<&[u16]> {
        self.words
            .binary_search(&word)
            .ok()
            .map(|i| self.years_at(i))
    }

    /// The strictly ascending keywords.
    pub fn words(&self) -> &[u32] {
        &self.words
    }

    /// Ascending years of the word at position `i` of [`Self::words`].
    pub fn years_at(&self, i: usize) -> &[u16] {
        &self.years[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Iterate `(keyword, ascending years)` in ascending keyword order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &[u16])> + '_ {
        self.words
            .iter()
            .enumerate()
            .map(|(i, &w)| (w, self.years_at(i)))
    }

    /// Number of distinct keywords.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether no keyword was observed.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Total keyword occurrences (one per usage year recorded).
    pub fn total_usages(&self) -> usize {
        self.years.len()
    }

    /// A copy containing only the words in the ascending list `keep`
    /// (years carried over verbatim), found via
    /// [`iuad_graph::wl::join_ascending`], so an empty `keep` set costs next
    /// to nothing. Used to build join-optimised evidence: when `keep` drops
    /// only words that provably cannot occur in a join partner, γ₄ over two
    /// such copies is bit-identical to the originals.
    pub fn intersect_words(&self, keep: &[u32]) -> KeywordYears {
        let mut out = KeywordYears::default();
        iuad_graph::wl::join_ascending(&self.words, keep, |i| {
            out.words.push(self.words[i]);
            out.years.extend_from_slice(self.years_at(i));
            out.offsets.push(out.years.len() as u32);
        });
        out
    }

    /// Fold `other` in: union of keywords, years merged sorted.
    pub fn merge(&mut self, other: &KeywordYears) {
        let mut out = KeywordYears {
            words: Vec::with_capacity(self.words.len() + other.words.len()),
            offsets: Vec::with_capacity(self.words.len() + other.words.len() + 1),
            years: Vec::with_capacity(self.years.len() + other.years.len()),
        };
        out.offsets.push(0);
        let (mut i, mut j) = (0, 0);
        while i < self.words.len() || j < other.words.len() {
            let wa = self.words.get(i).copied();
            let wb = other.words.get(j).copied();
            let (w, take_a, take_b) = match (wa, wb) {
                (Some(a), Some(b)) if a == b => (a, true, true),
                (Some(a), Some(b)) if a < b => (a, true, false),
                (Some(_), Some(b)) => (b, false, true),
                (Some(a), None) => (a, true, false),
                (None, Some(b)) => (b, false, true),
                (None, None) => unreachable!(),
            };
            out.words.push(w);
            match (take_a, take_b) {
                (true, true) => {
                    // Two ascending runs → one sorted merge.
                    let (ya, yb) = (self.years_at(i), other.years_at(j));
                    let (mut p, mut q) = (0, 0);
                    while p < ya.len() || q < yb.len() {
                        let next_a = ya.get(p).copied();
                        match (next_a, yb.get(q).copied()) {
                            (Some(x), Some(y)) if x <= y => {
                                out.years.push(x);
                                p += 1;
                            }
                            (_, Some(y)) => {
                                out.years.push(y);
                                q += 1;
                            }
                            (Some(x), None) => {
                                out.years.push(x);
                                p += 1;
                            }
                            (None, None) => unreachable!(),
                        }
                    }
                    i += 1;
                    j += 1;
                }
                (true, false) => {
                    out.years.extend_from_slice(self.years_at(i));
                    i += 1;
                }
                (false, true) => {
                    out.years.extend_from_slice(other.years_at(j));
                    j += 1;
                }
                (false, false) => unreachable!(),
            }
            out.offsets.push(out.years.len() as u32);
        }
        *self = out;
    }
}

/// Venue multiset `H(v)` as a venue-sorted `(venue, count)` run-length
/// list; intersections (γ₆) are merge joins and point lookups (γ₅) binary
/// searches.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VenueCounts(Vec<(u32, u32)>);

impl VenueCounts {
    /// Build from one venue observation per paper, in any order.
    pub fn from_venues(mut venues: Vec<u32>) -> Self {
        venues.sort_unstable();
        let mut out: Vec<(u32, u32)> = Vec::new();
        for v in venues {
            match out.last_mut() {
                Some((last, c)) if *last == v => *c += 1,
                _ => out.push((v, 1)),
            }
        }
        VenueCounts(out)
    }

    /// Set the count of `venue`, replacing any previous entry. Primarily a
    /// test/fixture constructor.
    pub fn insert(&mut self, venue: u32, count: u32) {
        match self.0.binary_search_by_key(&venue, |e| e.0) {
            Ok(i) => self.0[i].1 = count,
            Err(i) => self.0.insert(i, (venue, count)),
        }
    }

    /// Occurrences of `venue` (0 when absent).
    pub fn count_of(&self, venue: u32) -> u32 {
        self.0
            .binary_search_by_key(&venue, |e| e.0)
            .map(|i| self.0[i].1)
            .unwrap_or(0)
    }

    /// Venue-sorted `(venue, count)` entries.
    pub fn entries(&self) -> &[(u32, u32)] {
        &self.0
    }

    /// Number of distinct venues.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether no venue was observed.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Total papers counted across venues.
    pub fn total(&self) -> u32 {
        self.0.iter().map(|&(_, c)| c).sum()
    }

    /// Fold `other` in, summing counts per venue.
    pub fn merge(&mut self, other: &VenueCounts) {
        let mut merged: Vec<(u32, u32)> = Vec::with_capacity(self.0.len() + other.0.len());
        let (a, b) = (&self.0, &other.0);
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Less => {
                    merged.push(a[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    merged.push(b[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    merged.push((a[i].0, a[i].1 + b[j].1));
                    i += 1;
                    j += 1;
                }
            }
        }
        merged.extend_from_slice(&a[i..]);
        merged.extend_from_slice(&b[j..]);
        self.0 = merged;
    }

    /// A copy containing only the venues in the ascending list `keep`
    /// (counts carried over verbatim), found via
    /// [`iuad_graph::wl::join_ascending`] — the γ₅/γ₆ analogue of
    /// [`KeywordYears::intersect_words`].
    pub fn intersect_venues(&self, keep: &[u32]) -> VenueCounts {
        let mut out = Vec::new();
        let venues: Vec<u32> = self.0.iter().map(|&(v, _)| v).collect();
        iuad_graph::wl::join_ascending(&venues, keep, |i| out.push(self.0[i]));
        VenueCounts(out)
    }

    /// The most frequent venue (ties → smallest id), if any.
    pub fn representative(&self) -> Option<VenueId> {
        // Entries are id-ascending, so keeping only strictly greater counts
        // leaves the smallest id among tied maxima.
        let mut best: Option<(u32, u32)> = None;
        for &(v, c) in &self.0 {
            if best.is_none_or(|(_, bc)| c > bc) {
                best = Some((v, c));
            }
        }
        best.map(|(v, _)| VenueId(v))
    }
}

/// Everything the similarity functions need to know about one vertex.
///
/// `PartialEq` compares every field exactly (floats by `==`) — the
/// equality the refresh-vs-rebuild bit-identity contract of
/// [`crate::SimilarityEngine::refresh`] is checked against.
#[derive(Debug, Clone, PartialEq)]
pub struct VertexProfile {
    /// The vertex's name.
    pub name: NameId,
    /// Papers (deduplicated, ascending).
    pub papers: Vec<PaperId>,
    /// Keyword → ascending usage years (`B(v)` with years for γ₄).
    pub keyword_years: KeywordYears,
    /// Venue multiset `H(v)`.
    pub venue_counts: VenueCounts,
    /// The most frequent venue `h^a` (ties → smallest id), if any papers.
    pub representative_venue: Option<VenueId>,
    /// Centroid of keyword embedding vectors (`W(v)` of Equation 6).
    pub keyword_centroid: Vec<f32>,
}

impl VertexProfile {
    /// Build a profile from the mentions of one vertex.
    pub fn from_mentions(name: NameId, mentions: &[Mention], ctx: &ProfileContext) -> Self {
        Self::from_papers_of(name, mentions.iter().map(|m| m.paper), ctx)
    }

    /// Build a profile from the subset of `mentions` selected by `indices`
    /// — the allocation-light path for synthetic vertex splitting, where
    /// only an index permutation is shuffled, never the mention list.
    pub fn from_mention_indices(
        name: NameId,
        mentions: &[Mention],
        indices: &[usize],
        ctx: &ProfileContext,
    ) -> Self {
        Self::from_papers_of(name, indices.iter().map(|&i| mentions[i].paper), ctx)
    }

    fn from_papers_of(
        name: NameId,
        paper_ids: impl Iterator<Item = PaperId>,
        ctx: &ProfileContext,
    ) -> Self {
        let mut papers: Vec<PaperId> = paper_ids.collect();
        papers.sort_unstable();
        papers.dedup();

        let mut keyword_year_pairs: Vec<(u32, u16)> = Vec::new();
        let mut venues: Vec<u32> = Vec::with_capacity(papers.len());
        let mut all_keywords: Vec<u32> = Vec::new();
        for &p in &papers {
            let year = ctx.paper_years[p.index()];
            for &w in &ctx.paper_keywords[p.index()] {
                keyword_year_pairs.push((w, year));
                all_keywords.push(w);
            }
            venues.push(ctx.paper_venues[p.index()].0);
        }
        let keyword_years = KeywordYears::from_pairs(keyword_year_pairs);
        let venue_counts = VenueCounts::from_venues(venues);
        let representative_venue = venue_counts.representative();
        let keyword_centroid = centroid(&ctx.embeddings, &all_keywords);

        VertexProfile {
            name,
            papers,
            keyword_years,
            venue_counts,
            representative_venue,
            keyword_centroid,
        }
    }

    /// Profile of a *new* paper that is not part of the context's corpus
    /// (the incremental setting, §V-E). Title keywords are looked up in the
    /// existing vocabulary; unseen words carry no signal and are skipped.
    pub fn from_new_paper(name: NameId, paper: &Paper, ctx: &ProfileContext) -> Self {
        let tokens = iuad_text::tokenize_filtered(&paper.title);
        let keywords: Vec<u32> = ctx
            .vocab
            .encode(tokens.iter().map(String::as_str))
            .into_iter()
            .filter(|&w| !ctx.vocab.is_frequent(w, ctx.frequent_word_fraction))
            .collect();
        let keyword_years =
            KeywordYears::from_pairs(keywords.iter().map(|&w| (w, paper.year)).collect());
        let venue_counts = VenueCounts::from_venues(vec![paper.venue.0]);
        VertexProfile {
            name,
            papers: vec![paper.id],
            keyword_years,
            venue_counts,
            representative_venue: Some(paper.venue),
            keyword_centroid: centroid(&ctx.embeddings, &keywords),
        }
    }

    /// Number of papers (the productivity balance τ uses the smaller of the
    /// two vertices' counts).
    pub fn num_papers(&self) -> usize {
        self.papers.len()
    }

    /// Total keyword occurrences (weights the centroid when merging).
    fn keyword_mass(&self) -> usize {
        self.keyword_years.total_usages()
    }

    /// Fold another profile into this one (used when a new mention is
    /// absorbed into an existing vertex, §V-E).
    pub fn merge(&mut self, other: &VertexProfile) {
        let my_mass = self.keyword_mass() as f32;
        let their_mass = other.keyword_mass() as f32;
        self.papers.extend_from_slice(&other.papers);
        self.papers.sort_unstable();
        self.papers.dedup();
        self.keyword_years.merge(&other.keyword_years);
        self.venue_counts.merge(&other.venue_counts);
        self.representative_venue = self.venue_counts.representative();
        // Centroid: mass-weighted mean of the two centroids.
        let total = my_mass + their_mass;
        if total > 0.0 {
            for (mine, theirs) in self
                .keyword_centroid
                .iter_mut()
                .zip(&other.keyword_centroid)
            {
                *mine = (*mine * my_mass + *theirs * their_mass) / total;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iuad_corpus::CorpusConfig;

    fn small_corpus() -> Corpus {
        Corpus::generate(&CorpusConfig {
            num_authors: 120,
            num_papers: 400,
            seed: 17,
            ..Default::default()
        })
    }

    #[test]
    fn context_covers_all_papers() {
        let c = small_corpus();
        let ctx = ProfileContext::build(&c, 16, 1);
        assert_eq!(ctx.paper_keywords.len(), c.papers.len());
        assert_eq!(ctx.paper_years.len(), c.papers.len());
        assert_eq!(ctx.venue_freq.iter().sum::<u32>() as usize, c.papers.len());
    }

    #[test]
    fn frequent_words_are_dropped_from_keywords() {
        let c = small_corpus();
        let ctx = ProfileContext::build(&c, 16, 1);
        for doc in ctx.paper_keywords.iter() {
            for &w in doc {
                assert!(!ctx.vocab.is_frequent(w, ctx.frequent_word_fraction));
            }
        }
    }

    #[test]
    fn profile_aggregates_mentions() {
        let c = small_corpus();
        let ctx = ProfileContext::build(&c, 16, 1);
        // Take some name's first two mentions.
        let name = c.papers[0].authors[0];
        let mentions = c.mentions_of_name(name);
        let prof = VertexProfile::from_mentions(name, &mentions, &ctx);
        assert_eq!(prof.num_papers(), {
            let mut ps: Vec<PaperId> = mentions.iter().map(|m| m.paper).collect();
            ps.sort_unstable();
            ps.dedup();
            ps.len()
        });
        assert!(prof.representative_venue.is_some());
        assert_eq!(prof.venue_counts.total() as usize, prof.num_papers());
    }

    #[test]
    fn empty_profile_is_well_formed() {
        let c = small_corpus();
        let ctx = ProfileContext::build(&c, 16, 1);
        let prof = VertexProfile::from_mentions(NameId(0), &[], &ctx);
        assert_eq!(prof.num_papers(), 0);
        assert!(prof.representative_venue.is_none());
        assert!(prof.keyword_centroid.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn representative_venue_is_modal() {
        let c = small_corpus();
        let ctx = ProfileContext::build(&c, 16, 1);
        let name = c.papers[0].authors[0];
        let mentions = c.mentions_of_name(name);
        let prof = VertexProfile::from_mentions(name, &mentions, &ctx);
        if let Some(rep) = prof.representative_venue {
            let max = prof
                .venue_counts
                .entries()
                .iter()
                .map(|&(_, c)| c)
                .max()
                .unwrap();
            assert_eq!(prof.venue_counts.count_of(rep.0), max);
        }
    }

    #[test]
    fn keyword_years_are_sorted_and_mergeable() {
        let mut a = KeywordYears::from_pairs(vec![(5, 2010), (1, 2001), (5, 2003)]);
        assert_eq!(a.years_of(5), Some(&[2003, 2010][..]));
        assert_eq!(a.years_of(1), Some(&[2001][..]));
        assert_eq!(a.years_of(2), None);
        assert_eq!(a.total_usages(), 3);

        let b = KeywordYears::from_pairs(vec![(5, 2005), (9, 1999)]);
        a.merge(&b);
        assert_eq!(a.years_of(5), Some(&[2003, 2005, 2010][..]));
        assert_eq!(a.years_of(9), Some(&[1999][..]));
        assert!(a.words().windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn venue_counts_merge_and_representative() {
        let mut a = VenueCounts::from_venues(vec![3, 1, 3]);
        assert_eq!(a.count_of(3), 2);
        assert_eq!(a.total(), 3);
        let b = VenueCounts::from_venues(vec![1, 1, 7]);
        a.merge(&b);
        assert_eq!(a.count_of(1), 3);
        assert_eq!(a.count_of(7), 1);
        assert_eq!(a.total(), 6);
        assert_eq!(a.representative(), Some(VenueId(1)));
        // Tie → smallest id.
        let t = VenueCounts::from_venues(vec![4, 2]);
        assert_eq!(t.representative(), Some(VenueId(2)));
    }

    #[test]
    fn split_by_indices_matches_direct_construction() {
        let c = small_corpus();
        let ctx = ProfileContext::build(&c, 16, 1);
        let name = c.papers[0].authors[0];
        let mentions = c.mentions_of_name(name);
        let idx: Vec<usize> = (0..mentions.len()).step_by(2).collect();
        let via_indices = VertexProfile::from_mention_indices(name, &mentions, &idx, &ctx);
        let subset: Vec<Mention> = idx.iter().map(|&i| mentions[i]).collect();
        let direct = VertexProfile::from_mentions(name, &subset, &ctx);
        assert_eq!(via_indices.papers, direct.papers);
        assert_eq!(via_indices.keyword_years, direct.keyword_years);
        assert_eq!(via_indices.venue_counts, direct.venue_counts);
        assert_eq!(via_indices.keyword_centroid, direct.keyword_centroid);
    }
}
