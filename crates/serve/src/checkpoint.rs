//! WAL compaction: checkpoint files that fold the log into a base record
//! stream, so the write-ahead log stays bounded and warm restart cost is
//! proportional to the tail since the last checkpoint, not daemon lifetime.
//!
//! # File format
//!
//! A checkpoint reuses the WAL's `LEN<TAB>JSON\n` framing. The first line
//! is a [`CheckpointMeta`] header — sequence number, epoch, paper counts,
//! the canonical partition fingerprint of the state the records rebuild,
//! and the exact record count. Every following line is one
//! [`WalRecord`] of the folded stream (papers with recorded decisions and
//! epoch markers, in original log order). Replaying the records over a
//! fresh fit of the base corpus reconstructs the checkpointed state
//! bit-identically; the header's fingerprint and counts let recovery
//! *verify* that claim instead of trusting the file.
//!
//! # Atomicity and durability
//!
//! Checkpoints are written to `<final>.tmp`, fsynced, atomically renamed
//! into place, and the parent directory is fsynced — a crash leaves either
//! the complete new checkpoint or none of it (a stray `.tmp` is ignored by
//! discovery and swept on the next write). Unlike the WAL's tolerant tail
//! scan, reading a checkpoint is **strict**: any framing damage, parse
//! failure, or record-count mismatch rejects the whole file, because a
//! checkpoint either renamed completely or is garbage. The header's
//! `records` count also catches truncation that happens to end on a record
//! boundary, which length framing alone cannot see.
//!
//! Checkpoint files live next to the WAL as `<wal-name>.ckpt.<seq>`, with
//! monotonically increasing sequence numbers; recovery tries newest first
//! (see [`crate::ServeState::recover`]).

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::fault::{CrashPoint, FaultInjector};
use crate::wal::{frame, fsync_parent_dir, unframe, WalRecord};

/// Checkpoint header: identity and self-description of the folded stream.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CheckpointMeta {
    /// Format version (currently 1).
    pub version: u32,
    /// Monotonic checkpoint sequence number (file name suffix).
    pub seq: u64,
    /// Last published epoch at checkpoint time.
    pub epoch: u64,
    /// Papers ingested since the fit (not counting the base corpus).
    pub papers: u64,
    /// Next streamed paper id (base corpus size + `papers`).
    pub next_paper: u32,
    /// Canonical partition fingerprint of the checkpointed state, as 16
    /// hex digits (recovery re-derives and compares).
    pub fingerprint: String,
    /// Exact number of [`WalRecord`] lines following the header.
    pub records: u64,
}

/// A checkpoint read back from disk and strictly validated at the framing
/// level (state-level validation happens in recovery, by replaying).
#[derive(Debug)]
pub struct Checkpoint {
    /// The header.
    pub meta: CheckpointMeta,
    /// The folded record stream.
    pub records: Vec<WalRecord>,
}

/// Path of checkpoint `seq` for the log at `wal_path`.
pub fn checkpoint_path(wal_path: &Path, seq: u64) -> PathBuf {
    let name = wal_path
        .file_name()
        .map_or_else(|| "wal".to_owned(), |n| n.to_string_lossy().into_owned());
    wal_path.with_file_name(format!("{name}.ckpt.{seq:06}"))
}

/// Discover checkpoints next to `wal_path`, sorted by ascending sequence
/// number. Stray `.tmp` files (a crash mid-write) are ignored.
pub fn list_checkpoints(wal_path: &Path) -> std::io::Result<Vec<(u64, PathBuf)>> {
    let dir = match wal_path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => parent.to_path_buf(),
        _ => PathBuf::from("."),
    };
    let prefix = format!(
        "{}.ckpt.",
        wal_path
            .file_name()
            .map_or_else(|| "wal".to_owned(), |n| n.to_string_lossy().into_owned())
    );
    let mut found = Vec::new();
    for entry in std::fs::read_dir(&dir)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        let Some(suffix) = name.strip_prefix(&prefix) else {
            continue;
        };
        let Ok(seq) = suffix.parse::<u64>() else {
            continue; // `.tmp` or foreign suffix
        };
        found.push((seq, entry.path()));
    }
    found.sort_unstable_by_key(|&(seq, _)| seq);
    Ok(found)
}

/// Write checkpoint `meta` + `records` for the log at `wal_path`, via
/// temp-file + fsync + atomic rename + parent-directory fsync. Returns the
/// final path. Honours [`CrashPoint::MidCheckpointWrite`] (a seeded prefix
/// of the file reaches disk under the `.tmp` name, which discovery
/// ignores) and [`CrashPoint::AfterCheckpointRename`] (the checkpoint is
/// durable but the WAL has not yet been truncated).
pub fn write_checkpoint(
    wal_path: &Path,
    meta: &CheckpointMeta,
    records: &[WalRecord],
    faults: Option<&Arc<FaultInjector>>,
) -> std::io::Result<PathBuf> {
    let final_path = checkpoint_path(wal_path, meta.seq);
    let tmp_path = final_path.with_extension(format!("{:06}.tmp", meta.seq));
    let mut content = frame(meta)?;
    for record in records {
        content.extend_from_slice(&frame(record)?);
    }
    if let Some(faults) = faults {
        if faults.hit(CrashPoint::MidCheckpointWrite) {
            let cut = faults.torn_prefix(content.len().max(2));
            let cut = cut.min(content.len());
            let mut file = File::create(&tmp_path)?;
            file.write_all(&content[..cut])?;
            file.sync_all()?;
            FaultInjector::crash(CrashPoint::MidCheckpointWrite);
        }
    }
    {
        let mut writer = BufWriter::new(File::create(&tmp_path)?);
        writer.write_all(&content)?;
        writer.flush()?;
        writer.get_ref().sync_all()?;
    }
    std::fs::rename(&tmp_path, &final_path)?;
    fsync_parent_dir(&final_path)?;
    if let Some(faults) = faults {
        faults.check(CrashPoint::AfterCheckpointRename);
    }
    Ok(final_path)
}

/// Strictly read the checkpoint at `path`. Any damage — torn frame,
/// non-UTF-8 bytes, JSON that fails to parse, a record count that
/// disagrees with the header — rejects the file with a description, so
/// recovery can fall back to an older checkpoint instead of trusting a
/// partial fold.
pub fn read_checkpoint(path: &Path) -> Result<Checkpoint, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let mut lines = bytes.split_inclusive(|&b| b == b'\n');
    let header: CheckpointMeta = unframe(lines.next().ok_or("empty checkpoint file")?)?;
    if header.version != 1 {
        return Err(format!("unsupported checkpoint version {}", header.version));
    }
    let records = lines.map(unframe).collect::<Result<Vec<WalRecord>, _>>()?;
    if records.len() as u64 != header.records {
        return Err(format!(
            "checkpoint truncated: header declares {} records, file has {}",
            header.records,
            records.len()
        ));
    }
    Ok(Checkpoint {
        meta: header,
        records,
    })
}

/// Delete all but the newest `keep` checkpoints for `wal_path`, plus any
/// stray `.tmp` leftovers. Returns how many files were removed. Called
/// after a new checkpoint is durable, so the retained set always includes
/// at least one older fallback.
pub fn prune_checkpoints(wal_path: &Path, keep: usize) -> std::io::Result<usize> {
    let all = list_checkpoints(wal_path)?;
    let mut removed = 0;
    if all.len() > keep {
        for (_, path) in &all[..all.len() - keep] {
            std::fs::remove_file(path)?;
            removed += 1;
        }
    }
    // Sweep temp files from crashed writes (discovery ignores them, but
    // they should not accumulate).
    if let Some(dir) = wal_path.parent().filter(|p| !p.as_os_str().is_empty()) {
        let wal_name = wal_path
            .file_name()
            .map_or_else(|| "wal".to_owned(), |n| n.to_string_lossy().into_owned());
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.starts_with(&format!("{wal_name}.ckpt.")) && name.ends_with(".tmp") {
                std::fs::remove_file(entry.path())?;
                removed += 1;
            }
        }
    }
    Ok(removed)
}

/// Remove the log at `wal_path` and every checkpoint sidecar next to it —
/// scratch hygiene shared by the crash and replica matrix drivers (each
/// case scrubs before running and after passing).
pub(crate) fn scrub_wal_and_checkpoints(wal_path: &Path) {
    std::fs::remove_file(wal_path).ok();
    for (_, path) in list_checkpoints(wal_path).unwrap_or_default() {
        std::fs::remove_file(path).ok();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("iuad-serve-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        // Clean any leftovers from a previous run, including checkpoints.
        for (_, p) in list_checkpoints(&path).unwrap_or_default() {
            std::fs::remove_file(p).ok();
        }
        path
    }

    fn meta(seq: u64, records: u64) -> CheckpointMeta {
        CheckpointMeta {
            version: 1,
            seq,
            epoch: 2,
            papers: 5,
            next_paper: 425,
            fingerprint: format!("{:016x}", 0xdead_beef_u64),
            records,
        }
    }

    #[test]
    fn roundtrip_and_discovery_order() {
        let wal = scratch("rt.wal");
        let records = vec![WalRecord::epoch(1), WalRecord::epoch(2)];
        write_checkpoint(&wal, &meta(3, 2), &records, None).unwrap();
        write_checkpoint(&wal, &meta(12, 2), &records, None).unwrap();
        let listed = list_checkpoints(&wal).unwrap();
        assert_eq!(
            listed.iter().map(|&(s, _)| s).collect::<Vec<_>>(),
            vec![3, 12],
            "ascending seq order"
        );
        let back = read_checkpoint(&listed[1].1).unwrap();
        assert_eq!(back.meta.seq, 12);
        assert_eq!(back.meta.next_paper, 425);
        assert_eq!(back.records.len(), 2);
        assert_eq!(back.records[1].epoch, Some(2));
        prune_checkpoints(&wal, 0).unwrap();
    }

    #[test]
    fn strict_reader_rejects_boundary_truncation() {
        let wal = scratch("strict.wal");
        let records = vec![WalRecord::epoch(1), WalRecord::epoch(2)];
        let path = write_checkpoint(&wal, &meta(1, 2), &records, None).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        // Drop the last record *exactly at its frame boundary*: length
        // framing alone cannot see this, the header record count must.
        let boundary = bytes[..bytes.len() - 1]
            .iter()
            .rposition(|&b| b == b'\n')
            .unwrap();
        std::fs::write(&path, &bytes[..=boundary]).unwrap();
        let err = read_checkpoint(&path).unwrap_err();
        assert!(err.contains("truncated"), "{err}");
        // A mid-frame tear is also rejected (not tolerated like the WAL).
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        assert!(read_checkpoint(&path).is_err());
        prune_checkpoints(&wal, 0).unwrap();
    }

    #[test]
    fn prune_keeps_newest_and_sweeps_tmp() {
        let wal = scratch("prune.wal");
        for seq in 1..=4 {
            write_checkpoint(&wal, &meta(seq, 0), &[], None).unwrap();
        }
        let tmp = checkpoint_path(&wal, 9).with_extension("000009.tmp");
        std::fs::write(&tmp, b"torn").unwrap();
        let removed = prune_checkpoints(&wal, 2).unwrap();
        assert_eq!(removed, 3, "two old checkpoints + one tmp");
        let left = list_checkpoints(&wal).unwrap();
        assert_eq!(left.iter().map(|&(s, _)| s).collect::<Vec<_>>(), vec![3, 4]);
        assert!(!tmp.exists());
        prune_checkpoints(&wal, 0).unwrap();
    }
}
