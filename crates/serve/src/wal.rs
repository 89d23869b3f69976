//! Write-ahead persistence: an append-only log of accepted papers, their
//! assignment decisions, and epoch-publish markers.
//!
//! Framing is length-prefixed JSON lines: `LEN<TAB>JSON\n`, where `LEN` is
//! the byte length of the JSON payload. The prefix and the newline make
//! torn tails detectable — a record cut anywhere short of its newline (the
//! process died mid-write) is dropped along with everything after it,
//! instead of being half-parsed. `frame` and `unframe` are the only
//! encoder and decoder of the format; checkpoints and the replication
//! stream use them too.
//!
//! Each record shape is defined once, by [`WalRecord`]: its `Serialize`
//! and `Deserialize` impls are the only code that writes or reads a record
//! tag, and every frame is decoded into the enum once, as it is read. A
//! frame that fails its length, newline or JSON check ends the intact
//! prefix; a whole frame that is not a record is refused, because no crash
//! leaves one behind.
//!
//! Replay applies the *recorded* decisions rather than re-deciding, and
//! re-publishes at the recorded epoch markers, so a warm restart walks the
//! exact operation sequence of the live daemon and lands on a bit-identical
//! state (see [`crate::ServeState::recover`]).
//!
//! # Durability scope, exactly
//!
//! Three failure classes, three guarantees:
//!
//! * **Process kill** (panic, SIGKILL): every acknowledged append survives
//!   unconditionally — records are flushed to the OS before the caller
//!   sees the reply, so only the record being written at the instant of
//!   death can tear, and the tear is detected and dropped on replay.
//! * **OS crash / power loss, record data**: surviving this needs
//!   [`Wal::set_fsync`] (`--fsync true`), which `sync_data`s the file per
//!   append at the cost of an fsync of ingest latency.
//! * **OS crash / power loss, *metadata***: independently of the per-record
//!   flag, the log's structural operations — file creation, torn-tail
//!   truncation on reopen, and the post-checkpoint truncation — are
//!   followed by a file `sync_all` and an fsync of the **parent
//!   directory**. Without the directory fsync a freshly created log (or a
//!   checkpoint rename, see [`crate::checkpoint`]) can vanish from the
//!   directory across a power cut even though the file's own blocks were
//!   synced, and a truncation can resurface dropped garbage. These events
//!   are rare (startup, restart, checkpoint), so the fsyncs are
//!   unconditional.

use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::str;
use std::sync::Arc;

use iuad_core::Decision;
use iuad_corpus::{Paper, PaperId};
use iuad_graph::VertexId;
use serde::{DeError, Deserialize, Serialize, Value};

use crate::{get, object, response_field};

/// One log record: an accepted paper, with the daemon-assigned id baked
/// into `paper` and one decision per author slot, or an epoch-publish
/// marker.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// An accepted paper and how each of its author slots was decided.
    Paper {
        /// The accepted paper (id already rewritten by the daemon).
        paper: Paper,
        /// Per-slot decisions, parallel to `paper.authors`.
        decisions: Vec<Decision>,
    },
    /// An epoch-publish marker.
    Epoch(u64),
}

impl WalRecord {
    /// Byte length of the widest frame a paper record for `paper` can
    /// take once its id is assigned and its slots decided: the record
    /// framed with the largest id and, in every slot, the widest decision
    /// (`Existing`, the largest vertex, and a score whose shortest
    /// round-trip form is the longest an `f64` has). The daemon refuses an
    /// ingest whose bound passes [`crate::MAX_LINE_BYTES`], the frame cap
    /// followers read with.
    pub fn widest_frame_len(paper: &Paper) -> usize {
        let widest = Decision::Existing {
            vertex: VertexId(u32::MAX),
            score: -f64::MIN_POSITIVE,
        };
        let record = WalRecord::Paper {
            decisions: vec![widest; paper.authors.len()],
            paper: Paper {
                id: PaperId(u32::MAX),
                ..paper.clone()
            },
        };
        frame(&record).map_or(usize::MAX, |bytes| bytes.len())
    }
}

/// The object every record-shaped frame encodes to: the fields `t`,
/// `epoch`, `paper` and `decisions`, in that order, `null` where the shape
/// has no value. Ship-stream heartbeats share it.
pub(crate) fn record_value(t: &str, epoch: Value, paper: Value, decisions: Value) -> Value {
    object([
        ("t", Value::Str(t.to_owned())),
        ("epoch", epoch),
        ("paper", paper),
        ("decisions", decisions),
    ])
}

impl Serialize for WalRecord {
    fn to_value(&self) -> Value {
        match self {
            WalRecord::Paper { paper, decisions } => record_value(
                "paper",
                Value::Null,
                paper.to_value(),
                Value::Array(decisions.iter().map(decision_value).collect()),
            ),
            WalRecord::Epoch(epoch) => {
                record_value("epoch", epoch.to_value(), Value::Null, Value::Null)
            }
        }
    }
}

impl Deserialize for WalRecord {
    fn from_value(v: &Value) -> Result<WalRecord, DeError> {
        match get::<String>(v, "t")?.as_str() {
            "paper" => {
                let Some(Value::Array(decisions)) = response_field(v, "decisions") else {
                    return Err(DeError::custom("paper record without decisions"));
                };
                Ok(WalRecord::Paper {
                    paper: get(v, "paper")?,
                    decisions: decisions
                        .iter()
                        .map(decision_from_value)
                        .collect::<Result<_, _>>()?,
                })
            }
            "epoch" => Ok(WalRecord::Epoch(get(v, "epoch")?)),
            other => Err(DeError::custom(format!("unknown WAL record tag `{other}`"))),
        }
    }
}

/// One logged decision: `kind` is `"existing"` (with `vertex` and the
/// posterior log-odds in `score`) or `"new"` (with `vertex` null and the
/// best insufficient score, if there was a candidate).
fn decision_value(decision: &Decision) -> Value {
    let (kind, vertex, score) = match *decision {
        Decision::Existing { vertex, score } => ("existing", Some(vertex.0), Some(score)),
        Decision::NewAuthor { best_score } => ("new", None, best_score),
    };
    object([
        ("kind", Value::Str(kind.to_owned())),
        ("vertex", vertex.to_value()),
        ("score", score.to_value()),
    ])
}

fn decision_from_value(v: &Value) -> Result<Decision, DeError> {
    match get::<String>(v, "kind")?.as_str() {
        "existing" => Ok(Decision::Existing {
            vertex: VertexId(get(v, "vertex")?),
            score: get(v, "score")?,
        }),
        "new" => Ok(Decision::NewAuthor {
            best_score: get(v, "score")?,
        }),
        other => Err(DeError::custom(format!("unknown decision kind `{other}`"))),
    }
}

/// Encode one value as a frame: `LEN<TAB>JSON\n`. The WAL, checkpoints
/// and the replication stream share it, so a torn ship is detected exactly
/// like a torn log tail.
pub(crate) fn frame<T: Serialize>(value: &T) -> std::io::Result<Vec<u8>> {
    let json = serde_json::to_string(value)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    Ok(format!("{}\t{}\n", json.len(), json).into_bytes())
}

/// Decode one frame line, strictly: the line must end in its `\n`, be
/// UTF-8, carry a `LEN<TAB>` prefix whose `LEN` equals the payload's byte
/// length, and hold JSON that parses as `T`. Anything else — including a
/// frame complete but for its newline — is an error describing the defect;
/// each caller decides what a bad frame means for its stream.
pub(crate) fn unframe<T: Deserialize>(line: &[u8]) -> Result<T, String> {
    let line = line
        .strip_suffix(b"\n")
        .ok_or("frame missing trailing newline")?;
    let line = str::from_utf8(line).map_err(|_| "frame is not UTF-8".to_owned())?;
    let (len_str, payload) = line.split_once('\t').ok_or("frame missing length prefix")?;
    let declared = len_str
        .parse::<usize>()
        .map_err(|_| format!("bad length prefix `{len_str}`"))?;
    if payload.len() != declared {
        return Err(format!(
            "frame declares {declared} bytes, carries {}",
            payload.len()
        ));
    }
    serde_json::from_str(payload).map_err(|e| format!("frame JSON: {e}"))
}

/// An open write-ahead log. Every append is flushed to the OS before
/// returning, so an acknowledged ingest survives a process kill (the
/// durability unit is the record, not the batch). Surviving an *OS*
/// crash or power loss additionally needs per-record fsync — see
/// [`Wal::set_fsync`]; without it the durability claim is scoped to
/// process death only.
#[derive(Debug)]
pub struct Wal {
    writer: BufWriter<File>,
    path: PathBuf,
    fsync: bool,
    faults: Option<Arc<crate::fault::FaultInjector>>,
}

/// Fsync the directory containing `path`, making a creation, rename, or
/// truncation of `path` itself durable across an OS crash (syncing the
/// file alone persists its blocks, not the directory entry pointing at
/// them). No-op for a bare filename with no parent component.
pub(crate) fn fsync_parent_dir(path: &Path) -> std::io::Result<()> {
    match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => File::open(parent)?.sync_all(),
        _ => Ok(()),
    }
}

impl Wal {
    /// Create (truncate) a log at `path`. The parent directory is fsynced
    /// so the new log's directory entry survives an OS crash.
    pub fn create(path: &Path) -> std::io::Result<Wal> {
        let file = File::create(path)?;
        fsync_parent_dir(path)?;
        Ok(Wal {
            writer: BufWriter::new(file),
            path: path.to_path_buf(),
            fsync: false,
            faults: None,
        })
    }

    /// Open an existing log for appending (warm restart continues the
    /// same file after replay). A torn tail left by a crash is truncated
    /// away first: appending after the garbage would make the next replay
    /// stop at the tear and silently drop every record written after it.
    /// The truncation is made durable (file `sync_all` + parent-directory
    /// fsync) before any new record can land after it. A whole frame that
    /// is not a [`WalRecord`] is refused as [`read_wal`] refuses it, and
    /// nothing is truncated.
    pub fn append_to(path: &Path) -> std::io::Result<Wal> {
        let (_, intact) = scan_wal(path)?;
        let file = File::options().write(true).open(path)?;
        file.set_len(intact)?;
        file.sync_all()?;
        drop(file);
        fsync_parent_dir(path)?;
        Ok(Wal {
            writer: BufWriter::new(File::options().append(true).open(path)?),
            path: path.to_path_buf(),
            fsync: false,
            faults: None,
        })
    }

    /// When enabled, every append also `sync_data`s the file, extending
    /// record durability from process kill to OS crash / power loss — at
    /// the cost of an fsync of latency on every acknowledged ingest.
    pub fn set_fsync(&mut self, enabled: bool) {
        self.fsync = enabled;
    }

    /// Attach a fault injector (crash-matrix runs); `None` disarms.
    pub fn set_faults(&mut self, faults: Option<Arc<crate::fault::FaultInjector>>) {
        self.faults = faults;
    }

    /// The log's file path (checkpointing folds the log by reading it
    /// back through this).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append one record and flush (and fsync, if [`Wal::set_fsync`]).
    pub fn append(&mut self, record: &WalRecord) -> std::io::Result<()> {
        let framed = frame(record)?;
        if let Some(faults) = &self.faults {
            if faults.hit(crate::fault::CrashPoint::MidRecordWrite) {
                // Die mid-write: a seeded prefix of the framed bytes
                // reaches the OS, the rest never will — the torn tail the
                // length prefix exists to detect.
                let cut = faults.torn_prefix(framed.len());
                self.writer.write_all(&framed[..cut])?;
                self.writer.flush()?;
                crate::fault::FaultInjector::crash(crate::fault::CrashPoint::MidRecordWrite);
            }
        }
        self.writer.write_all(&framed)?;
        self.writer.flush()?;
        if self.fsync {
            self.writer.get_ref().sync_data()?;
        }
        if let Some(faults) = &self.faults {
            faults.check(crate::fault::CrashPoint::AfterWalAppend);
        }
        Ok(())
    }

    /// Drop every record — called by [`crate::ServeState::checkpoint`]
    /// *after* the checkpoint that folded them is durably renamed into
    /// place. The truncation itself is made durable (file `sync_all` +
    /// parent-directory fsync) before returning, so a later crash cannot
    /// resurface the folded records and replay them twice.
    pub(crate) fn truncate_after_checkpoint(&mut self) -> std::io::Result<()> {
        self.writer.flush()?;
        let file = self.writer.get_mut();
        file.set_len(0)?;
        // A create-mode handle tracks a cursor; without the rewind the
        // next append would leave a sparse hole where the old bytes were.
        file.seek(SeekFrom::Start(0))?;
        file.sync_all()?;
        fsync_parent_dir(&self.path)
    }
}

/// Read every intact record of a log. Tolerant of a torn tail: the first
/// line that is not a whole frame (see the module docs) ends the replay —
/// everything before it is returned.
///
/// # Errors
/// [`std::io::ErrorKind::InvalidData`] when a whole frame is not a
/// [`WalRecord`], besides any I/O error.
pub fn read_wal(path: &Path) -> std::io::Result<Vec<WalRecord>> {
    Ok(scan_wal(path)?.0)
}

/// Walk the log, returning the intact records and the byte length of the
/// intact prefix (the offset a torn tail must be truncated to before the
/// file is reopened for append).
fn scan_wal(path: &Path) -> std::io::Result<(Vec<WalRecord>, u64)> {
    let mut reader = BufReader::new(File::open(path)?);
    let mut records = Vec::new();
    let mut intact = 0u64;
    let mut buf = Vec::new();
    loop {
        buf.clear();
        let n = reader.read_until(b'\n', &mut buf)?;
        if n == 0 {
            break;
        }
        // A tear can land anywhere, even on the newline itself; the
        // intact prefix ends at the first line that is not a whole frame.
        let Ok(value) = unframe::<Value>(&buf) else {
            break;
        };
        // A whole frame that is not a record is damage no crash leaves
        // behind: refuse the log rather than truncate acknowledged records.
        let record = WalRecord::from_value(&value).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("WAL record at byte {intact}: {e}"),
            )
        })?;
        records.push(record);
        intact += n as u64;
    }
    Ok((records, intact))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{read_checkpoint, CheckpointMeta};
    use crate::replica::{ShipFrame, SyncFrame};
    use iuad_corpus::{NameId, VenueId};
    use proptest::prelude::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("iuad-serve-wal-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn sample_paper(id: u32) -> Paper {
        Paper {
            id: PaperId(id),
            authors: vec![NameId(3), NameId(7)],
            title: "stable collaboration \"networks\"".to_owned(),
            venue: VenueId(2),
            year: 2021,
        }
    }

    /// No decision a slot can carry frames wider than the placeholder
    /// `widest_frame_len` measures with, so the daemon's size check before
    /// the WAL append bounds the frame it ships.
    #[test]
    fn widest_frame_len_bounds_every_decided_record() {
        let paper = sample_paper(u32::MAX);
        let bound = WalRecord::widest_frame_len(&paper);
        let mut bits = 0x9e37_79b9_7f4a_7c15_u64;
        for _ in 0..20_000 {
            bits = bits.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let score = f64::from_bits(bits);
            if !score.is_finite() {
                continue;
            }
            let existing = Decision::Existing {
                vertex: VertexId(u32::MAX),
                score,
            };
            let framed = frame(&WalRecord::Paper {
                paper: paper.clone(),
                decisions: vec![existing; 2],
            })
            .unwrap();
            assert!(framed.len() <= bound, "{score:?}");
        }
    }

    #[test]
    fn roundtrip_and_torn_tail() {
        let path = scratch("roundtrip.wal");
        let written = vec![
            WalRecord::Epoch(1),
            WalRecord::Paper {
                paper: sample_paper(10),
                decisions: vec![
                    Decision::Existing {
                        vertex: VertexId(4),
                        score: 1.25,
                    },
                    Decision::NewAuthor { best_score: None },
                ],
            },
        ];
        {
            let mut wal = Wal::create(&path).unwrap();
            for record in &written {
                wal.append(record).unwrap();
            }
        }
        assert_eq!(read_wal(&path).unwrap(), written);

        // Tear the tail mid-record: the intact prefix still replays.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        let torn = read_wal(&path).unwrap();
        assert_eq!(torn.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn append_after_torn_tail_truncates_garbage() {
        let path = scratch("torn-append.wal");
        {
            let mut wal = Wal::create(&path).unwrap();
            wal.append(&WalRecord::Epoch(1)).unwrap();
            wal.append(&WalRecord::Paper {
                paper: sample_paper(10),
                decisions: vec![Decision::NewAuthor { best_score: None }],
            })
            .unwrap();
        }
        // Crash mid-write of the second record.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();

        // Warm restart: reopen for append, then keep logging. Without the
        // truncation, epoch 2 would land after the torn bytes and the next
        // replay would stop at the tear and lose it.
        {
            let mut wal = Wal::append_to(&path).unwrap();
            wal.append(&WalRecord::Epoch(2)).unwrap();
        }
        assert_eq!(
            read_wal(&path).unwrap(),
            vec![WalRecord::Epoch(1), WalRecord::Epoch(2)],
            "torn record dropped, new record kept"
        );
        std::fs::remove_file(&path).ok();
    }

    /// A crash can cut a record one byte short: every payload byte on
    /// disk, the newline not. That record was never acknowledged, so
    /// replay drops it and reopening truncates it; otherwise the next
    /// append would glue onto its line and lose itself and every later
    /// record.
    #[test]
    fn tear_before_the_newline_is_dropped_before_append() {
        let path = scratch("torn-newline.wal");
        let record = |id: u32| WalRecord::Paper {
            paper: sample_paper(id),
            decisions: vec![Decision::NewAuthor { best_score: None }; 2],
        };
        Wal::create(&path).unwrap().append(&record(0)).unwrap();
        let torn = frame(&record(1)).unwrap();
        let mut file = File::options().append(true).open(&path).unwrap();
        file.write_all(&torn[..torn.len() - 1]).unwrap();
        drop(file);
        assert_eq!(
            read_wal(&path).unwrap().len(),
            1,
            "unterminated frame is torn"
        );

        {
            let mut wal = Wal::append_to(&path).unwrap();
            wal.append(&record(2)).unwrap();
            wal.append(&record(3)).unwrap();
        }
        assert_eq!(
            read_wal(&path).unwrap(),
            vec![record(0), record(2), record(3)]
        );
        std::fs::remove_file(&path).ok();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Arbitrary bytes, bare or framed, and valid frames torn or
        /// bit-flipped never panic the WAL scan, the strict checkpoint
        /// reader or the ship and handshake decoders; and a log torn
        /// anywhere still reads back as a prefix of its records.
        #[test]
        fn hostile_frame_bytes_never_panic(
            variant in 0usize..4,
            junk in prop::collection::vec(0u8..255, 0..64),
            cut in 0usize..4096,
            xor in 1u8..255,
        ) {
            let mutate = |mut bytes: Vec<u8>| -> Vec<u8> {
                match variant {
                    0 => junk.clone(),
                    1 => [format!("{}\t", junk.len()).as_bytes(), &junk, b"\n"].concat(),
                    2 => bytes[..cut % (bytes.len() + 1)].to_vec(),
                    _ => {
                        let at = cut % bytes.len();
                        bytes[at] ^= xor;
                        bytes
                    }
                }
            };
            let records = [
                WalRecord::Paper {
                    paper: sample_paper(4),
                    decisions: vec![
                        Decision::Existing { vertex: VertexId(2), score: -0.75 },
                        Decision::NewAuthor { best_score: Some(0.5) },
                    ],
                },
                WalRecord::Epoch(1),
            ];
            let log: Vec<u8> = records.iter().flat_map(|r| frame(r).unwrap()).collect();
            let meta = CheckpointMeta {
                version: 1,
                seq: 1,
                epoch: 1,
                papers: 1,
                next_paper: 5,
                fingerprint: "0".repeat(16),
                records: 2,
            };
            let hello = SyncFrame::Hello { cursor: 2, epoch: 1 };
            let wire = [log.clone(), frame(&ShipFrame::Heartbeat(1)).unwrap(), frame(&hello).unwrap()];

            let path = scratch("hostile.wal");
            std::fs::write(&path, mutate(log.clone())).unwrap();
            let read = read_wal(&path);
            if variant == 2 {
                let read = read.unwrap();
                prop_assert_eq!(&records[..read.len()], &read[..]);
            }
            let _ = Wal::append_to(&path);
            std::fs::write(&path, mutate([frame(&meta).unwrap(), log].concat())).unwrap();
            let _ = read_checkpoint(&path);
            std::fs::remove_file(&path).ok();
            for line in mutate(wire.concat()).split_inclusive(|&b| b == b'\n') {
                let _ = unframe::<ShipFrame>(line);
                let _ = unframe::<SyncFrame>(line);
            }
        }
    }
}
