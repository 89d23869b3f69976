//! Deterministic crash-fault injection for the serving tier.
//!
//! The daemon's durability story ("recovery from a kill at any instruction
//! is bit-identical to never having crashed") is only as strong as the
//! worst instruction to die at, so this module makes dying *at a named
//! instruction* a first-class, reproducible operation. A [`FaultInjector`]
//! is armed with a [`CrashPoint`] and an occurrence index and handed to
//! the WAL / state / checkpoint code, which calls [`FaultInjector::check`]
//! at each named point; the scheduled hit raises a [`SimulatedCrash`]
//! panic that a crash-matrix driver catches — from the state machine's
//! point of view the process died mid-operation, with exactly the bytes
//! written so far on disk. Torn-write lengths and slow-client stalls are
//! derived from the injector's seed, so every failure run replays exactly.
//!
//! The injector is compiled unconditionally (not `cfg(test)`): the release
//! crash matrix (`iuad serve-crash`, `make serve-crash`) drives the same
//! hooks end to end in CI. A daemon without an injector pays one branch on
//! an `Option` per hook.

use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A named instruction boundary the serving tier can die at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CrashPoint {
    /// After a WAL record (paper or epoch marker) is fully written and
    /// flushed, before the caller's bookkeeping sees it.
    AfterWalAppend,
    /// Mid-way through writing a WAL record: a seeded prefix of the framed
    /// bytes reaches the file, then the process dies (torn tail).
    MidRecordWrite,
    /// At the top of an epoch publish, before the engine is refreshed or the
    /// epoch marker is logged (papers durable, publish not).
    BeforePublish,
    /// After the epoch marker is durably logged, before the snapshot is
    /// handed to the epoch store.
    AfterPublish,
    /// Mid-way through writing the checkpoint temp file: a seeded prefix
    /// reaches disk and the temp file is never renamed.
    MidCheckpointWrite,
    /// After the checkpoint is atomically renamed into place (and the
    /// directory fsynced), before the WAL is truncated — both the
    /// checkpoint and the full WAL it folded exist on disk.
    AfterCheckpointRename,
    /// Mid-way through shipping a replication frame: a seeded prefix of
    /// the framed bytes reaches the follower's socket, then the link dies
    /// (torn ship — the follower must drop the tear and resync).
    MidShipFrame,
    /// On the follower, after a shipped record is received and decoded but
    /// before it is applied to the replica state (the record is lost with
    /// the process; the cursor handshake must re-fetch it).
    FollowerBeforeApply,
    /// On the follower, after a shipped record is applied but before the
    /// link acknowledges it (reconnect must skip it idempotently).
    FollowerAfterApply,
    /// The replication link drops and the primary refuses reconnects for a
    /// seeded duration (network partition; the follower retries into it).
    LinkPartition,
    /// The primary process dies wholesale; followers keep serving their
    /// durable prefix until a restarted primary comes back.
    PrimaryDeath,
}

/// Total number of named crash points (sizes the per-point hit counters).
const POINTS: usize = 11;

impl CrashPoint {
    /// Every crash point, in pipeline order.
    pub const ALL: [CrashPoint; POINTS] = [
        CrashPoint::AfterWalAppend,
        CrashPoint::MidRecordWrite,
        CrashPoint::BeforePublish,
        CrashPoint::AfterPublish,
        CrashPoint::MidCheckpointWrite,
        CrashPoint::AfterCheckpointRename,
        CrashPoint::MidShipFrame,
        CrashPoint::FollowerBeforeApply,
        CrashPoint::FollowerAfterApply,
        CrashPoint::LinkPartition,
        CrashPoint::PrimaryDeath,
    ];

    /// The original single-process durability points, in pipeline order —
    /// the iteration set of the recovery crash matrix (`make serve-crash`).
    pub const RECOVERY: [CrashPoint; 6] = [
        CrashPoint::AfterWalAppend,
        CrashPoint::MidRecordWrite,
        CrashPoint::BeforePublish,
        CrashPoint::AfterPublish,
        CrashPoint::MidCheckpointWrite,
        CrashPoint::AfterCheckpointRename,
    ];

    /// The replication-layer fault points, in pipeline order — the
    /// iteration set of the replica matrix (`make serve-replica`).
    pub const REPLICATION: [CrashPoint; 5] = [
        CrashPoint::MidShipFrame,
        CrashPoint::FollowerBeforeApply,
        CrashPoint::FollowerAfterApply,
        CrashPoint::LinkPartition,
        CrashPoint::PrimaryDeath,
    ];

    /// Stable kebab-case name (reports, logs).
    pub fn name(self) -> &'static str {
        match self {
            CrashPoint::AfterWalAppend => "after-wal-append",
            CrashPoint::MidRecordWrite => "mid-record-write",
            CrashPoint::BeforePublish => "before-publish",
            CrashPoint::AfterPublish => "after-publish",
            CrashPoint::MidCheckpointWrite => "mid-checkpoint-write",
            CrashPoint::AfterCheckpointRename => "after-checkpoint-rename",
            CrashPoint::MidShipFrame => "mid-ship-frame",
            CrashPoint::FollowerBeforeApply => "follower-before-apply",
            CrashPoint::FollowerAfterApply => "follower-after-apply",
            CrashPoint::LinkPartition => "link-partition",
            CrashPoint::PrimaryDeath => "primary-death",
        }
    }

    /// Position in [`CrashPoint::ALL`]: the enum is fieldless and
    /// declared in that order.
    fn index(self) -> usize {
        self as usize
    }
}

/// The payload of an injected-crash panic. Crash-matrix drivers catch the
/// unwind and downcast to this to confirm the run died at the scheduled
/// point (any other panic is a real bug and is reported as such).
#[derive(Debug, Clone, Copy)]
pub struct SimulatedCrash {
    /// Where the simulated kill happened.
    pub point: CrashPoint,
}

#[derive(Debug)]
struct FaultState {
    rng: u64,
    /// Armed kill: crash on the `nth` (1-based) hit of `point`.
    crash: Option<(CrashPoint, u64)>,
    /// Hits seen per crash point so far.
    hits: [u64; POINTS],
    /// Stall every `0`-th `whois` for `1` milliseconds (slow-client /
    /// slow-handler injection); `2` counts requests seen.
    whois_stall: Option<(u64, u64, u64)>,
    /// Stall every `0`-th replica apply for `1` milliseconds (slow-apply
    /// injection, how the replica matrix manufactures bounded lag); `2`
    /// counts records seen.
    apply_stall: Option<(u64, u64, u64)>,
}

/// A seeded, shareable fault plan. See the module docs for the lifecycle;
/// all methods take `&self` (interior mutability) so one `Arc` threads
/// through the WAL, the serve state, and the daemon workers.
#[derive(Debug)]
pub struct FaultInjector {
    inner: Mutex<FaultState>,
}

/// `splitmix64` — the workspace's standard cheap seeded stream (identical
/// to the corpus/scenario derivations, so fault schedules are reproducible
/// from a single master seed).
pub(crate) fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FaultInjector {
    /// A quiescent injector (no faults armed) with a seeded stream for
    /// torn-length and stall derivations.
    pub fn seeded(seed: u64) -> Arc<FaultInjector> {
        Arc::new(FaultInjector {
            inner: Mutex::new(FaultState {
                rng: seed,
                crash: None,
                hits: [0; POINTS],
                whois_stall: None,
                apply_stall: None,
            }),
        })
    }

    /// Arm a kill at the `nth` (1-based) hit of `point`. Re-arming
    /// replaces the previous schedule and resets hit counts.
    pub fn arm_crash(&self, point: CrashPoint, nth: u64) {
        let mut state = self.inner.lock().expect("fault injector poisoned");
        state.crash = Some((point, nth.max(1)));
        state.hits = [0; POINTS];
    }

    /// Arm a stall of `ms` milliseconds on every `every`-th `whois`
    /// request (1-based; `every = 1` stalls all of them).
    pub fn arm_whois_stall(&self, every: u64, ms: u64) {
        let mut state = self.inner.lock().expect("fault injector poisoned");
        state.whois_stall = Some((every.max(1), ms, 0));
    }

    /// Record a hit of `point`; returns whether this hit is the scheduled
    /// kill. Callers that need to do damage first (torn writes) branch on
    /// this and then call [`FaultInjector::crash`]; everyone else uses
    /// [`FaultInjector::check`].
    pub fn hit(&self, point: CrashPoint) -> bool {
        let mut state = self.inner.lock().expect("fault injector poisoned");
        state.hits[point.index()] += 1;
        match state.crash {
            Some((armed, nth)) => armed == point && state.hits[point.index()] == nth,
            None => false,
        }
    }

    /// Hits of `point` recorded so far — matrix drivers verify the
    /// scheduled fault actually fired (`hits(point) >= nth`).
    pub fn hits(&self, point: CrashPoint) -> u64 {
        let state = self.inner.lock().expect("fault injector poisoned");
        state.hits[point.index()]
    }

    /// Die at `point` now (unwinds with a [`SimulatedCrash`] payload).
    ///
    /// # Panics
    /// Always — that is the point.
    pub fn crash(point: CrashPoint) -> ! {
        std::panic::panic_any(SimulatedCrash { point });
    }

    /// [`FaultInjector::hit`] + [`FaultInjector::crash`] for points that
    /// need no damage before dying.
    pub fn check(&self, point: CrashPoint) {
        if self.hit(point) {
            Self::crash(point);
        }
    }

    /// Seeded torn-write length: how many of `len` framed bytes reach the
    /// file before a [`CrashPoint::MidRecordWrite`] /
    /// [`CrashPoint::MidCheckpointWrite`] kill. Always at least 1 and at
    /// most `len - 1` (a 0- or full-length tear would not be mid-write).
    pub fn torn_prefix(&self, len: usize) -> usize {
        let mut state = self.inner.lock().expect("fault injector poisoned");
        if len <= 2 {
            return 1;
        }
        1 + (splitmix(&mut state.rng) as usize) % (len - 1)
    }

    /// The stall (if any) the current `whois` request should sleep for.
    pub fn whois_stall(&self) -> Option<Duration> {
        let mut state = self.inner.lock().expect("fault injector poisoned");
        let (every, ms, seen) = state.whois_stall.as_mut()?;
        *seen += 1;
        (*seen % *every == 0).then(|| Duration::from_millis(*ms))
    }

    /// Arm a stall of `ms` milliseconds on every `every`-th replica apply
    /// (1-based; `every = 1` stalls all of them). This is how the replica
    /// matrix manufactures deterministic lag: the primary keeps publishing
    /// while the follower's apply loop crawls, driving
    /// `primary_epoch - applied_epoch` past the staleness bound.
    pub fn arm_apply_stall(&self, every: u64, ms: u64) {
        let mut state = self.inner.lock().expect("fault injector poisoned");
        state.apply_stall = Some((every.max(1), ms, 0));
    }

    /// The stall (if any) the current replica apply should sleep for.
    pub fn apply_stall(&self) -> Option<Duration> {
        let mut state = self.inner.lock().expect("fault injector poisoned");
        let (every, ms, seen) = state.apply_stall.as_mut()?;
        *seen += 1;
        (*seen % *every == 0).then(|| Duration::from_millis(*ms))
    }

    /// Seeded partition duration for a [`CrashPoint::LinkPartition`] kill:
    /// how long the primary refuses reconnect handshakes after dropping
    /// the link. Bounded (40..=200 ms) so matrix runs stay fast but the
    /// follower provably retries into a closed door at least once.
    pub fn partition_duration(&self) -> Duration {
        let mut state = self.inner.lock().expect("fault injector poisoned");
        Duration::from_millis(40 + splitmix(&mut state.rng) % 161)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nth_hit_crashes_and_counts_are_per_point() {
        let faults = FaultInjector::seeded(7);
        faults.arm_crash(CrashPoint::BeforePublish, 3);
        assert!(!faults.hit(CrashPoint::BeforePublish));
        assert!(!faults.hit(CrashPoint::AfterPublish), "other points inert");
        assert!(!faults.hit(CrashPoint::BeforePublish));
        assert!(faults.hit(CrashPoint::BeforePublish), "third hit fires");
        assert!(!faults.hit(CrashPoint::BeforePublish), "fires exactly once");
    }

    #[test]
    fn crash_unwinds_with_the_point_payload() {
        let caught = std::panic::catch_unwind(|| FaultInjector::crash(CrashPoint::AfterPublish))
            .expect_err("must unwind");
        let crash = caught
            .downcast_ref::<SimulatedCrash>()
            .expect("payload is SimulatedCrash");
        assert_eq!(crash.point.name(), "after-publish");
    }

    #[test]
    fn torn_prefix_is_strictly_interior_and_reproducible() {
        let a = FaultInjector::seeded(99);
        let b = FaultInjector::seeded(99);
        for len in [3usize, 10, 500] {
            let cut = a.torn_prefix(len);
            assert!(cut >= 1 && cut < len, "cut {cut} of {len}");
            assert_eq!(cut, b.torn_prefix(len), "same seed, same schedule");
        }
    }

    #[test]
    fn point_sets_partition_all_and_names_are_stable() {
        assert_eq!(CrashPoint::ALL.len(), POINTS);
        let recovery: Vec<_> = CrashPoint::RECOVERY.to_vec();
        let replication: Vec<_> = CrashPoint::REPLICATION.to_vec();
        for point in CrashPoint::ALL {
            assert_ne!(
                recovery.contains(&point),
                replication.contains(&point),
                "{} must be in exactly one matrix",
                point.name()
            );
        }
        assert_eq!(CrashPoint::MidShipFrame.name(), "mid-ship-frame");
        assert_eq!(CrashPoint::LinkPartition.name(), "link-partition");
        assert_eq!(CrashPoint::PrimaryDeath.name(), "primary-death");
    }

    #[test]
    fn apply_stall_cadence_and_partition_window_are_seeded() {
        let faults = FaultInjector::seeded(11);
        assert!(faults.apply_stall().is_none(), "unarmed: no stalls");
        faults.arm_apply_stall(3, 7);
        assert!(faults.apply_stall().is_none());
        assert!(faults.apply_stall().is_none());
        assert_eq!(faults.apply_stall(), Some(Duration::from_millis(7)));

        let a = FaultInjector::seeded(42);
        let b = FaultInjector::seeded(42);
        let window = a.partition_duration();
        assert_eq!(window, b.partition_duration(), "same seed, same window");
        assert!(window >= Duration::from_millis(40) && window <= Duration::from_millis(200));
    }

    #[test]
    fn whois_stall_fires_on_the_configured_cadence() {
        let faults = FaultInjector::seeded(1);
        assert!(faults.whois_stall().is_none(), "unarmed: no stalls");
        faults.arm_whois_stall(2, 5);
        assert!(faults.whois_stall().is_none());
        assert_eq!(faults.whois_stall(), Some(Duration::from_millis(5)));
        assert!(faults.whois_stall().is_none());
        assert_eq!(faults.whois_stall(), Some(Duration::from_millis(5)));
    }
}
