//! A real-file write-ahead log for the live runtime.
//!
//! Frames are length-delimited [`Wire`] records (the same framing the TCP
//! transport uses), appended to a single file with optional fsync. This is
//! the stand-in for the paper's Berkeley DB JE storage.
//!
//! Two append modes are provided:
//!
//! * [`Wal::append`] — one record, one write (and one `fdatasync` under
//!   [`SyncPolicy::EveryWrite`]);
//! * [`Wal::append_buffered`] / [`Wal::commit`] — **group commit**:
//!   records accumulate in memory and [`Wal::commit`] flushes them as one
//!   `write` plus at most one `fdatasync`, amortizing the sync cost over
//!   a whole delivered batch.

use bytes::BytesMut;
use common::error::{Error, Result};
use common::obs::{Counter, Hist, Obs};
use common::wire::{frame, put_varint, Wire};
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Cached stats-plane handles for one WAL writer: appended records and
/// the latency of each durable commit (write + fsync — the disk half of
/// every decided instance under synchronous storage).
#[derive(Clone, Debug)]
struct WalInstr {
    appends: Counter,
    commit_nanos: Hist,
}

impl WalInstr {
    fn new(obs: &Obs) -> Self {
        WalInstr {
            appends: obs.counter("wal_appends"),
            commit_nanos: obs.hist("wal_commit_nanos"),
        }
    }
}

/// Whether appends force data to the platter before returning.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncPolicy {
    /// `fdatasync` after every append (the paper's synchronous mode).
    EveryWrite,
    /// Let the OS page cache decide (asynchronous mode).
    OsDecides,
}

/// The advisory lock file guarding `path` against concurrent writers.
pub fn lock_path(path: impl AsRef<Path>) -> PathBuf {
    let mut p = path.as_ref().as_os_str().to_owned();
    p.push(".lock");
    PathBuf::from(p)
}

fn pid_alive(pid: u32) -> bool {
    // Advisory check, good enough for "did the previous owner crash":
    // on Linux a live pid has a /proc entry. Elsewhere, err on the side
    // of stealing — a stale lock must never brick a restart.
    cfg!(target_os = "linux") && Path::new(&format!("/proc/{pid}")).exists()
}

/// Held for the lifetime of a [`Wal`]; removing the file on drop is what
/// makes kill → restart-in-place deterministic (the restarting process
/// must never find its own WAL "busy").
#[derive(Debug)]
struct WalLock {
    path: PathBuf,
}

impl WalLock {
    fn acquire(wal_path: &Path) -> Result<Self> {
        let path = lock_path(wal_path);
        let me = std::process::id();
        // The pid is staged in a private temp file and the lock created
        // by hard-linking it into place: link is atomic create-if-absent
        // *with the content already there*, so no observer can ever read
        // a lock file whose pid has not been written yet (a SIGKILL
        // between create and write used to leave an unparsable lock that
        // bricked every future restart).
        let tmp = {
            let mut p = path.as_os_str().to_owned();
            p.push(format!(".tmp-{me}"));
            PathBuf::from(p)
        };
        std::fs::write(&tmp, me.to_string())?;
        let result = Self::link_into_place(wal_path, &path, &tmp, me);
        let _ = std::fs::remove_file(&tmp);
        result
    }

    fn link_into_place(wal_path: &Path, path: &Path, tmp: &Path, me: u32) -> Result<Self> {
        loop {
            match std::fs::hard_link(tmp, path) {
                Ok(()) => {
                    return Ok(WalLock {
                        path: path.to_path_buf(),
                    })
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    let holder: Option<u32> = std::fs::read_to_string(path)
                        .ok()
                        .and_then(|s| s.trim().parse().ok());
                    match holder {
                        // A live owner (possibly ourselves through a
                        // second handle) keeps the lock.
                        Some(pid) if pid == me || pid_alive(pid) => {
                            return Err(Error::Storage(format!(
                                "wal {} is locked by pid {pid}",
                                wal_path.display(),
                            )))
                        }
                        // A crashed owner (SIGKILL skips Drop) left the
                        // file behind, or the content is unreadable
                        // (which atomic creation rules out for any
                        // owner that could still be alive): steal it.
                        // The steal renames the stale file aside —
                        // atomic, so of two racing stealers exactly one
                        // wins; the loser loops and re-reads whatever
                        // lock the winner installed.
                        _ => {
                            let aside = {
                                let mut p = path.as_os_str().to_owned();
                                p.push(format!(".stale-{me}"));
                                PathBuf::from(p)
                            };
                            if std::fs::rename(path, &aside).is_ok() {
                                let _ = std::fs::remove_file(&aside);
                            }
                            continue;
                        }
                    }
                }
                Err(e) => return Err(Error::Io(e)),
            }
        }
    }
}

impl Drop for WalLock {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// An append-only, length-framed log file.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    policy: SyncPolicy,
    appended: u64,
    /// Group-commit staging: framed records awaiting [`Wal::commit`].
    buffered: BytesMut,
    pending_records: u64,
    /// Reused frame-encoding scratch buffer.
    scratch: BytesMut,
    /// Stats-plane handles, absent until [`Wal::instrument`].
    instr: Option<WalInstr>,
    /// Exclusive-writer guard, released (file removed) on drop.
    _lock: WalLock,
}

impl Wal {
    /// Opens (creating if absent) the log at `path`, taking the exclusive
    /// writer lock (`<path>.lock`). The lock is released when the `Wal`
    /// drops; a lock left by a *crashed* process (dead pid) is stolen.
    ///
    /// # Errors
    ///
    /// Fails if the file cannot be opened for append or another live
    /// process holds the lock.
    pub fn open(path: impl AsRef<Path>, policy: SyncPolicy) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let lock = WalLock::acquire(&path)?;
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .read(true)
            .open(&path)?;
        Ok(Wal {
            file,
            path,
            policy,
            appended: 0,
            buffered: BytesMut::new(),
            pending_records: 0,
            scratch: BytesMut::new(),
            instr: None,
            _lock: lock,
        })
    }

    /// Points this writer's metrics (append counts, commit latency) at
    /// `obs`. Without this, the WAL records nothing.
    pub fn instrument(&mut self, obs: &Obs) {
        self.instr = Some(WalInstr::new(obs));
    }

    /// Appends one record.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors; with [`SyncPolicy::EveryWrite`] the record is
    /// durable when this returns.
    pub fn append<T: Wire>(&mut self, record: &T) -> Result<()> {
        // Flush any staged group-commit records first so the file always
        // reflects logical append order, even when the two APIs mix.
        self.commit()?;
        let started = self.instr.as_ref().map(|_| Instant::now());
        let mut buf = BytesMut::new();
        frame::write(&mut buf, record);
        self.file.write_all(&buf)?;
        if self.policy == SyncPolicy::EveryWrite {
            self.file.sync_data()?;
        }
        self.appended += 1;
        if let (Some(i), Some(t0)) = (&self.instr, started) {
            i.appends.inc();
            i.commit_nanos
                .record(t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
        }
        Ok(())
    }

    /// Stages one record for group commit without touching the file. The
    /// record is neither written nor durable until [`Wal::commit`].
    pub fn append_buffered<T: Wire>(&mut self, record: &T) {
        self.append_buffered_with(|buf| record.encode(buf));
    }

    /// Stages one record written by `encode` for group commit — lets
    /// callers frame borrowed data without constructing an owned record.
    pub fn append_buffered_with(&mut self, encode: impl FnOnce(&mut BytesMut)) {
        self.scratch.clear();
        encode(&mut self.scratch);
        put_varint(&mut self.buffered, self.scratch.len() as u64);
        self.buffered.extend_from_slice(&self.scratch);
        self.pending_records += 1;
    }

    /// Group commit: writes every staged record with one `write` and, under
    /// [`SyncPolicy::EveryWrite`], a single `fdatasync` for the whole
    /// batch. No-op when nothing is staged.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors; staged records are dropped either way (a
    /// failed WAL write must not diverge the replica from its peers).
    pub fn commit(&mut self) -> Result<()> {
        if self.buffered.is_empty() {
            return Ok(());
        }
        let staged = self.pending_records;
        self.pending_records = 0;
        let started = self.instr.as_ref().map(|_| Instant::now());
        let result = self.file.write_all(&self.buffered);
        self.buffered.clear();
        result?;
        if self.policy == SyncPolicy::EveryWrite {
            self.file.sync_data()?;
        }
        self.appended += staged;
        if let (Some(i), Some(t0)) = (&self.instr, started) {
            i.appends.add(staged);
            i.commit_nanos
                .record(t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
        }
        Ok(())
    }

    /// Records staged but not yet committed.
    pub fn pending(&self) -> u64 {
        self.pending_records
    }

    /// Forces buffered data to disk.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors.
    pub fn sync(&mut self) -> Result<()> {
        self.file.sync_data()?;
        Ok(())
    }

    /// Number of records appended through this handle.
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// The file path backing this log.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Reads every record currently in the file (crash recovery replay).
    /// A torn final frame (partial write during a crash) is ignored, as a
    /// real recovery would.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors or if a *complete* frame fails to decode.
    pub fn replay<T: Wire>(path: impl AsRef<Path>) -> Result<Vec<T>> {
        let mut file = File::open(path.as_ref())?;
        let mut raw = Vec::new();
        file.read_to_end(&mut raw)?;
        // Decode as views of the single read buffer — no per-record copy.
        let mut buf = bytes::Bytes::from(raw);
        let mut out = Vec::new();
        loop {
            match frame::read_from::<T>(&mut buf) {
                Ok(Some(rec)) => out.push(rec),
                Ok(None) => break, // torn tail or clean EOF
                Err(e) => return Err(Error::Wire(e)),
            }
        }
        Ok(out)
    }
}

/// A sink for a node's *decided log*: records tagged with their log
/// position, group-committed, and (where the backend supports it)
/// prunable below a durable checkpoint cursor. [`SegmentedWal`]
/// implements it over rotated segment files.
pub trait DecidedLog: Send + 'static {
    /// Stages one record at log position `pos` for group commit.
    fn stage(&mut self, pos: u64, encode: &mut dyn FnMut(&mut BytesMut));

    /// Group-commits every staged record (one write, one sync).
    ///
    /// # Errors
    ///
    /// Fails on I/O errors; staged records are dropped either way.
    fn commit(&mut self) -> Result<()>;

    /// Deletes storage that only holds records below `pos` (a durable
    /// checkpoint covers them). Returns how many segments were dropped;
    /// backends without rotation return 0.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors.
    fn prune_below(&mut self, _pos: u64) -> Result<usize> {
        Ok(0)
    }

    /// Points the log's metrics at `obs`. Default: records nothing.
    fn instrument(&mut self, _obs: &Obs) {}
}

/// One record of a [`SegmentedWal`] segment: the log position followed
/// by the raw record bytes (the rest of the frame). Self-describing, so
/// pruning can read positions without knowing the record type.
struct PosRecord {
    pos: u64,
    body: bytes::Bytes,
}

impl Wire for PosRecord {
    fn encode(&self, buf: &mut BytesMut) {
        put_varint(buf, self.pos);
        buf.extend_from_slice(&self.body);
    }

    fn decode(buf: &mut bytes::Bytes) -> std::result::Result<Self, common::error::WireError> {
        let pos = common::wire::get_varint(buf)?;
        let body = buf.split_to(buf.len());
        Ok(PosRecord { pos, body })
    }
}

/// A rotated write-ahead log: records land in bounded segment files
/// (`seg-<first-pos>.wal` under one directory), the writer rolls to a
/// fresh segment every `roll_every` records, and [`DecidedLog::prune_below`]
/// deletes closed segments whose records all sit below the given cursor
/// — bounding *disk*, where checkpoints alone only bound replay.
///
/// Each segment is an ordinary [`Wal`] (same framing, same `.lock`
/// writer guard) whose frames carry a position prefix (`PosRecord`),
/// so safety of a prune never depends on in-memory bookkeeping: the
/// candidate segment is re-read and dropped only if every record in it
/// is below the cursor.
#[derive(Debug)]
pub struct SegmentedWal {
    dir: PathBuf,
    policy: SyncPolicy,
    roll_every: u64,
    /// The active segment: its first position, records appended this
    /// incarnation, and the backing file.
    active: Option<(u64, u64, Wal)>,
    /// Records lost because no segment could be opened; surfaced as an
    /// error by the next [`DecidedLog::commit`].
    dropped_since_commit: u64,
    /// Registry handed to each segment's [`Wal`] plus the on-disk
    /// segment-count gauge; absent until [`SegmentedWal::instrument`].
    obs: Option<Obs>,
    /// Directory-level writer guard (`segments.lock`): taking it at open
    /// — before any replay — means a successor never reads the directory
    /// while a live predecessor could still be flushing into it.
    _lock: WalLock,
}

impl SegmentedWal {
    /// Opens (creating if needed) the segment directory. No segment file
    /// is opened until the first [`DecidedLog::stage`]: a reopened log
    /// always starts a *fresh* segment at the next staged position, so
    /// pre-existing segments are immutable from then on.
    ///
    /// # Errors
    ///
    /// Fails if the directory cannot be created.
    pub fn open(dir: impl AsRef<Path>, policy: SyncPolicy, roll_every: u64) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let lock = WalLock::acquire(&dir.join("segments"))?;
        Ok(SegmentedWal {
            dir,
            policy,
            roll_every: roll_every.max(1),
            active: None,
            dropped_since_commit: 0,
            obs: None,
            _lock: lock,
        })
    }

    /// Points this log's metrics at `obs`: every segment's append/commit
    /// stats plus a `wal_segments` gauge maintained at rolls and prunes.
    pub fn instrument(&mut self, obs: &Obs) {
        if let Some((_, _, wal)) = &mut self.active {
            wal.instrument(obs);
        }
        obs.gauge("wal_segments")
            .set(Self::segments(&self.dir).len() as i64);
        self.obs = Some(obs.clone());
    }

    /// The directory-level lock file guarding `dir` (for tests and
    /// shutdown checks).
    pub fn dir_lock_path(dir: impl AsRef<Path>) -> PathBuf {
        lock_path(dir.as_ref().join("segments"))
    }

    /// Segment files under `dir`, sorted by first position.
    pub fn segments(dir: impl AsRef<Path>) -> Vec<PathBuf> {
        let mut named: Vec<(u64, PathBuf)> = std::fs::read_dir(dir.as_ref())
            .into_iter()
            .flatten()
            .flatten()
            .filter_map(|e| {
                let path = e.path();
                let first = Self::segment_pos(&path)?;
                Some((first, path))
            })
            .collect();
        named.sort();
        named.into_iter().map(|(_, p)| p).collect()
    }

    fn segment_pos(path: &Path) -> Option<u64> {
        let name = path.file_name()?.to_str()?;
        name.strip_prefix("seg-")?
            .strip_suffix(".wal")?
            .parse()
            .ok()
    }

    fn segment_path(&self, first: u64) -> PathBuf {
        self.dir.join(format!("seg-{first:020}.wal"))
    }

    /// Replays every record across all segments, in segment order
    /// (skipping torn tails per segment). Returns `(pos, record)` pairs.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors or if a complete frame fails to decode.
    pub fn replay<T: Wire>(dir: impl AsRef<Path>) -> Result<Vec<(u64, T)>> {
        let mut out = Vec::new();
        for seg in Self::segments(dir) {
            for rec in Wal::replay::<PosRecord>(&seg)? {
                let mut body = rec.body;
                out.push((rec.pos, T::decode(&mut body).map_err(Error::Wire)?));
            }
        }
        Ok(out)
    }

    /// One past the highest position recorded across all segments
    /// (0 for an empty or absent directory). A reopened writer resumes
    /// its position counter here so pruning cutoffs and segment names
    /// stay monotone across restarts.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors or if a complete frame fails to decode.
    pub fn end_pos(dir: impl AsRef<Path>) -> Result<u64> {
        let mut end = 0;
        for seg in Self::segments(dir) {
            for rec in Wal::replay::<PosRecord>(&seg)? {
                end = end.max(rec.pos + 1);
            }
        }
        Ok(end)
    }

    fn roll_to(&mut self, pos: u64) {
        // Open the next segment, then close (committing) the current one.
        // A same-or-lower position never rolls (see stage), so segment
        // names sort in creation order.
        let mut path = self.segment_path(pos);
        if path.exists() {
            // A reopened log staging the same position again (replayed
            // suffix): keep the old segment immutable, start a sibling
            // one position up — positions inside stay authoritative.
            let mut bump = pos;
            while path.exists() {
                bump += 1;
                path = self.segment_path(bump);
            }
        }
        match Wal::open(&path, self.policy) {
            Ok(mut new) => {
                if let Some((_, _, mut old)) = self.active.take() {
                    let _ = Wal::commit(&mut old);
                }
                if let Some(obs) = &self.obs {
                    new.instrument(obs);
                    // `Wal::open` created the file, so it is already in
                    // the directory listing.
                    obs.gauge("wal_segments")
                        .set(Self::segments(&self.dir).len() as i64);
                }
                self.active = Some((pos, 0, new));
            }
            Err(_) => {
                // Keep appending to the (oversized) current segment and
                // retry the roll on the next stage — a failed open must
                // never silently drop decided records. With no current
                // segment at all, the record is lost; `commit` reports
                // it.
                if self.active.is_none() {
                    self.dropped_since_commit += 1;
                }
            }
        }
    }
}

impl DecidedLog for SegmentedWal {
    fn instrument(&mut self, obs: &Obs) {
        SegmentedWal::instrument(self, obs);
    }

    fn stage(&mut self, pos: u64, encode: &mut dyn FnMut(&mut BytesMut)) {
        let need_roll = match &self.active {
            None => true,
            // Roll only forward: a late record below the active segment's
            // first position stays in the active segment, so no segment
            // ever holds positions above a *later* segment's name.
            Some((first, n, _)) => *n >= self.roll_every && pos > *first,
        };
        if need_roll {
            self.roll_to(pos);
        }
        if let Some((_, n, wal)) = &mut self.active {
            wal.append_buffered_with(|buf| {
                put_varint(buf, pos);
                encode(buf);
            });
            *n += 1;
        }
    }

    fn commit(&mut self) -> Result<()> {
        if self.dropped_since_commit > 0 {
            let n = self.dropped_since_commit;
            self.dropped_since_commit = 0;
            let _ = self.active.as_mut().map(|(_, _, w)| Wal::commit(w));
            return Err(Error::Storage(format!(
                "segmented wal dropped {n} record(s): no segment could be opened"
            )));
        }
        match &mut self.active {
            Some((_, _, wal)) => Wal::commit(wal),
            None => Ok(()),
        }
    }

    fn prune_below(&mut self, pos: u64) -> Result<usize> {
        // Guard the *actual* open file: its name can sit above the
        // active first-position when a roll had to bump past an existing
        // segment name.
        let active_path = self.active.as_ref().map(|(_, _, w)| w.path().to_path_buf());
        let mut dropped = 0usize;
        for seg in Self::segments(&self.dir) {
            if Some(&seg) == active_path.as_ref() {
                continue; // never the open segment
            }
            // Cheap name filter: a roll names the new segment at (or,
            // when bumping past an existing name, slightly above) its
            // first record, so a name below the cursor is a necessary
            // condition for "all records below the cursor" — except for
            // bumped segments, where skipping merely *retains* a
            // prunable segment (conservative, never unsafe). This avoids
            // re-reading the whole surviving log on every checkpoint.
            if Self::segment_pos(&seg).is_none_or(|first| first >= pos) {
                continue;
            }
            // Safety check by content, not by name: drop the segment only
            // if every record in it is below the checkpoint cursor.
            let all_below = match Wal::replay::<PosRecord>(&seg) {
                Ok(records) => !records.is_empty() && records.iter().all(|r| r.pos < pos),
                Err(_) => false, // unreadable: keep it for forensics
            };
            if all_below && std::fs::remove_file(&seg).is_ok() {
                dropped += 1;
            }
        }
        if let Some(obs) = &self.obs {
            if dropped > 0 {
                obs.gauge("wal_segments")
                    .set(Self::segments(&self.dir).len() as i64);
            }
        }
        Ok(dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use common::ids::{InstanceId, NodeId};
    use common::msg::AcceptedEntry;
    use common::value::Value;
    use common::Ballot;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("wal-test-{}-{}", std::process::id(), name));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn entry(i: u64) -> AcceptedEntry {
        AcceptedEntry {
            inst: InstanceId::new(i),
            vballot: Ballot::new(1, NodeId::new(1)),
            value: Value::app(NodeId::new(1), i, bytes::Bytes::from_static(b"payload")),
        }
    }

    #[test]
    fn append_and_replay() {
        let path = tmp("append");
        {
            let mut wal = Wal::open(&path, SyncPolicy::EveryWrite).unwrap();
            for i in 0..10 {
                wal.append(&entry(i)).unwrap();
            }
            assert_eq!(wal.appended(), 10);
        }
        let records: Vec<AcceptedEntry> = Wal::replay(&path).unwrap();
        assert_eq!(records.len(), 10);
        assert_eq!(records[9], entry(9));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn replay_ignores_torn_tail() {
        let path = tmp("torn");
        {
            let mut wal = Wal::open(&path, SyncPolicy::OsDecides).unwrap();
            wal.append(&entry(0)).unwrap();
            wal.append(&entry(1)).unwrap();
            wal.sync().unwrap();
        }
        // Simulate a torn write: chop a few bytes off the end.
        let raw = std::fs::read(&path).unwrap();
        std::fs::write(&path, &raw[..raw.len() - 3]).unwrap();

        let records: Vec<AcceptedEntry> = Wal::replay(&path).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0], entry(0));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn group_commit_stages_until_commit() {
        let path = tmp("group");
        {
            let mut wal = Wal::open(&path, SyncPolicy::EveryWrite).unwrap();
            for i in 0..5 {
                wal.append_buffered(&entry(i));
            }
            assert_eq!(wal.pending(), 5);
            assert_eq!(wal.appended(), 0, "staged records are not yet written");
            // Nothing on disk before the commit.
            assert_eq!(
                Wal::replay::<AcceptedEntry>(&path).unwrap().len(),
                0,
                "records invisible before commit"
            );
            wal.commit().unwrap();
            assert_eq!(wal.pending(), 0);
            assert_eq!(wal.appended(), 5);
            wal.commit().unwrap(); // idempotent no-op
            assert_eq!(wal.appended(), 5);
        }
        let records: Vec<AcceptedEntry> = Wal::replay(&path).unwrap();
        assert_eq!(records.len(), 5);
        assert_eq!(records[4], entry(4));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn buffered_with_matches_owned_encoding() {
        let path = tmp("borrowed");
        {
            let mut wal = Wal::open(&path, SyncPolicy::OsDecides).unwrap();
            let e = entry(3);
            wal.append_buffered_with(|buf| e.encode(buf));
            wal.commit().unwrap();
        }
        let records: Vec<AcceptedEntry> = Wal::replay(&path).unwrap();
        assert_eq!(records, vec![entry(3)]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn lock_excludes_second_writer_and_releases_on_drop() {
        let path = tmp("lock");
        let wal = Wal::open(&path, SyncPolicy::OsDecides).unwrap();
        assert!(lock_path(&path).exists());
        // A second writer in this (live) process is refused.
        match Wal::open(&path, SyncPolicy::OsDecides) {
            Err(Error::Storage(msg)) => assert!(msg.contains("locked"), "{msg}"),
            other => panic!("second open must fail with Storage, got {other:?}"),
        }
        drop(wal);
        assert!(
            !lock_path(&path).exists(),
            "lock must be released deterministically on drop"
        );
        // A lock left by a dead pid is stolen, not fatal.
        std::fs::write(lock_path(&path), "999999999").unwrap();
        let wal = Wal::open(&path, SyncPolicy::OsDecides).unwrap();
        drop(wal);
        // So is an unparsable lock: atomic creation (pid staged before
        // the link) means no *live* owner can have left one, and a
        // stale lock must never brick a restart.
        std::fs::write(lock_path(&path), "not-a-pid").unwrap();
        let wal = Wal::open(&path, SyncPolicy::OsDecides).unwrap();
        drop(wal);
        assert!(!lock_path(&path).exists());
        std::fs::remove_file(&path).unwrap();
    }

    fn seg_tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("segwal-test-{}-{}", std::process::id(), name));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    fn stage_entry(w: &mut SegmentedWal, i: u64) {
        let e = entry(i);
        w.stage(i, &mut |buf| e.encode(buf));
    }

    #[test]
    fn segmented_wal_rolls_replays_and_prunes() {
        let dir = seg_tmp("roll");
        {
            let mut w = SegmentedWal::open(&dir, SyncPolicy::OsDecides, 4).unwrap();
            for i in 0..10 {
                stage_entry(&mut w, i);
            }
            DecidedLog::commit(&mut w).unwrap();
            // 10 records at 4 per segment: 3 segments.
            assert_eq!(SegmentedWal::segments(&dir).len(), 3);
            let replayed: Vec<(u64, AcceptedEntry)> = SegmentedWal::replay(&dir).unwrap();
            assert_eq!(replayed.len(), 10);
            assert_eq!(replayed[7].0, 7);
            assert_eq!(replayed[7].1, entry(7));

            // A checkpoint at 8 retires the two closed all-below segments
            // ([0..4), [4..8)) but never the active one.
            assert_eq!(w.prune_below(8).unwrap(), 2);
            assert_eq!(SegmentedWal::segments(&dir).len(), 1);
            let replayed: Vec<(u64, AcceptedEntry)> = SegmentedWal::replay(&dir).unwrap();
            assert_eq!(replayed.first().map(|(p, _)| *p), Some(8));

            // A cursor below the surviving segment's records deletes
            // nothing.
            assert_eq!(w.prune_below(9).unwrap(), 0);
        }
        // Restart over the rotated directory: replay sees the suffix,
        // and new appends land in a fresh segment.
        {
            let mut w = SegmentedWal::open(&dir, SyncPolicy::OsDecides, 4).unwrap();
            assert_eq!(
                SegmentedWal::replay::<AcceptedEntry>(&dir).unwrap().len(),
                2
            );
            stage_entry(&mut w, 10);
            DecidedLog::commit(&mut w).unwrap();
            let replayed: Vec<(u64, AcceptedEntry)> = SegmentedWal::replay(&dir).unwrap();
            assert_eq!(replayed.len(), 3);
            assert_eq!(replayed.last().map(|(p, _)| *p), Some(10));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bumped_active_segment_survives_prune() {
        // A reopened log staging a position that collides with an
        // existing segment name bumps the new file's name past it; a
        // prune must guard the file actually open — not the file the
        // un-bumped position would name — or it deletes the live log.
        let dir = seg_tmp("bump");
        {
            let mut w = SegmentedWal::open(&dir, SyncPolicy::OsDecides, 2).unwrap();
            for i in 0..3 {
                stage_entry(&mut w, i); // seg-0 (0,1) + seg-2 (2)
            }
            DecidedLog::commit(&mut w).unwrap();
        }
        {
            let mut w = SegmentedWal::open(&dir, SyncPolicy::OsDecides, 2).unwrap();
            stage_entry(&mut w, 2); // collides with seg-2: bumped file name
            DecidedLog::commit(&mut w).unwrap();
            assert_eq!(SegmentedWal::segments(&dir).len(), 3);
            // Cursor above everything: the immutable segments go, the
            // open (bumped) one must survive.
            w.prune_below(100).unwrap();
            stage_entry(&mut w, 5);
            DecidedLog::commit(&mut w).unwrap();
            let replayed: Vec<(u64, AcceptedEntry)> = SegmentedWal::replay(&dir).unwrap();
            assert_eq!(
                replayed.iter().map(|(p, _)| *p).collect::<Vec<_>>(),
                vec![2, 5],
                "the active segment's records survived the prune"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn segmented_wal_dir_lock_excludes_second_writer() {
        let dir = seg_tmp("lock");
        let w = SegmentedWal::open(&dir, SyncPolicy::OsDecides, 4).unwrap();
        assert!(SegmentedWal::dir_lock_path(&dir).exists());
        match SegmentedWal::open(&dir, SyncPolicy::OsDecides, 4) {
            Err(Error::Storage(msg)) => assert!(msg.contains("locked"), "{msg}"),
            other => panic!("second open must fail with Storage, got {other:?}"),
        }
        drop(w);
        assert!(!SegmentedWal::dir_lock_path(&dir).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_appends_after_existing_records() {
        let path = tmp("reopen");
        {
            let mut wal = Wal::open(&path, SyncPolicy::EveryWrite).unwrap();
            wal.append(&entry(0)).unwrap();
        }
        {
            let mut wal = Wal::open(&path, SyncPolicy::EveryWrite).unwrap();
            wal.append(&entry(1)).unwrap();
        }
        let records: Vec<AcceptedEntry> = Wal::replay(&path).unwrap();
        assert_eq!(records.len(), 2);
        std::fs::remove_file(&path).unwrap();
    }
}
