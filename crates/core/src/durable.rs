//! Durable on-disk checkpoints: a versioned, checksummed container
//! format that spills each PE's recovery state at run boundaries, so a
//! whole cluster survives `kill -9` of every process.
//!
//! ## What a checkpoint is
//!
//! The in-memory recovery machinery ([`crate::recovery`]) already
//! maintains, at every run boundary, a globally consistent cut of the
//! computation:
//!
//! * the committed node stores (initial store +
//!   [`WriteJournal`](crate::recovery::WriteJournal) replay),
//! * the [`CheckpointTable`](crate::recovery::CheckpointTable) — one
//!   delivery-point snapshot per live, non-parked messenger,
//! * the event service — banked counts plus parked waiters.
//!
//! A durable checkpoint ([`DurableCut`], one per PE) is exactly that
//! cut serialized with the hand-rolled wire codec
//! ([`navp_sim::codec`], no serde), plus — for the networked executor
//! — per-peer channel sequence counters and a write-ahead outbox of
//! frames that may not have reached their destination when the
//! process died. Restoring ([`restore_cluster`]) turns the cut back
//! into a plain [`Cluster`]: residents and in-flight messengers become
//! injections, parked waiters become [`ResumeWait`] wrappers that
//! re-issue their `WaitEvent`, and banked counts become initial
//! signals. Any executor can then run the restored cluster to
//! completion, bitwise-identical to an uninterrupted run.
//!
//! ## On-disk container
//!
//! Every file (per-PE cut and [`Manifest`]) is wrapped in the same
//! container: an 8-byte magic (`NAVPCKP1`), a `u32` format version, a
//! length-prefixed payload, and a trailing FNV-1a 64-bit checksum over
//! everything before it. Writes are atomic: the bytes go to a `.tmp`
//! sibling, are fsynced, and are renamed over the target — a reader
//! never observes a torn file, and corruption (bit rot, truncation)
//! is rejected with a descriptive [`DurableError`].

use crate::agent::{Effect, Messenger, MsgrCtx, WireSnapshot};
use crate::cluster::Cluster;
use navp_sim::codec::{WireReader, WireWriter};
use navp_sim::{EventKey, NodeStore};
use std::fmt;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Container magic: "NAVPCKP1".
pub const MAGIC: &[u8; 8] = b"NAVPCKP1";
/// Current container format version.
pub const VERSION: u32 = 1;

/// Why a durable checkpoint could not be written, read, or restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DurableError {
    /// Filesystem failure (create, write, rename, read).
    Io {
        /// The path involved.
        path: String,
        /// The underlying error, rendered.
        detail: String,
    },
    /// A required checkpoint file does not exist.
    Missing {
        /// The absent path.
        path: String,
    },
    /// The file does not start with the `NAVPCKP1` magic.
    BadMagic {
        /// The offending path.
        path: String,
    },
    /// The file's format version is not one this build understands.
    BadVersion {
        /// The offending path.
        path: String,
        /// The version found.
        found: u32,
    },
    /// The file is shorter than its header or declared payload — a
    /// torn or truncated write.
    Truncated {
        /// The offending path.
        path: String,
    },
    /// The trailing FNV-1a checksum does not match the file contents —
    /// the bytes were corrupted after commit.
    ChecksumMismatch {
        /// The offending path.
        path: String,
        /// Checksum recorded in the file.
        stored: u64,
        /// Checksum recomputed from the contents.
        computed: u64,
    },
    /// The payload decoded structurally but a store value or messenger
    /// snapshot could not be encoded/decoded.
    Codec {
        /// Human-readable cause.
        detail: String,
    },
    /// The manifest and the per-PE cuts disagree (wrong count, wrong
    /// PE ids, mixed sessions).
    Inconsistent {
        /// Human-readable cause.
        detail: String,
    },
    /// A cut belongs to a different run than the manifest (its session
    /// nonce differs) — stale files from an earlier run.
    StaleSession {
        /// The offending path.
        path: String,
        /// Nonce the manifest expects.
        expected: u64,
        /// Nonce the cut carries.
        found: u64,
    },
}

impl fmt::Display for DurableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurableError::Io { path, detail } => write!(f, "checkpoint I/O on {path}: {detail}"),
            DurableError::Missing { path } => write!(f, "checkpoint file {path} does not exist"),
            DurableError::BadMagic { path } => {
                write!(f, "{path} is not a NavP checkpoint (bad magic)")
            }
            DurableError::BadVersion { path, found } => write!(
                f,
                "{path} uses checkpoint format version {found}, this build reads {VERSION}"
            ),
            DurableError::Truncated { path } => {
                write!(f, "checkpoint {path} is truncated (torn write?)")
            }
            DurableError::ChecksumMismatch {
                path,
                stored,
                computed,
            } => write!(
                f,
                "checkpoint {path} failed its checksum: stored {stored:#018x}, \
                 computed {computed:#018x} — the file is corrupt"
            ),
            DurableError::Codec { detail } => write!(f, "checkpoint codec failure: {detail}"),
            DurableError::Inconsistent { detail } => {
                write!(f, "checkpoint directory inconsistent: {detail}")
            }
            DurableError::StaleSession {
                path,
                expected,
                found,
            } => write!(
                f,
                "checkpoint {path} is from a different session (nonce {found:#x}, \
                 manifest has {expected:#x}) — stale file from an earlier run"
            ),
        }
    }
}

impl std::error::Error for DurableError {}

fn io_err(path: &Path, e: std::io::Error) -> DurableError {
    DurableError::Io {
        path: path.display().to_string(),
        detail: e.to_string(),
    }
}

/// A session nonce for a new run's checkpoint directory: derived from
/// the driver's pid and a process-wide counter (no wall clock — the
/// runtime never reads one), then mixed so consecutive nonces differ in
/// every byte. Collisions across driver processes would need the same
/// pid *and* counter, which a recycled pid plus a fresh process cannot
/// produce within one directory's lifetime in practice.
pub fn fresh_nonce() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let raw = ((std::process::id() as u64) << 32) | COUNTER.fetch_add(1, Ordering::Relaxed);
    // SplitMix64 finalizer.
    let mut z = raw.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a 64-bit hash — the same function the wire layer uses for
/// event homing, reused here as the container checksum.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Atomically commit `payload` to `path` inside the checksummed
/// container: write magic + version + length + payload + checksum to a
/// `.tmp` sibling, fsync, rename. Returns the total bytes on disk.
pub fn write_container(path: &Path, payload: &[u8]) -> Result<u64, DurableError> {
    let mut buf = Vec::with_capacity(MAGIC.len() + 12 + payload.len() + 8);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    buf.extend_from_slice(payload);
    let sum = fnv1a(&buf);
    buf.extend_from_slice(&sum.to_le_bytes());

    let tmp = path.with_extension("tmp");
    let mut f = std::fs::File::create(&tmp).map_err(|e| io_err(&tmp, e))?;
    f.write_all(&buf).map_err(|e| io_err(&tmp, e))?;
    f.sync_all().map_err(|e| io_err(&tmp, e))?;
    drop(f);
    std::fs::rename(&tmp, path).map_err(|e| io_err(path, e))?;
    Ok(buf.len() as u64)
}

/// Read and verify a container, returning its payload. Truncation,
/// foreign files, future versions and checksum failures are each a
/// distinct descriptive error.
pub fn read_container(path: &Path) -> Result<Vec<u8>, DurableError> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Err(DurableError::Missing {
                path: path.display().to_string(),
            })
        }
        Err(e) => return Err(io_err(path, e)),
    };
    let p = || path.display().to_string();
    let header = MAGIC.len() + 4 + 8;
    if bytes.len() < header + 8 {
        return Err(DurableError::Truncated { path: p() });
    }
    if &bytes[..MAGIC.len()] != MAGIC {
        return Err(DurableError::BadMagic { path: p() });
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != VERSION {
        return Err(DurableError::BadVersion {
            path: p(),
            found: version,
        });
    }
    let len = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes")) as usize;
    if bytes.len() != header + len + 8 {
        return Err(DurableError::Truncated { path: p() });
    }
    let stored = u64::from_le_bytes(bytes[header + len..].try_into().expect("8 bytes"));
    let computed = fnv1a(&bytes[..header + len]);
    if stored != computed {
        return Err(DurableError::ChecksumMismatch {
            path: p(),
            stored,
            computed,
        });
    }
    Ok(bytes[header..header + len].to_vec())
}

/// Serialization bridge between the durable format and the
/// application's type registry (which lives above this crate — see
/// `navp_net::RegistryCodec`).
///
/// Messenger *encoding* needs no codec (every messenger carries its
/// own [`Messenger::wire_snapshot`]); decoding, and both directions
/// for stores, need the tag registry.
pub trait DurableCodec: Send + Sync {
    /// Encode a node store to bytes (deterministically — sorted keys).
    fn encode_store(&self, store: &NodeStore) -> Result<Vec<u8>, String>;
    /// Decode a node store from bytes.
    fn decode_store(&self, bytes: &[u8]) -> Result<NodeStore, String>;
    /// Reconstitute a messenger from its wire snapshot.
    fn decode_messenger(&self, snap: &WireSnapshot) -> Result<Box<dyn Messenger>, String>;
}

/// A live, non-parked messenger in a cut: resident on the PE or in
/// flight toward it.
#[derive(Debug, Clone, PartialEq)]
pub struct ResidentMsgr {
    /// The executor's messenger id (restore order is ascending id).
    pub id: u64,
    /// Display label, for diagnostics.
    pub label: String,
    /// Delivery-point state.
    pub snap: WireSnapshot,
}

/// A messenger parked on an event in a cut.
#[derive(Debug, Clone, PartialEq)]
pub struct ParkedWaiter {
    /// The executor's messenger id.
    pub id: u64,
    /// PE the messenger parked on (it resumes there when woken).
    pub origin: u32,
    /// The event it waits for.
    pub key: EventKey,
    /// Its state at the wait point.
    pub snap: WireSnapshot,
}

/// One buffered outbound frame in a networked PE's write-ahead outbox.
#[derive(Debug, Clone, PartialEq)]
pub struct OutFrame {
    /// Destination PE.
    pub dst: u32,
    /// 1-based sequence number on the ordered `(src, dst)` channel.
    pub seq: u64,
    /// The encoded frame body (the net layer interprets it).
    pub bytes: Vec<u8>,
}

/// One PE's slice of a globally consistent run-boundary cut — the unit
/// the executors spill to `pe-<k>.ckpt`.
#[derive(Debug, Clone, PartialEq)]
pub struct DurableCut {
    /// This cut's PE.
    pub pe: u32,
    /// Cluster width.
    pub pes: u32,
    /// Session nonce (must match the directory's [`Manifest`]).
    pub nonce: u64,
    /// Monotone spill counter (later boundary ⇒ larger value).
    pub boundary: u64,
    /// The committed node store, encoded by the [`DurableCodec`].
    pub store: Vec<u8>,
    /// Live messengers owned by this PE, ascending id.
    pub residents: Vec<ResidentMsgr>,
    /// Parked waiters homed on this PE, in FIFO park order.
    pub waiters: Vec<ParkedWaiter>,
    /// Banked event counts homed on this PE.
    pub events: Vec<(EventKey, u64)>,
    /// Frames sent to each peer so far (`sent_to[dst]`); empty for the
    /// in-process executors.
    pub sent_to: Vec<u64>,
    /// Frames received from each peer so far (`recv_from[src]`); empty
    /// for the in-process executors.
    pub recv_from: Vec<u64>,
    /// Write-ahead outbox: frames spilled before transmission whose
    /// delivery is unconfirmed. Reconciled against the receivers'
    /// `recv_from` at restore (net layer).
    pub outbox: Vec<OutFrame>,
}

impl DurableCut {
    /// An empty cut for PE `pe` of `pes` in session `nonce` (no
    /// channel counters — the in-process executors' shape).
    pub fn new(pe: usize, pes: usize, nonce: u64) -> DurableCut {
        DurableCut {
            pe: pe as u32,
            pes: pes as u32,
            nonce,
            boundary: 0,
            store: Vec::new(),
            residents: Vec::new(),
            waiters: Vec::new(),
            events: Vec::new(),
            sent_to: Vec::new(),
            recv_from: Vec::new(),
            outbox: Vec::new(),
        }
    }

    /// Encode to the (container-less) payload form.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_u32(self.pe);
        w.put_u32(self.pes);
        w.put_u64(self.nonce);
        w.put_u64(self.boundary);
        w.put_bytes(&self.store);
        w.put_u32(self.residents.len() as u32);
        for r in &self.residents {
            w.put_u64(r.id);
            w.put_str(&r.label);
            w.put_str(&r.snap.tag);
            w.put_bytes(&r.snap.bytes);
        }
        w.put_u32(self.waiters.len() as u32);
        for p in &self.waiters {
            w.put_u64(p.id);
            w.put_u32(p.origin);
            w.put_key(&p.key);
            w.put_str(&p.snap.tag);
            w.put_bytes(&p.snap.bytes);
        }
        w.put_u32(self.events.len() as u32);
        for (key, count) in &self.events {
            w.put_key(key);
            w.put_u64(*count);
        }
        w.put_u32(self.sent_to.len() as u32);
        for s in &self.sent_to {
            w.put_u64(*s);
        }
        w.put_u32(self.recv_from.len() as u32);
        for r in &self.recv_from {
            w.put_u64(*r);
        }
        w.put_u32(self.outbox.len() as u32);
        for f in &self.outbox {
            w.put_u32(f.dst);
            w.put_u64(f.seq);
            w.put_bytes(&f.bytes);
        }
        w.into_vec()
    }

    /// Decode a payload produced by [`DurableCut::encode`]. Trailing
    /// bytes are rejected.
    pub fn decode(bytes: &[u8]) -> Result<DurableCut, DurableError> {
        let codec = |e: navp_sim::codec::DecodeError| DurableError::Codec {
            detail: format!("cut payload: {e}"),
        };
        let mut r = WireReader::new(bytes);
        let mut cut = DurableCut::new(0, 0, 0);
        (|| {
            cut.pe = r.get_u32()?;
            cut.pes = r.get_u32()?;
            cut.nonce = r.get_u64()?;
            cut.boundary = r.get_u64()?;
            cut.store = r.get_bytes()?;
            for _ in 0..r.get_u32()? {
                cut.residents.push(ResidentMsgr {
                    id: r.get_u64()?,
                    label: r.get_str()?,
                    snap: WireSnapshot {
                        tag: r.get_str()?,
                        bytes: r.get_bytes()?,
                    },
                });
            }
            for _ in 0..r.get_u32()? {
                cut.waiters.push(ParkedWaiter {
                    id: r.get_u64()?,
                    origin: r.get_u32()?,
                    key: r.get_key()?,
                    snap: WireSnapshot {
                        tag: r.get_str()?,
                        bytes: r.get_bytes()?,
                    },
                });
            }
            for _ in 0..r.get_u32()? {
                let key = r.get_key()?;
                let count = r.get_u64()?;
                cut.events.push((key, count));
            }
            for _ in 0..r.get_u32()? {
                cut.sent_to.push(r.get_u64()?);
            }
            for _ in 0..r.get_u32()? {
                cut.recv_from.push(r.get_u64()?);
            }
            for _ in 0..r.get_u32()? {
                cut.outbox.push(OutFrame {
                    dst: r.get_u32()?,
                    seq: r.get_u64()?,
                    bytes: r.get_bytes()?,
                });
            }
            Ok(r.remaining())
        })()
        .map_err(codec)
        .and_then(|rest: usize| {
            if rest != 0 {
                Err(DurableError::Codec {
                    detail: format!("cut payload has {rest} trailing bytes"),
                })
            } else {
                Ok(cut)
            }
        })
    }
}

/// The checkpoint directory's manifest: cluster width plus a session
/// nonce stamped into every cut, so files from an earlier run are
/// detected instead of silently mixed in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Manifest {
    /// Cluster width.
    pub pes: usize,
    /// Session nonce shared by every cut of this run.
    pub nonce: u64,
}

/// Path of the manifest inside a checkpoint directory.
pub fn manifest_path(dir: &Path) -> PathBuf {
    dir.join("MANIFEST")
}

/// Path of PE `pe`'s cut inside a checkpoint directory.
pub fn cut_path(dir: &Path, pe: usize) -> PathBuf {
    dir.join(format!("pe-{pe}.ckpt"))
}

/// Write the manifest (atomic, checksummed).
pub fn write_manifest(dir: &Path, m: &Manifest) -> Result<(), DurableError> {
    std::fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
    let mut w = WireWriter::new();
    w.put_usize(m.pes);
    w.put_u64(m.nonce);
    write_container(&manifest_path(dir), &w.into_vec()).map(|_| ())
}

/// Read and verify the manifest.
pub fn read_manifest(dir: &Path) -> Result<Manifest, DurableError> {
    let payload = read_container(&manifest_path(dir))?;
    let mut r = WireReader::new(&payload);
    let parse = |e: navp_sim::codec::DecodeError| DurableError::Codec {
        detail: format!("manifest payload: {e}"),
    };
    let pes = r.get_usize().map_err(parse)?;
    let nonce = r.get_u64().map_err(parse)?;
    if pes == 0 || r.remaining() != 0 {
        return Err(DurableError::Inconsistent {
            detail: format!("manifest declares {pes} PEs"),
        });
    }
    Ok(Manifest { pes, nonce })
}

/// Spill one cut to its `pe-<k>.ckpt` file (atomic, checksummed).
/// Returns the bytes written, for flush metrics.
pub fn write_cut(dir: &Path, cut: &DurableCut) -> Result<u64, DurableError> {
    write_container(&cut_path(dir, cut.pe as usize), &cut.encode())
}

/// Read and verify one PE's cut.
pub fn read_cut(dir: &Path, pe: usize) -> Result<DurableCut, DurableError> {
    DurableCut::decode(&read_container(&cut_path(dir, pe))?)
}

/// Read the manifest plus every PE's cut, verifying session nonces.
pub fn read_all_cuts(dir: &Path) -> Result<(Manifest, Vec<DurableCut>), DurableError> {
    let manifest = read_manifest(dir)?;
    let mut cuts = Vec::with_capacity(manifest.pes);
    for pe in 0..manifest.pes {
        let cut = read_cut(dir, pe)?;
        if cut.pe as usize != pe || cut.pes as usize != manifest.pes {
            return Err(DurableError::Inconsistent {
                detail: format!(
                    "cut file for PE {pe} claims pe={} pes={}",
                    cut.pe, cut.pes
                ),
            });
        }
        if cut.nonce != manifest.nonce {
            return Err(DurableError::StaleSession {
                path: cut_path(dir, pe).display().to_string(),
                expected: manifest.nonce,
                found: cut.nonce,
            });
        }
        cuts.push(cut);
    }
    Ok((manifest, cuts))
}

/// Directory holding run `run`'s checkpoints under `base`. Run `0` is
/// the anonymous single-run namespace and maps to `base` itself — the
/// layout every pre-service driver wrote — while any other id gets its
/// own `run-<id>` subdirectory, so concurrent runs multiplexed onto
/// the same daemons can never collide on manifests, cuts, or outboxes.
pub fn run_dir(base: &Path, run: u64) -> PathBuf {
    if run == 0 {
        base.to_path_buf()
    } else {
        base.join(format!("run-{run}"))
    }
}

/// Run ids that have a `run-<id>` checkpoint subdirectory under
/// `base`, ascending. The anonymous namespace (`base` itself) is not a
/// run and is never listed.
pub fn list_run_dirs(base: &Path) -> Vec<u64> {
    let mut runs = Vec::new();
    let Ok(entries) = std::fs::read_dir(base) else {
        return runs;
    };
    for entry in entries.flatten() {
        if !entry.path().is_dir() {
            continue;
        }
        let name = entry.file_name();
        let Some(id) = name
            .to_str()
            .and_then(|n| n.strip_prefix("run-"))
            .and_then(|n| n.parse::<u64>().ok())
        else {
            continue;
        };
        runs.push(id);
    }
    runs.sort_unstable();
    runs
}

/// Retention for long-lived daemons: prune per-run checkpoint
/// subdirectories oldest-first (service run ids are monotonic, so the
/// lowest id is the oldest run) until at most `keep` completed runs
/// remain. A run for which `is_live` returns true is in flight — its
/// restorable cut is never deleted, regardless of `keep`. The
/// anonymous namespace (`base` itself) is never touched. Returns the
/// run ids whose directories were removed.
pub fn prune_run_dirs(base: &Path, keep: usize, is_live: &dyn Fn(u64) -> bool) -> Vec<u64> {
    let completed: Vec<u64> = list_run_dirs(base)
        .into_iter()
        .filter(|&run| !is_live(run))
        .collect();
    let excess = completed.len().saturating_sub(keep);
    let mut removed = Vec::new();
    for &run in completed.iter().take(excess) {
        if std::fs::remove_dir_all(run_dir(base, run)).is_ok() {
            removed.push(run);
        }
    }
    removed
}

/// Wrapper messenger that restores a parked event-waiter: its first
/// step re-issues the `WaitEvent`, then it delegates every later step
/// to the wrapped messenger. Injecting one at the waiter's origin PE
/// reproduces "parked on `key`" through the ordinary injection path —
/// no executor needs a special restore mode.
pub struct ResumeWait {
    /// The event the wrapped messenger was parked on.
    pub key: EventKey,
    issued: bool,
    inner: Box<dyn Messenger>,
}

impl ResumeWait {
    /// Wrap `inner`, to be parked on `key` again.
    pub fn new(key: EventKey, inner: Box<dyn Messenger>) -> ResumeWait {
        ResumeWait {
            key,
            issued: false,
            inner,
        }
    }

    /// Rebuild from a decoded wire snapshot (`issued` flag + key +
    /// inner snapshot already decoded by the registry layer).
    pub fn from_parts(key: EventKey, issued: bool, inner: Box<dyn Messenger>) -> ResumeWait {
        ResumeWait { key, issued, inner }
    }

    /// The wire tag `navp_net`'s registry registers for this type.
    pub const TAG: &'static str = "navp.ResumeWait";
}

impl Messenger for ResumeWait {
    fn step(&mut self, ctx: &mut MsgrCtx<'_>) -> Effect {
        if !self.issued {
            self.issued = true;
            return Effect::WaitEvent(self.key);
        }
        self.inner.step(ctx)
    }

    fn payload_bytes(&self) -> u64 {
        self.inner.payload_bytes()
    }

    fn label(&self) -> String {
        self.inner.label()
    }

    fn snapshot(&self) -> Option<Box<dyn Messenger>> {
        Some(Box::new(ResumeWait {
            key: self.key,
            issued: self.issued,
            inner: self.inner.snapshot()?,
        }))
    }

    fn wire_snapshot(&self) -> Option<WireSnapshot> {
        let inner = self.inner.wire_snapshot()?;
        let mut w = WireWriter::new();
        w.put_bool(self.issued);
        w.put_key(&self.key);
        w.put_str(&inner.tag);
        w.put_bytes(&inner.bytes);
        Some(WireSnapshot::new(ResumeWait::TAG, w.into_vec()))
    }
}

/// Reassemble a runnable [`Cluster`] from a full set of cuts.
///
/// Deterministic restore order: event counts first (banked signals),
/// then residents per PE in ascending id, then parked waiters (wrapped
/// in [`ResumeWait`]) in park order. The networked restore path must
/// have reconciled outboxes beforehand — an outbox frame newer than
/// its receiver's `recv_from` counter here is an error, because this
/// layer cannot interpret frame bytes.
pub fn restore_cluster(
    cuts: &[DurableCut],
    codec: &dyn DurableCodec,
) -> Result<Cluster, DurableError> {
    if cuts.is_empty() {
        return Err(DurableError::Inconsistent {
            detail: "no cuts to restore".into(),
        });
    }
    let pes = cuts[0].pes as usize;
    if cuts.len() != pes {
        return Err(DurableError::Inconsistent {
            detail: format!("{} cuts for a {pes}-PE cluster", cuts.len()),
        });
    }
    for (i, cut) in cuts.iter().enumerate() {
        if cut.pe as usize != i || cut.pes as usize != pes || cut.nonce != cuts[0].nonce {
            return Err(DurableError::Inconsistent {
                detail: format!("cut {i} claims pe={} pes={} nonce={:#x}", cut.pe, cut.pes, cut.nonce),
            });
        }
        for f in &cut.outbox {
            let dst = f.dst as usize;
            let seen = cuts
                .get(dst)
                .and_then(|c| c.recv_from.get(i))
                .copied()
                .unwrap_or(0);
            if f.seq > seen {
                return Err(DurableError::Inconsistent {
                    detail: format!(
                        "unreconciled in-flight frame {}→{} seq {} (receiver saw {}); \
                         the net restore path must reconcile outboxes first",
                        i, dst, f.seq, seen
                    ),
                });
            }
        }
    }
    let mut stores = Vec::with_capacity(pes);
    for cut in cuts {
        stores.push(
            codec
                .decode_store(&cut.store)
                .map_err(|detail| DurableError::Codec { detail })?,
        );
    }
    let mut cluster = Cluster::from_stores(stores);
    for cut in cuts {
        for (key, count) in &cut.events {
            for _ in 0..*count {
                cluster.signal_initial(*key);
            }
        }
    }
    for cut in cuts {
        for r in &cut.residents {
            let m = codec
                .decode_messenger(&r.snap)
                .map_err(|detail| DurableError::Codec { detail })?;
            cluster.inject(cut.pe as usize, m);
        }
    }
    for cut in cuts {
        for p in &cut.waiters {
            let inner = codec
                .decode_messenger(&p.snap)
                .map_err(|detail| DurableError::Codec { detail })?;
            cluster.inject(p.origin as usize, ResumeWait::new(p.key, inner));
        }
    }
    Ok(cluster)
}

#[cfg(test)]
mod tests {
    use super::*;
    use navp_sim::Key;

    #[test]
    fn container_roundtrip_and_corruption_detection() {
        let dir = std::env::temp_dir().join(format!("navp-durable-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("x.ckpt");
        let payload = b"hello durable world".to_vec();
        let n = write_container(&path, &payload).unwrap();
        assert_eq!(n, 8 + 4 + 8 + payload.len() as u64 + 8);
        assert_eq!(read_container(&path).unwrap(), payload);
        assert!(!path.with_extension("tmp").exists(), "tmp renamed away");

        // Flip one payload byte → checksum mismatch, with both sums in
        // the message.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[22] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let err = read_container(&path).unwrap_err();
        assert!(matches!(err, DurableError::ChecksumMismatch { .. }), "{err}");
        assert!(err.to_string().contains("corrupt"), "{err}");

        // Truncate → Truncated.
        std::fs::write(&path, &bytes[..bytes.len() - 11]).unwrap();
        assert!(matches!(
            read_container(&path).unwrap_err(),
            DurableError::Truncated { .. }
        ));

        // Foreign magic → BadMagic; future version → BadVersion.
        std::fs::write(&path, b"NOTACKPTxxxxxxxxxxxxxxxxxxxx").unwrap();
        assert!(matches!(
            read_container(&path).unwrap_err(),
            DurableError::BadMagic { .. }
        ));
        let mut fresh = Vec::new();
        fresh.extend_from_slice(MAGIC);
        fresh.extend_from_slice(&99u32.to_le_bytes());
        fresh.extend_from_slice(&0u64.to_le_bytes());
        fresh.extend_from_slice(&0u64.to_le_bytes());
        std::fs::write(&path, &fresh).unwrap();
        assert!(matches!(
            read_container(&path).unwrap_err(),
            DurableError::BadVersion { found: 99, .. }
        ));

        // Absent file → Missing.
        assert!(matches!(
            read_container(&dir.join("nope.ckpt")).unwrap_err(),
            DurableError::Missing { .. }
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_dir_namespacing() {
        let base = Path::new("/tmp/ckpt");
        assert_eq!(run_dir(base, 0), base, "run 0 is the legacy layout");
        assert_eq!(run_dir(base, 42), base.join("run-42"));
    }

    #[test]
    fn prune_keeps_live_and_newest_runs() {
        let base = std::env::temp_dir().join(format!("navp-prune-{}", std::process::id()));
        std::fs::remove_dir_all(&base).ok();
        // Five completed-looking runs plus cuts in the anonymous
        // namespace; run 3 is still in flight.
        for run in 1..=5u64 {
            let dir = run_dir(&base, run);
            write_manifest(&dir, &Manifest { pes: 2, nonce: run }).unwrap();
        }
        write_manifest(&base, &Manifest { pes: 2, nonce: 9 }).unwrap();
        assert_eq!(list_run_dirs(&base), vec![1, 2, 3, 4, 5]);

        let removed = prune_run_dirs(&base, 2, &|run| run == 3);
        // Oldest-first: of the completed runs {1,2,4,5}, keep the
        // newest two (4, 5); the live run 3 survives regardless.
        assert_eq!(removed, vec![1, 2]);
        assert_eq!(list_run_dirs(&base), vec![3, 4, 5]);
        assert!(
            read_manifest(&run_dir(&base, 3)).is_ok(),
            "in-flight run's restorable state untouched"
        );
        assert!(read_manifest(&base).is_ok(), "anonymous namespace untouched");

        // Once run 3 completes, keep=0 clears everything.
        let removed = prune_run_dirs(&base, 0, &|_| false);
        assert_eq!(removed, vec![3, 4, 5]);
        assert!(list_run_dirs(&base).is_empty());
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn cut_encode_decode_roundtrip() {
        let mut cut = DurableCut::new(1, 4, 0xD00D_FEED);
        cut.boundary = 17;
        cut.store = vec![1, 2, 3];
        cut.residents.push(ResidentMsgr {
            id: 9,
            label: "carrier".into(),
            snap: WireSnapshot::new("mm.X", vec![4, 5]),
        });
        cut.waiters.push(ParkedWaiter {
            id: 11,
            origin: 2,
            key: Key::at2("EP", 1, 2),
            snap: WireSnapshot::new("mm.Y", vec![6]),
        });
        cut.events.push((Key::at("EC", 3), 2));
        cut.sent_to = vec![0, 5, 0, 1];
        cut.recv_from = vec![2, 0, 0, 0];
        cut.outbox.push(OutFrame {
            dst: 3,
            seq: 1,
            bytes: vec![9, 9],
        });
        let back = DurableCut::decode(&cut.encode()).unwrap();
        assert_eq!(back, cut);

        // Trailing bytes rejected.
        let mut extra = cut.encode();
        extra.push(0);
        assert!(matches!(
            DurableCut::decode(&extra).unwrap_err(),
            DurableError::Codec { .. }
        ));
    }

    #[test]
    fn manifest_and_session_nonce_guard() {
        let dir = std::env::temp_dir().join(format!("navp-manifest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let m = Manifest { pes: 2, nonce: 7 };
        write_manifest(&dir, &m).unwrap();
        assert_eq!(read_manifest(&dir).unwrap(), m);

        let mut a = DurableCut::new(0, 2, 7);
        a.boundary = 1;
        write_cut(&dir, &a).unwrap();
        let mut b = DurableCut::new(1, 2, 99); // stale nonce
        b.boundary = 1;
        write_cut(&dir, &b).unwrap();
        let err = read_all_cuts(&dir).unwrap_err();
        assert!(matches!(err, DurableError::StaleSession { .. }), "{err}");
        assert!(err.to_string().contains("different session"), "{err}");

        let mut b = DurableCut::new(1, 2, 7);
        b.boundary = 1;
        write_cut(&dir, &b).unwrap();
        let (m2, cuts) = read_all_cuts(&dir).unwrap();
        assert_eq!(m2, m);
        assert_eq!(cuts.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }
}
