//! Durable job journal and snapshotted solution store: the crash-safety
//! substrate of the runtime.
//!
//! Two persistence artifacts make the service restartable without losing
//! or duplicating work:
//!
//! - **The job journal** — an append-only log of [`JournalEvent`]s written
//!   at the three lifecycle seams of a job: `Submitted` when it enters a
//!   queue (carrying the full encoded [`QuboModel`], seed, options, and
//!   backend choice — everything a replay needs), `Completed` when its
//!   result is delivered, and `Cancelled` when a handle removes it. A job
//!   that appears in the log without a terminal event is *unfinished*:
//!   the process died (or the job failed) before the result got out, and
//!   [`crate::service::SolverService::recover`] replays it through the
//!   normal pipeline. Per-job seeded RNGs make the replayed result
//!   bit-identical to what the crashed run would have produced.
//! - **The solution snapshot** — a point-in-time serialization of the
//!   result cache ([`SolutionSnapshot`]), restored on startup so a warm
//!   restart serves previously-solved fingerprints straight from cache
//!   without recompiling or re-solving anything.
//!
//! Both use the same hand-rolled length-prefixed binary codec as
//! [`QuboModel::to_bytes`] — the workspace has no serialization crates.
//! [`FileJournal`] is a write-ahead log: each record is a little-endian
//! `u32` payload length followed by the payload, appended and flushed per
//! event. Readers tolerate a torn tail (a record cut short by the crash is
//! ignored, never misparsed), and reopening the log cuts that tail off
//! before the next append — the standard WAL recovery contract. A log
//! written in another codec version is refused on open, never cut.

use crate::service::{BackendChoice, JobSpec, SharedProblem};
use crate::sync::LockExt;
use qdm_core::pipeline::{JobPriority, PipelineOptions};
use qdm_core::problem::{Decoded, DmProblem};
use qdm_qubo::model::QuboModel;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Version byte leading every journal record. Recovery keys on job ids; the
/// fingerprint in a `Completed` record is informational, so a change of
/// fingerprint hash leaves this version alone. Version 1 logs could carry a
/// third backend-choice tag that this build no longer has;
/// [`FileJournal::open`] refuses a log of any other version.
const JOURNAL_CODEC_VERSION: u8 = 2;

/// Magic prefix of a serialized [`SolutionSnapshot`].
const SNAPSHOT_MAGIC: &[u8; 7] = b"QDMSNAP";

/// Version byte following [`SNAPSHOT_MAGIC`]. Snapshot entries are keyed
/// by canonical fingerprints, so this moves whenever the fingerprint hash
/// or the canonical labeling changes: an image from an older build would
/// load entries that no key of this build can reach. Version 1 images used
/// byte-wise FNV-1a fingerprints.
const SNAPSHOT_FORMAT_VERSION: u8 = 2;

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// Everything a crashed run needs to re-execute a job identically: the
/// encoded model (not the un-serializable [`crate::service::SharedProblem`]
/// trait object), the seed that fixes the solve trajectory, and the
/// result-affecting pipeline options.
///
/// Deadlines are deliberately absent: they are scheduling-only state
/// measured from enqueue, meaningless after a restart.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmittedRecord {
    /// The job's service-assigned id. Recovery reuses it, so a replayed
    /// job's `Completed` event converges the journal instead of forking it.
    pub job_id: u64,
    /// The problem's [`DmProblem::name`] (also the cache-key namespace).
    pub problem: String,
    /// The full encoded model, captured at submit time.
    pub qubo: QuboModel,
    /// Result-affecting pipeline options, packed exactly like
    /// [`crate::cache::CacheKey::options_bits`]
    /// (`presolve | decompose<<1 | repair<<2`).
    pub options_bits: u8,
    /// Queue priority (scheduling-only, but preserved so a replayed
    /// backlog drains in the same order).
    pub priority: JobPriority,
    /// The job's RNG seed — the reproducibility anchor.
    pub seed: u64,
    /// Backend selection policy.
    pub backend: BackendChoice,
    /// Submitting tenant, for jobs that arrived through a cluster session.
    pub tenant: Option<String>,
    /// Shard the job was queued on, for cluster-submitted jobs.
    pub shard: Option<u64>,
}

impl SubmittedRecord {
    /// Rebuilds the [`JobSpec`] this record was captured from, around the
    /// given problem implementation — either the original (via
    /// [`crate::service::SolverService::recover_with`]'s resolver) or the
    /// journal's own [`JournaledProblem`] stand-in.
    pub fn to_spec(&self, problem: SharedProblem) -> JobSpec {
        let options = PipelineOptions {
            presolve: self.options_bits & 1 != 0,
            decompose: self.options_bits & 2 != 0,
            repair: self.options_bits & 4 != 0,
            priority: self.priority,
            ..PipelineOptions::default()
        };
        JobSpec { problem, options, seed: self.seed, backend: self.backend.clone(), deadline: None }
    }

    /// The stand-in problem for replays with no resolver: carries the
    /// journaled model verbatim, so compilation, solving, and the solved
    /// bits/energy are bit-identical to the original run. Only the decoded
    /// problem-level *summary* is generic — the original trait object's
    /// domain `decode`/`repair` logic cannot be serialized.
    pub fn fallback_problem(&self) -> SharedProblem {
        Arc::new(JournaledProblem::new(self.problem.clone(), self.qubo.clone()))
    }
}

/// One entry of the append-only job journal.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalEvent {
    /// A job entered a service queue.
    Submitted(SubmittedRecord),
    /// A job's result was delivered to its completion slot.
    Completed {
        /// The finished job.
        job_id: u64,
        /// Canonical fingerprint of the job's model.
        fingerprint: u64,
    },
    /// A job was cancelled through its handle.
    Cancelled {
        /// The cancelled job.
        job_id: u64,
    },
}

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    put_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u64(out, b.len() as u64);
    out.extend_from_slice(b);
}

fn put_opt_string(out: &mut Vec<u8>, s: Option<&str>) {
    match s {
        Some(s) => {
            out.push(1);
            put_string(out, s);
        }
        None => out.push(0),
    }
}

fn put_bools(out: &mut Vec<u8>, bits: &[bool]) {
    put_u64(out, bits.len() as u64);
    out.extend(bits.iter().map(|&b| b as u8));
}

/// Bounds-checked little-endian reader over a byte slice; every accessor
/// answers `None` past the end, so torn or corrupt records fail decoding
/// cleanly instead of panicking.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn f64(&mut self) -> Option<f64> {
        Some(f64::from_bits(self.u64()?))
    }

    fn len(&mut self) -> Option<usize> {
        let n = self.u64()?;
        // A length prefix can never legitimately exceed what remains.
        let n = usize::try_from(n).ok()?;
        (n <= self.buf.len() - self.pos).then_some(n)
    }

    fn string(&mut self) -> Option<String> {
        let n = self.len()?;
        String::from_utf8(self.take(n)?.to_vec()).ok()
    }

    fn bytes(&mut self) -> Option<&'a [u8]> {
        let n = self.len()?;
        self.take(n)
    }

    fn opt_string(&mut self) -> Option<Option<String>> {
        match self.u8()? {
            0 => Some(None),
            1 => Some(Some(self.string()?)),
            _ => None,
        }
    }

    fn bools(&mut self) -> Option<Vec<bool>> {
        let n = self.len()?;
        Some(self.take(n)?.iter().map(|&b| b != 0).collect())
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

fn priority_code(p: JobPriority) -> u8 {
    match p {
        JobPriority::Normal => 0,
        JobPriority::High => 1,
        JobPriority::Low => 2,
    }
}

fn priority_from(code: u8) -> Option<JobPriority> {
    match code {
        0 => Some(JobPriority::Normal),
        1 => Some(JobPriority::High),
        2 => Some(JobPriority::Low),
        _ => None,
    }
}

fn put_backend(out: &mut Vec<u8>, backend: &BackendChoice) {
    match backend {
        BackendChoice::Auto => out.push(0),
        BackendChoice::Named(name) => {
            out.push(1);
            put_string(out, name);
        }
    }
}

fn read_backend(r: &mut Reader<'_>) -> Option<BackendChoice> {
    match r.u8()? {
        0 => Some(BackendChoice::Auto),
        1 => Some(BackendChoice::Named(r.string()?)),
        _ => None,
    }
}

impl JournalEvent {
    /// Serializes the event to the journal's versioned binary form.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = vec![JOURNAL_CODEC_VERSION];
        match self {
            JournalEvent::Submitted(rec) => {
                out.push(0);
                put_u64(&mut out, rec.job_id);
                put_string(&mut out, &rec.problem);
                put_bytes(&mut out, &rec.qubo.to_bytes());
                out.push(rec.options_bits);
                out.push(priority_code(rec.priority));
                put_u64(&mut out, rec.seed);
                put_backend(&mut out, &rec.backend);
                put_opt_string(&mut out, rec.tenant.as_deref());
                match rec.shard {
                    Some(shard) => {
                        out.push(1);
                        put_u64(&mut out, shard);
                    }
                    None => out.push(0),
                }
            }
            JournalEvent::Completed { job_id, fingerprint } => {
                out.push(1);
                put_u64(&mut out, *job_id);
                put_u64(&mut out, *fingerprint);
            }
            JournalEvent::Cancelled { job_id } => {
                out.push(2);
                put_u64(&mut out, *job_id);
            }
        }
        out
    }

    /// Decodes one event; `None` on version mismatch, truncation, or any
    /// malformed field (the torn-tail case).
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let mut r = Reader::new(bytes);
        if r.u8()? != JOURNAL_CODEC_VERSION {
            return None;
        }
        let event = match r.u8()? {
            0 => {
                let job_id = r.u64()?;
                let problem = r.string()?;
                let qubo = QuboModel::from_bytes(r.bytes()?)?;
                let options_bits = r.u8()?;
                let priority = priority_from(r.u8()?)?;
                let seed = r.u64()?;
                let backend = read_backend(&mut r)?;
                let tenant = r.opt_string()?;
                let shard = match r.u8()? {
                    0 => None,
                    1 => Some(r.u64()?),
                    _ => return None,
                };
                JournalEvent::Submitted(SubmittedRecord {
                    job_id,
                    problem,
                    qubo,
                    options_bits,
                    priority,
                    seed,
                    backend,
                    tenant,
                    shard,
                })
            }
            1 => JournalEvent::Completed { job_id: r.u64()?, fingerprint: r.u64()? },
            2 => JournalEvent::Cancelled { job_id: r.u64()? },
            _ => return None,
        };
        r.done().then_some(event)
    }
}

// ---------------------------------------------------------------------------
// Journal implementations
// ---------------------------------------------------------------------------

/// An append-only event log the service writes job lifecycle records to.
///
/// Implementations must be safe to call from racing worker threads;
/// `append` is called under no service locks. [`MemoryJournal`] backs
/// tests and single-process crash simulation; [`FileJournal`] is the
/// durable write-ahead log.
pub trait Journal: Send + Sync {
    /// Appends one event. Must be atomic with respect to other appenders.
    fn append(&self, event: JournalEvent);

    /// All decodable events, in append order.
    fn events(&self) -> Vec<JournalEvent>;
}

/// An in-process journal: a mutex-guarded event vector. Survives a
/// *simulated* crash ([`crate::service::SolverService::simulate_crash`])
/// because the test holds the `Arc`, exactly as a file would survive a
/// real one.
#[derive(Debug, Default)]
pub struct MemoryJournal {
    events: Mutex<Vec<JournalEvent>>,
}

impl MemoryJournal {
    /// An empty journal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of events appended so far.
    pub fn len(&self) -> usize {
        self.events.lock_unpoisoned().len()
    }

    /// Whether nothing has been journaled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Journal for MemoryJournal {
    fn append(&self, event: JournalEvent) {
        self.events.lock_unpoisoned().push(event);
    }

    fn events(&self) -> Vec<JournalEvent> {
        self.events.lock_unpoisoned().clone()
    }
}

/// A file-backed write-ahead log: `u32`-LE length prefix + encoded payload
/// per record, appended and flushed per event.
///
/// Reading tolerates a torn tail — a trailing record whose prefix or
/// payload was cut short by a crash is ignored, and every record before it
/// is still served. [`FileJournal::open`] repairs the tail: it truncates
/// the file to its last whole record before appending, so records written
/// after a crash are never hidden behind the torn one.
#[derive(Debug)]
pub struct FileJournal {
    path: PathBuf,
    file: Mutex<File>,
}

impl FileJournal {
    /// Opens (creating if absent) the journal at `path` for appending.
    /// Existing whole records are preserved and served by
    /// [`Journal::events`]; a torn or corrupt tail left by a crash is cut
    /// off first. A whole record written in another codec version is no
    /// tail: the open fails with [`io::ErrorKind::InvalidData`] and leaves
    /// the file as it found it.
    pub fn open(path: impl Into<PathBuf>) -> io::Result<Self> {
        let path = path.into();
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let buf = std::fs::read(&path)?;
        let (_, whole) = decode_records(&buf);
        if let Some(version) = whole_record_version(&buf[whole..]) {
            if version != JOURNAL_CODEC_VERSION {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "{}: record at byte {whole} has journal codec version {version}, \
                         this build reads version {JOURNAL_CODEC_VERSION}",
                        path.display()
                    ),
                ));
            }
        }
        if whole < buf.len() {
            file.set_len(whole as u64)?;
        }
        Ok(Self { path, file: Mutex::new(file) })
    }

    /// The log's location on disk.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Journal for FileJournal {
    fn append(&self, event: JournalEvent) {
        let payload = event.to_bytes();
        let mut record = Vec::with_capacity(4 + payload.len());
        record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        record.extend_from_slice(&payload);
        let mut file = self.file.lock_unpoisoned();
        // One write per record keeps concurrent appenders' records intact
        // (never interleaved), and the flush moves it to the OS before the
        // caller proceeds — the write-ahead contract.
        if file.write_all(&record).is_ok() {
            let _ = file.flush();
        }
    }

    fn events(&self) -> Vec<JournalEvent> {
        let Ok(buf) = std::fs::read(&self.path) else { return Vec::new() };
        decode_records(&buf).0
    }
}

/// Decodes the log's records up to the first one a crash cut short or
/// corrupted, returning them with the byte length of that whole prefix.
fn decode_records(buf: &[u8]) -> (Vec<JournalEvent>, usize) {
    let mut events = Vec::new();
    let mut pos = 0usize;
    while pos + 4 <= buf.len() {
        let len = u32::from_le_bytes(buf[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let Some(end) = pos.checked_add(4).and_then(|p| p.checked_add(len)) else { break };
        if end > buf.len() {
            break; // torn tail: the crash cut this record short
        }
        match JournalEvent::from_bytes(&buf[pos + 4..end]) {
            Some(event) => events.push(event),
            None => break, // corrupt tail: stop at the last good record
        }
        pos = end;
    }
    (events, pos)
}

/// The version byte of the record `buf` starts with, when the whole record
/// is there; `None` for a record a crash cut short.
fn whole_record_version(buf: &[u8]) -> Option<u8> {
    let len = u32::from_le_bytes(buf.get(..4)?.try_into().expect("4 bytes")) as usize;
    buf.get(4..)?.get(..len)?.first().copied()
}

/// The submissions in `events` with no terminal (`Completed`/`Cancelled`)
/// event — the jobs a crashed run still owes answers for — in original
/// submission order. This is exactly the set
/// [`crate::service::SolverService::recover`] replays.
pub fn unfinished(events: &[JournalEvent]) -> Vec<SubmittedRecord> {
    use std::collections::HashSet;
    let mut finished: HashSet<u64> = HashSet::new();
    for event in events {
        match event {
            JournalEvent::Completed { job_id, .. } | JournalEvent::Cancelled { job_id } => {
                finished.insert(*job_id);
            }
            JournalEvent::Submitted(_) => {}
        }
    }
    events
        .iter()
        .filter_map(|event| match event {
            JournalEvent::Submitted(rec) if !finished.contains(&rec.job_id) => Some(rec.clone()),
            _ => None,
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Replay stand-in problem
// ---------------------------------------------------------------------------

/// A [`DmProblem`] reconstructed from a journal record: carries the
/// journaled [`QuboModel`] verbatim, so a replay compiles and solves the
/// exact model the original run did — bits and energy bit-identical.
///
/// The original trait object's domain logic is not serializable, so
/// `decode` reports QUBO-level facts (energy as the objective, a generic
/// summary) and `repair` is the identity. Replays needing full decode
/// fidelity pass a resolver to
/// [`crate::service::SolverService::recover_with`] instead.
#[derive(Debug, Clone)]
pub struct JournaledProblem {
    name: String,
    qubo: Arc<QuboModel>,
}

impl JournaledProblem {
    /// Wraps a journaled model under its original problem name.
    pub fn new(name: String, qubo: QuboModel) -> Self {
        Self { name, qubo: Arc::new(qubo) }
    }
}

impl DmProblem for JournaledProblem {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn n_vars(&self) -> usize {
        self.qubo.n_vars()
    }

    fn to_qubo(&self) -> QuboModel {
        (*self.qubo).clone()
    }

    fn decode(&self, bits: &[bool]) -> Decoded {
        let set = bits.iter().filter(|&&b| b).count();
        Decoded {
            feasible: true,
            objective: self.qubo.energy(bits),
            summary: format!("journal replay: {set}/{} bits set", bits.len()),
        }
    }
}

// ---------------------------------------------------------------------------
// Solution snapshot
// ---------------------------------------------------------------------------

use crate::cache::{CacheKey, CachedResult};
use qdm_core::pipeline::PipelineReport;

/// A point-in-time image of the result cache — every `(key, result)` pair —
/// serializable to one snapshot file and restorable into a fresh service.
///
/// A restored snapshot makes a restart *warm*: a resubmission of any
/// snapshotted fingerprint is served from cache without compiling or
/// solving anything (observable via
/// [`qdm_qubo::compiled::compilation_count`]).
#[derive(Debug, Clone, Default)]
pub struct SolutionSnapshot {
    /// The cached entries, in cache-shard iteration order.
    pub entries: Vec<(CacheKey, CachedResult)>,
}

fn put_cache_key(out: &mut Vec<u8>, key: &CacheKey) {
    put_string(out, &key.problem);
    put_u64(out, key.qubo_fingerprint);
    out.push(key.options_bits);
    put_u64(out, key.seed);
    put_opt_string(out, key.backend.as_deref());
}

fn read_cache_key(r: &mut Reader<'_>) -> Option<CacheKey> {
    Some(CacheKey {
        problem: r.string()?,
        qubo_fingerprint: r.u64()?,
        options_bits: r.u8()?,
        seed: r.u64()?,
        backend: r.opt_string()?,
    })
}

fn put_report(out: &mut Vec<u8>, report: &PipelineReport) {
    put_string(out, &report.problem);
    put_string(out, &report.solver);
    put_u64(out, report.n_vars as u64);
    put_u64(out, report.max_subproblem_vars as u64);
    put_u64(out, report.components as u64);
    put_u64(out, report.presolve_fixed as u64);
    put_bools(out, &report.bits);
    put_u64(out, report.energy.to_bits());
    out.push(report.decoded.feasible as u8);
    put_u64(out, report.decoded.objective.to_bits());
    put_string(out, &report.decoded.summary);
    put_u64(out, report.evaluations);
    put_u64(out, report.seconds.to_bits());
}

fn read_report(r: &mut Reader<'_>) -> Option<PipelineReport> {
    Some(PipelineReport {
        problem: r.string()?,
        solver: r.string()?,
        n_vars: usize::try_from(r.u64()?).ok()?,
        max_subproblem_vars: usize::try_from(r.u64()?).ok()?,
        components: usize::try_from(r.u64()?).ok()?,
        presolve_fixed: usize::try_from(r.u64()?).ok()?,
        bits: r.bools()?,
        energy: r.f64()?,
        decoded: Decoded { feasible: r.u8()? != 0, objective: r.f64()?, summary: r.string()? },
        evaluations: r.u64()?,
        seconds: r.f64()?,
    })
}

impl SolutionSnapshot {
    /// Number of cached results in the image.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the image holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Serializes the snapshot: magic + version header, entry count, then
    /// each `(key, result)` pair in the shared length-prefixed codec.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(SNAPSHOT_MAGIC);
        out.push(SNAPSHOT_FORMAT_VERSION);
        put_u64(&mut out, self.entries.len() as u64);
        for (key, value) in &self.entries {
            put_cache_key(&mut out, key);
            put_report(&mut out, &value.report);
            put_bools(&mut out, &value.canonical_bits);
            put_string(&mut out, &value.backend);
        }
        out
    }

    /// Decodes a snapshot image; `None` on bad magic, version mismatch
    /// (including images from builds with another fingerprint hash),
    /// truncation, or trailing garbage.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let mut r = Reader::new(bytes);
        if r.take(SNAPSHOT_MAGIC.len())? != SNAPSHOT_MAGIC || r.u8()? != SNAPSHOT_FORMAT_VERSION {
            return None;
        }
        let count = usize::try_from(r.u64()?).ok()?;
        let mut entries = Vec::with_capacity(count.min(1 << 16));
        for _ in 0..count {
            let key = read_cache_key(&mut r)?;
            let report = read_report(&mut r)?;
            let canonical_bits = r.bools()?;
            let backend = r.string()?;
            entries.push((key, CachedResult { report, canonical_bits, backend }));
        }
        r.done().then_some(Self { entries })
    }

    /// Writes the snapshot atomically: to a `.tmp` sibling first, then
    /// renamed over `path`, so a crash mid-write never leaves a half
    /// snapshot where a reader expects a whole one.
    pub fn write_to(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref();
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, self.to_bytes())?;
        std::fs::rename(&tmp, path)
    }

    /// Reads and decodes a snapshot file; decode failures surface as
    /// [`io::ErrorKind::InvalidData`].
    pub fn read_from(path: impl AsRef<Path>) -> io::Result<Self> {
        let bytes = std::fs::read(path)?;
        Self::from_bytes(&bytes)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed snapshot image"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_qubo() -> QuboModel {
        let mut q = QuboModel::new(3);
        q.add_linear(0, 1.5);
        q.add_linear(2, -0.5);
        q.add_quadratic(0, 1, 2.0);
        q.add_offset(0.25);
        q
    }

    fn submitted(job_id: u64) -> JournalEvent {
        JournalEvent::Submitted(SubmittedRecord {
            job_id,
            problem: format!("p{job_id}"),
            qubo: sample_qubo(),
            options_bits: 0b101,
            priority: JobPriority::High,
            seed: 42 + job_id,
            backend: BackendChoice::Auto,
            tenant: Some("tenant-a".into()),
            shard: Some(3),
        })
    }

    #[test]
    fn events_round_trip_through_the_codec() {
        for event in [
            submitted(7),
            JournalEvent::Submitted(SubmittedRecord {
                job_id: 1,
                problem: "bare".into(),
                qubo: QuboModel::new(0),
                options_bits: 0,
                priority: JobPriority::Low,
                seed: 0,
                backend: BackendChoice::Named("tabu".into()),
                tenant: None,
                shard: None,
            }),
            JournalEvent::Completed { job_id: 9, fingerprint: 0xDEAD_BEEF },
            JournalEvent::Cancelled { job_id: 4 },
        ] {
            let bytes = event.to_bytes();
            assert_eq!(JournalEvent::from_bytes(&bytes), Some(event.clone()));
            // Truncation at every prefix fails cleanly, never panics.
            for cut in 0..bytes.len() {
                assert_eq!(JournalEvent::from_bytes(&bytes[..cut]), None, "cut at {cut}");
            }
            // Trailing garbage is rejected too.
            let mut padded = bytes.clone();
            padded.push(0);
            assert_eq!(JournalEvent::from_bytes(&padded), None);
        }
    }

    #[test]
    fn unfinished_is_submitted_minus_terminal_in_order() {
        let events = vec![
            submitted(1),
            submitted(2),
            JournalEvent::Completed { job_id: 1, fingerprint: 5 },
            submitted(3),
            JournalEvent::Cancelled { job_id: 3 },
            submitted(4),
        ];
        let open = unfinished(&events);
        assert_eq!(open.iter().map(|r| r.job_id).collect::<Vec<_>>(), vec![2, 4]);
    }

    #[test]
    fn memory_journal_preserves_append_order() {
        let journal = MemoryJournal::new();
        journal.append(submitted(1));
        journal.append(JournalEvent::Completed { job_id: 1, fingerprint: 0 });
        assert_eq!(journal.len(), 2);
        let events = journal.events();
        assert!(matches!(events[0], JournalEvent::Submitted(_)));
        assert!(matches!(events[1], JournalEvent::Completed { job_id: 1, .. }));
    }

    #[test]
    fn file_journal_survives_reopen_and_tolerates_torn_tail() {
        let dir = std::env::temp_dir().join("qdm-journal-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join(format!("wal-{}.log", std::process::id()));
        let _ = std::fs::remove_file(&path);

        {
            let journal = FileJournal::open(&path).expect("open");
            journal.append(submitted(1));
            journal.append(submitted(2));
            journal.append(JournalEvent::Completed { job_id: 1, fingerprint: 77 });
        }
        // Reopen: existing records are served, appends continue after them.
        let journal = FileJournal::open(&path).expect("reopen");
        assert_eq!(journal.events().len(), 3);
        journal.append(JournalEvent::Cancelled { job_id: 2 });
        assert_eq!(journal.events().len(), 4);
        assert!(unfinished(&journal.events()).is_empty());

        // Simulate a torn tail: a length prefix promising more bytes than
        // the crash left behind. Every whole record still reads back.
        {
            let mut raw = std::fs::OpenOptions::new().append(true).open(&path).expect("raw");
            raw.write_all(&999u32.to_le_bytes()).expect("torn prefix");
            raw.write_all(&[1, 2, 3]).expect("torn payload");
        }
        assert_eq!(journal.events().len(), 4, "torn tail is ignored, good prefix served");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn appends_after_a_torn_tail_survive_the_next_reopen() {
        let dir = std::env::temp_dir().join("qdm-journal-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join(format!("wal-torn-{}.log", std::process::id()));
        let _ = std::fs::remove_file(&path);

        {
            let journal = FileJournal::open(&path).expect("open");
            journal.append(submitted(1));
            journal.append(submitted(2));
        }
        // The crash cut the third record short.
        {
            let mut raw = std::fs::OpenOptions::new().append(true).open(&path).expect("raw");
            raw.write_all(&64u32.to_le_bytes()).expect("torn prefix");
            raw.write_all(&[JOURNAL_CODEC_VERSION, 0, 9]).expect("torn payload");
        }
        // Restart: the completion written after the torn tail must be
        // read back on the restart after that.
        FileJournal::open(&path)
            .expect("reopen")
            .append(JournalEvent::Completed { job_id: 1, fingerprint: 7 });
        let events = FileJournal::open(&path).expect("reopen again").events();
        assert_eq!(events.len(), 3, "the post-crash append is readable");
        assert!(matches!(events[2], JournalEvent::Completed { job_id: 1, fingerprint: 7 }));
        let open: Vec<u64> = unfinished(&events).iter().map(|r| r.job_id).collect();
        assert_eq!(open, vec![2]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_journal_of_another_codec_version_is_refused_and_left_intact() {
        let dir = std::env::temp_dir().join("qdm-journal-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        for version in [JOURNAL_CODEC_VERSION - 1, JOURNAL_CODEC_VERSION + 1] {
            let path = dir.join(format!("wal-v{version}-{}.log", std::process::id()));
            let _ = std::fs::remove_file(&path);
            {
                let journal = FileJournal::open(&path).expect("open");
                journal.append(submitted(1));
                journal.append(JournalEvent::Completed { job_id: 1, fingerprint: 7 });
            }
            // Rewrite every record's version byte, as a build writing
            // another codec version would have left the log.
            let mut raw = std::fs::read(&path).expect("read");
            let mut pos = 0;
            while pos < raw.len() {
                let len = u32::from_le_bytes(raw[pos..pos + 4].try_into().unwrap()) as usize;
                raw[pos + 4] = version;
                pos += 4 + len;
            }
            std::fs::write(&path, &raw).expect("rewrite");

            let err = FileJournal::open(&path).expect_err("another version is refused");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
            assert_eq!(std::fs::read(&path).expect("read"), raw, "the log is left untouched");
            let _ = std::fs::remove_file(&path);
        }
    }

    /// Lowercase hex of `bytes`.
    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The encoded bytes of three fixed records, past the version byte. A
    /// codec change that grows a record grows every journaled job's WAL
    /// footprint, so these stay pinned.
    #[test]
    fn record_encodings_are_pinned() {
        let record = |backend| {
            JournalEvent::Submitted(SubmittedRecord {
                job_id: 5,
                problem: "mqo".into(),
                qubo: sample_qubo(),
                options_bits: 0b001,
                priority: JobPriority::Normal,
                seed: 11,
                backend,
                tenant: None,
                shard: None,
            })
        };
        let encoded: Vec<String> = [
            record(BackendChoice::Auto),
            record(BackendChoice::Named("tabu".into())),
            JournalEvent::Completed { job_id: 5, fingerprint: 0x0123_4567_89AB_CDEF },
        ]
        .iter()
        .map(|event| {
            let bytes = event.to_bytes();
            assert_eq!(bytes[0], JOURNAL_CODEC_VERSION);
            hex(&bytes[1..])
        })
        .collect();
        let qubo = "4900000000000000010300000000000000000000000000f83f0000000000000000000000000000e0bf\
                    0100000000000000000000000000000001000000000000000000000000000040000000000000d03f";
        // Tag, job id, problem name, model, options, priority, seed; then
        // the backend, the (absent) tenant and the (absent) shard.
        let submitted =
            format!("00050000000000000003000000000000006d716f{qubo}01000b00000000000000");
        assert_eq!(
            encoded,
            [
                format!("{submitted}00_00_00").replace('_', ""),
                format!("{submitted}01_040000000000000074616275_00_00").replace('_', ""),
                "01_0500000000000000_efcdab8967452301".replace('_', ""),
            ]
        );
    }

    #[test]
    fn journaled_problem_reproduces_the_model() {
        let qubo = sample_qubo();
        let rec = SubmittedRecord {
            job_id: 1,
            problem: "orig".into(),
            qubo: qubo.clone(),
            options_bits: 0b001,
            priority: JobPriority::Normal,
            seed: 9,
            backend: BackendChoice::Auto,
            tenant: None,
            shard: None,
        };
        let problem = rec.fallback_problem();
        assert_eq!(problem.name(), "orig");
        assert_eq!(problem.n_vars(), 3);
        assert_eq!(problem.to_qubo().fingerprint(), qubo.fingerprint());
        let bits = [true, false, true];
        let decoded = problem.decode(&bits);
        assert_eq!(decoded.objective, qubo.energy(&bits));
        let spec = rec.to_spec(problem);
        assert!(spec.options.presolve);
        assert!(!spec.options.decompose);
        assert_eq!(spec.seed, 9);
        assert!(spec.deadline.is_none());
    }

    #[test]
    fn snapshot_round_trips_and_rejects_corruption() {
        let report = PipelineReport {
            problem: "p".into(),
            solver: "sa".into(),
            n_vars: 3,
            max_subproblem_vars: 3,
            components: 1,
            presolve_fixed: 0,
            bits: vec![true, false, true],
            energy: -1.25,
            decoded: Decoded { feasible: true, objective: -1.25, summary: "ok".into() },
            evaluations: 600,
            seconds: 0.001,
        };
        let snapshot = SolutionSnapshot {
            entries: vec![(
                CacheKey {
                    problem: "p".into(),
                    qubo_fingerprint: 0xABCD,
                    options_bits: 1,
                    seed: 7,
                    backend: None,
                },
                CachedResult {
                    report,
                    canonical_bits: vec![true, true, false],
                    backend: "sa".into(),
                },
            )],
        };
        let bytes = snapshot.to_bytes();
        let back = SolutionSnapshot::from_bytes(&bytes).expect("round trip");
        assert_eq!(back.len(), 1);
        assert_eq!(back.entries[0].0, snapshot.entries[0].0);
        assert_eq!(back.entries[0].1.report.bits, vec![true, false, true]);
        assert_eq!(back.entries[0].1.report.energy, -1.25);
        assert!(SolutionSnapshot::from_bytes(&bytes[..bytes.len() - 1]).is_none());
        assert!(SolutionSnapshot::from_bytes(b"not a snapshot").is_none());

        let dir = std::env::temp_dir().join("qdm-journal-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join(format!("snap-{}.bin", std::process::id()));
        snapshot.write_to(&path).expect("write");
        let read = SolutionSnapshot::read_from(&path).expect("read");
        assert_eq!(read.len(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn snapshot_from_an_older_fingerprint_hash_is_refused() {
        let bytes = SolutionSnapshot::default().to_bytes();
        assert_eq!(bytes[SNAPSHOT_MAGIC.len()], SNAPSHOT_FORMAT_VERSION);
        assert!(SolutionSnapshot::from_bytes(&bytes).is_some());
        // Version 1 images were keyed by byte-wise FNV-1a fingerprints.
        let mut old = bytes;
        old[SNAPSHOT_MAGIC.len()] = 1;
        assert!(SolutionSnapshot::from_bytes(&old).is_none());
    }
}
