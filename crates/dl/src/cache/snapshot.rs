//! Crash-safe snapshot/restore for [`SatShards`]: a versioned,
//! checksummed byte format over every cached verdict (witnesses, unsat
//! cores, MUS families and the cross-shard seed pool included), keyed on
//! the TBox revision it was proved against.
//!
//! # Why this is sound
//!
//! A snapshot is only ever **installed** ([`SatShards::restore`]) when
//! three independent gates pass:
//!
//! 1. **Integrity** — magic, version, length and an FNV-1a checksum over
//!    the payload. Truncated or bit-flipped bytes are rejected before a
//!    single entry is decoded; a decode error mid-payload rejects the
//!    whole blob (two-phase: decode fully, then commit — a malformed
//!    snapshot can never leave partial state behind).
//! 2. **Provenance** — the target TBox must reach the snapshot's
//!    revision by **pure additions only** (its delta log is consulted via
//!    [`TBox::delta_since`]), its per-kind axiom counts at that revision
//!    must equal the snapshot's, and a content fingerprint over the
//!    name-table and axiom-store *prefixes* must match. TBox uids are
//!    process-unique, so a restarted process holds a different uid for
//!    "the same" terminology — the fingerprint is what proves the
//!    terminologies are really the same up to the snapshot revision.
//! 3. **Staleness** — entries are installed stamped `(current_uid,
//!    snapshot_revision)`. If the TBox has grown since the snapshot, the
//!    first query runs the ordinary delta-retention machinery
//!    ([`super::SatCache`]'s `validate`): `Unsat` entries are retained,
//!    `Sat` witnesses are revalidated against the added axioms, and
//!    `Unknown`s are evicted — the restored process *revalidates against
//!    the log instead of re-proving*, and a verdict that does not
//!    provably transfer is dropped, never replayed.
//!
//! Every rejection (corrupt bytes *or* provenance mismatch) counts one
//! [`CacheStats::corrupt_rejected`] and leaves the cache exactly as it
//! was — a cold shard set degrades to re-proving, never to a panic or a
//! stale verdict.
//!
//! # Format (version 2)
//!
//! ```text
//! magic    b"ORMSNAP"          7 bytes
//! version  0x02                1 byte
//! len      payload length      u64 LE
//! payload  see below           len bytes
//! checksum FNV-1a-64(payload)  u64 LE
//! ```
//!
//! Payload: revision `u64`; atom/role/gci/role-inclusion/disjointness
//! counts (`u32` each); prefix fingerprint `u64`; entry list (count +
//! per-entry key concepts and verdict body — a Sat witness stores its
//! per-node labels, its parent-edge role sets, and per node the sorted
//! roles it has a neighbour over); seed-pool axiom ids. All
//! integers little-endian; concepts as a tagged preorder walk; roles as
//! the global `RoleExprId` (`2·name + inverse` — arena-independent).
//! Extend the format by bumping the version byte; readers reject
//! unknown versions outright.

use super::{fold_root, shape_hash, Entry, SatShards};
use crate::arena::{role_expr_of, ConceptId, RoleExprId};
use crate::concept::{Concept, RoleExpr};
use crate::explain::{MusFamily, UnsatCore};
use crate::tableau::{Witness, WitnessParts};
use crate::tbox::{AxiomId, AxiomKind, Delta, TBox};
use std::fmt;

#[cfg(doc)]
use super::CacheStats;

const MAGIC: [u8; 7] = *b"ORMSNAP";
const VERSION: u8 = 2;
/// Nesting cap for decoded concepts — honest snapshots hold shallow
/// trees; the cap keeps a malicious blob from recursing the stack away.
const MAX_CONCEPT_DEPTH: u32 = 256;

/// Why [`SatShards::restore`] refused a snapshot blob. Every variant
/// leaves the cache untouched (cold-start semantics); each rejection is
/// counted in [`CacheStats::corrupt_rejected`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// The blob is shorter (or longer) than its header claims.
    Truncated,
    /// The magic bytes are not `b"ORMSNAP"`.
    BadMagic,
    /// A version this build does not read.
    BadVersion(u8),
    /// The payload checksum does not match — bit rot or a torn write.
    ChecksumMismatch,
    /// The target TBox is not an addition-only descendant of the
    /// snapshot's TBox (destructive edits, diverged content, or counts
    /// that do not line up).
    StampMismatch,
    /// The cache already holds entries; restore only installs into a
    /// cold (empty) shard set.
    WarmCache,
    /// The payload decoded inconsistently (out-of-range ids, unknown
    /// tags, trailing bytes, …).
    Malformed(&'static str),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::BadMagic => write!(f, "not a snapshot (bad magic)"),
            SnapshotError::BadVersion(v) => write!(f, "unsupported snapshot version {v}"),
            SnapshotError::ChecksumMismatch => write!(f, "snapshot checksum mismatch"),
            SnapshotError::StampMismatch => write!(f, "snapshot does not match the TBox"),
            SnapshotError::WarmCache => write!(f, "cache is not cold"),
            SnapshotError::Malformed(what) => write!(f, "malformed snapshot: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// What a successful [`SatShards::restore`] installed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RestoreReport {
    /// Verdict entries installed across all shards.
    pub entries: usize,
    /// `Sat` entries that came with a stored witness model.
    pub witnesses: usize,
    /// `Unsat` entries that came with a certified core.
    pub cores: usize,
    /// `Unsat` entries that came with a MUS family.
    pub families: usize,
    /// Axiom ids restored into the cross-shard seed pool.
    pub seeds: usize,
}

// ---------------------------------------------------------------------------
// Checksum

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------------
// Encoding

#[derive(Default)]
struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    fn role(&mut self, r: RoleExpr) {
        self.u32(crate::arena::role_expr_id(r));
    }

    fn concept(&mut self, c: &Concept) {
        match c {
            Concept::Top => self.u8(0),
            Concept::Bottom => self.u8(1),
            Concept::Atomic(a) => {
                self.u8(2);
                self.u32(*a);
            }
            Concept::NotAtomic(a) => {
                self.u8(3);
                self.u32(*a);
            }
            Concept::And(cs) | Concept::Or(cs) => {
                self.u8(if matches!(c, Concept::And(_)) { 4 } else { 5 });
                self.u32(cs.len() as u32);
                for x in cs {
                    self.concept(x);
                }
            }
            Concept::Exists(r, body) | Concept::ForAll(r, body) => {
                self.u8(if matches!(c, Concept::Exists(..)) { 6 } else { 7 });
                self.role(*r);
                self.concept(body);
            }
            Concept::AtLeast(n, r) => {
                self.u8(8);
                self.u32(*n);
                self.role(*r);
            }
            Concept::AtMost(n, r) => {
                self.u8(9);
                self.u32(*n);
                self.role(*r);
            }
        }
    }

    fn axiom_id(&mut self, id: AxiomId) {
        self.u8(match id.kind {
            AxiomKind::Gci => 0,
            AxiomKind::RoleInclusion => 1,
            AxiomKind::Disjointness => 2,
        });
        self.u32(id.index);
    }

    fn core(&mut self, core: &UnsatCore) {
        self.u32(core.axioms.len() as u32);
        for &id in &core.axioms {
            self.axiom_id(id);
        }
        self.u8(u8::from(core.minimal));
    }
}

// ---------------------------------------------------------------------------
// Decoding

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

/// Per-kind sizes everything in the payload is validated against:
/// interned-name counts for concept/role ids, axiom-store prefix lengths
/// for core/seed axiom ids.
#[derive(Clone, Copy)]
struct Bounds {
    atoms: u32,
    roles: u32,
    gcis: u32,
    ris: u32,
    djs: u32,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or(SnapshotError::Malformed("length overflow"))?;
        if end > self.buf.len() {
            return Err(SnapshotError::Malformed("payload ran out"));
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn flag(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Malformed("flag byte not 0/1")),
        }
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn role(&mut self, b: Bounds) -> Result<RoleExpr, SnapshotError> {
        let id: RoleExprId = self.u32()?;
        if id >> 1 >= b.roles {
            return Err(SnapshotError::Malformed("role id out of range"));
        }
        Ok(role_expr_of(id))
    }

    fn edge_role(&mut self, b: Bounds) -> Result<RoleExprId, SnapshotError> {
        let id: RoleExprId = self.u32()?;
        if id >> 1 >= b.roles {
            return Err(SnapshotError::Malformed("edge role id out of range"));
        }
        Ok(id)
    }

    fn concept(&mut self, b: Bounds, depth: u32) -> Result<Concept, SnapshotError> {
        if depth > MAX_CONCEPT_DEPTH {
            return Err(SnapshotError::Malformed("concept nesting too deep"));
        }
        Ok(match self.u8()? {
            0 => Concept::Top,
            1 => Concept::Bottom,
            tag @ (2 | 3) => {
                let a = self.u32()?;
                if a >= b.atoms {
                    return Err(SnapshotError::Malformed("atom id out of range"));
                }
                if tag == 2 {
                    Concept::Atomic(a)
                } else {
                    Concept::NotAtomic(a)
                }
            }
            tag @ (4 | 5) => {
                let n = self.u32()?;
                let mut cs = Vec::new();
                for _ in 0..n {
                    cs.push(self.concept(b, depth + 1)?);
                }
                if tag == 4 {
                    Concept::And(cs)
                } else {
                    Concept::Or(cs)
                }
            }
            tag @ (6 | 7) => {
                let r = self.role(b)?;
                let body = Box::new(self.concept(b, depth + 1)?);
                if tag == 6 {
                    Concept::Exists(r, body)
                } else {
                    Concept::ForAll(r, body)
                }
            }
            tag @ (8 | 9) => {
                let n = self.u32()?;
                let r = self.role(b)?;
                if tag == 8 {
                    Concept::AtLeast(n, r)
                } else {
                    Concept::AtMost(n, r)
                }
            }
            _ => return Err(SnapshotError::Malformed("unknown concept tag")),
        })
    }

    fn axiom_id(&mut self, b: Bounds) -> Result<AxiomId, SnapshotError> {
        let (kind, limit) = match self.u8()? {
            0 => (AxiomKind::Gci, b.gcis),
            1 => (AxiomKind::RoleInclusion, b.ris),
            2 => (AxiomKind::Disjointness, b.djs),
            _ => return Err(SnapshotError::Malformed("unknown axiom kind")),
        };
        let index = self.u32()?;
        if index >= limit {
            return Err(SnapshotError::Malformed("axiom index out of range"));
        }
        Ok(AxiomId { kind, index })
    }

    fn core(&mut self, b: Bounds) -> Result<UnsatCore, SnapshotError> {
        let n = self.u32()?;
        let mut axioms = Vec::new();
        for _ in 0..n {
            axioms.push(self.axiom_id(b)?);
        }
        let minimal = self.flag()?;
        Ok(UnsatCore { axioms, minimal })
    }
}

/// A fully decoded payload — nothing is installed until every byte of it
/// has parsed and validated.
struct Decoded {
    revision: u64,
    bounds: Bounds,
    fingerprint: u64,
    entries: Vec<(Vec<Concept>, DecodedEntry)>,
    seeds: Vec<AxiomId>,
}

enum DecodedEntry {
    Sat { witness: Option<WitnessParts> },
    Unsat { core: Option<UnsatCore>, family: Option<MusFamily> },
    Unknown { budget: u64 },
}

fn decode(payload: &[u8]) -> Result<Decoded, SnapshotError> {
    let mut r = Reader::new(payload);
    let revision = r.u64()?;
    let bounds =
        Bounds { atoms: r.u32()?, roles: r.u32()?, gcis: r.u32()?, ris: r.u32()?, djs: r.u32()? };
    let fingerprint = r.u64()?;
    let entry_count = r.u32()?;
    let mut entries = Vec::new();
    for _ in 0..entry_count {
        let key_len = r.u32()?;
        let mut key = Vec::new();
        for _ in 0..key_len {
            key.push(r.concept(bounds, 0)?);
        }
        let entry = match r.u8()? {
            0 => {
                let witness = if r.flag()? {
                    let node_count = r.u32()?;
                    let mut labels = Vec::new();
                    for _ in 0..node_count {
                        let n = r.u32()?;
                        let mut label = Vec::new();
                        for _ in 0..n {
                            label.push(r.concept(bounds, 0)?);
                        }
                        labels.push(label);
                    }
                    let edge_count = r.u32()?;
                    let mut edges = Vec::new();
                    for _ in 0..edge_count {
                        let n = r.u32()?;
                        let mut roles = Vec::new();
                        for _ in 0..n {
                            roles.push(r.edge_role(bounds)?);
                        }
                        edges.push(roles);
                    }
                    let mut neighbours = Vec::new();
                    for _ in 0..node_count {
                        let n = r.u32()?;
                        let mut roles = Vec::new();
                        for _ in 0..n {
                            roles.push(r.edge_role(bounds)?);
                        }
                        if !roles.is_sorted_by(|a, b| a < b) {
                            return Err(SnapshotError::Malformed("neighbour roles not sorted"));
                        }
                        neighbours.push(roles);
                    }
                    Some((labels, edges, neighbours))
                } else {
                    None
                };
                DecodedEntry::Sat { witness }
            }
            1 => {
                let core = if r.flag()? { Some(r.core(bounds)?) } else { None };
                let family = if r.flag()? {
                    let n = r.u32()?;
                    let mut cores = Vec::new();
                    for _ in 0..n {
                        cores.push(r.core(bounds)?);
                    }
                    let truncated = r.flag()?;
                    let complete = r.flag()?;
                    Some(MusFamily { cores, truncated, complete })
                } else {
                    None
                };
                DecodedEntry::Unsat { core, family }
            }
            2 => DecodedEntry::Unknown { budget: r.u64()? },
            _ => return Err(SnapshotError::Malformed("unknown entry tag")),
        };
        entries.push((key, entry));
    }
    let seed_count = r.u32()?;
    let mut seeds = Vec::new();
    for _ in 0..seed_count {
        seeds.push(r.axiom_id(bounds)?);
    }
    if !r.done() {
        return Err(SnapshotError::Malformed("trailing bytes"));
    }
    Ok(Decoded { revision, bounds, fingerprint, entries, seeds })
}

/// Content fingerprint of the TBox's name tables and axiom stores, cut
/// to the given prefix lengths — the proof that a freshly built TBox
/// (whose process-unique uid necessarily differs from the snapshotting
/// process's) really is the same terminology up to the snapshot
/// revision. Names are append-only and axiom stores append-only under
/// pure additions, so the prefix at restore time is byte-identical to
/// the full state at snapshot time.
fn prefix_fingerprint(
    tbox: &TBox,
    atoms: usize,
    roles: usize,
    gcis: usize,
    ris: usize,
    djs: usize,
) -> u64 {
    let mut w = Writer::default();
    for i in 0..atoms {
        w.str(tbox.atom_name(i as u32));
    }
    for i in 0..roles {
        w.str(tbox.role_name(i as u32));
    }
    for (c, d) in &tbox.gcis()[..gcis] {
        w.concept(c);
        w.concept(d);
    }
    for &(sub, sup) in &tbox.role_inclusion_axioms()[..ris] {
        w.role(sub);
        w.role(sup);
    }
    for &(a, b) in &tbox.disjoint_role_axioms()[..djs] {
        w.role(a);
        w.role(b);
    }
    fnv1a64(&w.buf)
}

impl SatShards {
    /// Serialize every cached entry (and the seed pool) into the
    /// versioned, checksummed snapshot format, keyed on `tbox`'s current
    /// revision. Each shard is first reconciled with `tbox` (the same
    /// validation a query performs), so the blob only ever contains
    /// entries provable against the recorded revision. Counted in
    /// [`CacheStats::snapshots`].
    ///
    /// Shard locks are taken one at a time: concurrent queries stay
    /// live, and a query that lands after its shard was serialized is
    /// simply absent from this snapshot — fine for a cache, where a
    /// snapshot is a warm-start hint, never an obligation.
    pub fn snapshot(&self, tbox: &TBox) -> Vec<u8> {
        let mut payload = Writer::default();
        payload.u64(tbox.revision());
        payload.u32(tbox.atom_count() as u32);
        payload.u32(tbox.role_count() as u32);
        payload.u32(tbox.gcis().len() as u32);
        payload.u32(tbox.role_inclusion_axioms().len() as u32);
        payload.u32(tbox.disjoint_role_axioms().len() as u32);
        payload.u64(prefix_fingerprint(
            tbox,
            tbox.atom_count(),
            tbox.role_count(),
            tbox.gcis().len(),
            tbox.role_inclusion_axioms().len(),
            tbox.disjoint_role_axioms().len(),
        ));
        let mut entries = Writer::default();
        let mut entry_count = 0u32;
        for shard in self.shards.iter() {
            let mut cache = shard.lock();
            cache.validate(tbox);
            for (key, entry) in &cache.entries {
                entries.u32(key.len() as u32);
                for &id in key.iter() {
                    let concept = cache.arena.resolve(id);
                    entries.concept(&concept);
                }
                match entry {
                    Entry::Sat { witness } => {
                        entries.u8(0);
                        match witness {
                            Some(witness) => {
                                entries.u8(1);
                                let (labels, edges, neighbours) = witness.snapshot_parts();
                                entries.u32(labels.len() as u32);
                                for label in &labels {
                                    entries.u32(label.len() as u32);
                                    for concept in label {
                                        entries.concept(concept);
                                    }
                                }
                                entries.u32(edges.len() as u32);
                                for roles in edges.iter().chain(&neighbours) {
                                    entries.u32(roles.len() as u32);
                                    for &role in roles {
                                        entries.u32(role);
                                    }
                                }
                            }
                            None => entries.u8(0),
                        }
                    }
                    Entry::Unsat { core, family } => {
                        entries.u8(1);
                        match core {
                            Some(core) => {
                                entries.u8(1);
                                entries.core(core);
                            }
                            None => entries.u8(0),
                        }
                        match family {
                            Some(family) => {
                                entries.u8(1);
                                entries.u32(family.cores.len() as u32);
                                for core in &family.cores {
                                    entries.core(core);
                                }
                                entries.u8(u8::from(family.truncated));
                                entries.u8(u8::from(family.complete));
                            }
                            None => entries.u8(0),
                        }
                    }
                    Entry::Unknown { budget } => {
                        entries.u8(2);
                        entries.u64(*budget);
                    }
                }
                entry_count += 1;
            }
        }
        payload.u32(entry_count);
        payload.buf.extend_from_slice(&entries.buf);
        {
            let pool = self.seed_pool.lock();
            if pool.stamp == tbox.cache_stamp() {
                payload.u32(pool.axioms.len() as u32);
                for &id in &pool.axioms {
                    payload.axiom_id(id);
                }
            } else {
                payload.u32(0);
            }
        }
        self.shards[0].lock().stats.snapshots += 1;

        let mut out = Vec::with_capacity(payload.buf.len() + 24);
        out.extend_from_slice(&MAGIC);
        out.push(VERSION);
        out.extend_from_slice(&(payload.buf.len() as u64).to_le_bytes());
        out.extend_from_slice(&payload.buf);
        out.extend_from_slice(&fnv1a64(&payload.buf).to_le_bytes());
        out
    }

    /// Install a snapshot produced by [`SatShards::snapshot`] into this
    /// (cold) shard set, re-keying every entry against `tbox`. See the
    /// `cache::snapshot` module docs for the three validation gates; any
    /// rejection
    /// returns the cache untouched and counts one
    /// [`CacheStats::corrupt_rejected`]; success counts one
    /// [`CacheStats::restores`].
    ///
    /// Entries are installed stamped at the snapshot's revision, so a
    /// `tbox` that has *grown* (pure additions) since the snapshot still
    /// restores: the first queries run the ordinary delta-retention
    /// rules against the addition log instead of re-proving. Intended
    /// for process startup — callers must not run queries against these
    /// shards concurrently with a restore.
    pub fn restore(&self, tbox: &TBox, bytes: &[u8]) -> Result<RestoreReport, SnapshotError> {
        match self.restore_inner(tbox, bytes) {
            Ok(report) => {
                self.shards[0].lock().stats.restores += 1;
                Ok(report)
            }
            Err(err) => {
                self.shards[0].lock().stats.corrupt_rejected += 1;
                Err(err)
            }
        }
    }

    fn restore_inner(&self, tbox: &TBox, bytes: &[u8]) -> Result<RestoreReport, SnapshotError> {
        // Gate 1: integrity.
        if bytes.len() < MAGIC.len() + 1 + 8 + 8 {
            return Err(SnapshotError::Truncated);
        }
        if bytes[..MAGIC.len()] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = bytes[MAGIC.len()];
        if version != VERSION {
            return Err(SnapshotError::BadVersion(version));
        }
        let header = MAGIC.len() + 1;
        let payload_len =
            u64::from_le_bytes(bytes[header..header + 8].try_into().expect("8 bytes")) as usize;
        let payload_start = header + 8;
        if bytes.len() != payload_start + payload_len + 8 {
            return Err(SnapshotError::Truncated);
        }
        let payload = &bytes[payload_start..payload_start + payload_len];
        let stored =
            u64::from_le_bytes(bytes[payload_start + payload_len..].try_into().expect("8"));
        if fnv1a64(payload) != stored {
            return Err(SnapshotError::ChecksumMismatch);
        }
        let decoded = decode(payload)?;

        // Gate 2: provenance — `tbox` must be an addition-only
        // descendant of the snapshotted terminology.
        let b = decoded.bounds;
        let (prefix_gcis, prefix_ris, prefix_djs) = match tbox.delta_since(decoded.revision) {
            Delta::Unchanged => (
                tbox.gcis().len(),
                tbox.role_inclusion_axioms().len(),
                tbox.disjoint_role_axioms().len(),
            ),
            Delta::Additions(delta) => (
                tbox.gcis().len() - delta.gcis.len(),
                tbox.role_inclusion_axioms().len() - delta.role_inclusions.len(),
                tbox.disjoint_role_axioms().len() - delta.disjoint_roles.len(),
            ),
            Delta::Destructive => return Err(SnapshotError::StampMismatch),
        };
        if (b.gcis as usize, b.ris as usize, b.djs as usize)
            != (prefix_gcis, prefix_ris, prefix_djs)
        {
            return Err(SnapshotError::StampMismatch);
        }
        if b.atoms as usize > tbox.atom_count() || b.roles as usize > tbox.role_count() {
            return Err(SnapshotError::StampMismatch);
        }
        let expected = prefix_fingerprint(
            tbox,
            b.atoms as usize,
            b.roles as usize,
            prefix_gcis,
            prefix_ris,
            prefix_djs,
        );
        if expected != decoded.fingerprint {
            return Err(SnapshotError::StampMismatch);
        }

        // Gate 3: cold start only — mixing restored entries into shards
        // already proving against a live TBox would blur which stamp an
        // entry was actually proved at.
        if !self.is_empty() {
            return Err(SnapshotError::WarmCache);
        }

        // Commit. The stamp is (current uid, snapshot revision): the
        // uid binds the entries to *this* TBox value, the revision makes
        // the next query replay any additions through delta retention.
        let stamp = (tbox.cache_stamp().0, decoded.revision);
        for shard in self.shards.iter() {
            shard.lock().stamp = Some(stamp);
        }
        let mut report = RestoreReport::default();
        for (key_concepts, entry) in decoded.entries {
            let route = fold_root(key_concepts.iter().map(|c| shape_hash(c, false)).collect());
            let mut cache = self.shard(route).lock();
            let mut key: Vec<ConceptId> =
                key_concepts.iter().map(|c| cache.arena.intern(c)).collect();
            key.sort_unstable();
            key.dedup();
            let entry = match entry {
                DecodedEntry::Sat { witness } => {
                    let witness = witness.map(|parts| {
                        report.witnesses += 1;
                        Witness::from_snapshot_parts(parts)
                    });
                    Entry::Sat { witness }
                }
                DecodedEntry::Unsat { core, family } => {
                    report.cores += usize::from(core.is_some());
                    report.families += usize::from(family.is_some());
                    Entry::Unsat { core, family }
                }
                DecodedEntry::Unknown { budget } => Entry::Unknown { budget },
            };
            cache.entries.insert(key.into_boxed_slice(), entry);
            report.entries += 1;
        }
        {
            let mut pool = self.seed_pool.lock();
            pool.stamp = stamp;
            pool.axioms = decoded.seeds;
            pool.axioms.sort_unstable();
            pool.axioms.dedup();
            pool.axioms.truncate(super::SEED_POOL_CAP);
            report.seeds = pool.axioms.len();
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::SatShards;
    use crate::exec::ExecCx;
    use crate::explain::Explanation;
    use crate::tableau::SearchOutcome;

    /// A context granting every proof `n` steps.
    fn steps(n: u64) -> ExecCx {
        ExecCx::with_steps(n)
    }

    /// A TBox with a satisfiable atom (witnessed, with role edges), a
    /// doomed atom (core + family), and a starving query (Unknown).
    fn rich_fixture() -> (TBox, Vec<Concept>) {
        let mut t = TBox::new();
        let r = RoleExpr::direct(t.role("R"));
        let a = Concept::Atomic(t.atom("A"));
        let b = Concept::Atomic(t.atom("B"));
        let c = Concept::Atomic(t.atom("C"));
        let loops = Concept::Atomic(t.atom("Loop"));
        t.gci(a.clone(), Concept::some(r));
        t.gci(b.clone(), Concept::Bottom);
        t.gci(b.clone(), c.clone());
        t.gci(c.clone(), Concept::Bottom);
        t.gci(loops.clone(), Concept::Exists(r, Box::new(loops.clone())));
        (t, vec![a, b, c, loops])
    }

    fn warm(shards: &SatShards, t: &TBox, qs: &[Concept]) -> Vec<SearchOutcome> {
        let (a, b, _c, loops) = (&qs[0], &qs[1], &qs[2], &qs[3]);
        let mut verdicts = vec![
            shards.satisfiable_cx(t, a, &steps(100_000)),
            shards.satisfiable_cx(t, b, &steps(100_000)),
        ];
        assert!(matches!(shards.explain_cx(t, b, &steps(100_000)), Explanation::Unsat(_)));
        let _ = shards.enumerate_cx(t, b, &steps(100_000), usize::MAX);
        verdicts.push(shards.satisfiable_cx(t, loops, &steps(5)));
        verdicts
    }

    #[test]
    fn round_trip_restores_every_entry_kind() {
        let (t, qs) = rich_fixture();
        let shards = SatShards::new();
        let verdicts = warm(&shards, &t, &qs);
        assert_eq!(
            verdicts,
            vec![SearchOutcome::Sat, SearchOutcome::Unsat, SearchOutcome::BudgetExhausted]
        );
        let blob = shards.snapshot(&t);
        assert_eq!(shards.stats().snapshots, 1);

        // A restarted process: same terminology rebuilt from scratch
        // (fresh uid), cold shards.
        let t2 = t.clone();
        let cold = SatShards::new();
        let report = cold.restore(&t2, &blob).expect("round trip");
        assert_eq!(report.entries, shards.len());
        assert!(report.witnesses >= 1, "Sat entry lost its witness");
        assert!(report.cores >= 1);
        assert!(report.families >= 1);
        assert_eq!(cold.stats().restores, 1);

        // Every warm query is a pure hit — verdicts agree, zero misses.
        assert_eq!(cold.satisfiable_cx(&t2, &qs[0], &steps(100_000)), SearchOutcome::Sat);
        assert_eq!(cold.satisfiable_cx(&t2, &qs[1], &steps(100_000)), SearchOutcome::Unsat);
        assert!(matches!(cold.explain_cx(&t2, &qs[1], &steps(100_000)), Explanation::Unsat(_)));
        assert_eq!(cold.satisfiable_cx(&t2, &qs[3], &steps(5)), SearchOutcome::BudgetExhausted);
        let stats = cold.stats();
        assert_eq!(stats.misses, 0, "restore failed to pre-warm: {stats}");
        assert_eq!(stats.hits, 4);
    }

    #[test]
    fn restored_witnesses_drive_delta_retention() {
        let (t, qs) = rich_fixture();
        let shards = SatShards::new();
        warm(&shards, &t, &qs);
        let blob = shards.snapshot(&t);

        let mut t2 = t.clone();
        let cold = SatShards::new();
        cold.restore(&t2, &blob).expect("round trip");
        // Additions since the snapshot: the restored entries revalidate
        // against the delta log instead of re-proving.
        let d = Concept::Atomic(t2.atom("D"));
        t2.gci(d.clone(), Concept::Bottom);
        assert_eq!(cold.satisfiable_cx(&t2, &qs[0], &steps(100_000)), SearchOutcome::Sat);
        assert_eq!(cold.satisfiable_cx(&t2, &qs[1], &steps(100_000)), SearchOutcome::Unsat);
        let stats = cold.stats();
        assert_eq!(stats.invalidations, 0, "additions cleared restored shards");
        assert!(stats.retained >= 1, "Unsat not retained: {stats}");
        assert!(stats.revalidated >= 1, "witness not revalidated: {stats}");
        // And a genuinely conflicting addition evicts the witness and
        // re-proves with the *new* verdict — no staleness.
        t2.gci(qs[0].clone(), Concept::Bottom);
        assert_eq!(cold.satisfiable_cx(&t2, &qs[0], &steps(100_000)), SearchOutcome::Unsat);
    }

    #[test]
    fn corruption_in_any_byte_is_rejected() {
        let (t, qs) = rich_fixture();
        let shards = SatShards::new();
        warm(&shards, &t, &qs);
        let blob = shards.snapshot(&t);
        let t2 = t.clone();

        // Truncation at several cut points.
        for cut in [0, 7, 8, 15, 16, blob.len() / 2, blob.len() - 1] {
            let cold = SatShards::new();
            let err = cold.restore(&t2, &blob[..cut]).expect_err("truncated blob accepted");
            assert!(
                matches!(err, SnapshotError::Truncated | SnapshotError::BadMagic),
                "cut at {cut}: {err:?}"
            );
            assert!(cold.is_empty(), "rejected restore left entries behind");
            assert_eq!(cold.stats().corrupt_rejected, 1);
        }

        // A bit flip anywhere in the payload trips the checksum; in the
        // header it trips magic/version/length.
        for pos in [0, 7, 20, blob.len() / 2, blob.len() - 9] {
            let mut bad = blob.clone();
            bad[pos] ^= 0x40;
            let cold = SatShards::new();
            let err = cold.restore(&t2, &bad).expect_err("bit-flipped blob accepted");
            assert!(cold.is_empty(), "bit flip at {pos} half-installed: {err:?}");
        }
    }

    #[test]
    fn checksum_catches_payload_tampering() {
        let (t, qs) = rich_fixture();
        let shards = SatShards::new();
        warm(&shards, &t, &qs);
        let mut blob = shards.snapshot(&t);
        // Flip a bit squarely inside the payload.
        let mid = 16 + (blob.len() - 24) / 2;
        blob[mid] ^= 0x01;
        let cold = SatShards::new();
        assert_eq!(cold.restore(&t.clone(), &blob), Err(SnapshotError::ChecksumMismatch));
    }

    #[test]
    fn diverged_or_destructive_tboxes_are_rejected() {
        let (t, qs) = rich_fixture();
        let shards = SatShards::new();
        warm(&shards, &t, &qs);
        let blob = shards.snapshot(&t);

        // A terminology with different content at the same revision.
        let mut other = TBox::new();
        let x = Concept::Atomic(other.atom("X"));
        other.role("R");
        for _ in 0..t.revision() {
            other.gci(x.clone(), Concept::Top);
        }
        let cold = SatShards::new();
        assert_eq!(cold.restore(&other, &blob), Err(SnapshotError::StampMismatch));
        assert_eq!(cold.stats().corrupt_rejected, 1);

        // A destructive edit after the snapshot revision.
        let mut retracted = t.clone();
        retracted.retract_gci(0);
        let cold = SatShards::new();
        assert_eq!(cold.restore(&retracted, &blob), Err(SnapshotError::StampMismatch));

        // A TBox that never reached the snapshot revision.
        let behind = TBox::new();
        let cold = SatShards::new();
        assert_eq!(cold.restore(&behind, &blob), Err(SnapshotError::StampMismatch));
    }

    #[test]
    fn warm_cache_refuses_restore() {
        let (t, qs) = rich_fixture();
        let shards = SatShards::new();
        warm(&shards, &t, &qs);
        let blob = shards.snapshot(&t);
        let t2 = t.clone();
        let target = SatShards::new();
        assert_eq!(target.satisfiable_cx(&t2, &qs[0], &steps(100_000)), SearchOutcome::Sat);
        assert_eq!(target.restore(&t2, &blob), Err(SnapshotError::WarmCache));
        // The warm entry is untouched.
        assert_eq!(target.len(), 1);
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let (t, _) = rich_fixture();
        let shards = SatShards::new();
        let blob = shards.snapshot(&t);
        let cold = SatShards::new();
        let report = cold.restore(&t.clone(), &blob).expect("empty round trip");
        assert_eq!(report, RestoreReport::default());
    }

    #[test]
    fn seed_pool_survives_the_round_trip() {
        let (t, qs) = rich_fixture();
        let shards = SatShards::new();
        warm(&shards, &t, &qs);
        let blob = shards.snapshot(&t);
        let t2 = t.clone();
        let cold = SatShards::new();
        let report = cold.restore(&t2, &blob).expect("round trip");
        assert!(report.seeds >= 1, "certified core axioms lost from the pool");
    }
}
