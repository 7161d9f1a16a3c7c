//! Versioned on-disk content-addressed result store.
//!
//! The in-process memo cache (`spt::sweep`) already keys every pipeline
//! phase by content fingerprints; this module extends those keys to a
//! cache *directory* so phase results survive the process. A long-running
//! `spt-serve` daemon (and any sweep opened with [`crate::Sweep::with_store`])
//! answers repeated `(program, config, fuel)` requests from disk instead
//! of re-simulating.
//!
//! ## Entry format
//!
//! One entry is one file, `<dir>/<kind>-<key as 016x>.json`, holding a
//! JSON envelope written as exactly these bytes:
//!
//! ```text
//! {"spt_store_schema":5,"kind":"spt_sim","key":"00ab...","check":"3f...","payload":{...}}
//! ```
//!
//! * `spt_store_schema` — the store's schema version ([`STORE_SCHEMA`]).
//!   Bump it whenever the payload encoding of any kind changes; readers
//!   treat every other version as a miss.
//! * `kind` / `key` — must match the requested entry (a renamed or
//!   misplaced file never serves the wrong result).
//! * `check` — FNV-1a of the payload bytes as they stand in the file
//!   (16 lowercase hex digits), so silent truncation or corruption inside
//!   an otherwise well-formed envelope is still detected.
//!
//! The reader matches that header byte for byte and takes the payload as
//! it is, up to the closing `}`: a hit is a checked byte copy, with no
//! parse and no re-serialization ([`DiskStore::load_raw`]). The payload
//! must also be exactly one JSON value with no raw line break
//! ([`Json::validate`]), so the daemon can splice it into a response line.
//!
//! **Robustness contract:** a missing, truncated, non-UTF-8, misframed,
//! version-mismatched, misnamed, checksum-failing or invalid entry is a
//! *miss* — never a panic, never a partial result — and the next
//! [`DiskStore::save`] for that key simply overwrites it. Writes go
//! through a temp file plus rename so concurrent readers of the same
//! directory only ever observe complete entries.
//!
//! The store is deliberately value-agnostic: it stores [`Json`] payloads.
//! Complete round-trip encoders for the two expensive phase results
//! ([`BaselineReport`], [`SptReport`]) live here too; profile and compile
//! results are cheap to recompute and stay in-memory only.

use crate::json::Json;
use spt_sim::{BaselineReport, CycleBreakdown, PerCoreStats, PerLoopStats, SptReport};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Version of the on-disk entry encoding. Entries written under any other
/// version read as misses.
///
/// v2: report payloads gained the block-memo hit/miss counters.
/// v3: those counters left the payloads with the memo itself, and
/// `MachineConfig` lost two fields, so every config-derived key changed.
/// v4: programs are fingerprinted from their derived `Hash` rather than
/// their printed text, so every program-derived key changed.
/// v5: `MachineConfig`'s core timing fields moved into a nested
/// `CoreConfig`, which changed every SPT key, and baseline keys now hold
/// that core alone instead of the whole machine.
pub const STORE_SCHEMA: u32 = 5;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over `bytes`, seeded with `h` (chainable).
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// One-shot FNV-1a fingerprint of a byte string.
pub fn fingerprint_bytes(bytes: &[u8]) -> u64 {
    fnv1a(FNV_OFFSET, bytes)
}

/// Cumulative counters of one store handle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Entries served from disk.
    pub hits: u64,
    /// Lookups that found no usable entry.
    pub misses: u64,
    /// Of those misses, entries that existed but were rejected (corrupt,
    /// truncated, wrong schema version, wrong kind/key, bad checksum).
    pub rejects: u64,
    /// Entries written.
    pub writes: u64,
}

impl crate::json::ToJson for StoreStats {
    fn to_json(&self) -> Json {
        Json::obj()
            .with("hits", self.hits)
            .with("misses", self.misses)
            .with("rejects", self.rejects)
            .with("writes", self.writes)
    }
}

/// A content-addressed cache directory of `fingerprint → JSON payload`
/// entries. Cheap to clone behind an `Arc`; all methods take `&self`.
#[derive(Debug)]
pub struct DiskStore {
    dir: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    rejects: AtomicU64,
    writes: AtomicU64,
    tmp_seq: AtomicU64,
}

impl DiskStore {
    /// Open (creating if needed) a store rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<DiskStore> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(DiskStore {
            dir,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            rejects: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            tmp_seq: AtomicU64::new(0),
        })
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            rejects: self.rejects.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
        }
    }

    fn entry_path(&self, kind: &str, key: u64) -> PathBuf {
        self.dir.join(format!("{kind}-{key:016x}.json"))
    }

    /// Look up the payload stored for `(kind, key)`, parsed. Any defect in
    /// the entry reads as `None` (see [`DiskStore::load_raw`]).
    pub fn load(&self, kind: &str, key: u64) -> Option<Json> {
        // `load_raw` has validated the payload with the grammar `parse`
        // uses, so this parse cannot fail.
        Json::parse(&self.load_raw(kind, key)?).ok()
    }

    /// Look up the payload stored for `(kind, key)` as the bytes on disk,
    /// without parsing them. Any defect in the entry — missing file,
    /// non-UTF-8 bytes, a header other than the one [`DiskStore::save_raw`]
    /// writes for this schema, kind and key, a failed checksum, or a
    /// payload that is not exactly one JSON value on one line — reads as
    /// `None`. Whatever this returns has passed both the checksum and
    /// [`Json::validate`].
    pub fn load_raw(&self, kind: &str, key: u64) -> Option<Arc<str>> {
        let bytes = match std::fs::read(self.entry_path(kind, key)) {
            Ok(b) => b,
            Err(_) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        // The entry exists: from here on, any defect — non-UTF-8 bytes
        // included — is a reject, not a plain miss.
        match std::str::from_utf8(&bytes)
            .ok()
            .and_then(|text| entry_payload(text, kind, key))
        {
            Some(payload) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::from(payload))
            }
            None => {
                // The file exists but is unusable: a reject, counted as a
                // miss too so hit-rate math stays simple.
                self.misses.fetch_add(1, Ordering::Relaxed);
                self.rejects.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Persist `payload` as the entry for `(kind, key)`; see
    /// [`DiskStore::save_raw`].
    pub fn save(&self, kind: &str, key: u64, payload: &Json) {
        self.save_raw(kind, key, &payload.dump());
    }

    /// Persist `body`, a [`Json::dump`], as the entry for `(kind, key)`,
    /// overwriting any existing (possibly corrupt) entry. Write failures
    /// are swallowed — the store is a cache, not a source of truth — but
    /// the entry is never left half-written (temp file + rename).
    pub fn save_raw(&self, kind: &str, key: u64, body: &str) {
        let seq = self.tmp_seq.fetch_add(1, Ordering::Relaxed);
        let tmp = self.dir.join(format!(
            ".tmp-{}-{seq}-{kind}-{key:016x}",
            std::process::id()
        ));
        if std::fs::write(&tmp, entry_bytes(kind, key, body)).is_ok()
            && std::fs::rename(&tmp, self.entry_path(kind, key)).is_ok()
        {
            self.writes.fetch_add(1, Ordering::Relaxed);
        } else {
            let _ = std::fs::remove_file(&tmp);
        }
    }

    /// Flush store metadata: a `_meta.json` snapshot of the schema version
    /// and this handle's counters. Called by the daemon's graceful
    /// shutdown; entries themselves are already durable at `save` time.
    pub fn flush(&self) {
        use crate::json::ToJson as _;
        let meta = Json::obj()
            .with("spt_store_schema", STORE_SCHEMA)
            .with("stats", self.stats().to_json());
        let tmp = self.dir.join(format!(".tmp-meta-{}", std::process::id()));
        if std::fs::write(&tmp, meta.pretty()).is_ok() {
            let _ = std::fs::rename(&tmp, self.dir.join("_meta.json"));
        }
    }
}

/// The bytes an entry for `(kind, key)` starts with, up to its checksum:
/// `{"spt_store_schema":<STORE_SCHEMA>,"kind":"<kind>","key":"<key as 016x>","check":"`.
fn entry_head(kind: &str, key: u64) -> String {
    let mut head = format!("{{\"spt_store_schema\":{STORE_SCHEMA},\"kind\":");
    crate::json::write_escaped(&mut head, kind);
    let _ = write!(head, ",\"key\":\"{key:016x}\",\"check\":\"");
    head
}

/// What separates an entry's checksum from its payload.
const PAYLOAD_TAG: &str = "\",\"payload\":";

/// The whole entry for `(kind, key)` around the dumped payload `body`:
/// the bytes `Json::dump` gives for the envelope object
/// `{spt_store_schema, kind, key, check, payload}`, built without parsing
/// or re-dumping `body`.
fn entry_bytes(kind: &str, key: u64, body: &str) -> String {
    let mut entry = entry_head(kind, key);
    entry.reserve(16 + PAYLOAD_TAG.len() + body.len() + 1);
    let _ = write!(entry, "{:016x}", fingerprint_bytes(body.as_bytes()));
    entry.push_str(PAYLOAD_TAG);
    entry.push_str(body);
    entry.push('}');
    entry
}

/// The payload of `text` if it is a usable entry for `(kind, key)`: the
/// exact header [`entry_bytes`] writes, a checksum that matches the payload
/// bytes, and a payload that is one JSON value ([`Json::validate`]) with no
/// raw line break, so it can be spliced into a response line as it is.
fn entry_payload<'t>(text: &'t str, kind: &str, key: u64) -> Option<&'t str> {
    let rest = text.strip_prefix(entry_head(kind, key).as_str())?;
    let (check, rest) = rest.split_at_checked(16)?;
    let payload = rest.strip_prefix(PAYLOAD_TAG)?.strip_suffix('}')?;
    let sum = fingerprint_bytes(payload.as_bytes());
    let hex = |i: usize| b"0123456789abcdef"[(sum >> (60 - 4 * i)) as usize & 0xf];
    let check_ok = check.bytes().enumerate().all(|(i, c)| c == hex(i));
    (check_ok && !payload.contains(['\n', '\r']) && Json::validate(payload)).then_some(payload)
}

// ---------------------------------------------------------------------------
// Complete round-trip encoders for the persisted phase results
// ---------------------------------------------------------------------------
//
// These are distinct from the public `ToJson` impls in `crate::json`: those
// define the *report schema* consumed by tooling (and pinned by goldens),
// which omits fields like cache-hit counts that no figure needs. A store
// entry must reconstruct the exact struct, so every field is encoded.

fn breakdown_json(b: &CycleBreakdown) -> Json {
    Json::obj()
        .with("busy", b.busy)
        .with("pipe_stall", b.pipe_stall)
        .with("dcache_stall", b.dcache_stall)
        .with("fetch_gate", b.stall.fetch_gate)
        .with("operand", b.stall.operand)
        .with("advance", b.stall.advance)
}

fn breakdown_from(j: &Json) -> Option<CycleBreakdown> {
    let mut b = CycleBreakdown::default();
    b.busy = j.get("busy")?.as_u64()?;
    b.pipe_stall = j.get("pipe_stall")?.as_u64()?;
    b.dcache_stall = j.get("dcache_stall")?.as_u64()?;
    b.stall.fetch_gate = j.get("fetch_gate")?.as_u64()?;
    b.stall.operand = j.get("operand")?.as_u64()?;
    b.stall.advance = j.get("advance")?.as_u64()?;
    Some(b)
}

fn cache_json(c: &spt_mach::CacheStats) -> Json {
    Json::obj()
        .with("l1_hits", c.l1_hits)
        .with("l1_misses", c.l1_misses)
        .with("l2_hits", c.l2_hits)
        .with("l2_misses", c.l2_misses)
        .with("l3_hits", c.l3_hits)
        .with("l3_misses", c.l3_misses)
}

fn cache_from(j: &Json) -> Option<spt_mach::CacheStats> {
    let mut c = spt_mach::CacheStats::default();
    c.l1_hits = j.get("l1_hits")?.as_u64()?;
    c.l1_misses = j.get("l1_misses")?.as_u64()?;
    c.l2_hits = j.get("l2_hits")?.as_u64()?;
    c.l2_misses = j.get("l2_misses")?.as_u64()?;
    c.l3_hits = j.get("l3_hits")?.as_u64()?;
    c.l3_misses = j.get("l3_misses")?.as_u64()?;
    Some(c)
}

fn u64s_json(xs: &[u64]) -> Json {
    Json::Array(xs.iter().map(|&x| Json::UInt(x)).collect())
}

fn u64s_from(j: &Json) -> Option<Vec<u64>> {
    j.as_array()?.iter().map(Json::as_u64).collect()
}

fn ret_json(r: Option<i64>) -> Json {
    r.map_or(Json::Null, Json::Int)
}

fn ret_from(j: &Json) -> Option<Option<i64>> {
    match j {
        Json::Null => Some(None),
        other => other.as_i64().map(Some),
    }
}

/// A phase result the store persists: its entry kind plus a payload
/// encoding that round-trips exactly.
pub(crate) trait Stored: Sized {
    /// Entry kind, the file-name prefix of its entries.
    const KIND: &'static str;
    fn to_payload(&self) -> Json;
    /// Inverse of [`Stored::to_payload`]; `None` on any missing or
    /// mistyped field.
    fn from_payload(j: &Json) -> Option<Self>;
}

impl Stored for BaselineReport {
    const KIND: &'static str = "baseline";

    /// Encode a [`BaselineReport`] with every field but the two always-zero
    /// memo counters (store payload form).
    fn to_payload(&self) -> Json {
        Json::obj()
            .with("cycles", self.cycles)
            .with("instrs", self.instrs)
            .with("breakdown", breakdown_json(&self.breakdown))
            .with("cache", cache_json(&self.cache))
            .with("bp_mispredicts", self.bp_mispredicts)
            .with("bp_lookups", self.bp_lookups)
            .with("loop_cycles", u64s_json(&self.loop_cycles))
            .with("loop_instrs", u64s_json(&self.loop_instrs))
            .with("ret", ret_json(self.ret))
            .with("steps", self.steps)
            .with("out_of_fuel", self.out_of_fuel)
    }

    /// Decode a [`BaselineReport`]; `None` on any missing or mistyped field.
    fn from_payload(j: &Json) -> Option<Self> {
        Some(BaselineReport {
            cycles: j.get("cycles")?.as_u64()?,
            instrs: j.get("instrs")?.as_u64()?,
            breakdown: breakdown_from(j.get("breakdown")?)?,
            cache: cache_from(j.get("cache")?)?,
            bp_mispredicts: j.get("bp_mispredicts")?.as_u64()?,
            bp_lookups: j.get("bp_lookups")?.as_u64()?,
            loop_cycles: u64s_from(j.get("loop_cycles")?)?,
            loop_instrs: u64s_from(j.get("loop_instrs")?)?,
            ret: ret_from(j.get("ret")?)?,
            steps: j.get("steps")?.as_u64()?,
            out_of_fuel: j.get("out_of_fuel")?.as_bool()?,
            superstep_hits: 0,
            superstep_misses: 0,
        })
    }
}

fn per_loop_json(l: &PerLoopStats) -> Json {
    Json::obj()
        .with("id", l.id)
        .with("cycles", l.cycles)
        .with("instrs", l.instrs)
        .with("forks", l.forks)
        .with("fast_commits", l.fast_commits)
        .with("replays", l.replays)
        .with("kills", l.kills)
        .with("spec_instrs", l.spec_instrs)
        .with("spec_misspec", l.spec_misspec)
}

fn per_loop_from(j: &Json) -> Option<PerLoopStats> {
    Some(PerLoopStats {
        id: j.get("id")?.as_u64()? as usize,
        cycles: j.get("cycles")?.as_u64()?,
        instrs: j.get("instrs")?.as_u64()?,
        forks: j.get("forks")?.as_u64()?,
        fast_commits: j.get("fast_commits")?.as_u64()?,
        replays: j.get("replays")?.as_u64()?,
        kills: j.get("kills")?.as_u64()?,
        spec_instrs: j.get("spec_instrs")?.as_u64()?,
        spec_misspec: j.get("spec_misspec")?.as_u64()?,
    })
}

fn per_core_json(c: &PerCoreStats) -> Json {
    Json::obj()
        .with("core", c.core)
        .with("instrs", c.instrs)
        .with("threads", c.threads)
        .with("fast_commits", c.fast_commits)
        .with("replays", c.replays)
        .with("kills", c.kills)
}

fn per_core_from(j: &Json) -> Option<PerCoreStats> {
    Some(PerCoreStats {
        core: j.get("core")?.as_u64()? as usize,
        instrs: j.get("instrs")?.as_u64()?,
        threads: j.get("threads")?.as_u64()?,
        fast_commits: j.get("fast_commits")?.as_u64()?,
        replays: j.get("replays")?.as_u64()?,
        kills: j.get("kills")?.as_u64()?,
    })
}

impl Stored for SptReport {
    const KIND: &'static str = "spt_sim";

    /// Encode an [`SptReport`] with every field but the two always-zero memo
    /// counters (store payload form).
    fn to_payload(&self) -> Json {
        Json::obj()
            .with("cycles", self.cycles)
            .with("instrs", self.instrs)
            .with("breakdown", breakdown_json(&self.breakdown))
            .with("cache", cache_json(&self.cache))
            .with("forks", self.forks)
            .with("forks_ignored", self.forks_ignored)
            .with("fast_commits", self.fast_commits)
            .with("replays", self.replays)
            .with("kills", self.kills)
            .with("divergence_kills", self.divergence_kills)
            .with("spec_instrs_checked", self.spec_instrs_checked)
            .with("spec_instrs_discarded", self.spec_instrs_discarded)
            .with("spec_misspec", self.spec_misspec)
            .with(
                "per_loop",
                Json::Array(self.per_loop.iter().map(per_loop_json).collect()),
            )
            .with(
                "per_core",
                Json::Array(self.per_core.iter().map(per_core_json).collect()),
            )
            .with("bp_mispredicts", self.bp_mispredicts)
            .with("bp_lookups", self.bp_lookups)
            .with("ret", ret_json(self.ret))
            .with("steps", self.steps)
            .with("out_of_fuel", self.out_of_fuel)
    }

    /// Decode an [`SptReport`]; `None` on any missing or mistyped field.
    fn from_payload(j: &Json) -> Option<Self> {
        Some(SptReport {
            cycles: j.get("cycles")?.as_u64()?,
            instrs: j.get("instrs")?.as_u64()?,
            breakdown: breakdown_from(j.get("breakdown")?)?,
            cache: cache_from(j.get("cache")?)?,
            forks: j.get("forks")?.as_u64()?,
            forks_ignored: j.get("forks_ignored")?.as_u64()?,
            fast_commits: j.get("fast_commits")?.as_u64()?,
            replays: j.get("replays")?.as_u64()?,
            kills: j.get("kills")?.as_u64()?,
            divergence_kills: j.get("divergence_kills")?.as_u64()?,
            spec_instrs_checked: j.get("spec_instrs_checked")?.as_u64()?,
            spec_instrs_discarded: j.get("spec_instrs_discarded")?.as_u64()?,
            spec_misspec: j.get("spec_misspec")?.as_u64()?,
            per_loop: j
                .get("per_loop")?
                .as_array()?
                .iter()
                .map(per_loop_from)
                .collect::<Option<Vec<_>>>()?,
            per_core: j
                .get("per_core")?
                .as_array()?
                .iter()
                .map(per_core_from)
                .collect::<Option<Vec<_>>>()?,
            bp_mispredicts: j.get("bp_mispredicts")?.as_u64()?,
            bp_lookups: j.get("bp_lookups")?.as_u64()?,
            ret: ret_from(j.get("ret")?)?,
            steps: j.get("steps")?.as_u64()?,
            out_of_fuel: j.get("out_of_fuel")?.as_bool()?,
            superstep_hits: 0,
            superstep_misses: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("spt-store-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn sample_payload() -> Json {
        Json::obj().with("cycles", 123u64).with("ok", true)
    }

    #[test]
    fn save_then_load_roundtrips() {
        let store = DiskStore::open(tmp_dir("roundtrip")).unwrap();
        assert_eq!(store.load("spt_sim", 7), None);
        store.save("spt_sim", 7, &sample_payload());
        assert_eq!(store.load("spt_sim", 7), Some(sample_payload()));
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.rejects, s.writes), (1, 1, 0, 1));
    }

    #[test]
    fn kind_and_key_must_match() {
        let store = DiskStore::open(tmp_dir("kindkey")).unwrap();
        store.save("baseline", 9, &sample_payload());
        assert_eq!(store.load("spt_sim", 9), None);
        assert_eq!(store.load("baseline", 10), None);
        // A file renamed to another key's path is rejected, not served.
        std::fs::rename(
            store.entry_path("baseline", 9),
            store.entry_path("baseline", 10),
        )
        .unwrap();
        assert_eq!(store.load("baseline", 10), None);
        assert!(store.stats().rejects >= 1);
    }

    #[test]
    fn entry_bytes_are_the_envelope_dump() {
        // Entries written by `dump`ing the whole envelope (every store up
        // to and including this schema) and by splicing the dumped body
        // must be the same bytes, so stores stay valid in both directions.
        let payloads = [
            sample_payload(),
            Json::obj()
                .with("s", "quote \" backslash \\ newline \n tab \t é")
                .with("xs", Json::array(vec![1u64, 2, 3]))
                .with("f", 0.25f64)
                .with("n", Json::Null),
            Json::from("a string payload"),
            Json::Array(vec![]),
        ];
        for (kind, key) in [
            ("response", 0u64),
            ("spt_sim", u64::MAX),
            ("baseline", 0xab),
        ] {
            for payload in &payloads {
                let envelope = Json::obj()
                    .with("spt_store_schema", STORE_SCHEMA)
                    .with("kind", kind)
                    .with("key", format!("{key:016x}"))
                    .with(
                        "check",
                        format!("{:016x}", fingerprint_bytes(payload.dump().as_bytes())),
                    )
                    .with("payload", payload.clone());
                assert_eq!(entry_bytes(kind, key, &payload.dump()), envelope.dump());
            }
        }
    }

    #[test]
    fn load_raw_serves_the_saved_bytes() {
        let store = DiskStore::open(tmp_dir("raw")).unwrap();
        let body = sample_payload().dump();
        store.save_raw("response", 3, &body);
        assert_eq!(
            store.load_raw("response", 3).as_deref(),
            Some(body.as_str())
        );
        assert_eq!(store.load("response", 3), Some(sample_payload()));
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.rejects, s.writes), (2, 0, 0, 1));
    }

    /// Write `bytes` as the entry for `("baseline", 1)`, then expect a
    /// counted reject from both readers, never a panic.
    fn assert_rejected(store: &DiskStore, bytes: &[u8], what: &str) {
        std::fs::write(store.entry_path("baseline", 1), bytes).unwrap();
        let rejects = store.stats().rejects;
        assert_eq!(store.load_raw("baseline", 1), None, "{what}");
        assert_eq!(store.load("baseline", 1), None, "{what}");
        assert_eq!(store.stats().rejects, rejects + 2, "{what}");
    }

    #[test]
    fn truncated_garbage_and_stale_schema_read_as_misses_and_are_overwritten() {
        let store = DiskStore::open(tmp_dir("robust")).unwrap();
        let payload = Json::obj()
            .with("s", "esc \" \\ \n é")
            .with("xs", Json::array(vec![1u64, 22, 333]))
            .with("o", Json::obj().with("t", true).with("f", -1.5f64));
        let body = payload.dump();
        let full = entry_bytes("baseline", 1, &body);
        let start = full.len() - body.len() - 1;

        // Every truncation, the empty file included.
        for len in 0..full.len() {
            assert_rejected(
                &store,
                &full.as_bytes()[..len],
                &format!("truncated to {len}"),
            );
        }
        // Every flipped payload byte: the checksum catches each one.
        for i in start..full.len() - 1 {
            let mut bytes = full.clone().into_bytes();
            bytes[i] ^= 1;
            assert_rejected(&store, &bytes, &format!("flipped byte {i}"));
        }
        // Garbage bytes.
        assert_rejected(&store, b"\x00\xffnot json at all", "garbage");
        // A valid entry for another schema version, kind or key.
        let stale = full.replacen(
            &format!(":{STORE_SCHEMA},"),
            &format!(":{},", STORE_SCHEMA + 1),
            1,
        );
        assert_rejected(&store, stale.as_bytes(), "stale schema");
        assert_rejected(&store, entry_bytes("spt_sim", 1, &body).as_bytes(), "kind");
        assert_rejected(&store, entry_bytes("baseline", 2, &body).as_bytes(), "key");
        // Checksums recomputed over payloads that are not one JSON value
        // on one line.
        for bad in [
            "{\"s\":\n1}",
            "{\"s\":1}\r",
            "{\"s\":\"raw\nnewline\"}",
            "{\"s\":1",
            "{\"s\":1},\"t\":{\"u\":2",
            "1 2",
            "",
            "{\"s\":tru}",
        ] {
            assert_rejected(&store, entry_bytes("baseline", 1, bad).as_bytes(), bad);
        }
        // Nesting past the parser's bound, with a valid checksum.
        let deep = "[".repeat(100_000);
        assert_rejected(&store, entry_bytes("baseline", 1, &deep).as_bytes(), "deep");

        // Saving over a corrupt entry heals it.
        store.save("baseline", 1, &payload);
        assert_eq!(
            std::fs::read_to_string(store.entry_path("baseline", 1)).unwrap(),
            full
        );
        assert_eq!(store.load("baseline", 1), Some(payload));
    }

    #[test]
    fn flush_writes_meta() {
        let store = DiskStore::open(tmp_dir("meta")).unwrap();
        store.flush();
        let meta = std::fs::read_to_string(store.dir().join("_meta.json")).unwrap();
        let doc = Json::parse(&meta).unwrap();
        assert_eq!(
            doc.get("spt_store_schema").and_then(Json::as_u64),
            Some(STORE_SCHEMA as u64)
        );
    }

    #[test]
    fn report_encoders_roundtrip_exactly() {
        use spt_workloads::kernels::array_map;
        let prog = array_map(64, 8);
        let cfg = spt_mach::MachineConfig::default();
        let annots = spt_sim::LoopAnnotations::empty();
        let base = spt_sim::simulate_baseline(&prog, &cfg.core, &annots, 10_000_000);
        let back = BaselineReport::from_payload(&base.to_payload()).unwrap();
        assert_eq!(back.to_payload().dump(), base.to_payload().dump());
        assert_eq!(back.cycles, base.cycles);
        assert_eq!(back.ret, base.ret);
        assert_eq!(back.bp_lookups, base.bp_lookups);
        assert_eq!(back.loop_instrs, base.loop_instrs);

        let out = crate::solution::evaluate_program(
            "array_map",
            &prog,
            &crate::solution::RunConfig {
                fuel: 10_000_000,
                ..Default::default()
            },
        );
        let spt = out.spt;
        let back = SptReport::from_payload(&spt.to_payload()).unwrap();
        assert_eq!(back.to_payload().dump(), spt.to_payload().dump());
        assert_eq!(back.cycles, spt.cycles);
        assert_eq!(back.per_loop.len(), spt.per_loop.len());
        assert_eq!(back.per_core.len(), spt.per_core.len());
        assert_eq!(back.ret, spt.ret);
    }
}
