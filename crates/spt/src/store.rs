//! Versioned on-disk content-addressed payload store.
//!
//! The `spt-serve` daemon persists each whole response payload here under
//! its request fingerprint, so a repeated request after a restart, or
//! after its in-memory memo entry was evicted, is answered from disk
//! instead of re-simulating. The sweep's phase memo is in-memory only.
//!
//! ## Entry format
//!
//! One entry is one file, `<dir>/<kind>-<key as 016x>.json`, holding a
//! JSON envelope written as exactly these bytes:
//!
//! ```text
//! {"spt_store_schema":5,"kind":"response","key":"00ab...","check":"3f...","payload":{...}}
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
//! [`DiskStore::save_raw`] for that key simply overwrites it. Writes go
//! through a temp file plus rename so concurrent readers of the same
//! directory only ever observe complete entries.
//!
//! The store is value-agnostic: a payload is the bytes of one
//! [`Json::dump`], stored and served as they are.

use crate::json::Json;
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
/// entries. All methods take `&self`, so one handle serves every thread.
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
    /// Open (creating if needed) a store rooted at `dir`, deleting the
    /// `.tmp-*` files that [`DiskStore::save_raw`] and [`DiskStore::flush`]
    /// leave behind when killed between write and rename. A writer in
    /// another process that is between those two steps on the same
    /// directory loses that one write; the store is a cache and already
    /// tolerates failed writes.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<DiskStore> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        for entry in std::fs::read_dir(&dir)?.flatten() {
            if entry.file_name().to_string_lossy().starts_with(".tmp-") {
                let _ = std::fs::remove_file(entry.path());
            }
        }
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
    /// shutdown; entries themselves are already durable at `save_raw` time.
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

    /// `sample_payload()` as stored and served.
    fn sample_body() -> String {
        sample_payload().dump()
    }

    #[test]
    fn save_then_load_roundtrips() {
        let store = DiskStore::open(tmp_dir("roundtrip")).unwrap();
        assert_eq!(store.load_raw("response", 7), None);
        store.save_raw("response", 7, &sample_body());
        assert_eq!(
            store.load_raw("response", 7).as_deref(),
            Some(sample_body().as_str())
        );
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.rejects, s.writes), (1, 1, 0, 1));
    }

    #[test]
    fn kind_and_key_must_match() {
        let store = DiskStore::open(tmp_dir("kindkey")).unwrap();
        store.save_raw("response", 9, &sample_body());
        assert_eq!(store.load_raw("other", 9), None);
        assert_eq!(store.load_raw("response", 10), None);
        // A file renamed to another key's path is rejected, not served.
        std::fs::rename(
            store.entry_path("response", 9),
            store.entry_path("response", 10),
        )
        .unwrap();
        assert_eq!(store.load_raw("response", 10), None);
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
        for (kind, key) in [("response", 0u64), ("response", u64::MAX), ("other", 0xab)] {
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
        let body = sample_body();
        store.save_raw("response", 3, &body);
        let hit = store.load_raw("response", 3).unwrap();
        assert_eq!(&*hit, body.as_str());
        assert_eq!(Json::parse(&hit), Ok(sample_payload()));
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.rejects, s.writes), (1, 0, 0, 1));
    }

    /// Write `bytes` as the entry for `("response", 1)`, then expect a
    /// counted reject, never a panic.
    fn assert_rejected(store: &DiskStore, bytes: &[u8], what: &str) {
        std::fs::write(store.entry_path("response", 1), bytes).unwrap();
        let rejects = store.stats().rejects;
        assert_eq!(store.load_raw("response", 1), None, "{what}");
        assert_eq!(store.stats().rejects, rejects + 1, "{what}");
    }

    #[test]
    fn truncated_garbage_and_stale_schema_read_as_misses_and_are_overwritten() {
        let store = DiskStore::open(tmp_dir("robust")).unwrap();
        let payload = Json::obj()
            .with("s", "esc \" \\ \n é")
            .with("xs", Json::array(vec![1u64, 22, 333]))
            .with("o", Json::obj().with("t", true).with("f", -1.5f64));
        let body = payload.dump();
        let full = entry_bytes("response", 1, &body);
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
        assert_rejected(&store, entry_bytes("other", 1, &body).as_bytes(), "kind");
        assert_rejected(&store, entry_bytes("response", 2, &body).as_bytes(), "key");
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
            assert_rejected(&store, entry_bytes("response", 1, bad).as_bytes(), bad);
        }
        // Nesting past the parser's bound, with a valid checksum.
        let deep = "[".repeat(100_000);
        assert_rejected(&store, entry_bytes("response", 1, &deep).as_bytes(), "deep");

        // Saving over a corrupt entry heals it.
        store.save_raw("response", 1, &body);
        assert_eq!(
            std::fs::read_to_string(store.entry_path("response", 1)).unwrap(),
            full
        );
        assert_eq!(
            store.load_raw("response", 1).as_deref(),
            Some(body.as_str())
        );
    }

    #[test]
    fn open_deletes_leftover_temp_files() {
        let dir = tmp_dir("leftover");
        let store = DiskStore::open(&dir).unwrap();
        store.save_raw("response", 5, &sample_body());
        drop(store);
        let leftovers = [
            dir.join(format!(".tmp-1-0-response-{:016x}", 5)),
            dir.join(".tmp-meta-1"),
        ];
        for p in &leftovers {
            std::fs::write(p, b"half-written").unwrap();
        }
        let store = DiskStore::open(&dir).unwrap();
        for p in &leftovers {
            assert!(!p.exists(), "{} survived open", p.display());
        }
        assert_eq!(
            store.load_raw("response", 5).as_deref(),
            Some(sample_body().as_str())
        );
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
}
