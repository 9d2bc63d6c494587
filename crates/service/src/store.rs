//! The content-addressed result store: explore a program once, serve its
//! results forever (until the semantics version moves).
//!
//! # Keying
//!
//! Entries are keyed by [`CacheKey`]: the 64-bit *canonical fingerprint*
//! of the program's initial machine
//! ([`bdrst_core::engine::canonical_fingerprint`] — the initial machine
//! embeds every thread's whole body, so the fingerprint identifies the
//! program up to hash collision) plus a *version tag* mixing
//! [`bdrst_core::wire::SEMANTICS_VERSION`], the entry format version, and
//! the run configuration. Fingerprints are only probabilistically unique,
//! so every entry carries the program's canonical source
//! ([`Program::to_source`]) and a lookup verifies it against the probe —
//! a genuine collision is counted and treated as a miss (recompute),
//! never served.
//!
//! # Layout
//!
//! In memory the store is a vector of mutex-guarded shards (keyed by
//! fingerprint), sized for concurrent server workers. On disk (optional)
//! each entry is one file, `<fp>-<version>.bdrst`, written atomically
//! (temp file + rename) in a hand-rolled versioned binary format
//! ([`bdrst_core::wire`]): magic, format version, key echo, payload
//! length, payload, payload checksum. *Any* defect — truncation, flipped
//! version, checksum mismatch, structural corruption, source mismatch —
//! makes the load fail closed: the entry is ignored (and counted in
//! [`CacheStats`]) and the caller recomputes. A cache can make a warm run
//! fast; it must never make any run wrong.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeSet, HashMap};
use std::hash::Hasher;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use bdrst_core::engine::{canonical_fingerprint, EngineError, StateGraph, TraceGraph};
use bdrst_core::wire::{checksum, Codec, Reader, WireError, SEMANTICS_VERSION};
use bdrst_lang::{Observation, Program, ThreadState};

/// Bumped whenever the on-disk entry layout or the meaning of a field
/// changes (3: trace trees store each transition label once; 4: trace
/// graphs store one row per distinct machine, in post-order; 5:
/// `visited_states` counts the operational walk's executed extensions
/// under the service's DPOR default, and entries carry no state graph).
pub const ENTRY_FORMAT_VERSION: u32 = 5;

const MAGIC: &[u8; 4] = b"BDRS";

/// Store configuration.
#[derive(Clone, Debug)]
pub struct StoreConfig {
    /// Number of in-memory shards (lock stripes).
    pub shards: usize,
    /// Directory for on-disk persistence; `None` keeps the store
    /// memory-only.
    pub disk_dir: Option<PathBuf>,
    /// Fingerprint truncation mask — `!0` in production. Tests force
    /// collisions by narrowing it (the same technique as the engine's
    /// forced-collision suites), proving correctness never depends on
    /// fingerprints being collision-free.
    #[doc(hidden)]
    pub fingerprint_mask: u64,
}

impl Default for StoreConfig {
    fn default() -> StoreConfig {
        StoreConfig {
            shards: 16,
            disk_dir: None,
            fingerprint_mask: !0,
        }
    }
}

/// The content address of one program's results under one configuration.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CacheKey {
    /// Canonical fingerprint of the program's initial machine.
    pub fingerprint: u64,
    /// Semantics/config version tag ([`version_tag`]).
    pub version: u64,
}

/// Everything the service caches for one program: canonical source (the
/// collision check), both outcome sets, exploration size, and the lazily
/// computed global-DRF verdict and trace graph.
#[derive(Debug)]
pub struct CacheEntry {
    /// Canonical program text ([`Program::to_source`]); verified on every
    /// lookup before the entry is served.
    pub source: String,
    /// Operational outcome set.
    pub op: BTreeSet<Observation>,
    /// Axiomatic outcome set.
    pub ax: BTreeSet<Observation>,
    /// The size of the operational walk that computed `op`: the
    /// `visited` count of [`Program::outcomes_with`] under the service's
    /// strategy — executed trace extensions under DPOR (the server's
    /// default), canonical states under DFS.
    pub visited_states: u64,
    /// Always `None`: the service computes outcomes without recording a
    /// state graph, and entries are persisted without one. The field
    /// stays only because the benchmark's ledger builds entries by struct
    /// literal; it goes once the ledger calls [`CacheEntry::new`]
    /// (ROADMAP items 1 and 2).
    pub graph: Option<StateGraph<ThreadState>>,
    /// Global-DRF verdict (Theorem 14 hypothesis: all SC traces race
    /// free), computed on first demand and memoized.
    pub global_racefree: OnceLock<bool>,
    /// The recorded trace graph ([`bdrst_core::engine::TraceGraph`]),
    /// recorded on the first trace-dependent query (`check-localdrf`,
    /// `check-races`) and memoized — warm queries replay it without
    /// running the transition semantics.
    pub trace: OnceLock<TraceGraph>,
    /// The budget error a recording of this program returned, memoized
    /// so a repeat trace-dependent query fails at once instead of
    /// re-running the recording. In-memory only (never serialized): a
    /// process re-probes once.
    pub trace_infeasible: OnceLock<EngineError>,
}

impl CacheEntry {
    /// An entry with the lazily computed fields (global-DRF verdict,
    /// trace graph, recording failure) not yet set.
    pub fn new(
        source: String,
        op: BTreeSet<Observation>,
        ax: BTreeSet<Observation>,
        visited_states: u64,
    ) -> CacheEntry {
        CacheEntry {
            source,
            op,
            ax,
            visited_states,
            graph: None,
            global_racefree: OnceLock::new(),
            trace: OnceLock::new(),
            trace_infeasible: OnceLock::new(),
        }
    }

    fn encode(&self, out: &mut Vec<u8>) {
        self.source.encode(out);
        let op: Vec<&Observation> = self.op.iter().collect();
        op.len().encode(out);
        for o in op {
            o.encode(out);
        }
        let ax: Vec<&Observation> = self.ax.iter().collect();
        ax.len().encode(out);
        for o in ax {
            o.encode(out);
        }
        self.visited_states.encode(out);
        self.global_racefree.get().copied().encode(out);
        match self.trace.get() {
            None => out.push(0),
            Some(t) => {
                out.push(1);
                t.encode(out);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<CacheEntry, WireError> {
        let source = String::decode(r)?;
        let mut op = BTreeSet::new();
        for _ in 0..r.length(1)? {
            op.insert(Observation::decode(r)?);
        }
        let mut ax = BTreeSet::new();
        for _ in 0..r.length(1)? {
            ax.insert(Observation::decode(r)?);
        }
        let visited_states = u64::decode(r)?;
        let entry = CacheEntry::new(source, op, ax, visited_states);
        if let Some(v) = Option::<bool>::decode(r)? {
            let _ = entry.global_racefree.set(v);
        }
        match u8::decode(r)? {
            0 => {}
            1 => {
                // The graph's labels are checked against the recorded
                // program's threads and locations.
                let program = Program::parse(&entry.source)
                    .map_err(|_| WireError::Invalid("entry source does not parse"))?;
                let trace = TraceGraph::decode(r, &program.locs, program.threads.len())?;
                let _ = entry.trace.set(trace);
            }
            tag => {
                return Err(WireError::BadTag {
                    what: "CacheEntry.trace",
                    tag,
                })
            }
        }
        Ok(entry)
    }
}

/// Monotonic counters describing the store's traffic.
#[derive(Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    collisions: AtomicU64,
    disk_hits: AtomicU64,
    disk_errors: AtomicU64,
    insertions: AtomicU64,
}

/// A point-in-time snapshot of the store's counters.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CacheStats {
    /// Lookups served from memory or disk.
    pub hits: u64,
    /// Lookups that found nothing usable.
    pub misses: u64,
    /// Lookups that found an entry under the right fingerprint for a
    /// *different* program (verified source mismatch). Counted as misses
    /// too.
    pub collisions: u64,
    /// Hits satisfied by loading a disk entry into memory.
    pub disk_hits: u64,
    /// Disk entries rejected (truncated, corrupt, version-mismatched).
    pub disk_errors: u64,
    /// Entries inserted.
    pub insertions: u64,
    /// Entries currently resident in memory.
    pub entries: u64,
}

/// The sharded, optionally disk-backed result store. See the module docs.
pub struct ResultStore {
    config: StoreConfig,
    shards: Vec<Mutex<HashMap<CacheKey, Arc<CacheEntry>>>>,
    counters: Counters,
}

/// The version tag for cache keys: any change to the semantics, the
/// entry layout, or the run configuration (budgets, enumeration limits,
/// and the strategy, which sets the unit of `visited_states`) lands
/// entries in a disjoint key space, so stale results are unreachable
/// rather than filtered.
pub fn version_tag(config: &bdrst_litmus::RunConfig) -> u64 {
    let mut h = DefaultHasher::new();
    h.write_u32(SEMANTICS_VERSION);
    h.write_u32(ENTRY_FORMAT_VERSION);
    // The budget/limit knobs are plain-data Copy structs; their Debug
    // form is a stable, total description of the configuration.
    h.write(
        format!(
            "{:?}|{:?}|{:?}",
            config.explore, config.enumerate, config.strategy
        )
        .as_bytes(),
    );
    h.finish()
}

impl ResultStore {
    /// Opens a store; creates the disk directory if configured.
    ///
    /// # Errors
    ///
    /// I/O errors creating the disk directory.
    pub fn new(config: StoreConfig) -> io::Result<ResultStore> {
        if let Some(dir) = &config.disk_dir {
            std::fs::create_dir_all(dir)?;
        }
        let shards = (0..config.shards.max(1))
            .map(|_| Mutex::new(HashMap::new()))
            .collect();
        Ok(ResultStore {
            config,
            shards,
            counters: Counters::default(),
        })
    }

    /// A memory-only store with default sharding.
    pub fn in_memory() -> ResultStore {
        ResultStore::new(StoreConfig::default()).expect("no disk dir to create")
    }

    /// The content address of `program` under `version` — the canonical
    /// fingerprint of its initial machine, masked by the (test-only)
    /// collision mask.
    ///
    /// # Errors
    ///
    /// [`EngineError::CorruptFrontier`] if the initial machine fails to
    /// fingerprint (impossible for parsed programs).
    pub fn key_for(&self, program: &Program, version: u64) -> Result<CacheKey, EngineError> {
        let fp = canonical_fingerprint(&program.locs, &program.initial_machine())?;
        Ok(CacheKey {
            fingerprint: fp & self.config.fingerprint_mask,
            version,
        })
    }

    fn shard(&self, key: CacheKey) -> &Mutex<HashMap<CacheKey, Arc<CacheEntry>>> {
        &self.shards[(key.fingerprint as usize) % self.shards.len()]
    }

    fn disk_path(&self, key: CacheKey) -> Option<PathBuf> {
        self.config.disk_dir.as_ref().map(|d| {
            d.join(format!(
                "{:016x}-{:016x}.bdrst",
                key.fingerprint, key.version
            ))
        })
    }

    /// Looks up `key`, verifying the entry's canonical source against
    /// `canonical_source` (collision check). Falls through to disk on a
    /// memory miss. Returns `None` — never a wrong entry — on any miss,
    /// mismatch, or decode failure.
    pub fn lookup(&self, key: CacheKey, canonical_source: &str) -> Option<Arc<CacheEntry>> {
        if let Some(entry) = self.shard(key).lock().unwrap().get(&key).cloned() {
            if entry.source == canonical_source {
                self.counters.hits.fetch_add(1, Ordering::Relaxed);
                return Some(entry);
            }
            self.counters.collisions.fetch_add(1, Ordering::Relaxed);
            self.counters.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        if let Some(entry) = self.load_from_disk(key) {
            if entry.source == canonical_source {
                let entry = Arc::new(entry);
                self.shard(key)
                    .lock()
                    .unwrap()
                    .insert(key, Arc::clone(&entry));
                self.counters.hits.fetch_add(1, Ordering::Relaxed);
                self.counters.disk_hits.fetch_add(1, Ordering::Relaxed);
                return Some(entry);
            }
            self.counters.collisions.fetch_add(1, Ordering::Relaxed);
        }
        self.counters.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    fn load_from_disk(&self, key: CacheKey) -> Option<CacheEntry> {
        let path = self.disk_path(key)?;
        let bytes = std::fs::read(&path).ok()?;
        match decode_entry_file(&bytes, key) {
            Ok(entry) => Some(entry),
            Err(_) => {
                // Fail closed: drop the defective file so it cannot keep
                // costing a failed decode per lookup.
                self.counters.disk_errors.fetch_add(1, Ordering::Relaxed);
                let _ = std::fs::remove_file(&path);
                None
            }
        }
    }

    /// Inserts an entry (memory, then best-effort disk) and returns the
    /// shared handle.
    pub fn insert(&self, key: CacheKey, entry: CacheEntry) -> Arc<CacheEntry> {
        let entry = Arc::new(entry);
        self.shard(key)
            .lock()
            .unwrap()
            .insert(key, Arc::clone(&entry));
        self.counters.insertions.fetch_add(1, Ordering::Relaxed);
        self.persist(key, &entry);
        entry
    }

    /// Rewrites the disk copy of an entry (used after memoizing a lazy
    /// verdict into it). Best-effort: persistence failures leave the
    /// store memory-only for that entry. The temp name carries a
    /// process-wide unique counter — two workers persisting the same key
    /// concurrently must not interleave writes into one temp file (the
    /// checksum would catch it on load, but the entry would be lost).
    pub fn persist(&self, key: CacheKey, entry: &CacheEntry) {
        static PERSIST_SEQ: AtomicU64 = AtomicU64::new(0);
        let Some(path) = self.disk_path(key) else {
            return;
        };
        let bytes = encode_entry_file(entry, key);
        let tmp = path.with_extension(format!(
            "tmp.{}.{}",
            std::process::id(),
            PERSIST_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        if std::fs::write(&tmp, &bytes).is_err() || std::fs::rename(&tmp, &path).is_err() {
            // A failed write (disk full) can leave a partial temp file;
            // a failed rename leaves a whole one. Drop it either way —
            // nothing else ever cleans `.tmp.*` names up.
            let _ = std::fs::remove_file(&tmp);
        }
    }

    /// Drops every in-memory entry and deletes every `.bdrst` file in the
    /// disk directory, returning how many entries were removed.
    ///
    /// # Errors
    ///
    /// I/O errors listing the disk directory.
    pub fn clear(&self) -> io::Result<usize> {
        let mut removed = 0usize;
        for shard in &self.shards {
            let mut map = shard.lock().unwrap();
            removed += map.len();
            map.clear();
        }
        if let Some(dir) = &self.config.disk_dir {
            for f in std::fs::read_dir(dir)? {
                let path = f?.path();
                if path.extension().is_some_and(|e| e == "bdrst") {
                    removed += std::fs::remove_file(&path).is_ok() as usize;
                }
            }
        }
        Ok(removed)
    }

    /// Current traffic counters plus resident entry count.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.counters.hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            collisions: self.counters.collisions.load(Ordering::Relaxed),
            disk_hits: self.counters.disk_hits.load(Ordering::Relaxed),
            disk_errors: self.counters.disk_errors.load(Ordering::Relaxed),
            insertions: self.counters.insertions.load(Ordering::Relaxed),
            entries: self
                .shards
                .iter()
                .map(|s| s.lock().unwrap().len() as u64)
                .sum(),
        }
    }

    /// Always `false`: entries never hold a state graph. Its sole caller
    /// is the benchmark's ledger (`perfbench/src/ledger.rs`), which builds
    /// entries by struct literal; it goes when the ledger calls the
    /// service's miss steps instead (ROADMAP item 1).
    pub fn persist_graphs(&self) -> bool {
        false
    }

    /// The disk directory, if any.
    pub fn disk_dir(&self) -> Option<&Path> {
        self.config.disk_dir.as_deref()
    }
}

fn encode_entry_file(entry: &CacheEntry, key: CacheKey) -> Vec<u8> {
    let mut payload = Vec::new();
    entry.encode(&mut payload);
    let mut out = Vec::with_capacity(payload.len() + 40);
    out.extend_from_slice(MAGIC);
    ENTRY_FORMAT_VERSION.encode(&mut out);
    key.version.encode(&mut out);
    key.fingerprint.encode(&mut out);
    payload.len().encode(&mut out);
    out.extend_from_slice(&payload);
    checksum(&payload).encode(&mut out);
    out
}

fn decode_entry_file(bytes: &[u8], key: CacheKey) -> Result<CacheEntry, WireError> {
    let mut r = Reader::new(bytes);
    if r.take(4)? != MAGIC {
        return Err(WireError::Invalid("bad magic"));
    }
    if u32::decode(&mut r)? != ENTRY_FORMAT_VERSION {
        return Err(WireError::Invalid("entry format version"));
    }
    if u64::decode(&mut r)? != key.version {
        return Err(WireError::Invalid("version tag"));
    }
    if u64::decode(&mut r)? != key.fingerprint {
        return Err(WireError::Invalid("fingerprint echo"));
    }
    let len = r.length(1)?;
    let payload = r.take(len)?;
    let sum = u64::decode(&mut r)?;
    if !r.is_done() {
        return Err(WireError::Invalid("trailing bytes"));
    }
    if checksum(payload) != sum {
        return Err(WireError::Checksum);
    }
    let mut pr = Reader::new(payload);
    let entry = CacheEntry::decode(&mut pr)?;
    if !pr.is_done() {
        return Err(WireError::Invalid("trailing payload bytes"));
    }
    Ok(entry)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry_for(src: &str) -> (Program, CacheEntry) {
        let p = Program::parse(src).unwrap();
        let (op, stats) = p
            .outcomes_with(Default::default(), bdrst_core::engine::Strategy::Dpor)
            .unwrap();
        let entry = CacheEntry::new(
            p.to_source(),
            op.set().clone(),
            BTreeSet::new(),
            stats.visited as u64,
        );
        (p, entry)
    }

    const SB: &str = "nonatomic a b;
        thread P0 { a = 1; r0 = b; }
        thread P1 { b = 1; r1 = a; }";

    #[test]
    fn entry_file_round_trips() {
        let (p, entry) = entry_for(SB);
        entry.global_racefree.set(true).unwrap();
        let (trace, _) = bdrst_core::engine::TraceEngine::new(Default::default())
            .record(&p.locs, p.initial_machine())
            .unwrap();
        entry.trace.set(trace).unwrap();
        let key = CacheKey {
            fingerprint: 0x1234,
            version: 0x9,
        };
        let bytes = encode_entry_file(&entry, key);
        let back = decode_entry_file(&bytes, key).unwrap();
        assert_eq!(back.source, entry.source);
        assert_eq!(back.op, entry.op);
        assert_eq!(back.ax, entry.ax);
        assert_eq!(back.visited_states, entry.visited_states);
        assert_eq!(back.global_racefree.get(), Some(&true));
        assert!(back.graph.is_none());
        // The decoded trace tree survives with its node count intact.
        assert_eq!(
            back.trace.get().map(|t| t.len()),
            entry.trace.get().map(|t| t.len())
        );
    }

    #[test]
    fn every_header_defect_is_rejected() {
        let (_, entry) = entry_for(SB);
        let key = CacheKey {
            fingerprint: 7,
            version: 1,
        };
        let good = encode_entry_file(&entry, key);
        assert!(decode_entry_file(&good, key).is_ok());
        // Wrong expected key (version flip and fingerprint flip).
        assert!(decode_entry_file(
            &good,
            CacheKey {
                fingerprint: 7,
                version: 2
            }
        )
        .is_err());
        assert!(decode_entry_file(
            &good,
            CacheKey {
                fingerprint: 8,
                version: 1
            }
        )
        .is_err());
        // Truncations.
        for cut in [0, 3, 10, good.len() / 2, good.len() - 1] {
            assert!(decode_entry_file(&good[..cut], key).is_err(), "cut {cut}");
        }
        // Any flipped payload byte must trip the checksum.
        for i in (44..good.len().saturating_sub(9)).step_by(13) {
            let mut bad = good.clone();
            bad[i] ^= 0xff;
            assert!(decode_entry_file(&bad, key).is_err(), "flip {i}");
        }
    }

    #[test]
    fn version_tag_separates_configs_and_versions() {
        let d = bdrst_litmus::RunConfig::default();
        let mut tight = d;
        tight.explore.max_states = 3;
        assert_ne!(version_tag(&d), version_tag(&tight));
        assert_eq!(version_tag(&d), version_tag(&d));
        // DFS entries count canonical states, DPOR entries extensions.
        let mut dpor = d;
        dpor.strategy = bdrst_core::engine::Strategy::Dpor;
        assert_ne!(version_tag(&d), version_tag(&dpor));
    }
}
