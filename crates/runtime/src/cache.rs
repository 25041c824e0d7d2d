//! Process-wide compile/JIT-artifact sharing across [`Concord`] sessions.
//!
//! Every [`Concord`] gets its compiled artifact through an [`ArtifactCache`].
//! One built with [`Concord::new`] gets a fresh in-memory cache of its own,
//! so it compiles its source privately and JIT-caches GPU binaries per
//! instance (§3.4). A multi-session host —
//! `concord-serve` multiplexing independent clients, or any embedder that
//! spins up many contexts over the same kernels — would repeat that work
//! once per session. [`ArtifactCache`] hoists it to the process: entries
//! are keyed by **(source hash, [`GpuConfig`])** and hold the fully
//! compiled CPU module, the GPU-lowered artifact, and the set of kernels
//! already JIT-charged, so the second session over identical source
//! compiles nothing and pays no JIT cost the first session already paid.
//!
//! The cache is deliberately coarse (whole translation units, not
//! individual kernels): the frontend compiles translation units, and a
//! client of the serving layer submits exactly one unit per session.
//!
//! [`Concord`]: crate::Concord
//! [`Concord::new`]: crate::Concord::new

use concord_compiler::{GpuArtifact, GpuConfig};
use concord_frontend::LoweredProgram;
use concord_ir::codec::{fnv1a_64, ByteReader, ByteWriter, Codec};
use concord_ir::FuncId;
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Magic prefix of an on-disk artifact file.
const DISK_MAGIC: &[u8; 8] = b"CONCACHE";

/// On-disk format version. Bumped whenever any codec layout changes; files
/// carrying another version are evicted and recompiled, never misread.
/// Format 2 dropped the frontend's type environment and signature table
/// from the payload: a lowered program is its IR module, kernels, warnings
/// and source statistics.
const DISK_FORMAT_VERSION: u32 = 2;

/// The per-kernel "already JIT-compiled" set shared by every session that
/// hit the same cache entry. The GPU backend charges `jit_ms` only on the
/// first insertion of a kernel's [`FuncId`] — process-wide, when sessions
/// share this set through the cache.
pub type SharedJitSet = Arc<Mutex<HashSet<FuncId>>>;

/// Lazily-compiled native machine code shared by every session that hit
/// the same cache entry: `None` until the first `Target::Native` launch
/// compiles the module, after which every session reuses the same
/// executable buffer and reports `jit_seconds == 0` for native codegen.
pub type SharedNativeModule = Arc<Mutex<Option<Arc<concord_native::NativeModule>>>>;

/// Deterministic 64-bit FNV-1a hash of kernel source text — the first half
/// of a cache key. Stable across processes and platforms so keys are
/// loggable and comparable.
#[must_use]
pub fn source_hash(src: &str) -> u64 {
    concord_ir::codec::fnv1a_64(src.as_bytes())
}

/// One cached compilation: everything [`crate::Concord`] derives from
/// source text that is independent of the session's region and simulators.
/// The program and the GPU artifact are immutable once compiled, so every
/// session opened on this entry shares them instead of cloning them.
pub(crate) struct CachedArtifact {
    pub(crate) program: Arc<LoweredProgram>,
    pub(crate) gpu_artifact: Arc<GpuArtifact>,
    pub(crate) jitted: SharedJitSet,
    pub(crate) native: SharedNativeModule,
}

/// A process-wide, thread-safe compile/JIT-artifact cache keyed by
/// (source hash, [`GpuConfig`]).
///
/// Construct one per serving process (or per test) and build sessions
/// through [`crate::Concord::new_with_cache`]. Hit/miss counters are
/// monotonic and cheap to read, so a server can surface cache
/// effectiveness in its stats output.
#[derive(Default)]
pub struct ArtifactCache {
    entries: Mutex<HashMap<(u64, GpuConfig), Arc<CachedArtifact>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Spill directory; `None` for a purely in-memory cache.
    disk: Option<PathBuf>,
    disk_hits: AtomicU64,
    compiles: AtomicU64,
    corrupt_evicted: AtomicU64,
    disk_writes: AtomicU64,
}

impl ArtifactCache {
    /// An empty in-memory cache.
    #[must_use]
    pub fn new() -> Self {
        ArtifactCache::default()
    }

    /// A cache that additionally spills compiled artifacts to `dir` and
    /// satisfies in-memory misses from it, so restarted or sibling
    /// processes reuse compiles. The directory is created if absent.
    ///
    /// Entries are one file per (source hash, [`GpuConfig`]) key, written
    /// atomically (temp file + rename) and validated on load by magic,
    /// format version, key echo, and an FNV-1a checksum over the payload —
    /// a corrupt or stale file is evicted and recompiled transparently.
    /// Native machine code is *not* persisted (it is re-JITed per process);
    /// a disk hit therefore skips frontend + GPU lowering but still pays
    /// first-launch JIT cost.
    ///
    /// # Errors
    ///
    /// Propagates the failure to create `dir`.
    pub fn with_disk(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(ArtifactCache { disk: Some(dir), ..ArtifactCache::default() })
    }

    /// The spill directory, when disk persistence is enabled.
    pub fn disk_dir(&self) -> Option<&Path> {
        self.disk.as_deref()
    }

    /// Compilations served from the in-memory map so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Compilations that had to run because the key was absent.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// In-memory misses satisfied by a valid on-disk entry (no recompile).
    pub fn disk_hits(&self) -> u64 {
        self.disk_hits.load(Ordering::Relaxed)
    }

    /// Full frontend + GPU-lowering compiles actually executed. Always
    /// `misses() - disk_hits()`; "zero recompiles after restart" means this
    /// stays 0 while `disk_hits` grows.
    pub fn compiles(&self) -> u64 {
        self.compiles.load(Ordering::Relaxed)
    }

    /// On-disk entries rejected by validation (bad magic, wrong version,
    /// key mismatch, checksum failure, undecodable payload) and deleted.
    pub fn corrupt_evicted(&self) -> u64 {
        self.corrupt_evicted.load(Ordering::Relaxed)
    }

    /// Artifact files successfully spilled to disk.
    pub fn disk_writes(&self) -> u64 {
        self.disk_writes.load(Ordering::Relaxed)
    }

    /// Distinct (source, config) entries currently cached.
    pub fn entries(&self) -> usize {
        self.entries.lock().unwrap().len()
    }

    /// Whether `(source, config)` is already cached. Informational — a
    /// concurrent insert can race this probe; use the return of the build
    /// path for exact accounting.
    #[must_use]
    pub fn contains(&self, source: &str, config: GpuConfig) -> bool {
        self.entries.lock().unwrap().contains_key(&(source_hash(source), config))
    }

    /// Fetch the artifact for `(source, config)`, compiling and inserting
    /// it on a miss via `compile`. The map lock is held across the compile
    /// so a burst of identical sessions compiles exactly once.
    pub(crate) fn lookup_or_compile<E>(
        &self,
        source: &str,
        config: GpuConfig,
        compile: impl FnOnce() -> Result<(LoweredProgram, GpuArtifact), E>,
    ) -> Result<(Arc<CachedArtifact>, bool), E> {
        let key = (source_hash(source), config);
        let mut entries = self.entries.lock().unwrap();
        if let Some(hit) = entries.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((Arc::clone(hit), true));
        }
        if let Some(entry) = self.load_from_disk(&key) {
            entries.insert(key, Arc::clone(&entry));
            self.misses.fetch_add(1, Ordering::Relaxed);
            self.disk_hits.fetch_add(1, Ordering::Relaxed);
            return Ok((entry, false));
        }
        let (program, gpu_artifact) = compile()?;
        let entry = Arc::new(CachedArtifact {
            program: Arc::new(program),
            gpu_artifact: Arc::new(gpu_artifact),
            jitted: Arc::new(Mutex::new(HashSet::new())),
            native: Arc::new(Mutex::new(None)),
        });
        // Spilled while the map lock is held, which serializes in-process
        // writers; cross-process writers are isolated by per-pid temp names
        // and the atomic rename.
        self.store_to_disk(&key, &entry);
        entries.insert(key, Arc::clone(&entry));
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.compiles.fetch_add(1, Ordering::Relaxed);
        Ok((entry, false))
    }

    /// Filename of the on-disk entry for `key` (stable across processes).
    fn entry_path(dir: &Path, key: &(u64, GpuConfig)) -> PathBuf {
        dir.join(format!("{:016x}-{}.cca", key.0, key.1.cache_tag()))
    }

    /// Try to satisfy `key` from disk. Validation failures evict the file
    /// and count toward `corrupt_evicted`; a missing file is just a miss.
    fn load_from_disk(&self, key: &(u64, GpuConfig)) -> Option<Arc<CachedArtifact>> {
        let dir = self.disk.as_ref()?;
        let path = Self::entry_path(dir, key);
        let bytes = std::fs::read(&path).ok()?;
        match Self::decode_entry(&bytes, key) {
            Ok(entry) => Some(Arc::new(entry)),
            Err(_) => {
                let _ = std::fs::remove_file(&path);
                self.corrupt_evicted.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Validate and decode one artifact file.
    fn decode_entry(bytes: &[u8], key: &(u64, GpuConfig)) -> Result<CachedArtifact, String> {
        let mut r = ByteReader::new(bytes);
        let magic = r.u64().map_err(|e| e.to_string())?;
        if magic != u64::from_le_bytes(*DISK_MAGIC) {
            return Err("bad magic".into());
        }
        let version = r.u32().map_err(|e| e.to_string())?;
        if version != DISK_FORMAT_VERSION {
            return Err(format!("format version {version} != {DISK_FORMAT_VERSION}"));
        }
        let hash = r.u64().map_err(|e| e.to_string())?;
        let config = GpuConfig::decode(&mut r).map_err(|e| e.to_string())?;
        if (hash, config) != *key {
            return Err("key echo mismatch".into());
        }
        let checksum = r.u64().map_err(|e| e.to_string())?;
        let payload = &bytes[r.offset()..];
        if fnv1a_64(payload) != checksum {
            return Err("checksum mismatch".into());
        }
        let program = LoweredProgram::decode(&mut r).map_err(|e| e.to_string())?;
        let gpu_artifact = GpuArtifact::decode(&mut r).map_err(|e| e.to_string())?;
        if !r.is_done() {
            return Err("trailing bytes after payload".into());
        }
        Ok(CachedArtifact {
            program: Arc::new(program),
            gpu_artifact: Arc::new(gpu_artifact),
            jitted: Arc::new(Mutex::new(HashSet::new())),
            native: Arc::new(Mutex::new(None)),
        })
    }

    /// Best-effort spill of a freshly compiled entry: failures leave the
    /// cache purely in-memory for this key, they are never fatal.
    fn store_to_disk(&self, key: &(u64, GpuConfig), entry: &CachedArtifact) {
        let Some(dir) = self.disk.as_ref() else { return };
        let mut payload = ByteWriter::new();
        entry.program.encode(&mut payload);
        entry.gpu_artifact.encode(&mut payload);
        let payload = payload.into_bytes();

        let mut w = ByteWriter::new();
        w.raw(DISK_MAGIC);
        w.u32(DISK_FORMAT_VERSION);
        w.u64(key.0);
        key.1.encode(&mut w);
        w.u64(fnv1a_64(&payload));
        w.raw(&payload);

        let path = Self::entry_path(dir, key);
        let tmp =
            dir.join(format!("{:016x}-{}.tmp.{}", key.0, key.1.cache_tag(), std::process::id()));
        let ok =
            std::fs::write(&tmp, w.into_bytes()).is_ok() && std::fs::rename(&tmp, &path).is_ok();
        if ok {
            self.disk_writes.fetch_add(1, Ordering::Relaxed);
        } else {
            let _ = std::fs::remove_file(&tmp);
        }
    }
}

impl std::fmt::Debug for ArtifactCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArtifactCache")
            .field("entries", &self.entries())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .field("disk", &self.disk)
            .field("disk_hits", &self.disk_hits())
            .field("compiles", &self.compiles())
            .field("corrupt_evicted", &self.corrupt_evicted())
            .field("disk_writes", &self.disk_writes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_hash_is_stable_and_discriminates() {
        assert_eq!(source_hash(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(source_hash("class K {};"), source_hash("class K {};"));
        assert_ne!(source_hash("class K {};"), source_hash("class J {};"));
    }

    #[test]
    fn same_source_different_config_is_a_different_entry() {
        let cache = ArtifactCache::new();
        let compile = || {
            let program = concord_frontend::compile(
                "class K { public: int out; void operator()(int i) { out = i; } };",
            )
            .unwrap();
            let art = concord_compiler::lower_for_gpu(
                &program.module,
                concord_compiler::GpuConfig::all(7),
            );
            Ok::<_, std::convert::Infallible>((program, art))
        };
        let src = "class K { public: int out; void operator()(int i) { out = i; } };";
        let (_, hit) = cache.lookup_or_compile(src, GpuConfig::all(7), compile).unwrap();
        assert!(!hit);
        let (_, hit) = cache.lookup_or_compile(src, GpuConfig::all(7), compile).unwrap();
        assert!(hit);
        let (_, hit) = cache.lookup_or_compile(src, GpuConfig::baseline(7), compile).unwrap();
        assert!(!hit, "GpuConfig is part of the key");
        assert_eq!(cache.entries(), 2);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 2);
    }
}
