//! On-disk [`ArtifactCache`] persistence: restart reuse, corruption
//! eviction (truncated / bit-flipped / wrong-version / format-1 files), and
//! sibling caches racing on one spill directory.

use concord_energy::SystemConfig;
use concord_runtime::{ArtifactCache, Concord, Options, Target};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const SRC_A: &str = r#"
    class Scale2 {
    public:
        int* out; int n;
        void operator()(int i) { out[i] = i * 2; }
    };
"#;

const SRC_B: &str = r#"
    class Scale3 {
    public:
        int* out; int n;
        void operator()(int i) { out[i] = i * 3; }
    };
"#;

/// Fresh scratch directory under the target dir (unique per test name, so
/// parallel test threads never share one).
fn scratch_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("concord-disk-cache-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run_one(cache: &ArtifactCache, src: &str, class: &str) {
    let mut cc =
        Concord::new_with_cache(SystemConfig::ultrabook(), src, Options::default(), cache).unwrap();
    let out = cc.malloc(64 * 4).unwrap();
    let body = cc.malloc(16).unwrap();
    cc.region_mut().write_ptr(body, out).unwrap();
    cc.parallel_for_hetero(class, body, 64, Target::Gpu).unwrap();
    let mult = if class == "Scale2" { 2 } else { 3 };
    for i in 0..64u64 {
        let got = cc.region().read_i32(concord_svm::CpuAddr(out.0 + i * 4)).unwrap();
        assert_eq!(got, i as i32 * mult, "{class} result after cache path");
    }
}

/// The single `.cca` entry file in `dir`.
fn entry_file(dir: &Path) -> PathBuf {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "cca"))
        .collect();
    assert_eq!(entries.len(), 1, "expected exactly one artifact file in {dir:?}");
    entries.pop().unwrap()
}

#[test]
fn restart_reuses_disk_entries_with_zero_recompiles() {
    let dir = scratch_dir("restart");

    // "First process": compiles once, spills once, second session memory-hits.
    let cache = ArtifactCache::with_disk(&dir).unwrap();
    run_one(&cache, SRC_A, "Scale2");
    run_one(&cache, SRC_A, "Scale2");
    assert_eq!((cache.misses(), cache.hits()), (1, 1));
    assert_eq!(cache.compiles(), 1);
    assert_eq!(cache.disk_writes(), 1);
    assert_eq!(cache.disk_hits(), 0);
    drop(cache);

    // "Restarted process": a fresh cache over the same directory must load
    // the artifact from disk and execute it correctly without recompiling.
    let cache = ArtifactCache::with_disk(&dir).unwrap();
    run_one(&cache, SRC_A, "Scale2");
    assert_eq!(cache.disk_hits(), 1, "restart must be served from disk");
    assert_eq!(cache.compiles(), 0, "restart must not recompile");
    assert_eq!(cache.corrupt_evicted(), 0);
    assert_eq!(cache.misses(), 1, "a disk hit is still an in-memory miss");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_entry_is_evicted_and_recompiled() {
    let dir = scratch_dir("truncated");
    let cache = ArtifactCache::with_disk(&dir).unwrap();
    run_one(&cache, SRC_A, "Scale2");
    drop(cache);

    let path = entry_file(&dir);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();

    let cache = ArtifactCache::with_disk(&dir).unwrap();
    run_one(&cache, SRC_A, "Scale2");
    assert_eq!(cache.corrupt_evicted(), 1, "truncated file must be detected");
    assert_eq!(cache.compiles(), 1, "and recompiled transparently");
    assert_eq!(cache.disk_hits(), 0);
    assert_eq!(cache.disk_writes(), 1, "the rebuilt entry is spilled again");
    drop(cache);

    // The rewritten entry is valid again.
    let cache = ArtifactCache::with_disk(&dir).unwrap();
    run_one(&cache, SRC_A, "Scale2");
    assert_eq!((cache.disk_hits(), cache.compiles()), (1, 0));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bit_flipped_entry_fails_its_checksum() {
    let dir = scratch_dir("bitflip");
    let cache = ArtifactCache::with_disk(&dir).unwrap();
    run_one(&cache, SRC_A, "Scale2");
    drop(cache);

    let path = entry_file(&dir);
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40; // one flipped bit deep in the payload
    std::fs::write(&path, &bytes).unwrap();

    let cache = ArtifactCache::with_disk(&dir).unwrap();
    run_one(&cache, SRC_A, "Scale2");
    assert_eq!(cache.corrupt_evicted(), 1, "bit flip must fail the checksum");
    assert_eq!(cache.compiles(), 1);
    assert_eq!(cache.disk_hits(), 0);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wrong_version_entry_is_evicted() {
    let dir = scratch_dir("version");
    let cache = ArtifactCache::with_disk(&dir).unwrap();
    run_one(&cache, SRC_A, "Scale2");
    drop(cache);

    let path = entry_file(&dir);
    let mut bytes = std::fs::read(&path).unwrap();
    // Byte 8 starts the little-endian format-version word after the magic.
    bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();

    let cache = ArtifactCache::with_disk(&dir).unwrap();
    run_one(&cache, SRC_A, "Scale2");
    assert_eq!(cache.corrupt_evicted(), 1, "future-version file must not be misread");
    assert_eq!(cache.compiles(), 1);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn format_1_entry_is_evicted_not_misread() {
    let dir = scratch_dir("format1");
    let cache = ArtifactCache::with_disk(&dir).unwrap();
    run_one(&cache, SRC_A, "Scale2");
    drop(cache);

    // Format 1 carried the frontend's type environment and signature table
    // after the IR module; its payload cannot decode as today's. Stamp a
    // fresh entry with version 1: the version word alone must reject it.
    let path = entry_file(&dir);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();

    let cache = ArtifactCache::with_disk(&dir).unwrap();
    run_one(&cache, SRC_A, "Scale2");
    assert_eq!(cache.corrupt_evicted(), 1, "a format-1 file must be evicted, not decoded");
    assert_eq!(cache.compiles(), 1, "and recompiled");
    assert_eq!(cache.disk_hits(), 0);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sibling_caches_racing_on_one_directory_stay_consistent() {
    let dir = scratch_dir("race");
    // Two caches over the same directory model two server processes racing.
    let a = Arc::new(ArtifactCache::with_disk(&dir).unwrap());
    let b = Arc::new(ArtifactCache::with_disk(&dir).unwrap());
    std::thread::scope(|s| {
        for t in 0..8usize {
            let cache = if t % 2 == 0 { Arc::clone(&a) } else { Arc::clone(&b) };
            s.spawn(move || {
                let (src, class) = if t < 4 { (SRC_A, "Scale2") } else { (SRC_B, "Scale3") };
                run_one(&cache, src, class);
            });
        }
    });
    // Every miss was resolved by exactly one of: a real compile or a disk
    // load of the other process's entry — and never corrupted anything.
    for cache in [&a, &b] {
        assert_eq!(cache.misses(), cache.compiles() + cache.disk_hits());
        assert_eq!(cache.corrupt_evicted(), 0);
    }
    assert!(a.compiles() + b.compiles() >= 2, "each source compiled somewhere");
    drop((a, b));

    // Whatever the interleaving, the files left behind are valid: a fresh
    // cache replays both sources from disk with zero recompiles.
    let fresh = ArtifactCache::with_disk(&dir).unwrap();
    run_one(&fresh, SRC_A, "Scale2");
    run_one(&fresh, SRC_B, "Scale3");
    assert_eq!((fresh.disk_hits(), fresh.compiles()), (2, 0));
    assert_eq!(fresh.corrupt_evicted(), 0);

    let _ = std::fs::remove_dir_all(&dir);
}
