//! Content-addressed ROM cache: repeated `pmor run` / `pmor bench`
//! invocations skip re-reduction.
//!
//! The paper's whole pitch is that reduction cost amortizes across many
//! cheap evaluations — so the CLI should never pay it twice for the same
//! inputs. A cache entry is keyed by everything the reduced model is a
//! function of:
//!
//! * the **assembled system's content fingerprint**
//!   ([`pmor::system_fingerprint`]: dims, ports, and every matrix entry
//!   of `G0/C0/Gᵢ/Cᵢ`) — so two scenarios generating the same system
//!   share entries, and any generator-config change misses,
//! * the **method** registry name,
//! * the **tuning** knobs ([`pmor::ReducerTuning`]) — unset (`None`)
//!   fields resolve to registry defaults at build time, so the key also
//!   folds in [`pmor::reduce::registry_defaults::fingerprint`]: a
//!   changed registry default invalidates entries instead of silently
//!   serving models reduced under the old default,
//! * the [`pmor::rom::ROM_FORMAT_VERSION`] plus a local cache-schema
//!   version.
//!
//! Entries are ordinary [`pmor::rom`] files (`<key>_<method>.rom` under
//! the cache directory), so `pmor info` / `pmor eval` can inspect them
//! directly, and the serialization layer's checksum means a corrupted
//! entry is silently treated as a miss and re-reduced. Reloaded ROMs
//! evaluate **bitwise identically** to the freshly reduced ones (the
//! serialization round-trip guarantee), so caching never changes
//! numbers, only wall-clock.

use pmor::rom;
use pmor::{ParametricRom, ReducerTuning};
use std::path::{Path, PathBuf};

/// Bump when the key derivation itself changes, or when the reducers
/// start producing different bytes for the same inputs (invalidates all
/// old entries without having to delete them). Version 2: congruence
/// mirrors the reduced matrices of symmetric systems, so their ROMs
/// evaluate on the pivot-free `LDLᵀ` kernel. Version 3: the pruned reach
/// search reorders the sparse LU's updates and the supervariable AMD
/// gives another permutation, so factors and ROMs move in the last bits.
const CACHE_SCHEMA_VERSION: u64 = 3;

/// A directory of content-addressed ROM files.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RomCache {
    dir: PathBuf,
}

impl RomCache {
    /// A cache rooted at `dir` (created lazily on first store).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        RomCache { dir: dir.into() }
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The content key for reducing `method` (with `tuning`) on a system
    /// whose [`pmor::system_fingerprint`] is `fingerprint`.
    pub fn key(fingerprint: u64, method: &str, tuning: &ReducerTuning) -> u64 {
        Self::key_at_schema(CACHE_SCHEMA_VERSION, fingerprint, method, tuning)
    }

    /// [`RomCache::key`] under cache-schema version `schema`.
    fn key_at_schema(schema: u64, fingerprint: u64, method: &str, tuning: &ReducerTuning) -> u64 {
        let opt_f64 = |v: Option<f64>| v.map_or(u64::MAX, f64::to_bits);
        let opt_usize = |v: Option<usize>| v.map_or(u64::MAX, |n| n as u64);
        let mut words = vec![
            schema,
            rom::ROM_FORMAT_VERSION as u64,
            pmor::reduce::registry_defaults::fingerprint(),
            fingerprint,
        ];
        words.extend(method.bytes().map(u64::from));
        words.extend([
            opt_f64(tuning.range),
            opt_usize(tuning.samples_per_axis),
            opt_usize(tuning.block_moments),
            opt_usize(tuning.s_order),
            opt_usize(tuning.param_order),
            opt_usize(tuning.rank),
            tuning.include_transpose.map_or(2, u64::from),
            tuning.adaptive.map_or(2, u64::from),
            opt_f64(tuning.tolerance),
            opt_usize(tuning.max_order),
            opt_usize(tuning.probe_points),
            opt_usize(tuning.max_points),
        ]);
        pmor::reduce::fnv1a_words(words)
    }

    /// The file an entry lives at.
    pub fn entry_path(&self, key: u64, method: &str) -> PathBuf {
        self.dir.join(format!("{key:016x}_{method}.rom"))
    }

    /// Looks an entry up; any failure (absent, corrupted, version
    /// mismatch) is a miss.
    pub fn load(&self, key: u64, method: &str) -> Option<ParametricRom> {
        rom::load(self.entry_path(key, method)).ok()
    }

    /// Stores a reduced model under its key, returning the entry path.
    ///
    /// The write is atomic with respect to concurrent readers and
    /// writers: the bytes land in a process-unique temp file in the
    /// cache directory first and are `rename`d onto the entry path
    /// (rename is atomic on POSIX within a filesystem). Two `pmor run`
    /// processes racing on the same key therefore never expose a torn
    /// `.rom` file — a reader sees the old entry, the new entry, or a
    /// miss, but never a partial write.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation, write, and rename failures.
    pub fn store(&self, key: u64, method: &str, model: &ParametricRom) -> Result<PathBuf, String> {
        std::fs::create_dir_all(&self.dir)
            .map_err(|e| format!("creating cache dir {}: {e}", self.dir.display()))?;
        let path = self.entry_path(key, method);
        // Unique per process *and* per call, so concurrent stores (even
        // racing threads of one process) never share a temp file.
        static STORE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = STORE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let tmp = self.dir.join(format!(
            ".tmp_{key:016x}_{method}_{}_{seq}.rom",
            std::process::id()
        ));
        let bytes = rom::to_bytes(model);
        if let Err(e) = std::fs::write(&tmp, &bytes) {
            let _ = std::fs::remove_file(&tmp);
            return Err(format!("writing {}: {e}", tmp.display()));
        }
        if let Err(e) = std::fs::rename(&tmp, &path) {
            let _ = std::fs::remove_file(&tmp);
            return Err(format!("renaming into {}: {e}", path.display()));
        }
        Ok(path)
    }
}

#[cfg(test)]
#[path = "../../../tests/support/temp_dir.rs"]
mod temp_dir;

#[cfg(test)]
mod tests {
    use super::temp_dir::TempDir;
    use super::*;
    use pmor::{reducer_by_name, ReducerTuning};
    use pmor_circuits::generators::{clock_tree, ClockTreeConfig};

    #[test]
    fn key_separates_fingerprint_method_and_tuning() {
        let t = ReducerTuning::default();
        let base = RomCache::key(1, "prima", &t);
        assert_ne!(base, RomCache::key(2, "prima", &t));
        assert_ne!(base, RomCache::key(1, "lowrank", &t));
        let tuned = ReducerTuning {
            rank: Some(3),
            ..Default::default()
        };
        assert_ne!(base, RomCache::key(1, "prima", &tuned));
        // Unset (None) and set-to-zero knobs must not collide.
        let zeroed = ReducerTuning {
            rank: Some(0),
            ..Default::default()
        };
        assert_ne!(RomCache::key(1, "prima", &zeroed), base);
        assert_eq!(base, RomCache::key(1, "prima", &ReducerTuning::default()));
        // Entries written under an older schema must miss: schema 1
        // cached unmirrored ROMs of symmetric systems, schema 2 ROMs from
        // the unpruned factorization and the old AMD.
        assert_eq!(CACHE_SCHEMA_VERSION, 3);
        assert_eq!(base, RomCache::key_at_schema(3, 1, "prima", &t));
        assert_ne!(base, RomCache::key_at_schema(2, 1, "prima", &t));
        assert_ne!(base, RomCache::key_at_schema(1, 1, "prima", &t));
        // Every adaptive knob separates keys too: a model reduced to a
        // loose tolerance must never be served for a tight one.
        for t in [
            ReducerTuning {
                adaptive: Some(true),
                ..Default::default()
            },
            ReducerTuning {
                adaptive: Some(false),
                ..Default::default()
            },
            ReducerTuning {
                tolerance: Some(1e-6),
                ..Default::default()
            },
            ReducerTuning {
                max_order: Some(64),
                ..Default::default()
            },
            ReducerTuning {
                probe_points: Some(9),
                ..Default::default()
            },
            ReducerTuning {
                max_points: Some(4),
                ..Default::default()
            },
        ] {
            assert_ne!(base, RomCache::key(1, "prima", &t), "{t:?} collides");
        }
        let loose = ReducerTuning {
            adaptive: Some(true),
            tolerance: Some(1e-3),
            ..Default::default()
        };
        let tight = ReducerTuning {
            adaptive: Some(true),
            tolerance: Some(1e-9),
            ..Default::default()
        };
        assert_ne!(
            RomCache::key(1, "multipoint", &loose),
            RomCache::key(1, "multipoint", &tight)
        );
    }

    #[test]
    fn tuning_only_scenario_differences_never_share_entries() {
        // Regression for the full store/load path (not just the key
        // function): two runs identical except for one `[reduce]` tuning
        // knob — including the adaptive tolerance — must hit distinct
        // files and never serve each other's models.
        let dir = TempDir::new("rom_cache_collision");
        let cache = RomCache::new(&*dir);
        let sys = clock_tree(&ClockTreeConfig {
            num_nodes: 20,
            ..Default::default()
        })
        .assemble();
        let fp = pmor::system_fingerprint(&sys);
        let base_tuning = ReducerTuning::default();
        let variants = [
            ReducerTuning {
                block_moments: Some(3),
                ..Default::default()
            },
            ReducerTuning {
                adaptive: Some(true),
                tolerance: Some(1e-6),
                ..Default::default()
            },
            ReducerTuning {
                adaptive: Some(true),
                tolerance: Some(1e-4),
                ..Default::default()
            },
        ];
        let rom = reducer_by_name("multipoint", &sys)
            .unwrap()
            .reduce_once(&sys)
            .unwrap();
        let base_key = RomCache::key(fp, "multipoint", &base_tuning);
        cache.store(base_key, "multipoint", &rom).unwrap();
        for t in &variants {
            let key = RomCache::key(fp, "multipoint", t);
            assert_ne!(key, base_key, "{t:?} collides with default tuning");
            assert!(
                cache.load(key, "multipoint").is_none(),
                "{t:?} served the default tuning's model"
            );
        }
        // Pairwise distinct as well (loose vs tight tolerance, etc.).
        for (i, a) in variants.iter().enumerate() {
            for b in &variants[i + 1..] {
                assert_ne!(
                    RomCache::key(fp, "multipoint", a),
                    RomCache::key(fp, "multipoint", b),
                    "{a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn port_placement_changes_the_system_fingerprint() {
        // Regression: two systems identical in G/C but with a moved
        // input port produce different reduced models, so they must not
        // share cache entries.
        let sys = clock_tree(&ClockTreeConfig {
            num_nodes: 20,
            ..Default::default()
        })
        .assemble();
        let mut moved = sys.clone();
        let (r0, r1) = (0, moved.b.nrows() - 1);
        let tmp = moved.b[(r0, 0)];
        moved.b[(r0, 0)] = moved.b[(r1, 0)];
        moved.b[(r1, 0)] = tmp;
        assert_ne!(
            pmor::system_fingerprint(&sys),
            pmor::system_fingerprint(&moved)
        );
        let mut out_moved = sys.clone();
        let mid = out_moved.l.nrows() / 2;
        out_moved.l[(mid, 0)] += 1.0;
        assert_ne!(
            pmor::system_fingerprint(&sys),
            pmor::system_fingerprint(&out_moved)
        );
    }

    #[test]
    fn concurrent_stores_never_expose_a_torn_entry() {
        // Regression for the cache-dir race: two `pmor run` processes
        // writing the same entry concurrently must never let a reader
        // observe a partially written `.rom` file. With atomic
        // temp-file + rename stores, every load during the storm is
        // either a miss (before the first rename) or a fully valid
        // model — the serialization checksum would catch a torn file,
        // but the point is that rename makes torn files impossible, so
        // ALL loads after the first successful store must hit.
        let dir = TempDir::new("rom_cache_race");
        let cache = RomCache::new(&*dir);
        let sys = clock_tree(&ClockTreeConfig {
            num_nodes: 20,
            ..Default::default()
        })
        .assemble();
        let rom = reducer_by_name("prima", &sys)
            .unwrap()
            .reduce_once(&sys)
            .unwrap();
        let key = RomCache::key(pmor::system_fingerprint(&sys), "prima", &Default::default());
        let expected_bytes = pmor::rom::to_bytes(&rom);

        const WRITERS: usize = 4;
        const ROUNDS: usize = 25;
        std::thread::scope(|scope| {
            for _ in 0..WRITERS {
                scope.spawn(|| {
                    for _ in 0..ROUNDS {
                        cache.store(key, "prima", &rom).expect("store");
                    }
                });
            }
            // Reader hammers the entry while writers race: every hit
            // must be a complete, bitwise-correct model.
            let mut hits = 0usize;
            while hits < 50 {
                if let Some(back) = cache.load(key, "prima") {
                    hits += 1;
                    assert_eq!(
                        pmor::rom::to_bytes(&back),
                        expected_bytes,
                        "reader observed a torn or foreign entry"
                    );
                }
                std::hint::spin_loop();
            }
        });
        // No temp droppings left behind once the dust settles.
        let leftovers: Vec<_> = std::fs::read_dir(&*dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with(".tmp_"))
            .collect();
        assert!(leftovers.is_empty(), "temp files leaked: {leftovers:?}");
    }

    #[test]
    fn store_then_load_round_trips_and_corruption_misses() {
        let dir = TempDir::new("rom_cache");
        let cache = RomCache::new(&*dir);
        let sys = clock_tree(&ClockTreeConfig {
            num_nodes: 20,
            ..Default::default()
        })
        .assemble();
        let rom = reducer_by_name("prima", &sys)
            .unwrap()
            .reduce_once(&sys)
            .unwrap();
        let key = RomCache::key(pmor::system_fingerprint(&sys), "prima", &Default::default());
        assert!(cache.load(key, "prima").is_none(), "cold cache must miss");
        let path = cache.store(key, "prima", &rom).unwrap();
        let back = cache.load(key, "prima").expect("hit after store");
        assert_eq!(back.size(), rom.size());
        // Corrupt the entry: the checksum turns it into a miss.
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 9;
        bytes[last] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert!(cache.load(key, "prima").is_none(), "corrupt entry served");
        // A version-1 file at the entry path (intact checksum, old
        // version word) is a miss too, so the entry is rebuilt.
        let mut old = pmor::rom::to_bytes(&rom);
        old[8..12].copy_from_slice(&1u32.to_le_bytes());
        std::fs::write(&path, &old).unwrap();
        assert!(cache.load(key, "prima").is_none(), "version-1 entry served");
    }
}
