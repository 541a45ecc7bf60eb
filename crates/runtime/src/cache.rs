//! The compiled-program cache: a sharded LRU keyed by a structural,
//! placement-normalized program hash.
//!
//! Serving campaigns submit the same query program thousands of times;
//! without a cache every submission pays the full pass pipeline (and the
//! differential verifier, when enabled). Placement is data beside a job,
//! never part of its program, so the cache works in one *canonical
//! frame*: `submit` moves a program confined to a single DBC — every
//! workload chunk the front ends emit — onto the canonical DBC
//! `(0,0,0,0)` in place, hashes it once and carries that key with the
//! job; the same logical program therefore lands on one
//! entry wherever its client compiled it, a hit is an [`Arc::clone`] of
//! the stored artifact, and on a miss the submitted program itself moves
//! into the entry. Programs spanning several DBCs, and tile-relative
//! ([`Placement::Resident`]) ones whose DBC indices carry meaning, stay
//! as written and are keyed with their concrete locations.
//!
//! A full structural equality check against the stored original guards
//! every hit, so a 64-bit hash collision degrades to a miss, never to a
//! wrong artifact. Within each shard, eviction is LRU by a per-shard
//! access stamp.

use crate::job::{PimJob, Placement};
use coruscant_core::program::{PimProgram, Step};
use coruscant_mem::DbcLocation;
use serde::Serialize;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Compiled-program cache configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheOptions {
    /// Master switch; `false` compiles every submission.
    pub enabled: bool,
    /// Total cached programs across all shards before LRU eviction.
    pub capacity: usize,
    /// Lock shards (submissions hash-partition across them).
    pub shards: usize,
}

impl Default for CacheOptions {
    fn default() -> CacheOptions {
        CacheOptions {
            enabled: true,
            capacity: 256,
            shards: 8,
        }
    }
}

/// Counters of a session's cache behavior.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct CacheStats {
    /// Submissions served from the cache (pass pipeline skipped).
    pub hits: u64,
    /// Submissions that compiled and populated the cache.
    pub misses: u64,
    /// Entries evicted by the LRU policy.
    pub evictions: u64,
    /// Estimated device cycles saved by cached optimizations (the stored
    /// pipeline savings, re-credited on every hit).
    pub est_cycles_saved: u64,
}

/// One pipeline run's artifact: what a miss stores and a hit hands back.
#[derive(Clone)]
pub(crate) struct CachedCompile {
    /// The optimized program, shared with the entry.
    pub program: Arc<PimProgram>,
    /// Instructions the pipeline run removed.
    pub instructions_saved: u64,
    /// Estimated device cycles the pipeline run removed.
    pub cycles_saved: u64,
}

struct Entry {
    /// The submitted program, compared in full on every hit so hash
    /// collisions degrade to misses.
    original: PimProgram,
    compiled: CachedCompile,
    stamp: u64,
}

#[derive(Default)]
struct Shard {
    map: HashMap<u64, Entry>,
    stamp: u64,
}

/// The sharded LRU cache. See the module docs for the keying rules.
pub(crate) struct ProgramCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    est_cycles_saved: AtomicU64,
}

/// The canonical home every single-DBC program is normalized to.
pub(crate) const CANON: DbcLocation = DbcLocation {
    bank: 0,
    subarray: 0,
    tile: 0,
    dbc: 0,
};

/// Brings a program into the canonical frame, in place: bound to a DBC
/// and confined to one, it moves onto [`CANON`] (rows kept; under that
/// binding every address lands on the job's unit anyway). Anything else
/// stays as written.
pub(crate) fn canonicalize(program: &mut PimProgram, placement: Placement) {
    let home = program.single_location();
    if !placement.tile_relative() && home.is_some_and(|home| home != CANON) {
        program.place_on(CANON);
    }
}

/// A job's structural key — the compile cache's, the splice cache's
/// (per member) and the poison registry's: the hash of its program's
/// steps. Taken of a program in the canonical frame (see
/// [`canonicalize`]), where a single-DBC program bound to a DBC sits on
/// [`CANON`], it is one key per logical program wherever that was
/// compiled or placed.
pub(crate) fn fingerprint(program: &PimProgram) -> u64 {
    let mut h = DefaultHasher::new();
    for step in &program.steps {
        match step {
            Step::Load { addr, values, lane } => {
                0u8.hash(&mut h);
                addr.hash(&mut h);
                values.hash(&mut h);
                lane.hash(&mut h);
            }
            Step::Exec(i) => {
                1u8.hash(&mut h);
                i.opcode.hash(&mut h);
                i.src.hash(&mut h);
                i.operands.hash(&mut h);
                i.blocksize.hash(&mut h);
                match &i.dst {
                    Some(d) => {
                        1u8.hash(&mut h);
                        d.hash(&mut h);
                    }
                    None => 0u8.hash(&mut h),
                }
            }
            Step::Readout { label, addr, lane } => {
                2u8.hash(&mut h);
                label.hash(&mut h);
                addr.hash(&mut h);
                lane.hash(&mut h);
            }
        }
    }
    h.finish()
}

/// Drops the entry with the oldest stamp; `false` for an empty map.
fn evict_oldest<E>(map: &mut HashMap<u64, E>, stamp: impl Fn(&E) -> u64) -> bool {
    let oldest = map.iter().min_by_key(|(_, e)| stamp(e)).map(|(k, _)| *k);
    oldest.is_some_and(|key| map.remove(&key).is_some())
}

impl ProgramCache {
    pub(crate) fn new(options: &CacheOptions) -> ProgramCache {
        let shards = options.shards.max(1);
        ProgramCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            per_shard_capacity: options.capacity.div_ceil(shards).max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            est_cycles_saved: AtomicU64::new(0),
        }
    }

    fn shard_of(&self, key: u64) -> &Mutex<Shard> {
        &self.shards[(key as usize) % self.shards.len()]
    }

    /// Looks a canonical-frame submission up under its key; a hit shares
    /// the entry's optimized program. Counts the hit or miss itself.
    pub(crate) fn get(&self, key: u64, program: &PimProgram) -> Option<CachedCompile> {
        let mut shard = crate::sync::lock(self.shard_of(key));
        shard.stamp += 1;
        let stamp = shard.stamp;
        // Structural equality against the stored original: a colliding
        // key serves nothing.
        let hit = shard
            .map
            .get_mut(&key)
            .filter(|entry| entry.original == *program)
            .map(|entry| {
                entry.stamp = stamp;
                entry.compiled.clone()
            });
        drop(shard);
        match &hit {
            Some(cached) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.est_cycles_saved
                    .fetch_add(cached.cycles_saved, Ordering::Relaxed);
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
            }
        }
        hit
    }

    /// Stores a freshly compiled artifact under the key its submission
    /// carried, evicting the least-recently-used entry of the shard when
    /// over capacity.
    pub(crate) fn insert(&self, key: u64, original: PimProgram, compiled: CachedCompile) {
        let mut shard = crate::sync::lock(self.shard_of(key));
        shard.stamp += 1;
        let stamp = shard.stamp;
        let entry = Entry {
            original,
            compiled,
            stamp,
        };
        shard.map.insert(key, entry);
        if shard.map.len() > self.per_shard_capacity && evict_oldest(&mut shard.map, |e| e.stamp) {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Snapshot of the session counters.
    pub(crate) fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            est_cycles_saved: self.est_cycles_saved.load(Ordering::Relaxed),
        }
    }
}

/// The batched-splice cache: maps an *ordered sequence* of member
/// programs to their spliced-and-optimized batch program.
///
/// Serving campaigns issue the same batch shapes over and over (the same
/// query programs landing on the same-depth FIFOs), and without this
/// cache every batched dispatch re-runs splice + the full cross-boundary
/// pass pipeline. It is keyed on the members' carried keys
/// ([`PimJob::key`]) and every hit is guarded by equality against the
/// stored members — a pointer comparison when both came out of the
/// compile cache. Members are placement-free, so the splice is too: one
/// entry serves every unit, and a hit is an [`Arc::clone`]. Unlike
/// [`ProgramCache`] it is owned by the scheduler thread, so it needs no
/// locking.
pub(crate) struct BatchCache {
    map: HashMap<u64, BatchEntry>,
    capacity: usize,
    stamp: u64,
    hits: u64,
    misses: u64,
}

struct BatchEntry {
    /// Member programs, in splice order; compared on every hit so hash
    /// collisions degrade to misses.
    members: Vec<Arc<PimProgram>>,
    /// The spliced + optimized batch.
    optimized: Arc<PimProgram>,
    stamp: u64,
}

fn batch_key(members: &[PimJob]) -> u64 {
    let mut h = DefaultHasher::new();
    members.len().hash(&mut h);
    for member in members {
        member.key().hash(&mut h);
    }
    h.finish()
}

impl BatchCache {
    pub(crate) fn new(capacity: usize) -> BatchCache {
        BatchCache {
            map: HashMap::new(),
            capacity: capacity.max(1),
            stamp: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The cached batch of an ordered member sequence, or — counted as a
    /// miss — what `build` makes of it, stored under the members' key
    /// (replacing a colliding shape). Evicts LRU over capacity.
    pub(crate) fn get_or_build(
        &mut self,
        members: &[PimJob],
        build: impl FnOnce() -> Arc<PimProgram>,
    ) -> Arc<PimProgram> {
        let key = batch_key(members);
        self.stamp += 1;
        let stamp = self.stamp;
        let same = |(stored, job): (&Arc<PimProgram>, &PimJob)| {
            Arc::ptr_eq(stored, &job.program) || *stored == job.program
        };
        let cached = self.map.get_mut(&key).filter(|e| {
            e.members.len() == members.len() && e.members.iter().zip(members).all(same)
        });
        if let Some(entry) = cached {
            entry.stamp = stamp;
            self.hits += 1;
            return Arc::clone(&entry.optimized);
        }
        self.misses += 1;
        let entry = BatchEntry {
            members: members.iter().map(|j| Arc::clone(&j.program)).collect(),
            optimized: build(),
            stamp,
        };
        let optimized = Arc::clone(&entry.optimized);
        self.map.insert(key, entry);
        if self.map.len() > self.capacity {
            evict_oldest(&mut self.map, |e| e.stamp);
        }
        optimized
    }

    /// `(hits, misses)` so far.
    pub(crate) fn counts(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coruscant_core::isa::{BlockSize, CpimInstr, CpimOpcode};
    use coruscant_mem::RowAddress;

    fn program_at(loc: DbcLocation, value: u64) -> PimProgram {
        PimProgram {
            steps: vec![
                Step::Load {
                    addr: RowAddress::new(loc, 4),
                    values: vec![value],
                    lane: 64,
                },
                Step::Readout {
                    label: "x".into(),
                    addr: RowAddress::new(loc, 4),
                    lane: 64,
                },
            ],
        }
    }

    /// A load on one DBC read out on another.
    fn split(first: DbcLocation, second: DbcLocation) -> PimProgram {
        let mut program = program_at(first, 1);
        program.steps[1].map_addrs(|a| RowAddress::new(second, a.row));
        program
    }

    fn and(loc: DbcLocation, operands: u8) -> PimProgram {
        PimProgram {
            steps: vec![Step::Exec(
                CpimInstr::new(
                    CpimOpcode::And,
                    RowAddress::new(loc, 4),
                    operands,
                    BlockSize::new(64).unwrap(),
                    Some(RowAddress::new(loc, 20)),
                )
                .unwrap(),
            )],
        }
    }

    /// What `submit` does with a DBC-bound program: canonical frame, one
    /// hash, probe; on a miss the program moves into the entry (stored
    /// as its own artifact here).
    fn submit(cache: &ProgramCache, mut program: PimProgram) -> (Arc<PimProgram>, bool) {
        canonicalize(&mut program, Placement::Auto);
        let key = fingerprint(&program);
        if let Some(hit) = cache.get(key, &program) {
            return (hit.program, true);
        }
        let compiled = CachedCompile {
            program: Arc::new(program.clone()),
            instructions_saved: 0,
            cycles_saved: 5,
        };
        cache.insert(key, program, compiled.clone());
        (compiled.program, false)
    }

    #[test]
    fn one_logical_program_from_two_homes_shares_one_artifact() {
        let cache = ProgramCache::new(&CacheOptions::default());
        let (first, hit) = submit(&cache, program_at(DbcLocation::new(1, 0, 0, 0), 7));
        assert!(!hit);
        for home in [CANON, DbcLocation::new(5, 1, 1, 2)] {
            let (again, hit) = submit(&cache, program_at(home, 7));
            assert!(hit, "normalized hit from {home:?}");
            assert!(Arc::ptr_eq(&first, &again), "a hit shares, never copies");
        }
        assert_eq!(*first, program_at(CANON, 7), "held in the canonical frame");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (2, 1));
        assert_eq!(stats.est_cycles_saved, 10);
    }

    #[test]
    fn different_values_are_different_entries() {
        let cache = ProgramCache::new(&CacheOptions::default());
        submit(&cache, program_at(CANON, 7));
        assert!(!submit(&cache, program_at(CANON, 8)).1);
    }

    #[test]
    fn multi_dbc_programs_key_on_concrete_locations() {
        let l0 = DbcLocation::new(0, 0, 0, 0);
        let l1 = DbcLocation::new(1, 0, 0, 0);
        let cache = ProgramCache::new(&CacheOptions::default());
        let (stored, _) = submit(&cache, split(l0, l1));
        assert_eq!(*stored, split(l0, l1), "left as written");
        assert!(submit(&cache, split(l0, l1)).1);
        // Swapped locations is a different program, not a hit.
        assert!(!submit(&cache, split(l1, l0)).1);
    }

    /// The key `submit` would carry for `program` under `placement`.
    fn key_of(mut program: PimProgram, placement: Placement) -> u64 {
        canonicalize(&mut program, placement);
        fingerprint(&program)
    }

    #[test]
    fn tile_relative_programs_are_never_moved() {
        // Under a resident placement the DBC index is part of the
        // program: a pin program confined to storage DBC 1 stays there,
        // and keys apart from its twin on DBC 2.
        let storage = DbcLocation::new(0, 0, 0, 1);
        let twin = DbcLocation::new(0, 0, 0, 2);
        let resident = Placement::Resident(0);
        let mut pin = program_at(storage, 3);
        canonicalize(&mut pin, resident);
        assert_eq!(pin, program_at(storage, 3));
        assert_ne!(
            key_of(pin.clone(), resident),
            key_of(program_at(twin, 3), resident)
        );
        let unit = Placement::Unit(4);
        assert_eq!(key_of(pin.clone(), unit), key_of(program_at(twin, 3), unit));
        canonicalize(&mut pin, unit);
        assert_eq!(pin, program_at(CANON, 3));
    }

    #[test]
    fn keys_are_what_they_were_before_placement_became_data() {
        // Recorded at the parent commit, where the hash read the
        // location of a single-DBC program as canonical instead of the
        // program moving there.
        let far = DbcLocation::new(5, 1, 1, 2);
        for home in [CANON, DbcLocation::new(1, 0, 0, 0), far] {
            let key = key_of(program_at(home, 7), Placement::Auto);
            assert_eq!(key, 0x849b_cd14_c437_8559, "{home:?}");
        }
        let multi = split(CANON, DbcLocation::new(1, 0, 0, 0));
        assert_eq!(key_of(multi, Placement::Auto), 0x72bb_af21_ba26_e9aa);
        assert_eq!(
            key_of(and(far, 2), Placement::Unit(3)),
            0x1071_35cd_edc7_c510
        );
    }

    #[test]
    fn capacity_one_evicts_lru() {
        let options = CacheOptions {
            capacity: 1,
            shards: 1,
            ..CacheOptions::default()
        };
        let cache = ProgramCache::new(&options);
        submit(&cache, program_at(CANON, 1));
        submit(&cache, program_at(CANON, 2));
        assert_eq!(cache.stats().evictions, 1);
        assert!(submit(&cache, program_at(CANON, 2)).1, "b survives");
        assert!(!submit(&cache, program_at(CANON, 1)).1, "a was evicted");
    }

    #[test]
    fn exec_structure_distinguishes_programs() {
        let cache = ProgramCache::new(&CacheOptions::default());
        submit(&cache, and(CANON, 2));
        assert!(!submit(&cache, and(CANON, 3)).1);
        assert!(submit(&cache, and(CANON, 2)).1);
    }

    #[test]
    fn a_cached_splice_serves_every_unit() {
        let compile_cache = ProgramCache::new(&CacheOptions::default());
        // The same two logical programs queued on two units, compiled at
        // two homes: the members carry equal keys and shared artifacts.
        let batch_from = |home: DbcLocation, first_id: u64| -> Vec<PimJob> {
            [program_at(home, 1), and(home, 2)]
                .into_iter()
                .zip(first_id..)
                .map(|(program, id)| PimJob {
                    key: Some(key_of(program.clone(), Placement::Auto)),
                    program: submit(&compile_cache, program).0,
                    ..PimJob::verbatim(id, PimProgram::default(), Placement::Auto)
                })
                .collect()
        };
        let mut cache = BatchCache::new(4);
        let built = Arc::new(program_at(CANON, 99));
        let on_first_unit = cache.get_or_build(&batch_from(CANON, 0), || Arc::clone(&built));
        let on_second_unit = cache
            .get_or_build(&batch_from(DbcLocation::new(3, 1, 0, 0), 2), || {
                panic!("the splice is cached")
            });
        assert!(Arc::ptr_eq(&on_first_unit, &built));
        assert!(Arc::ptr_eq(&on_second_unit, &built), "the first unit's Arc");
        assert_eq!(cache.counts(), (1, 1));

        // Members that bypassed the compiler are keyed on demand and
        // compared by value; another order is another shape.
        let unkeyed = |ids: [u64; 2], values: [u64; 2]| -> Vec<PimJob> {
            let job =
                |i: usize| PimJob::verbatim(ids[i], program_at(CANON, values[i]), Placement::Auto);
            vec![job(0), job(1)]
        };
        let other = Arc::new(program_at(CANON, 98));
        let first = cache.get_or_build(&unkeyed([4, 5], [1, 2]), || Arc::clone(&other));
        let again = cache.get_or_build(&unkeyed([6, 7], [1, 2]), || panic!("cached"));
        assert!(Arc::ptr_eq(&first, &again));
        cache.get_or_build(&unkeyed([8, 9], [2, 1]), || Arc::clone(&other));
        assert_eq!(cache.counts(), (2, 3));
    }
}
