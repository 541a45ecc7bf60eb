//! The set-associative DWM cache model.
//!
//! Tags live in SRAM (a flat per-set tag array with valid/dirty bits,
//! charged [`CacheConfig::tag_cycles`] per lookup); data blocks map onto
//! DBC rows, one cache line per row, all nanowires of the DBC moving in
//! lock-step. Each set owns one tape: a signed displacement from the
//! canonical alignment that every access mutates. Serving a row costs
//! the shift that brings it under the cheapest port *from wherever the
//! previous access left the tape* — which is exactly the state a
//! [`PlacementPolicy`] exists to manage.
//!
//! The model is an LLC-style write-allocate, write-back cache. A miss
//! optionally writes back the dirty victim (shift + port read), then
//! fills the policy-chosen row (shift + port write); the demand word is
//! forwarded from the fill, so a miss charges exactly one port access
//! plus the writeback's. Every decision is deterministic, so replaying a
//! trace always produces bit-identical [`CacheStats`].

use crate::policy::{PlacementPolicy, SetView};
use crate::stats::CacheStats;
use crate::trace::{Access, Op};
use coruscant_mem::MemoryConfig;
use coruscant_racetrack::{
    params::{EnergyParams, LatencyParams},
    PortGeometry,
};
use std::fmt;

/// A rejected cache configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheError(pub String);

impl fmt::Display for CacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cache config: {}", self.0)
    }
}

impl std::error::Error for CacheError {}

/// Geometry and timing of the cache frontend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CacheConfig {
    /// Number of sets. Lines map by `line % sets`.
    pub sets: usize,
    /// Ways per set; each way occupies one DBC row, so at most
    /// `rows_per_dbc` ways.
    pub ways: usize,
    /// SRAM tag-lookup cycles charged per access.
    pub tag_cycles: u64,
    /// Per-set access count between heat halvings (hotness decay).
    pub heat_decay_period: u64,
}

impl CacheConfig {
    /// A config with the default tag latency (1 cycle) and heat decay
    /// period (64 accesses).
    pub fn new(sets: usize, ways: usize) -> CacheConfig {
        CacheConfig {
            sets,
            ways,
            tag_cycles: 1,
            heat_decay_period: 64,
        }
    }

    /// Total lines the cache holds.
    pub fn lines(&self) -> usize {
        self.sets * self.ways
    }

    /// Checks the config fits the memory geometry it models.
    ///
    /// # Errors
    ///
    /// [`CacheError`] if a dimension is zero, the ways exceed the rows
    /// per DBC (one line per row), or the DBC width is not a whole
    /// number of bytes.
    pub fn validate(&self, mem: &MemoryConfig) -> Result<(), CacheError> {
        if self.sets == 0 || self.ways == 0 {
            return Err(CacheError("sets and ways must be nonzero".into()));
        }
        if self.ways > mem.rows_per_dbc {
            return Err(CacheError(format!(
                "{} ways exceed {} rows per DBC (one line per row)",
                self.ways, mem.rows_per_dbc
            )));
        }
        if !mem.nanowires_per_dbc.is_multiple_of(8) {
            return Err(CacheError(format!(
                "DBC width {} bits is not a whole number of bytes",
                mem.nanowires_per_dbc
            )));
        }
        if self.heat_decay_period == 0 {
            return Err(CacheError("heat_decay_period must be nonzero".into()));
        }
        Ok(())
    }
}

/// What one access did — everything a replay engine needs to mirror the
/// cache's behaviour into memory-system jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// The operation replayed.
    pub op: Op,
    /// Whether the tag matched.
    pub hit: bool,
    /// The line index accessed (`addr / line_bytes`).
    pub line: u64,
    /// The set the line mapped to.
    pub set: usize,
    /// The way served (matched on a hit, filled on a miss).
    pub way: usize,
    /// The dirty line evicted, if this miss wrote one back.
    pub writeback: Option<u64>,
    /// Critical-path shift steps this access paid.
    pub demand_shift_steps: u64,
}

/// Per-set tape and way state.
#[derive(Debug, Clone)]
struct SetState {
    /// Tape displacement from the canonical alignment.
    offset: isize,
    tags: Vec<u64>,
    valid: Vec<bool>,
    dirty: Vec<bool>,
    /// Data row each way occupies.
    rows: Vec<usize>,
    /// Last-access tick per way (LRU victim selection).
    lru: Vec<u64>,
    /// Decayed access counts per way (hotness).
    heat: Vec<u64>,
    tick: u64,
    since_decay: u64,
}

impl SetState {
    fn new(ways: usize) -> SetState {
        SetState {
            offset: 0,
            tags: vec![0; ways],
            valid: vec![false; ways],
            dirty: vec![false; ways],
            rows: (0..ways).collect(),
            lru: vec![0; ways],
            heat: vec![0; ways],
            tick: 0,
            since_decay: 0,
        }
    }

    fn view(&self) -> SetView<'_> {
        SetView {
            offset: self.offset,
            rows: &self.rows,
            valid: &self.valid,
            heat: &self.heat,
        }
    }
}

/// A trace-driven set-associative cache over DBC rows.
#[derive(Debug)]
pub struct DwmCache {
    config: CacheConfig,
    geom: PortGeometry,
    line_bytes: u64,
    nanowires: u64,
    latency: LatencyParams,
    energy: EnergyParams,
    policy: Box<dyn PlacementPolicy>,
    sets: Vec<SetState>,
    stats: CacheStats,
}

impl DwmCache {
    /// Builds a cache modelling `mem`'s DBC geometry under `policy`.
    /// The line size is the DBC width (`nanowires_per_dbc / 8` bytes —
    /// one line per data row).
    ///
    /// # Errors
    ///
    /// Propagates [`CacheConfig::validate`].
    pub fn new(
        config: CacheConfig,
        mem: &MemoryConfig,
        policy: Box<dyn PlacementPolicy>,
    ) -> Result<DwmCache, CacheError> {
        config.validate(mem)?;
        Ok(DwmCache {
            geom: PortGeometry::coruscant(mem.rows_per_dbc, mem.trd),
            line_bytes: (mem.nanowires_per_dbc / 8) as u64,
            nanowires: mem.nanowires_per_dbc as u64,
            latency: LatencyParams::PAPER,
            energy: EnergyParams::PAPER,
            policy,
            sets: (0..config.sets)
                .map(|_| SetState::new(config.ways))
                .collect(),
            config,
            stats: CacheStats::default(),
        })
    }

    /// The placement policy's name.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Line size in bytes (the DBC width).
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// Line size in 64-bit words.
    pub(crate) fn line_words(&self) -> usize {
        (self.nanowires / 64).max(1) as usize
    }

    /// The configuration the cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// The port geometry accesses are priced against.
    pub fn geometry(&self) -> &PortGeometry {
        &self.geom
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// The displacement aligning `row` under the port reachable with the
    /// fewest shifts from `from` (ties to the lower port id), and the
    /// step count to get there.
    fn cheapest_alignment(&self, row: usize, from: isize) -> (isize, u64) {
        (0..self.geom.port_count())
            .map(|p| {
                let target = self
                    .geom
                    .shift_offset(row, coruscant_racetrack::port::PortId(p))
                    .expect("port index in range");
                (target, target.abs_diff(from) as u64)
            })
            .min_by_key(|&(target, steps)| (steps, target))
            .expect("geometry has at least one port")
    }

    /// Charges `steps` lock-step shifts and returns the steps.
    fn charge_shift_energy(&mut self, steps: u64) {
        self.stats.shift_energy_pj +=
            steps as f64 * self.energy.shift_per_step * self.nanowires as f64;
    }

    /// Charges one whole-row port access.
    fn charge_access(&mut self, op: Op) {
        let (cycles, pj) = match op {
            Op::Read => (self.latency.read, self.energy.read),
            Op::Write => (self.latency.write, self.energy.write),
        };
        self.stats.access_cycles += cycles;
        self.stats.access_energy_pj += pj * self.nanowires as f64;
    }

    /// Shifts set `s`'s tape to serve `row` and charges the demand
    /// counters. Returns the steps paid.
    fn demand_align(&mut self, s: usize, row: usize) -> u64 {
        let (target, steps) = self.cheapest_alignment(row, self.sets[s].offset);
        self.sets[s].offset = target;
        self.stats.demand_shift_cycles += steps * self.latency.shift_per_step;
        self.charge_shift_energy(steps);
        steps
    }

    /// Replays one access and returns what happened.
    pub fn access(&mut self, access: Access) -> AccessOutcome {
        let line = access.addr / self.line_bytes;
        let s = (line % self.config.sets as u64) as usize;
        let tag = line / self.config.sets as u64;

        self.stats.accesses += 1;
        match access.op {
            Op::Read => self.stats.reads += 1,
            Op::Write => self.stats.writes += 1,
        }
        self.stats.tag_cycles += self.config.tag_cycles;

        let hit_way = {
            let set = &self.sets[s];
            (0..self.config.ways).find(|&w| set.valid[w] && set.tags[w] == tag)
        };

        let mut writeback = None;
        let mut demand_steps = 0;
        let way = match hit_way {
            Some(w) => {
                self.stats.hits += 1;
                let row = self.sets[s].rows[w];
                demand_steps += self.demand_align(s, row);
                self.charge_access(access.op);
                if access.op == Op::Write {
                    self.sets[s].dirty[w] = true;
                }
                w
            }
            None => {
                self.stats.misses += 1;
                match access.op {
                    Op::Read => self.stats.read_misses += 1,
                    Op::Write => self.stats.write_misses += 1,
                }
                let victim = self.pick_victim(s);
                if self.sets[s].valid[victim] && self.sets[s].dirty[victim] {
                    // Write the dirty line back: shift it under a port
                    // and read it out.
                    let row = self.sets[s].rows[victim];
                    demand_steps += self.demand_align(s, row);
                    self.charge_access(Op::Read);
                    let old_line = self.sets[s].tags[victim] * self.config.sets as u64 + s as u64;
                    self.stats.writebacks += 1;
                    writeback = Some(old_line);
                }
                // Fill: the policy picks the row, the tape shifts there,
                // the line is written. The demand word is forwarded from
                // the fill, so no second port access.
                let row = {
                    let set = &self.sets[s];
                    self.policy.fill_row(&self.geom, &set.view(), victim)
                };
                debug_assert!(row < self.geom.rows(), "policy row in range");
                debug_assert!(
                    !self.sets[s].view().row_taken_by_other(row, victim),
                    "policy chose an occupied row"
                );
                let set = &mut self.sets[s];
                set.rows[victim] = row;
                set.tags[victim] = tag;
                set.valid[victim] = true;
                set.dirty[victim] = access.op == Op::Write;
                set.heat[victim] = 0;
                demand_steps += self.demand_align(s, row);
                self.charge_access(Op::Write);
                self.stats.fills += 1;
                victim
            }
        };

        // Bookkeeping the policies read.
        {
            let set = &mut self.sets[s];
            set.tick += 1;
            let tick = set.tick;
            set.lru[way] = tick;
            set.heat[way] += 1;
            set.since_decay += 1;
            if set.since_decay >= self.config.heat_decay_period {
                set.since_decay = 0;
                for h in &mut set.heat {
                    *h /= 2;
                }
            }
        }

        // Hotness migration: swap the accessed way's row with a colder,
        // nearer way's when the policy says the heat difference earns it.
        if let Some((a, b)) = {
            let set = &self.sets[s];
            self.policy.promote(&self.geom, &set.view(), way)
        } {
            self.migrate(s, a, b);
        }

        // Background restore to the policy's rest position.
        if let Some(rest) = {
            let set = &self.sets[s];
            self.policy.rest_offset(&self.geom, &set.view())
        } {
            let steps = rest.abs_diff(self.sets[s].offset) as u64;
            if steps > 0 {
                self.sets[s].offset = rest;
                self.stats.restore_shift_cycles += steps * self.latency.shift_per_step;
                self.charge_shift_energy(steps);
            }
        }

        AccessOutcome {
            op: access.op,
            hit: hit_way.is_some(),
            line,
            set: s,
            way,
            writeback,
            demand_shift_steps: demand_steps,
        }
    }

    /// Replays a whole trace, returning the per-access outcomes.
    pub fn run(&mut self, trace: &[Access]) -> Vec<AccessOutcome> {
        trace.iter().map(|&a| self.access(a)).collect()
    }

    /// First invalid way, else the least-recently-used (ties to the
    /// lower way).
    fn pick_victim(&self, s: usize) -> usize {
        let set = &self.sets[s];
        (0..self.config.ways)
            .find(|&w| !set.valid[w])
            .unwrap_or_else(|| {
                (0..self.config.ways)
                    .min_by_key(|&w| (set.lru[w], w))
                    .expect("ways is nonzero")
            })
    }

    /// Swaps the rows of ways `a` and `b` in set `s`, charging the
    /// migration tour (read both rows, rewrite both swapped) to the
    /// migration counters.
    fn migrate(&mut self, s: usize, a: usize, b: usize) {
        let (o, row_a, row_b) = {
            let set = &self.sets[s];
            (set.offset, set.rows[a], set.rows[b])
        };
        if row_a == row_b {
            return;
        }
        let (o_a, to_a) = self.cheapest_alignment(row_a, o);
        let (o_b, leg) = self.cheapest_alignment(row_b, o_a);
        // Tour: current → a (read) → b (read, write a's data) → a (write
        // b's data) → b; the tape ends aligned at b's row.
        let steps = to_a + 3 * leg;
        self.stats.migrations += 1;
        self.stats.migration_shift_cycles += steps * self.latency.shift_per_step;
        self.charge_shift_energy(steps);
        self.charge_access(Op::Read);
        self.charge_access(Op::Read);
        self.charge_access(Op::Write);
        self.charge_access(Op::Write);
        let set = &mut self.sets[s];
        set.rows.swap(a, b);
        set.offset = o_b;
    }
}

impl crate::policy::SetView<'_> {
    /// Whether `row` is held by a valid way other than `except` — the
    /// invariant every `fill_row` implementation must uphold.
    fn row_taken_by_other(&self, row: usize, except: usize) -> bool {
        self.rows
            .iter()
            .zip(self.valid)
            .enumerate()
            .any(|(w, (&r, &v))| v && w != except && r == row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{EagerRestore, HotnessWeighted, NaiveStatic};
    use crate::trace::{Mix, SynthSpec};

    fn cache(policy: Box<dyn PlacementPolicy>) -> DwmCache {
        DwmCache::new(CacheConfig::new(4, 4), &MemoryConfig::tiny(), policy).unwrap()
    }

    #[test]
    fn config_validation() {
        let mem = MemoryConfig::tiny();
        assert!(CacheConfig::new(4, 4).validate(&mem).is_ok());
        assert!(CacheConfig::new(0, 4).validate(&mem).is_err());
        assert!(CacheConfig::new(4, 0).validate(&mem).is_err());
        assert!(
            CacheConfig::new(4, 33).validate(&mem).is_err(),
            "33 ways > 32 rows"
        );
        let mut cfg = CacheConfig::new(4, 4);
        cfg.heat_decay_period = 0;
        assert!(cfg.validate(&mem).is_err());
        assert_eq!(CacheConfig::new(8, 4).lines(), 32);
    }

    #[test]
    fn line_geometry_follows_memory() {
        let c = cache(Box::new(NaiveStatic));
        // tiny: 64 nanowires per DBC = 8-byte lines, one 64-bit word.
        assert_eq!(c.line_bytes(), 8);
        assert_eq!(c.line_words(), 1);
        assert_eq!(c.geometry().rows(), 32);
    }

    #[test]
    fn hit_miss_and_writeback_accounting() {
        let mut c = cache(Box::new(NaiveStatic));
        // Miss, fill line 0.
        let o = c.access(Access::read(0));
        assert!(!o.hit);
        assert_eq!(o.line, 0);
        assert_eq!(o.writeback, None);
        // Hit the same line; dirty it.
        let o = c.access(Access::write(0));
        assert!(o.hit);
        // Fill the remaining 3 ways of set 0 (lines map set = line % 4;
        // same set means line ≡ 0 mod 4).
        for i in 1..4u64 {
            assert!(!c.access(Access::read(4 * i * 8)).hit);
        }
        // A 5th distinct line in set 0 evicts LRU way 0 — dirty, so it
        // writes line 0 back.
        let o = c.access(Access::read(4 * 4 * 8));
        assert!(!o.hit);
        assert_eq!(o.writeback, Some(0));
        let s = c.stats();
        assert!(s.balanced());
        assert_eq!(s.accesses, 6);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 5);
        assert_eq!(s.writebacks, 1);
        assert_eq!(s.read_misses, 5);
        assert_eq!(s.tag_cycles, 6);
    }

    #[test]
    fn replay_is_deterministic() {
        let trace = SynthSpec {
            mix: Mix::HotCold {
                hot_lines: 8,
                hot_pct: 80,
            },
            accesses: 2000,
            lines: 256,
            line_bytes: 8,
            write_pct: 25,
            seed: 11,
        }
        .generate();
        for mk in [
            || Box::new(NaiveStatic) as Box<dyn PlacementPolicy>,
            || Box::new(EagerRestore) as Box<dyn PlacementPolicy>,
            || Box::new(HotnessWeighted::default()) as Box<dyn PlacementPolicy>,
        ] {
            let mut a = cache(mk());
            let mut b = cache(mk());
            assert_eq!(a.run(&trace), b.run(&trace));
            assert_eq!(a.stats(), b.stats());
            assert!(a.stats().balanced(), "{}", a.policy_name());
        }
    }

    #[test]
    fn eager_restore_pays_background_shifts() {
        let trace = SynthSpec {
            mix: Mix::Uniform,
            accesses: 500,
            lines: 64,
            line_bytes: 8,
            write_pct: 20,
            seed: 5,
        }
        .generate();
        let mut eager = cache(Box::new(EagerRestore));
        eager.run(&trace);
        assert!(eager.stats().restore_shift_cycles > 0);
        let mut lazy = cache(Box::new(NaiveStatic));
        lazy.run(&trace);
        assert_eq!(lazy.stats().restore_shift_cycles, 0);
        assert_eq!(lazy.stats().migrations, 0);
    }

    #[test]
    fn hotness_beats_naive_on_locality() {
        let trace = SynthSpec {
            mix: Mix::HotCold {
                hot_lines: 16,
                hot_pct: 90,
            },
            accesses: 4000,
            lines: 512,
            line_bytes: 8,
            write_pct: 20,
            seed: 42,
        }
        .generate();
        let mut naive = cache(Box::new(NaiveStatic));
        naive.run(&trace);
        let mut hot = cache(Box::new(HotnessWeighted::default()));
        hot.run(&trace);
        assert!(hot.stats().migrations > 0, "hot trace triggers promotion");
        let n = naive.stats().total_shift_cycles() as f64;
        let h = hot.stats().total_shift_cycles() as f64;
        assert!(
            h <= n * 0.85,
            "hotness-weighted should cut total shifts ≥15%: naive {n}, hotness {h}"
        );
        // Same tag behaviour regardless of placement.
        assert_eq!(naive.stats().hits, hot.stats().hits);
    }

    #[test]
    fn energy_tracks_shift_and_access_counts() {
        let mut c = cache(Box::new(NaiveStatic));
        c.access(Access::read(0));
        let s = c.stats();
        // 64 nanowires × 0.1 pJ/step × steps.
        let expected_shift = s.total_shift_cycles() as f64 * 0.1 * 64.0;
        assert!((s.shift_energy_pj - expected_shift).abs() < 1e-9);
        // One fill write: 64 × 0.1 pJ.
        assert!((s.access_energy_pj - 6.4).abs() < 1e-9);
    }
}
