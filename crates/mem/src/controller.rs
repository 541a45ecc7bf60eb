//! A command-level memory controller with functional storage.
//!
//! The controller keeps the DRAM I/O interface (paper §II-B): requests are
//! decoded to bank/subarray/tile/DBC coordinates, serviced with DDR-style
//! timing ([`DeviceTiming`]), and queued per bank. For DWM the precharge
//! slot is replaced by the shift distance between the currently aligned
//! row and the target row of the same DBC.
//!
//! PIM commands (issued by `cpim` instructions, paper §III-E) occupy the
//! target bank for the internal operation latency. PIM units are numbered
//! bank-major ([`MemoryController::pim_unit`]), so a caller that sends
//! successive commands to successive units — the runtime's
//! *high-throughput* placement — overlaps the per-bank latencies (paper
//! §V-C).
//!
//! Storage is *sparse*: DBCs are materialized lazily on first touch, so a
//! 1 GB memory can be simulated functionally without allocating 1 GB.

use crate::address::{DbcLocation, RowAddress};
use crate::config::MemoryConfig;
use crate::dbc::Dbc;
use crate::fault::{FaultPlan, ScrubOutcome};
use crate::row::Row;
use crate::timing::DeviceTiming;
use crate::Result;
use coruscant_racetrack::{Cost, CostMeter};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A multiplicative hasher for the controller's small integer keys, which
/// every instruction looks up several times: SipHash's flooding resistance
/// buys nothing for keys the controller validates itself.
#[derive(Default)]
struct LocationHasher(u64);

impl Hasher for LocationHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_usize(b.into()));
    }
    fn write_usize(&mut self, n: usize) {
        self.0 = (self.0.rotate_left(5) ^ n as u64).wrapping_mul(0x517C_C1B7_2722_0A95);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

type LocationMap<K, V> = HashMap<K, V, BuildHasherDefault<LocationHasher>>;

/// A request presented to the memory controller.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Read one row (or burst within it) at a byte address.
    Read(u64),
    /// Write one row (or burst within it) at a byte address.
    Write(u64),
    /// A PIM operation occupying `location`'s bank for `device_cycles`
    /// device cycles (the internal CORUSCANT operation latency).
    Pim {
        /// Target DBC.
        location: DbcLocation,
        /// Internal operation latency in device cycles.
        device_cycles: u64,
        /// Internal operation energy in picojoules.
        energy_pj: f64,
    },
}

/// Aggregate statistics of a controller run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ControllerStats {
    /// Requests serviced.
    pub requests: u64,
    /// Open-row (alignment) hits.
    pub row_hits: u64,
    /// Open-row misses.
    pub row_misses: u64,
    /// Total shift cycles spent realigning DWM DBCs.
    pub shift_cycles: u64,
    /// Total queuing delay (memory cycles spent waiting for a busy bank).
    pub queue_cycles: u64,
    /// Total bus transfer cycles.
    pub bus_cycles: u64,
    /// Total energy charged (pJ).
    pub energy_pj: f64,
}

/// Per-bank load distribution of a run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct BankStats {
    /// Requests serviced per bank.
    pub requests: Vec<u64>,
    /// Busy (service) cycles accumulated per bank.
    pub busy_cycles: Vec<u64>,
}

impl BankStats {
    /// The bank with the most requests and its count.
    pub fn hottest(&self) -> Option<(usize, u64)> {
        self.requests
            .iter()
            .copied()
            .enumerate()
            .max_by_key(|&(_, n)| n)
    }

    /// Load-imbalance ratio: hottest bank's requests over the mean.
    /// 1.0 means perfectly balanced.
    pub fn imbalance(&self) -> f64 {
        let total: u64 = self.requests.iter().sum();
        if total == 0 {
            return 1.0;
        }
        let mean = total as f64 / self.requests.len() as f64;
        self.hottest().map_or(1.0, |(_, n)| n as f64 / mean)
    }
}

/// The memory controller plus functional backing store.
#[derive(Debug)]
pub struct MemoryController {
    config: MemoryConfig,
    timing: DeviceTiming,
    /// Completion time (memory cycles) after which each bank is free.
    bank_free: Vec<u64>,
    /// Shared command/data bus occupancy.
    bus_free: u64,
    /// Currently aligned row per DBC (models the shift head position).
    aligned: LocationMap<DbcLocation, usize>,
    /// Lazily materialized DBCs.
    store: LocationMap<DbcLocation, Dbc>,
    /// Fault model applied to DBCs as they materialize.
    faults: Option<FaultPlan>,
    now: u64,
    stats: ControllerStats,
    bank_stats: BankStats,
}

/// Burst length in bus cycles for one 64-byte transfer on a 64-bit DDR bus.
const BURST_CYCLES: u64 = 4;

impl MemoryController {
    /// Creates a controller for a DWM memory with the given configuration.
    pub fn new(config: MemoryConfig) -> MemoryController {
        MemoryController::with_timing(config, DeviceTiming::DWM_PAPER)
    }

    /// Creates a controller with an explicit timing profile (used for the
    /// DRAM comparison points).
    pub fn with_timing(config: MemoryConfig, timing: DeviceTiming) -> MemoryController {
        let banks = config.banks;
        MemoryController {
            config,
            timing,
            bank_free: vec![0; banks],
            bus_free: 0,
            aligned: LocationMap::default(),
            store: LocationMap::default(),
            faults: None,
            now: 0,
            stats: ControllerStats::default(),
            bank_stats: BankStats {
                requests: vec![0; banks],
                busy_cycles: vec![0; banks],
            },
        }
    }

    /// Creates a controller whose DBCs run under the given fault plan:
    /// every DBC of a bank with an active [`FaultPlan`] configuration
    /// materializes with seeded per-wire injectors, and (when shift
    /// faults are active) with position codes installed for scrubbing.
    pub fn with_faults(config: MemoryConfig, plan: FaultPlan) -> MemoryController {
        let mut ctrl = MemoryController::new(config);
        ctrl.faults = Some(plan);
        ctrl
    }

    /// Total faults injected so far across all materialized DBCs.
    pub fn injected_fault_count(&self) -> u64 {
        self.store.values().map(Dbc::injected_fault_count).sum()
    }

    /// Runs a position-code scrub pass over every materialized DBC of
    /// `bank` in ascending location order, charging the maintenance cost
    /// to `meter`, and forgets the controller's aligned-row hints for the
    /// scrubbed DBCs (they end at canonical alignment).
    ///
    /// # Errors
    ///
    /// Propagates device errors from the checks; the DBCs before the
    /// failing one stay scrubbed.
    pub fn scrub_bank(&mut self, bank: usize, meter: &mut CostMeter) -> Result<ScrubOutcome> {
        let mut locations: Vec<DbcLocation> = self.store.keys().copied().collect();
        locations.retain(|loc| loc.bank == bank);
        locations.sort_unstable();
        let mut total = ScrubOutcome::default();
        for loc in locations {
            let dbc = self.store.get_mut(&loc).expect("listed from the store");
            total.merge(dbc.scrub(meter)?);
            self.aligned.remove(&loc);
        }
        Ok(total)
    }

    /// The configuration.
    pub fn config(&self) -> &MemoryConfig {
        &self.config
    }

    /// The timing profile.
    pub fn timing(&self) -> &DeviceTiming {
        &self.timing
    }

    /// Current simulated time in memory cycles.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Advances the wall clock (e.g. to model CPU compute between bursts of
    /// requests).
    pub fn advance(&mut self, cycles: u64) {
        self.now += cycles;
    }

    /// Statistics so far.
    pub fn stats(&self) -> &ControllerStats {
        &self.stats
    }

    /// Per-bank load distribution so far.
    pub fn bank_stats(&self) -> &BankStats {
        &self.bank_stats
    }

    /// The memory cycle at which `bank` finishes its outstanding work
    /// (`<= now` means idle). Schedulers use this to pick the least-loaded
    /// bank and to predict queueing before submitting.
    pub fn bank_free_at(&self, bank: usize) -> u64 {
        self.bank_free[bank]
    }

    /// Converts device cycles (1 ns) to memory cycles (1.25 ns), rounding
    /// up.
    pub(crate) fn device_to_memory_cycles(&self, device_cycles: u64) -> u64 {
        let ratio = coruscant_racetrack::params::DEVICE_CYCLE_NS / self.config.memory_cycle_ns;
        (device_cycles as f64 * ratio).ceil() as u64
    }

    /// Mutable access to the DBC at `location`, materializing it on first
    /// touch (PIM geometry per the configuration's convention).
    ///
    /// # Errors
    ///
    /// Returns [`crate::MemError::BadLocation`] for out-of-range coordinates.
    pub fn dbc_mut(&mut self, location: DbcLocation) -> Result<&mut Dbc> {
        location.validate(&self.config)?;
        let config = &self.config;
        let faults = &self.faults;
        Ok(self.store.entry(location).or_insert_with(|| {
            let dbc = if location.is_pim(config) {
                Dbc::pim_enabled(config)
            } else {
                Dbc::storage(config)
            };
            match faults {
                Some(plan) => {
                    let fc = plan.config_for_bank(location.bank);
                    if fc.is_active() {
                        let mut dbc = dbc.with_faults(fc, plan.dbc_seed(location, config));
                        if fc.p_over_shift > 0.0 || fc.p_under_shift > 0.0 {
                            // Shift faults drift alignment: guard with
                            // position codes so scrub passes can check and
                            // repair. Best-effort — storage wires without
                            // overhead room simply go unguarded.
                            let _ = dbc.install_position_codes();
                        }
                        dbc
                    } else {
                        dbc
                    }
                }
                None => dbc,
            }
        }))
    }

    /// Immutable view of a DBC if it has been materialized.
    pub fn dbc(&self, location: DbcLocation) -> Option<&Dbc> {
        self.store.get(&location)
    }

    fn service_row_access(&mut self, addr: RowAddress, is_write: bool) -> u64 {
        let bank = addr.location.bank;
        let start = self.now.max(self.bank_free[bank]);
        self.stats.queue_cycles += start - self.now;

        // Shift distance from current alignment (DWM); DRAM ignores it.
        let prev = self.aligned.get(&addr.location).copied();
        let (hit, shift) = match prev {
            Some(p) if p == addr.row => (true, 0),
            Some(p) => (false, (p as i64 - addr.row as i64).unsigned_abs()),
            None => (false, (self.config.rows_per_dbc / 2) as u64),
        };
        if hit {
            self.stats.row_hits += 1;
        } else {
            self.stats.row_misses += 1;
            self.stats.shift_cycles += shift;
        }
        self.aligned.insert(addr.location, addr.row);

        let service = if hit {
            self.timing.row_hit()
        } else if is_write {
            self.timing.write_miss(shift)
        } else {
            self.timing.row_miss(shift)
        };
        // The shared bus is only occupied while the burst transfers, so
        // accesses to different banks pipeline their array service.
        let data_ready = start + service;
        let burst_start = data_ready.max(self.bus_free);
        let done = burst_start + BURST_CYCLES;
        self.bank_free[bank] = done;
        self.bus_free = done;
        self.stats.bus_cycles += BURST_CYCLES;
        self.stats.requests += 1;
        self.bank_stats.requests[bank] += 1;
        self.bank_stats.busy_cycles[bank] += done - start;
        done
    }

    /// Submits a request; returns its completion time in memory cycles.
    /// Requests are processed in submission order with per-bank queuing.
    ///
    /// # Errors
    ///
    /// Returns [`crate::MemError::BadLocation`] for an out-of-range address.
    pub fn submit(&mut self, request: Request) -> Result<u64> {
        match request {
            Request::Read(a) => {
                let (addr, _) = RowAddress::decode(a, &self.config)?;
                Ok(self.service_row_access(addr, false))
            }
            Request::Write(a) => {
                let (addr, _) = RowAddress::decode(a, &self.config)?;
                Ok(self.service_row_access(addr, true))
            }
            Request::Pim {
                location,
                device_cycles,
                energy_pj,
            } => {
                location.validate(&self.config)?;
                let bank = location.bank;
                // One command-bus cycle to issue, then the bank is busy for
                // the internal operation.
                let issue = self.now.max(self.bus_free);
                let start = issue.max(self.bank_free[bank]);
                self.stats.queue_cycles += start - self.now;
                self.bus_free = issue + 1;
                let service = self.device_to_memory_cycles(device_cycles);
                let done = start + service;
                self.bank_free[bank] = done;
                self.stats.requests += 1;
                self.stats.energy_pj += energy_pj;
                self.bank_stats.requests[bank] += 1;
                self.bank_stats.busy_cycles[bank] += service;
                Ok(done)
            }
        }
    }

    /// Number of PIM-enabled DBCs addressable by the dispatcher.
    pub fn pim_unit_count(&self) -> usize {
        self.config.banks
            * self.config.subarrays_per_bank
            * self.config.tiles_per_subarray
            * self.config.pim_dbcs_per_tile
    }

    /// The `idx`-th PIM-enabled DBC, bank-major so consecutive indices hit
    /// different banks (maximizing overlap).
    pub fn pim_unit(&self, idx: usize) -> DbcLocation {
        let banks = self.config.banks;
        let bank = idx % banks;
        let rest = idx / banks;
        let subarray = rest % self.config.subarrays_per_bank;
        let rest = rest / self.config.subarrays_per_bank;
        let tile = rest % self.config.tiles_per_subarray;
        let pim_slot = (rest / self.config.tiles_per_subarray) % self.config.pim_dbcs_per_tile;
        DbcLocation::new(bank, subarray, tile, pim_slot)
    }

    /// Runs the clock forward to the completion of all outstanding work.
    pub fn drain(&mut self) -> u64 {
        let t = self
            .bank_free
            .iter()
            .copied()
            .max()
            .unwrap_or(0)
            .max(self.bus_free)
            .max(self.now);
        self.now = t;
        t
    }

    /// Functional read of a whole row, charging device-level cost to
    /// `meter` (used by integration tests and the PIM data paths).
    ///
    /// # Errors
    ///
    /// Propagates location/row validation and device errors.
    pub fn load_row(&mut self, addr: RowAddress, meter: &mut CostMeter) -> Result<Row> {
        let dbc = self.dbc_mut(addr.location)?;
        let row = dbc.read_row(addr.row, meter)?;
        self.aligned.insert(addr.location, addr.row);
        Ok(row)
    }

    /// Functional write of a whole row, charging device-level cost.
    ///
    /// # Errors
    ///
    /// Propagates location/row validation and device errors.
    pub fn store_row(&mut self, addr: RowAddress, data: &Row, meter: &mut CostMeter) -> Result<()> {
        let dbc = self.dbc_mut(addr.location)?;
        dbc.write_row(addr.row, data, meter)?;
        self.aligned.insert(addr.location, addr.row);
        Ok(())
    }

    /// Total energy charged so far plus the device-level energy of `extra`.
    pub fn charge_energy(&mut self, cost: Cost) {
        self.stats.energy_pj += cost.energy_pj;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctrl() -> MemoryController {
        MemoryController::new(MemoryConfig::tiny())
    }

    #[test]
    fn sequential_reads_interleave_banks_and_pipeline() {
        let mut c = ctrl();
        let row_bytes = (c.config().nanowires_per_dbc / 8) as u64;
        let t0 = c.submit(Request::Read(0)).unwrap();
        let t1 = c.submit(Request::Read(row_bytes)).unwrap();
        // Different banks: the second read should not wait for the full
        // service of the first, only for the bus.
        assert!(t1 < t0 * 2, "t0={t0} t1={t1}");
        assert_eq!(c.stats().requests, 2);
    }

    #[test]
    fn same_bank_requests_queue() {
        let mut c = ctrl();
        let banks = c.config().banks as u64;
        let row_bytes = (c.config().nanowires_per_dbc / 8) as u64;
        // Same bank, different rows: must serialize.
        let t0 = c.submit(Request::Read(0)).unwrap();
        let t1 = c.submit(Request::Read(row_bytes * banks * 37)).unwrap();
        assert!(t1 > t0);
        assert!(c.stats().queue_cycles > 0 || t1 >= t0);
    }

    #[test]
    fn row_hit_is_faster_than_miss() {
        let mut c = ctrl();
        let t0 = c.submit(Request::Read(0)).unwrap();
        c.advance(t0 - c.now());
        let before = c.now();
        let t1 = c.submit(Request::Read(0)).unwrap();
        let hit_latency = t1 - before;
        assert!(hit_latency <= DeviceTiming::DWM_PAPER.row_hit() + BURST_CYCLES);
        assert_eq!(c.stats().row_hits, 1);
        assert_eq!(c.stats().row_misses, 1);
    }

    #[test]
    fn dwm_shift_cost_depends_on_row_distance() {
        let mut c = ctrl();
        let cfg = c.config().clone();
        let loc = DbcLocation::new(0, 0, 0, 0);
        // Touch row 0, then row 1 (short shift), then row 31 (long shift).
        let a0 = RowAddress::new(loc, 0).encode(&cfg);
        let a1 = RowAddress::new(loc, 1).encode(&cfg);
        let a31 = RowAddress::new(loc, 31).encode(&cfg);
        let t0 = c.submit(Request::Read(a0)).unwrap();
        c.advance(t0 - c.now());
        let s = c.now();
        let t1 = c.submit(Request::Read(a1)).unwrap();
        let short = t1 - s;
        c.advance(t1 - c.now());
        let s = c.now();
        let t2 = c.submit(Request::Read(a31)).unwrap();
        let long = t2 - s;
        assert!(long > short, "long={long} short={short}");
        assert!(c.stats().shift_cycles > 0);
    }

    #[test]
    fn pim_requests_occupy_their_bank() {
        let mut c = ctrl();
        let loc = DbcLocation::new(0, 0, 0, 0);
        let t = c
            .submit(Request::Pim {
                location: loc,
                device_cycles: 26,
                energy_pj: 22.14,
            })
            .unwrap();
        assert_eq!(t, c.device_to_memory_cycles(26));
        assert!((c.stats().energy_pj - 22.14).abs() < 1e-9);
    }

    #[test]
    fn pim_units_cover_distinct_banks_first() {
        let c = ctrl();
        let u0 = c.pim_unit(0);
        let u1 = c.pim_unit(1);
        assert_ne!(u0.bank, u1.bank);
        assert!(u0.is_pim(c.config()));
        assert!(u1.is_pim(c.config()));
    }

    #[test]
    fn functional_load_store_roundtrip() {
        let mut c = ctrl();
        let addr = RowAddress::new(DbcLocation::new(1, 1, 0, 2), 9);
        let row = Row::from_u64_words(64, &[0xFEED]);
        let mut m = CostMeter::new();
        c.store_row(addr, &row, &mut m).unwrap();
        assert_eq!(c.load_row(addr, &mut m).unwrap(), row);
        assert!(m.total().cycles > 0);
    }

    #[test]
    fn lazily_materializes_dbcs() {
        let mut c = ctrl();
        assert!(c.dbc(DbcLocation::new(0, 0, 0, 0)).is_none());
        c.dbc_mut(DbcLocation::new(0, 0, 0, 0)).unwrap();
        assert!(c.dbc(DbcLocation::new(0, 0, 0, 0)).is_some());
        // PIM convention: dbc 0 is PIM, dbc 1 is storage.
        assert!(c.dbc_mut(DbcLocation::new(0, 0, 0, 0)).unwrap().is_pim());
        assert!(!c.dbc_mut(DbcLocation::new(0, 0, 0, 1)).unwrap().is_pim());
    }

    #[test]
    fn bad_locations_rejected() {
        let mut c = ctrl();
        assert!(c.dbc_mut(DbcLocation::new(99, 0, 0, 0)).is_err());
        assert!(c
            .submit(Request::Pim {
                location: DbcLocation::new(99, 0, 0, 0),
                device_cycles: 1,
                energy_pj: 0.0,
            })
            .is_err());
        assert!(c.submit(Request::Read(u64::MAX)).is_err());
    }

    #[test]
    fn bank_stats_track_load_distribution() {
        let mut c = ctrl();
        let row_bytes = (c.config().nanowires_per_dbc / 8) as u64;
        // Sequential row addresses interleave over both banks evenly.
        for i in 0..40u64 {
            c.submit(Request::Read(i * row_bytes)).unwrap();
        }
        let bs = c.bank_stats().clone();
        assert_eq!(bs.requests.iter().sum::<u64>(), 40);
        assert_eq!(bs.requests.len(), c.config().banks);
        assert!(
            (bs.imbalance() - 1.0).abs() < 0.11,
            "imbalance {}",
            bs.imbalance()
        );
        assert!(bs.busy_cycles.iter().all(|&b| b > 0));

        // Hammering one bank skews the distribution.
        let mut c = ctrl();
        let banks = c.config().banks as u64;
        for i in 0..30u64 {
            c.submit(Request::Read(i * banks * row_bytes)).unwrap(); // bank 0
        }
        c.submit(Request::Read(row_bytes)).unwrap(); // bank 1, once
        let bs = c.bank_stats();
        assert_eq!(bs.hottest().unwrap().0, 0);
        assert!(bs.imbalance() > 1.5);
    }

    #[test]
    fn hottest_bank_edge_cases() {
        // No banks at all.
        let empty = BankStats::default();
        assert_eq!(empty.hottest(), None);
        assert_eq!(empty.imbalance(), 1.0);

        // A single bank is trivially the hottest.
        let single = BankStats {
            requests: vec![17],
            busy_cycles: vec![40],
        };
        assert_eq!(single.hottest(), Some((0, 17)));
        assert!((single.imbalance() - 1.0).abs() < 1e-12);

        // Ties resolve to one of the tied banks with the tied count.
        let tied = BankStats {
            requests: vec![5, 9, 9, 2],
            busy_cycles: vec![0; 4],
        };
        let (bank, n) = tied.hottest().unwrap();
        assert_eq!(n, 9);
        assert!(bank == 1 || bank == 2, "tied bank {bank}");

        // Banks present but no traffic: a zero count from one of the
        // (all-tied) banks; `max_by_key` resolves ties to the last.
        let idle = BankStats {
            requests: vec![0, 0],
            busy_cycles: vec![0, 0],
        };
        assert_eq!(idle.hottest(), Some((1, 0)));
        assert_eq!(idle.imbalance(), 1.0);
    }

    #[test]
    fn stats_roundtrip_through_serde() {
        let mut c = ctrl();
        let row_bytes = (c.config().nanowires_per_dbc / 8) as u64;
        for i in 0..10u64 {
            c.submit(Request::Read(i * row_bytes)).unwrap();
        }
        c.submit(Request::Pim {
            location: DbcLocation::new(0, 0, 0, 0),
            device_cycles: 26,
            energy_pj: 22.14,
        })
        .unwrap();

        let stats = *c.stats();
        let json = serde::json::to_string(&stats);
        let back: ControllerStats = serde::json::from_str(&json).unwrap();
        assert_eq!(back, stats);

        let bank_stats = c.bank_stats().clone();
        let json = serde::json::to_string(&bank_stats);
        let back: BankStats = serde::json::from_str(&json).unwrap();
        assert_eq!(back, bank_stats);
    }

    #[test]
    fn fault_plan_attaches_injectors_per_bank() {
        use coruscant_racetrack::FaultConfig;
        let hot = FaultConfig::NONE.with_tr_fault_rate(1.0);
        let plan = FaultPlan::healthy(9).with_bank(1, hot).unwrap();
        let mut c = MemoryController::with_faults(MemoryConfig::tiny(), plan);

        // Bank 0 is healthy: TRs on its PIM DBC never fault.
        let mut m = CostMeter::new();
        let healthy = c.dbc_mut(DbcLocation::new(0, 0, 0, 0)).unwrap();
        let before = healthy.injected_fault_count();
        healthy.transverse_read_all(&mut m).unwrap();
        assert_eq!(healthy.injected_fault_count(), before);

        // Bank 1 faults on every TR.
        let faulty = c.dbc_mut(DbcLocation::new(1, 0, 0, 0)).unwrap();
        faulty.transverse_read_all(&mut m).unwrap();
        assert_eq!(faulty.injected_fault_count(), 64, "one fault per wire");
        assert_eq!(c.injected_fault_count(), 64);
    }

    #[test]
    fn fault_plan_is_deterministic_across_controllers() {
        use coruscant_racetrack::FaultConfig;
        let cfg = FaultConfig::NONE.with_tr_fault_rate(0.3);
        let read_all = |seed: u64| {
            let plan = FaultPlan::uniform(cfg, seed).unwrap();
            let mut c = MemoryController::with_faults(MemoryConfig::tiny(), plan);
            let mut m = CostMeter::new();
            let d = c.dbc_mut(DbcLocation::new(0, 0, 0, 0)).unwrap();
            let out: Vec<u8> = (0..20)
                .flat_map(|_| {
                    let counts = d.transverse_read_all(&mut m).unwrap();
                    (0..64).map(move |i| counts.value(i))
                })
                .collect();
            out
        };
        assert_eq!(read_all(5), read_all(5), "same seed, same stream");
        assert_ne!(read_all(5), read_all(6), "different seed, different stream");
    }

    #[test]
    fn shift_faults_get_position_codes_and_scrub_realigns() {
        use coruscant_racetrack::FaultConfig;
        let plan = FaultPlan::uniform(FaultConfig::NONE.with_shift_fault_rate(0.1), 11).unwrap();
        let mut c = MemoryController::with_faults(MemoryConfig::tiny(), plan);
        let loc = DbcLocation::new(0, 0, 0, 0);
        let mut m = CostMeter::new();
        c.store_row(
            RowAddress::new(loc, 9),
            &Row::from_u64_words(64, &[0xCAFE]),
            &mut m,
        )
        .unwrap();
        // Walk interior rows so alignment shifts draw plenty of fault
        // events without running any wire into its extremity.
        for r in [16, 9, 20, 12, 9] {
            c.load_row(RowAddress::new(loc, r), &mut m).unwrap();
        }
        let out = c.scrub_bank(0, &mut m).unwrap();
        assert_eq!(out.wires_checked, 64);
        assert_eq!(out.realigned, 64, "every wire was away from canonical");
        assert!(
            out.repaired > 0,
            "the scrub's own realigning shifts fault and get repaired: {out:?}"
        );
        assert_eq!(out.out_of_range, 0, "drift within code range (seeded)");
        // Every wire ends at its canonical alignment...
        let canonical = c.dbc(loc).unwrap().wire(0).spec().initial_offset as isize;
        for i in 0..64 {
            assert_eq!(c.dbc(loc).unwrap().wire(i).offset(), canonical, "wire {i}");
        }
        // ...so a second scrub (shift-free) finds nothing to do.
        let again = c.scrub_bank(0, &mut m).unwrap();
        assert_eq!(again.realigned, 0);
        assert_eq!(again.repaired, 0);
        assert_eq!(c.scrub_bank(1, &mut m).unwrap(), ScrubOutcome::default());
    }

    /// A bank scrub sums every DBC's charges into one meter; the sum is
    /// the ascending-location one whatever order the DBCs materialised in.
    #[test]
    fn scrub_bank_charges_in_location_order() {
        use coruscant_racetrack::FaultConfig;
        let faults = FaultConfig::NONE.with_shift_fault_rate(0.1);
        let locations: Vec<DbcLocation> = (0..2)
            .flat_map(|t| (0..4).map(move |d| DbcLocation::new(0, 1, t, d)))
            .collect();
        let run = |order: &mut dyn Iterator<Item = &DbcLocation>| {
            let plan = FaultPlan::uniform(faults, 23).unwrap();
            let mut c = MemoryController::with_faults(MemoryConfig::tiny(), plan);
            let mut m = CostMeter::new();
            for &loc in order {
                for r in [9, 16, 12] {
                    let row = Row::from_u64_words(64, &[r as u64 * 0x0123_4567]);
                    c.store_row(RowAddress::new(loc, r), &row, &mut m).unwrap();
                }
            }
            c
        };
        let (mut up, mut down) = (run(&mut locations.iter()), run(&mut locations.iter().rev()));
        let (mut m_up, mut m_down) = (CostMeter::new(), CostMeter::new());
        let out_up = up.scrub_bank(0, &mut m_up).unwrap();
        let out_down = down.scrub_bank(0, &mut m_down).unwrap();
        // The same DBCs scrubbed one by one, in ascending order.
        let mut each = run(&mut locations.iter());
        let (mut m_each, mut out_each) = (CostMeter::new(), ScrubOutcome::default());
        for &loc in &locations {
            out_each.merge(each.dbc_mut(loc).unwrap().scrub(&mut m_each).unwrap());
        }
        assert!(out_each.realigned > 0, "the program left wires to realign");
        assert_eq!((out_up, out_down), (out_each, out_each));
        let bits = |m: &CostMeter| m.total().energy_pj.to_bits();
        assert_eq!((bits(&m_up), bits(&m_down)), (bits(&m_each), bits(&m_each)));
        assert_eq!((&m_up, &m_down), (&m_each, &m_each));
    }

    #[test]
    fn drain_reaches_quiescence() {
        let mut c = ctrl();
        let t = c.submit(Request::Read(0)).unwrap();
        let drained = c.drain();
        assert!(drained >= t);
        assert_eq!(c.now(), drained);
    }
}
