//! Virtual-time weighted fair queueing over server admission.
//!
//! [`FairQueue`] implements start-time fair queueing (SFQ) adapted to
//! an admission stage: each client `i` carries a finish tag `F_i`; an
//! admitted job of cost `c` starts at `S = max(V, F_i)` and advances
//! the tag to `F_i = S + c / w_i` where `w_i` is the client's weight.
//! Virtual time `V` advances to the minimum finish tag over *backlogged*
//! clients (those with admitted-but-unresolved jobs), so `V` tracks the
//! normalized service of the slowest backlogged client and is monotone
//! by construction.
//!
//! Two throttles sit on top of the tags:
//!
//! - **Quota** (absolute): an optional per-client token bucket. A
//!   client over its rate quota is refused regardless of system load —
//!   this is what pins a misbehaving client to its contracted rate.
//! - **Share** (relative, congestion-gated): when the runtime queue is
//!   at least `share_shed_at` full, a client whose start tag would run
//!   more than `lag_envelope` virtual-time units ahead of `V` is
//!   refused. With a quiet queue the envelope is not enforced, keeping
//!   admission work-conserving.

use crate::stats::{ClientQosStats, QosStats};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::time::Instant;

/// An absolute per-client rate contract (token bucket).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RateQuota {
    /// Sustained refill rate, jobs per second.
    pub rate_per_sec: f64,
    /// Bucket capacity: the largest burst admitted at once.
    pub burst: f64,
}

impl RateQuota {
    /// A quota of `rate_per_sec` sustained with bursts up to `burst`.
    pub fn new(rate_per_sec: f64, burst: f64) -> RateQuota {
        RateQuota {
            rate_per_sec,
            burst,
        }
    }
}

/// Static per-client configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClientConfig {
    /// Client identity as it appears on `SubmitOptions`.
    pub name: String,
    /// WFQ weight: relative share of service under contention.
    pub weight: f64,
    /// Optional absolute rate quota.
    pub quota: Option<RateQuota>,
}

impl ClientConfig {
    /// A client with `weight` and no quota.
    pub fn new(name: impl Into<String>, weight: f64) -> ClientConfig {
        ClientConfig {
            name: name.into(),
            weight,
            quota: None,
        }
    }

    /// Attaches an absolute rate quota.
    pub fn with_quota(mut self, quota: RateQuota) -> ClientConfig {
        self.quota = Some(quota);
        self
    }
}

/// Configuration for the server's fair-queueing admission stage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QosOptions {
    /// Master switch; off means the stage is bypassed entirely and the
    /// server behaves bit-identically to a QoS-free build.
    pub enabled: bool,
    /// Pre-registered clients. Unknown clients are registered on first
    /// submission with `default_weight` and no quota.
    pub clients: Vec<ClientConfig>,
    /// Weight for clients not listed in `clients`.
    pub default_weight: f64,
    /// How far (virtual-time units) a client's start tag may run ahead
    /// of virtual time before the share throttle refuses it — only
    /// enforced under congestion.
    pub lag_envelope: f64,
    /// Queue-fullness fraction at which the share throttle engages.
    pub share_shed_at: f64,
}

impl Default for QosOptions {
    fn default() -> QosOptions {
        QosOptions {
            enabled: false,
            clients: Vec::new(),
            default_weight: 1.0,
            lag_envelope: 32.0,
            share_shed_at: 0.5,
        }
    }
}

impl QosOptions {
    /// Turns the stage on.
    pub fn enabled(mut self) -> QosOptions {
        self.enabled = true;
        self
    }

    /// Pre-registers a client.
    pub fn with_client(mut self, client: ClientConfig) -> QosOptions {
        self.clients.push(client);
        self
    }
}

/// Why the fair-queueing stage refused a submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throttle {
    /// The client's absolute rate quota is exhausted.
    Quota,
    /// Under congestion, the client's share of service is used up (its
    /// start tag ran past the lag envelope).
    Share,
}

#[derive(Debug)]
struct Bucket {
    rate_per_sec: f64,
    burst: f64,
    tokens: f64,
    last: Option<Instant>,
}

impl Bucket {
    fn new(quota: RateQuota) -> Bucket {
        Bucket {
            rate_per_sec: quota.rate_per_sec,
            burst: quota.burst,
            tokens: quota.burst,
            last: None,
        }
    }

    fn try_take(&mut self, now: Instant) -> bool {
        if let Some(last) = self.last {
            let dt = now.saturating_duration_since(last).as_secs_f64();
            self.tokens = (self.tokens + dt * self.rate_per_sec).min(self.burst);
        }
        self.last = Some(now);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

#[derive(Debug)]
struct ClientState {
    name: String,
    weight: f64,
    bucket: Option<Bucket>,
    finish: f64,
    accepted: u64,
    throttled: u64,
    served: u64,
    expired: u64,
    attained: f64,
    deadline_hits: u64,
    deadline_misses: u64,
}

impl ClientState {
    fn new(name: String, weight: f64, quota: Option<RateQuota>) -> ClientState {
        ClientState {
            name,
            // Degenerate weights would make finish tags jump to
            // infinity; clamp instead of panicking on bad config.
            weight: weight.max(1e-9),
            bucket: quota.map(Bucket::new),
            finish: 0.0,
            accepted: 0,
            throttled: 0,
            served: 0,
            expired: 0,
            attained: 0.0,
            deadline_hits: 0,
            deadline_misses: 0,
        }
    }

    /// Admitted jobs not yet resolved — the backlog signal virtual
    /// time advances on.
    fn inflight(&self) -> u64 {
        self.accepted.saturating_sub(self.served + self.expired)
    }
}

/// The server-side fair-queueing admission stage.
#[derive(Debug)]
pub struct FairQueue {
    options: QosOptions,
    vtime: f64,
    clients: Vec<ClientState>,
    by_name: HashMap<String, usize>,
}

impl FairQueue {
    /// A stage configured by `options`, with its listed clients
    /// pre-registered.
    pub fn new(options: QosOptions) -> FairQueue {
        let mut fq = FairQueue {
            options: options.clone(),
            vtime: 0.0,
            clients: Vec::new(),
            by_name: HashMap::new(),
        };
        for c in options.clients {
            fq.register(&c.name, c.weight, c.quota);
        }
        fq
    }

    /// Whether the stage is switched on at all.
    pub fn is_enabled(&self) -> bool {
        self.options.enabled
    }

    /// How far `name`'s finish tag runs ahead of virtual time, if the
    /// client is known.
    pub fn lag(&self, name: &str) -> Option<f64> {
        let id = *self.by_name.get(name)?;
        Some((self.clients[id].finish - self.vtime).max(0.0))
    }

    fn register(&mut self, name: &str, weight: f64, quota: Option<RateQuota>) -> usize {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = self.clients.len();
        self.clients
            .push(ClientState::new(name.to_string(), weight, quota));
        self.by_name.insert(name.to_string(), id);
        id
    }

    /// Resolves (registering on first sight) the internal id for
    /// `name`. The id is stable for the stage's lifetime and is what
    /// [`FairQueue::record_served`] / [`FairQueue::record_expired`]
    /// take back.
    pub(crate) fn client_id(&mut self, name: &str) -> usize {
        let weight = self.options.default_weight;
        self.register(name, weight, None)
    }

    /// Runs one submission of `cost` service units from `name` through
    /// the quota and share throttles. `queue_len` / `queue_capacity`
    /// describe the runtime queue (the congestion signal); `now` feeds
    /// the quota buckets. Returns the client id on admit.
    pub fn admit(
        &mut self,
        name: &str,
        cost: f64,
        queue_len: usize,
        queue_capacity: usize,
        now: Instant,
    ) -> Result<usize, Throttle> {
        let id = self.client_id(name);
        let congested = queue_capacity > 0
            && queue_len as f64 >= self.options.share_shed_at * queue_capacity as f64;
        let start = self.vtime.max(self.clients[id].finish);
        // Share throttle first: a share-shed submission must not burn
        // quota tokens.
        if congested && start - self.vtime > self.options.lag_envelope {
            self.clients[id].throttled += 1;
            return Err(Throttle::Share);
        }
        if let Some(bucket) = self.clients[id].bucket.as_mut() {
            if !bucket.try_take(now) {
                self.clients[id].throttled += 1;
                return Err(Throttle::Quota);
            }
        }
        let client = &mut self.clients[id];
        client.finish = start + cost / client.weight;
        client.accepted += 1;
        client.attained += cost;
        self.advance_vtime();
        Ok(id)
    }

    /// Advances virtual time to the slowest backlogged client's finish
    /// tag. With no backlog V holds still; `max` keeps it monotone
    /// even if a backlogged client sits behind it.
    fn advance_vtime(&mut self) {
        let min_backlogged = self
            .clients
            .iter()
            .filter(|c| c.inflight() > 0)
            .map(|c| c.finish)
            .fold(f64::INFINITY, f64::min);
        if min_backlogged.is_finite() {
            self.vtime = self.vtime.max(min_backlogged);
        }
    }

    /// Records that an admitted job of client `id` resolved with a
    /// result. `deadline_met` is `Some(hit)` when the job carried a
    /// deadline.
    pub fn record_served(&mut self, id: usize, deadline_met: Option<bool>) {
        let Some(client) = self.clients.get_mut(id) else {
            return;
        };
        client.served += 1;
        match deadline_met {
            Some(true) => client.deadline_hits += 1,
            Some(false) => client.deadline_misses += 1,
            None => {}
        }
        // A resolved job shrinks the backlog, which can unpin V (the
        // resolved client may no longer be the slowest backlogged one).
        self.advance_vtime();
    }

    /// Records that an admitted job of client `id` expired (deadline
    /// cancel) before executing.
    pub fn record_expired(&mut self, id: usize) {
        let Some(client) = self.clients.get_mut(id) else {
            return;
        };
        client.expired += 1;
        self.advance_vtime();
    }

    /// Snapshot of every client's ledger, name-sorted.
    pub fn stats(&self) -> QosStats {
        let mut clients: Vec<ClientQosStats> = self
            .clients
            .iter()
            .map(|c| ClientQosStats {
                client: c.name.clone(),
                weight: c.weight,
                accepted: c.accepted,
                throttled: c.throttled,
                served: c.served,
                expired: c.expired,
                attained_service: c.attained,
                deadline_hits: c.deadline_hits,
                deadline_misses: c.deadline_misses,
            })
            .collect();
        clients.sort_by(|a, b| a.client.cmp(&b.client));
        QosStats { clients }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn stage(options: QosOptions) -> FairQueue {
        FairQueue::new(options.enabled())
    }

    #[test]
    fn lone_client_is_never_share_throttled() {
        let mut fq = stage(QosOptions {
            lag_envelope: 4.0,
            ..QosOptions::default()
        });
        let now = Instant::now();
        for _ in 0..1000 {
            // Fully congested queue the whole time.
            fq.admit("solo", 1.0, 8, 8, now).expect("admitted");
        }
        assert_eq!(fq.stats().client("solo").unwrap().accepted, 1000);
        // Virtual time tracked the lone client's finish tag, so lag
        // stayed inside one job's worth.
        assert!(fq.lag("solo").unwrap() <= 1.0 + 1e-9);
    }

    #[test]
    fn zero_rate_quota_admits_exactly_the_burst() {
        let options = QosOptions::default()
            .with_client(ClientConfig::new("capped", 1.0).with_quota(RateQuota::new(0.0, 3.0)));
        let mut fq = stage(options);
        let now = Instant::now();
        let mut admitted = 0;
        for _ in 0..50 {
            if fq.admit("capped", 1.0, 0, 8, now).is_ok() {
                admitted += 1;
            }
        }
        assert_eq!(admitted, 3);
        let entry = fq.stats().client("capped").unwrap().clone();
        assert_eq!(entry.accepted, 3);
        assert_eq!(entry.throttled, 47);
    }

    #[test]
    fn quota_refills_over_wall_clock_time() {
        let options = QosOptions::default()
            .with_client(ClientConfig::new("metered", 1.0).with_quota(RateQuota::new(100.0, 1.0)));
        let mut fq = stage(options);
        let t0 = Instant::now();
        assert!(fq.admit("metered", 1.0, 0, 8, t0).is_ok());
        assert_eq!(fq.admit("metered", 1.0, 0, 8, t0), Err(Throttle::Quota));
        // 50 ms at 100/s refills 5 tokens, capped at burst 1.
        let t1 = t0 + std::time::Duration::from_millis(50);
        assert!(fq.admit("metered", 1.0, 0, 8, t1).is_ok());
        assert_eq!(fq.admit("metered", 1.0, 0, 8, t1), Err(Throttle::Quota));
    }

    #[test]
    fn share_throttle_only_engages_under_congestion() {
        let run = |queue_len: usize| {
            let mut fq = stage(QosOptions {
                lag_envelope: 2.0,
                ..QosOptions::default()
            });
            let now = Instant::now();
            // "slow" keeps one admit outstanding so virtual time stays
            // pinned near its tag while "greedy" races ahead.
            fq.admit("slow", 1.0, queue_len, 8, now).unwrap();
            let mut greedy_ok = 0;
            for _ in 0..100 {
                if fq.admit("greedy", 1.0, queue_len, 8, now).is_ok() {
                    greedy_ok += 1;
                }
            }
            greedy_ok
        };
        // Congested (8/8 full): the envelope caps the greedy client.
        assert!(run(8) < 10, "congested run admitted {}", run(8));
        // Quiet queue: work conserving, everything goes through.
        assert_eq!(run(0), 100);
    }

    #[test]
    fn resolved_backlog_releases_virtual_time() {
        let mut fq = stage(QosOptions {
            lag_envelope: 2.0,
            ..QosOptions::default()
        });
        let now = Instant::now();
        let slow = fq.admit("slow", 1.0, 8, 8, now).unwrap();
        for _ in 0..10 {
            let _ = fq.admit("greedy", 1.0, 8, 8, now);
        }
        let pinned = fq.vtime;
        // Once the slow client's backlog resolves, the next admit
        // advances virtual time past its tag.
        fq.record_served(slow, None);
        let _ = fq.admit("greedy", 1.0, 8, 8, now);
        assert!(fq.vtime > pinned);
    }

    #[test]
    fn options_round_trip_through_json() {
        let options = QosOptions {
            default_weight: 2.0,
            lag_envelope: 16.0,
            share_shed_at: 0.75,
            ..QosOptions::default()
        }
        .enabled()
        .with_client(ClientConfig::new("latency", 4.0))
        .with_client(ClientConfig::new("batch", 1.0).with_quota(RateQuota::new(250.0, 16.0)));
        let json = serde::json::to_string(&options);
        let back: QosOptions = serde::json::from_str(&json).unwrap();
        assert_eq!(back, options);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Virtual time never moves backwards, whatever the mix of
        /// admits, throttles, and resolutions.
        #[test]
        fn virtual_time_is_monotone(
            ops in proptest::collection::vec(
                (0usize..4, 1u32..6, 0usize..9, any::<bool>()),
                1..300,
            ),
        ) {
            let mut fq = stage(QosOptions { lag_envelope: 4.0, ..QosOptions::default() });
            let now = Instant::now();
            let mut last = fq.vtime;
            for (client, cost, depth, resolve) in ops {
                let name = format!("c{client}");
                let admitted = fq.admit(&name, cost as f64, depth, 8, now);
                prop_assert!(fq.vtime >= last);
                last = fq.vtime;
                if resolve {
                    if let Ok(id) = admitted {
                        fq.record_served(id, None);
                    }
                }
            }
        }

        /// Under congestion every admitted job leaves its client's
        /// finish tag within `lag_envelope + cost/weight` of virtual
        /// time — the bounded-lag envelope the share throttle enforces.
        #[test]
        fn admitted_lag_is_bounded_under_congestion(
            envelope in 1u32..16,
            ops in proptest::collection::vec((0usize..4, 1u32..6), 1..300),
        ) {
            let envelope = envelope as f64;
            let mut fq = stage(
                QosOptions {
                    lag_envelope: envelope,
                    default_weight: 1.0,
                    ..QosOptions::default()
                },
            );
            let now = Instant::now();
            for (client, cost) in ops {
                let name = format!("c{client}");
                let cost = cost as f64;
                // Queue pinned at capacity: the envelope always applies.
                if fq.admit(&name, cost, 8, 8, now).is_ok() {
                    let lag = fq.lag(&name).unwrap();
                    prop_assert!(
                        lag <= envelope + cost + 1e-9,
                        "lag {lag} vs envelope {envelope} + cost {cost}",
                    );
                }
            }
        }

        /// Two continuously backlogged clients receive service in
        /// proportion to their weights, within the envelope bound:
        /// |A1/w1 - A2/w2| <= lag_envelope + 2/w1 + 2/w2. (The doubled
        /// per-client term covers the SFQ join offset: the second
        /// client's first start tag is the virtual time the first
        /// client already advanced by one admit.)
        #[test]
        fn attained_service_tracks_weights(
            w1 in 1u32..8,
            w2 in 1u32..8,
            rounds in 50usize..400,
        ) {
            let (w1, w2) = (w1 as f64, w2 as f64);
            let envelope = 8.0;
            let mut fq = stage(
                QosOptions { lag_envelope: envelope, ..QosOptions::default() }
                    .with_client(ClientConfig::new("a", w1))
                    .with_client(ClientConfig::new("b", w2)),
            );
            let now = Instant::now();
            for _ in 0..rounds {
                // Strictly alternating offers, always congested, never
                // resolved: both clients stay backlogged throughout.
                let _ = fq.admit("a", 1.0, 8, 8, now);
                let _ = fq.admit("b", 1.0, 8, 8, now);
            }
            let stats = fq.stats();
            let a = stats.client("a").unwrap();
            let b = stats.client("b").unwrap();
            let gap = (a.attained_service / w1 - b.attained_service / w2).abs();
            let bound = envelope + 2.0 / w1 + 2.0 / w2 + 1e-9;
            prop_assert!(
                gap <= bound,
                "normalized attained gap {gap} vs bound {bound} (w1={w1} w2={w2})",
            );
        }
    }
}
