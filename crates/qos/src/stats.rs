//! Per-client QoS accounting surfaced through the server's stats.

use serde::{Deserialize, Serialize};

/// One client's QoS ledger.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ClientQosStats {
    /// Client identity as given on `SubmitOptions`.
    pub client: String,
    /// The WFQ weight the client was served with.
    pub weight: f64,
    /// Submissions that passed the fair-queueing stage.
    pub accepted: u64,
    /// Submissions refused by quota or fair-share lag.
    pub throttled: u64,
    /// Accepted jobs that executed to a result.
    pub served: u64,
    /// Accepted jobs cancelled by deadline expiry before execution.
    pub expired: u64,
    /// Total admitted service demand (job cost units, unweighted).
    pub attained_service: f64,
    /// Served jobs that carried a deadline and finished inside it.
    pub deadline_hits: u64,
    /// Served jobs that carried a deadline and finished past it.
    pub deadline_misses: u64,
}

impl ClientQosStats {
    /// Fraction of deadline-carrying served jobs that met their
    /// deadline; 1.0 when no served job carried one.
    pub fn deadline_hit_rate(&self) -> f64 {
        let total = self.deadline_hits + self.deadline_misses;
        if total == 0 {
            return 1.0;
        }
        self.deadline_hits as f64 / total as f64
    }
}

/// Snapshot of every client's ledger, sorted by client name so the
/// serialized form is deterministic.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct QosStats {
    /// Per-client ledgers, name-sorted.
    pub clients: Vec<ClientQosStats>,
}

impl QosStats {
    /// The ledger for `name`, if that client ever submitted.
    pub fn client(&self, name: &str) -> Option<&ClientQosStats> {
        self.clients.iter().find(|c| c.client == name)
    }

    /// Accepted submissions across all clients.
    pub fn total_accepted(&self) -> u64 {
        self.clients.iter().map(|c| c.accepted).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> QosStats {
        QosStats {
            clients: vec![
                ClientQosStats {
                    client: "batch".into(),
                    weight: 1.0,
                    accepted: 40,
                    throttled: 160,
                    served: 38,
                    expired: 2,
                    attained_service: 40.0,
                    deadline_hits: 0,
                    deadline_misses: 0,
                },
                ClientQosStats {
                    client: "latency".into(),
                    weight: 4.0,
                    accepted: 100,
                    throttled: 0,
                    served: 100,
                    expired: 0,
                    attained_service: 100.0,
                    deadline_hits: 99,
                    deadline_misses: 1,
                },
            ],
        }
    }

    #[test]
    fn hit_rate_handles_deadline_free_clients() {
        let stats = sample();
        assert_eq!(stats.client("batch").unwrap().deadline_hit_rate(), 1.0);
        assert!((stats.client("latency").unwrap().deadline_hit_rate() - 0.99).abs() < 1e-9);
    }

    #[test]
    fn totals_aggregate_across_clients() {
        let stats = sample();
        assert_eq!(stats.total_accepted(), 140);
        assert!(stats.client("nobody").is_none());
    }

    #[test]
    fn qos_stats_round_trip_through_json() {
        let stats = sample();
        let json = serde::json::to_string(&stats);
        let back: QosStats = serde::json::from_str(&json).unwrap();
        assert_eq!(back, stats);
        assert!(json.contains("\"attained_service\""));
        assert!(json.contains("\"deadline_hits\""));
    }

    #[test]
    fn client_entry_round_trips_through_json() {
        let entry = sample().clients[1].clone();
        let json = serde::json::to_string(&entry);
        let back: ClientQosStats = serde::json::from_str(&json).unwrap();
        assert_eq!(back, entry);
    }
}
