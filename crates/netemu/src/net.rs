//! Network configurations and path models (paper §3.1.1).
//!
//! The experiments span three configurations: Wi-Fi with UDP hole punching
//! allowed (P2P feasible), Wi-Fi with hole punching blocked at the router
//! (relay forced), and 4G cellular where the transmission mode is decided by
//! each application's logic. Path profiles model the timing texture each
//! configuration stamps onto the traffic.

use crate::rng::DetRng;

/// The three experiment network configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NetworkConfig {
    /// Wi-Fi behind the lab router, UDP hole punching permitted.
    WifiP2p,
    /// Wi-Fi behind the lab router, UDP hole punching blocked.
    WifiRelay,
    /// 4G cellular; mode is application-determined.
    Cellular,
}

impl NetworkConfig {
    /// All three configurations, in the paper's order.
    pub const ALL: [NetworkConfig; 3] = [NetworkConfig::WifiP2p, NetworkConfig::WifiRelay, NetworkConfig::Cellular];

    /// Short label used in report output.
    pub fn label(self) -> &'static str {
        match self {
            NetworkConfig::WifiP2p => "wifi-p2p",
            NetworkConfig::WifiRelay => "wifi-relay",
            NetworkConfig::Cellular => "cellular",
        }
    }

    /// Parse a label produced by [`NetworkConfig::label`].
    pub fn from_label(label: &str) -> Option<NetworkConfig> {
        NetworkConfig::ALL.into_iter().find(|c| c.label() == label)
    }

    /// The path profile of this configuration.
    pub fn path_profile(self) -> PathProfile {
        match self {
            // 400/100 Mbps home Wi-Fi: low latency, low jitter.
            NetworkConfig::WifiP2p => PathProfile { base_latency_us: 12_000, jitter_us: 2_000, loss: 0.001 },
            // Same LAN, but hairpinning through a relay adds latency.
            NetworkConfig::WifiRelay => PathProfile { base_latency_us: 28_000, jitter_us: 4_000, loss: 0.002 },
            // 4G: higher latency and jitter, more loss.
            NetworkConfig::Cellular => PathProfile { base_latency_us: 55_000, jitter_us: 12_000, loss: 0.008 },
        }
    }
}

impl core::fmt::Display for NetworkConfig {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// How media actually flows between the two peers (paper Figure 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransmissionMode {
    /// Direct device-to-device path.
    P2p,
    /// Media hairpins through the application's relay / SFU infrastructure.
    Relay,
}

impl TransmissionMode {
    /// Short label used in report output.
    pub fn label(self) -> &'static str {
        match self {
            TransmissionMode::P2p => "p2p",
            TransmissionMode::Relay => "relay",
        }
    }
}

/// One-way path timing/loss characteristics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathProfile {
    /// Median one-way latency, microseconds.
    pub base_latency_us: u64,
    /// Jitter standard deviation, microseconds.
    pub jitter_us: u64,
    /// Independent per-packet loss probability.
    pub loss: f64,
}

impl PathProfile {
    /// Sample a one-way delay for one packet.
    pub fn sample_delay_us(&self, rng: &mut DetRng) -> u64 {
        let d = rng.gaussish(self.base_latency_us as f64, self.jitter_us as f64);
        d.max(200.0) as u64
    }

    /// Decide whether one packet is lost in transit.
    pub fn sample_loss(&self, rng: &mut DetRng) -> bool {
        rng.chance(self.loss)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<_> = NetworkConfig::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), 3);
    }

    #[test]
    fn cellular_is_slowest() {
        let w = NetworkConfig::WifiP2p.path_profile();
        let c = NetworkConfig::Cellular.path_profile();
        assert!(c.base_latency_us > w.base_latency_us);
        assert!(c.loss > w.loss);
    }

    #[test]
    fn delay_samples_are_positive_and_centered() {
        let mut rng = DetRng::new(1);
        let p = NetworkConfig::WifiP2p.path_profile();
        let n = 5_000;
        let mean: f64 = (0..n).map(|_| p.sample_delay_us(&mut rng) as f64).sum::<f64>() / n as f64;
        assert!((mean - p.base_latency_us as f64).abs() < 1_000.0, "mean = {mean}");
    }

    #[test]
    fn loss_rate_is_calibrated() {
        let mut rng = DetRng::new(2);
        let p = NetworkConfig::Cellular.path_profile();
        let lost = (0..100_000).filter(|_| p.sample_loss(&mut rng)).count();
        let rate = lost as f64 / 100_000.0;
        assert!((rate - p.loss).abs() < 0.002, "rate = {rate}");
    }
}
