//! # rtc-apps
//!
//! Emulated traffic models of the six RTC applications the paper studies.
//!
//! The paper's raw inputs are captures of real calls through closed-source
//! apps. This crate is the substitution: each module synthesizes one
//! application's 1-on-1 call traffic, reproducing — with the paper's
//! reported magnitudes — every protocol behaviour and deviation §5
//! documents, from Zoom's proprietary SFU header and filler bursts to
//! Google Meet's missing SRTCP authentication tags. Each generated quirk
//! cites the paper section it implements.
//!
//! The models exist so the *measurement pipeline* (filtering, DPI,
//! compliance checking) has faithful inputs; they are not reimplementations
//! of the applications. Ground truth lives here, and the integration tests
//! assert the pipeline rediscovers it.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Traffic-model helpers thread several independent per-leg knobs (sink, rng,
// tuple, pacing, payload shaping); bundling them into structs would obscure
// which model varies what.
#![allow(clippy::too_many_arguments)]

pub mod background;
pub mod discord;
pub mod expectations;
pub mod facetime;
pub mod ice;
pub mod media;
pub mod meet;
pub mod messenger;
pub mod whatsapp;
pub mod zoom;

use rtc_netemu::{AddressAllocator, DetRng, NetworkConfig, TrafficSink, TransmissionMode};
use rtc_pcap::Timestamp;
use std::net::IpAddr;

/// The six studied applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Application {
    /// Zoom.
    Zoom,
    /// Apple FaceTime.
    FaceTime,
    /// WhatsApp.
    WhatsApp,
    /// Facebook Messenger.
    Messenger,
    /// Discord.
    Discord,
    /// Google Meet.
    GoogleMeet,
}

impl Application {
    /// All six applications, in the paper's table order.
    pub const ALL: [Application; 6] = [
        Application::Zoom,
        Application::FaceTime,
        Application::WhatsApp,
        Application::Messenger,
        Application::Discord,
        Application::GoogleMeet,
    ];

    /// Human-readable name, as printed in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Application::Zoom => "Zoom",
            Application::FaceTime => "FaceTime",
            Application::WhatsApp => "WhatsApp",
            Application::Messenger => "Messenger",
            Application::Discord => "Discord",
            Application::GoogleMeet => "Google Meet",
        }
    }

    /// Short machine-friendly slug.
    pub fn slug(self) -> &'static str {
        match self {
            Application::Zoom => "zoom",
            Application::FaceTime => "facetime",
            Application::WhatsApp => "whatsapp",
            Application::Messenger => "messenger",
            Application::Discord => "discord",
            Application::GoogleMeet => "meet",
        }
    }

    /// Parse a slug produced by [`Application::slug`].
    pub fn from_slug(slug: &str) -> Option<Application> {
        Application::ALL.into_iter().find(|a| a.slug() == slug)
    }

    /// The transmission mode this application uses at `since_call_start`
    /// seconds into a call on `network` (paper §3.1.1 and Table 2 notes):
    ///
    /// * Wi-Fi with hole punching blocked forces relay for everyone;
    /// * Discord always relays, on every network;
    /// * on cellular, Zoom relays, FaceTime goes direct, and WhatsApp /
    ///   Messenger / Google Meet start relayed and switch to P2P after ~30 s.
    pub fn transmission_mode(self, network: NetworkConfig, since_call_start_s: u64) -> TransmissionMode {
        if self == Application::Discord {
            return TransmissionMode::Relay;
        }
        match network {
            NetworkConfig::WifiRelay => TransmissionMode::Relay,
            NetworkConfig::WifiP2p => TransmissionMode::P2p,
            NetworkConfig::Cellular => match self {
                Application::Zoom => TransmissionMode::Relay,
                Application::FaceTime => TransmissionMode::P2p,
                _ => {
                    if since_call_start_s < 30 {
                        TransmissionMode::Relay
                    } else {
                        TransmissionMode::P2p
                    }
                }
            },
        }
    }

    /// Whether the call ever switches mode mid-call on this network.
    pub fn mode_switch_at_s(self, network: NetworkConfig) -> Option<u64> {
        let early = self.transmission_mode(network, 0);
        let late = self.transmission_mode(network, 30);
        (early != late).then_some(30)
    }

    /// Build the traffic model for this application.
    pub fn model(self) -> Box<dyn AppModel> {
        match self {
            Application::Zoom => Box::new(zoom::Zoom),
            Application::FaceTime => Box::new(facetime::FaceTime),
            Application::WhatsApp => Box::new(whatsapp::WhatsApp),
            Application::Messenger => Box::new(messenger::Messenger),
            Application::Discord => Box::new(discord::Discord),
            Application::GoogleMeet => Box::new(meet::GoogleMeet),
        }
    }
}

impl core::fmt::Display for Application {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// Parameters of one emulated call experiment (paper §3.1.2: 60 s pre-call,
/// a 5-minute call, 60 s post-call).
#[derive(Debug, Clone)]
pub struct CallScenario {
    /// The application under test.
    pub app: Application,
    /// The network configuration.
    pub network: NetworkConfig,
    /// Absolute time the call starts (capture starts `pre_secs` earlier).
    pub call_start: Timestamp,
    /// Call duration in seconds (the paper uses 300).
    pub call_secs: u64,
    /// Pre-call capture phase in seconds (the paper uses 60).
    pub pre_secs: u64,
    /// Post-call capture phase in seconds (the paper uses 60).
    pub post_secs: u64,
    /// Traffic-rate multiplier in (0, 1]; ratios are rate-invariant, so
    /// scaled-down experiments reproduce the paper's relative results fast.
    pub scale: f64,
    /// Experiment seed; every generated byte is a function of it.
    pub seed: u64,
}

impl CallScenario {
    /// A scenario with the paper's timing defaults.
    pub fn new(app: Application, network: NetworkConfig, seed: u64) -> CallScenario {
        CallScenario {
            app,
            network,
            call_start: Timestamp::from_secs(60),
            call_secs: 300,
            pre_secs: 60,
            post_secs: 60,
            scale: 1.0,
            seed,
        }
    }

    /// Shrink call duration and rates for fast tests/benches.
    pub fn scaled(mut self, call_secs: u64, scale: f64) -> CallScenario {
        self.call_secs = call_secs;
        self.scale = scale;
        self
    }

    /// When the call ends.
    pub fn call_end(&self) -> Timestamp {
        self.call_start.plus_secs(self.call_secs)
    }

    /// When the capture starts.
    pub fn capture_start(&self) -> Timestamp {
        Timestamp::from_micros(self.call_start.as_micros().saturating_sub(self.pre_secs * 1_000_000))
    }

    /// When the capture ends.
    pub fn capture_end(&self) -> Timestamp {
        self.call_end().plus_secs(self.post_secs)
    }

    /// The root RNG for this scenario.
    pub fn rng(&self) -> DetRng {
        let mut r = DetRng::new(self.seed);
        r.fork(self.app.slug()).fork(self.network.label())
    }

    /// The address allocator for this scenario.
    pub fn allocator(&self) -> AddressAllocator {
        AddressAllocator::new(self.rng().fork("addr"))
    }

    /// A port allocator for subsystem `block` (0 = media, 1 = STUN, 2 =
    /// signaling, 3 = background, 4 = auxiliary). Blocks are disjoint, like
    /// distinct sockets on a real device.
    pub fn port_allocator(&self, block: u8) -> AddressAllocator {
        self.allocator().port_block(block)
    }

    /// Device addresses `[caller, callee]` on this network.
    pub fn device_ips(&self) -> [IpAddr; 2] {
        let alloc = self.allocator();
        match self.network {
            NetworkConfig::Cellular => [alloc.cellular_device(0), alloc.cellular_device(1)],
            _ => [alloc.lan_device(0), alloc.lan_device(1)],
        }
    }
}

/// A traffic model for one application.
pub trait AppModel {
    /// The application this model emulates.
    fn application(&self) -> Application;

    /// Generate the full call-experiment traffic (both devices, both
    /// directions, including the app's own signaling) into `sink`.
    ///
    /// Background noise from the OS and other apps is generated separately
    /// by [`background::generate`] so the filtering pipeline has realistic
    /// unrelated traffic to remove.
    fn generate(&self, scenario: &CallScenario, sink: &mut TrafficSink);
}

/// Convenience: run an application model plus background noise and render
/// the merged capture.
pub fn generate_call_trace(scenario: &CallScenario) -> rtc_pcap::Trace {
    let mut sink = TrafficSink::new(scenario.network.path_profile(), scenario.rng().fork("path"));
    scenario.app.model().generate(scenario, &mut sink);
    background::generate(scenario, &mut sink);
    sink.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_matrix_matches_paper() {
        use Application::*;
        use TransmissionMode::*;
        // Wi-Fi relay forces relay for everyone.
        for app in Application::ALL {
            assert_eq!(app.transmission_mode(NetworkConfig::WifiRelay, 100), Relay);
        }
        // Discord always relays.
        for net in NetworkConfig::ALL {
            assert_eq!(Discord.transmission_mode(net, 100), Relay);
        }
        // Cellular behaviours (§3.1.1).
        assert_eq!(Zoom.transmission_mode(NetworkConfig::Cellular, 100), Relay);
        assert_eq!(FaceTime.transmission_mode(NetworkConfig::Cellular, 0), P2p);
        for app in [WhatsApp, Messenger, GoogleMeet] {
            assert_eq!(app.transmission_mode(NetworkConfig::Cellular, 5), Relay);
            assert_eq!(app.transmission_mode(NetworkConfig::Cellular, 45), P2p);
            assert_eq!(app.mode_switch_at_s(NetworkConfig::Cellular), Some(30));
        }
        assert_eq!(Zoom.mode_switch_at_s(NetworkConfig::Cellular), None);
    }

    #[test]
    fn scenario_phases() {
        let s = CallScenario::new(Application::Zoom, NetworkConfig::WifiP2p, 1);
        assert_eq!(s.capture_start(), Timestamp::ZERO);
        assert_eq!(s.call_end(), Timestamp::from_secs(360));
        assert_eq!(s.capture_end(), Timestamp::from_secs(420));
    }

    #[test]
    fn scenario_rng_depends_on_app_and_network() {
        let a = CallScenario::new(Application::Zoom, NetworkConfig::WifiP2p, 1).rng().next_u64();
        let b = CallScenario::new(Application::Discord, NetworkConfig::WifiP2p, 1).rng().next_u64();
        let c = CallScenario::new(Application::Zoom, NetworkConfig::Cellular, 1).rng().next_u64();
        assert_ne!(a, b);
        assert_ne!(a, c);
        let a2 = CallScenario::new(Application::Zoom, NetworkConfig::WifiP2p, 1).rng().next_u64();
        assert_eq!(a, a2);
    }

    #[test]
    fn device_ips_follow_network() {
        let wifi = CallScenario::new(Application::Zoom, NetworkConfig::WifiP2p, 1);
        assert!(rtc_wire::ip::is_local_scope(wifi.device_ips()[0]));
        let cell = CallScenario::new(Application::Zoom, NetworkConfig::Cellular, 1);
        assert!(!rtc_wire::ip::is_local_scope(cell.device_ips()[0]));
    }

    #[test]
    fn names_and_slugs_distinct() {
        let names: std::collections::HashSet<_> = Application::ALL.iter().map(|a| a.name()).collect();
        let slugs: std::collections::HashSet<_> = Application::ALL.iter().map(|a| a.slug()).collect();
        assert_eq!(names.len(), 6);
        assert_eq!(slugs.len(), 6);
    }
}
