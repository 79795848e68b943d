//! Address allocation for devices, application infrastructure and
//! background services.
//!
//! The layout mirrors the paper's setup (§3.1.1): two phones behind a lab
//! Wi-Fi router (private 192.168.1.0/24 LAN, one WAN address) or on Verizon
//! 4G (publicly routed carrier addresses). Application server pools live in
//! deterministic, app-specific public prefixes so that traces are
//! reproducible and streams are attributable during debugging.

use crate::rng::DetRng;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr};

/// Allocates device, server and ephemeral-port addresses.
#[derive(Debug, Clone)]
pub struct AddressAllocator {
    rng: DetRng,
    next_ephemeral: u16,
}

impl AddressAllocator {
    /// Create an allocator from a forked RNG.
    pub fn new(rng: DetRng) -> AddressAllocator {
        AddressAllocator::with_port_base(rng, 49_160)
    }

    /// Create an allocator whose ephemeral ports start at `base` — distinct
    /// subsystems (media, STUN, signaling, background noise) draw from
    /// disjoint port blocks so their streams can never alias in the
    /// filtering pipeline's 3-tuple analysis, just as distinct sockets on a
    /// real device hold distinct ports.
    pub fn with_port_base(rng: DetRng, base: u16) -> AddressAllocator {
        AddressAllocator { rng, next_ephemeral: base.max(49_160) }
    }

    /// LAN address of device `idx` (0 = caller, 1 = callee) on the lab Wi-Fi.
    pub fn lan_device(&self, idx: usize) -> IpAddr {
        Ipv4Addr::new(192, 168, 1, 101 + idx as u8).into()
    }

    /// Carrier address of device `idx` on cellular (publicly routed, as with
    /// the paper's Verizon setup).
    pub fn cellular_device(&self, idx: usize) -> IpAddr {
        Ipv4Addr::new(174, 192, 14, 21 + idx as u8).into()
    }

    /// An IPv6 link-local address for LAN management noise.
    pub fn link_local_v6(&mut self, idx: usize) -> IpAddr {
        Ipv6Addr::new(0xfe80, 0, 0, 0, 0, 0, 0, 0x100 + idx as u16).into()
    }

    /// A fresh ephemeral source port (49152–65535, monotonic with a small
    /// random stride, wrapping safely).
    pub fn ephemeral_port(&mut self) -> u16 {
        let port = self.next_ephemeral;
        let stride = 1 + self.rng.below(7) as u16;
        self.next_ephemeral = if port > 65_500 { 49_160 } else { port + stride };
        port
    }

    /// A sub-allocator drawing from port block `block` (each block spans
    /// 1500 ports above the 49160 floor).
    pub fn port_block(&self, block: u8) -> AddressAllocator {
        AddressAllocator::with_port_base(self.rng.clone(), 49_160 + block as u16 * 1_500)
    }

    /// A deterministic public server address for `app`'s `service` pool.
    ///
    /// The same `(app, service, index)` triple always yields the same
    /// address; distinct triples map into distinct /24-sized pools carved
    /// from documentation/test prefixes so they can never collide with
    /// device or LAN addresses.
    pub fn app_server(&self, app: &str, service: &str, index: usize) -> SocketAddr {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in app.bytes().chain(service.bytes()) {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01B3);
        }
        // Spread across several public-looking /16s.
        let blocks: [(u8, u8); 4] = [(203, 0), (198, 51), (20, 120), (52, 30)];
        let (a, b) = blocks[(h % 4) as usize];
        let c = ((h >> 8) % 200) as u8 + 8;
        let d = 10 + (index as u8 % 200);
        let port = match service {
            "stun" => 3478,
            "turn" | "relay" => 3478 + (index as u16 % 4) * 1000,
            "sfu" => 8801,
            "quic" => 443,
            "signaling" => 443,
            _ => 4000 + (h % 2000) as u16,
        };
        SocketAddr::new(Ipv4Addr::new(a, b, c, d).into(), port)
    }

    /// A deterministic background-service address (push, trackers, OS
    /// updates…), distinct from app pools.
    pub fn background_server(&self, service: &str, index: usize) -> SocketAddr {
        let mut h: u64 = 0x8422_2325_cbf2_9ce4;
        for b in service.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01B3);
        }
        let c = (h % 250) as u8;
        let d = 1 + (index as u8 % 250);
        let port = match service {
            "dns" => 53,
            "ntp" => 123,
            _ => 443,
        };
        SocketAddr::new(Ipv4Addr::new(17, 57, c, d).into(), port)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtc_wire::ip::is_local_scope;

    fn alloc() -> AddressAllocator {
        AddressAllocator::new(DetRng::new(99))
    }

    #[test]
    fn lan_devices_are_private_and_distinct() {
        let a = alloc();
        assert!(is_local_scope(a.lan_device(0)));
        assert!(is_local_scope(a.lan_device(1)));
        assert_ne!(a.lan_device(0), a.lan_device(1));
    }

    #[test]
    fn cellular_devices_are_public() {
        let a = alloc();
        assert!(!is_local_scope(a.cellular_device(0)));
        assert_ne!(a.cellular_device(0), a.cellular_device(1));
    }

    #[test]
    fn ephemeral_ports_are_high_and_mostly_unique() {
        let mut a = alloc();
        let ports: Vec<u16> = (0..1000).map(|_| a.ephemeral_port()).collect();
        assert!(ports.iter().all(|&p| p >= 49_152));
        let unique: std::collections::HashSet<_> = ports.iter().collect();
        assert!(unique.len() > 900);
    }

    #[test]
    fn app_servers_are_deterministic_and_public() {
        let a = alloc();
        let s1 = a.app_server("zoom", "sfu", 0);
        let s2 = a.app_server("zoom", "sfu", 0);
        assert_eq!(s1, s2);
        assert!(!is_local_scope(s1.ip()));
        assert_ne!(a.app_server("zoom", "sfu", 0), a.app_server("discord", "sfu", 0));
        assert_ne!(a.app_server("zoom", "sfu", 0), a.app_server("zoom", "stun", 0));
    }

    #[test]
    fn stun_servers_use_the_stun_port() {
        let a = alloc();
        assert_eq!(a.app_server("whatsapp", "stun", 2).port(), 3478);
    }

    #[test]
    fn background_servers_distinct_from_app_pools() {
        let a = alloc();
        let bg = a.background_server("apns", 0);
        assert!(!is_local_scope(bg.ip()));
        assert_eq!(a.background_server("dns", 0).port(), 53);
    }

    #[test]
    fn link_local_is_local_scope() {
        let mut a = alloc();
        assert!(is_local_scope(a.link_local_v6(0)));
    }
}
