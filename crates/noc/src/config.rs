//! Network configuration: the §5 link and buffer parameters.

use mn_sim::SimDuration;
use mn_topo::LinkClass;

use crate::arbiter::ArbiterKind;
use crate::fault::FaultConfig;
use crate::packet::PacketKind;

/// Whether a link's two directions share one physical channel.
///
/// The paper's network has a *single* link between connected packages, so
/// responses and requests contend for it and response priority directly
/// delays requests — the §3.2 explanation for why to-memory latency
/// exceeds from-memory latency. [`LinkDuplex::Half`] models that;
/// [`LinkDuplex::Full`] gives each direction its own channel (useful for
/// ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkDuplex {
    /// One shared channel; a packet in either direction occupies the link.
    Half,
    /// Independent channels per direction.
    Full,
}

/// Timing for one link class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkTiming {
    /// Serialization cost per byte. External links are 16 lanes at 15 Gbps
    /// = 30 GB/s, i.e. ~33 ps/byte (§5).
    pub ps_per_byte: u64,
    /// Fixed per-traversal latency for serialization/scrambling circuitry
    /// (2 ns for external SerDes links; ~0 for interposer wires).
    pub fixed_latency: SimDuration,
}

impl LinkTiming {
    /// Transmission occupancy for a packet of `bytes`.
    pub fn serialize(&self, bytes: u32) -> SimDuration {
        SimDuration::from_ps(self.ps_per_byte * u64::from(bytes))
    }
}

/// All tunables of the interconnect model, preset to the paper's §5 values.
#[derive(Debug, Clone, PartialEq)]
pub struct NocConfig {
    /// Size of control packets (read requests, write acks), bytes.
    pub control_bytes: u32,
    /// Size of data packets (write requests, read responses), bytes — 5x
    /// control per §3.2.
    pub data_bytes: u32,
    /// External (SerDes) link timing.
    pub external_link: LinkTiming,
    /// Interposer link timing (inside a MetaCube package: wide and short).
    pub interposer_link: LinkTiming,
    /// Input buffer capacity per (port, virtual channel), in packets.
    pub buffer_packets: usize,
    /// Ejection buffer capacity per (node, virtual channel), in packets.
    pub ejection_packets: usize,
    /// Which arbitration scheme routers use (§4.1, §5.3).
    pub arbiter: ArbiterKind,
    /// Link duplexing (the paper's links are shared/half-duplex).
    pub duplex: LinkDuplex,
    /// Transport energy per bit per hop, picojoules (§5: 5 pJ/bit/hop).
    pub transport_pj_per_bit_hop: f64,
    /// ECN marking threshold, in packets. When nonzero, a link that
    /// forwards a packet while its departure input buffer holds at least
    /// this many packets (the forwarded one included) sets the packet's
    /// congestion mark; the closed-loop host's `Ecn` window policy reacts
    /// to marks echoed on responses. `0` (the default, and the paper
    /// baseline) disables marking entirely — the branch never fires, so
    /// open-loop results are byte-identical.
    pub ecn_threshold: u32,
    /// Link-fault injection (disabled in the paper baseline; see
    /// [`FaultConfig`]).
    pub fault: FaultConfig,
    /// Telemetry mode (off by default; see [`mn_telemetry::TraceConfig`]).
    /// Purely observational: no setting changes the event stream or the
    /// simulated results.
    pub trace: mn_telemetry::TraceConfig,
}

impl NocConfig {
    /// The paper's configuration with round-robin arbitration.
    pub fn paper_baseline() -> NocConfig {
        NocConfig {
            control_bytes: 16,
            data_bytes: 80,
            external_link: LinkTiming {
                // 30 GB/s => 33.3 ps/byte; 33 ps keeps integer math.
                ps_per_byte: 33,
                fixed_latency: SimDuration::from_ns(2),
            },
            interposer_link: LinkTiming {
                // Interposer wires are many times wider; 4x here.
                ps_per_byte: 8,
                fixed_latency: SimDuration::from_ps(500),
            },
            buffer_packets: 8,
            ejection_packets: 8,
            arbiter: ArbiterKind::RoundRobin,
            duplex: LinkDuplex::Half,
            transport_pj_per_bit_hop: 5.0,
            ecn_threshold: 0,
            fault: FaultConfig::none(),
            trace: mn_telemetry::TraceConfig::Off,
        }
    }

    /// Replaces the arbitration scheme.
    pub fn with_arbiter(mut self, arbiter: ArbiterKind) -> NocConfig {
        self.arbiter = arbiter;
        self
    }

    /// Packet size in bytes for `kind`.
    pub(crate) fn packet_bytes(&self, kind: PacketKind) -> u32 {
        if kind.carries_data() {
            self.data_bytes
        } else {
            self.control_bytes
        }
    }

    /// Link timing for a link class.
    pub fn link_timing(&self, class: LinkClass) -> LinkTiming {
        match class {
            LinkClass::External => self.external_link,
            LinkClass::Interposer => self.interposer_link,
        }
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if any size, capacity or per-byte link time is zero.
    pub fn validate(&self) {
        assert!(self.control_bytes > 0, "control packets need a size");
        // A send must occupy its link for a positive time: the network's
        // same-instant lane relies on every link event falling strictly
        // after the instant that scheduled it.
        assert!(
            self.external_link.ps_per_byte > 0 && self.interposer_link.ps_per_byte > 0,
            "links need a positive per-byte serialization time"
        );
        assert!(
            self.data_bytes >= self.control_bytes,
            "data packets cannot be smaller than control packets"
        );
        assert!(self.buffer_packets > 0, "buffers need capacity");
        assert!(self.ejection_packets > 0, "ejection buffers need capacity");
        assert!(
            self.ecn_threshold as usize <= self.buffer_packets,
            "ecn_threshold ({}) can never fire above buffer_packets ({})",
            self.ecn_threshold,
            self.buffer_packets
        );
        self.fault.validate();
    }
}

impl Default for NocConfig {
    fn default() -> Self {
        NocConfig::paper_baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_values() {
        let c = NocConfig::paper_baseline();
        assert_eq!(c.packet_bytes(PacketKind::ReadRequest), 16);
        assert_eq!(c.packet_bytes(PacketKind::ReadResponse), 80);
        assert_eq!(c.packet_bytes(PacketKind::WriteRequest), 80);
        assert_eq!(c.packet_bytes(PacketKind::WriteAck), 16);
        assert_eq!(c.external_link.fixed_latency, SimDuration::from_ns(2));
        assert!((c.transport_pj_per_bit_hop - 5.0).abs() < f64::EPSILON);
        assert_eq!(c.ecn_threshold, 0, "ECN marking must default off");
    }

    #[test]
    #[should_panic(expected = "can never fire")]
    fn validate_rejects_unreachable_ecn_threshold() {
        let c = NocConfig {
            ecn_threshold: 99,
            ..NocConfig::default()
        };
        c.validate();
    }

    #[test]
    fn data_packets_are_5x_control() {
        let c = NocConfig::default();
        assert_eq!(c.data_bytes, 5 * c.control_bytes);
    }

    #[test]
    fn serialization_times() {
        let c = NocConfig::default();
        // An 80-byte data packet at 33 ps/byte = 2.64 ns on the wire.
        assert_eq!(c.external_link.serialize(80), SimDuration::from_ps(2640));
        // Interposer links are 4x faster.
        assert!(c.interposer_link.serialize(80) < c.external_link.serialize(80) / 3);
    }

    #[test]
    fn link_class_lookup() {
        let c = NocConfig::default();
        assert_eq!(c.link_timing(LinkClass::External), c.external_link);
        assert_eq!(c.link_timing(LinkClass::Interposer), c.interposer_link);
    }

    #[test]
    fn with_arbiter_builder() {
        let c = NocConfig::default().with_arbiter(ArbiterKind::Distance);
        assert_eq!(c.arbiter, ArbiterKind::Distance);
    }

    #[test]
    #[should_panic(expected = "positive per-byte serialization time")]
    fn validate_rejects_instant_links() {
        let mut c = NocConfig::default();
        c.interposer_link.ps_per_byte = 0;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "cannot be smaller")]
    fn validate_rejects_tiny_data() {
        let c = NocConfig {
            data_bytes: 8,
            ..NocConfig::default()
        };
        c.validate();
    }
}
