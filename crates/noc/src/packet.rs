//! Packets: the unit of transfer in the memory network.
//!
//! The abstracted memory interface (§2.2) exchanges four packet kinds.
//! Packets carrying data (write requests and read responses) are five times
//! the size of control packets (read requests and write acknowledgments) —
//! the §3.2 assumption that explains why read- and write-heavy workloads
//! have different latency breakdowns.

use std::fmt;

use mn_sim::SimTime;
use mn_topo::{NodeId, PathClass};

/// Globally unique packet identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PacketId(pub u64);

impl fmt::Display for PacketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// The four message kinds of the abstracted memory protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PacketKind {
    /// Host → cube: please read (control-sized).
    ReadRequest,
    /// Host → cube: please write, data attached (data-sized).
    WriteRequest,
    /// Cube → host: read data (data-sized).
    ReadResponse,
    /// Cube → host: write acknowledgment (control-sized).
    WriteAck,
}

impl PacketKind {
    /// True for host→cube messages.
    pub(crate) const fn is_request(self) -> bool {
        matches!(self, PacketKind::ReadRequest | PacketKind::WriteRequest)
    }

    /// True for messages that carry a data payload (5x control size).
    pub const fn carries_data(self) -> bool {
        matches!(self, PacketKind::WriteRequest | PacketKind::ReadResponse)
    }

    /// True for write-class traffic (write requests and their acks) — the
    /// traffic a skip list shunts onto the chain and the adaptive arbiter
    /// may defer.
    pub(crate) const fn is_write_class(self) -> bool {
        matches!(self, PacketKind::WriteRequest | PacketKind::WriteAck)
    }

    /// The virtual channel this kind travels on.
    pub(crate) const fn virtual_channel(self) -> VirtualChannel {
        if self.is_request() {
            VirtualChannel::Request
        } else {
            VirtualChannel::Response
        }
    }

    /// The response kind that answers this request.
    ///
    /// # Panics
    ///
    /// Panics if `self` is already a response.
    pub fn response(self) -> PacketKind {
        match self {
            PacketKind::ReadRequest => PacketKind::ReadResponse,
            PacketKind::WriteRequest => PacketKind::WriteAck,
            other => panic!("{other:?} is not a request"),
        }
    }
}

/// The two virtual networks. Responses have strict priority at link egress
/// (§3.2), which both avoids protocol deadlock and skews queuing latency
/// onto the request path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VirtualChannel {
    /// Host→cube requests.
    Request,
    /// Cube→host responses.
    Response,
}

impl VirtualChannel {
    /// Both channels, response first (the service order).
    pub const PRIORITY_ORDER: [VirtualChannel; 2] =
        [VirtualChannel::Response, VirtualChannel::Request];

    /// Dense index for per-VC arrays.
    pub const fn index(self) -> usize {
        match self {
            VirtualChannel::Request => 0,
            VirtualChannel::Response => 1,
        }
    }

    /// Number of virtual channels.
    pub const COUNT: usize = 2;
}

/// A packet traversing the memory network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Unique id.
    pub id: PacketId,
    /// Message kind.
    pub kind: PacketKind,
    /// Originating node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Which routing plane the packet uses (reads take skip links, writes
    /// ride the chain — unless the write-burst policy upgrades them).
    pub class: PathClass,
    /// Correlates responses with host-side request bookkeeping.
    pub token: u64,
    /// True when the packet's source cube is NVM — responses from slow
    /// arrays are older than their hop count suggests, which the adaptive
    /// arbiter compensates for (§5.1).
    pub src_is_nvm: bool,
    /// When the packet was injected (set by the network).
    pub injected_at: SimTime,
    /// ECN congestion mark: set by a link whose departure buffer is at or
    /// above `NocConfig::ecn_threshold` when the packet is forwarded, and
    /// echoed from a request onto its response so the host's `Ecn` window
    /// policy sees end-to-end congestion. Never set when the threshold is
    /// 0 (the default).
    pub marked: bool,
    hops: u32,
}

impl Packet {
    /// A host-originated request packet on the kind's natural path class
    /// (reads on [`PathClass::Read`], writes on [`PathClass::Write`]).
    ///
    /// # Panics
    ///
    /// Panics if `kind` is not a request.
    pub fn request(token: u64, kind: PacketKind, src: NodeId, dst: NodeId) -> Packet {
        assert!(kind.is_request(), "{kind:?} is not a request kind");
        let class = if kind.is_write_class() {
            PathClass::Write
        } else {
            PathClass::Read
        };
        Packet {
            id: PacketId(0), // assigned by the network at injection
            kind,
            src,
            dst,
            class,
            token,
            src_is_nvm: false,
            injected_at: SimTime::ZERO,
            marked: false,
            hops: 0,
        }
    }

    /// The response to `request`, traveling back on the same path class,
    /// flagged with whether the answering cube is NVM. The request's ECN
    /// mark is echoed onto the response (marks can also be added en route
    /// back), so the host observes congestion in either direction.
    ///
    /// # Panics
    ///
    /// Panics if `request` is not a request packet.
    pub fn response_to(request: &Packet, src_is_nvm: bool) -> Packet {
        Packet {
            id: PacketId(0),
            kind: request.kind.response(),
            src: request.dst,
            dst: request.src,
            class: request.class,
            token: request.token,
            src_is_nvm,
            injected_at: SimTime::ZERO,
            marked: request.marked,
            hops: 0,
        }
    }

    /// Overrides the path class (the write-burst policy uses this to route
    /// writes over skip links).
    pub fn with_class(mut self, class: PathClass) -> Packet {
        self.class = class;
        self
    }

    /// Link traversals so far.
    pub fn hops(&self) -> u32 {
        self.hops
    }

    pub(crate) fn record_hop(&mut self) {
        self.hops += 1;
    }

    pub(crate) fn assign_id(&mut self, id: PacketId, now: SimTime) {
        self.id = id;
        self.injected_at = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_and_classes() {
        assert!(PacketKind::ReadRequest.is_request());
        assert!(!PacketKind::ReadResponse.is_request());
        assert!(PacketKind::WriteRequest.carries_data());
        assert!(PacketKind::ReadResponse.carries_data());
        assert!(!PacketKind::ReadRequest.carries_data());
        assert!(!PacketKind::WriteAck.carries_data());
        assert!(PacketKind::WriteRequest.is_write_class());
        assert!(PacketKind::WriteAck.is_write_class());
        assert!(!PacketKind::ReadResponse.is_write_class());
    }

    #[test]
    fn vc_mapping() {
        assert_eq!(
            PacketKind::ReadRequest.virtual_channel(),
            VirtualChannel::Request
        );
        assert_eq!(
            PacketKind::WriteAck.virtual_channel(),
            VirtualChannel::Response
        );
        assert_eq!(VirtualChannel::PRIORITY_ORDER[0], VirtualChannel::Response);
    }

    #[test]
    fn response_pairing() {
        assert_eq!(PacketKind::ReadRequest.response(), PacketKind::ReadResponse);
        assert_eq!(PacketKind::WriteRequest.response(), PacketKind::WriteAck);
    }

    #[test]
    #[should_panic(expected = "is not a request")]
    fn response_of_response_panics() {
        let _ = PacketKind::ReadResponse.response();
    }

    #[test]
    fn request_constructor_sets_class() {
        let r = Packet::request(9, PacketKind::ReadRequest, NodeId(0), NodeId(3));
        assert_eq!(r.class, PathClass::Read);
        assert_eq!(r.token, 9);
        let w = Packet::request(9, PacketKind::WriteRequest, NodeId(0), NodeId(3));
        assert_eq!(w.class, PathClass::Write);
    }

    #[test]
    fn response_echoes_request_mark() {
        let mut r = Packet::request(5, PacketKind::ReadRequest, NodeId(0), NodeId(3));
        assert!(!r.marked);
        assert!(!Packet::response_to(&r, false).marked);
        r.marked = true;
        assert!(Packet::response_to(&r, false).marked);
    }

    #[test]
    fn response_mirrors_request() {
        let r = Packet::request(5, PacketKind::WriteRequest, NodeId(0), NodeId(3));
        let resp = Packet::response_to(&r, true);
        assert_eq!(resp.kind, PacketKind::WriteAck);
        assert_eq!(resp.src, NodeId(3));
        assert_eq!(resp.dst, NodeId(0));
        assert_eq!(resp.token, 5);
        assert_eq!(resp.class, PathClass::Write);
        assert!(resp.src_is_nvm);
    }

    #[test]
    fn with_class_overrides() {
        let w = Packet::request(0, PacketKind::WriteRequest, NodeId(0), NodeId(3))
            .with_class(PathClass::Read);
        assert_eq!(w.class, PathClass::Read);
    }

    #[test]
    #[should_panic(expected = "not a request kind")]
    fn request_rejects_response_kind() {
        let _ = Packet::request(0, PacketKind::ReadResponse, NodeId(0), NodeId(1));
    }
}
