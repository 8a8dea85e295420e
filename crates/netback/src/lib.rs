//! # netback — real kernel-part backends for the ILP stack
//!
//! The paper's measurements run the user-level TCP over an in-process
//! loop-back ([`utcp::Loopback`]); this crate provides implementations
//! of the same [`utcp::KernelPart`] contract that face an actual
//! kernel, so the identical connection state machine and ILP/non-ILP
//! pipelines serve real traffic:
//!
//! * [`udp::UdpBackend`] — std-only. Each utcp datagram (IPv4 + TCP +
//!   payload, exactly the bytes the loop-back would carry) is framed by
//!   the explicit, length-checked wire codec in [`codec`] and shipped
//!   as one UDP datagram over a `std::net::UdpSocket`. Two OS processes
//!   on 127.0.0.1 then play the paper's sender/receiver pair with the
//!   kernel's real syscall, copy, and scheduling costs in the path
//!   (`examples/serve_udp.rs`).
//! * `tun::TunBackend` (feature `tun`, off by default) — writes the raw
//!   IPv4 packets to a `/dev/net/tun` descriptor instead of framing
//!   them in UDP. The packet bytes are produced by [`ipv4`], the
//!   byte-slice accessor of the one IPv4 header layout in `utcp::ip`;
//!   the device plumbing needs `ioctl`, hence the feature gate on
//!   `unsafe`.
//!
//! Both backends queue through the same [`utcp::PortDemux`] the
//! loop-back holds, and admit an arriving datagram by the same rule,
//! [`ipv4::admit`].
//!
//! What deliberately does **not** move here: determinism. The loop-back
//! remains the tier-1/DST world with its seeded [`utcp::FaultPlan`];
//! these backends bring whatever faults the real network has, reported
//! through [`utcp::KernelPart::counters`].

#![cfg_attr(not(feature = "tun"), forbid(unsafe_code))]
#![warn(missing_docs)]

pub mod codec;
pub mod ipv4;
pub mod udp;
#[cfg(feature = "tun")]
pub mod tun;

pub use codec::{decode, encode, CodecError, HEADER_LEN, MAX_INNER};
pub use udp::UdpBackend;
