//! # netback — real kernel-part backends for the ILP stack
//!
//! The paper's measurements run the user-level TCP over an in-process
//! loop-back ([`utcp::Loopback`]); this crate provides implementations
//! of the same [`utcp::KernelPart`] contract that face an actual
//! kernel, so the identical connection state machine and ILP/non-ILP
//! pipelines serve real traffic. There is one implementation,
//! [`link::Backend`]: the kernel slots, the drain that fills them, the
//! send and the counters, over a per-device [`link::Link`]. Two links:
//!
//! * [`udp::UdpBackend`] — each utcp datagram (IPv4 + TCP + payload,
//!   exactly the bytes the loop-back would carry) is framed by the
//!   explicit, length-checked wire codec in [`codec`] and shipped as one
//!   UDP datagram over a `std::net::UdpSocket`; a burst of them crosses
//!   the kernel as one train, with segmentation offload out and in
//!   (Linux ≥ 5.0; the calls are in `sys`). Two OS processes on
//!   127.0.0.1 then play the paper's sender/receiver pair with the
//!   kernel's real syscall, copy, and scheduling costs in the path
//!   (`examples/serve_udp.rs`).
//! * [`tun::TunBackend`] — writes the raw IPv4 packets to a
//!   `/dev/net/tun` descriptor instead of framing them in UDP; the
//!   device plumbing needs `ioctl`.
//!
//! Both queue through the same [`utcp::PortDemux`] the loop-back holds,
//! assemble what they send with the loop-back's
//! [`utcp::kernelpart::system_copy`], and admit an arriving datagram by
//! one rule, [`ipv4::admit`].
//!
//! What deliberately does **not** move here: determinism. The loop-back
//! remains the tier-1/DST world with its seeded [`utcp::FaultPlan`];
//! these backends bring whatever faults the real network has, reported
//! through [`utcp::KernelPart::counters`].

// `unsafe` lives in two modules only: `sys` (the socket calls std does
// not wrap) and `tun` (the device's `ioctl`), each call with its SAFETY
// comment; no libc crate in this offline workspace.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod ipv4;
pub mod link;
#[allow(unsafe_code)]
mod sys;
#[allow(unsafe_code)]
pub mod tun;
pub mod udp;

pub use codec::{encode, CodecError, HEADER_LEN, MAX_INNER};
pub use udp::{SockCalls, UdpBackend};
