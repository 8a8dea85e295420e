//! [`TunBackend`]: the kernel part over a Linux TUN device (feature
//! `tun`, off by default).
//!
//! Where [`crate::udp::UdpBackend`] wraps each datagram in a UDP frame,
//! a TUN device hands the kernel the raw IPv4 packet itself: the bytes
//! written to `/dev/net/tun` *are* the packet the kernel routes, and
//! reads return whole packets addressed to the interface. The IPv4
//! framing on this path is produced and validated by the byte-slice
//! accessor ([`crate::ipv4`]) of the one header layout in `utcp::ip`.
//!
//! This is a skeleton by design: it compiles (and is clippy-clean)
//! everywhere, but exercising it end-to-end needs `/dev/net/tun`,
//! `CAP_NET_ADMIN`, and interface/route configuration that test
//! environments rarely grant. The smoke test opens the device when it
//! exists and silently skips otherwise.
//!
//! The `unsafe` here is confined to two `extern "C"` declarations
//! (`ioctl` for `TUNSETIFF`, `fcntl` for `O_NONBLOCK`) because the
//! workspace is fully offline and carries no libc crate.

use crate::ipv4;
use memsim::layout::AddressSpace;
use memsim::region::{Region, RegionKind};
use memsim::Mem;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::os::unix::io::AsRawFd;
use utcp::backend::{KernelCounters, KernelPart};
use utcp::ip::IP_HEADER_LEN;
use utcp::kernelpart::{Datagram, EndpointId};
use utcp::wire::TCP_HEADER_LEN;
use utcp::PortDemux;

/// `TUNSETIFF` ioctl request number (x86-64/aarch64 Linux).
const TUNSETIFF: u64 = 0x4004_54ca;
/// Interface flags: TUN (IP-level, no Ethernet header)…
const IFF_TUN: i16 = 0x0001;
/// …and no packet-information prefix on reads/writes.
const IFF_NO_PI: i16 = 0x1000;
/// `fcntl` F_GETFL / F_SETFL.
const F_GETFL: i32 = 3;
const F_SETFL: i32 = 4;
/// `O_NONBLOCK` (octal 04000).
const O_NONBLOCK: i32 = 0o4000;

/// Mirror of `struct ifreq` as `TUNSETIFF` reads it: interface name +
/// flags, padded to the kernel's 40-byte union size.
#[repr(C)]
struct IfReq {
    name: [u8; 16],
    flags: i16,
    _pad: [u8; 22],
}

extern "C" {
    fn ioctl(fd: i32, request: u64, arg: *mut IfReq) -> i32;
    fn fcntl(fd: i32, cmd: i32, arg: i32) -> i32;
}

/// Kernel slot geometry, matching the loop-back and UDP backends.
const SLOT: usize = 2048;
const SLOTS: usize = 64;

/// A [`KernelPart`] backend over a TUN device.
#[derive(Debug)]
pub struct TunBackend {
    dev: File,
    /// Interface name the kernel actually assigned.
    name: String,
    slots: Region,
    next_slot: usize,
    staging: Region,
    demux: PortDemux,
    next_ident: u16,
    /// Packets accepted for transmission.
    pub sent: u64,
    /// Well-formed packets received.
    pub received: u64,
    /// Incoming packets [`ipv4::admit`] rejected (malformed, runt, or
    /// non-TCP traffic — the kernel will happily route us ICMP).
    pub parse_errors: u64,
    /// TCP packets for a port nobody listens on.
    pub unroutable: u64,
    /// Local write failures.
    pub send_errors: u64,
    /// Receive polls that found the device empty (`EWOULDBLOCK`).
    pub would_block: u64,
}

impl TunBackend {
    /// Open `/dev/net/tun` and create (or attach to) interface
    /// `ifname`, allocating the backend's regions in `space`.
    ///
    /// # Errors
    /// `NotFound` when the device node is absent, `PermissionDenied`
    /// without `CAP_NET_ADMIN`, or whatever the `TUNSETIFF` ioctl
    /// returns. Callers are expected to skip gracefully.
    pub fn open(space: &mut AddressSpace, ifname: &str) -> io::Result<Self> {
        let dev = OpenOptions::new().read(true).write(true).open("/dev/net/tun")?;
        let mut req = IfReq { name: [0; 16], flags: IFF_TUN | IFF_NO_PI, _pad: [0; 22] };
        let bytes = ifname.as_bytes();
        if bytes.len() >= req.name.len() {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "interface name too long"));
        }
        req.name[..bytes.len()].copy_from_slice(bytes);
        let fd = dev.as_raw_fd();
        // SAFETY: `req` is a properly initialised, live `ifreq`-layout
        // struct and `fd` is an open descriptor; TUNSETIFF reads/writes
        // only within it.
        let rc = unsafe { ioctl(fd, TUNSETIFF, &mut req) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: plain flag manipulation on our own descriptor.
        let rc = unsafe {
            let flags = fcntl(fd, F_GETFL, 0);
            if flags < 0 {
                flags
            } else {
                fcntl(fd, F_SETFL, flags | O_NONBLOCK)
            }
        };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        let end = req.name.iter().position(|&b| b == 0).unwrap_or(req.name.len());
        let name = String::from_utf8_lossy(&req.name[..end]).into_owned();
        let slots = space.alloc_kind("tun_slots", SLOT * SLOTS, 64, RegionKind::Kernel);
        let staging = space.alloc_kind("tun_staging", SLOT, 64, RegionKind::Kernel);
        Ok(TunBackend {
            dev,
            name,
            slots,
            next_slot: 0,
            staging,
            demux: PortDemux::default(),
            next_ident: 1,
            sent: 0,
            received: 0,
            parse_errors: 0,
            unroutable: 0,
            send_errors: 0,
            would_block: 0,
        })
    }

    /// The interface name the kernel assigned (e.g. `ilp0`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Drain the device into the per-port queues.
    fn drain_device<M: Mem>(&mut self, m: &mut M) {
        let mut buf = [0u8; SLOT];
        loop {
            let n = match self.dev.read(&mut buf) {
                Ok(0) => return,
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.would_block += 1;
                    return;
                }
                Err(_) => return,
            };
            let packet = &buf[..n];
            let Some(dst_port) = ipv4::admit(packet) else {
                self.parse_errors += 1;
                continue;
            };
            let Some(id) = self.demux.route(dst_port) else {
                self.unroutable += 1;
                continue;
            };
            self.received += 1;
            let slot = self.slots.at(self.next_slot * SLOT);
            self.next_slot = (self.next_slot + 1) % SLOTS;
            m.phase_push(memsim::mem::PhaseTag::System);
            for (i, &b) in packet.iter().enumerate() {
                m.write_u8(slot + i, b);
            }
            m.compute(30);
            m.phase_pop();
            self.demux.push(id, Datagram { addr: slot, len: n }, None);
        }
    }
}

impl KernelPart for TunBackend {
    fn register(&mut self, port: u16) -> EndpointId {
        self.demux.register(port)
    }

    fn unregister(&mut self, port: u16) {
        self.demux.unregister(port);
    }

    fn send<M: Mem>(
        &mut self,
        m: &mut M,
        src_ip: u32,
        dst_ip: u32,
        _dst_port: u16,
        hdr_addr: usize,
        payload_addr: usize,
        payload_len: usize,
    ) {
        let tcp_total = TCP_HEADER_LEN + payload_len;
        let total = IP_HEADER_LEN + tcp_total;
        assert!(total <= SLOT, "segment exceeds kernel slot / link MTU");
        // System copy of TCP header + payload into staging; the IP
        // header is framed by the byte-slice codec on the way out
        // (real framing — the kernel parses exactly these bytes).
        m.phase_push(memsim::mem::PhaseTag::System);
        m.copy(hdr_addr, self.staging.at(IP_HEADER_LEN), TCP_HEADER_LEN);
        if payload_len > 0 {
            m.copy(payload_addr, self.staging.at(IP_HEADER_LEN + TCP_HEADER_LEN), payload_len);
        }
        m.compute(30);
        let mut packet = vec![0u8; total];
        for (i, b) in packet.iter_mut().enumerate().skip(IP_HEADER_LEN) {
            *b = m.read_u8(self.staging.at(i));
        }
        m.phase_pop();
        let ident = self.next_ident;
        self.next_ident = self.next_ident.wrapping_add(1);
        ipv4::build(&mut packet[..IP_HEADER_LEN], src_ip, dst_ip, tcp_total, ident, 64);
        match self.dev.write(&packet) {
            Ok(n) if n == packet.len() => self.sent += 1,
            _ => self.send_errors += 1,
        }
    }

    fn recv_into<M: Mem>(&mut self, m: &mut M, id: EndpointId) -> Option<Datagram> {
        self.drain_device(m);
        self.demux.pop(id).map(|(datagram, _)| datagram)
    }

    fn pending(&self, id: EndpointId) -> usize {
        self.demux.pending(id)
    }

    fn counters(&self) -> KernelCounters {
        KernelCounters {
            sent: self.sent,
            received: self.received,
            dropped: self.send_errors,
            corrupted: self.parse_errors,
            unroutable: self.unroutable,
            would_block: self.would_block,
            codec_rejects: self.parse_errors,
            queue_peak: self.demux.peak_queued() as u64,
            queue_capacity: SLOTS as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::NativeMem;
    use utcp::wire::{TcpFlags, TcpHeader};

    /// Open the device if the environment allows; skip silently
    /// otherwise (missing /dev/net/tun, or no CAP_NET_ADMIN).
    #[test]
    fn opens_and_sends_when_the_environment_allows() {
        if !std::path::Path::new("/dev/net/tun").exists() {
            eprintln!("skipping: /dev/net/tun not present");
            return;
        }
        let mut space = AddressSpace::new();
        let mut net = match TunBackend::open(&mut space, "ilp%d") {
            Ok(net) => net,
            Err(e) => {
                eprintln!("skipping: cannot open TUN device: {e}");
                return;
            }
        };
        assert!(!net.name().is_empty());
        let rx = net.register(9000);
        let user = space.alloc("user", 4096, 8);
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        TcpHeader::at(user.base).build(&mut m, 1000, 9000, 7, 0, TcpFlags::ACK, 256);
        // With the interface down the kernel may accept or refuse the
        // write; either way it is counted, and nothing panics.
        net.send(&mut m, 0x0A00_0001, 0x0A00_0002, 9000, user.base, user.base, 0);
        assert_eq!(net.sent + net.send_errors, 1);
        assert!(net.recv_into(&mut m, rx).is_none() || net.received > 0);
    }
}
