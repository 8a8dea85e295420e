//! [`TunBackend`]: the kernel part over a Linux TUN device.
//!
//! Where [`crate::udp::UdpBackend`] wraps each datagram in a UDP frame,
//! a TUN device hands the kernel the raw IPv4 packet itself: the bytes
//! written to `/dev/net/tun` *are* the packet the kernel routes, and
//! reads return whole packets addressed to the interface. The packet is
//! the datagram [`Backend`] assembles in its staging region, IPv4 header
//! included, so [`Tun`] frames nothing and carries no trace tag.
//!
//! Exercising it end-to-end needs `/dev/net/tun`, `CAP_NET_ADMIN`, and
//! interface/route configuration that test environments rarely grant.
//! `cargo test` checks the `ifreq` the ioctl is handed; the smoke test
//! that opens the device creates a host interface, so it is `#[ignore]`d
//! and runs only when asked (`cargo test -p netback -- --ignored
//! opens_and_sends`; it skips where the device or the capability is
//! missing). The slot pool, drain and send it runs are [`Backend`]'s,
//! tested without a device in `link.rs`.
//!
//! The `unsafe` here is confined to two `extern "C"` declarations
//! (`ioctl` for `TUNSETIFF`, `fcntl` for `O_NONBLOCK`) because the
//! workspace is fully offline and carries no libc crate.

use crate::link::{Backend, Link};
use memsim::layout::AddressSpace;
use obs::SegTag;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::os::unix::io::AsRawFd;
use utcp::SLOT_LEN;

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

impl IfReq {
    /// The request for a TUN interface named `ifname` (a `%d` in it is
    /// the kernel's to fill), without packet-information prefix.
    fn tun(ifname: &str) -> io::Result<Self> {
        let mut req = IfReq { name: [0; 16], flags: IFF_TUN | IFF_NO_PI, _pad: [0; 22] };
        let bytes = ifname.as_bytes();
        if bytes.len() >= req.name.len() {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "interface name too long"));
        }
        req.name[..bytes.len()].copy_from_slice(bytes);
        Ok(req)
    }
}

extern "C" {
    fn ioctl(fd: i32, request: u64, arg: *mut IfReq) -> i32;
    fn fcntl(fd: i32, cmd: i32, arg: i32) -> i32;
}

/// The kernel part over a TUN device.
pub type TunBackend = Backend<Tun>;

/// The [`Link`] of a [`TunBackend`]: the non-blocking device descriptor.
#[derive(Debug)]
pub struct Tun {
    dev: File,
    /// Interface name the kernel actually assigned.
    name: String,
    /// The last packet read: one kernel slot.
    buf: Vec<u8>,
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
        let mut req = IfReq::tun(ifname)?;
        let dev = OpenOptions::new().read(true).write(true).open("/dev/net/tun")?;
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
        Ok(Backend::new(space, Tun { dev, name, buf: vec![0; SLOT_LEN] }))
    }

    /// The interface name the kernel assigned (e.g. `ilp0`).
    pub fn name(&self) -> &str {
        &self.link.name
    }
}

impl Link for Tun {
    fn frame_len(&self, len: usize, _: Option<SegTag>) -> usize {
        len
    }

    fn frame(&self, train: &mut Vec<u8>, len: usize, _: Option<SegTag>, fill: impl FnOnce(&mut [u8])) {
        let at = train.len();
        train.resize(at + len, 0);
        fill(&mut train[at..]);
    }

    /// No offload: one write per frame.
    fn send(&mut self, train: &[u8], frame_len: usize) -> usize {
        train.chunks(frame_len).filter(|frame| matches!(self.dev.write(frame), Ok(n) if n == frame.len())).count()
    }

    fn recv(&mut self) -> io::Result<Option<(&[u8], Option<SegTag>)>> {
        match self.dev.read(&mut self.buf)? {
            0 => Err(io::ErrorKind::UnexpectedEof.into()),
            n => Ok(Some((&self.buf[..n], None))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::NativeMem;
    use utcp::KernelPart;
    use utcp::wire::{TcpFlags, TcpHeader};

    /// What `TUNSETIFF` reads: the kernel's 40-byte `ifreq`, the name
    /// NUL-terminated in its 16 bytes, TUN without packet information,
    /// and the request number `_IOW('T', 202, int)`.
    #[test]
    fn the_tunsetiff_request_is_the_kernels_ifreq() {
        assert_eq!(std::mem::size_of::<IfReq>(), 40);
        assert_eq!(TUNSETIFF, 1 << 30 | (std::mem::size_of::<i32>() as u64) << 16 | u64::from(b'T') << 8 | 202);
        let req = IfReq::tun("ilp%d").unwrap();
        assert_eq!(&req.name[..6], b"ilp%d\0");
        assert_eq!(req.flags, 0x1001);
        assert!(IfReq::tun("fifteen-bytes-x").is_ok());
        let long = IfReq::tun("sixteen-bytes-xx").err().expect("no room for the NUL");
        assert_eq!(long.kind(), io::ErrorKind::InvalidInput);
    }

    /// Open the device if the environment allows; skip silently
    /// otherwise (missing /dev/net/tun, or no CAP_NET_ADMIN). Where it
    /// is allowed this creates a transient `ilp%d` interface on the
    /// host, hence run only when asked.
    #[test]
    #[ignore = "creates a host TUN interface"]
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
        let c = net.counters();
        assert_eq!(c.sent + c.dropped, 1);
        assert!(net.recv_into(&mut m, rx).is_none() || net.counters().received > 0);
    }
}
