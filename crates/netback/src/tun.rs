//! [`TunBackend`]: the kernel part over a Linux TUN device (feature
//! `tun`, off by default).
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
//! The smoke test opens the device when it exists and silently skips
//! otherwise; the slot pool, drain and send it runs are [`Backend`]'s,
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

/// The kernel part over a TUN device.
pub type TunBackend = Backend<Tun>;

/// The [`Link`] of a [`TunBackend`]: the non-blocking device descriptor.
#[derive(Debug)]
pub struct Tun {
    dev: File,
    /// Interface name the kernel actually assigned.
    name: String,
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
        Ok(Backend::new(space, Tun { dev, name }))
    }

    /// The interface name the kernel assigned (e.g. `ilp0`).
    pub fn name(&self) -> &str {
        &self.link.name
    }
}

impl Link for Tun {
    fn send(&mut self, frame: &mut Vec<u8>, len: usize, _: Option<SegTag>, fill: impl FnOnce(&mut [u8]))
        -> io::Result<()> {
        frame.clear();
        frame.resize(len, 0);
        fill(frame);
        match self.dev.write(frame)? {
            n if n == len => Ok(()),
            _ => Err(io::ErrorKind::WriteZero.into()),
        }
    }

    fn recv<'b>(&mut self, buf: &'b mut [u8]) -> io::Result<Option<(&'b [u8], Option<SegTag>)>> {
        match self.dev.read(buf)? {
            0 => Err(io::ErrorKind::UnexpectedEof.into()),
            n => Ok(Some((&buf[..n], None))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::NativeMem;
    use utcp::KernelPart;
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
        let c = net.counters();
        assert_eq!(c.sent + c.dropped, 1);
        assert!(net.recv_into(&mut m, rx).is_none() || net.counters().received > 0);
    }
}
