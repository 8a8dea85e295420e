//! The three socket calls `std` does not wrap, for UDP segmentation
//! offload (Linux ≥ 5.0): `setsockopt` turns `UDP_GRO` on, `sendmsg`
//! hands the kernel a train of equal frames under one `UDP_SEGMENT`
//! control message, and `recvmsg` reads a train back with the segment
//! size the kernel reports beside it. One pass through the kernel's IP
//! and UDP path then serves a whole burst.
//!
//! This is the crate's one module with `unsafe` code besides the TUN
//! device's: three `extern "C"` declarations (no libc crate in this
//! offline workspace) and the receive buffer's `set_len`. What the
//! kernel writes back — the control messages and the source address —
//! is parsed by safe pure functions over bytes.

use std::ffi::c_void;
use std::io;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, SocketAddrV4, SocketAddrV6, UdpSocket};
use std::os::fd::AsRawFd;

/// `SOL_UDP`: the level of the two options (the UDP protocol number).
const SOL_UDP: i32 = 17;
/// Send-side segmentation offload: the control message's `u16` is the
/// size the kernel cuts the buffer into.
const UDP_SEGMENT: i32 = 103;
/// Receive-side coalescing: the socket option, and the control message
/// whose `i32` is the size of the coalesced segments.
const UDP_GRO: i32 = 104;
/// `msg_flags`: the datagram was longer than the buffer.
const MSG_TRUNC: i32 = 0x20;
const AF_INET: u16 = 2;
const AF_INET6: u16 = 10;
/// `sizeof(struct cmsghdr)`; control-message data starts here, and each
/// message is padded to a multiple of the word size.
const CMSG_HDR: usize = size_of::<CmsgHdr>();
const WORD: usize = size_of::<usize>();

/// `struct iovec`.
#[repr(C)]
struct IoVec {
    base: *mut c_void,
    len: usize,
}

/// `struct msghdr` as glibc lays it out.
#[repr(C)]
struct MsgHdr {
    name: *mut c_void,
    name_len: u32,
    iov: *mut IoVec,
    iov_len: usize,
    control: *mut c_void,
    control_len: usize,
    flags: i32,
}

/// `struct cmsghdr`.
#[repr(C)]
struct CmsgHdr {
    len: usize,
    level: i32,
    kind: i32,
}

/// A control-message buffer with `cmsghdr`'s alignment.
#[repr(C, align(8))]
struct Control([u8; 64]);

extern "C" {
    fn setsockopt(fd: i32, level: i32, name: i32, value: *const c_void, len: u32) -> i32;
    fn sendmsg(fd: i32, msg: *const MsgHdr, flags: i32) -> isize;
    fn recvmsg(fd: i32, msg: *mut MsgHdr, flags: i32) -> isize;
}

/// Turn receive-side coalescing on: from now on one read may return a
/// train of equal datagrams, with their size in a control message.
///
/// # Errors
/// The option's error: a kernel without `UDP_GRO` refuses it.
pub(crate) fn enable_gro(socket: &UdpSocket) -> io::Result<()> {
    let on: i32 = 1;
    // SAFETY: `on` is a live `i32` and the length passed is its size;
    // the kernel only reads it.
    let rc = unsafe {
        setsockopt(socket.as_raw_fd(), SOL_UDP, UDP_GRO, (&raw const on).cast(), size_of::<i32>() as u32)
    };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// Send `train` — frames of `seg` bytes back to back, the last one
/// possibly shorter — to the socket's connected peer in one call. A
/// train longer than one frame carries `UDP_SEGMENT`, so the kernel
/// builds one datagram per frame.
///
/// # Errors
/// The call's error.
pub(crate) fn send_train(socket: &UdpSocket, train: &[u8], seg: usize) -> io::Result<()> {
    let mut iov = IoVec { base: train.as_ptr().cast_mut().cast(), len: train.len() };
    let mut control = Control([0; 64]);
    let mut msg = MsgHdr {
        name: std::ptr::null_mut(),
        name_len: 0,
        iov: &raw mut iov,
        iov_len: 1,
        control: std::ptr::null_mut(),
        control_len: 0,
        flags: 0,
    };
    if train.len() > seg {
        let size = u16::try_from(seg).map_err(|_| io::Error::from(io::ErrorKind::InvalidInput))?;
        msg.control_len = put_cmsg(&mut control.0, UDP_SEGMENT, &size.to_ne_bytes());
        msg.control = control.0.as_mut_ptr().cast();
    }
    // SAFETY: `msg` points at `iov`, which spans `train`, and at
    // `control`, whose first `control_len` bytes hold one control
    // message; all three outlive the call, and the kernel only reads
    // them for a send.
    let n = unsafe { sendmsg(socket.as_raw_fd(), &raw const msg, 0) };
    if n < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// What one [`recv_train`] read.
#[derive(Debug)]
pub(crate) struct Read {
    /// Bytes of each datagram in the train (the last may be shorter);
    /// the whole read when the kernel coalesced nothing.
    pub seg: usize,
    /// The sender, when the caller asked for it.
    pub from: Option<SocketAddr>,
    /// The read did not fit the buffer; its bytes are not a train.
    pub truncated: bool,
}

/// Read one train into `buf`, up to its capacity: `buf`'s length is
/// what the call returned. With `want_from` the sender's address is
/// read too (an unconnected socket).
///
/// # Errors
/// The call's error: `WouldBlock` once a non-blocking socket is empty.
/// `buf` is left as it was.
pub(crate) fn recv_train(socket: &UdpSocket, buf: &mut Vec<u8>, want_from: bool) -> io::Result<Read> {
    let mut iov = IoVec { base: buf.as_mut_ptr().cast(), len: buf.capacity() };
    let mut control = Control([0; 64]);
    let mut name = [0u8; 128];
    let mut msg = MsgHdr {
        name: if want_from { name.as_mut_ptr().cast() } else { std::ptr::null_mut() },
        name_len: if want_from { name.len() as u32 } else { 0 },
        iov: &raw mut iov,
        iov_len: 1,
        control: control.0.as_mut_ptr().cast(),
        control_len: control.0.len(),
        flags: 0,
    };
    // SAFETY: `msg` points at `iov`, which spans `buf`'s capacity,
    // at `name` and at `control`, each with its true length; all of them
    // outlive the call, and the kernel writes within those lengths only.
    let n = unsafe { recvmsg(socket.as_raw_fd(), &raw mut msg, 0) };
    let Ok(n) = usize::try_from(n) else {
        return Err(io::Error::last_os_error());
    };
    let n = n.min(buf.capacity());
    // SAFETY: the kernel wrote the first `n` bytes of the buffer (it
    // returns how many it copied, never more than the iovec's length).
    unsafe { buf.set_len(n) };
    let control_len = msg.control_len.min(control.0.len());
    let name_len = (msg.name_len as usize).min(name.len());
    Ok(Read {
        seg: gro_size(&control.0[..control_len]).unwrap_or(n),
        from: if want_from { sockaddr(&name[..name_len]) } else { None },
        truncated: msg.flags & MSG_TRUNC != 0,
    })
}

/// Write one control message of `level` `SOL_UDP` into `buf` and
/// return the bytes it takes, padding included.
fn put_cmsg(buf: &mut [u8], kind: i32, data: &[u8]) -> usize {
    let len = CMSG_HDR + data.len();
    buf[..WORD].copy_from_slice(&len.to_ne_bytes());
    buf[WORD..WORD + 4].copy_from_slice(&SOL_UDP.to_ne_bytes());
    buf[WORD + 4..WORD + 8].copy_from_slice(&kind.to_ne_bytes());
    buf[CMSG_HDR..len].copy_from_slice(data);
    len.next_multiple_of(WORD)
}

/// The segment size in a `UDP_GRO` control message among `control`'s,
/// if one is there and says more than 0. Any bytes at all: a message
/// that runs past the buffer or claims less than its header ends the
/// walk.
pub(crate) fn gro_size(control: &[u8]) -> Option<usize> {
    let mut rest = control;
    while rest.len() >= CMSG_HDR {
        let len = usize::from_ne_bytes(rest[..WORD].try_into().ok()?);
        let level = i32::from_ne_bytes(rest[WORD..WORD + 4].try_into().ok()?);
        let kind = i32::from_ne_bytes(rest[WORD + 4..WORD + 8].try_into().ok()?);
        if len < CMSG_HDR || len > rest.len() {
            return None;
        }
        if level == SOL_UDP && kind == UDP_GRO && len >= CMSG_HDR + 4 {
            let size = i32::from_ne_bytes(rest[CMSG_HDR..CMSG_HDR + 4].try_into().ok()?);
            return usize::try_from(size).ok().filter(|&s| s > 0);
        }
        rest = rest.get(len.next_multiple_of(WORD)..)?;
    }
    None
}

/// The address in a `sockaddr_in` / `sockaddr_in6`, or `None` for any
/// other family or a short buffer.
fn sockaddr(name: &[u8]) -> Option<SocketAddr> {
    let family = u16::from_ne_bytes(name.get(..2)?.try_into().ok()?);
    let port = u16::from_be_bytes(name.get(2..4)?.try_into().ok()?);
    match family {
        AF_INET => {
            let ip: [u8; 4] = name.get(4..8)?.try_into().ok()?;
            Some(SocketAddrV4::new(Ipv4Addr::from(ip), port).into())
        }
        AF_INET6 => {
            let flow = u32::from_be_bytes(name.get(4..8)?.try_into().ok()?);
            let ip: [u8; 16] = name.get(8..24)?.try_into().ok()?;
            let scope = u32::from_ne_bytes(name.get(24..28)?.try_into().ok()?);
            Some(SocketAddrV6::new(Ipv6Addr::from(ip), port, flow, scope).into())
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_segment_message_reads_back_as_the_size_it_carries() {
        let mut buf = [0u8; 64];
        let used = put_cmsg(&mut buf, UDP_GRO, &334i32.to_ne_bytes());
        assert_eq!(used, CMSG_HDR + WORD);
        assert_eq!(gro_size(&buf[..used]), Some(334));
        // Behind another message, and not when the kind or level differs.
        let mut two = [0u8; 64];
        let first = put_cmsg(&mut two, UDP_SEGMENT, &7u16.to_ne_bytes());
        let second = put_cmsg(&mut two[first..], UDP_GRO, &96i32.to_ne_bytes());
        assert_eq!(gro_size(&two[..first + second]), Some(96));
        assert_eq!(gro_size(&two[..first]), None);
        assert_eq!(gro_size(&buf[..CMSG_HDR + 3]), None, "a message that runs past the buffer");
        assert_eq!(gro_size(&[]), None);
    }

    #[test]
    fn the_control_message_parser_never_panics_on_arbitrary_bytes() {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut found = 0;
        for _ in 0..200_000 {
            let len = next() as usize % 65;
            let mut bytes: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            // Steer a share of the inputs to plausible headers, so the
            // walk goes past its first message.
            if len >= CMSG_HDR && next() % 2 == 0 {
                let claimed = next() as usize % (len + 8);
                bytes[..WORD].copy_from_slice(&claimed.to_ne_bytes());
                bytes[WORD..WORD + 4].copy_from_slice(&SOL_UDP.to_ne_bytes());
                if next() % 2 == 0 {
                    bytes[WORD + 4..WORD + 8].copy_from_slice(&UDP_GRO.to_ne_bytes());
                }
            }
            if let Some(size) = gro_size(&bytes) {
                assert!(size > 0);
                found += 1;
            }
            let _ = sockaddr(&bytes);
        }
        assert!(found > 0, "the steered inputs reach the size");
    }

    #[test]
    fn socket_addresses_parse_from_their_kernel_layout() {
        let mut v4 = [0u8; 16];
        v4[..2].copy_from_slice(&AF_INET.to_ne_bytes());
        v4[2..4].copy_from_slice(&4242u16.to_be_bytes());
        v4[4..8].copy_from_slice(&[127, 0, 0, 1]);
        assert_eq!(sockaddr(&v4), Some("127.0.0.1:4242".parse().unwrap()));
        assert_eq!(sockaddr(&v4[..7]), None);
        let mut v6 = [0u8; 28];
        v6[..2].copy_from_slice(&AF_INET6.to_ne_bytes());
        v6[2..4].copy_from_slice(&80u16.to_be_bytes());
        v6[23] = 1;
        assert_eq!(sockaddr(&v6), Some("[::1]:80".parse().unwrap()));
        assert_eq!(sockaddr(&[0; 16]), None, "AF_UNSPEC");
    }
}
