//! XDR primitive encoding/decoding over instrumented memory.
//!
//! Implements the RFC 1014 subset the file-transfer application needs:
//! unsigned/signed 32-bit integers, booleans, fixed and variable-length
//! opaque data (zero-padded to 4-byte alignment). All items occupy a
//! multiple of 4 bytes — XDR's defining property, and the reason the
//! paper treats marshalling as a 4-byte-unit data manipulation.
//!
//! This module is the **non-ILP** marshalling path: one read from the
//! source and one write to the destination buffer per word (step 1 in the
//! paper's Figure 3). The fusible streaming form lives in
//! [`crate::stream`].

use memsim::Mem;

/// Errors surfaced while decoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum XdrError {
    /// The decoder ran past the end of its window.
    Truncated {
        /// Bytes requested beyond the window.
        needed: usize,
    },
    /// A variable-length item declared a length above its bound.
    LengthOverBound {
        /// Declared length.
        got: u32,
        /// Schema bound.
        bound: u32,
    },
    /// Padding bytes were non-zero (RFC 1014 requires zero residue).
    BadPadding,
    /// A boolean held a value other than 0 or 1.
    BadBool(u32),
}

impl core::fmt::Display for XdrError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            XdrError::Truncated { needed } => write!(f, "XDR data truncated ({needed} bytes past end)"),
            XdrError::LengthOverBound { got, bound } => {
                write!(f, "XDR length {got} exceeds schema bound {bound}")
            }
            XdrError::BadPadding => write!(f, "non-zero XDR padding"),
            XdrError::BadBool(v) => write!(f, "invalid XDR boolean {v}"),
        }
    }
}

impl std::error::Error for XdrError {}

/// Round a byte count up to 4-byte alignment (XDR item granularity).
pub fn pad4(len: usize) -> usize {
    (len + 3) & !3
}

/// Sequential XDR encoder writing at a memory address.
#[derive(Debug)]
pub struct XdrEncoder<'m, M: Mem> {
    mem: &'m mut M,
    base: usize,
    cursor: usize,
}

impl<'m, M: Mem> XdrEncoder<'m, M> {
    /// Encode starting at `addr`.
    pub fn new(mem: &'m mut M, addr: usize) -> Self {
        XdrEncoder { mem, base: addr, cursor: addr }
    }

    /// Bytes written so far.
    pub fn written(&self) -> usize {
        self.cursor - self.base
    }

    /// Current write address.
    pub fn cursor(&self) -> usize {
        self.cursor
    }

    /// Encode a `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.mem.write_u32_be(self.cursor, v);
        self.mem.compute(1);
        self.cursor += 4;
    }

    /// Encode an `i32` (two's complement, RFC 1014 §3.1).
    pub fn put_i32(&mut self, v: i32) {
        self.put_u32(v as u32);
    }

    /// Encode a boolean as 0/1.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u32(u32::from(v));
    }

    /// Encode variable-length opaque data already resident in memory at
    /// `src`: length word, then the bytes word-wise, then zero padding.
    pub fn put_opaque_from(&mut self, src: usize, len: usize) {
        self.put_u32(len as u32);
        let words = len / 4;
        for i in 0..words {
            let w = self.mem.read_u32_be(src + 4 * i);
            self.mem.write_u32_be(self.cursor, w);
            self.mem.compute(1);
            self.cursor += 4;
        }
        let tail = len - words * 4;
        if tail > 0 {
            // Assemble the final word in a register: tail bytes + zeros.
            let mut w = 0u32;
            for i in 0..tail {
                let b = self.mem.read_u8(src + words * 4 + i);
                w |= u32::from(b) << (24 - 8 * i);
            }
            self.mem.compute(tail as u32);
            self.mem.write_u32_be(self.cursor, w);
            self.cursor += 4;
        }
    }

    /// Encode variable-length opaque data held in a host slice (small
    /// metadata like file names; charged as register-synthesised words).
    pub fn put_opaque_bytes(&mut self, bytes: &[u8]) {
        self.put_u32(bytes.len() as u32);
        for chunk in bytes.chunks(4) {
            let mut w = 0u32;
            for (i, &b) in chunk.iter().enumerate() {
                w |= u32::from(b) << (24 - 8 * i);
            }
            self.mem.compute(chunk.len() as u32);
            self.mem.write_u32_be(self.cursor, w);
            self.cursor += 4;
        }
    }
}

/// Sequential XDR decoder reading a bounded window of memory.
#[derive(Debug)]
pub struct XdrDecoder<'m, M: Mem> {
    mem: &'m mut M,
    base: usize,
    cursor: usize,
    end: usize,
}

impl<'m, M: Mem> XdrDecoder<'m, M> {
    /// Decode the `len` bytes starting at `addr`.
    pub fn new(mem: &'m mut M, addr: usize, len: usize) -> Self {
        XdrDecoder { mem, base: addr, cursor: addr, end: addr + len }
    }

    /// Bytes consumed so far.
    pub fn consumed(&self) -> usize {
        self.cursor - self.base
    }

    /// Bytes left in the window.
    pub fn remaining(&self) -> usize {
        self.end - self.cursor
    }

    fn need(&self, n: usize) -> Result<(), XdrError> {
        if self.cursor + n > self.end {
            Err(XdrError::Truncated { needed: self.cursor + n - self.end })
        } else {
            Ok(())
        }
    }

    /// Decode a `u32`.
    pub fn get_u32(&mut self) -> Result<u32, XdrError> {
        self.need(4)?;
        let v = self.mem.read_u32_be(self.cursor);
        self.mem.compute(1);
        self.cursor += 4;
        Ok(v)
    }

    /// Decode an `i32`.
    pub fn get_i32(&mut self) -> Result<i32, XdrError> {
        Ok(self.get_u32()? as i32)
    }

    /// Decode a boolean, rejecting values other than 0/1.
    pub fn get_bool(&mut self) -> Result<bool, XdrError> {
        match self.get_u32()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(XdrError::BadBool(v)),
        }
    }

    /// Decode variable-length opaque data into memory at `dst` (word-wise
    /// writes), enforcing `bound`. Returns the payload length. Padding
    /// must be zero.
    pub fn get_opaque_to(&mut self, dst: usize, bound: u32) -> Result<usize, XdrError> {
        let len = self.get_u32()?;
        if len > bound {
            return Err(XdrError::LengthOverBound { got: len, bound });
        }
        let len = len as usize;
        self.need(pad4(len))?;
        let words = len / 4;
        for i in 0..words {
            let w = self.mem.read_u32_be(self.cursor + 4 * i);
            self.mem.write_u32_be(dst + 4 * i, w);
            self.mem.compute(1);
        }
        let tail = len - words * 4;
        if tail > 0 {
            let w = self.mem.read_u32_be(self.cursor + 4 * words);
            for i in 0..4 {
                let b = (w >> (24 - 8 * i)) as u8;
                if i < tail {
                    self.mem.write_u8(dst + 4 * words + i, b);
                } else if b != 0 {
                    return Err(XdrError::BadPadding);
                }
            }
            self.mem.compute(4);
        }
        self.cursor += pad4(len);
        Ok(len)
    }

    /// Decode variable-length opaque data into a host buffer (small
    /// metadata).
    pub fn get_opaque_bytes(&mut self, bound: u32) -> Result<Vec<u8>, XdrError> {
        let len = self.get_u32()?;
        if len > bound {
            return Err(XdrError::LengthOverBound { got: len, bound });
        }
        let len = len as usize;
        self.need(pad4(len))?;
        let mut out = vec![0u8; len];
        let padded = pad4(len);
        for woff in (0..padded).step_by(4) {
            let w = self.mem.read_u32_be(self.cursor + woff);
            self.mem.compute(1);
            for i in 0..4 {
                let b = (w >> (24 - 8 * i)) as u8;
                let idx = woff + i;
                if idx < len {
                    out[idx] = b;
                } else if b != 0 {
                    return Err(XdrError::BadPadding);
                }
            }
        }
        self.cursor += padded;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::{AddressSpace, NativeMem};

    fn with_mem(f: impl FnOnce(&mut NativeMem<'_>, usize, usize)) {
        let mut space = AddressSpace::new();
        let wire = space.alloc("wire", 512, 8);
        let data = space.alloc("data", 256, 8);
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        f(&mut m, wire.base, data.base);
    }

    #[test]
    fn u32_roundtrip_and_wire_format() {
        with_mem(|m, wire, _| {
            let mut enc = XdrEncoder::new(m, wire);
            enc.put_u32(0x01020304);
            enc.put_i32(-2);
            enc.put_bool(true);
            assert_eq!(enc.written(), 12);
            assert_eq!(m.bytes(wire, 4), &[1, 2, 3, 4]); // big-endian on the wire
            let mut dec = XdrDecoder::new(m, wire, 12);
            assert_eq!(dec.get_u32().unwrap(), 0x01020304);
            assert_eq!(dec.get_i32().unwrap(), -2);
            assert!(dec.get_bool().unwrap());
            assert_eq!(dec.remaining(), 0);
        });
    }

    #[test]
    fn bad_bool_rejected() {
        with_mem(|m, wire, _| {
            XdrEncoder::new(m, wire).put_u32(7);
            let mut dec = XdrDecoder::new(m, wire, 4);
            assert_eq!(dec.get_bool(), Err(XdrError::BadBool(7)));
        });
    }

    #[test]
    fn truncation_detected() {
        with_mem(|m, wire, _| {
            let mut dec = XdrDecoder::new(m, wire, 2);
            assert!(matches!(dec.get_u32(), Err(XdrError::Truncated { .. })));
        });
    }

    #[test]
    fn opaque_memory_roundtrip_all_tail_lengths() {
        for len in [0usize, 1, 2, 3, 4, 5, 7, 8, 21, 64] {
            with_mem(|m, wire, data| {
                let payload: Vec<u8> = (0..len).map(|i| (i + 1) as u8).collect();
                m.bytes_mut(data, len.max(1))[..len].copy_from_slice(&payload);
                let mut enc = XdrEncoder::new(m, wire);
                enc.put_opaque_from(data, len);
                assert_eq!(enc.written(), 4 + pad4(len));
                let total = enc.written();
                let mut dec = XdrDecoder::new(m, wire, total);
                let out = data + 128;
                let got = dec.get_opaque_to(out, 128).unwrap();
                assert_eq!(got, len);
                assert_eq!(m.bytes(out, len.max(1))[..len], payload[..], "len {len}");
            });
        }
    }

    #[test]
    fn opaque_bytes_roundtrip() {
        with_mem(|m, wire, _| {
            let name = b"paper.ps";
            let mut enc = XdrEncoder::new(m, wire);
            enc.put_opaque_bytes(name);
            let total = enc.written();
            let mut dec = XdrDecoder::new(m, wire, total);
            assert_eq!(dec.get_opaque_bytes(64).unwrap(), name);
        });
    }

    #[test]
    fn length_over_bound_rejected() {
        with_mem(|m, wire, _| {
            let mut enc = XdrEncoder::new(m, wire);
            enc.put_opaque_bytes(&[0u8; 32]);
            let mut dec = XdrDecoder::new(m, wire, 36);
            assert_eq!(
                dec.get_opaque_bytes(16),
                Err(XdrError::LengthOverBound { got: 32, bound: 16 })
            );
        });
    }

    #[test]
    fn nonzero_padding_rejected() {
        with_mem(|m, wire, _| {
            let mut enc = XdrEncoder::new(m, wire);
            enc.put_opaque_bytes(&[1, 2, 3]); // one pad byte
            m.write_u8(wire + 7, 0xFF); // corrupt the pad byte
            let mut dec = XdrDecoder::new(m, wire, 8);
            assert_eq!(dec.get_opaque_bytes(16), Err(XdrError::BadPadding));
        });
    }

    /// The decoder over input we did not write: every truncation of a
    /// valid encoding, each under every single-bit flip, in a window
    /// that ends where the arena ends (one byte further is a `NativeMem`
    /// panic), and opaque length words up to `u32::MAX`. Every call
    /// returns, none reads past its window, and none allocates for a
    /// length it has not first bounded by the bytes present.
    #[test]
    fn decoder_never_panics_on_truncated_or_bit_flipped_input() {
        // u32 7, bool true, opaque "hello": 4 + 4 + (4 + 8) bytes.
        let valid: [u8; 20] =
            [0, 0, 0, 7, 0, 0, 0, 1, 0, 0, 0, 5, b'h', b'e', b'l', b'l', b'o', 0, 0, 0];
        let mut space = AddressSpace::new();
        let dst = space.alloc("dst", 64, 8);
        let wire = space.alloc("wire", valid.len(), 4);
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        // Lay `bytes` against the end of the arena and decode the three
        // items twice, once per opaque form. `bound` never exceeds `dst`.
        let mut decode = |bytes: &[u8], bound: u32| {
            let at = wire.end() - bytes.len();
            for (i, &b) in bytes.iter().enumerate() {
                m.write_u8(at + i, b);
            }
            let mut dec = XdrDecoder::new(&mut m, at, bytes.len());
            let head = (dec.get_u32(), dec.get_bool());
            let to_mem = dec.get_opaque_to(dst.base, bound);
            assert!(dec.consumed() <= bytes.len());
            let mut dec = XdrDecoder::new(&mut m, at, bytes.len());
            let _ = (dec.get_i32(), dec.get_bool());
            let to_host = dec.get_opaque_bytes(bound);
            assert!(dec.consumed() <= bytes.len());
            (head, to_mem, to_host)
        };

        let (head, to_mem, to_host) = decode(&valid, 64);
        assert_eq!(head, (Ok(7), Ok(true)));
        assert_eq!((to_mem, to_host), (Ok(5), Ok(b"hello".to_vec())));
        for cut in 0..=valid.len() {
            for bit in 0..8 * cut {
                let mut flipped = valid[..cut].to_vec();
                flipped[bit / 8] ^= 1 << (bit % 8);
                let (_, to_mem, to_host) = decode(&flipped, 64);
                assert_eq!(to_mem.is_ok(), to_host.is_ok(), "cut {cut} bit {bit}");
            }
            let (_, to_mem, to_host) = decode(&valid[..cut], 64);
            assert_eq!(to_mem.is_ok() && to_host.is_ok(), cut == valid.len(), "cut {cut}");
        }

        // A length word the schema does not bound is bounded by the
        // window: 8 payload bytes are present, so up to 8 decode and
        // everything above is `Truncated` — `u32::MAX` included, with no
        // 4 GiB buffer asked for on the way.
        for len in [0u32, 1, 4, 7, 8, 9, 64, 0x7FFF_FFFF, 0x8000_0000, u32::MAX - 3, u32::MAX] {
            let mut bytes = [0u8; 20];
            bytes[8..12].copy_from_slice(&len.to_be_bytes());
            let (_, to_mem, to_host) = decode(&bytes, u32::MAX);
            if len <= 8 {
                assert_eq!((to_mem, to_host), (Ok(len as usize), Ok(vec![0; len as usize])));
            } else {
                assert!(matches!(to_mem, Err(XdrError::Truncated { .. })), "{len}: {to_mem:?}");
                assert!(matches!(to_host, Err(XdrError::Truncated { .. })), "{len}: {to_host:?}");
            }
        }
    }

    #[test]
    fn pad4_values() {
        assert_eq!(pad4(0), 0);
        assert_eq!(pad4(1), 4);
        assert_eq!(pad4(4), 4);
        assert_eq!(pad4(5), 8);
        assert_eq!(pad4(21), 24);
    }

    #[test]
    fn marshalling_is_word_traffic() {
        use memsim::{HostModel, SimMem, SizeClass};
        let mut space = AddressSpace::new();
        let wire = space.alloc("wire", 512, 8);
        let data = space.alloc_kind("data", 256, 8, memsim::RegionKind::AppData);
        let mut m = SimMem::new(&space, &HostModel::ss10_30());
        let mut enc = XdrEncoder::new(&mut m, wire.base);
        enc.put_u32(1);
        enc.put_opaque_from(data.base, 64);
        let s = m.stats();
        // 64-byte payload: 16 word reads; writes: 1 scalar + 1 length + 16 payload.
        assert_eq!(s.reads.by_size(SizeClass::B4), 16);
        assert_eq!(s.writes.by_size(SizeClass::B4), 18);
        assert_eq!(s.reads.by_size(SizeClass::B1), 0);
    }
}
