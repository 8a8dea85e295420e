//! The UDP wire frame: an explicit, length-checked envelope around one
//! utcp datagram.
//!
//! A UDP socket already delimits datagrams, but trusting the transport
//! to describe the payload is how parsers end up reading garbage: a
//! stray datagram from another program, a truncated read, or a buggy
//! peer must all surface as a *typed* decode error, never as a panic or
//! a mis-parsed segment handed to TCP. So every frame carries its own
//! magic, version, kind, and inner length, and [`decode`] cross-checks
//! the declared length against the bytes actually present.
//!
//! ```text
//! 0        2      3      4          6
//! +--------+------+------+----------+----------------- - - -
//! | magic  | ver  | kind | len (BE) | inner: IPv4+TCP+payload
//! +--------+------+------+----------+----------------- - - -
//! ```
//!
//! `inner` is byte-for-byte the datagram the loop-back would carry —
//! IPv4 header, TCP header, payload — so the receiving side's
//! validation path ([`utcp::Connection::poll_input`]) is identical over
//! both backends.
//!
//! A [`KIND_TRACED`] frame additionally carries a 10-byte segment-trace
//! tag **between the envelope header and the inner datagram** — the
//! out-of-band context channel of `obs::segtrace` across real OS
//! processes. The inner bytes are untouched either way: a traced run
//! and an untraced run put byte-identical TPDUs on the wire, only the
//! envelope differs.

use obs::SegTag;
use std::fmt;

/// Frame magic: "IL" — rejects datagrams from unrelated programs fast.
pub const MAGIC: [u8; 2] = *b"IL";
/// Codec version; bumped on any layout change.
pub const VERSION: u8 = 1;
/// Frame kind: a utcp datagram (the original kind; the field keeps
/// control frames representable without a version bump).
pub const KIND_SEGMENT: u8 = 1;
/// Frame kind: a utcp datagram preceded by a [`TAG_LEN`]-byte
/// segment-trace tag (connection id `u32` BE, chunk `u32` BE,
/// transmission ordinal `u16` BE).
pub const KIND_TRACED: u8 = 2;
/// Envelope bytes preceding the inner datagram.
pub const HEADER_LEN: usize = 6;
/// Trace-tag bytes in a [`KIND_TRACED`] frame.
pub const TAG_LEN: usize = 10;
/// Largest inner datagram accepted: the loop-back's kernel slot size /
/// link MTU. Anything larger could not have come from this stack.
pub const MAX_INNER: usize = 2048;
/// Smallest inner datagram: one IPv4 header + one TCP header (a pure
/// ACK). Shorter frames cannot be parsed as a segment.
pub const MIN_INNER: usize = utcp::ip::IP_HEADER_LEN + utcp::wire::TCP_HEADER_LEN;

/// Why a frame failed to decode. Every variant is a normal return —
/// decoding arbitrary bytes never panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// Fewer bytes than the fixed envelope.
    Truncated {
        /// Bytes actually available.
        got: usize,
    },
    /// First two bytes are not [`MAGIC`].
    BadMagic {
        /// The bytes found instead.
        got: [u8; 2],
    },
    /// Version byte differs from [`VERSION`].
    BadVersion {
        /// The version found.
        got: u8,
    },
    /// Unknown frame kind.
    BadKind {
        /// The kind found.
        got: u8,
    },
    /// Declared inner length disagrees with the bytes present (UDP
    /// delivers whole datagrams, so any mismatch means truncation in a
    /// buffer, a short read, or trailing garbage).
    LengthMismatch {
        /// Length the header declared.
        declared: usize,
        /// Inner bytes actually present.
        actual: usize,
    },
    /// Declared length exceeds [`MAX_INNER`].
    Oversized {
        /// Length the header declared.
        declared: usize,
        /// The accepted maximum.
        max: usize,
    },
    /// Declared length below [`MIN_INNER`] — too short to hold the
    /// IPv4 + TCP headers.
    Runt {
        /// Length the header declared.
        len: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            CodecError::Truncated { got } => {
                write!(f, "frame truncated: {got} bytes, need at least {HEADER_LEN}")
            }
            CodecError::BadMagic { got } => write!(f, "bad magic {got:02x?}"),
            CodecError::BadVersion { got } => write!(f, "unsupported codec version {got}"),
            CodecError::BadKind { got } => write!(f, "unknown frame kind {got}"),
            CodecError::LengthMismatch { declared, actual } => {
                write!(f, "declared {declared} inner bytes but {actual} present")
            }
            CodecError::Oversized { declared, max } => {
                write!(f, "declared {declared} inner bytes exceeds max {max}")
            }
            CodecError::Runt { len } => {
                write!(f, "declared {len} inner bytes, below minimum {MIN_INNER}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Wrap one utcp datagram in a frame.
///
/// # Errors
/// [`CodecError::Oversized`] / [`CodecError::Runt`] when `inner` is
/// outside the representable segment sizes — the encoder enforces the
/// same bounds the decoder does, so every encoded frame round-trips.
pub fn encode(inner: &[u8]) -> Result<Vec<u8>, CodecError> {
    encode_frame(inner, None)
}

/// Wrap one utcp datagram with an out-of-band segment-trace tag (a
/// [`KIND_TRACED`] frame).
///
/// # Errors
/// Same bounds as [`encode`].
pub fn encode_traced(inner: &[u8], tag: SegTag) -> Result<Vec<u8>, CodecError> {
    encode_frame(inner, Some(tag))
}

fn encode_frame(inner: &[u8], tag: Option<SegTag>) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::with_capacity(HEADER_LEN + TAG_LEN + inner.len().min(MAX_INNER));
    encode_into(&mut out, inner.len(), tag, |dst| dst.copy_from_slice(inner))?;
    Ok(out)
}

/// Build a frame in `frame` (cleared first, its capacity reused): the
/// envelope, the tag if any, then `inner_len` bytes that `fill` writes
/// in place — the allocation-free form of [`encode`] /
/// [`encode_traced`] for a sender that keeps one frame buffer and has
/// its datagram somewhere other than a slice.
///
/// # Errors
/// Same bounds as [`encode`], checked before `frame` or `fill` is
/// touched.
pub fn encode_into(
    frame: &mut Vec<u8>,
    inner_len: usize,
    tag: Option<SegTag>,
    fill: impl FnOnce(&mut [u8]),
) -> Result<(), CodecError> {
    if inner_len > MAX_INNER {
        return Err(CodecError::Oversized { declared: inner_len, max: MAX_INNER });
    }
    if inner_len < MIN_INNER {
        return Err(CodecError::Runt { len: inner_len });
    }
    frame.clear();
    frame.extend_from_slice(&MAGIC);
    frame.push(VERSION);
    frame.push(if tag.is_some() { KIND_TRACED } else { KIND_SEGMENT });
    frame.extend_from_slice(&(inner_len as u16).to_be_bytes());
    if let Some(t) = tag {
        frame.extend_from_slice(&t.conn.to_be_bytes());
        frame.extend_from_slice(&t.chunk.to_be_bytes());
        frame.extend_from_slice(&t.xmit.to_be_bytes());
    }
    let preamble = frame.len();
    frame.resize(preamble + inner_len, 0);
    fill(&mut frame[preamble..]);
    Ok(())
}

/// Validate a frame and return the inner datagram bytes (either kind;
/// a traced frame's tag is dropped — see [`decode_frame`]).
///
/// # Errors
/// A [`CodecError`] describing the first check that failed; arbitrary
/// input never panics (see the fuzz tests below).
pub fn decode(frame: &[u8]) -> Result<&[u8], CodecError> {
    decode_frame(frame).map(|(inner, _)| inner)
}

/// Validate a frame and return the inner datagram bytes plus the
/// segment-trace tag a [`KIND_TRACED`] frame carried.
///
/// # Errors
/// A [`CodecError`] describing the first check that failed; arbitrary
/// input never panics (see the fuzz tests below).
pub fn decode_frame(frame: &[u8]) -> Result<(&[u8], Option<SegTag>), CodecError> {
    if frame.len() < HEADER_LEN {
        return Err(CodecError::Truncated { got: frame.len() });
    }
    if frame[0..2] != MAGIC {
        return Err(CodecError::BadMagic { got: [frame[0], frame[1]] });
    }
    if frame[2] != VERSION {
        return Err(CodecError::BadVersion { got: frame[2] });
    }
    let traced = match frame[3] {
        KIND_SEGMENT => false,
        KIND_TRACED => true,
        other => return Err(CodecError::BadKind { got: other }),
    };
    let declared = u16::from_be_bytes([frame[4], frame[5]]) as usize;
    if declared > MAX_INNER {
        return Err(CodecError::Oversized { declared, max: MAX_INNER });
    }
    if declared < MIN_INNER {
        return Err(CodecError::Runt { len: declared });
    }
    let preamble = HEADER_LEN + if traced { TAG_LEN } else { 0 };
    let actual = frame.len().saturating_sub(preamble);
    if frame.len() < preamble || declared != actual {
        return Err(CodecError::LengthMismatch { declared, actual });
    }
    let tag = traced.then(|| SegTag {
        conn: u32::from_be_bytes([frame[6], frame[7], frame[8], frame[9]]),
        chunk: u32::from_be_bytes([frame[10], frame[11], frame[12], frame[13]]),
        xmit: u16::from_be_bytes([frame[14], frame[15]]),
    });
    Ok((&frame[preamble..], tag))
}

#[cfg(test)]
mod tests {
    use super::*;
    use utcp::rng::XorShift64;

    fn valid_inner(len: usize, fill: u8) -> Vec<u8> {
        vec![fill; len]
    }

    #[test]
    fn roundtrip_across_the_size_range() {
        for len in [MIN_INNER, 64, 577, 1536, MAX_INNER] {
            let inner = valid_inner(len, (len % 251) as u8);
            let frame = encode(&inner).unwrap();
            assert_eq!(frame.len(), HEADER_LEN + len);
            assert_eq!(decode(&frame).unwrap(), &inner[..]);
            assert_eq!(decode_frame(&frame).unwrap(), (&inner[..], None));
        }
    }

    #[test]
    fn traced_frames_roundtrip_tag_and_leave_inner_untouched() {
        let tag = SegTag { conn: 0xDEAD_BEEF, chunk: 41, xmit: 3 };
        for len in [MIN_INNER, 577, MAX_INNER] {
            let inner = valid_inner(len, (len % 193) as u8);
            let plain = encode(&inner).unwrap();
            let traced = encode_traced(&inner, tag).unwrap();
            assert_eq!(traced.len(), plain.len() + TAG_LEN);
            let (got, got_tag) = decode_frame(&traced).unwrap();
            assert_eq!(got, &inner[..]);
            assert_eq!(got_tag, Some(tag));
            // The tag rides in the envelope only: inner bytes of the
            // traced and untraced frames are byte-identical.
            assert_eq!(&traced[HEADER_LEN + TAG_LEN..], &plain[HEADER_LEN..]);
            // The tag-agnostic decoder accepts the traced frame too.
            assert_eq!(decode(&traced).unwrap(), &inner[..]);
        }
    }

    #[test]
    fn traced_frame_with_missing_tag_bytes_is_a_length_mismatch() {
        let inner = valid_inner(64, 9);
        let traced = encode_traced(&inner, SegTag { conn: 1, chunk: 2, xmit: 0 }).unwrap();
        // Cut inside the tag area: shorter than header + tag.
        for cut in HEADER_LEN..HEADER_LEN + TAG_LEN {
            assert!(decode_frame(&traced[..cut]).is_err(), "cut at {cut} decoded Ok");
        }
    }

    #[test]
    fn encoder_enforces_decoder_bounds() {
        assert!(matches!(encode(&[0u8; MIN_INNER - 1]), Err(CodecError::Runt { .. })));
        assert!(matches!(encode(&[0u8; MAX_INNER + 1]), Err(CodecError::Oversized { .. })));
        // The in-place form refuses before it touches the buffer or
        // asks for a single byte.
        let mut frame = vec![0xAB; 7];
        for len in [0, MIN_INNER - 1, MAX_INNER + 1, usize::MAX] {
            assert!(encode_into(&mut frame, len, None, |_| panic!("fill called")).is_err());
            assert_eq!(frame, [0xAB; 7]);
        }
    }

    /// One reused frame buffer, random sizes and tags: every frame
    /// [`encode_into`] builds is the frame [`encode`] /
    /// [`encode_traced`] would have allocated, it round-trips, and the
    /// buffer never regrows once it has held the largest frame.
    #[test]
    fn encode_into_reuses_one_buffer_and_matches_the_allocating_encoders() {
        let mut rng = XorShift64::new(0x1270);
        let mut frame = Vec::with_capacity(HEADER_LEN + TAG_LEN + MAX_INNER);
        let at = frame.as_ptr();
        for round in 0..5_000u32 {
            let len = MIN_INNER + rng.below((MAX_INNER - MIN_INNER) as u64 + 1) as usize;
            let inner: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let tag = (round % 2 == 1).then_some(SegTag { conn: round, chunk: round ^ 7, xmit: 1 });
            encode_into(&mut frame, len, tag, |dst| dst.copy_from_slice(&inner)).unwrap();
            let reference = match tag {
                Some(tag) => encode_traced(&inner, tag),
                None => encode(&inner),
            };
            assert_eq!(frame, reference.unwrap());
            assert_eq!(decode_frame(&frame).unwrap(), (&inner[..], tag));
            assert_eq!(frame.as_ptr(), at, "round {round}: the frame buffer moved");
        }
    }

    #[test]
    fn each_header_field_is_checked() {
        let frame = encode(&valid_inner(64, 7)).unwrap();
        let mut bad = frame.clone();
        bad[0] = b'X';
        assert!(matches!(decode(&bad), Err(CodecError::BadMagic { .. })));
        let mut bad = frame.clone();
        bad[2] = VERSION + 1;
        assert_eq!(decode(&bad), Err(CodecError::BadVersion { got: VERSION + 1 }));
        let mut bad = frame.clone();
        bad[3] = 9;
        assert_eq!(decode(&bad), Err(CodecError::BadKind { got: 9 }));
        let mut bad = frame.clone();
        bad[5] = 65; // declare 65 inner bytes; 64 present
        assert_eq!(decode(&bad), Err(CodecError::LengthMismatch { declared: 65, actual: 64 }));
        let mut bad = frame.clone();
        bad[4] = 0x08; // declare 0x0840 = 2112 bytes, past MAX_INNER
        assert!(matches!(decode(&bad), Err(CodecError::Oversized { .. })));
        assert!(matches!(decode(&frame[..3]), Err(CodecError::Truncated { got: 3 })));
    }

    /// Fuzz: random byte strings must decode to Ok or a typed error,
    /// never panic — and the only way random bytes decode Ok is by
    /// actually carrying the magic/version/kind/length prefix.
    #[test]
    fn fuzz_random_bytes_never_panic() {
        let mut rng = XorShift64::new(0xC0DEC);
        for _ in 0..20_000 {
            let len = rng.below(HEADER_LEN as u64 + TAG_LEN as u64 + MAX_INNER as u64 + 64) as usize;
            let buf: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            if let Ok((inner, tag)) = decode_frame(&buf) {
                assert_eq!(&buf[0..2], &MAGIC);
                let preamble = HEADER_LEN + if tag.is_some() { TAG_LEN } else { 0 };
                assert_eq!(inner.len(), buf.len() - preamble);
            }
        }
    }

    /// Fuzz: cutting a valid frame anywhere (or appending garbage)
    /// must produce an error, never a mis-sized Ok.
    #[test]
    fn fuzz_random_cuts_of_valid_frames_error() {
        let mut rng = XorShift64::new(0xA11CE);
        for round in 0..5_000u32 {
            let len = MIN_INNER + rng.below((MAX_INNER - MIN_INNER) as u64 + 1) as usize;
            let inner: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let frame = if round % 2 == 0 {
                encode(&inner).unwrap()
            } else {
                encode_traced(&inner, SegTag { conn: round, chunk: round ^ 7, xmit: 1 }).unwrap()
            };
            // Random cut strictly inside the frame.
            let cut = rng.below(frame.len() as u64) as usize;
            match decode_frame(&frame[..cut]) {
                Err(_) => {}
                Ok(_) => panic!("cut frame ({cut}/{} bytes) decoded Ok", frame.len()),
            }
            // Trailing garbage must be caught by the length cross-check.
            let mut padded = frame.clone();
            padded.extend_from_slice(&[0xEE; 3]);
            assert!(matches!(decode_frame(&padded), Err(CodecError::LengthMismatch { .. })));
        }
    }

    /// Fuzz: flipping one bit of a valid frame (either kind) either
    /// still decodes (payload or tag byte) or yields a typed error
    /// (header byte) — no panic.
    #[test]
    fn fuzz_single_byte_corruption_never_panics() {
        let mut rng = XorShift64::new(0xF11B);
        let inner: Vec<u8> = (0..512).map(|i| i as u8).collect();
        let frames = [
            encode(&inner).unwrap(),
            encode_traced(&inner, SegTag { conn: 3, chunk: 9, xmit: 0 }).unwrap(),
        ];
        for round in 0..10_000 {
            let mut dam = frames[round % 2].clone();
            let at = rng.below(dam.len() as u64) as usize;
            dam[at] ^= (1 << rng.below(8)) as u8;
            let _ = decode_frame(&dam);
        }
    }
}
