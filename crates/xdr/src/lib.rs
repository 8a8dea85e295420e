//! # xdr — External Data Representation marshalling (RFC 1014)
//!
//! The paper's application describes its request/reply messages in ASN.1
//! and generates (un)marshalling routines with INRIA's MAVROS stub
//! compiler, producing "the RPC header and the XDR format of the message"
//! (§3.1). Marshalling operates in 4-byte units (§2.1) — the smallest
//! processing unit in the stack, negotiated against the cipher's 8 and
//! the checksum's 2 by the LCM rule.
//!
//! Three layers:
//!
//! * [`runtime`] — encoder/decoder for XDR primitives over
//!   [`memsim::Mem`]: the classic buffer-to-buffer marshalling pass used
//!   by the non-ILP implementation (one read + one write per word).
//! * [`stream`] — *word-granular streaming* marshal/unmarshal: sources
//!   that emit one 4-byte word per call (header words synthesised in
//!   registers, payload words read from application memory) and sinks
//!   that consume them. These are the fusible form the ILP loop composes
//!   with the cipher and checksum stages — marshalling output never
//!   touches memory.
//! * [`stubgen`] — the MAVROS stand-in: the [`ilp_messages!`] macro
//!   generates message structs with `marshal`/`unmarshal`/`wire_len`
//!   from a declarative field list, the way the paper's stub compiler
//!   generated C routines from ASN.1 (the "automatic synthesis tool"
//!   route to preserving modularity, §2.1).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod runtime;
pub mod stream;
pub mod stubgen;

pub use runtime::{XdrDecoder, XdrEncoder, XdrError};
pub use stream::{HeaderWords, OpaqueSink, OpaqueSource};
