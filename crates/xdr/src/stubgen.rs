//! Stub generation — the MAVROS stand-in.
//!
//! The paper's message formats were "described using ASN.1" and the
//! marshalling routines "generated using the MAVROS ASN.1 stub compiler"
//! (§3.1); §2.1 notes that generated code is one way to integrate layers
//! without destroying modularity. The Rust equivalent is compile-time
//! code generation: the [`ilp_messages!`](crate::ilp_messages) macro expands a declarative
//! message description into a struct with `marshal`, `unmarshal` and
//! `wire_len` methods built from the [`XdrField`] vocabulary.
//!
//! ```
//! use xdr::ilp_messages;
//! use xdr::stubgen::Opaque;
//!
//! ilp_messages! {
//!     /// A toy message.
//!     pub struct Ping {
//!         seq: u32,
//!         urgent: bool,
//!         tag: Opaque<16>,
//!     }
//! }
//!
//! let msg = Ping { seq: 7, urgent: true, tag: Opaque(b"hi".to_vec()) };
//! assert_eq!(msg.wire_len(), 4 + 4 + 4 + 4); // scalars + length + padded "hi"
//! ```

use crate::runtime::{pad4, XdrDecoder, XdrEncoder, XdrError};
use memsim::Mem;

/// Variable-length opaque data with a schema bound of `BOUND` bytes
/// (ASN.1 `OCTET STRING (SIZE(0..BOUND))` / XDR `opaque<BOUND>`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Opaque<const BOUND: u32>(pub Vec<u8>);

impl<const BOUND: u32> Opaque<BOUND> {
    /// The schema bound.
    pub const BOUND: u32 = BOUND;

    /// Borrow the payload.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }
}

/// A type that knows how to put itself on and take itself off the XDR
/// wire. The stub macro composes message bodies from this vocabulary.
pub trait XdrField: Sized {
    /// Append this field to the wire.
    fn marshal<M: Mem>(&self, enc: &mut XdrEncoder<'_, M>);

    /// Parse this field off the wire.
    fn unmarshal<M: Mem>(dec: &mut XdrDecoder<'_, M>) -> Result<Self, XdrError>;

    /// Bytes this field occupies on the wire.
    fn wire_len(&self) -> usize;
}

impl XdrField for u32 {
    fn marshal<M: Mem>(&self, enc: &mut XdrEncoder<'_, M>) {
        enc.put_u32(*self);
    }

    fn unmarshal<M: Mem>(dec: &mut XdrDecoder<'_, M>) -> Result<Self, XdrError> {
        dec.get_u32()
    }

    fn wire_len(&self) -> usize {
        4
    }
}

impl XdrField for i32 {
    fn marshal<M: Mem>(&self, enc: &mut XdrEncoder<'_, M>) {
        enc.put_i32(*self);
    }

    fn unmarshal<M: Mem>(dec: &mut XdrDecoder<'_, M>) -> Result<Self, XdrError> {
        dec.get_i32()
    }

    fn wire_len(&self) -> usize {
        4
    }
}

impl XdrField for bool {
    fn marshal<M: Mem>(&self, enc: &mut XdrEncoder<'_, M>) {
        enc.put_bool(*self);
    }

    fn unmarshal<M: Mem>(dec: &mut XdrDecoder<'_, M>) -> Result<Self, XdrError> {
        dec.get_bool()
    }

    fn wire_len(&self) -> usize {
        4
    }
}

impl<const BOUND: u32> XdrField for Opaque<BOUND> {
    fn marshal<M: Mem>(&self, enc: &mut XdrEncoder<'_, M>) {
        debug_assert!(self.0.len() as u32 <= BOUND, "opaque exceeds schema bound");
        enc.put_opaque_bytes(&self.0);
    }

    fn unmarshal<M: Mem>(dec: &mut XdrDecoder<'_, M>) -> Result<Self, XdrError> {
        Ok(Opaque(dec.get_opaque_bytes(BOUND)?))
    }

    fn wire_len(&self) -> usize {
        4 + pad4(self.0.len())
    }
}

/// Generate message structs with XDR marshal/unmarshal/wire_len — the
/// stub-compiler step. Field types must implement [`XdrField`].
#[macro_export]
macro_rules! ilp_messages {
    ($(
        $(#[$meta:meta])*
        pub struct $name:ident {
            $($field:ident : $ty:ty),* $(,)?
        }
    )*) => { $(
        $(#[$meta])*
        #[derive(Debug, Clone, PartialEq, Eq, Default)]
        pub struct $name {
            $(
                #[allow(missing_docs)]
                pub $field: $ty,
            )*
        }

        impl $name {
            /// Marshal every field in declaration order (generated).
            pub fn marshal<M: ::memsim::Mem>(&self, enc: &mut $crate::runtime::XdrEncoder<'_, M>) {
                let _ = &enc; // fieldless messages marshal to nothing
                $( $crate::stubgen::XdrField::marshal(&self.$field, enc); )*
            }

            /// Unmarshal every field in declaration order (generated).
            pub fn unmarshal<M: ::memsim::Mem>(
                dec: &mut $crate::runtime::XdrDecoder<'_, M>,
            ) -> ::core::result::Result<Self, $crate::runtime::XdrError> {
                let _ = &dec; // fieldless messages consume nothing
                Ok(Self {
                    $( $field: $crate::stubgen::XdrField::unmarshal(dec)?, )*
                })
            }

            /// Exact wire size of this message in bytes (generated).
            pub fn wire_len(&self) -> usize {
                0 $( + $crate::stubgen::XdrField::wire_len(&self.$field) )*
            }
        }
    )* };
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::{AddressSpace, NativeMem};

    ilp_messages! {
        /// Test message with every field kind.
        pub struct Everything {
            a: u32,
            b: i32,
            c: bool,
            blob: Opaque<32>,
        }

        /// Empty message.
        pub struct Nothing {}
    }

    fn with_wire(f: impl FnOnce(&mut NativeMem<'_>, usize)) {
        let mut space = AddressSpace::new();
        let wire = space.alloc("wire", 256, 8);
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        f(&mut m, wire.base);
    }

    #[test]
    fn generated_roundtrip() {
        with_wire(|m, wire| {
            let msg = Everything { a: 1, b: -5, c: true, blob: Opaque(vec![9, 8, 7, 6, 5]) };
            let len = msg.wire_len();
            let mut enc = XdrEncoder::new(m, wire);
            msg.marshal(&mut enc);
            assert_eq!(enc.written(), len);
            let mut dec = XdrDecoder::new(m, wire, len);
            assert_eq!(Everything::unmarshal(&mut dec).unwrap(), msg);
        });
    }

    #[test]
    fn wire_len_counts_padding() {
        let msg = Everything { a: 0, b: 0, c: false, blob: Opaque(vec![1, 2, 3, 4, 5]) };
        // 3 scalars + length word + 8 padded payload bytes.
        assert_eq!(msg.wire_len(), 12 + 4 + 8);
    }

    #[test]
    fn empty_message_is_zero_bytes() {
        with_wire(|m, wire| {
            let msg = Nothing {};
            assert_eq!(msg.wire_len(), 0);
            let mut enc = XdrEncoder::new(m, wire);
            msg.marshal(&mut enc);
            assert_eq!(enc.written(), 0);
            let mut dec = XdrDecoder::new(m, wire, 0);
            assert_eq!(Nothing::unmarshal(&mut dec).unwrap(), msg);
        });
    }

    #[test]
    fn unmarshal_rejects_oversized_opaque() {
        with_wire(|m, wire| {
            // Hand-craft a message whose opaque length exceeds the bound.
            let mut enc = XdrEncoder::new(m, wire);
            enc.put_u32(1);
            enc.put_i32(2);
            enc.put_bool(false);
            enc.put_u32(99); // opaque length 99 > bound 32
            let mut dec = XdrDecoder::new(m, wire, 16);
            assert!(matches!(
                Everything::unmarshal(&mut dec),
                Err(XdrError::LengthOverBound { got: 99, bound: 32 })
            ));
        });
    }

    #[test]
    fn truncated_message_rejected() {
        with_wire(|m, wire| {
            let msg = Everything { a: 1, b: 2, c: true, blob: Opaque(vec![1]) };
            let mut enc = XdrEncoder::new(m, wire);
            msg.marshal(&mut enc);
            let mut dec = XdrDecoder::new(m, wire, msg.wire_len() - 4);
            assert!(matches!(Everything::unmarshal(&mut dec), Err(XdrError::Truncated { .. })));
        });
    }
}
