//! # rpcapp — the file-transfer application of the paper
//!
//! The top of the stack (§3.1): an RPC-model file transfer. A client
//! sends a [`msg::FileRequest`] naming a file, how many copies to
//! receive, and the maximum bytes per reply; the server segments the
//! file and returns a train of reply messages. Message formats follow
//! the paper's Figure 2:
//!
//! ```text
//! ┌──────────────┬────────────┬──────────────┬───────────┐
//! │ length field │ RPC header │ XDR data     │ alignment │   ← encrypted
//! └──────────────┴────────────┴──────────────┴───────────┘
//! ┌────────────────────── TCP header + payload ──────────┘
//! ```
//!
//! The 4-byte encryption header carries the pre-encryption length (and
//! is itself encrypted); the whole message is padded to the cipher's
//! 8-byte alignment; the TCP checksum covers the ciphertext.
//!
//! [`msg`] states what a reply is once — one word view, one unmarshal
//! sink and one admission rule, for this format and for §5's
//! length-last variant ([`trailer`]) — and [`paths`] runs it two ways:
//!
//! * the **non-ILP** functions follow the paper's Figures 3/5 exactly:
//!   marshal → encrypt → `tcp_send` copy → checksum → system copy (send)
//!   and system copy → checksum → decrypt → unmarshal+copy (receive),
//!   each step a separate pass;
//! * the **ILP** functions run one fused loop per direction —
//!   marshalling, encryption and checksumming integrated into the copy
//!   into the TCP ring (send, in the part B→C→A order of §3.2.2) and
//!   checksum+decrypt+unmarshal integrated into the copy out of the
//!   receive staging buffer (receive, three-stage split).
//!
//! Byte-for-byte equality of the two — same wire bytes, same checksums,
//! same delivered file, same verdict on what is not a reply — is
//! asserted by this crate's tests and the workspace integration tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod app;
pub mod msg;
pub mod paths;
pub mod suite;
pub mod trailer;

pub use app::{FileTransfer, TransferReport};
pub use msg::{FileRequest, ReplyMeta, ENC_HDR_LEN, PREFIX_BYTES, RPC_HDR_WORDS};
pub use suite::Suite;
pub use trailer::{recv_reply_ilp_trailer, send_reply_ilp_trailer};
