//! # ilp-core — the Integrated Layer Processing framework
//!
//! This crate is the reproduction of the paper's contribution: the
//! machinery that lets several protocol layers' data manipulations run in
//! **one integrated processing loop**, reading each processing unit from
//! memory once, transforming it in registers, and writing it once
//! (Braun & Diot, SIGCOMM 1995).
//!
//! The pieces map to the paper's sections:
//!
//! | Module | Paper concept |
//! |---|---|
//! | [`units`] | processing-unit lengths and the exchange-unit rule `Le = LCM(Lx, Ly, Ls)` (§2.2) |
//! | [`unitbuf`] | the register-resident exchange unit passed between fused stages |
//! | [`stage`] | data-manipulation stages (cipher, checksum tap) and their fusion; static (macro-like) and `dyn` (function-pointer-like) composition (§3.2.1) |
//! | [`pipeline`] | the ILP loop drivers: word source → fused stages → store, with configurable store granularity (§2.2's n vs n/m cache-miss discussion) |
//! | [`segment`] | part A/B/C message segmentation around data-dependent headers, the generalisation of segregated messages (§3.2.2, Figure 4) |
//! | [`mod@three_stage`] | Abbott & Peterson's initial / integrated / final protocol-processing split (§2.1) |
//!
//! ## Fusion = monomorphisation
//!
//! The paper found that "substituting macros by function calls results in
//! the loss of all performance benefits gained by ILP" and accepted the
//! inflexibility of macro inlining. In Rust the same trade is
//! generics-vs-trait-objects: [`stage::Fused`] composes stages as a
//! generic type that rustc flattens into a single loop body (the macro
//! equivalent), while [`stage::DynPipeline`] chains boxed stages through
//! vtable calls (the function-pointer equivalent, kept because it allows
//! *dynamic adaptation* of the stack). The `dispatch` bench measures the
//! gap on the machine this reproduction runs on. Generic types alone do
//! not make one loop — the static stages, sources and sinks are
//! `#[inline(always)]`, and CI checks the native binary for stragglers
//! (see [`pipeline`]).
//!
//! ## Applicability rules
//!
//! The paper's §2.2 restrictions are enforced, not just documented:
//!
//! * ordering-constrained stages (CRC, stream ciphers) poison a
//!   [`segment::SegmentPlan`] — construction fails, because parts would
//!   be processed out of serial order;
//! * every word source declares its exact length up front
//!   ([`xdr::stream::WordSource::total_words`]) — the "header size must
//!   be known before entering the ILP loop" rule.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod pipeline;
pub mod segment;
pub mod stage;
pub mod three_stage;
pub mod unitbuf;
pub mod units;

pub use pipeline::{ilp_run, store_unit, store_words, IlpRun, LinearSink, StoreGrain, UnitSink};
pub use segment::{PartKind, SegmentPlan};
pub use stage::{
    ChecksumTap, CrcStage, DecryptStage, DynPipeline, EncryptStage, Fused, Identity, Ordering,
    UnitStage,
};
pub use three_stage::{three_stage, Reject};
pub use unitbuf::UnitBuf;
pub use units::{exchange_unit, lcm};
