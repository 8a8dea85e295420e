//! # memsim — instrumented memory and cache simulation
//!
//! This crate is the measurement substrate of the ILP reproduction. It plays
//! the role that SUN's Shade `cachesim` and DEC's ATOM played in the paper
//! (Braun & Diot, *Protocol Implementation Using Integrated Layer
//! Processing*, SIGCOMM 1995, §4.2): every load and store executed by the
//! protocol kernels — including cipher table lookups and ring-buffer
//! writes — is observed, counted by access size, and driven through a
//! simulated cache hierarchy, so that memory-access and cache-miss figures
//! (the paper's Figures 13 and 14) are *measured from the real access
//! stream*, not estimated analytically.
//!
//! ## The two worlds
//!
//! All protocol kernels in this workspace are generic over the [`Mem`]
//! trait. Two implementations exist:
//!
//! * [`NativeMem`] — a zero-cost wrapper over a byte slice. Every method is
//!   `#[inline(always)]` and the instrumentation hooks compile to nothing,
//!   so wall-clock timings over `NativeMem` measure the real machine code
//!   of the fused (ILP) and layered (non-ILP) loops.
//! * [`SimMem`] — backs the same address space with a byte vector, but
//!   routes each access through [`CacheSim`] (a set-associative,
//!   multi-level cache simulator) and accumulates [`RunStats`]. A
//!   [`HostModel`] then converts the event counts into microseconds and
//!   megabits per second for one of the paper's seven 1995 workstations.
//!
//! Because both worlds execute the *same* monomorphised kernel code, the
//! simulated numbers cannot drift away from the code users actually run.
//!
//! ## Address space
//!
//! [`AddressSpace`] lays out named regions (application buffer, marshal
//! buffer, cipher tables, TCP ring buffer, kernel buffer, …) in a single
//! flat arena, the way a 1995 Unix process image would. Region placement is
//! natural (sequential, aligned) — cache conflicts between, say, the
//! streaming ring buffer and the cipher's logarithm table arise from the
//! geometry of the simulated cache, not from contrived placement.
//!
//! ## Quick example
//!
//! ```
//! use memsim::{AddressSpace, Mem, NativeMem, SimMem, HostModel};
//!
//! // Lay out two 64-byte regions.
//! let mut space = AddressSpace::new();
//! let src = space.alloc("src", 64, 8);
//! let dst = space.alloc("dst", 64, 8);
//!
//! // A trivial kernel, generic over Mem: word-wise copy.
//! fn copy4<M: Mem>(m: &mut M, src: usize, dst: usize, len: usize) {
//!     for off in (0..len).step_by(4) {
//!         let w: [u8; 4] = m.read(src + off);
//!         m.write(dst + off, w);
//!     }
//! }
//!
//! // Native world: raw slice, zero overhead.
//! let mut arena = space.native_arena();
//! let mut nat = NativeMem::new(&mut arena);
//! copy4(&mut nat, src.base, dst.base, 64);
//!
//! // Simulated world: same code, every access counted and cache-simulated.
//! let host = HostModel::ss10_30();
//! let mut sim = SimMem::new(&space, &host);
//! copy4(&mut sim, src.base, dst.base, 64);
//! let stats = sim.stats();
//! assert_eq!(stats.reads.total(), 16);
//! assert_eq!(stats.writes.total(), 16);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod host;
pub mod layout;
pub mod mem;
pub mod region;
pub mod simmem;
pub mod stats;
pub mod trace;

pub use cache::{AccessKind, CacheLevelStats, CacheSim, CacheSpec, WritePolicy};
pub use host::{HostModel, PacketCost, RunCost};
pub use layout::AddressSpace;
pub use mem::{CodeRegion, Mem, NativeMem};
pub use region::{Region, RegionKind};
pub use simmem::SimMem;
pub use stats::{AccessCounts, RunStats, SizeClass};
pub use trace::{Trace, TraceEvent};

/// Threading contract, asserted at compile time.
///
/// The sharded server (`crates/server/src/shard.rs`) confines one memory
/// world — an [`AddressSpace`], its arena, and the [`SimMem`] /
/// [`NativeMem`] over it, with all work counters — to one OS thread;
/// worlds are built *inside* their worker and never shared, so no
/// counter or cache state needs atomics. What must hold for that design
/// is only that the world types can *move into* a spawned worker (and
/// its results move back out), i.e. that they are `Send`. The crate is
/// `#![forbid(unsafe_code)]` and every type owns plain data, so `Send`
/// falls out automatically — these assertions exist to keep it that way
/// (a stray `Rc` or raw-pointer field would fail to compile here).
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<AddressSpace>();
    assert_send::<SimMem>();
    assert_send::<HostModel>();
    assert_send::<CacheSim>();
    assert_send::<RunStats>();
    assert_send::<Region>();
    assert_send::<NativeMem<'static>>();
};
