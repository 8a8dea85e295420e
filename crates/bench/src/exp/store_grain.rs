//! §2.2 store-granularity ablation: "writing a packet of n bytes
//! 1-byte-wise into a memory area which is not cached before each write
//! operation could result in n cache misses, while writing it m-byte-wise
//! could only cause n/m cache misses".
//!
//! We run the fused encrypt+checksum loop over cold destinations with
//! the store grain forced to 1 byte and to 4 bytes and count L1 write
//! misses on the **Alpha 21064** cache — write-through, *no-allocate*,
//! so every store to an uncached line misses: byte-wise stores cost n
//! misses where word-wise stores cost n/4 (and a write-allocate cache
//! like the SuperSPARC's would flatten the difference to one fill per
//! line, which is why the paper's advice targets exactly this kind of
//! machine).

use crate::report::{banner, Table};
use cipher::SimplifiedSafer;
use ilp_core::{ilp_run, ChecksumTap, EncryptStage, Fused, StoreGrain, UnitBuf, UnitSink};
use memsim::{AddressSpace, HostModel, Mem, SimMem};
use obs::Json;
use rpcapp::suite::MAX_FILE;
use xdr::stream::OpaqueSource;

/// Sink wrapper that overrides the negotiated store grain.
struct ForceGrain {
    inner: ilp_core::LinearSink,
    grain: StoreGrain,
}

impl<M: Mem> UnitSink<M> for ForceGrain {
    fn store(&mut self, m: &mut M, unit: &UnitBuf, _natural: StoreGrain) {
        self.inner.store(m, unit, self.grain);
    }
}

fn misses_and_writes(grain: StoreGrain) -> (u64, u64) {
    let host = HostModel::axp3000_500();
    let mut space = AddressSpace::new();
    let cipher = SimplifiedSafer::alloc(&mut space);
    let src = space.alloc_kind("src", 64 * 1024, 64, memsim::RegionKind::AppData);
    let dst = space.alloc_kind("dst", MAX_FILE, 64, memsim::RegionKind::Ring);
    let mut m = SimMem::new(&space, &host);
    cipher.init(&mut m, [7; 8]);
    let _ = m.take_stats();
    // Stream 64 KB through the fused loop into a cold destination.
    let mut source = OpaqueSource::new(src.base, 64 * 1024);
    let mut stages = Fused::new(EncryptStage::new(cipher), ChecksumTap::new());
    let mut sink = ForceGrain { inner: ilp_core::LinearSink::new(dst.base), grain };
    ilp_run(&mut m, &mut source, &mut stages, &mut sink, 1, None).unwrap();
    let stats = m.stats();
    (stats.total_write_misses(), stats.writes.total())
}

/// Run the ablation.
pub fn run(_: &[String]) -> Result<Option<Json>, String> {
    banner("§2.2", "store granularity: 1-byte-wise vs word-wise writes to cold memory");
    let (byte_misses, byte_writes) = misses_and_writes(StoreGrain::Byte);
    let (word_misses, word_writes) = misses_and_writes(StoreGrain::Word);
    let mut t = Table::new(vec!["store grain", "writes", "write misses", "misses/KB"]);
    t.row(vec![
        "1 byte".to_string(),
        byte_writes.to_string(),
        byte_misses.to_string(),
        format!("{:.1}", byte_misses as f64 / 64.0),
    ]);
    t.row(vec![
        "4 bytes".to_string(),
        word_writes.to_string(),
        word_misses.to_string(),
        format!("{:.1}", word_misses as f64 / 64.0),
    ]);
    t.print();
    println!(
        "\nbyte-wise stores cost {:.1}× the write misses of word-wise stores",
        byte_misses as f64 / word_misses as f64
    );
    println!("(the paper's n vs n/m argument on a no-write-allocate cache)");
    Ok(None)
}
