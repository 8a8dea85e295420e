//! Cipher-complexity ablation (§2.1/§3.1, after Gunningberg et al.):
//! as the data-manipulation function gets more expensive, the relative
//! ILP gain shrinks — DES "can hide totally the ILP performance gain",
//! which is why the paper had to simplify SAFER K-64 in the first place.
//!
//! Four ciphers, 1 kbyte packets, SS10-30: very simple → simplified
//! SAFER → full SAFER K-64 (6 rounds) → DES. The relative send-side ILP
//! gain must be monotonically non-increasing along that axis.
//!
//! The last column is this machine's wall-clock encrypt throughput of
//! the same cipher — the modern rerun of the paper's §3.1 numbers (on a
//! 1995 SPARCstation 10: DES 0.5 Mbps, their simplified SAFER ~50
//! Mbps). The *ratio* is the point: the argument for simplifying SAFER
//! rests on DES being ~100× slower than the simplified variant.

use super::time_mbps;
use crate::measure::{measure_custom, MeasureCfg, Measurement};
use crate::report::{banner, gain_pct, pct, us, Table};
use cipher::{encrypt_buf, CipherKernel};
use memsim::{AddressSpace, HostModel, NativeMem};
use obs::Json;
use rpcapp::app::Path;
use rpcapp::suite::Suite;

/// Bytes encrypted per native timing iteration.
const NATIVE_LEN: usize = 8 * 1024;

struct Row {
    name: &'static str,
    ilp: Measurement,
    non: Measurement,
    native_mbps: f64,
}

fn row<C: CipherKernel + Copy>(
    name: &'static str,
    build: impl Fn(&mut AddressSpace) -> Suite<C>,
) -> Row {
    let host = HostModel::ss10_30();
    let cfg = MeasureCfg::timing(1024);
    let mut space = AddressSpace::new();
    let suite = build(&mut space);
    let mut arena = space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    suite.init_world(&mut m);
    let native_mbps = time_mbps(NATIVE_LEN, 20, 200, || {
        encrypt_buf(&suite.cipher, &mut m, suite.file.base, suite.app_out.base, NATIVE_LEN)
    });
    Row {
        name,
        ilp: measure_custom(&host, cfg, Path::Ilp, &build),
        non: measure_custom(&host, cfg, Path::NonIlp, &build),
        native_mbps,
    }
}

/// Run the ablation.
pub fn run(_: &[String]) -> Result<Option<Json>, String> {
    banner("cipher ablation", "ILP gain vs data-manipulation complexity (SS10-30, 1 kbyte)");
    let rows = [
        row("very simple", Suite::very_simple),
        row("simplified SAFER", Suite::simplified),
        row("SAFER K-64 (6r)", |s| Suite::full_safer(s, 6)),
        row("DES", Suite::des),
    ];

    let mut table = Table::new(vec![
        "cipher", "send nonILP", "send ILP", "send gain", "recv gain", "tput ILP", "native Mbps",
    ]);
    let mut gains = Vec::new();
    for Row { name, ilp, non, native_mbps } in &rows {
        let g = gain_pct(non.send_us, ilp.send_us);
        gains.push(g);
        table.row(vec![
            name.to_string(),
            us(non.send_us),
            us(ilp.send_us),
            pct(g),
            pct(gain_pct(non.recv_us, ilp.recv_us)),
            format!("{:.2}", ilp.throughput_mbps),
            format!("{native_mbps:.0}"),
        ]);
    }
    table.print();

    println!("\nrelative send gain along the complexity axis: {}", gains
        .iter()
        .map(|g| format!("{g:.0}%"))
        .collect::<Vec<_>>()
        .join(" → "));
    println!("(paper: the gain shrinks as the cipher grows; DES buries it)");
    println!(
        "native encrypt, this machine: simplified SAFER is {:.0}× DES",
        rows[1].native_mbps / rows[3].native_mbps
    );
    Ok(None)
}
