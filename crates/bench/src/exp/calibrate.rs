//! Calibration probe: paper vs measured with component breakdown
//! (`DETAIL=1` adds the per-phase access and cost split).
use crate::measure::{measure, MeasureCfg};
use crate::paper;
use memsim::HostModel;
use obs::Json;
use rpcapp::app::Path;

/// Run the probe.
pub fn run(_: &[String]) -> Result<Option<Json>, String> {
    let detail = std::env::var("DETAIL").is_ok();
    println!("{:<13} {:>5} | {:>7} {:>7} | {:>7} {:>7} | {:>7} {:>7} | {:>7} {:>7} | {:>6} {:>6}",
        "host", "size", "pSendN", "mSendN", "pSendI", "mSendI", "pRecvN", "mRecvN", "pRecvI", "mRecvI", "pTputI", "mTputI");
    for host in HostModel::all() {
        for size in [256usize, 1024] {
            let cfg = MeasureCfg { chunk: size, packets: 30, warmup: 5 };
            let ilp = measure(&host, cfg, Path::Ilp);
            let non = measure(&host, cfg, Path::NonIlp);
            let p = paper::table1(host.name, size).unwrap();
            println!("{:<13} {:>5} | {:>7.0} {:>7.0} | {:>7.0} {:>7.0} | {:>7.0} {:>7.0} | {:>7.0} {:>7.0} | {:>6.2} {:>6.2}",
                host.name, size, p.non_send, non.send_us, p.ilp_send, ilp.send_us,
                p.non_recv, non.recv_us, p.ilp_recv, ilp.recv_us, p.ilp_tput, ilp.throughput_mbps);
            if detail {
                for (label, st, n) in [("sendN", &non.send_stats, non.packets), ("recvN", &non.recv_stats, non.packets),
                                       ("sendI", &ilp.send_stats, ilp.packets), ("recvI", &ilp.recv_stats, ilp.packets)] {
                    let c = host.cost(st);
                    println!("    {label}: r={} w={} (1B r={} w={}) ops={} l1={} l2={} mem={} | cyc_us={:.0} l2_us={:.0} mem_us={:.0}",
                        st.reads.total()/n as u64, st.writes.total()/n as u64,
                        st.reads.by_size(memsim::SizeClass::B1)/n as u64, st.writes.by_size(memsim::SizeClass::B1)/n as u64,
                        st.compute_ops/n as u64, st.l1_accesses/n as u64, st.l2_accesses/n as u64, st.memory_accesses/n as u64,
                        (c.compute_cyc + c.l1_cyc)/host.clock_mhz/n as f64, c.l2_us/n as f64, c.mem_us/n as f64);
                }
            }
        }
    }
    Ok(None)
}
