//! Annex Table 1 and the five figures read off it (Figs. 6–10): one
//! measurement procedure — host × packet size × {ILP, non-ILP} over
//! [`mod@crate::measure`] — printed through a per-figure column list, the
//! paper's value beside the measured one in every cell.

use crate::measure::{measure, MeasureCfg, Measurement};
use crate::paper::{self, Table1Row};
use crate::report::{banner, gain_pct, mbps, pct, us, Table};
use memsim::HostModel;
use obs::Json;
use rpcapp::app::Path;

const SIZES: &[usize] = &[256, 512, 768, 1024, 1280];

/// One sweep point: both paths measured, and the paper's row.
struct Point {
    ilp: Measurement,
    non: Measurement,
    paper: Table1Row,
}

type Column = (&'static str, fn(&Point) -> String);

/// How one figure reads the sweep.
struct Figure {
    id: &'static str,
    title: &'static str,
    /// Printed under the banner.
    intro: &'static str,
    hosts: fn() -> Vec<HostModel>,
    /// One size: a single table with a row per host. Several: a table
    /// per host with a row per size.
    sizes: &'static [usize],
    columns: &'static [Column],
    /// Whether the blank line goes before each host's heading (the
    /// figures) or after each host's table (Table 1).
    blank_before_host: bool,
    footer: &'static str,
}

impl Figure {
    fn print(&self) {
        banner(self.id, self.title);
        print!("{}", self.intro);
        let per_host = self.sizes.len() > 1;
        let mut header = vec![if per_host { "size" } else { "host" }];
        header.extend(self.columns.iter().map(|c| c.0));
        let new_table = || Table::new(header.clone());
        let mut table = new_table();
        for host in (self.hosts)() {
            if per_host {
                if self.blank_before_host {
                    println!();
                }
                println!("--- {} ({}) ---", host.name, host.os);
            }
            for &size in self.sizes {
                let cfg = MeasureCfg::timing(size);
                let point = Point {
                    ilp: measure(&host, cfg, Path::Ilp),
                    non: measure(&host, cfg, Path::NonIlp),
                    paper: paper::table1(host.name, size).expect("paper row"),
                };
                let mut cells = vec![if per_host { size.to_string() } else { host.name.to_string() }];
                cells.extend(self.columns.iter().map(|c| (c.1)(&point)));
                table.row(cells);
            }
            if per_host {
                table.print();
                table = new_table();
                if !self.blank_before_host {
                    println!();
                }
            }
        }
        if !per_host {
            table.print();
        }
        print!("{}", self.footer);
    }
}

/// What most figures share: seven hosts at 1 kbyte in one table.
const ONE_KB: Figure = Figure {
    id: "",
    title: "",
    intro: "",
    hosts: HostModel::all,
    sizes: &[1024],
    columns: &[],
    blank_before_host: false,
    footer: "",
};

/// The paper/measured pair columns of the 1 kbyte processing figures.
macro_rules! processing_columns {
    ($non:ident, $ilp:ident, $us:ident) => {
        &[
            ("paper nonILP", |p| us(p.paper.$non)),
            ("meas nonILP", |p| us(p.non.$us)),
            ("paper ILP", |p| us(p.paper.$ilp)),
            ("meas ILP", |p| us(p.ilp.$us)),
            ("paper gain", |p| pct(gain_pct(p.paper.$non, p.paper.$ilp))),
            ("meas gain", |p| pct(gain_pct(p.non.$us, p.ilp.$us))),
        ]
    };
}

const THROUGHPUT_COLUMNS: &[Column] = &[
    ("paper nonILP", |p| mbps(p.paper.non_tput)),
    ("meas nonILP", |p| mbps(p.non.throughput_mbps)),
    ("paper ILP", |p| mbps(p.paper.ilp_tput)),
    ("meas ILP", |p| mbps(p.ilp.throughput_mbps)),
];

const PROCESSING_FOOTER: &str = "\n(µs per 1 kbyte packet; gain = non-ILP → ILP reduction)\n";

/// Figure 6 — receive packet processing, 1 kbyte packets, seven hosts.
pub fn fig06(_: &[String]) -> Result<Option<Json>, String> {
    Figure {
        id: "Figure 6",
        title: "receive packet processing (1 kbyte packets)",
        columns: processing_columns!(non_recv, ilp_recv, recv_us),
        footer: PROCESSING_FOOTER,
        ..ONE_KB
    }
    .print();
    Ok(None)
}

/// Figure 7 — send packet processing, 1 kbyte packets, seven hosts.
pub fn fig07(_: &[String]) -> Result<Option<Json>, String> {
    Figure {
        id: "Figure 7",
        title: "send packet processing (1 kbyte packets)",
        columns: processing_columns!(non_send, ilp_send, send_us),
        footer: PROCESSING_FOOTER,
        ..ONE_KB
    }
    .print();
    Ok(None)
}

/// Figure 8 — loop-back throughput, 1 kbyte packets, seven hosts.
pub fn fig08(_: &[String]) -> Result<Option<Json>, String> {
    Figure {
        id: "Figure 8",
        title: "throughput (1 kbyte packets)",
        columns: THROUGHPUT_COLUMNS,
        footer: "\n(Mbps of application payload over loop-back)\n",
        ..ONE_KB
    }
    .print();
    Ok(None)
}

/// Figure 9 — throughput vs packet size for the four figure hosts. The
/// paper's headline detail: the SS10-30 (no second-level cache)
/// throughput *drops* at 1280 bytes, while the hosts with a board cache
/// keep climbing.
pub fn fig09(_: &[String]) -> Result<Option<Json>, String> {
    Figure {
        id: "Figure 9",
        title: "throughput vs packet size",
        hosts: HostModel::figure_hosts,
        sizes: SIZES,
        columns: THROUGHPUT_COLUMNS,
        blank_before_host: true,
        footer: "\n(Mbps; watch the SS10-30 slope flatten at 1280 B — no L2 cache)\n",
        ..ONE_KB
    }
    .print();
    Ok(None)
}

/// Figure 10 — packet processing times vs packet size for the four
/// figure hosts. The gap between ILP and non-ILP grows roughly
/// proportionally with packet size (§4.1).
pub fn fig10(_: &[String]) -> Result<Option<Json>, String> {
    Figure {
        id: "Figure 10",
        title: "packet processing times vs packet size",
        hosts: HostModel::figure_hosts,
        sizes: SIZES,
        columns: &[
            ("send nonILP p/m", |p| format!("{}/{}", us(p.paper.non_send), us(p.non.send_us))),
            ("send ILP p/m", |p| format!("{}/{}", us(p.paper.ilp_send), us(p.ilp.send_us))),
            ("recv nonILP p/m", |p| format!("{}/{}", us(p.paper.non_recv), us(p.non.recv_us))),
            ("recv ILP p/m", |p| format!("{}/{}", us(p.paper.ilp_recv), us(p.ilp.recv_us))),
        ],
        blank_before_host: true,
        footer: "\n(µs; each cell is paper/measured)\n",
        ..ONE_KB
    }
    .print();
    Ok(None)
}

/// Annex Table 1 — seven hosts × five packet sizes × {ILP, non-ILP} ×
/// {throughput, send µs, receive µs}.
pub fn table1(_: &[String]) -> Result<Option<Json>, String> {
    Figure {
        id: "Table 1 (Annex)",
        title: "packet processing and throughput, full sweep",
        intro: "(each cell: paper/measured)\n\n",
        sizes: SIZES,
        columns: &[
            ("tput ILP", |p| format!("{:.2}/{:.2}", p.paper.ilp_tput, p.ilp.throughput_mbps)),
            ("tput nonILP", |p| format!("{:.2}/{:.2}", p.paper.non_tput, p.non.throughput_mbps)),
            ("send ILP", |p| format!("{:.0}/{:.0}", p.paper.ilp_send, p.ilp.send_us)),
            ("recv ILP", |p| format!("{:.0}/{:.0}", p.paper.ilp_recv, p.ilp.recv_us)),
            ("send nonILP", |p| format!("{:.0}/{:.0}", p.paper.non_send, p.non.send_us)),
            ("recv nonILP", |p| format!("{:.0}/{:.0}", p.paper.non_recv, p.non.recv_us)),
        ],
        ..ONE_KB
    }
    .print();
    Ok(None)
}
