//! The paper's file transfer over real UDP sockets between two OS
//! processes — the loop-back kernel part swapped for
//! [`netback::UdpBackend`] through the [`utcp::KernelPart`] seam, with
//! the full stack (RPC marshalling, simplified-SAFER encryption,
//! checksum, user-level TCP with retransmission) running unchanged on
//! both sides of 127.0.0.1.
//!
//! ```bash
//! # One-shot demo: spawns a server and a client process, transfers the
//! # paper's file over ILP and over non-ILP, checks the results match:
//! cargo run --release --example serve_udp -- selftest
//!
//! # Or by hand, in two terminals:
//! cargo run --release --example serve_udp -- serve 127.0.0.1:7070 --out /tmp/got.bin
//! cargo run --release --example serve_udp -- fetch 127.0.0.1:7070 --path ilp
//! ```
//!
//! Everything stays on the loopback interface; no name resolution, no
//! external traffic. `probe` exits 0 when the sandbox grants UDP
//! sockets and 2 when it does not, so scripts can skip gracefully.

use ilp_repro::cipher::{CipherKernel, SimplifiedSafer};
use ilp_repro::memsim::{AddressSpace, NativeMem, Region, RegionKind};
use ilp_repro::rpcapp::ReplyMeta;
use ilp_repro::server::pipeline::{recv_chunk, send_chunk, Scratch};
use ilp_repro::server::Path;
use ilp_repro::utcp::rng::XorShift64;
use ilp_repro::utcp::{Connection, SendError, State, UtcpConfig};
use netback::UdpBackend;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The demo's pre-agreed connection parameters. A real deployment would
/// run the SYN/SYN-ACK exchange of `server::handshake` first; the demo
/// pins both initial sequence numbers so either process can start first.
const CLIENT_PORT: u16 = 4000;
const SERVER_PORT: u16 = 5000;
const CLIENT_ISS: u32 = 0x1000;
const SERVER_ISS: u32 = 0x9000;
const REQUEST_ID: u32 = 0x53525621;
/// Paper workload: a 15 kbyte file in 1 kbyte messages.
const DEFAULT_BYTES: usize = 15 * 1024;
const CHUNK: usize = 1024;
const MAX_FILE: usize = 256 * 1024;
const SEED: u64 = 0x5EED_F11E;
const DEADLINE: Duration = Duration::from_secs(30);

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `ilp`, `non_ilp` or `non-ilp`.
fn parse_path(s: &str) -> Option<Path> {
    Path::ALL.into_iter().find(|p| p.name() == s.replace('-', "_"))
}

fn usage() -> ExitCode {
    eprintln!("usage: serve_udp probe");
    eprintln!("       serve_udp serve <bind-addr> [--path ilp|non_ilp] [--out FILE] [--addr-file FILE] [--waves N]");
    eprintln!("       serve_udp fetch <server-addr> [--path ilp|non_ilp] [--bytes N] [--waves N] [--quiet]");
    eprintln!("       serve_udp selftest [--bytes N] [--waves N]");
    ExitCode::FAILURE
}

/// Per-wave initial sequence numbers, derivable on both sides without a
/// side channel: each churn wave opens a fresh sequence space.
fn wave_iss(base: u32, wave: usize) -> u32 {
    base.wrapping_add((wave as u32) << 20)
}

/// Can this environment bind a UDP socket at all?
fn probe() -> ExitCode {
    match std::net::UdpSocket::bind("127.0.0.1:0") {
        Ok(_) => {
            println!("serve_udp: UDP sockets available");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("serve_udp: UDP denied: {e}");
            ExitCode::from(2)
        }
    }
}

/// The deterministic file every run transfers: both ends can regenerate
/// it from the seed, so verification needs no side channel.
fn file_bytes(n: usize) -> Vec<u8> {
    let mut rng = XorShift64::new(SEED);
    (0..n).map(|_| rng.next_u64() as u8).collect()
}

struct Args {
    path: Path,
    out: Option<String>,
    addr_file: Option<String>,
    bytes: usize,
    waves: usize,
    quiet: bool,
}

fn parse_flags(mut rest: std::env::Args) -> Option<Args> {
    let mut a = Args {
        path: Path::Ilp,
        out: None,
        addr_file: None,
        bytes: DEFAULT_BYTES,
        waves: 1,
        quiet: false,
    };
    while let Some(flag) = rest.next() {
        match flag.as_str() {
            "--path" => a.path = parse_path(&rest.next()?)?,
            "--out" => a.out = Some(rest.next()?),
            "--addr-file" => a.addr_file = Some(rest.next()?),
            "--bytes" => a.bytes = rest.next()?.parse().ok().filter(|&n| n <= MAX_FILE)?,
            "--waves" => a.waves = rest.next()?.parse().ok().filter(|&n| (1..=64).contains(&n))?,
            "--quiet" => a.quiet = true,
            _ => return None,
        }
    }
    Some(a)
}

/// The client's view of the demo connection (the client pushes the
/// file); the server runs on its mirror.
fn client_cfg() -> UtcpConfig {
    UtcpConfig {
        local_port: CLIENT_PORT,
        peer_port: SERVER_PORT,
        local_ip: 0x0A00_0001,
        peer_ip: 0x0A00_0002,
        ..Default::default()
    }
}

/// What both processes are made of: the cipher, a bound socket, one
/// connection over it, the shared scratch, one application buffer (the
/// client's file, the server's output) and the arena behind all of it.
struct World {
    cipher: SimplifiedSafer,
    net: UdpBackend,
    conn: Connection,
    scratch: Scratch,
    app: Region,
    arena: Vec<u8>,
}

/// Build one end: bind `bind`, aim the socket at `peer` (or, without
/// one, let it learn its peer from the first well-formed frame — the
/// demo's stand-in for an accept()), and open the connection `cfg`
/// describes with the two pre-agreed sequence numbers.
fn world(
    bind: &str,
    peer: Option<&str>,
    cfg: UtcpConfig,
    iss: u32,
    peer_iss: u32,
) -> Result<World, ExitCode> {
    let mut space = AddressSpace::new();
    let cipher = SimplifiedSafer::alloc(&mut space);
    let mut net = UdpBackend::bind(&mut space, bind).map_err(|e| {
        eprintln!("serve_udp: cannot bind {bind}: {e}");
        ExitCode::from(2)
    })?;
    match peer {
        Some(addr) => net.set_peer(addr).map_err(|e| {
            eprintln!("serve_udp: bad server address {addr}: {e}");
            ExitCode::FAILURE
        })?,
        None => net.set_learn_peer(true),
    }
    let mut conn = Connection::new(&mut space, &mut net, cfg, iss);
    conn.set_peer_iss(peer_iss);
    let scratch = Scratch::alloc(&mut space);
    let app = space.alloc_kind("app_buf", MAX_FILE, 64, RegionKind::AppData);
    let arena = space.native_arena();
    Ok(World { cipher, net, conn, scratch, app, arena })
}

/// Server: receive one file transfer and report its digest.
fn serve(bind: &str, a: &Args) -> ExitCode {
    let World { cipher, mut net, conn: mut rx, scratch, app: app_out, mut arena } =
        match world(bind, None, client_cfg().mirror(), SERVER_ISS, CLIENT_ISS) {
            Ok(w) => w,
            Err(code) => return code,
        };
    let mut m = NativeMem::new(&mut arena);
    cipher.init_world(&mut m);

    if let Some(f) = &a.addr_file {
        let addr = net.local_addr().map(|x| x.to_string()).unwrap_or_default();
        if std::fs::write(f, addr).is_err() {
            eprintln!("serve_udp: cannot write {f}");
            return ExitCode::FAILURE;
        }
    }
    if !a.quiet {
        if let Ok(addr) = net.local_addr() {
            println!("serve_udp: serving on {addr} ({} path)", a.path.name());
        }
    }

    let deadline = Instant::now() + DEADLINE;
    let mut chunks = 0u64;
    let mut data = Vec::new();
    for wave in 0..a.waves {
        if wave > 0 {
            // The previous wave finished fully Closed, so the port and
            // sequence books can be recycled — the churn primitive.
            rx.reopen(&mut net, wave_iss(SERVER_ISS, wave));
            rx.set_peer_iss(wave_iss(CLIENT_ISS, wave));
        }
        let mut total: Option<usize> = None;
        while Instant::now() < deadline {
            match recv_chunk(a.path, &scratch, &cipher, &mut m, &mut rx, &mut net, app_out) {
                Some(Ok(meta)) => {
                    chunks += 1;
                    if meta.last == 1 {
                        // In-order TCP delivery: accepting the last chunk
                        // means every earlier byte is already in app_out.
                        total = Some((meta.offset + meta.data_len) as usize);
                        break;
                    }
                }
                Some(Err(_)) => {} // rejected (e.g. retransmit of an acked seq); sender retries
                None => std::thread::sleep(Duration::from_micros(200)),
            }
        }
        let Some(total) = total else {
            eprintln!("serve_udp: wave {wave} timed out before the final chunk arrived");
            return ExitCode::FAILURE;
        };
        data = m.bytes(app_out.base, total).to_vec();
        // Passive close: keep servicing input so the client's FIN moves
        // us to CLOSE_WAIT (and any late data retransmit is re-ACKed),
        // answer with our own FIN (LAST_ACK), and wait for the final ACK.
        let mut last_tick = Instant::now();
        while rx.state() != State::Closed && Instant::now() < deadline {
            let _ = recv_chunk(a.path, &scratch, &cipher, &mut m, &mut rx, &mut net, app_out);
            if rx.state() == State::CloseWait {
                rx.close(&mut m, &mut net); // nothing more to send back
            }
            if last_tick.elapsed() >= Duration::from_millis(2) {
                rx.tick(&mut m, &mut net);
                last_tick = Instant::now();
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        if rx.state() != State::Closed {
            eprintln!("serve_udp: wave {wave} timed out in {:?} before Closed", rx.state());
            return ExitCode::FAILURE;
        }
    }
    if let Some(f) = &a.out {
        if std::fs::write(f, &data).is_err() {
            eprintln!("serve_udp: cannot write {f}");
            return ExitCode::FAILURE;
        }
    }
    let closes = rx.stats.fins_sent;
    if closes != a.waves as u64 || rx.stats.fins_received != a.waves as u64 {
        eprintln!(
            "serve_udp: expected {} FIN exchanges, saw {} sent / {} received",
            a.waves, closes, rx.stats.fins_received
        );
        return ExitCode::FAILURE;
    }
    println!(
        "serve_udp: received {} bytes in {chunks} chunks over {}, {closes} closes, fnv1a64={:016x}",
        data.len(),
        a.path.name(),
        fnv1a64(&data)
    );
    ExitCode::SUCCESS
}

/// Client: push the deterministic file to the server.
fn fetch(server: &str, a: &Args) -> ExitCode {
    let World { cipher, mut net, conn: mut tx, scratch, app: file, mut arena } =
        match world("127.0.0.1:0", Some(server), client_cfg(), CLIENT_ISS, SERVER_ISS) {
            Ok(w) => w,
            Err(code) => return code,
        };
    let mut m = NativeMem::new(&mut arena);
    cipher.init_world(&mut m);

    let data = file_bytes(a.bytes);
    m.bytes_mut(file.base, data.len()).copy_from_slice(&data);

    let deadline = Instant::now() + DEADLINE;
    let mut sent_chunks = 0u32;
    for wave in 0..a.waves {
        if wave > 0 {
            tx.reopen(&mut net, wave_iss(CLIENT_ISS, wave));
            tx.set_peer_iss(wave_iss(SERVER_ISS, wave));
        }
        let mut offset = 0usize;
        let mut seq = 0u32;
        let mut last_tick = Instant::now();
        while Instant::now() < deadline {
            if offset < a.bytes {
                let len = CHUNK.min(a.bytes - offset);
                let meta = ReplyMeta {
                    request_id: REQUEST_ID,
                    seq,
                    offset: offset as u32,
                    last: u32::from(offset + len == a.bytes),
                    data_len: len as u32,
                };
                let at = file.at(offset);
                match send_chunk(a.path, &scratch, &cipher, &mut m, &mut tx, &mut net, &meta, at) {
                    Ok(_) => {
                        offset += len;
                        seq += 1;
                    }
                    Err(SendError::TooLarge { len, mtu }) => {
                        eprintln!("serve_udp: chunk of {len} exceeds MTU {mtu}");
                        return ExitCode::FAILURE;
                    }
                    Err(_) => {} // ring or window backpressure: drain ACKs below
                }
            } else if tx.in_flight() == 0 {
                break;
            }
            while tx.poll_input(&mut m, &mut net).is_some() {}
            // Wall-clock retransmission clock, in case 127.0.0.1 ever drops.
            if last_tick.elapsed() >= Duration::from_millis(20) {
                tx.tick(&mut m, &mut net);
                last_tick = Instant::now();
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        if offset < a.bytes || tx.in_flight() > 0 {
            eprintln!(
                "serve_udp: wave {wave} timed out with {offset}/{} bytes pushed, {} in flight",
                a.bytes,
                tx.in_flight()
            );
            return ExitCode::FAILURE;
        }
        sent_chunks += seq;
        // Active close: our FIN moves us through FIN_WAIT, the server's
        // FIN lands us in TIME_WAIT, and the 2·MSL quiet period (ticked
        // fast — the virtual clock owns the duration, not the wall) ends
        // in Closed, at which point the port is reusable.
        tx.close(&mut m, &mut net);
        while tx.state() != State::Closed && Instant::now() < deadline {
            while tx.poll_input(&mut m, &mut net).is_some() {}
            if last_tick.elapsed() >= Duration::from_millis(2) {
                tx.tick(&mut m, &mut net);
                last_tick = Instant::now();
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        if tx.state() != State::Closed {
            eprintln!("serve_udp: wave {wave} timed out in {:?} before Closed", tx.state());
            return ExitCode::FAILURE;
        }
    }
    if tx.stats.fins_sent != a.waves as u64 || tx.stats.fins_received != a.waves as u64 {
        eprintln!(
            "serve_udp: expected {} FIN exchanges, saw {} sent / {} received",
            a.waves, tx.stats.fins_sent, tx.stats.fins_received
        );
        return ExitCode::FAILURE;
    }
    println!(
        "serve_udp: sent {} bytes in {sent_chunks} chunks over {}, {} closes, fnv1a64={:016x}",
        a.bytes * a.waves,
        a.path.name(),
        tx.stats.fins_sent,
        fnv1a64(&data)
    );
    ExitCode::SUCCESS
}

/// Spawn a server process and a client process for each path and check
/// that both transfers deliver the identical, expected file.
fn selftest(a: &Args) -> ExitCode {
    if std::net::UdpSocket::bind("127.0.0.1:0").is_err() {
        eprintln!("serve_udp: selftest skipped — sandbox denies UDP sockets");
        return ExitCode::from(2);
    }
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("serve_udp: cannot locate own binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let dir = std::env::temp_dir().join(format!("serve_udp_{}", std::process::id()));
    if std::fs::create_dir_all(&dir).is_err() {
        eprintln!("serve_udp: cannot create {}", dir.display());
        return ExitCode::FAILURE;
    }
    let expected = file_bytes(a.bytes);
    let mut digests = Vec::new();
    for path in [Path::NonIlp, Path::Ilp] {
        let out = dir.join(format!("{}.bin", path.name()));
        let addr_file = dir.join(format!("{}.addr", path.name()));
        let mut server = match std::process::Command::new(&exe)
            .args([
                "serve",
                "127.0.0.1:0",
                "--path",
                path.name(),
                "--quiet",
                "--out",
                out.to_str().unwrap(),
                "--addr-file",
                addr_file.to_str().unwrap(),
                "--waves",
                &a.waves.to_string(),
            ])
            .spawn()
        {
            Ok(c) => c,
            Err(e) => {
                eprintln!("serve_udp: cannot spawn server: {e}");
                return ExitCode::FAILURE;
            }
        };
        // The server writes its bound address once the socket is up.
        let deadline = Instant::now() + DEADLINE;
        let addr = loop {
            if let Ok(s) = std::fs::read_to_string(&addr_file) {
                if s.contains(':') {
                    break s;
                }
            }
            if Instant::now() >= deadline {
                let _ = server.kill();
                eprintln!("serve_udp: server never published its address");
                return ExitCode::FAILURE;
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        let client = std::process::Command::new(&exe)
            .args([
                "fetch",
                addr.trim(),
                "--path",
                path.name(),
                "--bytes",
                &a.bytes.to_string(),
                "--waves",
                &a.waves.to_string(),
            ])
            .status();
        let client_ok = matches!(client, Ok(s) if s.success());
        let server_ok = loop {
            match server.try_wait() {
                Ok(Some(s)) => break s.success(),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                _ => {
                    let _ = server.kill();
                    break false;
                }
            }
        };
        if !client_ok || !server_ok {
            eprintln!(
                "serve_udp: {} transfer failed (client ok: {client_ok}, server ok: {server_ok})",
                path.name()
            );
            return ExitCode::FAILURE;
        }
        let got = std::fs::read(&out).unwrap_or_default();
        if got != expected {
            eprintln!(
                "serve_udp: {} delivered {} bytes, expected {} — contents differ",
                path.name(),
                got.len(),
                expected.len()
            );
            return ExitCode::FAILURE;
        }
        digests.push(fnv1a64(&got));
        println!(
            "serve_udp: {} transfer ok ({} bytes, {} wave(s), two processes)",
            path.name(),
            got.len(),
            a.waves
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    if digests.windows(2).any(|w| w[0] != w[1]) {
        eprintln!("serve_udp: ILP and non-ILP deliveries differ");
        return ExitCode::FAILURE;
    }
    println!(
        "serve_udp: selftest passed — ILP and non-ILP byte-identical, fnv1a64={:016x}",
        digests[0]
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut args = std::env::args();
    let _ = args.next();
    let Some(mode) = args.next() else { return usage() };
    match mode.as_str() {
        "probe" => probe(),
        "serve" => {
            let Some(bind) = args.next() else { return usage() };
            match parse_flags(args) {
                Some(a) => serve(&bind, &a),
                None => usage(),
            }
        }
        "fetch" => {
            let Some(server) = args.next() else { return usage() };
            match parse_flags(args) {
                Some(a) => fetch(&server, &a),
                None => usage(),
            }
        }
        "selftest" => match parse_flags(args) {
            Some(a) => selftest(&a),
            None => usage(),
        },
        _ => usage(),
    }
}
