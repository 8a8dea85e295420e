//! Backend equivalence: the same seeded scenario must produce
//! byte-identical application-level delivery over the in-process
//! [`utcp::Loopback`] and over the [`netback::UdpBackend`] run between
//! two threads (fault-free case).
//!
//! This is the contract the whole PR rests on: the [`utcp::KernelPart`]
//! seam changes *where datagrams travel*, never *what the application
//! sees*. Both legs drive the identical non-ILP connection code —
//! `send_buf` → `poll_input` → `verify_checksum` → `finish_recv` —
//! over the identical message schedule; only the backend differs.

use checksum::internet::checksum_buf;
use memsim::{AddressSpace, NativeMem};
use netback::UdpBackend;
use std::time::{Duration, Instant};
use utcp::rng::XorShift64;
use utcp::{Connection, KernelPart, Loopback, UtcpConfig};

const SEED: u64 = 0xE9_0001;
const N_MSGS: usize = 12;
const TX_IP: u32 = 0x0A00_0001;
const RX_IP: u32 = 0x0A00_0002;
const TX_PORT: u16 = 1000;
const RX_PORT: u16 = 2000;
const TX_ISS: u32 = 0x1111_0000;
const RX_ISS: u32 = 0x2222_0000;

/// The seeded message schedule: lengths and contents are a pure
/// function of SEED, identical for both legs.
fn schedule() -> Vec<Vec<u8>> {
    let mut rng = XorShift64::new(SEED);
    (0..N_MSGS)
        .map(|_| {
            let len = 32 + rng.below(1200) as usize;
            (0..len).map(|_| rng.next_u64() as u8).collect()
        })
        .collect()
}

fn tx_cfg() -> UtcpConfig {
    UtcpConfig {
        local_port: TX_PORT,
        peer_port: RX_PORT,
        local_ip: TX_IP,
        peer_ip: RX_IP,
        ..Default::default()
    }
}

fn rx_cfg() -> UtcpConfig {
    tx_cfg().mirror()
}

/// Drive the schedule over the loop-back: sender and receiver share
/// one address space, as in every deterministic experiment.
fn run_over_loopback(msgs: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let mut space = AddressSpace::new();
    let mut lb = Loopback::new(&mut space);
    let mut tx = Connection::new(&mut space, &mut lb, tx_cfg(), TX_ISS);
    let mut rx = Connection::new(&mut space, &mut lb, rx_cfg(), RX_ISS);
    tx.set_peer_iss(RX_ISS);
    rx.set_peer_iss(TX_ISS);
    let src = space.alloc("src", 2048, 8);
    let mut arena = space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    let mut delivered = Vec::new();
    for msg in msgs {
        m.bytes_mut(src.base, msg.len()).copy_from_slice(msg);
        tx.send_buf(&mut m, &mut lb, src.base, msg.len()).expect("loopback send");
        let d = rx.poll_input(&mut m, &mut lb).expect("delivered in the same round");
        assert!(rx.verify_checksum(&mut m, &d));
        delivered.push(m.bytes(d.payload_addr, d.payload_len).to_vec());
        let sum = checksum_buf(&mut m, d.payload_addr, d.payload_len);
        rx.finish_recv(&mut m, &mut lb, &d, sum).expect("in-order accept");
        assert!(tx.poll_input(&mut m, &mut lb).is_none()); // consume ACK
    }
    delivered
}

/// Drive the schedule over real UDP sockets: the receiver runs in its
/// own thread with its own address space, playing the second OS
/// process of the paper's loop-back pair.
fn run_over_udp(msgs: &[Vec<u8>]) -> Option<Vec<Vec<u8>>> {
    let deadline = Instant::now() + Duration::from_secs(30);

    let mut tx_space = AddressSpace::new();
    let mut tx_net = UdpBackend::bind(&mut tx_space, "127.0.0.1:0").ok()?;
    let mut rx_space = AddressSpace::new();
    let mut rx_net = UdpBackend::bind(&mut rx_space, "127.0.0.1:0").ok()?;
    tx_net.set_peer(rx_net.local_addr().ok()?).ok()?;
    rx_net.set_peer(tx_net.local_addr().ok()?).ok()?;

    let expected: usize = msgs.len();
    let receiver = std::thread::spawn(move || {
        let mut rx = Connection::new(&mut rx_space, &mut rx_net, rx_cfg(), RX_ISS);
        rx.set_peer_iss(TX_ISS);
        let mut arena = rx_space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        let mut delivered: Vec<Vec<u8>> = Vec::new();
        while delivered.len() < expected && Instant::now() < deadline {
            match rx.poll_input(&mut m, &mut rx_net) {
                Some(d) => {
                    assert!(rx.verify_checksum(&mut m, &d), "clean wire, checksum must hold");
                    let payload = m.bytes(d.payload_addr, d.payload_len).to_vec();
                    let sum = checksum_buf(&mut m, d.payload_addr, d.payload_len);
                    if rx.finish_recv(&mut m, &mut rx_net, &d, sum).is_ok() {
                        delivered.push(payload);
                    }
                }
                None => std::thread::sleep(Duration::from_millis(1)),
            }
        }
        delivered
    });

    let mut tx = Connection::new(&mut tx_space, &mut tx_net, tx_cfg(), TX_ISS);
    tx.set_peer_iss(RX_ISS);
    let src = tx_space.alloc("src", 2048, 8);
    let mut arena = tx_space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    let mut next = 0usize;
    let mut last_tick = Instant::now();
    while (next < msgs.len() || tx.in_flight() > 0) && Instant::now() < deadline {
        if next < msgs.len() && tx.can_send(msgs[next].len()) {
            let msg = &msgs[next];
            m.bytes_mut(src.base, msg.len()).copy_from_slice(msg);
            if tx.send_buf(&mut m, &mut tx_net, src.base, msg.len()).is_ok() {
                next += 1;
            }
        }
        let _ = tx.poll_input(&mut m, &mut tx_net); // consume ACKs
        // Advance the retransmission clock on wall time so a (highly
        // unlikely) loss on 127.0.0.1 cannot stall the run.
        if last_tick.elapsed() >= Duration::from_millis(20) {
            tx.tick(&mut m, &mut tx_net);
            last_tick = Instant::now();
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    let delivered = receiver.join().expect("receiver thread");
    Some(delivered)
}

#[test]
fn loopback_and_udp_deliver_byte_identical_streams() {
    let msgs = schedule();
    let over_loopback = run_over_loopback(&msgs);
    assert_eq!(over_loopback, msgs, "loop-back must deliver the schedule verbatim");
    let Some(over_udp) = run_over_udp(&msgs) else {
        eprintln!("skipping UDP leg: sandbox denies sockets");
        return;
    };
    assert_eq!(
        over_udp.len(),
        over_loopback.len(),
        "UDP leg delivered {}/{} messages before the deadline",
        over_udp.len(),
        over_loopback.len()
    );
    assert_eq!(over_udp, over_loopback, "application-level delivery must be byte-identical");
}

/// The trait seam itself, cross-checked: a function generic over
/// [`KernelPart`] observes the same registered-port behaviour from
/// both backends.
#[test]
fn generic_code_sees_the_same_contract_from_both_backends() {
    fn probe<K: KernelPart>(net: &mut K) -> (usize, u64) {
        let ep = net.register(4242);
        (net.pending(ep), net.counters().corrupted)
    }
    let mut space = AddressSpace::new();
    let mut lb = Loopback::new(&mut space);
    assert_eq!(probe(&mut lb), (0, 0));
    if let Ok(mut udp) = UdpBackend::bind(&mut space, "127.0.0.1:0") {
        assert_eq!(probe(&mut udp), (0, 0));
    }
}
