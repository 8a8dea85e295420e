//! Per-connection data paths for the server: the four
//! `rpcapp::paths` functions and their two dispatchers under the names
//! this crate's callers import, plus lifecycle glue.
//!
//! The data paths themselves — [`send_chunk_ilp`], [`send_chunk_non_ilp`],
//! [`recv_chunk_ilp`], [`recv_chunk_non_ilp`], the [`send_chunk`] /
//! [`recv_chunk`] pair that picks between them by [`crate::Path`], and
//! the [`Scratch`] they share across connections — live in
//! [`rpcapp::paths`]; the paper's
//! single-pair figures and this server run the same code. Each call
//! names the connection it operates on, so one server drives N of them:
//! connection B's private state (ring, TCB, staging, file, output)
//! competes with A's for the same cache lines, while the shared scratch
//! is re-warmed by whoever ran last — precisely what makes the
//! multi-connection cache question interesting.

use memsim::Mem;
pub use rpcapp::paths::{
    recv_chunk, recv_chunk_ilp, recv_chunk_non_ilp, send_chunk, send_chunk_ilp,
    send_chunk_non_ilp, Scratch,
};
use utcp::{Connection, KernelCtx};

/// Begin teardown on `conn` once every queued byte has been
/// acknowledged: sends the FIN and moves the lifecycle machine forward
/// (ESTABLISHED → FIN_WAIT_1, or CLOSE_WAIT → LAST_ACK). Returns `true`
/// when the close was initiated, `false` while data is still in flight
/// or the connection is already past the point of sending one.
///
/// The FIN is a bare fixed-size header like every other control TPDU,
/// so threading teardown through either data path leaves the ILP ≡
/// non-ILP wire identity untouched.
pub fn close_when_drained<M: Mem>(
    m: &mut M,
    conn: &mut Connection,
    k: &mut impl KernelCtx,
) -> bool {
    if conn.in_flight() != 0 || !conn.state().may_send_data() {
        return false;
    }
    conn.close(m, k);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use cipher::{CipherKernel, SimplifiedSafer};
    use ilp_core::Reject;
    use memsim::layout::AddressSpace;
    use memsim::region::{Region, RegionKind};
    use memsim::NativeMem;
    use rpcapp::ReplyMeta;
    use utcp::{Loopback, SendError};

    struct World {
        space: AddressSpace,
        lb: Loopback,
        tx: Connection,
        rx: Connection,
        scratch: Scratch,
        cipher: SimplifiedSafer,
        file: Region,
        app_out: Region,
    }

    fn world() -> World {
        let mut space = AddressSpace::new();
        let cipher = SimplifiedSafer::alloc(&mut space);
        let mut lb = Loopback::new(&mut space);
        let tx_cfg =
            utcp::UtcpConfig { local_port: 4000, peer_port: 5000, ..Default::default() };
        let (tx, rx) = Connection::pair(&mut space, &mut lb, tx_cfg, 0x1000, 0x9000);
        let scratch = Scratch::alloc(&mut space);
        let file = space.alloc_kind("app_file", 4096, 64, RegionKind::AppData);
        let app_out = space.alloc_kind("app_out", 4096, 64, RegionKind::AppData);
        World { space, lb, tx, rx, scratch, cipher, file, app_out }
    }

    fn meta(seq: u32, offset: u32, data_len: u32) -> ReplyMeta {
        ReplyMeta { request_id: 0x53525621, seq, offset, last: 0, data_len }
    }

    #[test]
    fn ilp_and_non_ilp_interoperate_over_explicit_connections() {
        let mut w = world();
        let mut arena = w.space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        w.cipher.init_world(&mut m);
        for i in 0..1024 {
            m.write_u8(w.file.at(i), ((i * 7 + 3) % 256) as u8);
        }
        let a = meta(0, 0, 600);
        send_chunk_ilp(&w.scratch, w.cipher, &mut m, &mut w.tx, &mut w.lb, &a, w.file.base)
            .unwrap();
        let got = recv_chunk_non_ilp(&w.scratch, &w.cipher, &mut m, &mut w.rx, &mut w.lb, w.app_out)
            .expect("delivered")
            .expect("accepted");
        assert_eq!(got, a);
        while w.tx.poll_input(&mut m, &mut w.lb).is_some() {}
        let b = meta(1, 600, 400);
        send_chunk_non_ilp(&w.scratch, &w.cipher, &mut m, &mut w.tx, &mut w.lb, &b, w.file.at(600))
            .unwrap();
        let got = recv_chunk_ilp(&w.scratch, w.cipher, &mut m, &mut w.rx, &mut w.lb, w.app_out)
            .expect("delivered")
            .expect("accepted");
        assert_eq!(got, b);
        for i in 0..1000 {
            assert_eq!(m.bytes(w.app_out.at(i), 1)[0], ((i * 7 + 3) % 256) as u8, "byte {i}");
        }
    }

    #[test]
    fn pipeline_transfer_tears_down_to_closed_on_both_sides() {
        use utcp::State;
        let mut w = world();
        let mut arena = w.space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        w.cipher.init_world(&mut m);
        for i in 0..512 {
            m.write_u8(w.file.at(i), (i % 241) as u8);
        }
        let a = meta(0, 0, 512);
        send_chunk_ilp(&w.scratch, w.cipher, &mut m, &mut w.tx, &mut w.lb, &a, w.file.base)
            .unwrap();
        // Close refuses while the chunk is unacknowledged.
        assert!(!close_when_drained(&mut m, &mut w.tx, &mut w.lb));
        assert_eq!(w.tx.state(), State::Established);
        recv_chunk_ilp(&w.scratch, w.cipher, &mut m, &mut w.rx, &mut w.lb, w.app_out)
            .expect("delivered")
            .expect("accepted");
        while w.tx.poll_input(&mut m, &mut w.lb).is_some() {}
        // Drained: the close goes out and the peer answers in kind.
        assert!(close_when_drained(&mut m, &mut w.tx, &mut w.lb));
        assert_eq!(w.tx.state(), State::FinWait1);
        while w.rx.poll_input(&mut m, &mut w.lb).is_some() {}
        assert_eq!(w.rx.state(), State::CloseWait);
        assert!(close_when_drained(&mut m, &mut w.rx, &mut w.lb));
        assert_eq!(w.rx.state(), State::LastAck);
        while w.tx.poll_input(&mut m, &mut w.lb).is_some() {}
        while w.rx.poll_input(&mut m, &mut w.lb).is_some() {}
        assert_eq!(w.tx.state(), State::TimeWait);
        assert_eq!(w.rx.state(), State::Closed);
        for _ in 0..2 * utcp::MSL_TICKS {
            w.tx.tick(&mut m, &mut w.lb);
        }
        assert_eq!(w.tx.state(), State::Closed);
        // A closed pipeline refuses new work with the lifecycle error.
        let b = meta(1, 0, 64);
        assert!(matches!(
            send_chunk_ilp(&w.scratch, w.cipher, &mut m, &mut w.tx, &mut w.lb, &b, w.file.base),
            Err(SendError::Closing)
        ));
    }

    #[test]
    fn corrupted_segment_rejected_in_the_final_stage() {
        let mut w = world();
        w.lb.set_faults(utcp::FaultPlan { corrupt_every: 1, ..Default::default() });
        let mut arena = w.space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        w.cipher.init_world(&mut m);
        let a = meta(0, 0, 200);
        send_chunk_ilp(&w.scratch, w.cipher, &mut m, &mut w.tx, &mut w.lb, &a, w.file.base)
            .unwrap();
        let outcome = recv_chunk_ilp(&w.scratch, w.cipher, &mut m, &mut w.rx, &mut w.lb, w.app_out)
            .expect("delivered");
        assert!(matches!(outcome, Err(Reject::BadChecksum { .. })));
        assert_eq!(w.rx.stats.accepted, 0);
    }
}
