//! Per-connection accounting and the fairness metric.

/// What one connection did over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PerConnStats {
    /// Application payload bytes delivered to this connection's client.
    pub payload_bytes: u64,
    /// Reply chunks delivered.
    pub chunks: u64,
    /// Segments the client rejected (checksum, out-of-order, format).
    pub rejected: u64,
    /// Retransmissions on the server side of this connection.
    pub retransmits: u64,
    /// Duplicate-ACK/SACK-driven retransmissions among those.
    pub fast_retransmits: u64,
    /// Virtual tick at which the handshake completed.
    pub established_at: u64,
    /// Virtual tick at which the last chunk was delivered (0 = never).
    pub completed_at: u64,
}

/// Jain's fairness index over per-connection shares (the health
/// engine's, under the name the server's reports have always used).
pub use obs::health::jain as jain_fairness;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_shares_score_one() {
        let idx = jain_fairness(&[5.0, 5.0, 5.0, 5.0]);
        assert!((idx - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_hog_scores_one_over_n() {
        let idx = jain_fairness(&[10.0, 0.0, 0.0, 0.0]);
        assert!((idx - 0.25).abs() < 1e-12);
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(jain_fairness(&[]), 1.0);
        assert_eq!(jain_fairness(&[0.0, 0.0]), 1.0);
    }

    #[test]
    fn hostile_inputs_are_clamped() {
        assert_eq!(jain_fairness(&[f64::NAN, f64::NAN]), 1.0);
        let idx = jain_fairness(&[5.0, f64::NAN, -3.0, f64::INFINITY]);
        assert!((idx - 0.25).abs() < 1e-12, "bad shares count as zero: {idx}");
        assert!((jain_fairness(&[-1.0, -1.0]) - 1.0).abs() < 1e-12);
    }
}
