//! Cost model for the BSD in-kernel TCP comparator (paper Figure 12).
//!
//! The paper compares its user-level implementations against the stock
//! BSD kernel TCP and observes that the kernel version is faster because
//! "the code is more optimized and acknowledgment packets do not cross
//! the user/kernel domain as it does in a user-level TCP implementation".
//! We do not build a second TCP; we model precisely the two effects the
//! paper names, applied on top of the *same* simulated data-manipulation
//! costs (which are protocol work, not placement work):
//!
//! * ACKs are generated and consumed inside the kernel: the per-packet
//!   loop-back path saves the extra user/kernel crossings and the
//!   associated task switches ([`KernelTcpModel::DRIVER_FACTOR`] applied
//!   to the host's driver/task-switch charge, plus two crossings saved);
//! * TCP control processing is the mature BSD path rather than a
//!   user-space library ([`KernelTcpModel::CONTROL_FACTOR`] applied to
//!   the per-packet user overhead).
//!
//! With kernel TCP, the application still runs (un)marshalling and
//! de/encryption in user space as separate passes — ILP across the
//! user/kernel boundary is impossible, which is the paper's point: the
//! user-level stack *enables* the integration that kernel TCP forbids.

use memsim::HostModel;

/// The kernel-TCP placement model.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelTcpModel;

impl KernelTcpModel {
    /// Fraction of the loop-back driver/task-switch charge that remains
    /// when ACKs never surface to user space.
    pub const DRIVER_FACTOR: f64 = 0.55;

    /// Fraction of the user-level per-packet control overhead the mature
    /// kernel path costs.
    pub const CONTROL_FACTOR: f64 = 0.5;

    /// Per-packet system time (µs) for the kernel-TCP configuration:
    /// `syscopy_us` is the simulated system-copy cost and `checksum_us`
    /// the simulated checksum pass (both still happen, now in the
    /// kernel); crossings are the two data syscalls only.
    pub fn system_us(host: &HostModel, syscopy_us: f64, checksum_us: f64) -> f64 {
        syscopy_us
            + checksum_us
            + 2.0 * host.syscall_us
            + host.driver_us * Self::DRIVER_FACTOR
            + 2.0 * host.per_packet_user_us * Self::CONTROL_FACTOR
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_overhead_is_lower_than_user_level() {
        for host in HostModel::all() {
            let kernel = KernelTcpModel::system_us(&host, 50.0, 20.0);
            // User-level placement: the same copy and checksum, the full
            // driver charge, full-price control processing.
            let user = 50.0 + 2.0 * host.syscall_us + host.driver_us + 20.0
                + 2.0 * host.per_packet_user_us;
            assert!(kernel < user, "{}: kernel {kernel} vs user {user}", host.name);
        }
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn factors_are_sane_fractions() {
        assert!(KernelTcpModel::DRIVER_FACTOR > 0.0 && KernelTcpModel::DRIVER_FACTOR < 1.0);
        assert!(KernelTcpModel::CONTROL_FACTOR > 0.0 && KernelTcpModel::CONTROL_FACTOR < 1.0);
    }
}
