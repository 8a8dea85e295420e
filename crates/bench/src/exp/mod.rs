//! The experiments behind the rows of [`crate::table::TABLE`]. Every
//! runner has the row signature: it prints its tables to stdout and
//! returns the report document, if the row has one, for the driver to
//! write.

pub mod atom_axp;
pub mod calibrate;
pub mod churn;
pub mod ciphers;
pub mod des_ablation;
pub mod dispatch;
pub mod dst;
pub mod health;
pub mod loss;
pub mod micro;
pub mod observe;
pub mod placement;
pub mod segtrace;
pub mod server_scale;
pub mod store_grain;
pub mod sweep;
pub mod trace;

use std::hint::black_box;
use std::time::Instant;

/// Native wall-clock throughput in Mbps of `f`, which processes `bytes`
/// per call: `warmup` untimed calls, then `iters` calls under one
/// [`Instant`].
fn time_mbps<T>(bytes: usize, warmup: u64, iters: u64, mut f: impl FnMut() -> T) -> f64 {
    for _ in 0..warmup {
        black_box(f());
    }
    let start = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    (iters as f64 * bytes as f64 * 8.0) / start.elapsed().as_secs_f64() / 1e6
}
