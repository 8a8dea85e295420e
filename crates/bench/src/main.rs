//! `bench` — every experiment of the repository behind one command
//! line; see [`bench::table`].

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match bench::table::dispatch(bench::table::TABLE, &args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench: {e}");
            ExitCode::FAILURE
        }
    }
}
