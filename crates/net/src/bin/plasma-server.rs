//! The `plasma-server` worker binary: hosts one server group's worker loop
//! in its own OS process. Spawned by `NetBackend::launch`; not
//! meant to be run by hand (it immediately dials back to the coordinator
//! address it was given and exits when that connection closes).

use std::process::ExitCode;

fn main() -> ExitCode {
    let (addr, group) = match plasma_net::worker::parse_args(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("plasma-server: {e}");
            eprintln!("usage: plasma-server --connect HOST:PORT --group N");
            return ExitCode::from(2);
        }
    };
    match plasma_net::worker::run(&addr, group) {
        Ok(_exit) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("plasma-server (group {group}): {e}");
            ExitCode::FAILURE
        }
    }
}
