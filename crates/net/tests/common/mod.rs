//! Process helpers shared by the carrier test binaries (Linux `/proc`).

use std::time::{Duration, Instant};

/// Whether `pid` is a running process: reaped and zombie processes are
/// not. (A PID could in principle be recycled, but not in the
/// microseconds these checks look at it.)
pub fn running(pid: u32) -> bool {
    std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .map(|s| !s.contains(") Z "))
        .unwrap_or(false)
}

/// SIGKILLs `pid` and waits until it has stopped running, so its sockets
/// are closed by the time this returns.
pub fn sigkill(pid: u32) {
    let status = std::process::Command::new("kill")
        .args(["-9", &pid.to_string()])
        .status()
        .expect("run kill");
    assert!(status.success(), "kill -9 {pid} failed");
    let deadline = Instant::now() + Duration::from_secs(10);
    while running(pid) {
        assert!(Instant::now() < deadline, "{pid} survived SIGKILL");
        std::thread::sleep(Duration::from_millis(2));
    }
}
