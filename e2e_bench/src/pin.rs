//! CPU pinning for the measured phases.
//!
//! A session is a ping-pong between the client thread and the server's
//! reactor and worker threads. Left to the scheduler, each hand-off may
//! wake a thread on the other CPU; on a virtual machine that is an
//! inter-processor interrupt to a vCPU the host may have descheduled,
//! and what it costs depends on the host's load, not on the program.
//! Unpinned, the median view time of one `roam` seed ranged from 2.3 to
//! 4.8 ms between runs on a shared 2-vCPU host. So every measured
//! operation runs with the client's session thread and every thread of
//! the server on one CPU. Set-up is not pinned: preprocessing uses the
//! cores a user would give it, and the server sizes itself at start-up
//! from the CPUs it sees.

use std::path::Path;

/// Bytes of a `cpu_set_t` (1024 CPUs).
const SET_BYTES: usize = 128;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u8) -> i32;
}

/// The CPU the measured phases run on: the first this process may use,
/// or `None` when the affinity mask cannot be read.
pub fn chosen_cpu() -> Option<usize> {
    let mut mask = [0u8; SET_BYTES];
    // SAFETY: `mask` is a writable buffer of exactly `SET_BYTES` bytes.
    let rc = unsafe { sched_getaffinity(0, SET_BYTES, mask.as_mut_ptr()) };
    if rc != 0 {
        return None;
    }
    (0..SET_BYTES * 8).find(|&c| mask[c / 8] & (1 << (c % 8)) != 0)
}

/// Pin thread `tid` (0: the calling thread) to `cpu`.
pub fn pin_thread(tid: i32, cpu: usize) -> Result<(), String> {
    let mut mask = [0u8; SET_BYTES];
    mask[cpu / 8] |= 1 << (cpu % 8);
    // SAFETY: `mask` is a readable buffer of exactly `SET_BYTES` bytes.
    let rc = unsafe { sched_setaffinity(tid, SET_BYTES, mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(format!(
            "pin thread {tid} to cpu {cpu}: {}",
            std::io::Error::last_os_error()
        ))
    }
}

/// Pin every thread process `pid` has now to `cpu`.
pub fn pin_process(pid: u32, cpu: usize) -> Result<(), String> {
    let dir = Path::new("/proc").join(pid.to_string()).join("task");
    let tasks = std::fs::read_dir(&dir).map_err(|e| format!("list {}: {e}", dir.display()))?;
    for t in tasks.flatten() {
        if let Some(tid) = t.file_name().to_str().and_then(|n| n.parse().ok()) {
            pin_thread(tid, cpu)?;
        }
    }
    Ok(())
}
