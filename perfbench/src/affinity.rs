//! Round-robin CPU pinning for the measuring thread.
//!
//! On a shared host each CPU slows down on its own, for seconds to
//! minutes, whenever another tenant loads the physical core behind it,
//! and the scheduler leaves a lone busy thread where it is. Moving the
//! thread to the next allowed CPU before each pass and each set-up gives
//! every job repetitions on every CPU, so the fastest repetition finds
//! whichever CPU is quiet. Without Linux affinity calls this does nothing.

/// Allowed CPUs, visited in turn.
pub struct Rotation {
    cpus: Vec<usize>,
    next: usize,
}

impl Rotation {
    /// The CPUs this process may run on now (empty where they are unknown,
    /// and then [`Rotation::advance`] does nothing).
    pub fn new() -> Self {
        Rotation {
            cpus: sys::allowed(),
            next: 0,
        }
    }

    /// Pins the calling thread to the next CPU of the rotation.
    pub fn advance(&mut self) {
        if self.cpus.len() > 1 {
            sys::pin(self.cpus[self.next % self.cpus.len()]);
            self.next += 1;
        }
    }
}

#[cfg(target_os = "linux")]
mod sys {
    /// glibc's `cpu_set_t`: a 1024-bit mask.
    const SET_BYTES: usize = 128;

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u8) -> i32;
    }

    pub fn allowed() -> Vec<usize> {
        let mut mask = [0u8; SET_BYTES];
        // SAFETY: `mask` is SET_BYTES long; pid 0 is the calling thread.
        if unsafe { sched_getaffinity(0, SET_BYTES, mask.as_mut_ptr()) } != 0 {
            return Vec::new();
        }
        (0..SET_BYTES * 8)
            .filter(|cpu| mask[cpu / 8] & (1 << (cpu % 8)) != 0)
            .collect()
    }

    pub fn pin(cpu: usize) {
        let mut mask = [0u8; SET_BYTES];
        mask[cpu / 8] |= 1 << (cpu % 8);
        // SAFETY: as above. A failed call leaves the thread where it was,
        // which only costs the rotation's benefit.
        unsafe { sched_setaffinity(0, SET_BYTES, mask.as_ptr()) };
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub fn allowed() -> Vec<usize> {
        Vec::new()
    }

    pub fn pin(_cpu: usize) {}
}
