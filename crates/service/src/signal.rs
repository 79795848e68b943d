//! SIGINT/SIGTERM → graceful-shutdown flag.
//!
//! The workspace carries no `libc` dependency, so the handler is
//! installed through a direct `signal(2)` FFI declaration — the one
//! unsafe carve-out in the crate, gated to Unix. The handler only stores
//! to an atomic (async-signal-safe); the serve loop polls the flag and
//! performs the actual drain/flush on its own thread.

use std::sync::atomic::{AtomicBool, Ordering};

static SHUTDOWN_REQUESTED: AtomicBool = AtomicBool::new(false);

/// Whether a termination signal arrived since [`install`].
pub fn shutdown_requested() -> bool {
    SHUTDOWN_REQUESTED.load(Ordering::Acquire)
}

#[cfg(unix)]
#[allow(unsafe_code)]
mod sys {
    use std::sync::atomic::Ordering;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" fn on_signal(_signum: i32) {
        super::SHUTDOWN_REQUESTED.store(true, Ordering::Release);
    }

    pub(super) fn install() {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        // SAFETY: `signal` with a function pointer whose body is a single
        // atomic store is async-signal-safe; the previous disposition is
        // discarded deliberately (the serve loop owns shutdown).
        let handler = on_signal as extern "C" fn(i32) as usize;
        unsafe {
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
    }
}

#[cfg(not(unix))]
mod sys {
    pub(super) fn install() {}
}

/// Install the SIGINT/SIGTERM handler (no-op off Unix). Idempotent.
pub fn install() {
    sys::install();
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;

    #[test]
    fn raised_signal_sets_the_flag() {
        install();
        // A sibling test may already have raised the flag, so only the
        // post-signal state is asserted below.
        let _ = shutdown_requested();
        // Raise SIGINT at ourselves through the libc-free declaration.
        #[allow(unsafe_code)]
        {
            extern "C" {
                fn raise(signum: i32) -> i32;
            }
            unsafe {
                raise(2);
            }
        }
        assert!(shutdown_requested());
    }
}
