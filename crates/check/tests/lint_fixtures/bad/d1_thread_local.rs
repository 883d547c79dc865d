//! D1 fixture: per-OS-thread state (must fire on line 6, and only there).
//! A strand may resume on a different OS thread than it yielded on, so a
//! thread-local would make its value depend on the host's scheduling.

use std::cell::Cell;
thread_local! { static DEPTH: Cell<u32> = const { Cell::new(0) }; }

pub fn enter() -> u32 {
    DEPTH.with(|d| {
        d.set(d.get() + 1);
        d.get()
    })
}
