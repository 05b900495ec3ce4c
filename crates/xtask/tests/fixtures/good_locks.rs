//! Rule 5/6 fixture: a correctly ranked two-lock hierarchy. The
//! analyzer must report nothing here — ordered acquisition, a guard
//! dropped before a blocking call, a guard consumed by `Condvar::wait`,
//! and a waived third-party lock are all clean patterns.

use std::sync::{Condvar, Mutex};

pub struct Engine {
    // lock-rank: demo.1 — outer lock of the fixture hierarchy.
    control: Mutex<u32>,
    // lock-rank: demo.2 — inner lock, only ever taken under `control`.
    data: Mutex<Vec<u8>>,
}

impl Engine {
    pub fn ordered(&self) -> usize {
        let c = self.control.lock().unwrap();
        let d = self.data.lock().unwrap();
        (*c as usize) + d.len()
    }

    pub fn drop_then_wait(&self, rx: &std::sync::mpsc::Receiver<u8>) -> Option<u8> {
        let d = self.data.lock().unwrap();
        let len = d.len();
        drop(d);
        rx.recv().ok().filter(|_| len > 0)
    }

    pub fn consumed_by_wait(&self, cv: &Condvar) -> u32 {
        let c = self.control.lock().unwrap();
        // The guard moves into the wait and is not held across it.
        let after = cv.wait(c).unwrap();
        *after
    }
}

pub struct ExternalHandle {
    // lock-rank: demo.3 — leaf; acquired below through a field name the
    // analyzer cannot tie back to this declaration, hence the waiver.
    pub inner: Mutex<u32>,
}

pub fn external(handle: &ExternalHandle) -> u32 {
    // lock-ok: accessed through a borrowed handle whose field name does
    // not match any ranked declaration; nothing else is held here.
    let g = handle.reborrow.lock().unwrap();
    *g
}
