//! Rule 6 fixture: guards held across blocking calls — directly, and
//! transitively through a workspace fn that sleeps — plus the two clean
//! shapes (drop-before-block, explicit waiver).

use std::sync::mpsc::Receiver;
use std::sync::Mutex;

pub struct Hub {
    // lock-rank: hub.1 — fixture lock.
    state: Mutex<u32>,
}

fn settle() {
    std::thread::sleep(std::time::Duration::from_millis(1));
}

impl Hub {
    pub fn bad_direct(&self, rx: &Receiver<u32>) -> u32 {
        let g = self.state.lock().unwrap();
        let v = rx.recv().unwrap_or(0);
        *g + v
    }

    pub fn bad_transitive(&self) -> u32 {
        let g = self.state.lock().unwrap();
        settle();
        *g
    }

    pub fn good_dropped(&self, rx: &Receiver<u32>) -> u32 {
        let g = self.state.lock().unwrap();
        let held = *g;
        drop(g);
        rx.recv().unwrap_or(held)
    }

    pub fn waived(&self, rx: &Receiver<u32>) -> u32 {
        let g = self.state.lock().unwrap();
        // blocking-ok: fixture demonstrating the waiver grammar.
        let v = rx.recv().unwrap_or(0);
        *g + v
    }
}
