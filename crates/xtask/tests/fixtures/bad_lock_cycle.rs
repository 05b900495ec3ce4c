//! Rule 5 fixture: every finding here is seeded on purpose — a
//! declaration without a rank, a same-namespace rank inversion, and an
//! A→B / B→A cross-namespace acquisition cycle.

use std::sync::Mutex;

static NAKED: Mutex<u32> = Mutex::new(0);

pub struct Demo {
    // lock-rank: demo.1 — documented outer lock.
    alpha: Mutex<u32>,
    // lock-rank: demo.2 — documented inner lock.
    beta: Mutex<u32>,
}

impl Demo {
    pub fn inverted(&self) -> u32 {
        let b = self.beta.lock().unwrap();
        let a = self.alpha.lock().unwrap();
        *a + *b
    }
}

// lock-rank: x.1 — one half of the seeded A→B / B→A cycle.
static X_SIDE: Mutex<u32> = Mutex::new(0);
// lock-rank: y.1 — the other half.
static Y_SIDE: Mutex<u32> = Mutex::new(0);

pub fn x_then_y() -> u32 {
    let x = X_SIDE.lock().unwrap();
    let y = Y_SIDE.lock().unwrap();
    *x + *y
}

pub fn y_then_x() -> u32 {
    let y = Y_SIDE.lock().unwrap();
    let x = X_SIDE.lock().unwrap();
    *x + *y
}
