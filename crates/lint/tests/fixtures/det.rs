//! Fixture: determinism violations (rule `det`).
use std::collections::HashMap;
use std::time::{Instant, SystemTime};

pub fn wall_clock() -> SystemTime {
    SystemTime::now()
}

pub fn monotonic() -> Instant {
    Instant::now()
}

pub fn iterate() -> f64 {
    let m: HashMap<String, f64> = HashMap::new();
    let mut total = 0.0;
    for (_k, v) in m.iter() {
        total += *v;
    }
    for (_k, v) in &m {
        total += *v;
    }
    total
}

pub fn worker() -> std::thread::ThreadId {
    std::thread::current().id()
}
