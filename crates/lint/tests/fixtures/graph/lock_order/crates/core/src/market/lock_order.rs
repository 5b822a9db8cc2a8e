//! Fixture: lock-order violations inside one function (rule `lock-graph`).

use std::sync::{Mutex, RwLock};

pub fn stripe_under_core_write(core: &RwLock<u32>, stripes: &[Mutex<u32>; 2]) {
    let mut guard = core.write().unwrap();
    *guard += 1;
    let s = stripes[0].lock();
    drop(s);
}

pub fn descending_stripes(stripes: &[Mutex<u32>; 2]) {
    let a = stripes[1].lock();
    let b = stripes[0].lock();
    drop(a);
    drop(b);
}

pub fn descending_without_overlap(stripes: &[Mutex<u32>; 2]) {
    drop(stripes[1].lock());
    drop(stripes[0].lock());
}

pub fn reverse_walk(stripes: &[Mutex<u32>; 2]) -> usize {
    let guards: Vec<_> = stripes.iter().rev().map(|s| s.lock()).collect();
    guards.len()
}

pub fn loop_under_held_stripe(stripes: &[Mutex<u32>; 4]) {
    let held = stripes[3].lock();
    for s in stripes.iter() {
        let _g = s.lock();
    }
    drop(held);
}

pub fn let_alias_under_write(core: &RwLock<u32>, stripes: &[Mutex<u32>; 4]) {
    let last = &stripes[3];
    let _w = core.write();
    drop(last.lock());
}
