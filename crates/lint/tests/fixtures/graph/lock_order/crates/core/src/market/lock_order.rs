//! Fixture: lock order inside one function (rule `lock-graph`).

use std::sync::{Mutex, RwLock};

pub fn publish(core: &RwLock<u32>, sink: &Mutex<u32>) {
    let _w = core.write();
    drop(sink.lock());
}

pub fn settle_under_sink(core: &RwLock<u32>, sink: &Mutex<u32>) {
    let held = sink.lock();
    let _w = core.write();
    drop(held);
}

pub fn released_before_core(core: &RwLock<u32>, owner: &Mutex<u32>) {
    {
        let _g = owner.lock();
    }
    let dropped = owner.lock();
    drop(dropped);
    let _w = core.write();
}

pub fn owner_under_core(core: &RwLock<u32>, owner: &Mutex<u32>) {
    let _w = core.write();
    drop(owner.lock());
}
