// Fixture: a lock-order inversion that only exists across calls —
// each function alone takes at most one mutex and is locally clean.
use std::sync::Mutex;

pub struct Ledger {
    book: Mutex<Vec<f64>>,
    audit: Mutex<Vec<f64>>,
}

impl Ledger {
    pub fn settle(&self) {
        let held = self.book.lock();
        self.note();
        drop(held);
    }

    fn note(&self) {
        let entry = self.audit.lock();
        drop(entry);
    }

    pub fn review(&self) {
        let held = self.audit.lock();
        self.touch();
        drop(held);
    }

    fn touch(&self) {
        let entry = self.book.lock();
        drop(entry);
    }
}
