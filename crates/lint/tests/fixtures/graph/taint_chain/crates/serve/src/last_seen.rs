// Fixture: a `for` loop over a hash set outside the det crates, whose
// result depends on the set's iteration order.
use std::collections::HashSet;

pub fn last_seen(seen: HashSet<u32>) -> u32 {
    let mut last = 0;
    for k in seen {
        last = k;
    }
    last
}
