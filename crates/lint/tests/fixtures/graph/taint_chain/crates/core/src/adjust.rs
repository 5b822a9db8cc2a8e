// Fixture: det-scope entry point tainted through a non-det callee.
pub fn adjusted_price(x: f64) -> f64 {
    x + wall_jitter()
}

pub fn tie_break() -> u32 {
    last_seen(std::collections::HashSet::new())
}
