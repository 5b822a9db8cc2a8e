//! Fixture: panics on the serve path (rule `panic`).

pub fn first(xs: &[f64]) -> f64 {
    xs[0]
}

pub fn must(opt: Option<f64>) -> f64 {
    opt.unwrap()
}

pub fn labelled(opt: Option<f64>) -> f64 {
    opt.expect("present")
}

pub fn boom() -> f64 {
    panic!("no quote")
}

pub fn bucket(n: usize) -> usize {
    n % 0
}
