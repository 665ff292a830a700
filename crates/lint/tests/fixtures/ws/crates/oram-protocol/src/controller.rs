//! Fixture hot-path file: clean.

pub fn access() -> u64 {
    4
}
