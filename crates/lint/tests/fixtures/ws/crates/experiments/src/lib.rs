//! Fixture crate root.
pub mod workers;
