//! Fixture crate root.
pub mod system;
