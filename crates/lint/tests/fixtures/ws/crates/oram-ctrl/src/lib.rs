//! Fixture crate root.
pub mod controller;
pub mod dwb;
pub mod rho;
