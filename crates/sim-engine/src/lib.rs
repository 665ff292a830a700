//! Simulation kernel for the IR-ORAM reproduction.
//!
//! This crate provides the domain-neutral pieces every simulator in the
//! workspace builds on:
//!
//! * [`Cycle`] — a newtype for simulated time, with clock-domain conversion
//!   via [`ClockRatio`] (the CPU runs at 3.2 GHz while DDR3-1600 DRAM runs at
//!   800 MHz in the paper's Table I).
//! * [`SimRng`] — a deterministic, seedable xoshiro256++ generator so every
//!   experiment is exactly reproducible from its seed.
//! * [`stats`] — a running mean / variance the experiment harness uses to
//!   report the spread of repeated trials.
//!
//! # Examples
//!
//! ```
//! use iroram_sim_engine::SimRng;
//!
//! let mut rng = SimRng::seed_from(42);
//! let x = rng.gen_range(0..100);
//! assert!(x < 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
mod cycles;
mod faults;
mod pipeline;
pub mod profiler;
mod rng;
pub mod stats;

pub use checkpoint::{SnapError, SnapReader, SnapWriter};
pub use cycles::{ClockRatio, Cycle};
pub use faults::{FaultConfig, FaultPlan, InjectedFaults};
pub use pipeline::FloorRing;
pub use rng::SimRng;
