//! A USIMM-style DRAM memory-system model.
//!
//! The IR-ORAM paper evaluates on USIMM, "a trace-based simulator … for
//! cycle-accurate DRAM memory simulation" (Section V). This crate is the
//! from-scratch Rust substitute: a transaction-level DDR3 model with
//!
//! * per-channel command/data-bus serialization,
//! * per-bank row-buffer state machines with activate / precharge /
//!   CAS timing constraints ([`DramTimings`]),
//! * FR-FCFS scheduling (row hits first, then oldest) within a reorder
//!   window ([`DramSystem`]),
//! * configurable address interleaving ([`AddressMapping`]), and
//! * the ORAM **subtree data layout** of Ren et al. \[25\] that packs small
//!   subtrees into DRAM rows so a path access enjoys row-buffer hits
//!   ([`SubtreeLayout`]).
//!
//! Timing is expressed in DRAM clock cycles (800 MHz for the paper's
//! DDR3-1600 configuration); callers convert with
//! [`iroram_sim_engine::ClockRatio`].
//!
//! # Examples
//!
//! ```
//! use iroram_dram::{DramConfig, DramSystem, MemRequest};
//! use iroram_sim_engine::Cycle;
//!
//! let mut dram = DramSystem::new(DramConfig::default());
//! let done = dram.schedule_batch(&[
//!     MemRequest::read(0x0, Cycle(0)),
//!     MemRequest::write(0x40, Cycle(0)),
//! ]);
//! assert_eq!(done.len(), 2);
//! assert!(done[0].completion > Cycle(0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod address;
mod bank;
mod subtree;
mod system;
mod timing;

pub use address::{AddressMapping, DecodedAddr, Interleave};
pub use bank::BankState;
pub use subtree::{PathTable, SubtreeLayout};
#[cfg(any(test, feature = "reference-scheduler"))]
pub use system::reference;
pub use system::{Completion, DramConfig, DramStats, DramSystem, MemRequest};
pub use timing::DramTimings;
