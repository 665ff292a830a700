//! Experiment harness regenerating every table and figure of the IR-ORAM
//! paper (HPCA 2022).
//!
//! Each `figN`/`tableN` module reproduces one exhibit of the paper's
//! evaluation: it builds the right system configurations, runs the
//! simulators, and renders the same rows/series the paper reports. The
//! `iroram-bench` crate wraps each module in a binary (`cargo run -p
//! iroram-bench --release --bin fig10`), and `EXPERIMENTS.md` records
//! paper-vs-measured outcomes.
//!
//! Scaling: the paper simulates an 8 GB protected space (`L=25`) for
//! billions of accesses; these experiments default to the scaled tree of
//! [`ir_oram::SystemConfig::scaled`] and shorter windows, controlled by
//! [`ExpOptions`]. Shapes (who wins, by roughly what factor, where
//! crossovers fall) are the reproduction target, not absolute numbers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig6;
pub mod history;
pub mod journal;
pub mod render;
pub mod runner;
pub mod table1;
pub mod table2;

pub use journal::Journal;
pub use render::Table;
pub use runner::{
    geomean, par_map, run_cell_checked, run_matrix, run_scheme, CellError, CellOutcome, ExpOptions,
    MAX_CELL_RETRIES,
};
