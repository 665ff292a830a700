//! Typed simulation errors.
//!
//! The timed controllers and the simulation loop report recoverable failure
//! conditions as [`SimError`] values instead of panicking, so a harness
//! driving many cells in parallel can classify, retry, or skip a failed
//! cell without poisoning its worker pool. Path ORAM treats stash overflow
//! as a probabilistic failure mode (Stefanov et al.), so it is modelled as
//! a *transient* error: a bounded deterministic retry (with a fresh fault
//! stream) is legitimate recovery.

/// A recoverable simulation failure, propagated to the experiment runner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The stash exceeded its hard limit (soft capacity is a pressure
    /// signal; the hard limit is the modelled SRAM's physical size).
    StashOverflow {
        /// Stash occupancy when the limit was breached.
        occupancy: usize,
        /// The hard limit in force.
        hard_limit: usize,
        /// Slot index at which the overflow was observed.
        slot: u64,
    },
    /// A request can never complete: the controller has no pending work
    /// that could produce it (indicates a harness bug, not a fault).
    RequestStuck {
        /// The stuck request's id.
        id: u64,
    },
    /// A trace record's address lies outside the configured block
    /// population (corrupted trace input).
    MalformedRecord {
        /// Zero-based index of the offending record.
        index: u64,
        /// The out-of-range address.
        addr: u64,
        /// The configured data-block population.
        data_blocks: u64,
    },
    /// The protocol rejected a block access (unmapped address, or an
    /// escrow-policy violation): a controller sequencing bug surfaced as a
    /// typed error instead of a protocol panic. Not transient — replaying
    /// the same schedule reproduces it.
    Protocol(iroram_protocol::AccessError),
    /// A checkpoint snapshot could not be written, read, or applied
    /// (I/O failure, framing defect, config mismatch, or state that does
    /// not fit the running configuration). Not transient — the snapshot on
    /// disk does not change between attempts.
    Snapshot(iroram_sim_engine::SnapError),
    /// The ORAM configuration is inconsistent, so no controller can be
    /// built. Not transient — the configuration does not change between
    /// attempts.
    Config(iroram_protocol::ConfigError),
}

impl From<iroram_protocol::AccessError> for SimError {
    fn from(e: iroram_protocol::AccessError) -> Self {
        SimError::Protocol(e)
    }
}

impl From<iroram_sim_engine::SnapError> for SimError {
    fn from(e: iroram_sim_engine::SnapError) -> Self {
        SimError::Snapshot(e)
    }
}

impl From<iroram_protocol::ConfigError> for SimError {
    fn from(e: iroram_protocol::ConfigError) -> Self {
        SimError::Config(e)
    }
}

impl SimError {
    /// Whether a deterministic retry is a sound response (true for fault
    /// classes that model transient physical conditions).
    pub fn is_transient(&self) -> bool {
        matches!(self, SimError::StashOverflow { .. })
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::StashOverflow {
                occupancy,
                hard_limit,
                slot,
            } => write!(
                f,
                "stash overflow at slot {slot}: {occupancy} blocks exceed the hard limit of {hard_limit}"
            ),
            SimError::RequestStuck { id } => {
                write!(f, "request {id} cannot complete: no work pending")
            }
            SimError::MalformedRecord {
                index,
                addr,
                data_blocks,
            } => write!(
                f,
                "trace record {index} is malformed: address {addr:#x} outside the {data_blocks}-block population"
            ),
            SimError::Protocol(e) => write!(f, "protocol rejected access: {e}"),
            SimError::Snapshot(e) => write!(f, "checkpoint snapshot: {e}"),
            SimError::Config(e) => write!(f, "invalid ORAM configuration: {e}"),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_overflow_is_transient() {
        let overflow = SimError::StashOverflow {
            occupancy: 1700,
            hard_limit: 1600,
            slot: 9,
        };
        assert!(overflow.is_transient());
        assert!(!SimError::RequestStuck { id: 3 }.is_transient());
        assert!(!SimError::MalformedRecord {
            index: 0,
            addr: 1,
            data_blocks: 1
        }
        .is_transient());
        let escrow = SimError::from(iroram_protocol::AccessError::NotEscrowed(
            iroram_protocol::BlockAddr(7),
        ));
        assert!(!escrow.is_transient());
        assert!(escrow.to_string().contains("not escrowed"));
        let snap = SimError::from(iroram_sim_engine::SnapError::BadChecksum);
        assert!(!snap.is_transient());
        assert!(snap.to_string().contains("checkpoint snapshot"));
        let config = SimError::from(iroram_protocol::ConfigError::TooFewLevels { levels: 1 });
        assert!(!config.is_transient());
        assert!(config.to_string().contains("invalid ORAM configuration"));
    }

    #[test]
    fn display_messages_carry_context() {
        let e = SimError::MalformedRecord {
            index: 41,
            addr: 0xFFFF,
            data_blocks: 512,
        };
        let msg = e.to_string();
        assert!(msg.contains("record 41"));
        assert!(msg.contains("512-block"));
    }
}
