//! Physical address decomposition.

/// How line addresses interleave across channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interleave {
    /// Consecutive cache lines rotate across channels (maximizes parallelism
    /// for streaming accesses such as ORAM path reads).
    CacheLine,
    /// Whole rows rotate across channels (keeps a row's lines on one
    /// channel).
    Row,
}

/// Decoded coordinates of a cache-line address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodedAddr {
    /// Memory channel.
    pub channel: u32,
    /// Bank within the channel (rank folded into bank for this model).
    pub bank: u32,
    /// DRAM row within the bank.
    pub row: u64,
    /// Column (line slot) within the row.
    pub col: u32,
}

/// Maps flat cache-line addresses to (channel, bank, row, column).
///
/// Addresses are *line* addresses (one unit = one 64 B cache line). The
/// mapping places `lines_per_row` consecutive (post-interleave) lines in one
/// row and rotates rows across banks, the standard open-page-friendly
/// XOR-free layout used by USIMM's default address mapper.
///
/// # Examples
///
/// ```
/// use iroram_dram::{AddressMapping, Interleave};
/// let m = AddressMapping::new(4, 8, 128, Interleave::CacheLine);
/// let d0 = m.decode(0);
/// let d1 = m.decode(1);
/// assert_ne!(d0.channel, d1.channel); // line-interleaved
/// ```
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct AddressMapping {
    channels: u32,
    banks: u32,
    lines_per_row: u32,
    interleave: Interleave,
    /// `log2` of channels, lines per row and banks; meaningful only when
    /// `pow2`, i.e. all three are powers of two (every stock geometry).
    shifts: (u32, u32, u32),
    pow2: bool,
}

/// The configured dimensions only: `shifts` and `pow2` follow from them,
/// and the `Debug` form is part of the config fingerprint that keys resume
/// journals and the perf history.
impl std::fmt::Debug for AddressMapping {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AddressMapping")
            .field("channels", &self.channels)
            .field("banks", &self.banks)
            .field("lines_per_row", &self.lines_per_row)
            .field("interleave", &self.interleave)
            .finish()
    }
}

impl AddressMapping {
    /// Creates a mapping.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(channels: u32, banks: u32, lines_per_row: u32, interleave: Interleave) -> Self {
        assert!(
            channels > 0 && banks > 0 && lines_per_row > 0,
            "address mapping dimensions must be nonzero"
        );
        AddressMapping {
            channels,
            banks,
            lines_per_row,
            interleave,
            shifts: (
                channels.trailing_zeros(),
                lines_per_row.trailing_zeros(),
                banks.trailing_zeros(),
            ),
            pow2: channels.is_power_of_two()
                && lines_per_row.is_power_of_two()
                && banks.is_power_of_two(),
        }
    }

    /// Number of channels.
    pub fn channels(&self) -> u32 {
        self.channels
    }

    /// Banks per channel.
    pub fn banks(&self) -> u32 {
        self.banks
    }

    /// Lines per DRAM row.
    pub fn lines_per_row(&self) -> u32 {
        self.lines_per_row
    }

    /// Decodes a line address.
    pub fn decode(&self, line_addr: u64) -> DecodedAddr {
        // The scheduler decodes every line of every path, so a power-of-two
        // geometry shifts and masks by exponents worked out in `new`
        // instead of dividing.
        let divmod = |v: u64, d: u32, log2: u32| {
            if self.pow2 {
                (v >> log2, v & ((1u64 << log2) - 1))
            } else {
                (v / u64::from(d), v % u64::from(d))
            }
        };
        let (ch, lpr, banks) = self.shifts;
        let (channel, bank, row, col) = match self.interleave {
            Interleave::CacheLine => {
                let (within, channel) = divmod(line_addr, self.channels, ch);
                let (row_seq, col) = divmod(within, self.lines_per_row, lpr);
                let (row, bank) = divmod(row_seq, self.banks, banks);
                (channel, bank, row, col)
            }
            Interleave::Row => {
                let (row_seq, col) = divmod(line_addr, self.lines_per_row, lpr);
                let (rest, channel) = divmod(row_seq, self.channels, ch);
                let (row, bank) = divmod(rest, self.banks, banks);
                (channel, bank, row, col)
            }
        };
        DecodedAddr {
            channel: channel as u32,
            bank: bank as u32,
            row,
            col: col as u32,
        }
    }
}

impl Default for AddressMapping {
    /// Paper-scale default: 4 channels (Table I), 8 banks, 8 KB rows
    /// (128 × 64 B lines), cache-line interleaved.
    fn default() -> Self {
        AddressMapping::new(4, 8, 128, Interleave::CacheLine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_line_interleave_rotates_channels() {
        let m = AddressMapping::default();
        for a in 0..16u64 {
            assert_eq!(m.decode(a).channel, (a % 4) as u32);
        }
    }

    #[test]
    fn contiguous_lines_share_row_within_channel() {
        let m = AddressMapping::default();
        // Lines 0,4,8,… are channel 0; the first 128 of them share row 0 of
        // bank 0.
        let first = m.decode(0);
        for i in 0..128u64 {
            let d = m.decode(i * 4);
            assert_eq!(d.channel, 0);
            assert_eq!(d.row, first.row);
            assert_eq!(d.bank, first.bank);
            assert_eq!(d.col, i as u32);
        }
        // The 129th rotates to the next bank.
        let next = m.decode(128 * 4);
        assert_eq!(next.bank, first.bank + 1);
    }

    #[test]
    fn row_interleave_keeps_row_on_one_channel() {
        let m = AddressMapping::new(4, 8, 128, Interleave::Row);
        let c0 = m.decode(0).channel;
        for a in 0..128u64 {
            assert_eq!(m.decode(a).channel, c0);
        }
        assert_ne!(m.decode(128).channel, c0);
    }

    #[test]
    fn decode_is_injective_on_window() {
        use std::collections::HashSet;
        for il in [Interleave::CacheLine, Interleave::Row] {
            let m = AddressMapping::new(2, 4, 16, il);
            let set: HashSet<(u32, u32, u64, u32)> = (0..4096u64)
                .map(|a| {
                    let d = m.decode(a);
                    (d.channel, d.bank, d.row, d.col)
                })
                .collect();
            assert_eq!(set.len(), 4096);
        }
    }

    #[test]
    fn decode_matches_plain_division_for_every_geometry() {
        // Power-of-two geometries take the shift path, the rest divide;
        // both must agree with the mapping written out by division.
        for (ch, banks, lpr) in [(4, 8, 128), (2, 4, 16), (1, 1, 1), (3, 5, 12), (4, 6, 128)] {
            for il in [Interleave::CacheLine, Interleave::Row] {
                let m = AddressMapping::new(ch, banks, lpr, il);
                let (ch, banks, lpr) = (u64::from(ch), u64::from(banks), u64::from(lpr));
                for a in (0..20_000u64).chain([u64::MAX / 3, u64::MAX]) {
                    let (channel, bank, row, col) = match il {
                        Interleave::CacheLine => {
                            let row_seq = a / ch / lpr;
                            (a % ch, row_seq % banks, row_seq / banks, a / ch % lpr)
                        }
                        Interleave::Row => {
                            let rest = a / lpr / ch;
                            (a / lpr % ch, rest % banks, rest / banks, a % lpr)
                        }
                    };
                    let want = DecodedAddr {
                        channel: channel as u32,
                        bank: bank as u32,
                        row,
                        col: col as u32,
                    };
                    assert_eq!(m.decode(a), want, "{m:?} line {a}");
                }
            }
        }
    }

    #[test]
    fn debug_form_shows_the_configured_dimensions_only() {
        // The config fingerprint hashes this form.
        assert_eq!(
            format!("{:?}", AddressMapping::default()),
            "AddressMapping { channels: 4, banks: 8, lines_per_row: 128, interleave: CacheLine }"
        );
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn rejects_zero_dims() {
        let _ = AddressMapping::new(0, 8, 128, Interleave::CacheLine);
    }
}
