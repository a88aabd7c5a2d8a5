//! Physical-address ↔ DRAM-location mapping.
//!
//! Real controllers hash physical address bits onto channel/rank/bank
//! coordinates; attackers reverse-engineer the mapping to colocate rows
//! (§5.2 of the paper cites DRAMA-style reverse engineering). The
//! simulator plays the role of the allocator, so attacks use
//! [`AddressMapping::encode`] to construct addresses that land in chosen
//! banks and rows — the in-simulation analogue of memory massaging.

use lh_dram::{BankId, DramAddr, Geometry, LINE_BYTES};

/// Bit-field address mapping schemes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MappingScheme {
    /// `Row : Rank : BankGroup : Bank : Column : LineOffset` (MSB → LSB):
    /// consecutive cache lines walk a row, adjacent rows stay in one bank.
    RowBankCol,
    /// As [`MappingScheme::RowBankCol`], but the bank and bank-group bits
    /// are XOR-ed with the low row bits (a common controller hash that
    /// spreads conflicting rows over banks).
    XorBank,
}

/// A concrete mapping: a scheme bound to a geometry.
///
/// # Examples
///
/// ```
/// use lh_dram::{DramAddr, Geometry};
/// use lh_memctrl::{AddressMapping, MappingScheme};
///
/// let m = AddressMapping::new(MappingScheme::RowBankCol, Geometry::paper_default());
/// let addr = m.decode(0x1234_5678);
/// assert_eq!(m.encode(addr), 0x1234_5640); // line-aligned
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressMapping {
    scheme: MappingScheme,
    geometry: Geometry,
}

fn log2(v: u32) -> u32 {
    debug_assert!(
        v.is_power_of_two(),
        "geometry dimensions must be powers of two"
    );
    v.trailing_zeros()
}

impl AddressMapping {
    /// Binds `scheme` to `geometry`.
    ///
    /// # Panics
    ///
    /// Panics if any geometry dimension is not a power of two (bit-field
    /// mappings require it).
    pub fn new(scheme: MappingScheme, geometry: Geometry) -> AddressMapping {
        assert!(
            geometry.cols_per_row().is_power_of_two()
                && geometry.banks_per_group().is_power_of_two()
                && geometry.bank_groups_per_rank().is_power_of_two()
                && geometry.ranks_per_channel().is_power_of_two()
                && geometry.rows_per_bank().is_power_of_two()
                && geometry.channels().is_power_of_two(),
            "bit-field mappings require power-of-two dimensions"
        );
        AddressMapping { scheme, geometry }
    }

    /// The bound geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    /// Decodes a physical address to a DRAM location.
    ///
    /// Addresses beyond the channel capacity wrap around.
    pub fn decode(&self, phys: u64) -> DramAddr {
        let g = &self.geometry;
        let mut a = phys / LINE_BYTES;
        let col = (a & (g.cols_per_row() as u64 - 1)) as u32;
        a /= g.cols_per_row() as u64;
        let mut bank = (a & (g.banks_per_group() as u64 - 1)) as u32;
        a /= g.banks_per_group() as u64;
        let mut bank_group = (a & (g.bank_groups_per_rank() as u64 - 1)) as u32;
        a /= g.bank_groups_per_rank() as u64;
        let rank = (a & (g.ranks_per_channel() as u64 - 1)) as u32;
        a /= g.ranks_per_channel() as u64;
        let row = (a % g.rows_per_bank() as u64) as u32;
        if self.scheme == MappingScheme::XorBank {
            bank ^= row & (g.banks_per_group() - 1);
            bank_group ^= (row >> log2(g.banks_per_group())) & (g.bank_groups_per_rank() - 1);
        }
        DramAddr::new(BankId::new(0, rank, bank_group, bank), row, col)
    }

    /// Encodes a DRAM location back to a (line-aligned) physical address.
    ///
    /// This is the exact inverse of [`AddressMapping::decode`], used by
    /// attack code to place data in chosen banks and rows.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the geometry.
    pub fn encode(&self, addr: DramAddr) -> u64 {
        let g = &self.geometry;
        assert!(g.contains(addr), "address {addr} outside geometry");
        let (mut bank, mut bank_group) = (addr.bank.bank, addr.bank.bank_group);
        if self.scheme == MappingScheme::XorBank {
            bank ^= addr.row & (g.banks_per_group() - 1);
            bank_group ^= (addr.row >> log2(g.banks_per_group())) & (g.bank_groups_per_rank() - 1);
        }
        let mut a = addr.row as u64;
        a = a * g.ranks_per_channel() as u64 + addr.bank.rank as u64;
        a = a * g.bank_groups_per_rank() as u64 + bank_group as u64;
        a = a * g.banks_per_group() as u64 + bank as u64;
        a = a * g.cols_per_row() as u64 + addr.col as u64;
        a * LINE_BYTES
    }
}

impl Default for AddressMapping {
    fn default() -> AddressMapping {
        AddressMapping::new(MappingScheme::RowBankCol, Geometry::paper_default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_both_schemes() {
        for scheme in [MappingScheme::RowBankCol, MappingScheme::XorBank] {
            let m = AddressMapping::new(scheme, Geometry::paper_default());
            for phys in [
                0u64,
                64,
                4096,
                1 << 20,
                (1 << 30) + 8 * 64,
                (1 << 35) + 12345 * 64,
            ] {
                let line = phys & !(LINE_BYTES - 1);
                let addr = m.decode(phys);
                assert!(m.geometry().contains(addr), "{scheme:?} {phys:#x}");
                assert_eq!(m.encode(addr), line, "{scheme:?} {phys:#x}");
            }
        }
    }

    #[test]
    fn consecutive_lines_walk_a_row() {
        let m = AddressMapping::default();
        let a0 = m.decode(0);
        let a1 = m.decode(64);
        assert_eq!(a0.bank, a1.bank);
        assert_eq!(a0.row, a1.row);
        assert_eq!(a1.col, a0.col + 1);
    }

    #[test]
    fn row_crossing_changes_bank_before_row() {
        // After one full row of lines, RowBankCol moves to the next bank.
        let m = AddressMapping::default();
        let g = *m.geometry();
        let row_bytes = g.row_bytes();
        let a = m.decode(row_bytes);
        assert_eq!(a.row, 0);
        assert_eq!(a.bank.bank, 1);
    }

    #[test]
    fn xor_scheme_spreads_same_bank_bits_across_rows() {
        let g = Geometry::paper_default();
        let plain = AddressMapping::new(MappingScheme::RowBankCol, g);
        let xor = AddressMapping::new(MappingScheme::XorBank, g);
        // Same "bank field" bits, successive rows: plain keeps one bank,
        // xor walks banks.
        let stride = g.row_bytes() * g.banks_per_channel() as u64; // one row step
        let plain_banks: Vec<u32> = (0..4).map(|i| plain.decode(i * stride).bank.bank).collect();
        let xor_banks: Vec<u32> = (0..4).map(|i| xor.decode(i * stride).bank.bank).collect();
        assert!(plain_banks.windows(2).all(|w| w[0] == w[1]));
        assert!(xor_banks.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn encode_decode_exhaustive_on_tiny() {
        let g = Geometry::tiny();
        for scheme in [MappingScheme::RowBankCol, MappingScheme::XorBank] {
            let m = AddressMapping::new(scheme, g);
            for phys in (0..g.channel_bytes()).step_by(64 * 37) {
                let addr = m.decode(phys);
                assert_eq!(m.encode(addr), phys & !(LINE_BYTES - 1));
            }
        }
    }

    #[test]
    #[should_panic]
    fn encode_rejects_out_of_range() {
        let m = AddressMapping::new(MappingScheme::RowBankCol, Geometry::tiny());
        let bad = DramAddr::new(BankId::new(0, 0, 0, 0), 1 << 20, 0);
        let _ = m.encode(bad);
    }
}
