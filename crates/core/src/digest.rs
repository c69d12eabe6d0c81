//! Bitwise-sensitive raster fingerprints.
//!
//! One FNV-1a digest definition shared by every layer that compares
//! rasters across process or thread boundaries (the golden checksums,
//! the serve replayers): dimensions first, then the raw bit pattern of
//! every density value, so a single-ULP difference — or a transposed
//! grid with the same values — changes the digest.

use crate::grid::DensityGrid;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over `res_x`, `res_y` and the bit pattern of every value, in
/// row-major order. Not a cryptographic hash — a cheap, stable
/// fingerprint for bitwise-equality checks.
pub fn grid_checksum(grid: &DensityGrid) -> u64 {
    let mut h = FNV_OFFSET;
    let mut mix = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(FNV_PRIME);
        }
    };
    mix(grid.res_x() as u64);
    mix(grid.res_y() as u64);
    for &v in grid.values() {
        mix(v.to_bits());
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pins the digest of a known grid: the definition (offset, prime,
    /// byte order, dims-then-values layout) must never drift, or every
    /// cross-process comparison silently loses its baseline.
    #[test]
    fn known_grid_digest_is_pinned() {
        let grid = DensityGrid::from_values(2, 2, vec![0.0, 1.0, -2.5, 3.25]);
        assert_eq!(grid_checksum(&grid), 0x036a_1054_d9ac_6306);
    }

    #[test]
    fn digest_sees_single_ulp_and_shape() {
        let a = DensityGrid::from_values(2, 2, vec![0.0, 1.0, 2.0, 3.0]);
        let mut b = a.clone();
        assert_eq!(grid_checksum(&a), grid_checksum(&b));
        b.set(1, 0, 1.0 + f64::EPSILON);
        assert_ne!(grid_checksum(&a), grid_checksum(&b));
        // one ULP above zero, the smallest step there is
        let zero = DensityGrid::zeroed(4, 4);
        let mut ulp = zero.clone();
        ulp.set(2, 1, f64::from_bits(1));
        assert_ne!(grid_checksum(&zero), grid_checksum(&ulp));
        // same values, transposed shape
        let wide = DensityGrid::from_values(4, 1, vec![0.0, 1.0, 2.0, 3.0]);
        let tall = DensityGrid::from_values(1, 4, vec![0.0, 1.0, 2.0, 3.0]);
        assert_ne!(grid_checksum(&wide), grid_checksum(&tall));
    }
}
