//! Constant-time comparison helpers.
//!
//! The Shield hardware compares MAC tags with a dedicated comparator whose
//! latency is independent of the data (§5.2 "we ensure that the timing of
//! Shield cryptographic engines does not depend on any confidential
//! information"). This module is the software analogue.

/// Compares two byte slices in time independent of their contents.
///
/// Returns `false` immediately only on length mismatch (lengths are public
/// for every use in this workspace: tags and digests have fixed sizes).
///
/// # Example
///
/// ```
/// assert!(shef_crypto::ct::eq(b"tag", b"tag"));
/// assert!(!shef_crypto::ct::eq(b"tag", b"tam"));
/// ```
#[must_use]
pub fn eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

/// Expands `choice` to an all-ones (true) or all-zero (false) mask.
///
/// The mask passes through [`core::hint::black_box`], so the optimiser
/// cannot see that it takes only two values. Without that barrier LLVM
/// turns a masked scan over a table back into "copy only the matching
/// entry", a branch on the secret index.
#[must_use]
pub fn mask_u64(choice: bool) -> u64 {
    core::hint::black_box((choice as u64).wrapping_neg())
}

/// Selects `a` if `choice` is true, `b` otherwise, without branching on
/// secret data.
#[must_use]
pub fn select_u64(choice: bool, a: u64, b: u64) -> u64 {
    let mask = mask_u64(choice);
    (a & mask) | (b & !mask)
}

/// True if `a == b`, computed without branching on either value.
#[must_use]
pub fn eq_u64(a: u64, b: u64) -> bool {
    let x = a ^ b;
    // The top bit of x | −x is set exactly when x is non-zero.
    (x | x.wrapping_neg()) >> 63 == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq_matches_std() {
        assert!(eq(&[], &[]));
        assert!(eq(&[1, 2, 3], &[1, 2, 3]));
        assert!(!eq(&[1, 2, 3], &[1, 2, 4]));
        assert!(!eq(&[1, 2, 3], &[1, 2]));
    }

    #[test]
    fn select_picks_correct_value() {
        assert_eq!(select_u64(true, 7, 9), 7);
        assert_eq!(select_u64(false, 7, 9), 9);
        assert_eq!(mask_u64(true), u64::MAX);
        assert_eq!(mask_u64(false), 0);
    }

    #[test]
    fn eq_u64_matches_std() {
        for (a, b) in [(0, 0), (0, 1), (5, 5), (u64::MAX, u64::MAX), (1 << 63, 0)] {
            assert_eq!(eq_u64(a, b), a == b);
        }
    }
}
