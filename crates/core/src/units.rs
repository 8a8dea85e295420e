//! Processing-unit arithmetic and exchange-unit negotiation.
//!
//! §2.2 of the paper: when data passes between fused functions whose
//! natural processing units differ (marshalling 4 B, encryption 8 B,
//! checksum 2 B), handing data over at the smaller unit wastes work —
//! e.g. a word filter emitting 4-byte units into a checksum that could
//! have consumed 8 bytes at once costs an extra write per block. The
//! proposed rule sizes the *exchanged* unit as
//!
//! ```text
//! Le = LCM(Lx, Ly)            — or, hardware-aware —
//! Le = LCM(Lx, Ly, Ls)
//! ```
//!
//! where `Ls` is a system parameter such as the memory-bus width.

/// Greatest common divisor (Euclid).
pub fn gcd(a: usize, b: usize) -> usize {
    let (mut a, mut b) = (a, b);
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Lowest common multiple. `lcm(0, x) == 0` by convention.
#[inline]
pub fn lcm(a: usize, b: usize) -> usize {
    if a == 0 || b == 0 {
        0
    } else if a.is_power_of_two() && b.is_power_of_two() {
        // Every unit the paper's stack declares (1, 2, 4, 8) lands here:
        // no division on the way into an ILP loop.
        a.max(b)
    } else {
        a / gcd(a, b) * b
    }
}

/// Maximum exchange-unit size this framework supports (bytes). Two
/// 64-bit registers — anything larger would spill on the machines the
/// paper models.
pub const MAX_EXCHANGE_UNIT: usize = 16;

/// Errors from exchange-unit negotiation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnitError {
    /// A stage declared a zero-sized processing unit.
    ZeroUnit,
    /// The negotiated unit exceeds [`MAX_EXCHANGE_UNIT`] (would spill
    /// registers, defeating the point of ILP).
    TooLarge {
        /// The LCM that was computed.
        got: usize,
    },
}

impl core::fmt::Display for UnitError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            UnitError::ZeroUnit => write!(f, "stage declared a zero-length processing unit"),
            UnitError::TooLarge { got } => write!(
                f,
                "exchange unit {got} exceeds the register budget ({MAX_EXCHANGE_UNIT} bytes)"
            ),
        }
    }
}

impl std::error::Error for UnitError {}

/// Negotiate the exchange unit for a set of stage units plus the system
/// length `Ls` (pass 1 to ignore the hardware term).
pub fn exchange_unit(stage_units: &[usize], system_len: usize) -> Result<usize, UnitError> {
    if system_len == 0 || stage_units.contains(&0) {
        return Err(UnitError::ZeroUnit);
    }
    let le = stage_units.iter().fold(system_len, |acc, &u| lcm(acc, u));
    if le > MAX_EXCHANGE_UNIT {
        Err(UnitError::TooLarge { got: le })
    } else {
        Ok(le)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd(12, 8), 4);
        assert_eq!(gcd(7, 13), 1);
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(gcd(5, 0), 5);
    }

    #[test]
    fn lcm_basics() {
        assert_eq!(lcm(4, 8), 8);
        assert_eq!(lcm(4, 2), 4);
        assert_eq!(lcm(3, 5), 15);
        assert_eq!(lcm(0, 5), 0);
    }

    #[test]
    fn paper_example_marshal_cipher_checksum() {
        // XDR 4 B, block cipher 8 B, checksum 2 B → Le = 8.
        assert_eq!(exchange_unit(&[4, 8, 2], 1), Ok(8));
    }

    #[test]
    fn simple_cipher_keeps_word_unit() {
        // XDR 4 B, very-simple cipher 4 B, checksum 2 B → Le = 4.
        assert_eq!(exchange_unit(&[4, 4, 2], 1), Ok(4));
    }

    #[test]
    fn system_length_widens_the_unit() {
        // §2.2: on an 8-byte memory bus it can pay to exchange 8 bytes
        // even when the stages only need 4.
        assert_eq!(exchange_unit(&[4, 4, 2], 8), Ok(8));
    }

    #[test]
    fn zero_unit_rejected() {
        assert_eq!(exchange_unit(&[4, 0], 1), Err(UnitError::ZeroUnit));
        assert_eq!(exchange_unit(&[4], 0), Err(UnitError::ZeroUnit));
    }

    #[test]
    fn register_budget_enforced() {
        assert_eq!(exchange_unit(&[32, 8], 1), Err(UnitError::TooLarge { got: 32 }));
        assert_eq!(exchange_unit(&[3, 8], 1), Err(UnitError::TooLarge { got: 24 }));
    }

    #[test]
    fn empty_stage_list_yields_system_unit() {
        assert_eq!(exchange_unit(&[], 4), Ok(4));
    }
}
