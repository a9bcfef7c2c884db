//! Serialisable converged-state bundle for warm-starting SCBA runs.
//!
//! A [`WarmState`] captures everything a new [`crate::dist::DistScbaSolver`] run
//! needs to resume the self-consistency loop near a previously converged
//! fixed point: the per-energy scattering self-energies `Σ^<`, `Σ^>`, `Σ^R`
//! over the full energy grid, plus the OBC memoizer cache entries extracted
//! via [`quatrex_obc::ObcMemoizer::extract_energy`]. It travels on the wire
//! codec of the group messages (`push_bt`/`read_bt`/`push_matrix`/
//! `read_matrix` over a `complex128` stream), so the state a sweep engine
//! checkpoints to disk is bit-identical to the state the ranks held.
//!
//! ## Wire format
//!
//! A flat `Vec<c64>` stream (16 bytes per value, [`crate::dist::BYTES_PER_VALUE`]):
//!
//! ```text
//! [ n_energies | n_blocks | block_size | n_obc ]          header, real parts
//! per energy k in 0..n_energies:
//!     push_bt(Σ^<_k)  push_bt(Σ^>_k)  push_bt(Σ^R_k)     (3·N_B − 2)·bs² each
//! per OBC entry:
//!     [ key code (re) | energy index (im) ]               one value
//!     push_matrix(boundary block)                          bs² values
//! ```
//!
//! The key code packs contact, subsystem and component
//! (`contact + 2·subsystem + 4·component`); the energy index rides the
//! imaginary part.

use quatrex_linalg::{c64, CMatrix};
use quatrex_obc::{Contact, ObcKey, Subsystem};
use quatrex_sparse::BlockTridiagonal;

use crate::dist::slab::{push_bt, push_matrix, read_bt, read_matrix, BYTES_PER_VALUE};

/// Converged per-energy Σ state plus OBC cache of one SCBA solve, over the
/// *full* energy grid (energy-major, global indices) — the unit a sweep
/// engine hands back to [`crate::dist::DistScbaSolver::run_warm`] to seed the next
/// point, and the unit its checkpoints serialise.
#[derive(Debug, Clone)]
pub struct WarmState {
    /// Number of energy points (`N_E`); the Σ vectors have this length.
    pub n_energies: usize,
    /// Transport blocks per matrix (`N_B`).
    pub n_blocks: usize,
    /// Block size.
    pub block_size: usize,
    /// `Σ^<` per energy, global energy-major order.
    pub sigma_lesser: Vec<BlockTridiagonal>,
    /// `Σ^>` per energy, global energy-major order.
    pub sigma_greater: Vec<BlockTridiagonal>,
    /// `Σ^R` per energy, global energy-major order.
    pub sigma_retarded: Vec<BlockTridiagonal>,
    /// OBC memoizer entries, sorted by key for a deterministic stream.
    pub obc: Vec<(ObcKey, CMatrix)>,
}

/// Named decode failures of the [`WarmState`] wire stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WarmStateWireError {
    /// The stream ends before the 4-value header.
    MissingHeader,
    /// A header field is negative, non-integral or zero where a dimension is
    /// required.
    BadHeader,
    /// The stream length disagrees with the header's dimensions.
    LengthMismatch {
        /// Values the header promises.
        expected: usize,
        /// Values actually present.
        actual: usize,
    },
    /// An OBC entry's energy index falls outside the energy grid.
    BadObcEnergy {
        /// The out-of-range index.
        energy_index: usize,
        /// The grid length from the header.
        n_energies: usize,
    },
}

impl std::fmt::Display for WarmStateWireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::MissingHeader => write!(f, "warm-state stream shorter than its header"),
            Self::BadHeader => write!(f, "warm-state header holds a non-dimension value"),
            Self::LengthMismatch { expected, actual } => write!(
                f,
                "warm-state stream length {actual} disagrees with header ({expected} values)"
            ),
            Self::BadObcEnergy {
                energy_index,
                n_energies,
            } => write!(
                f,
                "warm-state OBC entry names energy {energy_index} outside the {n_energies}-point grid"
            ),
        }
    }
}

impl std::error::Error for WarmStateWireError {}

/// Encode an [`ObcKey`] into one wire value: the key code in the real part,
/// the energy index in the imaginary part.
fn encode_obc_key(key: &ObcKey) -> c64 {
    let contact = match key.contact {
        Contact::Left => 0u8,
        Contact::Right => 1,
    };
    let subsystem = match key.subsystem {
        Subsystem::Electron => 0u8,
        Subsystem::ScreenedCoulomb => 1,
    };
    c64::new(
        (contact as f64) + 2.0 * (subsystem as f64) + 4.0 * (key.component as f64),
        key.energy_index as f64,
    )
}

/// Inverse of [`encode_obc_key`]'s key code for the given (validated) energy
/// index.
fn decode_obc_key(v: c64, energy_index: usize) -> ObcKey {
    let code = v.re as u64;
    ObcKey {
        contact: if code & 1 == 0 {
            Contact::Left
        } else {
            Contact::Right
        },
        subsystem: if (code >> 1) & 1 == 0 {
            Subsystem::Electron
        } else {
            Subsystem::ScreenedCoulomb
        },
        component: (code >> 2) as u8,
        energy_index,
    }
}

/// Values one block-tridiagonal quantity occupies on the wire.
fn bt_values(nb: usize, bs: usize) -> usize {
    (3 * nb - 2).max(1) * bs * bs
}

impl WarmState {
    /// An all-zero state of the given shape — what a cold start is, made
    /// explicit. Useful as a baseline in tests.
    pub fn zeros(n_energies: usize, n_blocks: usize, block_size: usize) -> Self {
        let z = vec![BlockTridiagonal::zeros(n_blocks, block_size); n_energies];
        Self {
            n_energies,
            n_blocks,
            block_size,
            sigma_lesser: z.clone(),
            sigma_greater: z.clone(),
            sigma_retarded: z,
            obc: Vec::new(),
        }
    }

    /// Number of `c64` values the wire stream occupies.
    pub fn wire_values(&self) -> usize {
        4 + 3 * self.n_energies * bt_values(self.n_blocks, self.block_size)
            + self.obc.len() * (1 + self.block_size * self.block_size)
    }

    /// Bytes the wire stream occupies (`wire_values × 16`).
    pub fn wire_bytes(&self) -> u64 {
        (self.wire_values() * BYTES_PER_VALUE) as u64
    }

    /// Serialise to the flat `c64` stream documented in the module header.
    pub fn to_wire(&self) -> Vec<c64> {
        assert_eq!(self.sigma_lesser.len(), self.n_energies, "Σ^< length");
        assert_eq!(self.sigma_greater.len(), self.n_energies, "Σ^> length");
        assert_eq!(self.sigma_retarded.len(), self.n_energies, "Σ^R length");
        let mut buf = Vec::with_capacity(self.wire_values());
        buf.push(c64::new(self.n_energies as f64, 0.0));
        buf.push(c64::new(self.n_blocks as f64, 0.0));
        buf.push(c64::new(self.block_size as f64, 0.0));
        buf.push(c64::new(self.obc.len() as f64, 0.0));
        for k in 0..self.n_energies {
            push_bt(&mut buf, &self.sigma_lesser[k]);
            push_bt(&mut buf, &self.sigma_greater[k]);
            push_bt(&mut buf, &self.sigma_retarded[k]);
        }
        for (key, block) in &self.obc {
            buf.push(encode_obc_key(key));
            push_matrix(&mut buf, block);
        }
        buf
    }

    /// Decode a stream written by [`WarmState::to_wire`]. Every malformation
    /// is a named [`WarmStateWireError`], never a panic: the length is
    /// validated against the header before any matrix is read.
    pub fn from_wire(values: &[c64]) -> Result<Self, WarmStateWireError> {
        if values.len() < 4 {
            return Err(WarmStateWireError::MissingHeader);
        }
        let dim = |v: c64| -> Option<usize> {
            (v.im == 0.0 && v.re >= 0.0 && v.re.fract() == 0.0).then_some(v.re as usize)
        };
        let ne = dim(values[0]).ok_or(WarmStateWireError::BadHeader)?;
        let nb = dim(values[1])
            .filter(|&n| n > 0)
            .ok_or(WarmStateWireError::BadHeader)?;
        let bs = dim(values[2])
            .filter(|&n| n > 0)
            .ok_or(WarmStateWireError::BadHeader)?;
        let n_obc = dim(values[3]).ok_or(WarmStateWireError::BadHeader)?;
        let expected = 4 + 3 * ne * bt_values(nb, bs) + n_obc * (1 + bs * bs);
        if values.len() != expected {
            return Err(WarmStateWireError::LengthMismatch {
                expected,
                actual: values.len(),
            });
        }
        let mut it = values[4..].iter();
        let mut sigma_lesser = Vec::with_capacity(ne);
        let mut sigma_greater = Vec::with_capacity(ne);
        let mut sigma_retarded = Vec::with_capacity(ne);
        for _ in 0..ne {
            sigma_lesser.push(read_bt(&mut it, nb, bs));
            sigma_greater.push(read_bt(&mut it, nb, bs));
            sigma_retarded.push(read_bt(&mut it, nb, bs));
        }
        let mut obc = Vec::with_capacity(n_obc);
        for _ in 0..n_obc {
            let code = *it.next().ok_or(WarmStateWireError::MissingHeader)?;
            let energy_index = code.im as usize;
            if code.im < 0.0 || code.im.fract() != 0.0 || energy_index >= ne {
                return Err(WarmStateWireError::BadObcEnergy {
                    energy_index,
                    n_energies: ne,
                });
            }
            let key = decode_obc_key(code, energy_index);
            obc.push((key, read_matrix(&mut it, bs)));
        }
        Ok(Self {
            n_energies: ne,
            n_blocks: nb,
            block_size: bs,
            sigma_lesser,
            sigma_greater,
            sigma_retarded,
            obc,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> WarmState {
        let ne = 3;
        let (nb, bs) = (4, 2);
        let mut state = WarmState::zeros(ne, nb, bs);
        for k in 0..ne {
            for i in 0..nb {
                state.sigma_lesser[k].diag_mut(i)[(0, 1)] = c64::new(k as f64, i as f64);
                state.sigma_greater[k].diag_mut(i)[(1, 0)] = c64::new(-(k as f64), 0.5);
                state.sigma_retarded[k].diag_mut(i)[(0, 0)] = c64::new(0.25, k as f64);
            }
        }
        let mut block = CMatrix::zeros(bs, bs);
        block[(0, 0)] = c64::new(7.0, -3.0);
        state.obc.push((
            ObcKey {
                contact: Contact::Right,
                subsystem: Subsystem::ScreenedCoulomb,
                component: 2,
                energy_index: 1,
            },
            block,
        ));
        state
    }

    #[test]
    fn wire_round_trip_is_exact() {
        let state = sample();
        let wire = state.to_wire();
        assert_eq!(wire.len(), state.wire_values());
        let back = WarmState::from_wire(&wire).expect("round trip");
        assert_eq!(back.n_energies, state.n_energies);
        assert_eq!(back.obc.len(), 1);
        assert_eq!(back.obc[0].0, state.obc[0].0);
        for k in 0..state.n_energies {
            for i in 0..state.n_blocks {
                assert_eq!(
                    back.sigma_lesser[k].diag(i)[(0, 1)],
                    state.sigma_lesser[k].diag(i)[(0, 1)]
                );
            }
        }
        assert_eq!(back.obc[0].1[(0, 0)], state.obc[0].1[(0, 0)]);
    }

    #[test]
    fn malformed_streams_yield_named_errors() {
        let state = sample();
        let wire = state.to_wire();
        assert!(matches!(
            WarmState::from_wire(&wire[..2]),
            Err(WarmStateWireError::MissingHeader)
        ));
        assert!(matches!(
            WarmState::from_wire(&wire[..wire.len() - 1]),
            Err(WarmStateWireError::LengthMismatch { .. })
        ));
        let mut bad = wire.clone();
        bad[1] = c64::new(-4.0, 0.0);
        assert!(matches!(
            WarmState::from_wire(&bad),
            Err(WarmStateWireError::BadHeader)
        ));
    }
}
