//! # quatrex-fft
//!
//! Complex fast Fourier transforms and energy-axis convolutions.
//!
//! The NEGF+scGW interaction terms are energy convolutions (paper Eq. (3)):
//! the polarisation `P(E) ∝ ∫dE' G(E−E')·G(E')` and the scattering self-energy
//! `Σ(E) ∝ ∫dE' G(E')·W(E−E')` are evaluated element-wise in real space but as
//! convolutions over the `N_E`-point energy grid. Replacing the direct
//! `O(N_E²)` sums by FFT-based convolutions reduces the cost to
//! `O(N_E log N_E)` (paper Section 4.4). The original code calls cuFFT/rocFFT
//! through CuPy; this crate provides the portable equivalent:
//!
//! * the plan (`plan.rs`, crate-private) — everything data-independent about
//!   the transforms of one power-of-two length: the bit-reversal table and
//!   the exact twiddles of every pass, computed once; a non-power-of-two is
//!   rejected there, by name. Forward and inverse run the same split
//!   real/imaginary butterflies (radix-4 passes, one radix-2 pass when
//!   `log2 n` is odd); the inverse is unnormalised, its `1/n` belongs to the
//!   caller's prefactor,
//! * [`with_workspace`] — the calling thread's plan and scratch planes at a
//!   length (planned on first use, grown never shrunk): load, transform,
//!   and sum frequency-domain products ([`Workspace::add_product`]) without
//!   trigonometry or allocation. The `P`/`Σ` pair kernels are written on it,
//! * [`fft`] / [`ifft`] / [`convolve`] — the same plan and workspace behind
//!   plain slices; `convolve` is the zero-padded linear convolution (every
//!   grid pads to [`next_power_of_two`], so no arbitrary-length transform
//!   exists),
//! * [`fft_flops`] / [`convolution_flops`] — the FLOP model of one transform
//!   and of one `convolve`.
//!
//! `quatrex_core::convolution` is the only caller among the library crates:
//! one convolution path, with the FFT under it in one place. The one other
//! dependent is `quatrex-bench`'s `bench_kernels`, which times [`fft`] and
//! [`convolve`] next to the pair kernels (CI's `lint` job holds both).
//!
//! ```
//! use quatrex_fft::{c64, convolve, fft, ifft};
//!
//! // Round trip: FFT then inverse FFT restores the signal.
//! let signal: Vec<c64> = (0..8).map(|k| c64::new(k as f64, -0.5)).collect();
//! let mut x = signal.clone();
//! fft(&mut x);
//! ifft(&mut x);
//! for (a, b) in x.iter().zip(&signal) {
//!     assert!((*a - *b).norm() < 1e-12);
//! }
//! // Zero-padded linear convolution, the primitive behind the P/Σ kernels.
//! let out = convolve(&signal, &signal);
//! assert_eq!(out.len(), 2 * signal.len() - 1);
//! ```

pub mod convolution;
mod plan;
pub mod transform;
pub mod workspace;

pub use convolution::{convolution_flops, convolve};
pub use transform::{fft, fft_flops, ifft, next_power_of_two};
pub use workspace::{with_workspace, Workspace};

/// Double-precision complex scalar (re-exported for convenience).
#[allow(non_camel_case_types)]
pub type c64 = num_complex::Complex<f64>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_api_reexports() {
        let mut x = vec![
            c64::new(1.0, 0.0),
            c64::new(0.0, 0.0),
            c64::new(-1.0, 0.0),
            c64::new(0.0, 0.0),
        ];
        let orig = x.clone();
        fft(&mut x);
        ifft(&mut x);
        for (a, b) in x.iter().zip(orig.iter()) {
            assert!((a - b).norm() < 1e-12);
        }
    }
}
