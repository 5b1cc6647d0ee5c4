//! DSP kernel properties checked from the workspace root, over
//! randomized inputs rather than pinned seeds.
//!
//! The chunked/blocked kernel layouts written for autovectorization must
//! be bit-identical to the naive scalar loops they replaced. This file
//! checks that for the zero-phase FIR over random designs and signals;
//! the FFT/correlate layers pin the same property in their unit tests
//! and conformance suites.

use hyperear_dsp::filter::FirFilter;
use hyperear_dsp::window::Window;
use hyperear_util::prop::{self, usize_range};
use hyperear_util::prop_assert;

/// The blocked zero-phase FIR is bit-identical to the naive scalar loop
/// over random designs, signal lengths, and contents.
#[test]
fn blocked_fir_is_bit_identical_to_scalar_reference() {
    let strat = (
        usize_range(11, 201),
        usize_range(1, 3_000),
        usize_range(0, 999),
    );
    prop::check(
        "blocked_fir_is_bit_identical_to_scalar_reference",
        strat,
        |&(taps, n, seed)| {
            let taps = taps | 1; // FIR designs use odd tap counts
            let filter = FirFilter::band_pass(2_000.0, 6_400.0, 44_100.0, taps, Window::Hamming)
                .expect("design");
            let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ (seed as u64) << 7;
            let signal: Vec<f64> = (0..n)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    2.0 * ((state >> 11) as f64 / (1u64 << 53) as f64) - 1.0
                })
                .collect();
            let blocked = filter.filter_zero_phase(&signal).expect("filter");
            // The historical scalar loop, verbatim: per-output sequential
            // accumulation over the taps with boundary checks.
            let t = filter.taps();
            let delay = (t.len() - 1) / 2;
            for (i, &b) in blocked.iter().enumerate() {
                let mut acc = 0.0;
                for (k, &tap) in t.iter().enumerate() {
                    if i + delay >= k && i + delay - k < n {
                        acc += tap * signal[i + delay - k];
                    }
                }
                prop_assert!(
                    acc.to_bits() == b.to_bits(),
                    "sample {i} differs: scalar {acc:e} vs blocked {b:e} \
                     (taps {taps}, n {n}, seed {seed})"
                );
            }
            prop::pass()
        },
    );
}
