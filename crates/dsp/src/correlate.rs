//! Cross-correlation and matched filtering.
//!
//! HyperEar detects chirp beacons the BeepBeep way: "the recorded audio
//! signal at each microphone is correlated with a reference chirp signal.
//! The maximum peak of correlation is concluded as the location of a
//! signal" (Section IV-A). Correlation is computed in the frequency domain
//! so a full one-second stereo recording is cheap to scan.

use crate::complex::conj_mul_in_place;
use crate::fft::try_next_pow2;
use crate::plan::{shared_real_plan, DspScratch, PlanCache, RealFftPlan};
use crate::{Complex, DspError};
use std::sync::Arc;

fn validate_xcorr_inputs(signal: &[f64], template: &[f64]) -> Result<(), DspError> {
    if signal.is_empty() {
        return Err(DspError::EmptyInput {
            what: "xcorr signal",
        });
    }
    if template.is_empty() {
        return Err(DspError::EmptyInput {
            what: "xcorr template",
        });
    }
    if template.len() > signal.len() {
        return Err(DspError::invalid(
            "template",
            format!(
                "template ({}) longer than signal ({})",
                template.len(),
                signal.len()
            ),
        ));
    }
    Ok(())
}

/// Full cross-correlation of `signal` with `template` at all lags where the
/// template overlaps the signal start, computed via FFT.
///
/// `output[k] = Σ_n signal[n + k] · template[n]`, for `k` in
/// `0..signal.len()`. The value at `k` is large when the template occurs at
/// position `k` in the signal, making the output directly indexable by
/// arrival sample.
///
/// This is the one-shot convenience; repeated correlation should go
/// through [`xcorr_into`] (reusable plans/scratch) or a [`MatchedFilter`]
/// (which additionally caches the template spectrum).
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] if either input is empty, and
/// [`DspError::InvalidParameter`] if the template is longer than the signal.
pub fn xcorr(signal: &[f64], template: &[f64]) -> Result<Vec<f64>, DspError> {
    let mut out = Vec::new();
    crate::plan::with_thread_ctx(|plans, scratch| {
        xcorr_into(signal, template, plans, scratch, &mut out)
    })?;
    Ok(out)
}

/// Planned cross-correlation: identical output to [`xcorr`], but all FFT
/// setup comes from `plans` and all working storage from `scratch`/`out`,
/// so steady-state calls at warm sizes do not allocate.
///
/// `out` is cleared and refilled (its capacity is reused).
///
/// # Errors
///
/// Same conditions as [`xcorr`].
pub fn xcorr_into(
    signal: &[f64],
    template: &[f64],
    plans: &mut PlanCache,
    scratch: &mut DspScratch,
    out: &mut Vec<f64>,
) -> Result<(), DspError> {
    validate_xcorr_inputs(signal, template)?;
    let n = try_next_pow2(signal.len().saturating_add(template.len()))?;
    let plan = plans.real_plan(n)?;
    plan.rfft_half_into(signal, &mut scratch.c1)?;
    plan.rfft_half_into(template, &mut scratch.c2)?;
    conj_mul_in_place(&mut scratch.c1, &scratch.c2);
    let DspScratch { c1, r1, .. } = scratch;
    plan.irfft_half_into(c1, r1)?;
    out.clear();
    out.extend_from_slice(&r1[..signal.len()]);
    Ok(())
}

/// Normalized cross-correlation: [`xcorr`] scaled so a perfect match of the
/// template at a lag yields 1.0.
///
/// Normalization divides by `‖template‖ · ‖signal window‖` at each lag,
/// making the output comparable across recordings with different gains.
///
/// # Errors
///
/// Same conditions as [`xcorr`].
pub fn normalized_xcorr(signal: &[f64], template: &[f64]) -> Result<Vec<f64>, DspError> {
    let raw = xcorr(signal, template)?;
    let tpl_energy: f64 = template.iter().map(|x| x * x).sum();
    let tpl_norm = tpl_energy.sqrt();
    if tpl_norm == 0.0 {
        return Err(DspError::invalid("template", "template has zero energy"));
    }
    // Sliding window energy of the signal via prefix sums.
    let mut prefix = vec![0.0; signal.len() + 1];
    for (i, &s) in signal.iter().enumerate() {
        prefix[i + 1] = prefix[i] + s * s;
    }
    let m = template.len();
    let out = raw
        .iter()
        .enumerate()
        .map(|(k, &r)| {
            let end = (k + m).min(signal.len());
            let win_energy = prefix[end] - prefix[k];
            if win_energy <= 0.0 {
                0.0
            } else {
                r / (tpl_norm * win_energy.sqrt())
            }
        })
        .collect();
    Ok(out)
}

/// A reusable matched filter with per-size cached template spectra.
///
/// When the same reference chirp is correlated against many recordings
/// (every slide, every microphone, every session), the template's FFT is
/// the same work each time. The filter owns a [`PlanCache`] and memoizes
/// the template spectrum per padded FFT length, so over a filter's
/// lifetime **at most one template FFT runs per padded length** — the
/// [`MatchedFilter::template_fft_count`] counter makes that observable.
/// The `*_into` methods are the planned hot path (allocation-free once
/// warm); `correlate`/`correlate_normalized` remain as one-shot wrappers.
#[derive(Debug, Clone)]
pub struct MatchedFilter {
    template: Vec<f64>,
    template_energy: f64,
    plans: PlanCache,
    /// Cached template half-spectra, keyed by padded FFT length.
    spectra: Vec<(usize, Vec<Complex>)>,
    template_ffts: usize,
}

impl MatchedFilter {
    /// Creates a matched filter for `template`.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptyInput`] for an empty template and
    /// [`DspError::InvalidParameter`] for an all-zero template.
    pub fn new(template: &[f64]) -> Result<Self, DspError> {
        if template.is_empty() {
            return Err(DspError::EmptyInput {
                what: "matched filter template",
            });
        }
        let energy: f64 = template.iter().map(|x| x * x).sum();
        if energy == 0.0 {
            return Err(DspError::invalid("template", "template has zero energy"));
        }
        Ok(MatchedFilter {
            template: template.to_vec(),
            template_energy: energy,
            plans: PlanCache::new(),
            spectra: Vec::new(),
            template_ffts: 0,
        })
    }

    /// The template length in samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.template.len()
    }

    /// Whether the template is empty (never true for a constructed filter).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.template.is_empty()
    }

    /// The template energy `Σ x²`.
    #[must_use]
    pub fn template_energy(&self) -> f64 {
        self.template_energy
    }

    /// How many template FFTs have run over this filter's lifetime.
    ///
    /// Stays at the number of distinct padded lengths seen — the
    /// "at most one template FFT per (template, padded length) pair"
    /// guarantee of the spectrum cache.
    #[must_use]
    pub fn template_fft_count(&self) -> usize {
        self.template_ffts
    }

    /// The cached template half-spectrum for padded length `n`, computing
    /// and memoizing it on first use.
    fn template_spectrum(&mut self, n: usize) -> Result<usize, DspError> {
        if let Some(i) = self.spectra.iter().position(|(len, _)| *len == n) {
            return Ok(i);
        }
        let plan = self.plans.real_plan(n)?;
        let mut spec = Vec::with_capacity(plan.num_bins());
        plan.rfft_half_into(&self.template, &mut spec)?;
        self.template_ffts += 1;
        self.spectra.push((n, spec));
        Ok(self.spectra.len() - 1)
    }

    /// Planned raw correlation: identical output to
    /// [`MatchedFilter::correlate`], with the template spectrum served
    /// from the per-length cache, FFT setup from the internal plan cache,
    /// and working storage borrowed from `scratch`/`out`. Steady-state
    /// calls at warm sizes do not allocate.
    ///
    /// `out` is cleared and refilled (its capacity is reused).
    ///
    /// # Errors
    ///
    /// Same conditions as [`xcorr`].
    pub fn correlate_into(
        &mut self,
        signal: &[f64],
        scratch: &mut DspScratch,
        out: &mut Vec<f64>,
    ) -> Result<(), DspError> {
        validate_xcorr_inputs(signal, &self.template)?;
        let n = try_next_pow2(signal.len().saturating_add(self.template.len()))?;
        let plan = self.plans.real_plan(n)?;
        let idx = self.template_spectrum(n)?;
        let tpl_spec = &self.spectra[idx].1;
        plan.rfft_half_into(signal, &mut scratch.c1)?;
        conj_mul_in_place(&mut scratch.c1, tpl_spec);
        let DspScratch { c1, r1, .. } = scratch;
        plan.irfft_half_into(c1, r1)?;
        out.clear();
        out.extend_from_slice(&r1[..signal.len()]);
        Ok(())
    }

    /// Planned normalized correlation: identical output to
    /// [`MatchedFilter::correlate_normalized`], on the allocation-free
    /// path of [`MatchedFilter::correlate_into`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`xcorr`].
    pub fn correlate_normalized_into(
        &mut self,
        signal: &[f64],
        scratch: &mut DspScratch,
        out: &mut Vec<f64>,
    ) -> Result<(), DspError> {
        self.correlate_into(signal, scratch, out)?;
        let k = 1.0 / self.template_energy;
        for v in out.iter_mut() {
            *v *= k;
        }
        Ok(())
    }

    /// Raw correlation of the filter template against `signal`.
    ///
    /// See [`xcorr`] for the output convention.
    ///
    /// # Errors
    ///
    /// Same conditions as [`xcorr`].
    pub fn correlate(&self, signal: &[f64]) -> Result<Vec<f64>, DspError> {
        xcorr(signal, &self.template)
    }

    /// Normalized correlation (template-energy normalized only).
    ///
    /// Output of 1.0 means the signal window equals the template exactly;
    /// unlike [`normalized_xcorr`] the signal window energy is not divided
    /// out, so absolute amplitude still matters. This matches the
    /// matched-filter SNR detection used for beacon finding: we want loud,
    /// template-shaped events.
    ///
    /// # Errors
    ///
    /// Same conditions as [`xcorr`].
    pub fn correlate_normalized(&self, signal: &[f64]) -> Result<Vec<f64>, DspError> {
        let mut out = self.correlate(signal)?;
        let k = 1.0 / self.template_energy;
        for v in &mut out {
            *v *= k;
        }
        Ok(out)
    }
}

/// Overlap-save block cross-correlation against a fixed template.
///
/// Correlates an arbitrarily long signal one FFT block at a time: each
/// block gathers `block_len` samples of the (implicitly zero-padded,
/// optionally `lead`-shifted) signal, multiplies its half-spectrum by the
/// conjugated template half-spectrum, and keeps the first
/// `block_len - template_len + 1` inverse-transform outputs — the lags
/// free of circular wraparound. Blocks advance by that step, overlapping
/// by `template_len - 1` samples.
///
/// This is the shared engine behind [`StreamingMatchedFilter`] (with
/// `lead = 0`) and the FFT zero-phase FIR path (with `lead` compensating
/// the filter group delay). Peak FFT size is `block_len`, independent of
/// how long the signal is.
#[derive(Debug, Clone)]
pub(crate) struct OverlapSave {
    /// Shared, read-only FFT tables for the block size: every engine at
    /// one block length in the process points at the same plan.
    plan: Arc<RealFftPlan>,
    /// Template half-spectrum at `block_len` (not conjugated).
    template_spec: Vec<Complex>,
    template_len: usize,
}

impl OverlapSave {
    /// Builds the engine for `template` with FFT blocks of `block_len`.
    ///
    /// `block_len` must be a power of two and at least `template.len()`
    /// (otherwise no lag is free of circular wraparound).
    pub(crate) fn new(template: &[f64], block_len: usize) -> Result<Self, DspError> {
        if template.is_empty() {
            return Err(DspError::EmptyInput {
                what: "overlap-save template",
            });
        }
        if block_len < template.len() {
            return Err(DspError::invalid(
                "block_len",
                format!(
                    "block ({block_len}) shorter than template ({})",
                    template.len()
                ),
            ));
        }
        let plan = shared_real_plan(block_len)?;
        let mut template_spec = Vec::with_capacity(plan.num_bins());
        plan.rfft_half_into(template, &mut template_spec)?;
        Ok(OverlapSave {
            plan,
            template_spec,
            template_len: template.len(),
        })
    }

    pub(crate) fn block_len(&self) -> usize {
        self.plan.len()
    }

    /// Valid (wraparound-free) output lags per block.
    pub(crate) fn step(&self) -> usize {
        self.block_len() - self.template_len + 1
    }

    /// Writes `out[k] = Σ_n signal[n + k - lead] · template[n]` for
    /// `k` in `0..out_len`, treating the signal as zero outside its
    /// bounds. `lead = 0` reproduces the [`xcorr`] convention.
    pub(crate) fn run(
        &self,
        signal: &[f64],
        lead: usize,
        out_len: usize,
        scratch: &mut DspScratch,
        out: &mut Vec<f64>,
    ) -> Result<(), DspError> {
        out.clear();
        out.reserve(out_len);
        let block = self.block_len();
        let step = self.step();
        let mut pos = 0;
        while pos < out_len {
            scratch.r1.clear();
            scratch.r1.extend((pos..pos + block).map(|j| {
                j.checked_sub(lead)
                    .and_then(|i| signal.get(i))
                    .copied()
                    .unwrap_or(0.0)
            }));
            self.plan.rfft_half_into(&scratch.r1, &mut scratch.c1)?;
            conj_mul_in_place(&mut scratch.c1, &self.template_spec);
            let DspScratch { c1, r1, .. } = scratch;
            self.plan.irfft_half_into(c1, r1)?;
            let take = step.min(out_len - pos);
            out.extend_from_slice(&r1[..take]);
            pos += step;
        }
        Ok(())
    }
}

/// Incremental ingestion state for one overlap-save engine: the partial
/// FFT block under assembly plus push/emit progress counters.
///
/// A feed turns a blocked engine ([`StreamingMatchedFilter`],
/// [`StreamingMatchedFilterBank`]) into an online one: samples arrive in
/// chunks of any size (single samples to whole captures) and completed
/// output lags are emitted as soon as their FFT block fills. The engine
/// itself stays `&self` and immutable — all mutable state lives here, so
/// one engine can serve many concurrent feeds.
///
/// Because a block is transformed exactly when it reaches `block_len`
/// samples, the block contents — and therefore every emitted value — are
/// **bit-identical** regardless of how the input was chunked, and
/// bit-identical to the corresponding one-shot call
/// ([`StreamingMatchedFilter::correlate_into`] /
/// [`StreamingMatchedFilterBank::correlate_into`]) on the concatenated
/// input.
///
/// The working set is one `block_len` buffer, independent of how many
/// samples have been pushed.
#[derive(Debug, Clone)]
pub struct ChunkFeed {
    /// The sliding window of the implicitly padded input stream
    /// (`lead` zeros, then every pushed sample, then flush-time zeros):
    /// always equal to `padded[blocks_done * step ..]`, capacity
    /// `block_len`.
    pub(crate) buf: Vec<f64>,
    pub(crate) lead: usize,
    pub(crate) block_len: usize,
    pub(crate) template_len: usize,
    pub(crate) pushed: usize,
    pub(crate) emitted: usize,
    pub(crate) finished: bool,
}

impl ChunkFeed {
    pub(crate) fn new(lead: usize, block_len: usize, template_len: usize) -> Self {
        let mut buf = Vec::with_capacity(block_len);
        buf.resize(lead, 0.0);
        ChunkFeed {
            buf,
            lead,
            block_len,
            template_len,
            pushed: 0,
            emitted: 0,
            finished: false,
        }
    }

    /// Samples pushed since construction or the last reset.
    #[must_use]
    pub fn pushed(&self) -> usize {
        self.pushed
    }

    /// Output values emitted so far (always `<=` [`ChunkFeed::pushed`]).
    #[must_use]
    pub fn emitted(&self) -> usize {
        self.emitted
    }

    /// Whether the stream has been finished; a finished feed rejects
    /// further pushes until [`ChunkFeed::reset`].
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Returns the feed to its initial state for a fresh stream, keeping
    /// the block buffer's capacity (no allocation).
    pub fn reset(&mut self) {
        self.buf.clear();
        self.buf.resize(self.lead, 0.0);
        self.pushed = 0;
        self.emitted = 0;
        self.finished = false;
    }

    /// Bytes reserved by the feed's block buffer.
    #[must_use]
    pub fn capacity_bytes(&self) -> usize {
        self.buf.capacity() * std::mem::size_of::<f64>()
    }
}

impl OverlapSave {
    fn check_feed(&self, feed: &ChunkFeed, expected_lead: usize) -> Result<(), DspError> {
        if feed.block_len != self.block_len()
            || feed.template_len != self.template_len
            || feed.lead != expected_lead
        {
            return Err(DspError::invalid(
                "feed",
                "chunk feed was created for a different engine",
            ));
        }
        if feed.finished {
            return Err(DspError::invalid(
                "feed",
                "chunk feed already finished; call reset() before reuse",
            ));
        }
        Ok(())
    }

    /// Transforms the (full) block in `feed.buf`, leaving the block's
    /// correlation lags in `scratch.r1` and sliding the buffer forward by
    /// one step so only the `template_len - 1` overlap tail remains.
    fn feed_transform(
        &self,
        feed: &mut ChunkFeed,
        scratch: &mut DspScratch,
    ) -> Result<(), DspError> {
        debug_assert_eq!(feed.buf.len(), self.block_len());
        scratch.r1.clear();
        scratch.r1.extend_from_slice(&feed.buf);
        self.plan.rfft_half_into(&scratch.r1, &mut scratch.c1)?;
        conj_mul_in_place(&mut scratch.c1, &self.template_spec);
        let DspScratch { c1, r1, .. } = scratch;
        self.plan.irfft_half_into(c1, r1)?;
        let step = self.step();
        feed.buf.copy_within(step.., 0);
        feed.buf.truncate(self.block_len() - step);
        Ok(())
    }

    /// Appends `chunk` to the feed, emitting (appending to `out`) the
    /// lags of every FFT block that fills. Emission never runs ahead of
    /// ingestion: `emitted <= pushed` holds throughout because
    /// `lead <= template_len - 1`.
    pub(crate) fn feed_push(
        &self,
        feed: &mut ChunkFeed,
        expected_lead: usize,
        chunk: &[f64],
        scratch: &mut DspScratch,
        out: &mut Vec<f64>,
    ) -> Result<(), DspError> {
        self.check_feed(feed, expected_lead)?;
        let block = self.block_len();
        let step = self.step();
        let mut rest = chunk;
        while !rest.is_empty() {
            let take = (block - feed.buf.len()).min(rest.len());
            feed.buf.extend_from_slice(&rest[..take]);
            rest = &rest[take..];
            if feed.buf.len() == block {
                self.feed_transform(feed, scratch)?;
                out.extend_from_slice(&scratch.r1[..step]);
                feed.emitted += step;
            }
        }
        feed.pushed += chunk.len();
        debug_assert!(feed.emitted <= feed.pushed);
        Ok(())
    }

    /// Flushes the feed: zero-pads the final blocks and emits (appending
    /// to `out`) every remaining lag up to the `pushed` total, exactly
    /// reproducing [`OverlapSave::run`]'s output length and values for
    /// the concatenated input. Marks the feed finished.
    pub(crate) fn feed_finish(
        &self,
        feed: &mut ChunkFeed,
        expected_lead: usize,
        scratch: &mut DspScratch,
        out: &mut Vec<f64>,
    ) -> Result<(), DspError> {
        self.check_feed(feed, expected_lead)?;
        let total = feed.pushed;
        while feed.emitted < total {
            feed.buf.resize(self.block_len(), 0.0);
            self.feed_transform(feed, scratch)?;
            let take = self.step().min(total - feed.emitted);
            out.extend_from_slice(&scratch.r1[..take]);
            feed.emitted += take;
        }
        feed.finished = true;
        Ok(())
    }
}

/// Folds a zero-phase FIR prefilter into a correlation template:
/// `G[u] = Σⱼ h[j]·t[u − (T−1) + j]`, the full cross-correlation of the
/// template with the taps, accumulated in f64. Correlating a raw signal
/// against `G` at lead `(T−1)/2` reproduces band-pass-then-correlate
/// exactly for every full-overlap lag (`corr(bp(x), t) = corr(x, bp⋆t)`
/// for LTI filtering under zero-extension boundaries) — the algebra
/// behind [`StreamingMatchedFilter::with_zero_phase_prefilter`] and the
/// template banks, which pay for the prefilter at construction instead
/// of once per input pass.
fn fold_zero_phase_taps(template: &[f64], taps: &[f64]) -> Vec<f64> {
    let m = template.len();
    let t = taps.len();
    (0..m + t - 1)
        .map(|u| {
            let mut acc = 0.0f64;
            for (j, &h) in taps.iter().enumerate() {
                let idx = u as isize - (t as isize - 1) + j as isize;
                if (0..m as isize).contains(&idx) {
                    acc += h * template[idx as usize];
                }
            }
            acc
        })
        .collect()
}

/// A matched filter that correlates in fixed-size overlap-save blocks.
///
/// Where [`MatchedFilter`] pads the whole capture to one
/// `next_pow2(signal + template)` transform — a multi-second capture means
/// a 2^20-point FFT and megabytes of scratch — this filter processes the
/// signal through [`OverlapSave`] blocks of `block_len` samples
/// (default `next_pow2(4 × template)`, so 4–8× the template length).
/// Cost is O(N log B) time and O(B) working memory: the peak FFT size is
/// [`StreamingMatchedFilter::block_len`] regardless of capture length,
/// which is what makes streaming ingestion of unbounded captures possible.
///
/// # Accuracy
///
/// Output is *bit-close, not bit-identical*, to one-shot [`xcorr`]: both
/// compute the same exact sum per lag, but block boundaries change the
/// floating-point summation order. The difference is pinned by tests at
/// `≤ 1e-9 · (1 + max|xcorr|)` per lag (observed error is ~1e-12
/// relative for audio-scale inputs).
///
/// The hot methods take `&self` — one filter can serve many channels
/// concurrently, each with its own [`DspScratch`].
#[derive(Debug, Clone)]
pub struct StreamingMatchedFilter {
    core: OverlapSave,
    template_energy: f64,
    /// Lag-origin offset into the engine's template: nonzero only for
    /// folded-prefilter templates, whose first `lead` entries reach
    /// *before* the nominal template start (the zero-phase group delay).
    lead: usize,
    /// Shortest accepted signal: the **original** (pre-fold) template
    /// length, so folding a prefilter never raises the minimum capture.
    min_signal_len: usize,
}

impl StreamingMatchedFilter {
    /// Creates a streaming matched filter with the default block policy:
    /// `block_len = next_pow2(4 × template.len())`.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptyInput`] for an empty template and
    /// [`DspError::InvalidParameter`] for an all-zero template.
    pub fn new(template: &[f64]) -> Result<Self, DspError> {
        let block = try_next_pow2(template.len().saturating_mul(4))?;
        Self::with_block_len(template, block)
    }

    /// Creates a streaming matched filter with an explicit FFT block
    /// length (power of two, at least `template.len()`).
    ///
    /// # Errors
    ///
    /// Same conditions as [`StreamingMatchedFilter::new`], plus
    /// [`DspError::InvalidParameter`] for an invalid `block_len`.
    pub fn with_block_len(template: &[f64], block_len: usize) -> Result<Self, DspError> {
        let energy: f64 = template.iter().map(|x| x * x).sum();
        if !template.is_empty() && energy == 0.0 {
            return Err(DspError::invalid("template", "template has zero energy"));
        }
        Ok(StreamingMatchedFilter {
            core: OverlapSave::new(template, block_len)?,
            template_energy: energy,
            lead: 0,
            min_signal_len: template.len(),
        })
    }

    /// Creates a filter with a zero-phase FIR prefilter **folded into
    /// the template**: `corr(bp(x), t) = corr(x, bp⋆t)`, so one
    /// overlap-save pass over the raw signal replaces band-pass then
    /// correlate. The final `template.len() − 1` partial-overlap lags
    /// may differ from the two-pass pipeline (which truncates the
    /// prefilter's ringing at the signal end); every full-overlap lag is
    /// exact up to floating-point summation order. Normalization divides
    /// by the **original** template's energy so peak amplitudes match
    /// the unfolded two-pass pipeline.
    ///
    /// # Errors
    ///
    /// Same conditions as [`StreamingMatchedFilter::new`], plus
    /// [`DspError::EmptyInput`] for an empty `taps` slice.
    pub fn with_zero_phase_prefilter(template: &[f64], taps: &[f64]) -> Result<Self, DspError> {
        if template.is_empty() {
            return Err(DspError::EmptyInput {
                what: "matched-filter template",
            });
        }
        if taps.is_empty() {
            return Err(DspError::EmptyInput {
                what: "prefilter taps",
            });
        }
        let energy: f64 = template.iter().map(|x| x * x).sum();
        if energy == 0.0 {
            return Err(DspError::invalid("template", "template has zero energy"));
        }
        let folded = fold_zero_phase_taps(template, taps);
        let block = try_next_pow2(folded.len().saturating_mul(4))?;
        Ok(StreamingMatchedFilter {
            core: OverlapSave::new(&folded, block)?,
            template_energy: energy,
            lead: (taps.len() - 1) / 2,
            min_signal_len: template.len(),
        })
    }

    /// The template length in samples (the folded length for a
    /// prefiltered engine).
    #[must_use]
    pub fn template_len(&self) -> usize {
        self.core.template_len
    }

    /// The shortest signal the filter accepts: the original template
    /// length. A folded template is `taps − 1` samples longer, but the
    /// engine zero-extends its input, so the prefilter does not raise
    /// the minimum a two-pass pipeline would accept.
    #[must_use]
    pub fn min_signal_len(&self) -> usize {
        self.min_signal_len
    }

    /// The FFT block length — the peak transform size of every call,
    /// independent of signal length.
    #[must_use]
    pub fn block_len(&self) -> usize {
        self.core.block_len()
    }

    /// Valid correlation lags produced per block
    /// (`block_len - template_len + 1`).
    #[must_use]
    pub fn step(&self) -> usize {
        self.core.step()
    }

    /// The template energy `Σ x²`.
    #[must_use]
    pub fn template_energy(&self) -> f64 {
        self.template_energy
    }

    /// Blocked raw correlation; same output convention as [`xcorr`]
    /// (see the struct docs for the accuracy contract). Steady-state
    /// calls at warm sizes do not allocate.
    ///
    /// `out` is cleared and refilled (its capacity is reused).
    ///
    /// # Errors
    ///
    /// Same conditions as [`xcorr`].
    pub fn correlate_into(
        &self,
        signal: &[f64],
        scratch: &mut DspScratch,
        out: &mut Vec<f64>,
    ) -> Result<(), DspError> {
        if signal.is_empty() {
            return Err(DspError::EmptyInput {
                what: "xcorr signal",
            });
        }
        if self.min_signal_len > signal.len() {
            return Err(DspError::invalid(
                "template",
                format!(
                    "template ({}) longer than signal ({})",
                    self.min_signal_len,
                    signal.len()
                ),
            ));
        }
        self.core.run(signal, self.lead, signal.len(), scratch, out)
    }

    /// Blocked template-energy-normalized correlation; same output
    /// convention as [`MatchedFilter::correlate_normalized`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`xcorr`].
    pub fn correlate_normalized_into(
        &self,
        signal: &[f64],
        scratch: &mut DspScratch,
        out: &mut Vec<f64>,
    ) -> Result<(), DspError> {
        self.correlate_into(signal, scratch, out)?;
        let k = 1.0 / self.template_energy;
        for v in out.iter_mut() {
            *v *= k;
        }
        Ok(())
    }

    /// One-shot convenience over [`StreamingMatchedFilter::correlate_into`]
    /// using the thread-local scratch.
    ///
    /// # Errors
    ///
    /// Same conditions as [`xcorr`].
    pub fn correlate(&self, signal: &[f64]) -> Result<Vec<f64>, DspError> {
        let mut out = Vec::new();
        crate::plan::with_thread_ctx(|_, scratch| self.correlate_into(signal, scratch, &mut out))?;
        Ok(out)
    }

    /// Creates an online ingestion feed for this filter (see
    /// [`ChunkFeed`]). One filter can serve any number of concurrent
    /// feeds; each feed belongs to exactly one logical stream.
    #[must_use]
    pub fn chunk_feed(&self) -> ChunkFeed {
        ChunkFeed::new(self.lead, self.block_len(), self.template_len())
    }

    /// Pushes `chunk` (any length, empty included) into `feed`, appending
    /// every raw correlation lag whose FFT block completed to `out`.
    ///
    /// Once the stream is flushed with
    /// [`StreamingMatchedFilter::finish_chunks_into`], the concatenation
    /// of everything appended is **bit-identical** to
    /// [`StreamingMatchedFilter::correlate_into`] over the concatenated
    /// chunks — independent of the chunking. Steady-state calls at warm
    /// sizes do not allocate beyond `out`'s growth.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] if `feed` was created by a
    /// different engine or has already been finished.
    pub fn push_chunk_into(
        &self,
        feed: &mut ChunkFeed,
        chunk: &[f64],
        scratch: &mut DspScratch,
        out: &mut Vec<f64>,
    ) -> Result<(), DspError> {
        self.core.feed_push(feed, self.lead, chunk, scratch, out)
    }

    /// [`StreamingMatchedFilter::push_chunk_into`] with the emitted lags
    /// template-energy normalized, matching
    /// [`StreamingMatchedFilter::correlate_normalized_into`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`StreamingMatchedFilter::push_chunk_into`].
    pub fn push_chunk_normalized_into(
        &self,
        feed: &mut ChunkFeed,
        chunk: &[f64],
        scratch: &mut DspScratch,
        out: &mut Vec<f64>,
    ) -> Result<(), DspError> {
        let start = out.len();
        self.push_chunk_into(feed, chunk, scratch, out)?;
        let k = 1.0 / self.template_energy;
        for v in &mut out[start..] {
            *v *= k;
        }
        Ok(())
    }

    /// Flushes `feed`, appending the remaining raw lags to `out` so the
    /// stream's total output matches the one-shot call exactly (one lag
    /// per pushed sample). The feed is then finished; call
    /// [`ChunkFeed::reset`] to reuse it for a new stream.
    ///
    /// # Errors
    ///
    /// Mirrors [`StreamingMatchedFilter::correlate_into`] on the
    /// concatenated input: [`DspError::EmptyInput`] when nothing was
    /// pushed, [`DspError::InvalidParameter`] when fewer than
    /// [`StreamingMatchedFilter::min_signal_len`] samples were pushed (or
    /// the feed belongs to a different engine / was already finished).
    pub fn finish_chunks_into(
        &self,
        feed: &mut ChunkFeed,
        scratch: &mut DspScratch,
        out: &mut Vec<f64>,
    ) -> Result<(), DspError> {
        if !feed.finished && feed.pushed == 0 {
            return Err(DspError::EmptyInput {
                what: "xcorr signal",
            });
        }
        if !feed.finished && feed.pushed < self.min_signal_len {
            return Err(DspError::invalid(
                "template",
                format!(
                    "template ({}) longer than signal ({})",
                    self.min_signal_len, feed.pushed
                ),
            ));
        }
        self.core.feed_finish(feed, self.lead, scratch, out)
    }

    /// [`StreamingMatchedFilter::finish_chunks_into`] with the emitted
    /// lags template-energy normalized.
    ///
    /// # Errors
    ///
    /// Same conditions as [`StreamingMatchedFilter::finish_chunks_into`].
    pub fn finish_chunks_normalized_into(
        &self,
        feed: &mut ChunkFeed,
        scratch: &mut DspScratch,
        out: &mut Vec<f64>,
    ) -> Result<(), DspError> {
        let start = out.len();
        self.finish_chunks_into(feed, scratch, out)?;
        let k = 1.0 / self.template_energy;
        for v in &mut out[start..] {
            *v *= k;
        }
        Ok(())
    }
}

/// One template's share of a bank: its half-spectrum at the bank's block
/// length and the energy that normalizes its correlation lane.
///
/// The spectrum sits behind an `Arc` so cloning a bank — one clone per
/// pool worker is the intended sharing pattern — duplicates only the
/// pointer, never the spectrum. Template FFTs therefore run exactly once
/// per template per bank family, observable via
/// [`StreamingMatchedFilterBank::template_fft_count`].
#[derive(Debug, Clone)]
struct BankLane {
    /// Template half-spectrum at the bank block length (not conjugated).
    spec: Arc<Vec<Complex>>,
    /// `Σ x²` of the **original** (pre-fold) template.
    energy: f64,
}

/// K matched filters sharing one forward FFT per overlap-save block.
///
/// A [`StreamingMatchedFilter`] spends each block on one forward
/// transform of the input, one spectral conjugate-multiply, and one
/// inverse transform. Correlating the same capture against K templates
/// through K independent filters repeats the *input* forward transform
/// K times even though it is template-independent. The bank hoists it:
/// every template is held at one shared `(block_len, template_len)`
/// geometry (shorter templates are implicitly zero-padded, which changes
/// no correlation value), so each block costs **1 forward + K
/// multiply/inverse** instead of K×(forward + multiply + inverse).
///
/// Output goes to K caller-owned correlation lanes (`lanes[k]` receives
/// template k's lags). Each lane is **bit-identical** to an independent
/// [`StreamingMatchedFilter::with_block_len`] over template k padded to
/// the bank's template length at the bank's block length: the shared
/// forward spectrum is copied before each lane's conjugate multiply, so
/// per-lane arithmetic is exactly the single-engine sequence
/// (conformance-pinned by the bank tests).
///
/// Band-pass prefilters fold into the templates
/// ([`StreamingMatchedFilterBank::with_zero_phase_prefilters`]), so a
/// K-beacon detection pass runs **zero** FIR passes over the input —
/// `corr(bp(x), tᵢ) = corr(x, bp⋆tᵢ)` moves each beacon's band-pass
/// into its own lane's template at construction time.
///
/// The hot methods take `&self`; clones share template spectra and the
/// FFT plan by `Arc`, so per-worker state is one [`DspScratch`] plus the
/// lanes. Steady-state calls at warm sizes do not allocate.
#[derive(Debug, Clone)]
pub struct StreamingMatchedFilterBank {
    /// Shared, read-only FFT tables for the block size (process-wide,
    /// see [`shared_real_plan`]).
    plan: Arc<RealFftPlan>,
    lanes: Vec<BankLane>,
    /// The shared template length: the longest (folded) template. All
    /// lanes run at this length so one [`ChunkFeed`] drives them all.
    template_len: usize,
    /// Lag-origin offset (the folded prefilters' group delay; 0 without
    /// prefilters).
    lead: usize,
    /// Shortest accepted signal: the longest **original** (pre-fold)
    /// template (see [`StreamingMatchedFilter::min_signal_len`]).
    min_signal_len: usize,
    /// Template FFTs run at construction — stays put across clones,
    /// which share the spectra instead of recomputing them.
    template_ffts: usize,
}

impl StreamingMatchedFilterBank {
    /// Creates a bank with the default block policy:
    /// `block_len = next_pow2(4 × longest template)`.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptyInput`] for an empty template list or an
    /// empty template, and [`DspError::InvalidParameter`] for an
    /// all-zero template.
    pub fn new(templates: &[&[f64]]) -> Result<Self, DspError> {
        let longest = templates.iter().map(|t| t.len()).max().unwrap_or(0);
        let block = try_next_pow2(longest.saturating_mul(4))?;
        Self::with_block_len(templates, block)
    }

    /// Creates a bank with an explicit FFT block length (power of two,
    /// at least the longest template's length).
    ///
    /// # Errors
    ///
    /// Same conditions as [`StreamingMatchedFilterBank::new`], plus
    /// [`DspError::InvalidParameter`] for an invalid `block_len`.
    pub fn with_block_len(templates: &[&[f64]], block_len: usize) -> Result<Self, DspError> {
        let energies = Self::validate_templates(templates)?;
        let longest = templates.iter().map(|t| t.len()).max().unwrap_or(0);
        Self::build(templates, &energies, block_len, 0, longest)
    }

    /// Creates a bank with a zero-phase FIR prefilter folded into each
    /// template: entry `k` is `(template_k, taps_k)`, and lane `k`
    /// reproduces band-pass-with-`taps_k`-then-correlate-with-
    /// `template_k` under the exact algebra (and partial-overlap caveat)
    /// of [`StreamingMatchedFilter::with_zero_phase_prefilter`]. Each
    /// template can carry its *own* band — the fold runs per lane, the
    /// input is never filtered at all.
    ///
    /// All taps must share one group delay `(len − 1) / 2` so every lane
    /// keeps the shared lag origin (equal odd tap counts, the common
    /// case of one configured tap budget, always qualify).
    ///
    /// # Errors
    ///
    /// Same conditions as [`StreamingMatchedFilterBank::new`], plus
    /// [`DspError::EmptyInput`] for an empty taps slice and
    /// [`DspError::InvalidParameter`] for mismatched group delays.
    pub fn with_zero_phase_prefilters(entries: &[(&[f64], &[f64])]) -> Result<Self, DspError> {
        if entries.is_empty() {
            return Err(DspError::EmptyInput {
                what: "template bank",
            });
        }
        let mut delay = None;
        for (template, taps) in entries {
            if template.is_empty() {
                return Err(DspError::EmptyInput {
                    what: "matched-filter template",
                });
            }
            if taps.is_empty() {
                return Err(DspError::EmptyInput {
                    what: "prefilter taps",
                });
            }
            let d = (taps.len() - 1) / 2;
            if *delay.get_or_insert(d) != d {
                return Err(DspError::invalid(
                    "taps",
                    "all prefilters in a bank must share one group delay",
                ));
            }
        }
        let mut energies = Vec::with_capacity(entries.len());
        let mut folded = Vec::with_capacity(entries.len());
        for (template, taps) in entries {
            let energy: f64 = template.iter().map(|x| x * x).sum();
            if energy == 0.0 {
                return Err(DspError::invalid("template", "template has zero energy"));
            }
            energies.push(energy);
            folded.push(fold_zero_phase_taps(template, taps));
        }
        let longest = folded.iter().map(Vec::len).max().unwrap_or(0);
        let block = try_next_pow2(longest.saturating_mul(4))?;
        let refs: Vec<&[f64]> = folded.iter().map(Vec::as_slice).collect();
        let min_signal_len = entries.iter().map(|(t, _)| t.len()).max().unwrap_or(0);
        Self::build(&refs, &energies, block, delay.unwrap_or(0), min_signal_len)
    }

    /// Per-template emptiness/energy validation shared by the unfolded
    /// constructors; returns the template energies.
    fn validate_templates(templates: &[&[f64]]) -> Result<Vec<f64>, DspError> {
        if templates.is_empty() {
            return Err(DspError::EmptyInput {
                what: "template bank",
            });
        }
        templates
            .iter()
            .map(|template| {
                if template.is_empty() {
                    return Err(DspError::EmptyInput {
                        what: "matched-filter template",
                    });
                }
                let energy: f64 = template.iter().map(|x| x * x).sum();
                if energy == 0.0 {
                    return Err(DspError::invalid("template", "template has zero energy"));
                }
                Ok(energy)
            })
            .collect()
    }

    fn build(
        templates: &[&[f64]],
        energies: &[f64],
        block_len: usize,
        lead: usize,
        min_signal_len: usize,
    ) -> Result<Self, DspError> {
        let template_len = templates.iter().map(|t| t.len()).max().unwrap_or(0);
        if block_len < template_len {
            return Err(DspError::invalid(
                "block_len",
                format!("block ({block_len}) shorter than template ({template_len})"),
            ));
        }
        let plan = shared_real_plan(block_len)?;
        let mut lanes = Vec::with_capacity(templates.len());
        let mut template_ffts = 0;
        for (template, &energy) in templates.iter().zip(energies) {
            // `rfft_half_into` zero-pads to the plan length, so a short
            // template's spectrum equals its padded twin's exactly.
            let mut spec = Vec::with_capacity(plan.num_bins());
            plan.rfft_half_into(template, &mut spec)?;
            template_ffts += 1;
            lanes.push(BankLane {
                spec: Arc::new(spec),
                energy,
            });
        }
        Ok(StreamingMatchedFilterBank {
            plan,
            lanes,
            template_len,
            lead,
            min_signal_len,
            template_ffts,
        })
    }

    /// Number of templates (correlation lanes).
    #[must_use]
    pub fn len(&self) -> usize {
        self.lanes.len()
    }

    /// Whether the bank holds no templates (never true once constructed).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lanes.is_empty()
    }

    /// The shared (padded) template length in samples.
    #[must_use]
    pub fn template_len(&self) -> usize {
        self.template_len
    }

    /// The shortest signal the bank accepts: the longest original
    /// (pre-fold) template (see
    /// [`StreamingMatchedFilter::min_signal_len`]).
    #[must_use]
    pub fn min_signal_len(&self) -> usize {
        self.min_signal_len
    }

    /// The FFT block length — the peak transform size of every call.
    #[must_use]
    pub fn block_len(&self) -> usize {
        self.plan.len()
    }

    /// Valid correlation lags produced per block
    /// (`block_len - template_len + 1`).
    #[must_use]
    pub fn step(&self) -> usize {
        self.block_len() - self.template_len + 1
    }

    /// The lag-origin offset (folded prefilter group delay).
    #[must_use]
    pub fn lead(&self) -> usize {
        self.lead
    }

    /// Template FFTs run over this bank's lifetime: exactly one per
    /// template, at construction. Clones share the spectra by `Arc` and
    /// report the same count — the observable proof that sharing a bank
    /// across pool workers never recomputes a template spectrum.
    #[must_use]
    pub fn template_fft_count(&self) -> usize {
        self.template_ffts
    }

    /// Template `k`'s original (pre-fold) energy `Σ x²`, or `None` out
    /// of range.
    #[must_use]
    pub fn template_energy(&self, k: usize) -> Option<f64> {
        self.lanes.get(k).map(|l| l.energy)
    }

    fn check_lanes(&self, lanes: &[Vec<f64>]) -> Result<(), DspError> {
        if lanes.len() != self.lanes.len() {
            return Err(DspError::invalid(
                "lanes",
                format!(
                    "bank holds {} templates but {} output lanes were provided",
                    self.lanes.len(),
                    lanes.len()
                ),
            ));
        }
        Ok(())
    }

    fn check_feed(&self, feed: &ChunkFeed) -> Result<(), DspError> {
        if feed.block_len != self.block_len()
            || feed.template_len != self.template_len
            || feed.lead != self.lead
        {
            return Err(DspError::invalid(
                "feed",
                "chunk feed was created for a different engine",
            ));
        }
        if feed.finished {
            return Err(DspError::invalid(
                "feed",
                "chunk feed already finished; call reset() before reuse",
            ));
        }
        Ok(())
    }

    /// Fans the shared input spectrum in `scratch.c1` out across every
    /// lane: copy, conjugate-multiply with the lane's template spectrum,
    /// inverse-transform, append the first `take` lags to the lane. The
    /// copy into `scratch.c2` is what preserves the shared spectrum — the
    /// half-spectrum inverse transform consumes its input.
    fn fan_out(
        &self,
        scratch: &mut DspScratch,
        take: usize,
        lanes: &mut [Vec<f64>],
    ) -> Result<(), DspError> {
        for (lane, out) in self.lanes.iter().zip(lanes.iter_mut()) {
            scratch.c2.clear();
            scratch.c2.extend_from_slice(&scratch.c1);
            conj_mul_in_place(&mut scratch.c2, &lane.spec);
            let DspScratch { c2, r1, .. } = &mut *scratch;
            self.plan.irfft_half_into(c2, r1)?;
            out.extend_from_slice(&r1[..take]);
        }
        Ok(())
    }

    /// One-shot banked correlation: lane `k` receives exactly the output
    /// of an independent [`StreamingMatchedFilter`] for template `k` at
    /// the bank geometry ([`xcorr`] convention), but the input forward
    /// FFT runs once per block for all lanes. Each lane is cleared and
    /// refilled; steady-state calls at warm sizes do not allocate.
    ///
    /// # Errors
    ///
    /// Same conditions as [`xcorr`], plus
    /// [`DspError::InvalidParameter`] when `lanes.len()` differs from
    /// the bank's template count.
    pub fn correlate_into(
        &self,
        signal: &[f64],
        scratch: &mut DspScratch,
        lanes: &mut [Vec<f64>],
    ) -> Result<(), DspError> {
        self.check_lanes(lanes)?;
        if signal.is_empty() {
            return Err(DspError::EmptyInput {
                what: "xcorr signal",
            });
        }
        if self.min_signal_len > signal.len() {
            return Err(DspError::invalid(
                "template",
                format!(
                    "template ({}) longer than signal ({})",
                    self.min_signal_len,
                    signal.len()
                ),
            ));
        }
        let out_len = signal.len();
        for lane in lanes.iter_mut() {
            lane.clear();
            lane.reserve(out_len);
        }
        let block = self.block_len();
        let step = self.step();
        let mut pos = 0;
        while pos < out_len {
            scratch.r1.clear();
            scratch.r1.extend((pos..pos + block).map(|j| {
                j.checked_sub(self.lead)
                    .and_then(|i| signal.get(i))
                    .copied()
                    .unwrap_or(0.0)
            }));
            self.plan.rfft_half_into(&scratch.r1, &mut scratch.c1)?;
            let take = step.min(out_len - pos);
            self.fan_out(scratch, take, lanes)?;
            pos += step;
        }
        Ok(())
    }

    /// [`StreamingMatchedFilterBank::correlate_into`] with each lane
    /// normalized by its own template's energy.
    ///
    /// # Errors
    ///
    /// Same conditions as [`StreamingMatchedFilterBank::correlate_into`].
    pub fn correlate_normalized_into(
        &self,
        signal: &[f64],
        scratch: &mut DspScratch,
        lanes: &mut [Vec<f64>],
    ) -> Result<(), DspError> {
        self.correlate_into(signal, scratch, lanes)?;
        for (lane, out) in self.lanes.iter().zip(lanes.iter_mut()) {
            let k = 1.0 / lane.energy;
            for v in out.iter_mut() {
                *v *= k;
            }
        }
        Ok(())
    }

    /// Creates an online ingestion feed for this bank (see
    /// [`ChunkFeed`]). One feed drives all K lanes — the shared block
    /// geometry is the point of the bank.
    #[must_use]
    pub fn chunk_feed(&self) -> ChunkFeed {
        ChunkFeed::new(self.lead, self.block_len(), self.template_len)
    }

    /// Pushes `chunk` into `feed`, appending every raw correlation lag
    /// whose FFT block completed to all K lanes (one forward transform
    /// per completed block, K inverse transforms). Flushed streams are
    /// bit-identical per lane to
    /// [`StreamingMatchedFilterBank::correlate_into`] over the
    /// concatenated chunks, independent of chunking.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] if `feed` was created by a
    /// different engine, has already been finished, or `lanes` is
    /// mis-sized.
    pub fn push_chunk_into(
        &self,
        feed: &mut ChunkFeed,
        chunk: &[f64],
        scratch: &mut DspScratch,
        lanes: &mut [Vec<f64>],
    ) -> Result<(), DspError> {
        self.check_lanes(lanes)?;
        self.check_feed(feed)?;
        let block = self.block_len();
        let step = self.step();
        let mut rest = chunk;
        while !rest.is_empty() {
            let take = (block - feed.buf.len()).min(rest.len());
            feed.buf.extend_from_slice(&rest[..take]);
            rest = &rest[take..];
            if feed.buf.len() == block {
                self.feed_transform(feed, scratch)?;
                self.fan_out(scratch, step, lanes)?;
                feed.emitted += step;
            }
        }
        feed.pushed += chunk.len();
        debug_assert!(feed.emitted <= feed.pushed);
        Ok(())
    }

    /// Forward-transforms the (full) block in `feed.buf` into the shared
    /// spectrum `scratch.c1` and slides the buffer forward by one step.
    fn feed_transform(
        &self,
        feed: &mut ChunkFeed,
        scratch: &mut DspScratch,
    ) -> Result<(), DspError> {
        debug_assert_eq!(feed.buf.len(), self.block_len());
        scratch.r1.clear();
        scratch.r1.extend_from_slice(&feed.buf);
        self.plan.rfft_half_into(&scratch.r1, &mut scratch.c1)?;
        let step = self.step();
        feed.buf.copy_within(step.., 0);
        feed.buf.truncate(self.block_len() - step);
        Ok(())
    }

    /// [`StreamingMatchedFilterBank::push_chunk_into`] with the emitted
    /// lags normalized per lane.
    ///
    /// # Errors
    ///
    /// Same conditions as [`StreamingMatchedFilterBank::push_chunk_into`].
    pub fn push_chunk_normalized_into(
        &self,
        feed: &mut ChunkFeed,
        chunk: &[f64],
        scratch: &mut DspScratch,
        lanes: &mut [Vec<f64>],
    ) -> Result<(), DspError> {
        let before = feed.emitted;
        self.push_chunk_into(feed, chunk, scratch, lanes)?;
        self.normalize_tail(feed.emitted - before, lanes);
        Ok(())
    }

    /// Flushes `feed`, appending the remaining raw lags to every lane so
    /// each lane's total output matches the one-shot call exactly (one
    /// lag per pushed sample). The feed is then finished; call
    /// [`ChunkFeed::reset`] to reuse it.
    ///
    /// # Errors
    ///
    /// Mirrors [`StreamingMatchedFilterBank::correlate_into`] on the
    /// concatenated input, like
    /// [`StreamingMatchedFilter::finish_chunks_into`].
    pub fn finish_chunks_into(
        &self,
        feed: &mut ChunkFeed,
        scratch: &mut DspScratch,
        lanes: &mut [Vec<f64>],
    ) -> Result<(), DspError> {
        self.check_lanes(lanes)?;
        if !feed.finished && feed.pushed == 0 {
            return Err(DspError::EmptyInput {
                what: "xcorr signal",
            });
        }
        if !feed.finished && feed.pushed < self.min_signal_len {
            return Err(DspError::invalid(
                "template",
                format!(
                    "template ({}) longer than signal ({})",
                    self.min_signal_len, feed.pushed
                ),
            ));
        }
        self.check_feed(feed)?;
        let total = feed.pushed;
        while feed.emitted < total {
            feed.buf.resize(self.block_len(), 0.0);
            self.feed_transform(feed, scratch)?;
            let take = self.step().min(total - feed.emitted);
            self.fan_out(scratch, take, lanes)?;
            feed.emitted += take;
        }
        feed.finished = true;
        Ok(())
    }

    /// [`StreamingMatchedFilterBank::finish_chunks_into`] with the
    /// emitted lags normalized per lane.
    ///
    /// # Errors
    ///
    /// Same conditions as
    /// [`StreamingMatchedFilterBank::finish_chunks_into`].
    pub fn finish_chunks_normalized_into(
        &self,
        feed: &mut ChunkFeed,
        scratch: &mut DspScratch,
        lanes: &mut [Vec<f64>],
    ) -> Result<(), DspError> {
        let before = feed.emitted;
        self.finish_chunks_into(feed, scratch, lanes)?;
        self.normalize_tail(feed.emitted - before, lanes);
        Ok(())
    }

    /// Scales the last `appended` values of every lane by its template
    /// energy (every lane receives the same lag count per call, so one
    /// counter covers them all — no per-lane bookkeeping to allocate).
    fn normalize_tail(&self, appended: usize, lanes: &mut [Vec<f64>]) {
        for (lane, out) in self.lanes.iter().zip(lanes.iter_mut()) {
            let k = 1.0 / lane.energy;
            let start = out.len() - appended;
            for v in &mut out[start..] {
                *v *= k;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::Window;

    fn argmax(x: &[f64]) -> usize {
        x.iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0
    }

    #[test]
    fn finds_template_at_known_offset() {
        let template = [1.0, -2.0, 3.0, -1.0];
        let mut signal = vec![0.0; 64];
        signal[20..24].copy_from_slice(&template);
        let out = xcorr(&signal, &template).unwrap();
        assert_eq!(argmax(&out), 20);
        let peak = out[20];
        let energy: f64 = template.iter().map(|x| x * x).sum();
        assert!((peak - energy).abs() < 1e-9);
    }

    #[test]
    fn matches_direct_computation() {
        let signal: Vec<f64> = (0..50).map(|i| ((i * 7 % 13) as f64) - 6.0).collect();
        let template: Vec<f64> = (0..8).map(|i| ((i * 3 % 5) as f64) - 2.0).collect();
        let fast = xcorr(&signal, &template).unwrap();
        for k in 0..signal.len() {
            let direct: f64 = template
                .iter()
                .enumerate()
                .filter(|(n, _)| k + n < signal.len())
                .map(|(n, &t)| signal[k + n] * t)
                .sum();
            assert!((fast[k] - direct).abs() < 1e-8, "lag {k}");
        }
    }

    #[test]
    fn normalized_peak_is_one_for_exact_match() {
        let template = [0.5, -1.5, 2.5, 0.25, -0.75];
        let mut signal = vec![0.0; 32];
        signal[10..15].copy_from_slice(&template);
        let out = normalized_xcorr(&signal, &template).unwrap();
        assert!((out[10] - 1.0).abs() < 1e-9);
        assert_eq!(argmax(&out), 10);
    }

    #[test]
    fn normalized_is_gain_invariant() {
        let template = [1.0, -1.0, 2.0];
        let mut quiet = vec![0.0; 32];
        quiet[5..8].copy_from_slice(&[0.01, -0.01, 0.02]);
        let out = normalized_xcorr(&quiet, &template).unwrap();
        assert!((out[5] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn matched_filter_normalization() {
        let template = [2.0, 0.0, -2.0];
        let filter = MatchedFilter::new(&template).unwrap();
        let mut signal = vec![0.0; 16];
        signal[4..7].copy_from_slice(&template);
        let out = filter.correlate_normalized(&signal).unwrap();
        assert!((out[4] - 1.0).abs() < 1e-9);
        assert_eq!(filter.len(), 3);
        assert!(!filter.is_empty());
        assert!((filter.template_energy() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_degenerate_inputs() {
        assert!(xcorr(&[], &[1.0]).is_err());
        assert!(xcorr(&[1.0], &[]).is_err());
        assert!(xcorr(&[1.0], &[1.0, 2.0]).is_err());
        assert!(MatchedFilter::new(&[]).is_err());
        assert!(MatchedFilter::new(&[0.0, 0.0]).is_err());
        assert!(normalized_xcorr(&[1.0, 2.0], &[0.0]).is_err());
    }

    #[test]
    fn detects_template_in_noise() {
        // Deterministic pseudo-noise plus a strong template.
        let template: Vec<f64> = (0..32)
            .map(|i| (i as f64 * 0.7).sin() * (i as f64 * 0.13).cos())
            .collect();
        let mut signal: Vec<f64> = (0..512)
            .map(|i| 0.05 * ((i * 2654435761_usize % 1000) as f64 / 500.0 - 1.0))
            .collect();
        for (i, &t) in template.iter().enumerate() {
            signal[200 + i] += t;
        }
        let out = xcorr(&signal, &template).unwrap();
        assert_eq!(argmax(&out), 200);
    }

    #[test]
    fn two_occurrences_produce_two_peaks() {
        let template = [1.0, 2.0, 1.0];
        let mut signal = vec![0.0; 64];
        signal[10..13].copy_from_slice(&template);
        signal[40..43].copy_from_slice(&template);
        let out = xcorr(&signal, &template).unwrap();
        let energy: f64 = template.iter().map(|x| x * x).sum();
        assert!((out[10] - energy).abs() < 1e-9);
        assert!((out[40] - energy).abs() < 1e-9);
    }

    fn assert_bit_close(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        let scale = 1.0 + b.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() <= 1e-9 * scale, "lag {i}: {x} vs {y}");
        }
    }

    #[test]
    fn streaming_matches_one_shot_xcorr() {
        let template: Vec<f64> = (0..37)
            .map(|i| (i as f64 * 0.4).sin() - 0.3 * (i as f64 * 0.09).cos())
            .collect();
        let signal: Vec<f64> = (0..1500)
            .map(|i| (i as f64 * 0.021).sin() * (i as f64 * 0.0047).cos())
            .collect();
        let reference = xcorr(&signal, &template).unwrap();
        let filter = StreamingMatchedFilter::new(&template).unwrap();
        assert_eq!(filter.block_len(), 256); // next_pow2(4 * 37)
        assert_eq!(filter.step(), 256 - 37 + 1);
        let streamed = filter.correlate(&signal).unwrap();
        assert_bit_close(&streamed, &reference);
    }

    #[test]
    fn streaming_handles_signal_shorter_than_one_block() {
        let template = [1.0, -2.0, 3.0, -1.0, 0.5];
        let signal: Vec<f64> = (0..7).map(|i| (i as f64 * 0.9).sin()).collect();
        let filter = StreamingMatchedFilter::new(&template).unwrap();
        assert!(filter.block_len() > signal.len());
        let streamed = filter.correlate(&signal).unwrap();
        let reference = xcorr(&signal, &template).unwrap();
        assert_bit_close(&streamed, &reference);
    }

    #[test]
    fn streaming_peak_fft_size_is_capture_independent() {
        let template: Vec<f64> = (0..100).map(|i| (i as f64 * 0.2).sin()).collect();
        let filter = StreamingMatchedFilter::new(&template).unwrap();
        let block = filter.block_len();
        for &len in &[200usize, 1000, 50_000] {
            let signal: Vec<f64> = (0..len).map(|i| (i as f64 * 0.01).cos()).collect();
            let reference = xcorr(&signal, &template).unwrap();
            let streamed = filter.correlate(&signal).unwrap();
            assert_bit_close(&streamed, &reference);
            // Block length is a property of the template alone.
            assert_eq!(filter.block_len(), block);
        }
    }

    #[test]
    fn streaming_normalization_matches_matched_filter() {
        let template = [2.0, 0.0, -2.0];
        let mut signal = vec![0.0; 64];
        signal[4..7].copy_from_slice(&template);
        let filter = StreamingMatchedFilter::new(&template).unwrap();
        let mut scratch = DspScratch::new();
        let mut out = Vec::new();
        filter
            .correlate_normalized_into(&signal, &mut scratch, &mut out)
            .unwrap();
        assert!((out[4] - 1.0).abs() < 1e-9);
        assert!((filter.template_energy() - 8.0).abs() < 1e-12);
        assert_eq!(filter.template_len(), 3);
    }

    /// Feeds `signal` through a chunk feed in pieces of the given sizes
    /// (cycled) and returns the full emitted output.
    fn run_chunked(filter: &StreamingMatchedFilter, signal: &[f64], sizes: &[usize]) -> Vec<f64> {
        let mut feed = filter.chunk_feed();
        let mut scratch = DspScratch::new();
        let mut out = Vec::new();
        let mut pos = 0;
        let mut i = 0;
        while pos < signal.len() {
            let n = sizes[i % sizes.len()].min(signal.len() - pos);
            filter
                .push_chunk_into(&mut feed, &signal[pos..pos + n], &mut scratch, &mut out)
                .unwrap();
            pos += n;
            i += 1;
        }
        filter
            .finish_chunks_into(&mut feed, &mut scratch, &mut out)
            .unwrap();
        assert!(feed.is_finished());
        assert_eq!(feed.pushed(), signal.len());
        assert_eq!(feed.emitted(), signal.len());
        out
    }

    #[test]
    fn chunked_feed_is_bit_identical_to_one_shot() {
        let template: Vec<f64> = (0..37)
            .map(|i| (i as f64 * 0.4).sin() - 0.3 * (i as f64 * 0.09).cos())
            .collect();
        let signal: Vec<f64> = (0..1777)
            .map(|i| (i as f64 * 0.021).sin() * (i as f64 * 0.0047).cos())
            .collect();
        let filter = StreamingMatchedFilter::new(&template).unwrap();
        let reference = filter.correlate(&signal).unwrap();
        // Single samples, prime sizes, block-aligned sizes, whole capture.
        for sizes in [
            &[1usize][..],
            &[3, 7, 11][..],
            &[256][..],
            &[signal.len()][..],
            &[255, 1, 513][..],
        ] {
            let streamed = run_chunked(&filter, &signal, sizes);
            assert_eq!(streamed, reference, "chunk sizes {sizes:?}");
        }
    }

    #[test]
    fn chunked_feed_normalized_matches_one_shot_normalized() {
        let template = [2.0, 0.0, -2.0, 1.0];
        let signal: Vec<f64> = (0..300).map(|i| (i as f64 * 0.17).sin()).collect();
        let filter = StreamingMatchedFilter::new(&template).unwrap();
        let mut scratch = DspScratch::new();
        let mut reference = Vec::new();
        filter
            .correlate_normalized_into(&signal, &mut scratch, &mut reference)
            .unwrap();
        let mut feed = filter.chunk_feed();
        let mut out = Vec::new();
        for chunk in signal.chunks(23) {
            filter
                .push_chunk_normalized_into(&mut feed, chunk, &mut scratch, &mut out)
                .unwrap();
        }
        filter
            .finish_chunks_normalized_into(&mut feed, &mut scratch, &mut out)
            .unwrap();
        assert_eq!(out, reference);
    }

    #[test]
    fn chunk_feed_reset_supports_reuse_and_empty_chunks() {
        let template = [1.0, -1.0, 0.5];
        let signal: Vec<f64> = (0..97).map(|i| (i as f64 * 0.3).cos()).collect();
        let filter = StreamingMatchedFilter::new(&template).unwrap();
        let reference = filter.correlate(&signal).unwrap();
        let mut feed = filter.chunk_feed();
        let mut scratch = DspScratch::new();
        for round in 0..3 {
            let mut out = Vec::new();
            // Zero-length chunks are no-ops anywhere in the stream.
            filter
                .push_chunk_into(&mut feed, &[], &mut scratch, &mut out)
                .unwrap();
            filter
                .push_chunk_into(&mut feed, &signal[..40], &mut scratch, &mut out)
                .unwrap();
            filter
                .push_chunk_into(&mut feed, &[], &mut scratch, &mut out)
                .unwrap();
            filter
                .push_chunk_into(&mut feed, &signal[40..], &mut scratch, &mut out)
                .unwrap();
            filter
                .finish_chunks_into(&mut feed, &mut scratch, &mut out)
                .unwrap();
            assert_eq!(out, reference, "round {round}");
            // A finished feed rejects further traffic until reset.
            assert!(filter
                .push_chunk_into(&mut feed, &signal[..1], &mut scratch, &mut out)
                .is_err());
            assert!(filter
                .finish_chunks_into(&mut feed, &mut scratch, &mut out)
                .is_err());
            feed.reset();
        }
    }

    #[test]
    fn chunk_feed_finish_mirrors_one_shot_errors() {
        let filter = StreamingMatchedFilter::new(&[1.0, 2.0, 3.0]).unwrap();
        let mut scratch = DspScratch::new();
        let mut out = Vec::new();
        // Nothing pushed: same error class as correlate(&[]).
        let mut feed = filter.chunk_feed();
        assert!(matches!(
            filter.finish_chunks_into(&mut feed, &mut scratch, &mut out),
            Err(DspError::EmptyInput { .. })
        ));
        // Fewer samples than the template: same error as the one-shot.
        feed.reset();
        filter
            .push_chunk_into(&mut feed, &[1.0, 2.0], &mut scratch, &mut out)
            .unwrap();
        assert!(filter
            .finish_chunks_into(&mut feed, &mut scratch, &mut out)
            .is_err());
        // A feed from a different engine geometry is rejected.
        let other = StreamingMatchedFilter::new(&[1.0; 64]).unwrap();
        let mut foreign = other.chunk_feed();
        assert!(filter
            .push_chunk_into(&mut foreign, &[1.0], &mut scratch, &mut out)
            .is_err());
    }

    #[test]
    fn streaming_rejects_degenerate_inputs() {
        assert!(StreamingMatchedFilter::new(&[]).is_err());
        assert!(StreamingMatchedFilter::new(&[0.0, 0.0]).is_err());
        // Block shorter than template, or not a power of two.
        assert!(StreamingMatchedFilter::with_block_len(&[1.0; 8], 4).is_err());
        assert!(StreamingMatchedFilter::with_block_len(&[1.0; 8], 12).is_err());
        let filter = StreamingMatchedFilter::new(&[1.0, 2.0]).unwrap();
        assert!(filter.correlate(&[]).is_err());
        assert!(filter.correlate(&[1.0]).is_err());
    }

    /// Three deterministic templates of *different* lengths plus a long
    /// test capture, shared by the bank conformance tests.
    fn bank_fixtures() -> (Vec<Vec<f64>>, Vec<f64>) {
        let templates: Vec<Vec<f64>> = [(37usize, 0.40, 0.09), (29, 0.23, 0.31), (61, 0.57, 0.13)]
            .iter()
            .map(|&(n, a, b)| {
                (0..n)
                    .map(|i| (i as f64 * a).sin() - 0.3 * (i as f64 * b).cos())
                    .collect()
            })
            .collect();
        let signal: Vec<f64> = (0..2_111)
            .map(|i| (i as f64 * 0.021).sin() * (i as f64 * 0.0047).cos())
            .collect();
        (templates, signal)
    }

    /// The bank's conformance contract: every lane is bit-identical to
    /// an independent `StreamingMatchedFilter` holding the same template
    /// at the bank's shared geometry (zero-padded to the bank template
    /// length, same block length) — one-shot, raw and normalized.
    #[test]
    fn bank_lanes_bit_identical_to_independent_engines() {
        let (templates, signal) = bank_fixtures();
        let refs: Vec<&[f64]> = templates.iter().map(Vec::as_slice).collect();
        let bank = StreamingMatchedFilterBank::new(&refs).unwrap();
        assert_eq!(bank.len(), 3);
        assert!(!bank.is_empty());
        assert_eq!(bank.template_len(), 61);
        assert_eq!(bank.block_len(), 256); // next_pow2(4 * 61)
        assert_eq!(bank.step(), 256 - 61 + 1);
        assert_eq!(bank.lead(), 0);
        let mut scratch = DspScratch::new();
        let mut lanes: Vec<Vec<f64>> = vec![Vec::new(); bank.len()];
        bank.correlate_into(&signal, &mut scratch, &mut lanes)
            .unwrap();
        for (k, template) in templates.iter().enumerate() {
            let mut padded = template.clone();
            padded.resize(bank.template_len(), 0.0);
            let single = StreamingMatchedFilter::with_block_len(&padded, bank.block_len()).unwrap();
            let mut reference = Vec::new();
            single
                .correlate_into(&signal, &mut scratch, &mut reference)
                .unwrap();
            assert_eq!(
                lanes[k], reference,
                "lane {k} diverged from independent engine"
            );
            // Zero-padding leaves the energy untouched, so the
            // normalized lane is bit-identical too.
            assert_eq!(
                bank.template_energy(k).unwrap(),
                single.template_energy(),
                "lane {k} energy"
            );
        }
        let raw = lanes.clone();
        bank.correlate_normalized_into(&signal, &mut scratch, &mut lanes)
            .unwrap();
        for (k, template) in templates.iter().enumerate() {
            let mut padded = template.clone();
            padded.resize(bank.template_len(), 0.0);
            let single = StreamingMatchedFilter::with_block_len(&padded, bank.block_len()).unwrap();
            let mut reference = Vec::new();
            single
                .correlate_normalized_into(&signal, &mut scratch, &mut reference)
                .unwrap();
            assert_eq!(lanes[k], reference, "normalized lane {k}");
            assert_ne!(lanes[k], raw[k]);
        }
        assert!(bank.template_energy(3).is_none());
    }

    #[test]
    fn bank_chunked_feed_is_bit_identical_to_one_shot() {
        let (templates, signal) = bank_fixtures();
        let refs: Vec<&[f64]> = templates.iter().map(Vec::as_slice).collect();
        let bank = StreamingMatchedFilterBank::new(&refs).unwrap();
        let mut scratch = DspScratch::new();
        let mut reference: Vec<Vec<f64>> = vec![Vec::new(); bank.len()];
        bank.correlate_into(&signal, &mut scratch, &mut reference)
            .unwrap();
        for sizes in [
            &[1usize][..],
            &[3, 7, 11][..],
            &[256][..],
            &[signal.len()][..],
            &[255, 1, 513][..],
        ] {
            let mut feed = bank.chunk_feed();
            let mut lanes: Vec<Vec<f64>> = vec![Vec::new(); bank.len()];
            let mut pos = 0;
            let mut i = 0;
            while pos < signal.len() {
                let n = sizes[i % sizes.len()].min(signal.len() - pos);
                bank.push_chunk_into(&mut feed, &signal[pos..pos + n], &mut scratch, &mut lanes)
                    .unwrap();
                pos += n;
                i += 1;
            }
            bank.finish_chunks_into(&mut feed, &mut scratch, &mut lanes)
                .unwrap();
            assert!(feed.is_finished());
            assert_eq!(feed.pushed(), signal.len());
            assert_eq!(feed.emitted(), signal.len());
            assert_eq!(lanes, reference, "chunk sizes {sizes:?}");
        }
        // Normalized chunked flow matches the normalized one-shot.
        let mut normalized: Vec<Vec<f64>> = vec![Vec::new(); bank.len()];
        bank.correlate_normalized_into(&signal, &mut scratch, &mut normalized)
            .unwrap();
        let mut feed = bank.chunk_feed();
        let mut lanes: Vec<Vec<f64>> = vec![Vec::new(); bank.len()];
        for chunk in signal.chunks(97) {
            bank.push_chunk_normalized_into(&mut feed, chunk, &mut scratch, &mut lanes)
                .unwrap();
        }
        bank.finish_chunks_normalized_into(&mut feed, &mut scratch, &mut lanes)
            .unwrap();
        assert_eq!(lanes, normalized);
    }

    /// Folded-prefilter bank: each lane bit-identical to an independent
    /// folded engine. Equal-length templates give both paths the same
    /// geometry automatically.
    #[test]
    fn bank_folded_prefilters_match_independent_folded_engines() {
        let templates: Vec<Vec<f64>> = [(0.40, 0.09), (0.23, 0.31), (0.57, 0.13), (0.71, 0.05)]
            .iter()
            .map(|&(a, b)| {
                (0..48)
                    .map(|i| (i as f64 * a).sin() - 0.3 * (i as f64 * b).cos())
                    .collect()
            })
            .collect();
        let signal: Vec<f64> = (0..1_900)
            .map(|i| (i as f64 * 0.037).sin() * (i as f64 * 0.0011).cos())
            .collect();
        // Per-lane band-pass filters with distinct bands but one tap
        // count (hence one group delay), like K beacon signatures.
        let bands = [
            (2_000.0, 3_000.0),
            (3_200.0, 4_200.0),
            (4_400.0, 5_400.0),
            (5_600.0, 6_600.0),
        ];
        let taps: Vec<Vec<f64>> = bands
            .iter()
            .map(|&(lo, hi)| {
                crate::filter::FirFilter::band_pass(lo, hi, 44_100.0, 31, Window::Hamming)
                    .unwrap()
                    .taps()
                    .to_vec()
            })
            .collect();
        let entries: Vec<(&[f64], &[f64])> = templates
            .iter()
            .zip(&taps)
            .map(|(t, h)| (t.as_slice(), h.as_slice()))
            .collect();
        let bank = StreamingMatchedFilterBank::with_zero_phase_prefilters(&entries).unwrap();
        assert_eq!(bank.lead(), 15);
        assert_eq!(bank.template_len(), 48 + 31 - 1);
        let mut scratch = DspScratch::new();
        let mut lanes: Vec<Vec<f64>> = vec![Vec::new(); bank.len()];
        bank.correlate_normalized_into(&signal, &mut scratch, &mut lanes)
            .unwrap();
        for (k, (template, tap)) in templates.iter().zip(&taps).enumerate() {
            let single = StreamingMatchedFilter::with_zero_phase_prefilter(template, tap).unwrap();
            assert_eq!(single.block_len(), bank.block_len());
            assert_eq!(single.template_len(), bank.template_len());
            let mut reference = Vec::new();
            single
                .correlate_normalized_into(&signal, &mut scratch, &mut reference)
                .unwrap();
            assert_eq!(lanes[k], reference, "folded lane {k}");
        }
        // Chunked folded bank honours the shared lead.
        let mut feed = bank.chunk_feed();
        let mut chunked: Vec<Vec<f64>> = vec![Vec::new(); bank.len()];
        for chunk in signal.chunks(113) {
            bank.push_chunk_normalized_into(&mut feed, chunk, &mut scratch, &mut chunked)
                .unwrap();
        }
        bank.finish_chunks_normalized_into(&mut feed, &mut scratch, &mut chunked)
            .unwrap();
        assert_eq!(chunked, lanes);
    }

    /// The folded single engine must reproduce band-pass → correlate
    /// exactly: zero-phase filter then correlate equals folded
    /// correlation at every full-overlap lag.
    #[test]
    fn f64_folded_prefilter_matches_filter_then_correlate() {
        let template: Vec<f64> = (0..61)
            .map(|i| (i as f64 * 0.31).sin() * (1.0 - (i as f64 - 30.0).abs() / 31.0))
            .collect();
        let signal: Vec<f64> = (0..2_111)
            .map(|i| (i as f64 * 0.037).sin() * (i as f64 * 0.0011).cos())
            .collect();
        let bp =
            crate::filter::FirFilter::band_pass(2_000.0, 6_400.0, 44_100.0, 31, Window::Hamming)
                .unwrap();
        let filtered = bp.filter_zero_phase(&signal).unwrap();
        let reference = xcorr(&filtered, &template).unwrap();
        let folded =
            StreamingMatchedFilter::with_zero_phase_prefilter(&template, bp.taps()).unwrap();
        assert_eq!(folded.template_len(), template.len() + bp.taps().len() - 1);
        let streamed = folded.correlate(&signal).unwrap();
        assert_eq!(streamed.len(), reference.len());
        let full = signal.len() - folded.template_len() + 1;
        assert_bit_close(&streamed[..full], &reference[..full]);
        // Degenerate folds are rejected.
        assert!(StreamingMatchedFilter::with_zero_phase_prefilter(&[], bp.taps()).is_err());
        assert!(StreamingMatchedFilter::with_zero_phase_prefilter(&template, &[]).is_err());
        assert!(StreamingMatchedFilter::with_zero_phase_prefilter(&[0.0, 0.0], bp.taps()).is_err());
    }

    /// Folding lengthens the template by `taps − 1` samples but must not
    /// raise the shortest accepted signal: a folded engine (single or
    /// banked) accepts exactly the original template length and rejects
    /// one sample fewer with the unfolded engine's typed error, one-shot
    /// and through a chunk feed alike.
    #[test]
    fn folded_prefilter_keeps_the_unfolded_minimum_signal() {
        let template: Vec<f64> = (0..61).map(|i| (i as f64 * 0.31).sin()).collect();
        let taps =
            crate::filter::FirFilter::band_pass(2_000.0, 6_400.0, 44_100.0, 31, Window::Hamming)
                .unwrap();
        let plain = StreamingMatchedFilter::new(&template).unwrap();
        let folded =
            StreamingMatchedFilter::with_zero_phase_prefilter(&template, taps.taps()).unwrap();
        let bank =
            StreamingMatchedFilterBank::with_zero_phase_prefilters(&[(&template, taps.taps())])
                .unwrap();
        assert!(folded.template_len() > template.len());
        assert_eq!(folded.min_signal_len(), template.len());
        assert_eq!(bank.min_signal_len(), template.len());
        let fits: Vec<f64> = (0..template.len())
            .map(|i| (i as f64 * 0.2).cos())
            .collect();
        let short = &fits[..fits.len() - 1];
        let mut scratch = DspScratch::new();
        let mut out = Vec::new();
        let expected = plain
            .correlate_into(short, &mut scratch, &mut out)
            .unwrap_err();
        assert!(matches!(expected, DspError::InvalidParameter { .. }));

        // One-shot.
        folded
            .correlate_into(&fits, &mut scratch, &mut out)
            .unwrap();
        assert_eq!(out.len(), fits.len());
        assert_eq!(
            folded.correlate_into(short, &mut scratch, &mut out),
            Err(expected.clone())
        );
        let mut lanes = vec![Vec::new()];
        bank.correlate_into(&fits, &mut scratch, &mut lanes)
            .unwrap();
        assert_eq!(lanes[0], out);
        assert_eq!(
            bank.correlate_into(short, &mut scratch, &mut lanes),
            Err(expected.clone())
        );

        // Chunked, one sample at a time.
        let mut feed = folded.chunk_feed();
        let mut chunked = Vec::new();
        for s in &fits {
            folded
                .push_chunk_into(
                    &mut feed,
                    std::slice::from_ref(s),
                    &mut scratch,
                    &mut chunked,
                )
                .unwrap();
        }
        folded
            .finish_chunks_into(&mut feed, &mut scratch, &mut chunked)
            .unwrap();
        assert_eq!(chunked, out);
        feed.reset();
        folded
            .push_chunk_into(&mut feed, short, &mut scratch, &mut chunked)
            .unwrap();
        assert_eq!(
            folded.finish_chunks_into(&mut feed, &mut scratch, &mut chunked),
            Err(expected.clone())
        );
        let mut feed = bank.chunk_feed();
        let mut banked = vec![Vec::new()];
        bank.push_chunk_into(&mut feed, &fits, &mut scratch, &mut banked)
            .unwrap();
        bank.finish_chunks_into(&mut feed, &mut scratch, &mut banked)
            .unwrap();
        assert_eq!(banked[0], out);
        feed.reset();
        bank.push_chunk_into(&mut feed, short, &mut scratch, &mut banked)
            .unwrap();
        assert_eq!(
            bank.finish_chunks_into(&mut feed, &mut scratch, &mut banked),
            Err(expected)
        );
    }

    #[test]
    fn bank_clone_shares_template_spectra() {
        let (templates, _) = bank_fixtures();
        let refs: Vec<&[f64]> = templates.iter().map(Vec::as_slice).collect();
        let bank = StreamingMatchedFilterBank::new(&refs).unwrap();
        assert_eq!(bank.template_fft_count(), 3);
        let clone = bank.clone();
        // A clone reuses the Arc'd spectra — no new template FFTs.
        assert_eq!(clone.template_fft_count(), 3);
        for (a, b) in bank.lanes.iter().zip(&clone.lanes) {
            assert!(Arc::ptr_eq(&a.spec, &b.spec));
        }
        assert!(Arc::ptr_eq(&bank.plan, &clone.plan));
    }

    #[test]
    fn bank_rejects_degenerate_inputs() {
        assert!(StreamingMatchedFilterBank::new(&[]).is_err());
        assert!(StreamingMatchedFilterBank::new(&[&[1.0, 2.0][..], &[][..]]).is_err());
        assert!(StreamingMatchedFilterBank::new(&[&[1.0][..], &[0.0, 0.0][..]]).is_err());
        assert!(StreamingMatchedFilterBank::with_block_len(&[&[1.0; 8][..]], 4).is_err());
        assert!(StreamingMatchedFilterBank::with_block_len(&[&[1.0; 8][..]], 12).is_err());
        // Mismatched prefilter group delays are rejected.
        assert!(StreamingMatchedFilterBank::with_zero_phase_prefilters(&[
            (&[1.0, 2.0][..], &[0.2, 0.6, 0.2][..]),
            (&[1.0, 2.0][..], &[0.1, 0.2, 0.4, 0.2, 0.1][..]),
        ])
        .is_err());
        assert!(StreamingMatchedFilterBank::with_zero_phase_prefilters(&[]).is_err());
        assert!(
            StreamingMatchedFilterBank::with_zero_phase_prefilters(&[(&[1.0][..], &[][..])])
                .is_err()
        );

        let bank = StreamingMatchedFilterBank::new(&[&[1.0, 2.0][..], &[2.0, -1.0][..]]).unwrap();
        let mut scratch = DspScratch::new();
        let mut lanes: Vec<Vec<f64>> = vec![Vec::new(); 2];
        assert!(bank.correlate_into(&[], &mut scratch, &mut lanes).is_err());
        assert!(bank
            .correlate_into(&[1.0], &mut scratch, &mut lanes)
            .is_err());
        // Mis-sized lane sets are rejected everywhere.
        let mut short: Vec<Vec<f64>> = vec![Vec::new(); 1];
        assert!(bank
            .correlate_into(&[1.0; 16], &mut scratch, &mut short)
            .is_err());
        let mut feed = bank.chunk_feed();
        assert!(bank
            .push_chunk_into(&mut feed, &[1.0], &mut scratch, &mut short)
            .is_err());
        assert!(bank
            .finish_chunks_into(&mut feed, &mut scratch, &mut short)
            .is_err());
        // Feed error mirroring: nothing pushed, short stream, foreign feed.
        assert!(matches!(
            bank.finish_chunks_into(&mut feed, &mut scratch, &mut lanes),
            Err(DspError::EmptyInput { .. })
        ));
        bank.push_chunk_into(&mut feed, &[1.0], &mut scratch, &mut lanes)
            .unwrap();
        assert!(bank
            .finish_chunks_into(&mut feed, &mut scratch, &mut lanes)
            .is_err());
        let other = StreamingMatchedFilterBank::new(&[&[1.0; 64][..]]).unwrap();
        let mut foreign = other.chunk_feed();
        let mut one: Vec<Vec<f64>> = vec![Vec::new(); 1];
        assert!(other
            .push_chunk_into(&mut feed, &[1.0], &mut scratch, &mut one)
            .is_err());
        assert!(bank
            .push_chunk_into(&mut foreign, &[1.0], &mut scratch, &mut lanes)
            .is_err());
    }
}
