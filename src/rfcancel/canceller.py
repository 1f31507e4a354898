"""Interference separation: reference-aided cancellation and blind source
separation.

The reference-aided path exploits the clean reference (no SOI leakage) to
reduce separation to one delay plus one complex gain: a cross-correlation
pass picks the delay, a single inner product gives the least-squares gain,
and a subtraction removes the interference.  The BSS path is the
unsimplified baseline: PCA whitening followed by a complex kurtosis
fixed-point ICA that has to search the full 2x2 de-mixing space.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass, replace

import numpy as np

# fractional_delay is not called here, but the bench's tracer wraps it here
from .channel import _fast_length, fractional_delay, true_time_delay
from .errors import (
    AmbiguousLabeling,
    DegenerateReference,
    NoCoherentReference,
    NotConvergedWarning,
    RfCancelError,
    UnseparableWarning,
)
from .waveform import (
    BasebandWaveform, check_aligned, common_valid, merge_invalid,
)

# the correlation below which resolve_permutation finds no interference
COHERENCE_THRESHOLD = 0.2

_log = logging.getLogger(__name__)


@dataclass
class CancellerTaps:
    """Delay and complex gain applied to the reference before subtraction."""

    delay: float
    gain: complex

    def __post_init__(self):
        if not np.isfinite(self.delay):
            raise RfCancelError("tap delay must be finite")
        if not np.isfinite(self.gain):
            raise RfCancelError("tap gain must be finite")


@dataclass
class IcaConfig:
    """Settings for the kurtosis fixed-point iteration."""

    max_iter: int = 200
    tol: float = 1e-6
    seed: int = 0


@dataclass
class SeparationResult:
    """Blind-separation outputs plus the 2x2 de-mixing matrix and run
    metadata.  ``free_parameters`` counts what BSS had to estimate: 4,
    against 2 (one delay, one complex gain) for the reference method.
    """

    outputs: list
    demix: object
    iterations: int
    converged: bool
    free_parameters: int


def _gram(parts: list[np.ndarray]) -> np.ndarray:
    """The real parts of the parts' inner products."""
    return np.array([[np.vdot(u, v).real for v in parts] for u in parts])


def _correlate(xs: list[BasebandWaveform], ys: list[BasebandWaveform],
               max_lag_samples: int):
    """The cross-correlation of r_L = sum_i a_i xs[i] against r_H =
    sum_j b_j ys[j], for any real a and b, in its bilinear parts:
    ``(lags, corr, gram_l, gram_h, floor)`` with ``corr[i, j]`` the
    correlation of xs[i] against ys[j] at |lag| <= max_lag_samples, the
    parts' Gram matrices over the span the peak is normalized on, and the
    8/sqrt(N) noise floor for the N samples valid in r_L and in r_H.

    The parts are read over their common valid span, so the lag axis stays
    aligned with the original sample grid.
    """
    spans = common_valid(*xs, *ys)
    x, y = spans[:len(xs)], spans[len(xs):]
    n = x[0].size
    if 0 < max_lag_samples <= 64 and n > 4 * max_lag_samples:
        # small physical search ranges: direct correlation beats the FFT
        m_lag = max_lag_samples
        lags = np.arange(-m_lag, m_lag + 1)
        width = n - 2 * m_lag
        x = [u[m_lag: m_lag + width] for u in x]
        corr = np.array([[[np.vdot(v[m_lag - k: m_lag - k + width], u)
                           for k in lags] for v in y] for u in x])
        y = [v[m_lag: m_lag + width] for v in y]
    else:
        # circular correlation over nfft >= n + m points: lags -m..m do
        # not wrap onto any lag the record can hold
        m_lag = min(max_lag_samples, n - 1)
        nfft = _fast_length(n + m_lag)
        conj_y = [np.conj(np.fft.fft(v, nfft)) for v in y]
        circ = np.array([[np.fft.ifft(fu * fv) for fv in conj_y]
                         for fu in (np.fft.fft(u, nfft) for u in x)])
        corr = np.concatenate((circ[..., nfft - m_lag:],
                               circ[..., : m_lag + 1]), axis=-1)
        lags = np.arange(-m_lag, m_lag + 1)
    valid = min(len(ws[0]) - sum(merge_invalid(*ws)) for ws in (xs, ys))
    return lags, corr, _gram(x), _gram(y), 8.0 / np.sqrt(max(valid, 1))


def _xcorr_peak(c, a=(1.0,), b=(1.0,)) -> tuple[float, float]:
    """(refined lag in samples, normalized peak magnitude) of the
    correlation ``c`` (``_correlate``) of r_L = sum_i a_i xs[i] against
    r_H = sum_j b_j ys[j]."""
    lags, corr, gram_l, gram_h, _ = c
    a, b = np.asarray(a), np.asarray(b)
    mag = np.abs(a @ (b @ corr))
    norm = np.sqrt(max(a @ gram_l @ a, 0.0) * max(b @ gram_h @ b, 0.0))
    peak = int(np.argmax(mag))
    peak_norm = mag[peak] / norm if norm > 0 else 0.0
    lag = float(lags[peak])
    if 0 < peak < mag.size - 1:
        c_m, c_0, c_p = mag[peak - 1], mag[peak], mag[peak + 1]
        denom = c_m - 2 * c_0 + c_p
        if denom < 0:
            lag += 0.5 * (c_m - c_p) / denom
    return lag, float(peak_norm)


def estimate_delay(r_l: BasebandWaveform, r_h: BasebandWaveform,
                   max_lag: float) -> float:
    """Delay of r_H's content inside r_L, in seconds.

    The lag maximizing |cross-correlation| is refined to sub-sample
    precision by parabolic interpolation of the magnitude peak.  Raises
    NoCoherentReference when the normalized peak falls below its noise
    floor, 8/sqrt(N) for N valid samples: the signals share no content
    that the peak could locate.
    """
    check_aligned(r_l, r_h)
    return Training([r_l], [r_h], len(r_l), max_lag).delay()


def refine_delay_by_residual(r_l: BasebandWaveform, r_h: BasebandWaveform,
                             coarse_delay: float) -> float:
    """Polish a delay estimate within +-1 sample by maximizing the
    magnitude of the correlation of r_L against r_H at a continuous lag.

    Frequency-sweep scenarios need delay matching far below the 0.05-sample
    accuracy of the parabolic stage (picoseconds at GHz carriers).  At a lag
    of tau samples the correlation is C(tau) = sum_k S_k exp(j w_k tau), for
    S = FFT(x) * conj(FFT(y)) with x r_L on the slice below and y r_H's
    valid samples, each zero elsewhere.  Newton steps on |C|^2 go from the
    coarse delay, within +-1 sample of it, until a step falls below 1e-9
    samples, |C|^2 stops curving down, or 20 steps have run.  The slice
    holds only samples valid in both records, 80 samples clear of the
    delayed reference's edges; with none the coarse delay stands.
    """
    check_aligned(r_l, r_h)
    fs = r_l.sample_rate
    n = min(len(r_h), 1 << 16)  # a prefix keeps the transforms short
    ref, tgt = _prefix(r_h, n), _prefix(r_l, n)
    head = max(ref.invalid_head, int(abs(coarse_delay * fs)) + 80)
    sl = slice(max(head + 80, tgt.invalid_head),
               n - max(ref.invalid_tail + 80, tgt.invalid_tail))
    if sl.start >= sl.stop:
        return float(coarse_delay)
    x, y = np.zeros((2, n), dtype=np.complex128)
    x[sl] = tgt.samples[sl]
    y[ref.invalid_head:n - ref.invalid_tail] = ref.valid
    s = np.fft.fft(x) * np.conj(np.fft.fft(y))
    w = 2 * np.pi * np.fft.fftfreq(n)
    d = 0.0  # the offset from the coarse delay, in samples
    for _ in range(20):
        e = s * np.exp(1j * w * (coarse_delay * fs + d))
        c, c1, c2 = e.sum(), (w * e).sum(), (w * w * e).sum()
        # half the first and the second derivative of |C|^2
        slope = -(c1 * np.conj(c)).imag
        curve = abs(c1) ** 2 - (c2 * np.conj(c)).real
        if not curve < 0:
            break
        step = min(max(d - slope / curve, -1.0), 1.0) - d
        d += step
        if abs(step) < 1e-9:
            break
    return float(coarse_delay + d / fs)


def _fit_gain(xs: list[BasebandWaveform], a, refs: list[BasebandWaveform],
              b) -> complex:
    """Least-squares gain of r = sum_j b_j refs[j] inside r_L = sum_i a_i
    xs[i], for real a and b, from the parts' inner products over their
    common valid span."""
    spans = common_valid(*xs, *refs)
    x, r = spans[:len(xs)], spans[len(xs):]
    a, b = np.asarray(a), np.asarray(b)
    energy = b @ _gram(r) @ b
    if energy == 0:
        raise DegenerateReference("reference signal has zero energy")
    return complex(b @ np.array([[np.vdot(v, u) for u in x] for v in r]) @ a
                   / energy)


def estimate_gain(r_l: BasebandWaveform, ref: BasebandWaveform) -> complex:
    """Least-squares complex gain of the reference inside r_L.

    ``ref`` is r_H already delayed by the taps' delay, as ``subtract``
    takes it, so the estimate plugs straight into CancellerTaps.
    """
    return _fit_gain([r_l], (1.0,), [ref], (1.0,))


def cancel(r_l: BasebandWaveform, r_h: BasebandWaveform,
           taps: CancellerTaps) -> BasebandWaveform:
    """Subtract the matched reference from the antenna signal.

    y = r_L - gain * delayed(r_H); the delay rotates the carrier the same
    way the channel's delay element does, so taps transfer across carriers.
    """
    ref = true_time_delay(r_h, taps.delay) if taps.delay != 0.0 else r_h
    return subtract(r_l, ref, taps.gain)


def subtract(r_l: BasebandWaveform, ref: BasebandWaveform, gain: complex,
             in_place: bool = False) -> BasebandWaveform:
    """r_L - gain * ref for a reference that is already delayed.

    ``in_place=True`` forms the difference in ``ref``'s own buffer, which
    then holds the result; the values are the same either way.
    """
    check_aligned(r_l, ref)
    y = np.multiply(gain, ref.samples, out=ref.samples if in_place else None)
    np.subtract(r_l.samples, y, out=y)
    head, tail = merge_invalid(r_l, ref)
    return r_l.with_samples(y, invalid_head=head, invalid_tail=tail)


def perturb_taps(taps: CancellerTaps, gain_error_mag: float = 0.0,
                 gain_error_phase_deg: float = 0.0,
                 delay_error: float = 0.0) -> CancellerTaps:
    """Inject a calibrated matching error into trained taps.

    Models the finite matching accuracy of real tunable attenuators and
    delay lines; a relative gain error of eps bounds the achievable depth
    at -20*log10(eps).
    """
    gain = taps.gain * (1 + gain_error_mag) * np.exp(
        1j * np.deg2rad(gain_error_phase_deg)
    )
    return CancellerTaps(taps.delay + delay_error, gain)


def _prefix(w: BasebandWaveform, n: int, margin: int = 0) -> BasebandWaveform:
    """The first ``n`` samples of ``w`` and the part of its invalid tail
    that they reach; ``w``'s last ``margin`` invalid samples, a delay's own
    edge, stay invalid at the end of the prefix as well."""
    tail = max(w.invalid_tail - margin - max(len(w) - n, 0), 0) + margin
    return w.with_samples(w.samples[:n], invalid_tail=tail)


def _combine(parts: list[BasebandWaveform], coefs) -> BasebandWaveform:
    """sum_i coefs[i] * parts[i], with the worst of their invalid edges; a
    lone part at coefficient 1 is returned as it is."""
    if len(parts) == 1 and coefs[0] == 1.0:
        return parts[0]
    y = coefs[0] * parts[0].samples
    for c, p in zip(coefs[1:], parts[1:]):
        y += c * p.samples
    head, tail = merge_invalid(*parts)
    return parts[0].with_samples(y, invalid_head=head, invalid_tail=tail)


class Training:
    """Tap training on the first ``window`` samples of a record given as
    its linear parts in the interference scale s: r_L = xs[0] + s*xs[1] and
    r_H = s*ys[0] + ys[1], where either second part may be left out.

    The correlation and the inner products are bilinear, so the lag
    correlations of every r_L part against every r_H part, and the Gram
    matrices of the peak's norms, are computed once, here; ``delay`` and
    ``train`` combine them at each s.  A formed record pair is the
    one-part case at s = 1.
    """

    def __init__(self, xs: list[BasebandWaveform], ys: list[BasebandWaveform],
                 window: int, max_lag: float, refine: str = "parabolic"):
        check_aligned(*xs, *ys)
        self.ys, self.window, self.refine = ys, window, refine
        self.train_l = [_prefix(x, window) for x in xs]
        self.train_h = [_prefix(y, window) for y in ys]
        max_lag_samples = int(round(max_lag * xs[0].sample_rate))
        if max_lag_samples >= len(self.train_l[0]) // 4:
            raise RfCancelError("max_lag must be below a quarter of the "
                                "duration")
        self.corr = _correlate(self.train_l, self.train_h, max_lag_samples)

    def _coefs(self, s: float) -> tuple[tuple, tuple]:
        return (1.0, s)[:len(self.train_l)], (s, 1.0)[:len(self.train_h)]

    def delay(self, s: float = 1.0) -> float:
        """The correlation peak's delay at scale ``s``, in seconds, as
        ``estimate_delay`` finds it."""
        lag, peak_norm = _xcorr_peak(self.corr, *self._coefs(s))
        *_, floor = self.corr
        if peak_norm < floor:
            raise NoCoherentReference(f"correlation peak {peak_norm:.4g} is "
                                      f"below the noise floor {floor:.4g}")
        return lag / self.ys[0].sample_rate

    def train(self, s: float = 1.0
              ) -> tuple[CancellerTaps, list[BasebandWaveform]]:
        """Taps at scale ``s``, and each r_H part delayed by them over the
        whole record, as ``train`` describes for a formed pair."""
        a, b = self._coefs(s)
        try:
            delay = self.delay(s)
        except NoCoherentReference as exc:
            _log.warning("%s; training at lag 0", exc)
            delay = 0.0
        else:
            if self.refine == "residual":
                delay = refine_delay_by_residual(_combine(self.train_l, a),
                                                 _combine(self.train_h, b),
                                                 delay)
        refs = [true_time_delay(y, delay) for y in self.ys]
        windows = [_prefix(r, self.window, r.invalid_tail - y.invalid_tail)
                   for r, y in zip(refs, self.ys)]
        return CancellerTaps(delay, _fit_gain(self.train_l, a, windows, b)), refs


def train(r_l: BasebandWaveform, r_h: BasebandWaveform, window: int,
          max_lag: float, refine: str = "parabolic"
          ) -> tuple[CancellerTaps, BasebandWaveform]:
    """Taps trained on the first ``window`` samples, and r_H delayed by
    them over the whole record: ``Training``'s one-part case.

    The delay is searched (``estimate_delay``) and the least-squares gain
    fitted on the window alone; no residual is formed.  When the reference
    correlates too weakly for a trustworthy delay (nothing to cancel, or
    interference far below the SOI), training degrades to lag 0 and logs a
    warning on the ``rfcancel.canceller`` logger.  The gain is still the
    least-squares fit relative to r_H, so it does not shrink: the
    subtracted term stays at the SOI's projection onto r_H (at -300 dB ISR
    on evm_vs_isr.yaml, a gain of about 3.3e12 and a depth of -250 dB,
    with the EVM at 0.32%).  A zero-energy reference still raises
    DegenerateReference.  ``refine="residual"`` polishes the delay by
    correlation maximization; frequency-sweep training uses it to reach
    picosecond matching.

    r_H itself is delayed once, over the full record: the gain fit takes
    the window-length prefix of that array, with the edge margins a delayed
    window would carry, and the caller subtracts the same array
    (``subtract``) wherever it applies these taps.
    """
    taps, (ref,) = Training([r_l], [r_h], window, max_lag, refine).train()
    return taps, ref


def _excess_kurtosis(x: np.ndarray) -> float:
    """Circular complex excess kurtosis; zero for complex Gaussian."""
    p = np.mean(np.abs(x) ** 2)
    if p == 0:
        return 0.0
    return float(np.mean(np.abs(x) ** 4) / p**2 - 2.0)


def bss_separate(x1: BasebandWaveform, x2: BasebandWaveform,
                 config: IcaConfig | None = None) -> SeparationResult:
    """Blind 2x2 separation: PCA whitening + complex-kurtosis fixed point.

    Outputs are recovered up to permutation and complex scale.  Warns
    UnseparableWarning when both observed channels look Gaussian, and
    NotConvergedWarning (result still returned, converged=False) when the
    iteration cap is hit.
    """
    check_aligned(x1, x2)
    cfg = config or IcaConfig()
    head, tail = merge_invalid(x1, x2)
    stop = len(x1) - tail
    full = np.vstack([x1.samples, x2.samples])
    full = full - np.mean(full[:, head:stop], axis=1, keepdims=True)
    obs = full[:, head:stop]
    n = obs.shape[1]

    if max(abs(_excess_kurtosis(obs[0])), abs(_excess_kurtosis(obs[1]))) < 0.1:
        warnings.warn(
            "both channels are near-Gaussian; ICA cannot identify sources",
            UnseparableWarning,
        )

    # PCA whitening from the sample covariance
    cov = (obs @ obs.conj().T) / n
    eigval, eigvec = np.linalg.eigh(cov)
    eigval = np.maximum(eigval, 1e-30)
    whiten = (eigvec * (1.0 / np.sqrt(eigval))) @ eigvec.conj().T
    z = whiten @ obs

    # kurtosis-contrast fixed point with deflation; in 2-D the second
    # unmixing vector is the orthogonal complement of the first
    rng = np.random.default_rng(cfg.seed)
    w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    w /= np.linalg.norm(w)
    iterations = 0
    converged = False
    for iterations in range(1, cfg.max_iter + 1):
        y = w.conj() @ z
        ay2 = np.abs(y) ** 2
        w_new = (z * (np.conj(y) * ay2)) .mean(axis=1) - 2 * np.mean(ay2) * w
        w_new /= np.linalg.norm(w_new)
        alignment = abs(np.vdot(w_new, w))
        w = w_new
        if 1 - alignment < cfg.tol:
            converged = True
            break
    if not converged:
        warnings.warn(
            f"ICA did not converge in {cfg.max_iter} iterations",
            NotConvergedWarning,
        )
    w2 = np.array([-np.conj(w[1]), np.conj(w[0])])
    unmix = np.vstack([w.conj(), w2.conj()])
    demix = unmix @ whiten
    # statistics come from the trimmed window, outputs keep full length so
    # they stay sample-aligned with the inputs
    outputs = [x1.with_samples(s, invalid_head=head, invalid_tail=tail)
               for s in demix @ full]
    return SeparationResult(outputs, demix, iterations, converged,
                            free_parameters=4)


def resolve_permutation(result: SeparationResult,
                        reference: BasebandWaveform) -> SeparationResult:
    """Label BSS outputs using the interference reference.

    The output most correlated with the reference, over their common valid
    span, is the interference; the other becomes outputs[0], the SOI
    estimate, rescaled to unit power.
    """
    if len(result.outputs) != 2:
        raise RfCancelError("permutation resolution needs two outputs")
    corrs = []
    for out in result.outputs:
        a, b = common_valid(out, reference)
        denom = np.linalg.norm(a) * np.linalg.norm(b)
        corrs.append(abs(np.vdot(b, a)) / denom if denom > 0 else 0.0)
    if max(corrs) < COHERENCE_THRESHOLD:
        raise AmbiguousLabeling(
            f"neither output correlates with the reference "
            f"(|rho| = {corrs[0]:.3f}, {corrs[1]:.3f})"
        )
    int_idx = int(np.argmax(corrs))
    soi = result.outputs[1 - int_idx]
    rms = np.sqrt(np.mean(np.abs(soi.valid) ** 2))
    soi = soi.with_samples(soi.samples / rms)
    return replace(result, outputs=[soi, result.outputs[int_idx]])


__all__ = [
    "COHERENCE_THRESHOLD",
    "CancellerTaps",
    "IcaConfig",
    "SeparationResult",
    "Training",
    "bss_separate",
    "cancel",
    "estimate_delay",
    "estimate_gain",
    "perturb_taps",
    "refine_delay_by_residual",
    "resolve_permutation",
    "subtract",
    "train",
]
