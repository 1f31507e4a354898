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


def _xcorr_peak(r_l: BasebandWaveform, r_h: BasebandWaveform,
                max_lag_samples: int) -> tuple[float, float]:
    """(refined lag in samples, normalized peak magnitude) of the
    cross-correlation, restricted to |lag| <= max_lag_samples.

    Both waveforms are read over their common valid span, so the lag axis
    stays aligned with the original sample grid.
    """
    x, y = common_valid(r_l, r_h)
    n = x.size
    if 0 < max_lag_samples <= 64 and n > 4 * max_lag_samples:
        # small physical search ranges: direct correlation beats the FFT
        m_lag = max_lag_samples
        lags = np.arange(-m_lag, m_lag + 1)
        width = n - 2 * m_lag
        xw = x[m_lag: m_lag + width]
        corr = np.array(
            [np.vdot(y[m_lag - k: m_lag - k + width], xw) for k in lags]
        )
        norm = np.linalg.norm(xw) * np.linalg.norm(y[m_lag: m_lag + width])
    else:
        # circular correlation over nfft >= n + m points: lags -m..m do
        # not wrap onto any lag the record can hold
        m_lag = min(max_lag_samples, n - 1)
        nfft = _fast_length(n + m_lag)
        circ = np.fft.ifft(np.fft.fft(x, nfft) * np.conj(np.fft.fft(y, nfft)))
        corr = np.concatenate((circ[nfft - m_lag:], circ[: m_lag + 1]))
        lags = np.arange(-m_lag, m_lag + 1)
        norm = np.linalg.norm(x) * np.linalg.norm(y)
    mag = np.abs(corr)
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
    fs = r_l.sample_rate
    max_lag_samples = int(round(max_lag * fs))
    if max_lag_samples >= len(r_l) // 4:
        raise RfCancelError("max_lag must be below a quarter of the duration")
    lag, peak_norm = _xcorr_peak(r_l, r_h, max_lag_samples)
    noise_floor = 8.0 / np.sqrt(max(min(r_l.valid.size, r_h.valid.size), 1))
    if peak_norm < noise_floor:
        raise NoCoherentReference(f"correlation peak {peak_norm:.4g} is "
                                  f"below the noise floor {noise_floor:.4g}")
    return lag / fs


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


def estimate_gain(r_l: BasebandWaveform, ref: BasebandWaveform) -> complex:
    """Least-squares complex gain of the reference inside r_L.

    ``ref`` is r_H already delayed by the taps' delay, as ``subtract``
    takes it, so the estimate plugs straight into CancellerTaps.
    """
    a, b = common_valid(r_l, ref)
    energy = np.real(np.vdot(b, b))
    if energy == 0:
        raise DegenerateReference("reference signal has zero energy")
    return complex(np.vdot(b, a) / energy)


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


def train(r_l: BasebandWaveform, r_h: BasebandWaveform, window: int,
          max_lag: float, refine: str = "parabolic"
          ) -> tuple[CancellerTaps, BasebandWaveform]:
    """Taps trained on the first ``window`` samples, and r_H delayed by
    them over the whole record.

    The delay is searched (``estimate_delay``) and the least-squares gain
    fitted on the window alone; no residual is formed.  When the reference
    correlates too weakly for a trustworthy delay (nothing to cancel, or
    interference far below the SOI), training degrades to lag 0 and logs a
    warning on the ``rfcancel.canceller`` logger: the gain then shrinks
    toward zero.  A zero-energy reference still raises DegenerateReference.
    ``refine="residual"`` polishes the delay by correlation maximization;
    frequency-sweep training uses it to reach picosecond matching.

    r_H itself is delayed once, over the full record: the gain fit takes
    the window-length prefix of that array, with the edge margins a delayed
    window would carry, and the caller subtracts the same array
    (``subtract``) wherever it applies these taps.
    """
    check_aligned(r_l, r_h)
    train_l, train_h = _prefix(r_l, window), _prefix(r_h, window)
    try:
        delay = estimate_delay(train_l, train_h, max_lag)
    except NoCoherentReference as exc:
        _log.warning("%s; training at lag 0", exc)
        delay = 0.0
    else:
        if refine == "residual":
            delay = refine_delay_by_residual(train_l, train_h, delay)
    ref = true_time_delay(r_h, delay)
    ref_window = _prefix(ref, window, ref.invalid_tail - r_h.invalid_tail)
    return CancellerTaps(delay, estimate_gain(train_l, ref_window)), ref


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
