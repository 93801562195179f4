"""Detection statistics: exclusion z-scores over a lag band, echo scans.

The score at lag i standardizes the analyzed value against the mean and
standard deviation of its band neighborhood with i itself (and optionally
+-halfwidth neighbors) excluded, which makes detection independent of
loudness: scaling the clip shifts only quefrency 0 of the cepstrum.

A strong single echo at lag d distorts the scores at every other lag: its
own peak stays in the band mean and sigma (inflating sigma about tenfold),
and its rahmonics - the repeats (-1)^(k+1) alpha^k / (2k) of the echo
kernel's cepstrum at lags k*d - displace the values at multiples of d.
single_echo_profile therefore cancels them once the plain profile's peak
clears RAHMONIC_CANCEL_Z: it estimates alpha = 2*c[d], subtracts the
predicted rahmonics for k >= 2, and rescores every lag outside the peak
window d, d+-1 against the residual with that window left out. The
detected lag and the z of the peak window are those of the plain profile,
so a clip carrying one echo reads as a clean clip at every other lag, and
a second strong echo shows as a rescored lag above the peak.

detect_single_echo computes the cepstrum only at its band's lags
(real_cepstrum's `lags`), which takes no inverse FFT. detect_spread takes
the whole inverse: its correlation reads 2L + delta + 1 lags.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .audio import AudioClip
from .dsp import cross_correlate, enhance_correlation, real_cepstrum
from .embed import SpreadKey

DEFAULT_SINGLE_ECHO_BAND = (25, 125)

# sigma below this is treated as degenerate (constant neighborhood)
SIGMA_FLOOR = 1e-12

# plain-profile peak z from which detect_single_echo cancels rahmonics
RAHMONIC_CANCEL_Z = 8.0
# lags d-1..d+1 around the detected peak keep their plain z and stay out of
# the rescoring statistics: a fractional echo lag leaks into d+-1
PEAK_WINDOW_HALFWIDTH = 1

SPREAD_BAND_START = 3
SPREAD_EXCLUSION_HALFWIDTH = 3
# zscore_profile scores a lag against the band less its +-3 window, which needs
# 2 lags left over: the spread band [3, b] must reach this lag
SPREAD_MIN_BAND_END = SPREAD_BAND_START + 2 * SPREAD_EXCLUSION_HALFWIDTH + 2


def scoring_length(key, band=DEFAULT_SINGLE_ECHO_BAND) -> int:
    """Fewest samples a clip needs for `embed` and the key's detector to score it.

    A spread key needs more than L + delta + 1 samples, and L + SPREAD_MIN_BAND_END
    for its correlation to reach SPREAD_MIN_BAND_END. A single echo, scanned over
    `band`, needs more than 2 * band[1] (the cepstrum mirrors about N/2). Raises a
    ValueError that says why when no length can do.
    """
    if isinstance(key, SpreadKey):
        if key.length + key.delta < SPREAD_MIN_BAND_END:
            raise ValueError(f"spread band [{SPREAD_BAND_START}, L + delta] = [{SPREAD_BAND_START}, "
                             f"{key.length + key.delta}] must reach lag {SPREAD_MIN_BAND_END} to be scored")
        return key.length + max(key.delta + 2, SPREAD_MIN_BAND_END)
    need = _single_echo_length(band)
    if not band[0] <= key.delta <= band[1]:
        raise ValueError(f"echo lag {key.delta} outside the scan band [{band[0]}, {band[1]}]")
    return need


def _single_echo_length(band) -> int:
    """Fewest samples detect_single_echo scans `band` in."""
    a, b = band
    if a < 1:
        raise ValueError(f"band must start at lag 1 or later; quefrency 0 is the log level, got {a}")
    if b - a < 2:  # a lag is scored against the 2 or more others
        raise ValueError(f"band [{a}, {b}] must hold at least 3 lags")
    return 2 * b + 1


@dataclass
class ZScoreProfile:
    """Per-lag z-scores over a scan band.

    z[k] is the score at lag band[0] + k; degenerate marks profiles where at
    least one lag had a constant neighborhood (those entries are 0.0).
    """

    z: np.ndarray
    band: tuple
    exclusion_halfwidth: int
    source: str
    degenerate: bool = False

    @property
    def argmax_lag(self) -> int:
        return int(self.band[0] + np.argmax(self.z))

    def z_at(self, lag: int) -> float:
        a, b = self.band
        if not a <= lag <= b:
            raise ValueError(f"lag {lag} outside band [{a}, {b}]")
        return float(self.z[lag - a])


def zscore_profile(values, band, halfwidth: int = 0, source: str = "cepstrum") -> ZScoreProfile:
    """Exclusion z-score (values[i] - mu) / sigma at every lag of the band, vectorized."""
    a, b = int(band[0]), int(band[1])
    values = np.asarray(values, dtype=np.float64)
    if not 0 <= a < b < values.size:
        raise ValueError(f"band [{a}, {b}] invalid for sequence of length {values.size}")
    v = values[a : b + 1]
    v = v - v.mean()  # z is shift-invariant; centred, the cumulative sums keep their precision
    m = v.size
    idx = np.arange(m)
    lo = np.maximum(idx - halfwidth, 0)
    hi = np.minimum(idx + halfwidth, m - 1)
    keep_n = m - (hi - lo + 1)
    if np.any(keep_n < 2):
        raise ValueError("fewer than 2 samples remain after exclusion")
    csum = np.concatenate(([0.0], np.cumsum(v)))
    csumsq = np.concatenate(([0.0], np.cumsum(v * v)))
    mu = (v.sum() - (csum[hi + 1] - csum[lo])) / keep_n
    mean_sq = (np.dot(v, v) - (csumsq[hi + 1] - csumsq[lo])) / keep_n
    sigma = np.sqrt(np.maximum(mean_sq - mu * mu, 0.0))
    ok = sigma >= SIGMA_FLOOR
    z = np.where(ok, (v - mu) / np.where(ok, sigma, 1.0), 0.0)
    return ZScoreProfile(
        z=z,
        band=(a, b),
        exclusion_halfwidth=halfwidth,
        source=source,
        degenerate=bool(not ok.all()),
    )


@dataclass
class DetectionReport:
    """What one detection run measured on one clip; the caller names the clip and key."""

    profile: ZScoreProfile
    argmax_lag: int
    z_at_key: float | None = None

    def to_dict(self, include_profile: bool = True) -> dict:
        out = {
            "argmax_lag": self.argmax_lag,
            "z_at_key": self.z_at_key,
            "degenerate": self.profile.degenerate,
            "band": list(self.profile.band),
            "exclusion_halfwidth": self.profile.exclusion_halfwidth,
            "source": self.profile.source,
        }
        if include_profile:
            out["z"] = [float(v) for v in self.profile.z]
        return out


def detect_single_echo(clip: AudioClip, band=DEFAULT_SINGLE_ECHO_BAND,
                       key_lag: int | None = None) -> DetectionReport:
    """Scan the clip's cepstrum for a single echo over the band.

    Only the band's lags of the whole-clip cepstrum are computed
    (real_cepstrum's `lags`), and single_echo_profile scores them.
    z_at_key is read from the reported profile when key_lag is given.
    Requires band[0] >= 1 (quefrency 0 is the clip's log level, not an
    echo), at least 3 lags in the band and len(clip) > 2*band[1].
    """
    need = _single_echo_length(band)
    if len(clip) < need:
        raise ValueError(f"clip too short: need at least {need} samples, got {len(clip)}")
    profile, argmax_lag = single_echo_profile(real_cepstrum(clip, lags=range(band[0], band[1] + 1)), band)
    z_at_key = profile.z_at(key_lag) if key_lag is not None else None
    return DetectionReport(profile=profile, argmax_lag=argmax_lag, z_at_key=z_at_key)


def single_echo_profile(values, band) -> tuple:
    """(profile, argmax_lag) of a single echo scanned over band.

    values[i] is the cepstrum at lag band[0] + i, for every lag of the band.

    argmax_lag is the argmax of the plain exclusion z-score profile. When
    that profile's maximum z is at least RAHMONIC_CANCEL_Z, the returned
    profile is rahmonic-cancelled: with d the detected lag and alpha =
    2*c[d], the predicted rahmonics (-1)^(k+1) alpha^k / (2k) are subtracted
    at each lag k*d (k >= 2) in the band, and every lag outside the peak
    window d, d+-1 is rescored against the residual's band mean and sigma
    with the window left out. The window keeps its plain z. Below the
    threshold the profile is the plain one.

    A second strong echo in the same clip is rescored above the detected
    peak's plain z, so profile.argmax_lag may then differ from argmax_lag;
    that is how a second echo shows.
    """
    a, b = int(band[0]), int(band[1])
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (b - a + 1,):
        raise ValueError(f"band [{a}, {b}] needs {b - a + 1} cepstrum values, got shape {values.shape}")
    plain = replace(zscore_profile(values, (0, b - a), halfwidth=0, source="cepstrum"), band=(a, b))
    profile = plain
    if np.max(plain.z) >= RAHMONIC_CANCEL_Z:
        profile = _cancel_rahmonics(values, plain)
    return profile, plain.argmax_lag


def _cancel_rahmonics(values: np.ndarray, plain: ZScoreProfile) -> ZScoreProfile:
    """Rescore plain's band with the peak's rahmonics and window removed; values span the band."""
    a, b = plain.band
    d = plain.argmax_lag
    residual = values.copy()
    alpha = 2.0 * values[d - a]
    for k in range(2, b // d + 1):
        residual[k * d - a] -= (-1) ** (k + 1) * alpha**k / (2 * k)
    rescored = np.abs(np.arange(a, b + 1) - d) > PEAK_WINDOW_HALFWIDTH
    count = np.count_nonzero(rescored)
    if count < 3:  # too narrow a band to score anything
        return plain
    rest = zscore_profile(residual[rescored], (0, count - 1))
    z = plain.z.copy()
    z[rescored] = rest.z
    return replace(plain, z=z, degenerate=plain.degenerate or rest.degenerate)


def spread_profile(cepstrum: np.ndarray, template: np.ndarray, delta: int,
                   enhanced: bool = False) -> ZScoreProfile:
    """z profile of a cepstrum correlated with a +-1 spread template.

    This is the one spread scorer: detect_spread and the bit-flip harness
    both score through it, on cepstra they compute once. The band is
    [3, L + delta] with a +-3 exclusion window, clamped to the available
    correlation lags; enhanced sharpens the correlation before scoring.
    Only lags 0..L + delta + 1 are correlated (the band plus the lag just
    past its end, which enhancement subtracts at the band's last lag), so
    only the 2L + delta + 1 cepstrum samples those lags read are passed on.
    """
    cstar = cross_correlate(cepstrum[: 2 * len(template) + delta + 1], template)
    source = "spread_correlation"
    if enhanced:
        cstar = enhance_correlation(cstar)
        source = "spread_correlation_enhanced"
    a = SPREAD_BAND_START
    b = min(len(template) + delta, cstar.size - 1)
    return zscore_profile(cstar, (a, b), halfwidth=SPREAD_EXCLUSION_HALFWIDTH, source=source)


def detect_spread(clip: AudioClip, key: SpreadKey, enhanced: bool = False) -> DetectionReport:
    """Score the clip's cepstrum against the key's template (see spread_profile).

    The clip must hold scoring_length(key) samples. z_at_key reports the
    score at the key's lag, or None when the key's lag is below the band.
    """
    need = scoring_length(key)
    if len(clip) < need:
        raise ValueError(f"clip too short: need at least {need} samples, got {len(clip)}")
    profile = spread_profile(real_cepstrum(clip), key.template, key.delta, enhanced)
    a, b = profile.band
    z_at_key = profile.z_at(key.delta) if a <= key.delta <= b else None
    return DetectionReport(profile=profile, argmax_lag=profile.argmax_lag, z_at_key=z_at_key)
