"""Detection statistics: exclusion z-scores over a lag band, echo scans.

The score at lag i standardizes the analyzed value against the mean and
standard deviation of its band neighborhood with i itself (and optionally
+-halfwidth neighbors) excluded, which makes detection independent of
loudness: scaling the clip shifts only quefrency 0 of the cepstrum.

A strong single echo at lag d distorts the scores at every other lag: its
own peak stays in the band mean and sigma (inflating sigma about tenfold),
and its rahmonics - the repeats (-1)^(k+1) alpha^k / (2k) of the echo
kernel's cepstrum at lags k*d - displace the values at multiples of d.
detect_single_echo therefore cancels them once the plain profile's peak
clears RAHMONIC_CANCEL_Z: it estimates alpha = 2*c[d], subtracts the
predicted rahmonics for k >= 2, and rescores every lag outside the peak
window d, d+-1 against the residual with that window left out. The
detected lag and the z of the peak window are those of the plain profile,
so a clip carrying one echo reads as a clean clip at every other lag, and
a second strong echo shows as a rescored lag above the peak.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .audio import AudioClip
from .dsp import cross_correlate, enhance_correlation, real_cepstrum
from .embed import DEFAULT_SINGLE_ECHO_BAND, SpreadKey

# sigma below this is treated as degenerate (constant neighborhood)
SIGMA_FLOOR = 1e-12

# plain-profile peak z from which detect_single_echo cancels rahmonics
RAHMONIC_CANCEL_Z = 8.0
# lags d-1..d+1 around the detected peak keep their plain z and stay out of
# the rescoring statistics: a fractional echo lag leaks into d+-1
PEAK_WINDOW_HALFWIDTH = 1

SPREAD_BAND_START = 3
SPREAD_EXCLUSION_HALFWIDTH = 3

CSV_FIELDS = ("clip_id", "key_id", "duration_seconds", "argmax_lag", "z_at_key", "degenerate")


class ZScore(NamedTuple):
    z: float
    degenerate: bool


def exclusion_zscore(values, i: int, a: int, b: int, halfwidth: int = 0) -> ZScore:
    """Exclusion z-score of values[i] against the band [a, b].

    The mean and (population) standard deviation are taken over indices
    j in [a, b] with |j - i| > halfwidth; halfwidth=0 excludes only i itself.
    Returns (z, degenerate); degenerate results carry z = 0.0 rather than
    propagating NaN.
    """
    values = np.asarray(values, dtype=np.float64)
    if not 0 <= a <= i <= b < values.size:
        raise ValueError(f"need 0 <= a <= i <= b < len(values); got a={a}, i={i}, b={b}")
    j = np.arange(a, b + 1)
    kept = values[a : b + 1][np.abs(j - i) > halfwidth]
    if kept.size < 2:
        raise ValueError("fewer than 2 samples remain after exclusion")
    mu = kept.mean()
    sigma = np.sqrt(np.mean((kept - mu) ** 2))
    if sigma < SIGMA_FLOOR:
        return ZScore(0.0, True)
    return ZScore(float((values[i] - mu) / sigma), False)


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
    """Result of one detection run on one clip."""

    profile: ZScoreProfile
    argmax_lag: int
    z_at_key: float | None = None
    clip_id: str = ""
    duration_seconds: float = 0.0
    key_id: str = ""

    def to_dict(self, include_profile: bool = True) -> dict:
        out = {
            "clip_id": self.clip_id,
            "key_id": self.key_id,
            "duration_seconds": self.duration_seconds,
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
                       key_lag: int | None = None, clip_id: str = "",
                       key_id: str = "") -> DetectionReport:
    """Scan the whole-clip cepstrum for a single echo over the band.

    argmax_lag is the argmax of the plain exclusion z-score profile. When
    that profile's maximum z is at least RAHMONIC_CANCEL_Z, the reported
    profile is rahmonic-cancelled: with d the detected lag and alpha =
    2*c[d], the predicted rahmonics (-1)^(k+1) alpha^k / (2k) are subtracted
    at each lag k*d (k >= 2) in the band, and every lag outside the peak
    window d, d+-1 is rescored against the residual's band mean and sigma
    with the window left out. The window keeps its plain z. Below the
    threshold the profile is the plain one.

    A second strong echo in the same clip is rescored above the detected
    peak's plain z, so report.profile.argmax_lag may then differ from
    argmax_lag; that is how a second echo shows.

    z_at_key is read from the reported profile when key_lag is given.
    Requires band[0] >= 1 (quefrency 0 is the clip's log level, not an
    echo) and len(clip) > 2*band[1].
    """
    a, b = band
    if a < 1:
        raise ValueError(f"band must start at lag 1 or later; quefrency 0 is the log level, got {a}")
    if len(clip) <= 2 * b:
        raise ValueError(f"clip too short: need more than {2 * b} samples, got {len(clip)}")
    c = real_cepstrum(clip)
    plain = zscore_profile(c, (a, b), halfwidth=0, source="cepstrum")
    profile = plain
    if np.max(plain.z) >= RAHMONIC_CANCEL_Z:
        profile = _cancel_rahmonics(c, plain)
    z_at_key = profile.z_at(key_lag) if key_lag is not None else None
    return DetectionReport(
        profile=profile,
        argmax_lag=plain.argmax_lag,
        z_at_key=z_at_key,
        clip_id=clip_id,
        duration_seconds=clip.duration_seconds,
        key_id=key_id,
    )


def _cancel_rahmonics(cepstrum: np.ndarray, plain: ZScoreProfile) -> ZScoreProfile:
    """Rescore plain's band with the peak's rahmonics and window removed."""
    a, b = plain.band
    d = plain.argmax_lag
    residual = cepstrum[a : b + 1].copy()
    alpha = 2.0 * cepstrum[d]
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
    """
    cstar = cross_correlate(cepstrum, template)
    source = "spread_correlation"
    if enhanced:
        cstar = enhance_correlation(cstar)
        source = "spread_correlation_enhanced"
    a = SPREAD_BAND_START
    b = min(len(template) + delta, cstar.size - 1)
    if b <= a + 2 * SPREAD_EXCLUSION_HALFWIDTH:
        raise ValueError("clip too short for any usable spread detection band")
    return zscore_profile(cstar, (a, b), halfwidth=SPREAD_EXCLUSION_HALFWIDTH, source=source)


def detect_spread(clip: AudioClip, key: SpreadKey, enhanced: bool = False,
                  clip_id: str = "", key_id: str = "") -> DetectionReport:
    """Score the clip's cepstrum against the key's template (see spread_profile).

    z_at_key reports the score at the key's lag, or None when the band was
    clamped below it.
    """
    length, delta = key.length, key.delta
    if len(clip) <= length + delta + 1:
        raise ValueError(
            f"clip too short: need more than {length + delta + 1} samples, got {len(clip)}"
        )
    profile = spread_profile(real_cepstrum(clip), key.template, delta, enhanced)
    a, b = profile.band
    z_at_key = profile.z_at(delta) if a <= delta <= b else None
    return DetectionReport(
        profile=profile,
        argmax_lag=profile.argmax_lag,
        z_at_key=z_at_key,
        clip_id=clip_id,
        duration_seconds=clip.duration_seconds,
        key_id=key_id,
    )
