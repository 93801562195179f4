"""Evaluation harness: degradation channels, ROC/AUROC, experiment sweeps.

Generative models are stood in for by parameterized channels (noise, pitch
shift via resampling, mixing, echo attenuation) so the statistical pipeline
(z-scores, duration trends, bit-flip ROC curves) runs end to end in seconds.
All randomness flows from explicit seeds; a config run twice produces
byte-identical reports.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .audio import AudioClip, mix, resample
from .detect import detect_single_echo, detect_spread, spread_profile
from .dsp import real_cepstrum
from .embed import DEFAULT_SINGLE_ECHO_BAND, EchoKey, SpreadKey, embed, scaled_key
from .patterns import flip_bits

log = logging.getLogger(__name__)

CHANNEL_KINDS = (
    "identity",
    "attenuate_echo",
    "additive_noise",
    "resample_factor",
    "random_resample",
    "mixture",
    "composite",
)

# salt decorrelates the noise drawn by sibling stages / experiment cells
_SALT_STRIDE = 1000003


@dataclass
class ChannelSpec:
    """One simulated degradation.

    kind selects which optional fields apply:
      identity        - no-op
      attenuate_echo  - ratio: scales the embedding alpha (a model that
                        reproduces the echo more weakly); pass-through as a
                        sample transform, consumed by the embedding stage
      additive_noise  - snr_db: white noise at that SNR vs the clip RMS
      resample_factor - factor f (pitch factor): resample to rate/f and
                        reinterpret at the original rate; lag scales by 1/f
      random_resample - probability of applying a pitch factor drawn
                        uniformly from [low, high]
      mixture         - interferers noise clips mixed in at snr_db total
      composite       - stages applied in order
    """

    kind: str = "identity"
    ratio: float = 1.0
    snr_db: float = 20.0
    factor: float = 1.0
    probability: float = 0.5
    low: float = 0.75
    high: float = 1.25
    interferers: int = 2
    stages: list = field(default_factory=list)
    seed: int = 0

    def __post_init__(self):
        if self.kind not in CHANNEL_KINDS:
            raise ValueError(f"unknown channel kind {self.kind!r}; expected one of {CHANNEL_KINDS}")
        if self.kind == "attenuate_echo" and self.ratio <= 0:
            raise ValueError(f"attenuation ratio must be positive, got {self.ratio}")
        if self.kind in ("additive_noise", "mixture") and not np.isfinite(self.snr_db):
            raise ValueError("snr_db must be finite")
        if self.kind == "resample_factor" and not 0.5 <= self.factor <= 2.0:
            raise ValueError(f"resample factor must be in [0.5, 2], got {self.factor}")
        if self.kind == "random_resample":
            if not 0.0 <= self.probability <= 1.0:
                raise ValueError(f"probability must be in [0, 1], got {self.probability}")
            if not 0.5 <= self.low <= self.high <= 2.0:
                raise ValueError(f"factor range [{self.low}, {self.high}] outside [0.5, 2]")
        if self.kind == "mixture" and self.interferers < 1:
            raise ValueError("mixture needs at least one interferer")
        if self.kind == "composite":
            self.stages = [s if isinstance(s, ChannelSpec) else ChannelSpec(**s) for s in self.stages]

    def to_dict(self) -> dict:
        out = {"kind": self.kind, "seed": self.seed}
        if self.kind == "attenuate_echo":
            out["ratio"] = self.ratio
        elif self.kind == "additive_noise":
            out["snr_db"] = self.snr_db
        elif self.kind == "resample_factor":
            out["factor"] = self.factor
        elif self.kind == "random_resample":
            out.update(probability=self.probability, low=self.low, high=self.high)
        elif self.kind == "mixture":
            out.update(interferers=self.interferers, snr_db=self.snr_db)
        elif self.kind == "composite":
            out["stages"] = [s.to_dict() for s in self.stages]
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "ChannelSpec":
        return cls(**d)


def echo_alpha_scale(spec: ChannelSpec) -> float:
    """Product of all attenuate_echo ratios in the channel (1.0 if none)."""
    if spec.kind == "attenuate_echo":
        return spec.ratio
    if spec.kind == "composite":
        out = 1.0
        for stage in spec.stages:
            out *= echo_alpha_scale(stage)
        return out
    return 1.0


def _noise_at_rms(rng, n: int, target_rms: float) -> np.ndarray:
    noise = rng.standard_normal(n)
    measured = np.sqrt(np.mean(noise**2))
    if measured == 0:
        return noise
    return noise * (target_rms / measured)


def _rms(x: np.ndarray) -> float:
    return float(np.sqrt(np.mean(x**2)))


def apply_channel(clip: AudioClip, spec: ChannelSpec, salt: int = 0) -> AudioClip:
    """Run a clip through a degradation channel.

    salt decorrelates the channel noise between experiment cells that share
    one spec; identical (clip, spec, salt) triples give identical output.
    attenuate_echo passes samples through unchanged here - it acts on the
    embedding stage (see echo_alpha_scale), since a weaker echo cannot be
    carved out of an already-watermarked waveform.
    """
    kind = spec.kind
    if kind in ("identity", "attenuate_echo"):
        return clip.copy()
    rng = np.random.default_rng([max(spec.seed, 0), max(salt, 0), 11])
    if kind == "additive_noise":
        target = _rms(clip.samples) * 10.0 ** (-spec.snr_db / 20.0)
        noisy = clip.samples + _noise_at_rms(rng, len(clip), target)
        return AudioClip(noisy, clip.sample_rate)
    if kind == "resample_factor":
        return _pitch_shift(clip, spec.factor)
    if kind == "random_resample":
        if rng.random() < spec.probability:
            factor = rng.uniform(spec.low, spec.high)
            return _pitch_shift(clip, factor)
        return clip.copy()
    if kind == "mixture":
        total_rms = _rms(clip.samples) * 10.0 ** (-spec.snr_db / 20.0)
        per_interferer = total_rms / np.sqrt(spec.interferers)
        parts = [clip]
        for _ in range(spec.interferers):
            parts.append(AudioClip(_noise_at_rms(rng, len(clip), per_interferer), clip.sample_rate))
        return mix(parts, [1.0] * len(parts))
    if kind == "composite":
        out = clip
        for index, stage in enumerate(spec.stages):
            out = apply_channel(out, stage, salt=salt * _SALT_STRIDE + index)
        return out
    raise ValueError(f"unknown channel kind {kind!r}")


def _pitch_shift(clip: AudioClip, factor: float) -> AudioClip:
    # pitch up by `factor` = resample to rate/factor, reinterpret at the old
    # rate: duration and echo lags scale by 1/factor
    shifted = resample(clip, int(round(clip.sample_rate / factor)))
    return AudioClip(shifted.samples, clip.sample_rate)


# ---------------------------------------------------------------------------
# ROC / AUROC


@dataclass
class RocResult:
    """Threshold-sweep ROC points plus the area under them."""

    points: np.ndarray  # (m, 2) array of (fpr, tpr), from (0,0) to (1,1)
    auroc: float
    n_true: int
    n_false: int

    def to_dict(self) -> dict:
        return {
            "auroc": self.auroc,
            "n_true": self.n_true,
            "n_false": self.n_false,
            "points": [[float(a), float(b)] for a, b in self.points],
        }


def roc(true_scores, false_scores) -> RocResult:
    """ROC curve from two score samples; higher scores mean "more positive".

    Thresholds sweep the union of observed scores in descending order, a
    point per threshold at (FPR, TPR) with >= comparisons; ties therefore
    land on diagonal segments and the trapezoidal area equals the rank
    statistic P(T > F) + 0.5 P(T = F).
    """
    t = np.asarray(true_scores, dtype=np.float64)
    f = np.asarray(false_scores, dtype=np.float64)
    if t.size == 0 or f.size == 0:
        raise ValueError("roc needs non-empty true and false score lists")
    thresholds = np.unique(np.concatenate([t, f]))[::-1]
    t_sorted = np.sort(t)
    f_sorted = np.sort(f)
    tpr = 1.0 - np.searchsorted(t_sorted, thresholds, side="left") / t.size
    fpr = 1.0 - np.searchsorted(f_sorted, thresholds, side="left") / f.size
    points = np.vstack([[0.0, 0.0], np.column_stack([fpr, tpr])])
    auroc = float(np.trapezoid(points[:, 1], points[:, 0]))
    return RocResult(points=points, auroc=auroc, n_true=int(t.size), n_false=int(f.size))


# ---------------------------------------------------------------------------
# experiment sweeps


@dataclass
class SweepRow:
    """One experiment cell: clip x duration x segment x condition."""

    clip_id: str
    condition: str  # "embedded" | "clean"
    duration_seconds: float
    segment_index: int
    key_id: str
    argmax_lag: int
    z_at_key: float | None
    degenerate: bool


def key_label(key) -> str:
    if isinstance(key, EchoKey):
        return f"single-d{key.delta}-a{key.alpha:g}"
    return f"spread-d{key.delta}-L{key.length}-a{key.alpha:g}"


def _random_segment(clip: AudioClip, duration_seconds: float, rng) -> AudioClip:
    n = int(round(duration_seconds * clip.sample_rate))
    if n > len(clip):
        raise ValueError(
            f"clip of {clip.duration_seconds:.2f}s shorter than requested {duration_seconds}s segment"
        )
    start = int(rng.integers(0, len(clip) - n + 1))
    return AudioClip(clip.samples[start : start + n], clip.sample_rate)


def run_duration_sweep(corpus, key, durations, segments_per_clip: int,
                       channel: ChannelSpec = ChannelSpec(), seed: int = 0,
                       band=DEFAULT_SINGLE_ECHO_BAND, include_clean: bool = True):
    """Detection over random segments of each duration, embedded and clean.

    corpus is a sequence of (clip_id, AudioClip) pairs; every clip must cover
    the longest duration. Returns long-format SweepRow records, embedded rows
    first within each cell, ordered by (clip, duration, segment) regardless
    of execution order.
    """
    corpus = list(corpus)
    effective_key = scaled_key(key, echo_alpha_scale(channel))
    kid = key_label(key)
    rows = []
    for clip_index, (clip_id, clip) in enumerate(corpus):
        for duration_index, duration in enumerate(durations):
            for segment_index in range(segments_per_clip):
                cell = ((clip_index * len(durations)) + duration_index) * segments_per_clip + segment_index
                rng = np.random.default_rng([seed, clip_index, duration_index, segment_index])
                segment = _random_segment(clip, duration, rng)
                conditions = [("embedded", embed(segment, effective_key))]
                if include_clean:
                    conditions.append(("clean", segment))
                for condition, prepared in conditions:
                    degraded = apply_channel(prepared, channel, salt=cell)
                    if isinstance(key, EchoKey):
                        report = detect_single_echo(degraded, band=band, key_lag=key.delta)
                    else:
                        report = detect_spread(degraded, key)
                    rows.append(SweepRow(
                        clip_id=clip_id,
                        condition=condition,
                        duration_seconds=float(duration),
                        segment_index=segment_index,
                        key_id=kid,
                        argmax_lag=report.argmax_lag,
                        z_at_key=report.z_at_key,
                        degenerate=report.profile.degenerate,
                    ))
    return rows


def median_z_by_duration(rows, condition: str = "embedded") -> dict:
    """Median z_at_key per duration for one condition of a sweep."""
    grouped = {}
    for row in rows:
        if row.condition == condition and row.z_at_key is not None:
            grouped.setdefault(row.duration_seconds, []).append(row.z_at_key)
    return {duration: float(np.median(v)) for duration, v in sorted(grouped.items())}


@dataclass
class BitflipCurve:
    """AUROC per perturbation level plus the embedded-vs-clean comparison."""

    flip_results: list  # [(flips, RocResult), ...] in the order requested
    clean_roc: RocResult
    true_scores: np.ndarray
    clean_scores: np.ndarray


def run_bitflip_curve(corpus, spread_key: SpreadKey, flips, channel: ChannelSpec = ChannelSpec(),
                      duration_seconds: float = 30.0, segments_per_clip: int = 1,
                      seed: int = 0) -> BitflipCurve:
    """ROC of true-pattern z-scores against perturbed-pattern z-scores.

    True scores correlate embedded clips with the key's pattern; false scores
    correlate the same clips with the pattern after k random bit flips, one
    RocResult per k. The clean_roc entry compares the true scores against the
    key's z-scores on unembedded clips instead.
    """
    corpus = list(corpus)
    if max(flips, default=0) > spread_key.length:
        raise ValueError(f"flip counts must be <= pattern length {spread_key.length}")
    effective_key = scaled_key(spread_key, echo_alpha_scale(channel))
    template, delta = spread_key.template, spread_key.delta
    true_scores = []
    clean_scores = []
    false_scores = {k: [] for k in flips}
    for clip_index, (clip_id, clip) in enumerate(corpus):
        for segment_index in range(segments_per_clip):
            cell = clip_index * segments_per_clip + segment_index
            rng = np.random.default_rng([seed, clip_index, 0, segment_index])
            segment = _random_segment(clip, duration_seconds, rng)
            embedded = apply_channel(embed(segment, effective_key), channel, salt=cell)
            clean = apply_channel(segment, channel, salt=cell)
            c_embedded = real_cepstrum(embedded)
            c_clean = real_cepstrum(clean)
            true_scores.append(spread_profile(c_embedded, template, delta).z_at(delta))
            clean_scores.append(spread_profile(c_clean, template, delta).z_at(delta))
            for k in flips:
                perturbed = 2.0 * flip_bits(spread_key.pattern, k, seed=[seed, cell, k, 7]) - 1.0
                false_scores[k].append(spread_profile(c_embedded, perturbed, delta).z_at(delta))
    flip_results = [(k, roc(true_scores, false_scores[k])) for k in flips]
    clean_roc = roc(true_scores, clean_scores)
    return BitflipCurve(
        flip_results=flip_results,
        clean_roc=clean_roc,
        true_scores=np.asarray(true_scores),
        clean_scores=np.asarray(clean_scores),
    )


@dataclass
class TaggingRow:
    """z of one holdout clip at one candidate echo lag."""

    clip_id: str
    own_delta: int
    tested_delta: int
    z: float
    argmax_lag: int


def run_tagging_experiment(clips, manifest, holdout, band=DEFAULT_SINGLE_ECHO_BAND,
                           channel: ChannelSpec = ChannelSpec(), seed: int = 0):
    """Per-group tagging evaluation.

    manifest maps clip_id -> EchoKey (the group tag); each holdout clip is
    embedded with its group's echo, run through the channel (the simulated
    model), and scored at every distinct lag the manifest uses. Returns one
    TaggingRow per (holdout clip, candidate lag).
    """
    for clip_id in holdout:
        if clip_id not in manifest:
            raise ValueError(f"holdout clip {clip_id!r} has no manifest key")
        if clip_id not in clips:
            raise ValueError(f"holdout clip {clip_id!r} not found in corpus")
    candidate_deltas = sorted({key.delta for key in manifest.values()})
    rows = []
    for index, clip_id in enumerate(holdout):
        key = scaled_key(manifest[clip_id], echo_alpha_scale(channel))
        simulated = apply_channel(embed(clips[clip_id], key), channel, salt=seed * _SALT_STRIDE + index)
        report = detect_single_echo(simulated, band=band)
        for delta in candidate_deltas:
            rows.append(TaggingRow(
                clip_id=clip_id,
                own_delta=manifest[clip_id].delta,
                tested_delta=delta,
                z=report.profile.z_at(delta),
                argmax_lag=report.argmax_lag,
            ))
    return rows
