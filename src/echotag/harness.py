"""Evaluation harness: degradation channels, ROC/AUROC, experiment sweeps.

Generative models are stood in for by parameterized channels (noise, pitch
shift via resampling, echo attenuation) so the statistical pipeline
(z-scores, duration trends, bit-flip ROC curves) runs end to end in seconds.
CHANNEL_FIELDS is the one table of channel kinds: the fields each kind reads
and what each field must be. A ChannelSpec is checked against it when built,
and to_dict writes only the fields its kind reads. _stages is the one walk
over a channel: depth first, stage i of a composite that runs under salt s
runs under salt s * _SALT_STRIDE + i, so sibling stages draw apart.

All randomness flows from explicit non-negative seeds; a config run twice
produces byte-identical reports. _cells cuts, embeds and degrades every
experiment cell (clip x duration x segment) of both sweeps, which only score.
One apply_channel call degrades a cell's conditions, so they share one
channel draw: the same pitch factor and the same noise, scaled to each clip.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass, field

import numpy as np

from .audio import AudioClip, resample, resampled_length
from .detect import DEFAULT_SINGLE_ECHO_BAND, detect_single_echo, detect_spread, spread_profile
from .dsp import real_cepstrum
from .embed import EchoKey, SpreadKey, embed, scaled_key
from .keyfiles import INTEGER, NUMBER, JsonFields, Kind
from .patterns import flip_bits

_SALT_STRIDE = 1000003

SEED = Kind("a non-negative integer", lambda v: INTEGER.ok(v) and v >= 0)
PITCH_FACTOR = Kind("a number from 0.5 to 2", lambda v: NUMBER.ok(v) and 0.5 <= v <= 2.0)
# beyond +-100 dB the noise is either nothing or all there is
SNR_DB = Kind("a number of dB from -100 to 100", lambda v: NUMBER.ok(v) and -100 <= v <= 100)

# kind -> the fields that kind reads -> what each must be; every kind also reads
# seed, which with the caller's salt seeds the kind's random draws
CHANNEL_FIELDS = {
    # no-op
    "identity": {},
    # scales the embedding alpha by ratio (a model that reproduces the echo more
    # weakly): a weaker echo cannot be carved out of an already-watermarked
    # waveform, so it acts on the embedding (echo_alpha_scale); samples pass through
    "attenuate_echo": {"ratio": Kind("a number in (0, 1]", lambda v: NUMBER.ok(v) and 0 < v <= 1)},
    # white noise at snr_db below the clip RMS
    "additive_noise": {"snr_db": SNR_DB},
    # with that probability, a pitch factor f drawn uniformly from [low, high]:
    # resample to rate/f and reinterpret at the original rate, so durations and
    # echo lags scale by 1/f (probability 1 and low = high = f: a fixed shift)
    "random_resample": {
        "probability": Kind("a number from 0 to 1", lambda v: NUMBER.ok(v) and 0 <= v <= 1),
        "low": PITCH_FACTOR,
        "high": PITCH_FACTOR,
    },
    # stages applied in order
    "composite": {"stages": Kind("a list of channels", lambda v: isinstance(v, list))},
}
CHANNEL_KIND = Kind(f"one of {', '.join(CHANNEL_FIELDS)}",
                    lambda v: isinstance(v, str) and v in CHANNEL_FIELDS)


@dataclass
class ChannelSpec:
    """One simulated degradation; CHANNEL_FIELDS says what each kind does and
    which of these fields it reads. The others are ignored."""

    kind: str = "identity"
    ratio: float = 1.0
    snr_db: float = 20.0
    probability: float = 0.5
    low: float = 0.75
    high: float = 1.25
    stages: list = field(default_factory=list)
    seed: int = 0

    def __post_init__(self):
        fields = JsonFields(vars(self))
        kind = fields.get("kind", CHANNEL_KIND)
        fields.get("seed", SEED)
        read = {name: fields.get(name, want) for name, want in CHANNEL_FIELDS.get(kind, {}).items()}
        if None not in (read.get("low"), read.get("high")) and self.low > self.high:
            fields.problem(f"low {self.low} exceeds high {self.high}")
        stages = []
        for index, stage in enumerate(read.get("stages") or []):
            try:
                stages.append(stage if isinstance(stage, ChannelSpec) else self.from_dict(stage))
            except ValueError as exc:
                fields.problem(f"stage {index}: {exc}")
        if fields.problems:
            raise ValueError("; ".join(fields.problems))
        self.stages = stages

    def to_dict(self) -> dict:
        out = {"kind": self.kind, "seed": self.seed}
        out.update((name, getattr(self, name)) for name in CHANNEL_FIELDS[self.kind])
        if self.kind == "composite":
            out["stages"] = [s.to_dict() for s in self.stages]
        return out

    @classmethod
    def from_dict(cls, d) -> "ChannelSpec":
        """The spec a channel object describes; a field its kind does not read is one more problem."""
        if not isinstance(d, dict):
            raise ValueError(f"must be a JSON object, got {reprlib.repr(d)}")
        kind = d.get("kind", "identity")
        if not CHANNEL_KIND.ok(kind):
            return cls(kind=kind)  # raises the ValueError that names the kind
        reads = ("kind", "seed", *CHANNEL_FIELDS[kind])
        unread = [name for name in d if name not in reads]
        problems = [f"kind {kind!r} does not read {', '.join(map(repr, unread))}"] if unread else []
        try:
            spec = cls(**{name: d[name] for name in reads if name in d})
        except ValueError as exc:
            problems.append(str(exc))
        if problems:
            raise ValueError("; ".join(problems))
        return spec


def _stages(spec: ChannelSpec, salt: int = 0):
    """(stage, salt) for each non-composite stage of the channel, in run order."""
    if spec.kind != "composite":
        yield spec, salt
        return
    for index, stage in enumerate(spec.stages):
        yield from _stages(stage, salt * _SALT_STRIDE + index)


def echo_alpha_scale(spec: ChannelSpec) -> float:
    """Product of all attenuate_echo ratios in the channel, in run order (1.0 if none)."""
    return math.prod((stage.ratio for stage, _ in _stages(spec) if stage.kind == "attenuate_echo"), start=1.0)


def _rms(x: np.ndarray) -> float:
    return float(np.sqrt(np.mean(x**2)))


def _plus_noise(clip: AudioClip, noise: np.ndarray, measured: float, snr_db: float) -> AudioClip:
    """clip plus noise, whose RMS is `measured`, scaled to sit snr_db below the clip's RMS."""
    target = _rms(clip.samples) * 10.0 ** (-snr_db / 20.0)
    samples = clip.samples + (noise * (target / measured) if measured else noise)
    return AudioClip(samples, clip.sample_rate)


def apply_channel(clips, spec: ChannelSpec, salt: int = 0) -> list:
    """Run clips of one length and one rate through one draw of a degradation
    channel; returns a new clip for each, in order.

    salt, a non-negative integer, decorrelates the channel noise between
    experiment cells that share one spec; identical (clips, spec, salt)
    triples give identical output, and each clip comes out as it would alone.
    """
    if not clips:
        raise ValueError("apply_channel needs at least one clip")
    shapes = sorted({(len(clip), clip.sample_rate) for clip in clips})
    if len(shapes) > 1:
        raise ValueError(f"apply_channel's clips must share one length and one rate, "
                         f"got (samples, Hz) {shapes}")
    out = clips  # noise and pitch stages replace the list
    for stage, stage_salt in _stages(spec, salt):
        rng = np.random.default_rng([stage.seed, stage_salt, 11])
        if stage.kind == "additive_noise":
            noise = rng.standard_normal(len(out[0]))
            measured = _rms(noise)
            out = [_plus_noise(clip, noise, measured, stage.snr_db) for clip in out]
        elif stage.kind == "random_resample" and rng.random() < stage.probability:
            factor = rng.uniform(stage.low, stage.high)
            out = [_pitch_shift(clip, factor) for clip in out]
    return [clip.copy() for clip in clips] if out is clips else out


def _pitched_rate(rate: int, factor: float) -> int:
    return int(round(rate / factor))


def _pitch_shift(clip: AudioClip, factor: float) -> AudioClip:
    shifted = resample(clip, _pitched_rate(clip.sample_rate, factor))
    return AudioClip(shifted.samples, clip.sample_rate)


def channel_length_bound(spec: ChannelSpec, n: int, rate: int) -> int:
    """A lower bound, whatever the salt, on the samples apply_channel returns for
    n-sample clips at `rate`: only pitch shifts change the length, and a larger
    factor leaves fewer samples. Each stage's bound grows with n, so they fold."""
    for stage, _ in _stages(spec):
        if stage.kind == "random_resample" and stage.probability > 0:
            shifted = resampled_length(n, rate, _pitched_rate(rate, stage.high))
            n = shifted if stage.probability == 1 else min(n, shifted)
    return n


# ---------------------------------------------------------------------------
# ROC / AUROC


@dataclass
class RocResult:
    """Threshold-sweep ROC points plus the area under them."""

    points: np.ndarray  # (m, 2) array of (fpr, tpr), from (0,0) to (1,1)
    auroc: float


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
    return RocResult(points=points, auroc=auroc)


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


def segment_length(seconds: float, rate: int) -> int:
    """Samples in a segment of `seconds` cut from a clip at `rate`."""
    return int(round(seconds * rate))


def _cells(corpus, key, durations, segments_per_clip, channel, seed, include_clean=True):
    """Yield (clip_id, duration, segment_index, salt, degraded) for every
    experiment cell, one at a time, in (clip, duration, segment) order.

    The segment starts at a random offset drawn from the rng seeded with
    [seed, clip index, duration index, segment index]; salt is the cell's
    index in that order. degraded: the segment embedded with key (its alpha
    times echo_alpha_scale) and, if include_clean, the segment, after one channel draw.
    """
    effective_key = scaled_key(key, echo_alpha_scale(channel))
    for clip_index, (clip_id, clip) in enumerate(corpus):
        for duration_index, duration in enumerate(durations):
            n = segment_length(duration, clip.sample_rate)
            if n > len(clip):
                raise ValueError(f"clip of {clip.duration_seconds:.2f}s shorter than "
                                 f"requested {duration}s segment")
            for segment_index in range(segments_per_clip):
                rng = np.random.default_rng([seed, clip_index, duration_index, segment_index])
                start = int(rng.integers(0, len(clip) - n + 1))
                segment = AudioClip(clip.samples[start : start + n], clip.sample_rate)
                salt = (clip_index * len(durations) + duration_index) * segments_per_clip + segment_index
                yield clip_id, duration, segment_index, salt, apply_channel(
                    [embed(segment, effective_key)] + ([segment] if include_clean else []), channel, salt=salt)


def run_duration_sweep(corpus, key, durations, segments_per_clip: int,
                       channel: ChannelSpec = ChannelSpec(), seed: int = 0,
                       band=DEFAULT_SINGLE_ECHO_BAND, include_clean: bool = True):
    """Detection over random segments of each duration, embedded and clean.

    corpus is a sequence of (clip_id, AudioClip) pairs; every clip must cover
    the longest duration. Returns long-format SweepRow records, embedded rows
    first within each cell, in (clip, duration, segment) order.
    """
    rows = []
    cells = _cells(corpus, key, durations, segments_per_clip, channel, seed, include_clean)
    for clip_id, duration, segment_index, _, degraded_conditions in cells:
        for condition, degraded in zip(("embedded", "clean"), degraded_conditions):
            if isinstance(key, EchoKey):
                report = detect_single_echo(degraded, band=band, key_lag=key.delta)
            else:
                report = detect_spread(degraded, key)
            rows.append(SweepRow(
                clip_id=clip_id,
                condition=condition,
                duration_seconds=float(duration),
                segment_index=segment_index,
                key_id=key.label,
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
    if max(flips, default=0) > spread_key.length:
        raise ValueError(f"flip counts must be <= pattern length {spread_key.length}")
    template, delta = spread_key.template, spread_key.delta
    true_scores = []
    clean_scores = []
    false_scores = {k: [] for k in flips}
    for _, _, _, salt, (embedded, clean) in _cells(corpus, spread_key, [duration_seconds],
                                                   segments_per_clip, channel, seed):
        c_embedded = real_cepstrum(embedded)
        c_clean = real_cepstrum(clean)
        true_scores.append(spread_profile(c_embedded, template, delta).z_at(delta))
        clean_scores.append(spread_profile(c_clean, template, delta).z_at(delta))
        for k in flips:
            perturbed = 2.0 * flip_bits(spread_key.pattern, k, seed=[seed, salt, k, 7]) - 1.0
            false_scores[k].append(spread_profile(c_embedded, perturbed, delta).z_at(delta))
    flip_results = [(k, roc(true_scores, false_scores[k])) for k in flips]
    clean_roc = roc(true_scores, clean_scores)
    return BitflipCurve(
        flip_results=flip_results,
        clean_roc=clean_roc,
        true_scores=np.asarray(true_scores),
        clean_scores=np.asarray(clean_scores),
    )
