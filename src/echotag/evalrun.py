"""Config-driven evaluation runs: results.csv + summary.json.

The config is JSON, read through `keyfiles.read_fields`: every problem in it,
in the key file it names and in the corpus clips it matches (a clip that
cannot be read, or is shorter than a segment), is reported at once in one
ConfigError, before any output is written. So is a key that no segment length
can score (`detect.scoring_length`), and a `durations` or `bitflip_duration`
segment that holds fewer samples than the key needs at a corpus clip's rate,
as harness.segment_length cuts it or after a pitch-shift channel shortens it.
Outputs are deterministic for a given config: stable row order,
repr-formatted floats, sorted JSON keys, no timestamps.

Config schema (version 1):
    {"version": 1, "seed": 0,                    # seeds are non-negative integers
     "corpus": "clips/*.wav",
     "key_file": "keys.json", "key": "echo75",
     "channel": {"kind": "identity", "seed": 0}, # fields per kind: harness.CHANNEL_FIELDS
     "durations": [5, 10, 30, 60], "segments_per_clip": 4,
     "band": [25, 125],                          # single-echo scan, integers 1 <= a < b
     "include_clean": true,                      # also run unembedded rows
     "flips": [0, 128, 256, 384, 512],          # optional, spread keys with delta >= 3
     "bitflip_duration": 30,                     # optional, default 30
     "output_dir": "results"}
"""

from __future__ import annotations

import contextlib
import csv
import glob
import os
from dataclasses import asdict, dataclass

import numpy as np

from .audio import atomic_output, load_audio
from .detect import DEFAULT_SINGLE_ECHO_BAND, SPREAD_BAND_START, scoring_length
from .embed import SpreadKey
from .harness import (
    SEED,
    ChannelSpec,
    channel_length_bound,
    median_z_by_duration,
    run_bitflip_curve,
    run_duration_sweep,
    segment_length,
)
from .keyfiles import (
    BOOLEAN,
    INTEGER,
    NUMBER,
    OBJECT,
    POSITIVE_INTEGER,
    TEXT,
    Kind,
    read_fields,
    write_json,
)

CONFIG_VERSION = 1

RESULTS_FIELDS = (
    "experiment", "clip_id", "condition", "key_id", "duration_seconds",
    "segment_index", "flips", "argmax_lag", "z_at_key", "degenerate",
)

# no WAV clip lasts longer (under 2**32 samples, at 1 Hz or more); segment_length stays finite
MAX_SECONDS = 2**32
SECONDS = Kind(f"positive seconds, at most {MAX_SECONDS}", lambda v: NUMBER.ok(v) and 0 < v <= MAX_SECONDS)
DURATIONS = Kind(f"a non-empty list of {SECONDS.want}",
                 lambda v: isinstance(v, list) and v != [] and all(SECONDS.ok(d) for d in v))
BAND = Kind("[a, b] with integers 1 <= a < b",
            lambda v: (isinstance(v, list) and len(v) == 2 and all(INTEGER.ok(x) for x in v)
                       and 1 <= v[0] < v[1]))
FLIPS = Kind("a list of non-negative integers",
             lambda v: v is None or (isinstance(v, list) and all(INTEGER.ok(k) and k >= 0 for k in v)))


@dataclass
class EvalConfig:
    corpus: list  # (clip_id, AudioClip) per file the config's glob matched, sorted by path
    key_name: str
    key: object  # the named EchoKey or SpreadKey, loaded from the key file
    output_dir: str
    seed: int
    channel: ChannelSpec
    durations: list
    segments_per_clip: int
    band: tuple
    include_clean: bool
    flips: list | None
    bitflip_duration: float


def load_eval_config(path) -> EvalConfig:
    """Read an evaluate config and the key file it names; one ConfigError lists every problem."""
    with read_fields(path, "evaluate config", CONFIG_VERSION) as fields:
        corpus = fields.path("corpus")
        keys = fields.load_keys("key_file")
        key_name = fields.get("key", TEXT)
        output_dir = fields.path("output_dir")
        seed = fields.get("seed", SEED, 0)
        channel = fields.get("channel", OBJECT, {})
        durations = fields.get("durations", DURATIONS, [5.0, 10.0, 30.0, 60.0])
        segments = fields.get("segments_per_clip", POSITIVE_INTEGER, 4)
        band = fields.get("band", BAND, list(DEFAULT_SINGLE_ECHO_BAND))
        include_clean = fields.get("include_clean", BOOLEAN, True)
        flips = fields.get("flips", FLIPS, None)
        bitflip_duration = fields.get("bitflip_duration", SECONDS, 30.0)

        try:  # a channel that is not an object is already a problem; read the default instead
            channel = ChannelSpec.from_dict(channel or {})
        except ValueError as exc:
            fields.problem(f"channel: {exc}")
            channel = ChannelSpec()  # the config is refused; check the segments as cut
        key = None
        if keys is not None and key_name is not None:
            key = keys.get(key_name)
            if key is None:
                fields.problem(f"key {key_name!r} not found in key file (has {sorted(keys)})")
        corpus_paths = []
        if corpus is not None:
            corpus_paths = sorted(glob.glob(corpus))
            if not corpus_paths:
                fields.problem(f"corpus glob {corpus!r} matched no files")
        longest = max(durations or [0])
        if flips is not None:
            longest = max(longest, bitflip_duration or 0)
        clips = []
        for clip_path in corpus_paths:
            try:
                clip = load_audio(clip_path)
            except (OSError, ValueError) as exc:
                fields.problem(f"corpus: {exc}")  # load_audio's message names the file
                continue
            if segment_length(longest, clip.sample_rate) > len(clip):
                fields.problem(f"corpus clip {clip_path!r} lasts {clip.duration_seconds:.2f}s, "
                               f"shorter than the {longest}s segments it must hold")
            clips.append((os.path.basename(clip_path), clip))
        if flips is not None and isinstance(key, SpreadKey):
            if any(k > key.length for k in flips):
                fields.problem(f"flip counts must be <= pattern length {key.length}")
            if key.delta < SPREAD_BAND_START:  # the bit-flip curve reads z at the key's lag
                fields.problem(f"'flips' needs a spread key delta >= {SPREAD_BAND_START}, got {key.delta}")
        elif flips is not None and key is not None:
            fields.problem("'flips' requires a spread key")
        segment_fields = [("durations", d) for d in durations or []]
        if flips is not None and bitflip_duration is not None:
            segment_fields.append(("bitflip_duration", bitflip_duration))
        if key is not None and band is not None:
            try:
                need = scoring_length(key, band)
            except ValueError as exc:
                fields.problem(f"key {key_name!r}: {exc}")
            else:
                for rate in sorted({clip.sample_rate for _, clip in clips}):
                    for name, seconds in segment_fields:
                        n = segment_length(seconds, rate)
                        m = channel_length_bound(channel, n, rate)
                        if min(n, m) < need:
                            after = f", {m} after the channel" if m < n else ""
                            fields.problem(f"{name}: a {seconds}s segment holds {n} samples at {rate} Hz"
                                           f"{after}; key {key_name!r} needs at least {need}")
    return EvalConfig(
        corpus=clips,
        key_name=key_name,
        key=key,
        output_dir=output_dir,
        seed=seed,
        channel=channel,
        durations=[float(d) for d in durations],
        segments_per_clip=segments,
        band=(int(band[0]), int(band[1])),
        include_clean=include_clean,
        flips=flips,
        bitflip_duration=float(bitflip_duration),
    )


def csv_value(value):
    """A CSV cell: "" for None, true/false for a bool, repr for a float; both CSV writers use it."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return value


def run_evaluation(config: EvalConfig) -> dict:
    """Execute the configured experiments; write results.csv and summary.json.

    output_dir is made before any experiment runs, so an output that cannot
    be written fails before the work rather than after it. The old
    summary.json is removed first and the new one written last, so a run
    that did not finish has none. Returns the summary dict.
    """
    os.makedirs(config.output_dir, exist_ok=True)
    key = config.key
    rows = run_duration_sweep(
        config.corpus, key,
        durations=config.durations,
        segments_per_clip=config.segments_per_clip,
        channel=config.channel,
        seed=config.seed,
        band=config.band,
        include_clean=config.include_clean,
    )
    csv_rows = [{"experiment": "duration_sweep", **asdict(r)} for r in rows]

    clean_z = np.array([r.z_at_key for r in rows if r.condition == "clean" and r.z_at_key is not None])
    summary = {
        "version": CONFIG_VERSION,
        "key": config.key_name,
        "key_id": key.label,
        "channel": config.channel.to_dict(),
        "seed": config.seed,
        "duration_sweep": {
            "durations": config.durations,
            "median_z_embedded": median_z_by_duration(rows, "embedded"),
            "median_z_clean": median_z_by_duration(rows, "clean"),
        },
        "null_calibration": {
            "n": int(clean_z.size),
            "median_z": float(np.median(clean_z)) if clean_z.size else None,
            "median_abs_z": float(np.median(np.abs(clean_z))) if clean_z.size else None,
            "max_abs_z": float(np.max(np.abs(clean_z))) if clean_z.size else None,
        },
    }

    if config.flips is not None:  # load_eval_config allows flips with a spread key only
        curve = run_bitflip_curve(
            config.corpus, key,
            flips=config.flips,
            channel=config.channel,
            duration_seconds=config.bitflip_duration,
            segments_per_clip=config.segments_per_clip,
            seed=config.seed,
        )
        for flips, roc_result in curve.flip_results:
            csv_rows.append({
                "experiment": "bitflip_curve",
                "condition": "perturbed",
                "key_id": key.label,
                "duration_seconds": config.bitflip_duration,
                "flips": flips,
                "z_at_key": roc_result.auroc,
                "degenerate": False,
            })
        summary["bitflip_curve"] = {
            "duration_seconds": config.bitflip_duration,
            "flips": [k for k, _ in curve.flip_results],
            "auroc": [r.auroc for _, r in curve.flip_results],
            "clean_auroc": curve.clean_roc.auroc,
        }

    summary_path = os.path.join(config.output_dir, "summary.json")
    with contextlib.suppress(FileNotFoundError):
        os.remove(summary_path)
    with atomic_output(os.path.join(config.output_dir, "results.csv"), encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=RESULTS_FIELDS, restval=csv_value(None))
        writer.writeheader()
        for row in csv_rows:
            writer.writerow({k: csv_value(v) for k, v in row.items()})
    write_json(summary_path, summary)
    return summary
