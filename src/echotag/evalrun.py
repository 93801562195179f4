"""Config-driven evaluation runs: results.csv + summary.json.

The config is JSON; every validation problem is collected and reported at
once rather than failing on the first. Outputs are deterministic for a given
config: stable row order, repr-formatted floats, sorted JSON keys, no
timestamps.

Config schema (version 1):
    {"version": 1, "seed": 0,
     "corpus": "clips/*.wav",
     "key_file": "keys.json", "key": "echo75",
     "channel": {"kind": "identity", "seed": 0},
     "durations": [5, 10, 30, 60], "segments_per_clip": 4,
     "band": [25, 125],                          # single-echo scan, 1 <= a < b
     "include_clean": true,                      # also run unembedded rows
     "flips": [0, 128, 256, 384, 512],          # optional, spread keys only
     "bitflip_duration": 30,                     # optional, default 30
     "output_dir": "results"}
"""

from __future__ import annotations

import csv
import glob
import json
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from .audio import load_audio
from .embed import DEFAULT_SINGLE_ECHO_BAND, SpreadKey
from .harness import (
    ChannelSpec,
    key_label,
    median_z_by_duration,
    run_bitflip_curve,
    run_duration_sweep,
)
from .keyfiles import load_key_file, read_json_object

CONFIG_VERSION = 1

RESULTS_FIELDS = (
    "experiment", "clip_id", "condition", "key_id", "duration_seconds",
    "segment_index", "flips", "argmax_lag", "z_at_key", "degenerate",
)


class ConfigError(ValueError):
    """Carries every problem found in a config file."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid evaluation config:\n" + "\n".join(f"  - {p}" for p in self.problems))


@dataclass
class EvalConfig:
    corpus: list  # sorted clip paths the config's glob matched
    key_name: str
    key: object  # the named EchoKey or SpreadKey, loaded from the key file
    output_dir: str
    seed: int = 0
    channel: ChannelSpec = field(default_factory=ChannelSpec)
    durations: list = field(default_factory=lambda: [5.0, 10.0, 30.0, 60.0])
    segments_per_clip: int = 4
    band: tuple = DEFAULT_SINGLE_ECHO_BAND
    include_clean: bool = True
    flips: list | None = None
    bitflip_duration: float = 30.0


def load_eval_config(path) -> EvalConfig:
    problems = []
    try:
        raw = read_json_object(path)
    except (OSError, ValueError) as exc:
        raise ConfigError([f"cannot read config {path!r}: {exc}"]) from exc
    if raw.get("version") != CONFIG_VERSION:
        problems.append(f"version must be {CONFIG_VERSION}, got {raw.get('version')!r}")
    for required in ("corpus", "key_file", "key", "output_dir"):
        if not isinstance(raw.get(required), str) or not raw.get(required):
            problems.append(f"{required!r} must be a non-empty string")
    base = os.path.dirname(os.path.abspath(path))

    def _resolve(p):
        return p if os.path.isabs(p) else os.path.join(base, p)

    channel = ChannelSpec()
    if "channel" in raw:
        try:
            channel = ChannelSpec.from_dict(raw["channel"])
        except (TypeError, ValueError) as exc:
            problems.append(f"channel: {exc}")
    durations = raw.get("durations", [5.0, 10.0, 30.0, 60.0])
    if (not isinstance(durations, list) or not durations
            or any(not isinstance(d, (int, float)) or d <= 0 for d in durations)):
        problems.append("'durations' must be a non-empty list of positive seconds")
    segments = raw.get("segments_per_clip", 4)
    if not isinstance(segments, int) or segments < 1:
        problems.append("'segments_per_clip' must be a positive integer")
    band = tuple(raw.get("band", DEFAULT_SINGLE_ECHO_BAND))
    if len(band) != 2 or band[0] < 1 or band[0] >= band[1]:
        problems.append(f"'band' must be [a, b] with 1 <= a < b, got {list(band)}")
    flips = raw.get("flips")
    if flips is not None and (not isinstance(flips, list)
                              or any(not isinstance(k, int) or k < 0 for k in flips)):
        problems.append("'flips' must be a list of non-negative integers")
    seed = raw.get("seed", 0)
    if not isinstance(seed, int):
        problems.append("'seed' must be an integer")
    bitflip_duration = raw.get("bitflip_duration", 30.0)
    if not isinstance(bitflip_duration, (int, float)) or bitflip_duration <= 0:
        problems.append("'bitflip_duration' must be positive seconds")
    include_clean = raw.get("include_clean", True)
    if not isinstance(include_clean, bool):
        problems.append("'include_clean' must be a boolean")

    keys = None
    if isinstance(raw.get("key_file"), str) and raw.get("key_file"):
        try:
            keys = load_key_file(_resolve(raw["key_file"]))
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"key_file: {exc}")
    key_name = raw.get("key")
    key = None
    if keys is not None and isinstance(key_name, str) and key_name:
        key = keys.get(key_name)
        if key is None:
            problems.append(f"key {key_name!r} not found in key file (has {sorted(keys)})")
    corpus_paths = []
    if isinstance(raw.get("corpus"), str) and raw.get("corpus"):
        corpus_paths = sorted(glob.glob(_resolve(raw["corpus"])))
        if not corpus_paths:
            problems.append(f"corpus glob {raw['corpus']!r} matched no files")
    if flips is not None and key is not None:
        if not isinstance(key, SpreadKey):
            problems.append("'flips' requires a spread key")
        elif any(k > key.length for k in flips):
            problems.append(f"flip counts must be <= pattern length {key.length}")
    if problems:
        raise ConfigError(problems)
    return EvalConfig(
        corpus=corpus_paths,
        key_name=key_name,
        key=key,
        output_dir=_resolve(raw["output_dir"]),
        seed=seed,
        channel=channel,
        durations=[float(d) for d in durations],
        segments_per_clip=segments,
        band=(int(band[0]), int(band[1])),
        include_clean=include_clean,
        flips=flips,
        bitflip_duration=float(bitflip_duration),
    )


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return value


def run_evaluation(config: EvalConfig) -> dict:
    """Execute the configured experiments; write results.csv and summary.json.

    Returns the summary dict.
    """
    key = config.key
    corpus = [(os.path.basename(p), load_audio(p)) for p in config.corpus]

    rows = run_duration_sweep(
        corpus, key,
        durations=config.durations,
        segments_per_clip=config.segments_per_clip,
        channel=config.channel,
        seed=config.seed,
        band=config.band,
        include_clean=config.include_clean,
    )
    csv_rows = [{"experiment": "duration_sweep", "flips": None, **asdict(r)} for r in rows]

    clean_z = np.array([r.z_at_key for r in rows if r.condition == "clean" and r.z_at_key is not None])
    summary = {
        "version": CONFIG_VERSION,
        "key": config.key_name,
        "key_id": key_label(key),
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

    if config.flips is not None and isinstance(key, SpreadKey):
        curve = run_bitflip_curve(
            corpus, key,
            flips=config.flips,
            channel=config.channel,
            duration_seconds=config.bitflip_duration,
            segments_per_clip=config.segments_per_clip,
            seed=config.seed,
        )
        for flips, roc_result in curve.flip_results:
            csv_rows.append({
                "experiment": "bitflip_curve",
                "clip_id": "",
                "condition": "perturbed",
                "key_id": key_label(key),
                "duration_seconds": config.bitflip_duration,
                "segment_index": None,
                "flips": flips,
                "argmax_lag": None,
                "z_at_key": roc_result.auroc,
                "degenerate": False,
            })
        summary["bitflip_curve"] = {
            "duration_seconds": config.bitflip_duration,
            "flips": [k for k, _ in curve.flip_results],
            "auroc": [r.auroc for _, r in curve.flip_results],
            "clean_auroc": curve.clean_roc.auroc,
        }

    os.makedirs(config.output_dir, exist_ok=True)
    results_path = os.path.join(config.output_dir, "results.csv")
    with open(results_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=RESULTS_FIELDS)
        writer.writeheader()
        for row in csv_rows:
            writer.writerow({k: _fmt(v) for k, v in row.items()})
    summary_path = os.path.join(config.output_dir, "summary.json")
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary
