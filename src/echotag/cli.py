"""Command-line front end.

Subcommands: gen-patterns, embed, tag-dataset, detect, payload, evaluate.
Detection always exits 0 when the measurement succeeds; thresholding the
reported z-scores is a downstream policy decision. No command modifies its
input files, and every command is deterministic given its arguments.

Manifest file (tag-dataset), JSON:
    {"version": 1,
     "key_file": "keys.json",
     "base_input_dir": ".",
     "base_output_dir": "tagged",
     "overwrite": false,
     "resample": true,
     "format": "float32",
     "entries": [{"input": "drums/*.wav", "key": "echo50", "output_dir": "drums"}]}

Each entry globs `input` under base_input_dir and writes matching files (same
basename) under base_output_dir/output_dir. Output collisions are rejected
before anything is written; a lockfile (tag_lock.json) beside the outputs
records which key tagged which file.
"""

from __future__ import annotations

import argparse
import csv
import glob
import json
import logging
import os
import sys
from concurrent.futures import ThreadPoolExecutor


from .audio import DEFAULT_SAMPLE_RATE, load_audio, resample, save_audio
from .detect import CSV_FIELDS, detect_single_echo, detect_spread
from .embed import DEFAULT_SINGLE_ECHO_BAND, SpreadKey, embed
from .evalrun import ConfigError, load_eval_config, run_evaluation
from .keyfiles import (
    bits_to_hex,
    hex_to_bits,
    load_key_file,
    read_json_object,
    save_pattern_set,
)
from .patterns import generate_pattern_set
from .payload import PayloadConfig, bits_per_second, decode_payload, encode_payload

log = logging.getLogger(__name__)

MANIFEST_VERSION = 1
LOCKFILE_NAME = "tag_lock.json"


class CommandError(Exception):
    """Fatal CLI problem; message goes to stderr, exit code 1."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="echotag",
        description="Embed and detect echo watermarks in audio corpora.",
    )
    parser.add_argument("--seed", type=int, default=0, help="base seed for anything random")
    parser.add_argument("--jobs", type=int, default=1, help="parallel workers for dataset commands")
    parser.add_argument("--sample-rate", type=int, default=DEFAULT_SAMPLE_RATE,
                        help="canonical sample rate (default 44100)")
    parser.add_argument("--format", default=None,
                        help="output format: pcm16/float32 for audio, json/csv for reports")
    parser.add_argument("-v", "--verbose", action="store_true", help="log at DEBUG level")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-patterns", help="generate a time-spread pattern set file")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--length", type=int, default=1024)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_patterns)

    p = sub.add_parser("embed", help="watermark one file")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", dest="out_path", required=True)
    p.add_argument("--key-file", required=True)
    p.add_argument("--key", default=None, help="key name (optional when the file has exactly one)")
    p.add_argument("--no-resample", action="store_true",
                   help="keep the file's native rate instead of canonicalizing")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("tag-dataset", help="embed a whole corpus per a manifest")
    p.add_argument("--manifest", required=True)
    p.set_defaults(func=cmd_tag_dataset)

    p = sub.add_parser("detect", help="measure echo z-scores in one file")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--key-file", required=True)
    p.add_argument("--key", default=None)
    p.add_argument("--band", type=int, nargs=2, default=list(DEFAULT_SINGLE_ECHO_BAND),
                   metavar=("A", "B"), help="scan band for single-echo detection")
    p.add_argument("--enhanced", action="store_true",
                   help="sharpen the spread correlation before scoring")
    p.add_argument("--no-resample", action="store_true")
    p.add_argument("--full-profile", action="store_true",
                   help="include the whole z profile in JSON output")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("payload", help="windowed payload codec")
    p.add_argument("action", choices=["encode", "decode"])
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", dest="out_path", default=None, help="output file (encode)")
    p.add_argument("--bits", default=None, help="payload hex string, MSB-first (encode)")
    p.add_argument("--n-bits", type=int, default=None, help="payload bit count")
    p.add_argument("--delta0", type=int, default=50)
    p.add_argument("--delta1", type=int, default=100)
    p.add_argument("--alpha", type=float, default=0.4)
    p.add_argument("--window", type=int, default=1024)
    p.set_defaults(func=cmd_payload)

    p = sub.add_parser("evaluate", help="run a config-driven evaluation")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_evaluate)

    return parser


def _pick_key(keys: dict, name):
    if name is not None:
        if name not in keys:
            raise CommandError(f"key {name!r} not in key file (available: {sorted(keys)})")
        return name, keys[name]
    if len(keys) == 1:
        return next(iter(keys.items()))
    raise CommandError(f"key file holds {len(keys)} keys; pick one with --key (available: {sorted(keys)})")


def _load_keys(path) -> dict:
    try:
        return load_key_file(path)
    except FileNotFoundError as exc:
        raise CommandError(f"key file not found: {path}") from exc
    except (OSError, ValueError, KeyError) as exc:
        raise CommandError(f"cannot read key file {path}: {exc}") from exc


def _canonicalize(clip, target_rate, no_resample):
    if no_resample or clip.sample_rate == target_rate:
        return clip
    return resample(clip, target_rate)


def cmd_gen_patterns(args) -> int:
    if args.count < 2:
        raise CommandError("--count must be at least 2 (a distance spread needs pairs)")
    if args.length < 2:
        raise CommandError("--length must be at least 2")
    ps = generate_pattern_set(args.count, args.length, args.seed)
    if not ps.converged:
        # nothing is written unless the spread targets were reached
        raise CommandError(
            f"pattern generation did not reach the distance-spread targets "
            f"(count={args.count}, length={args.length}, seed={args.seed}); try another seed"
        )
    save_pattern_set(ps, args.out)
    distances = sorted(ps.pairwise_distances().tolist())
    print(json.dumps({
        "out": args.out,
        "count": ps.count,
        "length": ps.length,
        "seed": ps.seed,
        "distances": distances,
    }, sort_keys=True))
    return 0


def _embed_file(in_path, out_path, key, target_rate, no_resample, out_format):
    clip = load_audio(in_path)
    clip = _canonicalize(clip, target_rate, no_resample)
    tagged = embed(clip, key)
    return save_audio(tagged, out_path, format=out_format)


def cmd_embed(args) -> int:
    keys = _load_keys(args.key_file)
    key_name, key = _pick_key(keys, args.key)
    out_format = args.format or "float32"
    if out_format not in ("pcm16", "float32"):
        raise CommandError(f"--format must be pcm16 or float32 for embed, got {out_format!r}")
    try:
        clipped = _embed_file(args.in_path, args.out_path, key,
                              args.sample_rate, args.no_resample, out_format)
    except FileNotFoundError as exc:
        raise CommandError(str(exc)) from exc
    except ValueError as exc:
        raise CommandError(f"{args.in_path}: {exc}") from exc
    print(json.dumps({
        "in": args.in_path,
        "out": args.out_path,
        "key": key_name,
        "clipped_samples": clipped,
    }, sort_keys=True))
    return 0


def _resolve_manifest(path):
    try:
        raw = read_json_object(path)
    except (OSError, ValueError) as exc:
        raise CommandError(f"cannot read manifest {path}: {exc}") from exc
    if raw.get("version") != MANIFEST_VERSION:
        raise CommandError(f"unsupported manifest version {raw.get('version')!r}")
    base = os.path.dirname(os.path.abspath(path))

    def _resolve(p):
        return p if os.path.isabs(p) else os.path.join(base, p)

    key_file = raw.get("key_file")
    if not key_file:
        raise CommandError("manifest needs a 'key_file'")
    keys = _load_keys(_resolve(key_file))
    base_in = _resolve(raw.get("base_input_dir", "."))
    base_out = _resolve(raw.get("base_output_dir", "."))
    overwrite = bool(raw.get("overwrite", False))
    do_resample = bool(raw.get("resample", True))
    out_format = raw.get("format", "float32")
    if out_format not in ("pcm16", "float32"):
        raise CommandError(f"manifest format must be pcm16 or float32, got {out_format!r}")
    jobs_entries = []
    seen_outputs = {}
    for index, entry in enumerate(raw.get("entries", [])):
        pattern = entry.get("input")
        key_name = entry.get("key")
        if not pattern or not key_name:
            raise CommandError(f"manifest entry {index} needs 'input' and 'key'")
        if key_name not in keys:
            raise CommandError(f"manifest entry {index}: key {key_name!r} not in key file")
        matches = sorted(glob.glob(os.path.join(base_in, pattern)))
        if not matches:
            raise CommandError(f"manifest entry {index}: input {pattern!r} matched no files")
        out_dir = os.path.join(base_out, entry.get("output_dir", ""))
        for in_path in matches:
            out_path = os.path.normpath(os.path.join(out_dir, os.path.basename(in_path)))
            if out_path in seen_outputs:
                raise CommandError(
                    f"output collision: {out_path} produced by both "
                    f"{seen_outputs[out_path]} and {in_path}"
                )
            seen_outputs[out_path] = in_path
            if not overwrite and os.path.exists(out_path):
                raise CommandError(f"output exists and overwrite is false: {out_path}")
            jobs_entries.append((in_path, out_path, key_name))
    return jobs_entries, keys, base_out, do_resample, out_format


def cmd_tag_dataset(args) -> int:
    entries, keys, base_out, do_resample, out_format = _resolve_manifest(args.manifest)
    os.makedirs(base_out, exist_ok=True)

    def _one(entry):
        in_path, out_path, key_name = entry
        os.makedirs(os.path.dirname(out_path) or ".", exist_ok=True)
        try:
            clipped = _embed_file(in_path, out_path, keys[key_name],
                                  args.sample_rate, not do_resample, out_format)
            return {"in": in_path, "out": out_path, "key": key_name,
                    "clipped_samples": clipped, "error": None}
        except (OSError, ValueError) as exc:
            return {"in": in_path, "out": out_path, "key": key_name,
                    "clipped_samples": 0, "error": str(exc)}

    if args.jobs > 1:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_one, entries))
    else:
        results = [_one(e) for e in entries]

    failures = [r for r in results if r["error"]]
    lock = {
        "version": MANIFEST_VERSION,
        "outputs": {
            r["out"]: {"input": r["in"], "key": r["key"], "clipped_samples": r["clipped_samples"]}
            for r in results if not r["error"]
        },
    }
    with open(os.path.join(base_out, LOCKFILE_NAME), "w", encoding="utf-8") as fh:
        json.dump(lock, fh, indent=2, sort_keys=True)
        fh.write("\n")
    summary = {
        "files": len(results),
        "succeeded": len(results) - len(failures),
        "failed": [{"in": r["in"], "error": r["error"]} for r in failures],
        "clipped_samples_total": sum(r["clipped_samples"] for r in results),
        "lockfile": os.path.join(base_out, LOCKFILE_NAME),
    }
    print(json.dumps(summary, sort_keys=True))
    return 1 if failures else 0


def cmd_detect(args) -> int:
    keys = _load_keys(args.key_file)
    key_name, key = _pick_key(keys, args.key)
    try:
        clip = load_audio(args.in_path)
    except FileNotFoundError as exc:
        raise CommandError(str(exc)) from exc
    except ValueError as exc:
        raise CommandError(f"{args.in_path}: {exc}") from exc
    clip = _canonicalize(clip, args.sample_rate, args.no_resample)
    clip_id = os.path.basename(args.in_path)
    try:
        if isinstance(key, SpreadKey):
            report = detect_spread(clip, key, enhanced=args.enhanced,
                                   clip_id=clip_id, key_id=key_name)
        else:
            report = detect_single_echo(clip, band=tuple(args.band), key_lag=key.delta,
                                        clip_id=clip_id, key_id=key_name)
    except ValueError as exc:
        raise CommandError(f"{args.in_path}: {exc}") from exc
    out_format = args.format or "json"
    if out_format == "json":
        print(json.dumps(report.to_dict(include_profile=args.full_profile), sort_keys=True))
    elif out_format == "csv":
        writer = csv.DictWriter(sys.stdout, fieldnames=CSV_FIELDS, extrasaction="ignore")
        writer.writeheader()
        writer.writerow(report.to_dict(include_profile=False))
    else:
        raise CommandError(f"--format must be json or csv for detect, got {out_format!r}")
    return 0


def cmd_payload(args) -> int:
    try:
        config = PayloadConfig(delta0=args.delta0, delta1=args.delta1,
                               alpha=args.alpha, window=args.window)
    except ValueError as exc:
        raise CommandError(str(exc)) from exc
    try:
        clip = load_audio(args.in_path)
    except (FileNotFoundError, ValueError) as exc:
        raise CommandError(f"{args.in_path}: {exc}") from exc
    if args.action == "encode":
        if args.bits is None or args.n_bits is None or args.out_path is None:
            raise CommandError("payload encode needs --bits, --n-bits and --out")
        try:
            bits = hex_to_bits(args.bits, args.n_bits)
            tagged = encode_payload(clip, bits, config)
        except ValueError as exc:
            raise CommandError(str(exc)) from exc
        save_audio(tagged, args.out_path, format=args.format or "float32")
        print(json.dumps({
            "out": args.out_path,
            "n_bits": args.n_bits,
            "bits_per_second": bits_per_second(clip.sample_rate, config),
        }, sort_keys=True))
    else:
        if args.n_bits is None:
            raise CommandError("payload decode needs --n-bits")
        try:
            bits = decode_payload(clip, config, args.n_bits)
        except ValueError as exc:
            raise CommandError(str(exc)) from exc
        print(json.dumps({"n_bits": args.n_bits, "bits": bits_to_hex(bits)}, sort_keys=True))
    return 0


def cmd_evaluate(args) -> int:
    try:
        config = load_eval_config(args.config)
    except ConfigError as exc:
        raise CommandError(str(exc)) from exc
    summary = run_evaluation(config)
    print(json.dumps(summary, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        return args.func(args)
    except CommandError as exc:
        print(f"echotag: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
