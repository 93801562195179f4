"""Command-line front end.

Subcommands: gen-patterns, embed, tag-dataset, detect, payload, evaluate.
gen-patterns writes the key file that embed and detect read: one spread key
per designed pattern, named pn0, pn1, ... (zero-padded to one width).
Detection always exits 0 when the measurement succeeds; thresholding the
reported z-scores is a downstream policy decision. No command modifies its
input files, and every command is deterministic given its arguments.

A flag is declared on the command that reads it, so any other command refuses
it; only --seed (read by gen-patterns) and -v come before the command, and
--format, --sample-rate or --jobs there (where they once went) is refused by
name. The parser is built once per process and binds no handler: `main` looks up
`cmd_<command>` (dashes as underscores) on the module at each call, so a handler
rebound there, by a tracer or a test, is the one that runs. Commands and the
parser raise; `main` alone turns a failure (an OSError or ValueError: a bad
argument, an invalid input file, an output that cannot be written) into exit 1
and one `echotag: error: <message>` line on stderr, and with -v (which holds
for its own call only) also logs the traceback. tag-dataset records a file that
fails and goes on with the rest, then exits 1 if any failed.

Manifest file (tag-dataset), JSON:
    {"version": 1,
     "key_file": "keys.json",
     "base_input_dir": ".",
     "base_output_dir": "tagged",
     "overwrite": false,
     "format": "float32",
     "entries": [{"input": "drums/*.wav", "key": "echo50", "output_dir": "drums"}]}

Each entry globs `input` under base_input_dir and writes matching files (same
basename) under base_output_dir/output_dir. Every problem in the manifest and
its key file, output collisions and existing outputs (unless overwrite) among
them, is reported at once before anything is written. A lockfile
(tag_lock.json) beside the outputs records which key tagged which file.
"""

from __future__ import annotations

import argparse
import csv
import functools
import glob
import json
import logging
import os
import sys
from concurrent.futures import ThreadPoolExecutor

from .audio import AUDIO_FORMATS, DEFAULT_SAMPLE_RATE, load_audio, resample, save_audio
from .detect import DEFAULT_SINGLE_ECHO_BAND, detect_single_echo, detect_spread, scoring_length
from .embed import SpreadKey, embed
from .evalrun import csv_value, load_eval_config, run_evaluation
from .keyfiles import (
    BOOLEAN,
    DIRECTORY,
    PATH,
    TEXT,
    Kind,
    bits_to_hex,
    hex_to_bits,
    load_key_file,
    read_fields,
    save_key_file,
    write_json,
)
from .patterns import generate_pattern_set
from .payload import PayloadConfig, bits_per_second, decode_payload, encode_payload

log = logging.getLogger(__name__)

MANIFEST_VERSION = 1
LOCKFILE_NAME = "tag_lock.json"
AUDIO_FORMAT = Kind(" or ".join(map(repr, AUDIO_FORMATS)), lambda v: v in AUDIO_FORMATS)
ENTRIES = Kind("a list of JSON objects",
               lambda v: isinstance(v, list) and all(isinstance(e, dict) for e in v))
GONE_RESAMPLE = Kind("left out (tag-dataset --sample-rate native keeps each file's own rate)", lambda v: False)
DETECT_CSV_FIELDS = ("clip_id", "key_id", "duration_seconds", "argmax_lag", "z_at_key", "degenerate")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that raises its errors as ValueErrors for `main` to report, rather than exit 2."""

    def error(self, message):
        raise ValueError(message)


def _at_least(low: int):
    """argparse type: an integer >= low."""
    def integer(text):
        value = int(text)  # argparse reports a ValueError as "invalid integer value"
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return integer


def _sample_rate(text):
    """argparse type of --sample-rate: an integer >= 1, or None for 'native' (each file keeps its rate)."""
    try:
        return None if text == "native" else _at_least(1)(text)
    except ValueError:  # not an integer; _at_least's "must be at least 1" passes through
        raise argparse.ArgumentTypeError(f"must be a positive integer or 'native', got {text!r}") from None


def _after_the_command(value):
    """argparse type of a command's flag given before the command: always refused."""
    raise argparse.ArgumentTypeError("goes after the command name, not before it")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="echotag", description="Embed and detect echo watermarks in audio corpora.")
    parser.add_argument("--seed", type=_at_least(0), help="pattern seed for gen-patterns (default 0)")
    parser.add_argument("-v", "--verbose", action="store_true", help="log at DEBUG level")
    for flag in ("--format", "--sample-rate", "--jobs"):
        parser.add_argument(flag, type=_after_the_command, default=argparse.SUPPRESS, help=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    canonical = argparse.ArgumentParser(add_help=False)
    canonical.add_argument("--sample-rate", type=_sample_rate, default=DEFAULT_SAMPLE_RATE,
                           help="rate to resample each file to, or 'native' to keep its own (default 44100)")

    p = sub.add_parser("gen-patterns", help="write a key file of time-spread keys pn0, pn1, ...")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--length", type=int, default=1024)
    p.add_argument("--out", required=True)

    p = sub.add_parser("embed", parents=[canonical], help="watermark one file")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", dest="out_path", required=True)
    p.add_argument("--key-file", required=True)
    p.add_argument("--key", default=None, help="key name (optional when the file has exactly one)")
    p.add_argument("--format", choices=AUDIO_FORMATS, default="float32")

    p = sub.add_parser("tag-dataset", parents=[canonical], help="embed a whole corpus per a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--jobs", type=_at_least(1), default=1, help="files embedded at a time")

    p = sub.add_parser("detect", parents=[canonical], help="measure echo z-scores in one file")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--key-file", required=True)
    p.add_argument("--key", default=None)
    p.add_argument("--band", type=int, nargs=2, default=None, metavar=("A", "B"),
                   help="scan band for a single-echo key (default %d %d)" % DEFAULT_SINGLE_ECHO_BAND)
    p.add_argument("--enhanced", action="store_true",
                   help="sharpen a spread key's correlation before scoring")
    p.add_argument("--full-profile", action="store_true",
                   help="include the whole z profile in JSON output")
    p.add_argument("--format", choices=("json", "csv"), default="json")

    codec = argparse.ArgumentParser(add_help=False)
    codec.add_argument("--in", dest="in_path", required=True)
    codec.add_argument("--n-bits", type=_at_least(0), required=True, help="payload bit count")
    codec.add_argument("--delta0", type=int, default=PayloadConfig.delta0)
    codec.add_argument("--delta1", type=int, default=PayloadConfig.delta1)
    codec.add_argument("--alpha", type=float, default=PayloadConfig.alpha)
    codec.add_argument("--window", type=int, default=PayloadConfig.window)
    p = sub.add_parser("payload", help="windowed payload codec")
    actions = p.add_subparsers(dest="action", required=True)
    p = actions.add_parser("encode", parents=[codec], help="hide bits in a file")
    p.add_argument("--out", dest="out_path", required=True)
    p.add_argument("--bits", required=True, help="payload hex string, MSB-first")
    p.add_argument("--format", choices=AUDIO_FORMATS, default="float32")
    actions.add_parser("decode", parents=[codec], help="read bits from a file")

    p = sub.add_parser("evaluate", help="run a config-driven evaluation")
    p.add_argument("--config", required=True)

    return parser


def _pick_key(keys: dict, name):
    if name is not None:
        if name not in keys:
            raise ValueError(f"key {name!r} not in key file (available: {sorted(keys)})")
        return name, keys[name]
    if len(keys) == 1:
        return next(iter(keys.items()))
    raise ValueError(f"key file holds {len(keys)} keys; pick one with --key (available: {sorted(keys)})")


def _require_out_dir(path) -> None:
    out_dir = os.path.dirname(path) or "."
    if not os.path.isdir(out_dir):  # checked before the command's work, the slow part
        raise ValueError(f"--out directory {out_dir!r} does not exist")


def _canonicalize(clip, target_rate):
    return clip if target_rate in (None, clip.sample_rate) else resample(clip, target_rate)


def cmd_gen_patterns(args) -> int:
    _require_out_dir(args.out)
    ps = generate_pattern_set(args.count, args.length, args.seed or 0)
    width = len(str(ps.count - 1))  # zero-padded, so the file's sorted names keep generation order
    save_key_file({f"pn{i:0{width}}": SpreadKey(p) for i, p in enumerate(ps.patterns)}, args.out)
    distances = sorted(ps.pairwise_distances().tolist())
    print(json.dumps({
        "out": args.out,
        "count": ps.count,
        "length": ps.length,
        "seed": args.seed or 0,
        "distances": distances,
    }, sort_keys=True))
    return 0


def _embed_file(in_path, out_path, key, target_rate, out_format):
    tagged = embed(_canonicalize(load_audio(in_path), target_rate), key)
    return save_audio(tagged, out_path, format=out_format)


def cmd_embed(args) -> int:
    key_name, key = _pick_key(load_key_file(args.key_file), args.key)
    _require_out_dir(args.out_path)
    clipped = _embed_file(args.in_path, args.out_path, key, args.sample_rate, args.format)
    print(json.dumps({
        "in": args.in_path,
        "out": args.out_path,
        "key": key_name,
        "clipped_samples": clipped,
    }, sort_keys=True))
    return 0


def load_manifest(path):
    """Read a tag-dataset manifest and its key file; one ConfigError lists every problem."""
    with read_fields(path, "manifest", MANIFEST_VERSION) as fields:
        keys = fields.load_keys("key_file")
        base_in = fields.path("base_input_dir", DIRECTORY, ".")
        base_out = fields.path("base_output_dir", DIRECTORY, ".")
        overwrite = fields.get("overwrite", BOOLEAN, False)
        fields.get("resample", GONE_RESAMPLE, None)
        out_format = fields.get("format", AUDIO_FORMAT, "float32")
        entries = fields.get("entries", ENTRIES, [])
        jobs_entries = []
        seen_outputs = {}
        for index, raw_entry in enumerate(entries or []):
            entry = fields.child(raw_entry, f"entry {index}: ")
            pattern = entry.get("input", PATH)
            key_name = entry.get("key", TEXT)
            out_dir = entry.get("output_dir", DIRECTORY, "")
            if keys is not None and key_name is not None and key_name not in keys:
                entry.problem(f"key {key_name!r} not in key file")
            if None in (base_in, base_out, pattern, out_dir):
                continue
            matches = sorted(glob.glob(os.path.join(base_in, pattern)))
            if not matches:
                entry.problem(f"input {pattern!r} matched no files")
            for in_path in matches:
                out_path = os.path.normpath(os.path.join(base_out, out_dir, os.path.basename(in_path)))
                if out_path in seen_outputs:
                    entry.problem(f"output collision: {out_path} produced by both "
                                  f"{seen_outputs[out_path]} and {in_path}")
                seen_outputs[out_path] = in_path
                if overwrite is False and os.path.exists(out_path):
                    entry.problem(f"output exists and overwrite is false: {out_path}")
                jobs_entries.append((in_path, out_path, key_name))
    return jobs_entries, keys, base_out, out_format


def cmd_tag_dataset(args) -> int:
    entries, keys, base_out, out_format = load_manifest(args.manifest)
    os.makedirs(base_out, exist_ok=True)

    def _one(entry):
        """(clipped samples, None) for an entry embedded, (0, the error) for one that failed."""
        in_path, out_path, key_name = entry
        os.makedirs(os.path.dirname(out_path) or ".", exist_ok=True)
        try:
            return _embed_file(in_path, out_path, keys[key_name], args.sample_rate, out_format), None
        except (OSError, ValueError) as exc:
            return 0, str(exc)

    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        outcomes = list(pool.map(_one, entries))

    outputs, failures = {}, []
    for (in_path, out_path, key_name), (clipped, error) in zip(entries, outcomes):
        if error:
            failures.append({"in": in_path, "error": error})
        else:
            outputs[out_path] = {"input": in_path, "key": key_name, "clipped_samples": clipped}
    write_json(os.path.join(base_out, LOCKFILE_NAME), {"version": MANIFEST_VERSION, "outputs": outputs})
    summary = {
        "files": len(entries),
        "succeeded": len(outputs),
        "failed": failures,
        "clipped_samples_total": sum(clipped for clipped, _ in outcomes),
        "lockfile": os.path.join(base_out, LOCKFILE_NAME),
    }
    print(json.dumps(summary, sort_keys=True))
    return 1 if failures else 0


def cmd_detect(args) -> int:
    if args.full_profile and args.format != "json":
        raise ValueError(f"--full-profile is for JSON output, and --format is {args.format}")
    key_name, key = _pick_key(load_key_file(args.key_file), args.key)
    if isinstance(key, SpreadKey) and args.band is not None:
        raise ValueError(f"--band is for single-echo keys, and key {key_name!r} is a spread key")
    if not isinstance(key, SpreadKey) and args.enhanced:
        raise ValueError(f"--enhanced is for spread keys, and key {key_name!r} is a single echo")
    band = tuple(args.band or DEFAULT_SINGLE_ECHO_BAND)
    scoring_length(key, band)  # refuses a bad band or a key lag outside it before the clip is read
    clip = _canonicalize(load_audio(args.in_path), args.sample_rate)
    if isinstance(key, SpreadKey):
        report = detect_spread(clip, key, enhanced=args.enhanced)
    else:
        report = detect_single_echo(clip, band, key_lag=key.delta)
    row = {"clip_id": os.path.basename(args.in_path), "key_id": key_name,
           "duration_seconds": clip.duration_seconds,
           **report.to_dict(include_profile=args.full_profile)}
    if args.format == "json":
        print(json.dumps(row, sort_keys=True))
    else:
        writer = csv.DictWriter(sys.stdout, fieldnames=DETECT_CSV_FIELDS)
        writer.writeheader()
        writer.writerow({k: csv_value(row[k]) for k in DETECT_CSV_FIELDS})
    return 0


def cmd_payload(args) -> int:
    config = PayloadConfig(delta0=args.delta0, delta1=args.delta1,
                           alpha=args.alpha, window=args.window)
    # every argument is checked before the input is read
    if args.action == "encode":
        _require_out_dir(args.out_path)
        bits = hex_to_bits(args.bits, args.n_bits)
        clip = load_audio(args.in_path)
        tagged = encode_payload(clip, bits, config)
        save_audio(tagged, args.out_path, format=args.format)
        print(json.dumps({
            "out": args.out_path,
            "n_bits": args.n_bits,
            "bits_per_second": bits_per_second(clip.sample_rate, config),
        }, sort_keys=True))
    else:
        bits = decode_payload(load_audio(args.in_path), config, args.n_bits)
        print(json.dumps({"n_bits": args.n_bits, "bits": bits_to_hex(bits)}, sort_keys=True))
    return 0


def cmd_evaluate(args) -> int:
    summary = run_evaluation(load_eval_config(args.config))
    print(json.dumps(summary, sort_keys=True))
    return 0


def main(argv=None) -> int:
    """Run one command line (sys.argv[1:] by default); returns 0, or 1 after one error line on stderr."""
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr)
    logging.getLogger().setLevel(logging.INFO)  # -v holds for the one call that gives it
    try:
        args = build_parser().parse_args(argv)
        if args.verbose:
            logging.getLogger().setLevel(logging.DEBUG)
        if args.seed is not None and args.command != "gen-patterns":
            raise ValueError(f"--seed is read by gen-patterns only, not by {args.command}")
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except (OSError, ValueError) as exc:  # a ConfigError is a ValueError
        log.debug("echotag failed", exc_info=True)
        print(f"echotag: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
