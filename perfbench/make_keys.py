"""Benchmark set-up: import echotag, design patterns, write the key file.

Run as a script it does the whole set-up in a fresh interpreter, which is
what `setup_s` times:

    python3 perfbench/make_keys.py SRC_DIR WORK_DIR SEED

The key file holds two single-echo keys and one spread key per designed
pattern (L=1024, alpha=0.01, delta=75).
"""

from __future__ import annotations

import contextlib
import io
import os
import sys

PATTERN_COUNT = 4
PATTERN_LENGTH = 1024
SPREAD_ALPHA = 0.01
SPREAD_DELTA = 75
SINGLE_ALPHA = 0.4
SINGLE_DELTAS = (50, 75)


def make_keys(work_dir: str, seed: int) -> str:
    """Write WORK_DIR/keys.json through `echotag gen-patterns`; return its path."""
    from echotag.cli import main
    from echotag.embed import EchoKey, SpreadKey
    from echotag.keyfiles import load_pattern_set, save_key_file

    patterns_path = os.path.join(work_dir, "patterns.json")
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["--seed", str(seed), "gen-patterns", "--count", str(PATTERN_COUNT),
                     "--length", str(PATTERN_LENGTH), "--out", patterns_path])
    if code != 0:
        raise RuntimeError(f"echotag gen-patterns failed with exit code {code} for seed {seed}")
    keys = {f"echo{d}": EchoKey(delta=d, alpha=SINGLE_ALPHA) for d in SINGLE_DELTAS}
    for index, pattern in enumerate(load_pattern_set(patterns_path).patterns):
        keys[f"pn{index}"] = SpreadKey(pattern=pattern, alpha=SPREAD_ALPHA, delta=SPREAD_DELTA)
    key_path = os.path.join(work_dir, "keys.json")
    save_key_file(keys, key_path)
    return key_path


if __name__ == "__main__":
    src_dir, work_dir, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    sys.path.insert(0, src_dir)
    make_keys(work_dir, seed)
