"""On-disk formats: key files, pattern-set files, bit/hex packing.

Both formats are human-readable JSON with a version field so forensic
workflows can audit exactly which keys tagged which outputs. Pattern bits are
hex strings, MSB-first, zero-padded to a multiple of 4 bits; the true bit
length always travels alongside in a header field.

Key file:
    {"version": 1,
     "keys": {"<name>": {"type": "single", "delta": 75, "alpha": 0.4},
              "<name>": {"type": "spread", "alpha": 0.01, "delta": 75,
                          "length": 1024, "bits": "<hex>"}}}

Pattern-set file:
    {"version": 1, "count": 8, "length": 1024, "seed": 1, "generator": 1,
     "converged": true, "patterns": ["<hex>", ...],
     "distance_matrix": [[0, ...], ...]}
"""

from __future__ import annotations

import json

import numpy as np

from .embed import EchoKey, SpreadKey
from .patterns import PatternSet

KEY_FILE_VERSION = 1
PATTERN_FILE_VERSION = 1
PATTERN_GENERATOR_VERSION = 1


def bits_to_hex(bits) -> str:
    """Pack a bit sequence into a hex string, MSB-first, padded to 4 bits."""
    bits = np.asarray(bits, dtype=np.uint8)
    padded = np.concatenate([bits, np.zeros((-bits.size) % 4, dtype=np.uint8)])
    digits = padded.reshape(-1, 4)
    values = digits @ np.array([8, 4, 2, 1])
    return "".join(f"{v:x}" for v in values)


def hex_to_bits(hex_string: str, length: int) -> np.ndarray:
    """Unpack `length` bits from an MSB-first hex string."""
    if length > 4 * len(hex_string):
        raise ValueError(f"hex string holds {4 * len(hex_string)} bits, need {length}")
    values = np.array([int(ch, 16) for ch in hex_string], dtype=np.uint8)
    bits = ((values[:, None] >> np.array([3, 2, 1, 0])) & 1).reshape(-1)
    return bits[:length].astype(np.uint8)


def read_json_object(path) -> dict:
    """Parse a JSON file whose top level must be an object; OSError or ValueError otherwise."""
    with open(path, encoding="utf-8") as fh:
        document = json.load(fh)
    if not isinstance(document, dict):
        raise ValueError(f"{path!r} must hold a JSON object, got {type(document).__name__}")
    return document


def key_to_dict(key) -> dict:
    if isinstance(key, EchoKey):
        return {"type": "single", "delta": key.delta, "alpha": key.alpha}
    if isinstance(key, SpreadKey):
        return {
            "type": "spread",
            "alpha": key.alpha,
            "delta": key.delta,
            "length": key.length,
            "bits": bits_to_hex(key.pattern),
        }
    raise TypeError(f"expected EchoKey or SpreadKey, got {type(key).__name__}")


def key_from_dict(d: dict):
    kind = d.get("type")
    if kind == "single":
        return EchoKey(delta=d["delta"], alpha=d["alpha"])
    if kind == "spread":
        return SpreadKey(
            pattern=hex_to_bits(d["bits"], d["length"]),
            alpha=d["alpha"],
            delta=d["delta"],
        )
    raise ValueError(f"unknown key type {kind!r} (expected 'single' or 'spread')")


def save_key_file(keys: dict, path) -> None:
    """Write a named-key JSON file; keys maps name -> EchoKey | SpreadKey."""
    document = {
        "version": KEY_FILE_VERSION,
        "keys": {name: key_to_dict(key) for name, key in keys.items()},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_key_file(path) -> dict:
    document = read_json_object(path)
    version = document.get("version")
    if version != KEY_FILE_VERSION:
        raise ValueError(f"unsupported key file version {version!r} in {path!r}")
    if "keys" not in document or not isinstance(document["keys"], dict):
        raise ValueError(f"key file {path!r} missing a 'keys' mapping")
    return {name: key_from_dict(d) for name, d in document["keys"].items()}


def save_pattern_set(ps: PatternSet, path) -> None:
    document = {
        "version": PATTERN_FILE_VERSION,
        "generator": PATTERN_GENERATOR_VERSION,
        "count": ps.count,
        "length": ps.length,
        "seed": ps.seed,
        "converged": ps.converged,
        "patterns": [bits_to_hex(p) for p in ps.patterns],
        "distance_matrix": ps.distance_matrix.tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_pattern_set(path) -> PatternSet:
    document = read_json_object(path)
    version = document.get("version")
    if version != PATTERN_FILE_VERSION:
        raise ValueError(f"unsupported pattern file version {version!r} in {path!r}")
    length = document["length"]
    patterns = [hex_to_bits(h, length) for h in document["patterns"]]
    return PatternSet(
        patterns=patterns,
        seed=document["seed"],
        distance_matrix=np.asarray(document["distance_matrix"], dtype=int),
        converged=document.get("converged", True),
    )
