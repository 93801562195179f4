"""On-disk formats: key files, bit/hex packing, and the one reader
(`read_fields`) of every version-stamped JSON file echotag reads.

A key file is human-readable JSON with a version field so forensic
workflows can audit exactly which keys tagged which outputs. Pattern bits are
hex strings, MSB-first, zero-padded to a multiple of 4 bits; the true bit
length always travels alongside in the key's length field.

Key file:
    {"version": 1,
     "keys": {"<name>": {"type": "single", "delta": 75, "alpha": 0.4},
              "<name>": {"type": "spread", "alpha": 0.01, "delta": 75,
                          "length": 1024, "bits": "<hex>"}}}

`gen-patterns` writes a key file of spread keys; load_pattern_set reads their
patterns back as a pattern set.
"""

from __future__ import annotations

import json
import os
import reprlib
from contextlib import contextmanager
from typing import Callable, NamedTuple

import numpy as np

from .audio import atomic_output
from .embed import EchoKey, SpreadKey
from .patterns import PatternSet, validate_pattern_set

KEY_FILE_VERSION = 1


def bits_to_hex(bits) -> str:
    """Pack a bit sequence into a hex string, MSB-first, padded to 4 bits."""
    bits = np.asarray(bits, dtype=np.uint8)
    padded = np.concatenate([bits, np.zeros((-bits.size) % 4, dtype=np.uint8)])
    digits = padded.reshape(-1, 4)
    values = digits @ np.array([8, 4, 2, 1])
    return "".join(f"{v:x}" for v in values)


def hex_to_bits(hex_string: str, length: int) -> np.ndarray:
    """Unpack `length` bits from an MSB-first hex string."""
    if not 0 <= length <= 4 * len(hex_string):
        raise ValueError(f"cannot take {length} of the {4 * len(hex_string)} bits the hex string holds")
    try:
        values = np.array([int(ch, 16) for ch in hex_string], dtype=np.uint8)
    except ValueError:
        raise ValueError(f"{reprlib.repr(hex_string)} is not a hex string") from None
    bits = ((values[:, None] >> np.array([3, 2, 1, 0])) & 1).reshape(-1)
    return bits[:length].astype(np.uint8)


def write_json(path, document) -> None:
    """Write `document` as indented JSON with sorted keys and a final newline."""
    with atomic_output(path, encoding="utf-8") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")


class ConfigError(ValueError):
    """Every problem found in one JSON input file, raised once the whole file is checked."""

    def __init__(self, what, path, problems):
        self.problems = list(problems)
        lines = "".join(f"\n  - {p}" for p in self.problems)
        super().__init__(f"invalid {what} {str(path)!r}:{lines}")


class Kind(NamedTuple):
    """What a JSON field must be: in words, for the problem, and as a test of its value."""

    want: str
    ok: Callable[[object], bool]


TEXT = Kind("a non-empty string", lambda v: isinstance(v, str) and v != "")
DIRECTORY = Kind("a directory path", lambda v: isinstance(v, str) and "\x00" not in v)
PATH = Kind("a non-empty path", lambda v: DIRECTORY.ok(v) and v != "")
BOOLEAN = Kind("a boolean", lambda v: isinstance(v, bool))
# JSON true and false load as bool, which Python counts as an int: not a number here
INTEGER = Kind("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool))
POSITIVE_INTEGER = Kind("a positive integer", lambda v: INTEGER.ok(v) and v >= 1)
NUMBER = Kind("a number", lambda v: isinstance(v, (int, float)) and not isinstance(v, bool))
OBJECT = Kind("a JSON object", lambda v: isinstance(v, dict))

_REQUIRED = object()


class JsonFields:
    """Checked reads of one JSON object's fields.

    A field that is missing with no default, or that fails its test, adds a
    problem (prefixed with `label`) and reads as None. `check_unread` adds one
    for each field that no read asked for, here and in every child.
    """

    def __init__(self, raw: dict, base: str = "", problems: list | None = None, label: str = ""):
        self.raw, self.base, self.label = raw, base, label
        self.problems = [] if problems is None else problems
        self.read, self.children = set(), []

    def problem(self, message: str) -> None:
        self.problems.append(self.label + message)

    def get(self, name: str, kind: Kind, default=_REQUIRED):
        """The field `name` if it passes `kind`'s test, `default` if it is absent, else None."""
        self.read.add(name)
        if name not in self.raw:
            if default is not _REQUIRED:
                return default
            self.problem(f"{name!r} must be {kind.want}, and is missing")
        elif kind.ok(self.raw[name]):
            return self.raw[name]
        else:
            self.problem(f"{name!r} must be {kind.want}, got {reprlib.repr(self.raw[name])}")
        return None

    def path(self, name: str, kind: Kind = PATH, default=_REQUIRED):
        """A path field; a relative path is resolved against the file's directory."""
        value = self.get(name, kind, default)
        return None if value is None else os.path.join(self.base, value)

    def child(self, raw: dict, label: str) -> "JsonFields":
        """A reader of the nested object `raw` that shares this reader's problems."""
        self.children.append(JsonFields(raw, self.base, self.problems, self.label + label))
        return self.children[-1]

    def check_unread(self) -> None:
        """Add a problem for each field of this object and its children that nothing read."""
        for name in self.raw:
            if name not in self.read:
                self.problem(f"unknown field {name!r}")
        for child in self.children:
            child.check_unread()

    def load_keys(self, name: str):
        """The keys of the key file the path field `name` names; its problems become this file's."""
        path = self.path(name)
        if path is None:
            return None
        try:
            return load_key_file(path)
        except ConfigError as exc:
            self.problems.extend(f"{self.label}{name}: {p}" for p in exc.problems)
            return None


@contextmanager
def read_fields(path, what: str, version: int):
    """Yield a JsonFields over the JSON object file `path` (a `what`), version checked.

    A file that cannot be parsed raises ConfigError at once; otherwise, when the
    block ends, one ConfigError lists every problem the block's reads found,
    a field that no read asked for among them.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError(f"{path!r} must hold a JSON object, got {type(raw).__name__}")
    except (OSError, ValueError) as exc:
        raise ConfigError(what, path, [f"cannot read: {exc}"]) from exc
    fields = JsonFields(raw, os.path.dirname(os.path.abspath(path)))
    fields.get("version", Kind(repr(version), lambda v: INTEGER.ok(v) and v == version))
    yield fields
    fields.check_unread()
    if fields.problems:
        raise ConfigError(what, path, fields.problems)


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


def key_from_dict(d):
    """The EchoKey or SpreadKey a key-file entry describes; one ValueError lists its problems."""
    if not isinstance(d, dict):
        raise ValueError(f"must be a JSON object, got {reprlib.repr(d)}")
    fields = JsonFields(d)
    kind = fields.get("type", Kind("'single' or 'spread'", lambda v: v in ("single", "spread")))
    delta = fields.get("delta", NUMBER)
    alpha = fields.get("alpha", NUMBER)
    if kind == "spread":
        length = fields.get("length", POSITIVE_INTEGER)
        bits = fields.get("bits", Kind("a hex string", lambda v: isinstance(v, str)))
    if kind is not None:  # which fields a key of no known type reads is not known
        fields.check_unread()
    if not fields.problems:
        try:
            if kind == "single":
                return EchoKey(delta=delta, alpha=alpha)
            return SpreadKey(pattern=hex_to_bits(bits, length), alpha=alpha, delta=delta)
        except ValueError as exc:
            fields.problem(str(exc))
    raise ValueError("; ".join(fields.problems))


def save_key_file(keys: dict, path) -> None:
    """Write a named-key JSON file; keys maps name -> EchoKey | SpreadKey."""
    document = {
        "version": KEY_FILE_VERSION,
        "keys": {name: key_to_dict(key) for name, key in keys.items()},
    }
    write_json(path, document)


def load_key_file(path) -> dict:
    """Named keys from a key file; one ConfigError lists every problem in it."""
    with read_fields(path, "key file", KEY_FILE_VERSION) as fields:
        entries = fields.get("keys", Kind("an object of named keys", OBJECT.ok))
        keys = {}
        for name, entry in (entries or {}).items():
            try:
                keys[name] = key_from_dict(entry)
            except ValueError as exc:
                fields.problem(f"key {name!r}: {exc}")
    return keys


def load_pattern_set(path) -> PatternSet:
    """The patterns of a key file's spread keys, in file order, as a pattern set; single-echo
    keys are skipped. One ConfigError lists every way the set breaks the pattern-set rule."""
    patterns = [key.pattern for key in load_key_file(path).values() if isinstance(key, SpreadKey)]
    pattern_set = PatternSet(patterns, seed=None)
    problems = validate_pattern_set(pattern_set)
    if problems:
        raise ConfigError("pattern set in key file", path, problems)
    return pattern_set
