import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echotag import (
    EchoKey,
    SpreadKey,
    generate_pattern,
    generate_pattern_set,
    load_key_file,
    load_pattern_set,
    save_audio,
    save_key_file,
)
from echotag.cli import load_manifest
from echotag.evalrun import load_eval_config
from echotag.harness import apply_channel
from echotag.keyfiles import ConfigError, bits_to_hex, hex_to_bits, key_from_dict, key_to_dict
from helpers import noise_clip


class TestHexPacking:
    def test_known_nibbles(self):
        assert bits_to_hex([1, 0, 1, 0]) == "a"
        assert bits_to_hex([1, 1, 1, 1, 0, 0, 0, 0]) == "f0"

    def test_padding_to_nibble(self):
        # 6 bits pad with two zeros: 101101 -> 1011 0100
        assert bits_to_hex([1, 0, 1, 1, 0, 1]) == "b4"
        assert np.array_equal(hex_to_bits("b4", 6), [1, 0, 1, 1, 0, 1])

    def test_round_trip_random_lengths(self):
        rng = np.random.default_rng(0)
        for length in (2, 5, 16, 1023, 1024):
            bits = rng.integers(0, 2, size=length).astype(np.uint8)
            assert np.array_equal(hex_to_bits(bits_to_hex(bits), length), bits)

    def test_length_exceeds_hex(self):
        with pytest.raises(ValueError):
            hex_to_bits("ff", 9)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError, match="cannot take -3 of the 8 bits"):
            hex_to_bits("a5", -3)

    def test_non_hex_digit_named(self):
        with pytest.raises(ValueError, match="'a5z' is not a hex string"):
            hex_to_bits("a5z", 8)


class TestKeyFiles:
    def test_single_key_dict(self):
        d = key_to_dict(EchoKey(75, 0.4))
        assert d == {"type": "single", "delta": 75, "alpha": 0.4}
        key = key_from_dict(d)
        assert isinstance(key, EchoKey) and key.delta == 75

    def test_spread_key_round_trip(self):
        key = SpreadKey(generate_pattern(1024, 5))
        rebuilt = key_from_dict(key_to_dict(key))
        assert isinstance(rebuilt, SpreadKey)
        assert np.array_equal(rebuilt.pattern, key.pattern)
        assert rebuilt.alpha == key.alpha and rebuilt.delta == key.delta

    def test_unknown_type(self):
        with pytest.raises(ValueError):
            key_from_dict({"type": "phase", "delta": 3})

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "keys.json"
        keys = {
            "echo50": EchoKey(50, 0.4),
            "pn0": SpreadKey(generate_pattern(512, 9), alpha=0.01, delta=75),
        }
        save_key_file(keys, path)
        loaded = load_key_file(path)
        assert set(loaded) == {"echo50", "pn0"}
        assert loaded["echo50"].delta == 50
        assert np.array_equal(loaded["pn0"].pattern, keys["pn0"].pattern)

    def test_version_gate(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 99, "keys": {}}))
        with pytest.raises(ValueError, match="version"):
            load_key_file(path)

    def test_missing_keys_mapping(self, tmp_path):
        path = tmp_path / "bad2.json"
        path.write_text(json.dumps({"version": 1}))
        with pytest.raises(ValueError):
            load_key_file(path)


class TestKeyEntryProblems:
    @pytest.mark.parametrize("entry, problems", [
        ({"type": "single", "delta": 0, "alpha": 2},
         ["delta must be an integer >= 1, got 0", "alpha must be in [0, 1), got 2"]),
        ({"type": "spread", "delta": 0.5, "alpha": -1, "length": 1, "bits": "8"},
         ["pattern must be a 1-D bit sequence of length >= 2", "delta must be an integer >= 1, got 0.5",
          "alpha must be in [0, 1), got -1"]),
    ], ids=["single", "spread"])
    def test_every_problem_listed(self, entry, problems):
        with pytest.raises(ValueError) as info:
            key_from_dict(entry)
        assert str(info.value) == "; ".join(problems)


class TestLoadPatternSet:
    """load_pattern_set reads a key file's spread keys as a pattern set."""

    @staticmethod
    def _problems(path):
        with pytest.raises(ConfigError) as info:
            load_pattern_set(path)
        return info.value.problems

    def test_single_echo_keys_skipped(self, tmp_path):
        ps = generate_pattern_set(4, 256, 3)
        keys = {"a_echo": EchoKey(50), "b": SpreadKey(ps.patterns[0]), "c_echo": EchoKey(75),
                **{f"d{i}": SpreadKey(p) for i, p in enumerate(ps.patterns[1:])}}
        save_key_file(keys, tmp_path / "keys.json")
        loaded = load_pattern_set(tmp_path / "keys.json")
        assert [p.tolist() for p in loaded.patterns] == [p.tolist() for p in ps.patterns]

    def test_rule_breaks_listed_together(self, tmp_path):
        run_of_three = np.array([1, 1, 1] + [0, 1] * 30 + [0], dtype=np.uint8)
        save_key_file({"pn0": SpreadKey(run_of_three), "pn1": SpreadKey(run_of_three)}, tmp_path / "keys.json")
        assert self._problems(tmp_path / "keys.json") == [
            "pattern 0 has a run longer than 2", "pattern 1 has a run longer than 2",
            "minimum pairwise distance 0 below 16"]

    @pytest.mark.parametrize("count", [0, 1])
    def test_fewer_than_two_spread_keys_refused(self, tmp_path, count):
        keys = {"echo75": EchoKey(75), **{f"pn{i}": SpreadKey(generate_pattern(64, i)) for i in range(count)}}
        save_key_file(keys, tmp_path / "keys.json")
        assert self._problems(tmp_path / "keys.json") == [f"a pattern set needs at least 2 patterns, got {count}"]


# Valid documents for the two files a user writes by hand; their paths are
# relative to the directory that holds them all.
MANIFEST = {
    "version": 1, "key_file": "keys.json", "base_input_dir": ".", "base_output_dir": "out",
    "overwrite": False, "format": "float32",
    "entries": [{"input": "*.wav", "key": "echo75", "output_dir": "tagged"}],
}
# one stage of each channel kind
CHANNEL = {"kind": "composite", "seed": 0, "stages": [
    {"kind": "identity", "seed": 1},
    {"kind": "attenuate_echo", "seed": 2, "ratio": 0.5},
    {"kind": "additive_noise", "seed": 3, "snr_db": 20.0},
    {"kind": "random_resample", "seed": 5, "probability": 0.5, "low": 0.9, "high": 1.1},
    {"kind": "composite", "seed": 7, "stages": []},
]}
CONFIG = {
    "version": 1, "seed": 0, "corpus": "*.wav", "key_file": "keys.json", "key": "pn0",
    "channel": CHANNEL, "durations": [0.05], "segments_per_clip": 1,
    "band": [25, 125], "include_clean": True, "flips": [0, 8], "bitflip_duration": 0.05,
    "output_dir": "results",
}
# (file, path to the replaced field): every top-level field and every field of an entry.
# "patterns" is a key file read by load_pattern_set: a single-echo key and three spread keys.
FIELD_CASES = (
    [("keys", ("version",)), ("keys", ("keys",)), ("keys", ("keys", "echo75")), ("keys", ("keys", "pn0"))]
    + [("keys", ("keys", "echo75", f)) for f in ("type", "delta", "alpha")]
    + [("keys", ("keys", "pn0", f)) for f in ("type", "delta", "alpha", "length", "bits")]
    + [("patterns", ("version",)), ("patterns", ("keys",))]
    + [("patterns", ("keys", k)) for k in ("echo75", "pn0", "pn1", "pn2")]
    + [("patterns", ("keys", "echo75", f)) for f in ("type", "delta", "alpha")]
    + [("patterns", ("keys", "pn1", f)) for f in ("type", "delta", "alpha", "length", "bits")]
    + [("manifest", (f,)) for f in MANIFEST]
    + [("manifest", ("entries", 0, f)) for f in MANIFEST["entries"][0]]
    + [("config", (f,)) for f in CONFIG]
    + [("config", ("channel", f)) for f in CHANNEL]
    + [("config", ("channel", "stages", i)) for i in range(len(CHANNEL["stages"]))]
    + [("config", ("channel", "stages", i, f))
       for i, stage in enumerate(CHANNEL["stages"]) for f in stage]
)
# no "/" in strings, so a generated path stays inside the test's directory
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(st.characters(exclude_characters="/"), max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """file name -> (loader, directory, valid document) for each JSON input file."""
    root = tmp_path_factory.mktemp("json-inputs")
    save_audio(noise_clip(0, seconds=0.1), root / "a.wav", format="float32")
    save_key_file({"echo75": EchoKey(75, 0.4), "pn0": SpreadKey(generate_pattern(64, 1))},
                  root / "keys.json")
    save_key_file({"echo75": EchoKey(75, 0.4),
                   **{f"pn{i}": SpreadKey(p) for i, p in enumerate(generate_pattern_set(3, 64, 1).patterns)}},
                  root / "patterns.json")
    files = {
        "keys": (load_key_file, json.loads((root / "keys.json").read_text())),
        "patterns": (load_pattern_set, json.loads((root / "patterns.json").read_text())),
        "manifest": (load_manifest, MANIFEST),
        "config": (load_eval_config, CONFIG),
    }
    for name, (loader, document) in files.items():
        (root / f"{name}-valid.json").write_text(json.dumps(document))
        loader(root / f"{name}-valid.json")  # each document is valid as written
    return root, files


def _case_id(p):
    return p if isinstance(p, str) else ".".join(map(str, p))


def _write_mutated(root, name, document, path, value):
    """Write `document` with the field at `path` set to `value`; return the
    file's path and the field's valid value."""
    document = copy.deepcopy(document)
    target = document
    for step in path[:-1]:
        target = target[step]
    valid, target[path[-1]] = target[path[-1]], value
    mutated = root / f"{name}-mutated.json"
    mutated.write_text(json.dumps(document))
    return mutated, valid


@pytest.mark.parametrize("name, path", FIELD_CASES, ids=_case_id)
@settings(max_examples=60, deadline=None)
@given(value=JSON_VALUES)
def test_one_bad_field_loads_or_raises_config_error(valid_files, name, path, value):
    root, files = valid_files
    loader, document = files[name]
    mutated, _ = _write_mutated(root, name, document, path, value)
    try:
        loaded = loader(mutated)
    except ConfigError:
        return  # any other exception fails the test
    if name == "config":  # a channel that loads also runs
        apply_channel([noise_clip(0, seconds=0.1)], loaded.channel)


@pytest.mark.parametrize("name, path", FIELD_CASES, ids=_case_id)
def test_true_loads_only_where_a_boolean_is_valid(valid_files, name, path):
    # JSON true is a Python int: a numeric field must still reject it
    root, files = valid_files
    loader, document = files[name]
    mutated, valid = _write_mutated(root, name, document, path, True)
    if isinstance(valid, bool):
        loader(mutated)
    else:
        with pytest.raises(ConfigError):
            loader(mutated)


def _objects(document, path=()):
    """The path of every JSON object in `document` whose field names the loader
    fixes: all but a key file's "keys" object, whose names are the user's."""
    if isinstance(document, dict) and path != ("keys",):
        yield path
    for step, value in (document.items() if isinstance(document, dict) else enumerate(document)):
        if isinstance(value, (dict, list)):
            yield from _objects(value, (*path, step))


# file -> how many objects _objects finds in its valid document
OBJECT_COUNTS = {"keys": 3, "patterns": 5, "manifest": 2, "config": 7}


@pytest.mark.parametrize("name", sorted(OBJECT_COUNTS))
def test_a_field_nobody_reads_is_refused_by_name(valid_files, name):
    root, files = valid_files
    loader, document = files[name]
    paths = list(_objects(document))
    assert len(paths) == OBJECT_COUNTS[name]
    for path in paths:
        edited = copy.deepcopy(document)
        target = edited
        for step in path:
            target = target[step]
        target["unread_field"] = 1
        (root / f"{name}-unread.json").write_text(json.dumps(edited))
        with pytest.raises(ConfigError, match="'unread_field'"):
            loader(root / f"{name}-unread.json")
