import hashlib
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from echotag import (
    PatternSet,
    cross_correlate,
    flip_bits,
    generate_pattern,
    generate_pattern_set,
)
from echotag.keyfiles import bits_to_hex
from echotag.patterns import is_run_valid, max_run_length, repair_runs, validate_pattern_set
from helpers import distance_matrix_loop, hamming, max_run_length_loop, repair_runs_loop

# frozen output of generate_pattern_set(8, 1024, 1); regenerate only on a
# deliberate generator version bump
GOLDEN_8_1024_SEED1_DISTANCES = [
    144, 166, 174, 183, 184, 190, 193, 272, 303, 304, 308, 323, 323, 400,
    420, 423, 424, 441, 516, 537, 538, 551, 623, 647, 658, 739, 756, 878,
]
GOLDEN_8_1024_SEED1_SHA256 = "d9bf361cf4e73fddb95b2bf213bfe13c3787ee26afb5a7bfbd4f13e424b4f41d"


def brute_force_max_run(bits):
    best = 0
    for start in range(len(bits)):
        run = 1
        for j in range(start + 1, len(bits)):
            if bits[j] == bits[start]:
                run += 1
            else:
                break
        best = max(best, run)
    return best


class TestGeneratePattern:
    def test_never_three_in_a_row_small(self):
        for seed in range(50):
            bits = generate_pattern(4, seed)
            as_str = "".join(map(str, bits))
            assert "000" not in as_str and "111" not in as_str

    def test_deterministic(self):
        assert np.array_equal(generate_pattern(1024, 9), generate_pattern(1024, 9))

    def test_run_constraint_and_density_100_seeds(self):
        ones = []
        for seed in range(100):
            bits = generate_pattern(1024, seed)
            assert max_run_length(bits) <= 2
            assert max_run_length(bits) == brute_force_max_run(bits)
            ones.append(int(bits.sum()))
        assert 460 <= np.mean(ones) <= 564

    def test_density_bound_holds_per_pattern(self):
        for seed in range(40):
            bits = generate_pattern(256, seed)
            assert 0.4 <= bits.mean() <= 0.6

    def test_length_validation(self):
        with pytest.raises(ValueError):
            generate_pattern(1, 0)


class TestRepairRuns:
    def test_fixes_long_runs(self):
        bits = np.array([0, 0, 0, 0, 1, 1, 1, 0, 1], dtype=np.uint8)
        fixed = repair_runs(bits)
        assert max_run_length(fixed) <= 2

    def test_noop_on_valid(self):
        bits = generate_pattern(128, 3)
        assert np.array_equal(repair_runs(bits), bits)


def alternating_runs(length, seed, longest):
    """`length` bits in alternating runs of 1 to `longest` equal bits."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, longest + 1, size=length)
    values = (np.arange(length) + rng.integers(0, 2)) % 2
    return np.repeat(values, sizes)[:length].astype(np.uint8)


LENGTHS = st.integers(1, 2049)
# runs longer than a few bits need several repair sweeps: a run of n bits
# takes about log2(n) sweeps to break up, so an all-equal array of 2,049 bits
# takes 10
BIT_ARRAYS = st.one_of(
    st.builds(alternating_runs, LENGTHS, st.integers(0, 2**32 - 1),
              st.sampled_from([1, 2, 3, 8, 100, 2049])),
    st.builds(lambda length, bit: np.full(length, bit, dtype=np.uint8), LENGTHS, st.integers(0, 1)),
)


class TestFastPathsMatchLoops:
    """The run finder and the matrix product equal the loops they replaced, exactly."""

    @settings(max_examples=150, deadline=None)
    @given(bits=BIT_ARRAYS)
    @example(bits=np.zeros(2049, dtype=np.uint8))
    @example(bits=np.ones(1, dtype=np.uint8))
    def test_runs_and_repair(self, bits):
        assert max_run_length(bits) == max_run_length_loop(bits)
        assert np.array_equal(repair_runs(bits), repair_runs_loop(bits))

    @settings(max_examples=100, deadline=None)
    @given(count=st.integers(2, 8), length=LENGTHS, seed=st.integers(0, 2**32 - 1),
           ones=st.sampled_from([0.0, 0.5, 1.0]))
    def test_distance_matrix(self, count, length, seed, ones):
        # ones 0 and 1 give all-equal patterns
        patterns = list(np.random.default_rng(seed).random((count, length)) < ones)
        matrix = PatternSet(patterns, seed).distance_matrix
        assert np.array_equal(matrix, distance_matrix_loop(patterns))


class TestHamming:
    def test_self_distance_zero(self):
        p = generate_pattern(1024, 2)
        assert hamming(p, p) == 0

    def test_complement_distance_full(self):
        p = generate_pattern(1024, 2)
        assert hamming(p, 1 - p) == 1024

    def test_matches_positional_count(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 2, 1024)
        b = rng.integers(0, 2, 1024)
        direct = sum(int(x != y) for x, y in zip(a, b))
        assert hamming(a, b) == direct

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            hamming(np.zeros(4), np.zeros(5))


class TestFlipBits:
    def test_zero_flips_identity(self):
        p = generate_pattern(1024, 7)
        assert np.array_equal(flip_bits(p, 0, seed=1), p)

    def test_full_flips_complement(self):
        p = generate_pattern(1024, 7)
        assert np.array_equal(flip_bits(p, 1024, seed=1), 1 - p)

    def test_exact_flip_count(self):
        p = generate_pattern(1024, 7)
        assert hamming(p, flip_bits(p, 512, seed=3)) == 512

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            flip_bits(generate_pattern(8, 0), 9, seed=0)

    def test_deterministic_in_seed(self):
        p = generate_pattern(1024, 7)
        assert np.array_equal(flip_bits(p, 17, seed=5), flip_bits(p, 17, seed=5))


class TestGeneratePatternSet:
    def test_count_two(self):
        ps = generate_pattern_set(2, 1024, 0)
        assert ps.distance_matrix.shape == (2, 2)
        assert ps.distance_matrix[0, 0] == 0
        assert ps.distance_matrix[0, 1] == ps.distance_matrix[1, 0] >= 64

    def test_count_below_two_rejected(self):
        with pytest.raises(ValueError):
            generate_pattern_set(1, 1024, 0)

    def test_golden_eight_patterns(self):
        ps = generate_pattern_set(8, 1024, 1)
        assert all(is_run_valid(p) for p in ps.patterns)
        distances = sorted(ps.pairwise_distances().tolist())
        assert distances == GOLDEN_8_1024_SEED1_DISTANCES
        blob = json.dumps([bits_to_hex(p) for p in ps.patterns]).encode()
        assert hashlib.sha256(blob).hexdigest() == GOLDEN_8_1024_SEED1_SHA256

    def test_spread_criteria_across_seeds(self):
        for seed in range(5):
            ps = generate_pattern_set(8, 1024, seed)
            distances = np.sort(ps.pairwise_distances())
            edges = np.concatenate(([0], distances, [1024]))
            assert np.max(np.diff(edges)) <= 2 * 1024 / 8
            assert distances.min() >= 1024 / 16

    def test_deterministic(self):
        a = generate_pattern_set(8, 512, 4)
        b = generate_pattern_set(8, 512, 4)
        assert all(np.array_equal(x, y) for x, y in zip(a.patterns, b.patterns))
        assert np.array_equal(a.distance_matrix, b.distance_matrix)

    def test_validator_rejects_duplicates(self):
        ps = generate_pattern_set(4, 512, 2)
        ps.patterns[1] = ps.patterns[0].copy()
        problems = validate_pattern_set(ps)
        assert any("minimum pairwise distance" in p for p in problems)

    def test_validator_rejects_distances_clustered_near_half(self):
        # independent patterns sit near L/2 = 512 apart: far apart, but not spread
        ps = PatternSet([generate_pattern(1024, seed) for seed in range(8)], seed=0)
        distances = ps.pairwise_distances()
        assert distances.min() >= 1024 / 16
        gap = 1024 - distances.max()
        assert validate_pattern_set(ps) == [f"largest gap {gap} between sorted distances above 256"]

    def test_validator_rejects_mixed_lengths(self):
        mixed = PatternSet([generate_pattern(8, 0), generate_pattern(9, 0)], seed=0)
        assert validate_pattern_set(mixed) == ["patterns have mixed lengths [8, 9]"]

    def test_validator_accepts_generated(self):
        ps = generate_pattern_set(8, 1024, 1)
        assert validate_pattern_set(ps) == []


class TestCrossTalkIdentity:
    def test_correlation_at_true_lag_is_l_minus_2h(self):
        ps = generate_pattern_set(4, 256, 6)
        length = ps.length
        for i in range(ps.count):
            template_i = 2.0 * ps.patterns[i] - 1.0
            c = np.zeros(1024)
            c[40 : 40 + length] = template_i
            for j in range(ps.count):
                template_j = 2.0 * ps.patterns[j] - 1.0
                out = cross_correlate(c, template_j)
                expected = length - 2 * hamming(ps.patterns[i], ps.patterns[j])
                assert out[40] == pytest.approx(expected, abs=1e-9)
