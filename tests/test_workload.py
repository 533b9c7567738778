"""Workload sampling: determinism, distribution shape, batching, files."""

import math
from collections import Counter

import pytest

from ppcstore.errors import WorkloadSpecError
from ppcstore.workload import (
    Distribution,
    SplitMix64,
    WorkloadSpec,
    make_batches,
    sample,
    sample_power_law,
    sample_uniform_distinct,
    save_workload,
)


def universe(n: int) -> list[bytes]:
    return [b"key-%06d" % i for i in range(n)]


def spec(dist: Distribution, queries: int, n: int, seed: int = 1, batch: int = 1) -> WorkloadSpec:
    return WorkloadSpec(
        distribution=dist,
        num_queries=queries,
        seed=seed,
        batch_size=batch,
        universe=universe(n),
    )


class TestSplitMix64:
    def test_known_first_outputs_for_seed_zero(self):
        # reference values of the splitmix64 sequence from seed 0
        rng = SplitMix64(0)
        assert rng.next_u64() == 0xE220A8397B1DCDAF
        assert rng.next_u64() == 0x6E789E6AA1B965F4
        assert rng.next_u64() == 0x06C45D188009454F

    def test_bounded_draws_stay_in_range(self):
        rng = SplitMix64(42)
        assert all(0 <= rng.next_below(10) < 10 for _ in range(1000))

    def test_floats_in_unit_interval(self):
        rng = SplitMix64(7)
        assert all(0.0 <= rng.next_float() < 1.0 for _ in range(1000))


class TestUniformDistinct:
    def test_exhaustive_draw_is_permutation(self):
        s = spec(Distribution.UNIFORM_DISTINCT, 50, 50)
        keys = sample_uniform_distinct(s)
        assert sorted(keys) == universe(50)

    def test_same_seed_same_sequence(self):
        a = sample_uniform_distinct(spec(Distribution.UNIFORM_DISTINCT, 100, 1000, seed=9))
        b = sample_uniform_distinct(spec(Distribution.UNIFORM_DISTINCT, 100, 1000, seed=9))
        assert a == b

    def test_different_seed_different_sequence(self):
        a = sample_uniform_distinct(spec(Distribution.UNIFORM_DISTINCT, 100, 1000, seed=1))
        b = sample_uniform_distinct(spec(Distribution.UNIFORM_DISTINCT, 100, 1000, seed=2))
        assert a != b

    def test_draws_are_distinct(self):
        keys = sample_uniform_distinct(spec(Distribution.UNIFORM_DISTINCT, 500, 1000))
        assert len(set(keys)) == 500

    def test_oversampling_rejected(self):
        with pytest.raises(WorkloadSpecError):
            spec(Distribution.UNIFORM_DISTINCT, 11, 10)

    def test_single_draw_frequencies_within_3_sigma(self):
        """Binomial oracle: 10k single draws from 10 keys, p = 0.1 each."""
        counts = Counter()
        for trial in range(10_000):
            s = spec(Distribution.UNIFORM_DISTINCT, 1, 10, seed=trial)
            counts[sample_uniform_distinct(s)[0]] += 1
        sigma = math.sqrt(0.1 * 0.9 / 10_000)
        for k in universe(10):
            assert abs(counts[k] / 10_000 - 0.1) <= 3 * sigma


class TestPowerLaw:
    def test_two_key_universe_matches_closed_form(self):
        # oracle: normalizer 1 + 2^(-1.5) = 1 + 1/(2*sqrt(2))
        p_rank1 = 1.0 / (1.0 + 1.0 / (2.0 * math.sqrt(2.0)))
        assert p_rank1 == pytest.approx(0.7388, abs=2e-4)
        s = spec(Distribution.POWER_LAW, 200_000, 2, seed=5)
        keys = sample_power_law(s)
        top = Counter(keys).most_common(1)[0][1] / len(keys)
        assert top == pytest.approx(p_rank1, abs=0.005)

    def test_single_key_universe(self):
        s = spec(Distribution.POWER_LAW, 50, 1)
        assert sample_power_law(s) == universe(1) * 50

    def test_rank1_frequency_n100_within_001(self):
        """Direct-sum oracle for the normalizer, 100k draws."""
        n, draws = 100, 100_000
        normalizer = sum(i ** -1.5 for i in range(1, n + 1))
        expected = 1.0 / normalizer
        s = spec(Distribution.POWER_LAW, draws, n, seed=7)
        keys = sample_power_law(s)
        top_count = Counter(keys).most_common(1)[0][1]
        assert abs(top_count / draws - expected) <= 0.01

    def test_repeats_occur_beyond_n_to_two_thirds(self):
        n = 100
        s = spec(Distribution.POWER_LAW, 400, n, seed=3)  # 400 > 100^(2/3)
        keys = sample_power_law(s)
        assert len(set(keys)) < len(keys)

    def test_deterministic_given_seed(self):
        a = sample_power_law(spec(Distribution.POWER_LAW, 1000, 50, seed=11))
        b = sample_power_law(spec(Distribution.POWER_LAW, 1000, 50, seed=11))
        assert a == b

    def test_hot_ranks_scattered_by_seeded_permutation(self):
        # the most frequent key differs across seeds: rank 1 is not pinned
        # to a fixed universe position
        tops = set()
        for seed in range(6):
            keys = sample_power_law(spec(Distribution.POWER_LAW, 2000, 50, seed=seed))
            tops.add(Counter(keys).most_common(1)[0][0])
        assert len(tops) > 1

    def test_empty_universe_rejected(self):
        with pytest.raises(WorkloadSpecError):
            WorkloadSpec(
                distribution=Distribution.POWER_LAW,
                num_queries=10,
                seed=1,
                universe=[],
            )


class TestBatches:
    def test_chunks_of_100(self):
        keys = universe(250)
        batches = make_batches(keys, 100)
        assert [len(b) for b in batches] == [100, 100, 50]

    def test_batch_of_one(self):
        batches = make_batches(universe(5), 1)
        assert [len(b) for b in batches] == [1] * 5

    def test_concatenation_recovers_input(self):
        keys = universe(173)
        batches = make_batches(keys, 10)
        assert [k for batch in batches for k in batch] == keys


class TestWorkloadFiles:
    def test_save_load_roundtrip(self, tmp_path):
        s = spec(Distribution.POWER_LAW, 500, 40, seed=13, batch=100)
        keys = sample(s)
        path = tmp_path / "workload.txt"
        save_workload(path, s, keys)
        header_line, *key_lines = path.read_text(encoding="ascii").splitlines()
        assert header_line.startswith("# ppc-workload v1 ")
        header = dict(part.split("=", 1) for part in header_line.split() if "=" in part)
        assert header == {
            "prng": "splitmix64",
            "dist": "powerlaw",
            "alpha": "-1.5",
            "queries": "500",
            "batch": "100",
            "seed": "13",
        }
        assert [bytes.fromhex(line) for line in key_lines] == keys

    def test_same_seed_byte_identical_files(self, tmp_path):
        for name in ("a.txt", "b.txt"):
            s = spec(Distribution.UNIFORM_DISTINCT, 200, 500, seed=4)
            save_workload(tmp_path / name, s, sample(s))
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()


class TestSpecValidation:
    def test_zero_queries_rejected(self):
        with pytest.raises(WorkloadSpecError):
            spec(Distribution.UNIFORM_DISTINCT, 0, 10)

    def test_zero_batch_rejected(self):
        with pytest.raises(WorkloadSpecError):
            spec(Distribution.UNIFORM_DISTINCT, 5, 10, batch=0)

    def test_positive_alpha_rejected(self):
        with pytest.raises(WorkloadSpecError):
            WorkloadSpec(
                distribution=Distribution.POWER_LAW,
                num_queries=5,
                seed=1,
                alpha=1.5,
                universe=universe(3),
            )
