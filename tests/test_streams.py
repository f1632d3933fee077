"""The PCG64 streams and the transforms from their words to draws."""
from __future__ import annotations

import math

import numpy as np
import pytest

from markprep import (
    FeatureRow,
    ForestParams,
    Stream,
    build_feature_table,
    default_cohort_spec,
    generate_cohort,
    holdout_split,
    normal_deviate,
    train_forest,
)
from markprep import forest, synthgen
from markprep.streams import bounded, shuffled_prefix, uniform

# 2**160 + 3 has six 32-bit words, more than the pool holds
SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**160 + 3)
KEYS = ((), (0,), (3, 405), (0, 405, 3, 9), (2**32, 1), (2**40,))

TOP = 2**64 - 1
HALF = 2**63


def numpy_pcg64(seed: int, key: tuple[int, ...]) -> np.random.PCG64:
    return np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("key", KEYS, ids=str)
def test_words_equal_numpy_pcg64(seed: int, key: tuple[int, ...]) -> None:
    stream = Stream(seed, *key)
    # drawn in uneven chunks: the words are one sequence however they are read
    words = stream.words(1) + stream.words(0) + stream.words(122) + stream.words(177)
    assert words == numpy_pcg64(seed, key).random_raw(300).tolist()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("key", KEYS, ids=str)
def test_uniforms_equal_numpy_random(seed: int, key: tuple[int, ...]) -> None:
    uniforms = [uniform(word) for word in Stream(seed, *key).words(64)]
    assert uniforms == np.random.Generator(numpy_pcg64(seed, key)).random(64).tolist()


def test_stream_is_reproducible() -> None:
    assert Stream(42, 1, 2, 3).words(5) == Stream(42, 1, 2, 3).words(5)


def test_stream_keys_are_independent() -> None:
    base = Stream(42, 0, 0).words(5)
    assert base != Stream(42, 0, 1).words(5)
    assert base != Stream(43, 0, 0).words(5)
    # key structure matters, not just the flattened values
    assert Stream(42, 1).words(5) != Stream(42, 1, 0).words(5)


def test_stream_rejects_negative_seeds_and_keys() -> None:
    with pytest.raises(ValueError):
        Stream(-1)
    with pytest.raises(ValueError):
        Stream(1, 0, -3)


def test_uniform_hand_worked() -> None:
    assert uniform(0) == 0.0
    assert uniform(2**11 - 1) == 0.0  # the low 11 bits are dropped
    assert uniform(2**11) == 2.0**-53
    assert uniform(HALF) == 0.5
    assert uniform(TOP) == 1.0 - 2.0**-53


def test_bounded_hand_worked() -> None:
    assert [bounded(word, 9) for word in (0, HALF, TOP)] == [0, 4, 8]
    assert [bounded(word, 1) for word in (0, HALF, TOP)] == [0, 0, 0]
    # k = 3 steps up at the first words at or past 2**64 / 3 and 2**65 / 3
    first, second = -(-(2**64) // 3), -(-(2**65) // 3)
    assert [bounded(word, 3) for word in (first - 1, first, second - 1, second)] == [0, 1, 1, 2]


def test_normal_deviate_matches_box_muller_formula() -> None:
    assert normal_deviate(0, 0) == 0.0
    assert normal_deviate(HALF, 0) == math.sqrt(2.0 * math.log(2.0))
    assert normal_deviate(HALF, HALF) == -math.sqrt(2.0 * math.log(2.0))
    # the largest u1 gives the largest radius, still finite
    assert normal_deviate(TOP, 0) == math.sqrt(-2.0 * math.log1p(-(1.0 - 2.0**-53)))
    word1, word2 = Stream(11, 4).words(2)
    u1, u2 = uniform(word1), uniform(word2)
    expected = math.sqrt(-2.0 * math.log1p(-u1)) * math.cos(2.0 * math.pi * u2)
    assert normal_deviate(word1, word2) == expected


def test_normal_deviate_moments() -> None:
    words = Stream(3, 1).words(40000)
    draws = np.array([normal_deviate(a, b) for a, b in zip(words[::2], words[1::2])])
    assert draws.mean() == pytest.approx(0.0, abs=0.03)
    assert draws.std() == pytest.approx(1.0, abs=0.03)


def test_shuffled_prefix_hand_worked() -> None:
    # step 0 of 4: HALF picks offset 2 of 4, swapping items 0 and 2 -> 2 1 0 3
    # step 1 of 3: TOP picks offset 2 of 3, swapping items 1 and 3  -> 2 3 0 1
    # step 2 of 2: 0 picks offset 0, no swap; step 3 of 1 always stays put
    assert shuffled_prefix(4, [HALF, TOP, 0, 5]) == [2, 3, 0, 1]
    assert shuffled_prefix(4, [HALF, TOP]) == [2, 3]
    assert shuffled_prefix(4, [HALF]) == [2]
    assert shuffled_prefix(4, [0, 0, 0, 0]) == [0, 1, 2, 3]
    # TOP always swaps with the last item: 3 1 2 0, 3 0 2 1, 3 0 1 2
    assert shuffled_prefix(4, [TOP] * 4) == [3, 0, 1, 2]
    assert shuffled_prefix(4, []) == []
    with pytest.raises(ValueError):
        shuffled_prefix(2, [0, 0, 0])


def test_full_shuffle_is_a_permutation() -> None:
    for n in (1, 2, 7, 50):
        assert sorted(shuffled_prefix(n, Stream(5, n).words(n))) == list(range(n))


def cohort_rows() -> list[FeatureRow]:
    return list(build_feature_table(generate_cohort(default_cohort_spec(2, 60))).rows)


class RecordingStream(Stream):
    """A real stream that logs each call's key and word count."""

    __slots__ = ("key",)
    calls: list[tuple[tuple[int, ...], int]] = []

    def __init__(self, seed: int, *key: int) -> None:
        super().__init__(seed, *key)
        self.key = key

    def words(self, count: int) -> list[int]:
        RecordingStream.calls.append((self.key, count))
        return super().words(count)


@pytest.fixture
def recorded(monkeypatch: pytest.MonkeyPatch) -> list[tuple[tuple[int, ...], int]]:
    RecordingStream.calls = []
    monkeypatch.setattr(synthgen, "Stream", RecordingStream)
    monkeypatch.setattr(forest, "Stream", RecordingStream)
    return RecordingStream.calls


def test_cohort_reads_each_student_in_one_call(recorded) -> None:
    generate_cohort(default_cohort_spec(5, 7))
    assert recorded == [((0, student), 2 + 4 * 30) for student in range(7)]


def test_normal_deviate_consumes_exactly_two_uniforms() -> None:
    """Words 0-1 give the ability, so module position p reads 2+4p..5+4p:
    rebuild one student's first and last modules from their words."""
    spec = default_cohort_spec(9, 3)
    classes = spec.departments[0].cw_weight_classes
    records = generate_cohort(spec)
    words = Stream(9, 0, 2).words(2 + 4 * 30)
    ability = 58.0 + 10.0 * normal_deviate(words[0], words[1])
    student = [record for record in records if record.student_id == "CS00002"]
    for position in (0, 29):
        offset = 2 + 4 * position
        car = classes[bounded(words[offset], len(classes))] / 100.0
        noise = 8.0 * normal_deviate(words[offset + 1], words[offset + 2])
        mark = min(100.0, max(0.0, ability + 12.77 * car - 5.873 * car * car + noise))
        assert student[position].car == car
        assert student[position].module_mark == mark


def test_forest_draws_n_words_per_bootstrap_and_max_features_per_node(recorded) -> None:
    rows = cohort_rows()
    recorded.clear()
    train, _ = holdout_split(rows, 0.3, seed=4)
    assert recorded == [((0,), len(rows))]
    recorded.clear()
    train_forest(train, ForestParams(tree_count=3, max_features=2), seed=4)
    trees = [[count for key, count in recorded if key == (1, t)] for t in range(3)]
    assert len(recorded) == sum(map(len, trees))
    for counts in trees:
        assert counts[0] == len(train)
        assert len(counts) > 1 and set(counts[1:]) == {2}
    recorded.clear()
    train_forest(train, ForestParams(tree_count=1, max_features=3, bootstrap=False), seed=4)
    assert {count for _, count in recorded} == {3}


def test_cohort_prefix_is_stable() -> None:
    small = generate_cohort(default_cohort_spec(13, 60))
    large = generate_cohort(default_cohort_spec(13, 120))
    assert small == large[: len(small)]


def test_forest_prefix_is_stable() -> None:
    rows = cohort_rows()
    ten = train_forest(rows, ForestParams(tree_count=10), seed=6)
    twenty = train_forest(rows, ForestParams(tree_count=20), seed=6)
    assert ten.trees == twenty.trees[:10]
