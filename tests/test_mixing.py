import itertools

import numpy as np
import pytest

from nst.corpus import Dataset, Utterance
from nst.mixing import (
    IndivisibleRatioError,
    MixPlan,
    MixingError,
    SEMI,
    SUPERVISED,
    materialize,
    mix_batchwise,
    mix_uniform,
)
from nst.seeding import derive_rng


def dataset(prefix, count, multiplicities=None):
    return Dataset(
        Utterance(
            id=f"{prefix}{i:03d}",
            features=np.zeros((1, 2)),
            transcript=("w",),
            multiplicity=1 if multiplicities is None else multiplicities[i],
        )
        for i in range(count)
    )


class TestMixPlan:
    def test_divisibility_enforced(self):
        with pytest.raises(IndivisibleRatioError):
            MixPlan(mode="batchwise", ratio=(2, 8), batch_size=512)
        plan = MixPlan(mode="batchwise", ratio=(2, 8), batch_size=10)
        assert plan.batch_composition() == (2, 8)

    def test_dict_roundtrip(self):
        plan = MixPlan(mode="batchwise", ratio=(3, 7), batch_size=20)
        assert MixPlan.from_dict(plan.to_dict()) == plan
        uniform = MixPlan(mode="uniform")
        assert MixPlan.from_dict(uniform.to_dict()).mode == "uniform"

    def test_unknown_keys_rejected(self):
        # A misspelled or retired key must not silently run at the defaults.
        record = {"mode": "batchwise", "ratios": [1, 3], "batch_size": 4}
        with pytest.raises(MixingError, match="ratios"):
            MixPlan.from_dict(record)

    @pytest.mark.parametrize("ratio", [(1, 2, 3), (1,), (), (1.5, 2.7), (True, 1)])
    def test_ratio_must_be_two_integers(self, ratio):
        # A third term was dropped, so 1:2:3 silently ran 1:2, and 1.5 ran as 1.
        with pytest.raises(MixingError, match="ratio must be two integers"):
            MixPlan(mode="batchwise", ratio=ratio, batch_size=6)
        with pytest.raises(MixingError, match="ratio must be two integers"):
            MixPlan.from_dict({"ratio": list(ratio)})

    def test_positive_ratio_required(self):
        with pytest.raises(MixingError):
            MixPlan(mode="batchwise", ratio=(0, 2), batch_size=2)


class TestMaterialize:
    def test_multiplicity_contributes_copies(self):
        data = dataset("u", 3, multiplicities=[1, 3, 2])
        pool = materialize(data, SEMI)
        ids = [u.id for u, _ in pool]
        assert ids == ["u000", "u001", "u001", "u001", "u002", "u002"]
        assert all(origin == SEMI for _, origin in pool)


class TestMixBatchwise:
    def test_exact_composition_every_batch(self):
        sup = dataset("s", 7)
        semi = dataset("p", 13)
        plan = MixPlan(mode="batchwise", ratio=(2, 8), batch_size=10)
        stream = mix_batchwise(sup, semi, plan, derive_rng(0, "mix"))
        for batch in itertools.islice(stream, 200):
            origins = [origin for _, origin in batch]
            assert len(batch) == 10
            assert origins.count(SUPERVISED) == 2
            assert origins.count(SEMI) == 8

    def test_singleton_sets(self):
        sup = dataset("s", 1)
        semi = dataset("p", 1)
        plan = MixPlan(mode="batchwise", ratio=(1, 1), batch_size=2)
        stream = mix_batchwise(sup, semi, plan, derive_rng(1, "mix"))
        for batch in itertools.islice(stream, 20):
            assert [(u.id, o) for u, o in batch] == [("s000", SUPERVISED), ("p000", SEMI)]

    def test_supervised_draws_near_uniform(self):
        sup = dataset("s", 20)
        semi = dataset("p", 30)
        plan = MixPlan(mode="batchwise", ratio=(4, 6), batch_size=10)
        stream = mix_batchwise(sup, semi, plan, derive_rng(2, "mix"))
        counts = {u.id: 0 for u in sup}
        n_batches = 1000
        for batch in itertools.islice(stream, n_batches):
            for utt, origin in batch:
                if origin == SUPERVISED:
                    counts[utt.id] += 1
        draws = 4 * n_batches
        expected = draws / len(sup)
        stderr = np.sqrt(draws * (1 / len(sup)) * (1 - 1 / len(sup)))
        for count in counts.values():
            assert abs(count - expected) <= 3 * stderr

    def test_deterministic_per_seed(self):
        sup = dataset("s", 5)
        semi = dataset("p", 9)
        plan = MixPlan(mode="batchwise", ratio=(1, 1), batch_size=4)

        def take(seed, n=50):
            stream = mix_batchwise(sup, semi, plan, derive_rng(seed, "mix"))
            return [[(u.id, o) for u, o in b] for b in itertools.islice(stream, n)]

        assert take(7) == take(7)
        assert take(7) != take(8)

    def test_requires_nonempty_sides(self):
        plan = MixPlan(mode="batchwise", ratio=(1, 1), batch_size=2)
        with pytest.raises(MixingError):
            next(mix_batchwise(dataset("s", 1), Dataset([]), plan, derive_rng(0)))


class TestMixUniform:
    def test_empty_semi_streams_supervised_only(self):
        sup = dataset("s", 4)
        stream = mix_uniform(sup, Dataset([]), derive_rng(3, "mix"))
        drawn = [next(stream) for _ in range(100)]
        assert all(origin == SUPERVISED for _, origin in drawn)
        assert {u.id for u, _ in drawn} <= set(sup.ids())

    def test_equal_pools_give_half_supervised(self):
        sup = dataset("s", 5)
        semi = dataset("p", 5)
        stream = mix_uniform(sup, semi, derive_rng(4, "mix"))
        n = 10000
        sup_draws = sum(
            1 for _, origin in itertools.islice(stream, n) if origin == SUPERVISED
        )
        stderr = np.sqrt(0.25 / n)
        assert abs(sup_draws / n - 0.5) <= 3 * stderr

    def test_multiplicity_weights_draws(self):
        semi = dataset("p", 2, multiplicities=[2, 1])
        stream = mix_uniform(Dataset([]), semi, derive_rng(5, "mix"))
        n = 10000
        counts = {"p000": 0, "p001": 0}
        for utt, _ in itertools.islice(stream, n):
            counts[utt.id] += 1
        p = 2 / 3
        stderr = np.sqrt(p * (1 - p) / n)
        assert abs(counts["p000"] / n - p) <= 3 * stderr

    def test_empty_pool_rejected(self):
        with pytest.raises(MixingError):
            next(mix_uniform(Dataset([]), Dataset([]), derive_rng(0)))
