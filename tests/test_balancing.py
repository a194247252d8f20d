import math

import numpy as np
import pytest

from nst.balancing import (
    BalancingError,
    EmptyPoolError,
    SamplerConfig,
    VocabMismatchError,
    kl_divergence,
    submodular_sample,
)
from nst.corpus import (
    CorpusError,
    TokenDistribution,
    Transcript,
    WeightedSample,
    token_distribution,
)

from oracles import reference_balance, reference_gain


def dist(*probs):
    return TokenDistribution(np.array(probs, dtype=np.float64))


def pool_of(sentences):
    return [
        WeightedSample(f"s{i:03d}", Transcript(tuple(tokens)), 1)
        for i, tokens in enumerate(sentences)
    ]


class TestKlDivergence:
    def test_identical_distributions(self):
        p = dist(0.5, 0.5)
        assert kl_divergence(p, dist(0.5, 0.5)) == 0.0

    def test_point_mass_against_uniform(self):
        # KL({a:1} || uniform over 2) tends to ln 2 as smoothing vanishes.
        value = kl_divergence(dist(1.0, 0.0), dist(0.5, 0.5), epsilon=1e-9)
        assert value == pytest.approx(math.log(2), abs=1e-6)

    def test_closed_form_hand_value(self):
        # 0.75 ln 1.5 + 0.25 ln 0.5 = 0.130812...
        value = kl_divergence(dist(0.75, 0.25), dist(0.5, 0.5), epsilon=1e-6)
        expected = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)
        assert value == pytest.approx(expected, abs=1e-4)

    def test_vocab_mismatch(self):
        with pytest.raises(VocabMismatchError):
            kl_divergence(dist(1.0), dist(0.5, 0.5))

    def test_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            p = rng.dirichlet(np.ones(4))
            q = rng.dirichlet(np.ones(4))
            assert kl_divergence(dist(*p), dist(*q)) >= 0.0


class TestReferenceGain:
    # The per-token gain the sampler tests compare against, checked on hand values.
    uniform = [0.5, 0.5]

    def test_no_distributional_change(self):
        gain = reference_gain([1.0, 1.0], [0, 1], self.uniform, 1e-6)
        assert gain == pytest.approx(0.0, abs=1e-12)

    def test_minority_token_wins(self):
        counts = [2.0, 0.0]
        assert reference_gain(counts, [1], self.uniform, 1e-6) > reference_gain(
            counts, [0], self.uniform, 1e-6)

    def test_balanced_sentence_wins_from_empty(self):
        gains = {name: reference_gain([0.0, 0.0], sentence, self.uniform, 1e-6)
                 for name, sentence in (("aa", [0, 0]), ("ab", [0, 1]), ("bb", [1, 1]))}
        assert gains["ab"] > gains["aa"]
        assert gains["ab"] > gains["bb"]
        # From the uniform starting point "ab" changes nothing and the pure
        # sentences pay ln 2 over 2 tokens.
        assert gains["ab"] == pytest.approx(0.0, abs=1e-5)
        assert gains["aa"] == pytest.approx(-math.log(2) / 2, abs=1e-4)


class TestSamplerConfig:
    def test_batch_size_is_ceil_of_fraction(self):
        config = SamplerConfig(batch_fraction=0.1)
        assert config.batch_size(10) == 1
        assert config.batch_size(11) == 2
        assert config.batch_size(100) == 10

    def test_validation(self):
        with pytest.raises(BalancingError):
            SamplerConfig(multiplicity_cap=0)
        with pytest.raises(BalancingError):
            SamplerConfig(batch_fraction=0.0)
        with pytest.raises(BalancingError):
            SamplerConfig(smoothing_epsilon=0.0)
        # An infinite epsilon smoothed every distribution to NaN.
        for epsilon in (float("inf"), float("nan")):
            with pytest.raises(BalancingError, match="smoothing_epsilon must be finite"):
                SamplerConfig(smoothing_epsilon=epsilon)


class TestSubmodularSample:
    def test_fixed_point_terminates_after_one_batch(self):
        # Every sentence already matches the uniform target, so the first
        # batch leaves KL at 0 and the loop stops.
        pool = pool_of([(0, 1)] * 20)
        config = SamplerConfig(min_token_total=0)
        result = submodular_sample(pool, dist(0.5, 0.5), config)
        assert not result.infeasible
        assert sum(s.multiplicity for s in result.samples) == config.batch_size(20)
        assert result.total_tokens() == 2 * config.batch_size(20)

    def test_cap_exhaustion_sets_infeasible_flag(self):
        pool = pool_of([(0, 0)])
        config = SamplerConfig(min_token_total=10)
        result = submodular_sample(pool, dist(0.5, 0.5), config)
        assert result.infeasible
        assert len(result.samples) == 1
        assert result.samples[0].multiplicity == 2
        assert result.total_tokens() == 4

    def test_matches_reference_on_skewed_pool(self):
        rng = np.random.default_rng(41)
        sentences = []
        for i in range(20):
            token = 0 if i % 10 < 9 else 1
            sentences.append([token] * int(rng.integers(2, 6)))
        pool = pool_of(sentences)
        config = SamplerConfig(
            multiplicity_cap=2, batch_fraction=0.1, min_token_total=30
        )
        result = submodular_sample(pool, dist(0.5, 0.5), config)
        expected_selections, expected_flag = reference_balance(
            [(s.utterance_id, list(s.transcript)) for s in pool],
            [0.5, 0.5],
            cap=2,
            batch_fraction=0.1,
            min_tokens=30,
            epsilon=config.smoothing_epsilon,
        )
        got = {s.utterance_id: s.multiplicity for s in result.samples}
        expected = {
            pool[i].utterance_id: count
            for i, count in enumerate(expected_selections)
            if count > 0
        }
        assert got == expected
        assert result.infeasible == expected_flag

    def test_first_batch_is_the_top_by_reference_gain(self):
        # The sentences are heavy in the target's rarest token, so no batch
        # brings the sampled distribution closer to the target than the empty
        # start. Once the first batch meets the floor the loop stops after one
        # round, and the samples are exactly that batch.
        rng = np.random.default_rng(9)
        sentences = [
            [int(t) for t in rng.choice(3, rng.integers(1, 5), p=[0.1, 0.2, 0.7])]
            for _ in range(12)
        ]
        pool = pool_of(sentences)
        target = dist(0.6, 0.3, 0.1)
        epsilon = SamplerConfig().smoothing_epsilon
        gains = [
            reference_gain([0.0] * 3, list(s.transcript), [0.6, 0.3, 0.1], epsilon)
            for s in pool
        ]
        batch = SamplerConfig(batch_fraction=0.25).batch_size(len(pool))
        expected_first = sorted(range(len(pool)), key=lambda i: (-gains[i], i))[:batch]
        floor = sum(len(sentences[i]) for i in expected_first)
        config = SamplerConfig(batch_fraction=0.25, min_token_total=floor)
        result = submodular_sample(pool, target, config)
        assert not result.infeasible
        assert [(s.utterance_id, s.multiplicity) for s in result.samples] == [
            (pool[i].utterance_id, 1) for i in sorted(expected_first)
        ]

    def test_multiplicities_respect_cap(self):
        rng = np.random.default_rng(23)
        sentences = [
            [int(t) for t in rng.integers(0, 4, rng.integers(1, 7))] for _ in range(50)
        ]
        target = dist(0.25, 0.25, 0.25, 0.25)
        config = SamplerConfig(min_token_total=120)
        result = submodular_sample(pool_of(sentences), target, config)
        assert all(1 <= s.multiplicity <= 2 for s in result.samples)
        if not result.infeasible:
            assert result.total_tokens() >= 120

    def test_deterministic(self):
        rng = np.random.default_rng(31)
        sentences = [
            [int(t) for t in rng.integers(0, 3, rng.integers(1, 6))] for _ in range(40)
        ]
        target = dist(0.5, 0.25, 0.25)
        config = SamplerConfig(min_token_total=60)
        first = submodular_sample(pool_of(sentences), target, config)
        second = submodular_sample(pool_of(sentences), target, config)
        assert first == second

    def test_zero_length_sentences_never_selected(self):
        pool = pool_of([(), (0, 1), ()])
        result = submodular_sample(pool, dist(0.5, 0.5), SamplerConfig())
        assert {s.utterance_id for s in result.samples} == {"s001"}

    def test_id_outside_vocab_named(self):
        # The same refusal as token_distribution's, from the one token counter.
        pool = pool_of([(0, 1), (1, 5, 0)])
        with pytest.raises(CorpusError, match="token id 5 outside vocab of size 2"):
            submodular_sample(pool, dist(0.5, 0.5), SamplerConfig())

    def test_empty_pool_rejected(self):
        with pytest.raises(EmptyPoolError):
            submodular_sample([], dist(0.5, 0.5), SamplerConfig())

    def test_balances_skewed_pool(self):
        # Majority-token pools with enough minority sentences end up with a
        # sampled distribution no farther from the target than the pool is.
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            sentences = []
            for _ in range(80):
                token = 0 if rng.random() < 0.8 else int(rng.integers(1, 3))
                sentences.append([token] * int(rng.integers(2, 6)))
            pool = pool_of(sentences)
            target = dist(1 / 3, 1 / 3, 1 / 3)
            pool_tokens = sum(len(s.transcript) for s in pool)
            pool_dist = token_distribution([s.transcript for s in pool], 3)
            config = SamplerConfig(min_token_total=int(0.5 * pool_tokens))
            result = submodular_sample(pool, target, config)
            sampled = token_distribution(
                [s.transcript for s in result.samples],
                3,
                weights=[s.multiplicity for s in result.samples],
            )
            assert kl_divergence(sampled, target) <= kl_divergence(pool_dist, target) + 1e-9
