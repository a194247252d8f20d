import numpy as np
import pytest

from nst.corpus import Dataset, TokenVocab, Utterance

from oracles import reference_best


def assert_datasets_equal(a: Dataset, b: Dataset) -> None:
    assert len(a) == len(b)
    for ua, ub in zip(a, b):
        assert ua.id == ub.id
        assert np.array_equal(ua.features, ub.features)
        assert ua.transcript == ub.transcript
        assert ua.score == ub.score
        assert ua.multiplicity == ub.multiplicity


def reference_best_of(hyps, params) -> tuple[int, float]:
    """``reference_best`` of ``ScoredHypothesis`` objects under ``FusionParams``."""
    rows = [(h.transcript.tokens, h.am_score, h.lm_score, h.coverage) for h in hyps]
    return reference_best(
        rows, params.lm_weight, params.coverage_weight, params.nonblank_reward, params.mode
    )


@pytest.fixture
def ab_vocab() -> TokenVocab:
    return TokenVocab(["a", "b"])


@pytest.fixture
def small_dataset() -> Dataset:
    rng = np.random.default_rng(7)
    utterances = [
        Utterance(
            id=f"u-{i}",
            features=rng.standard_normal((4 + i, 3)),
            transcript=("a", "b") if i % 2 == 0 else ("b",),
            score=float(-i),
        )
        for i in range(4)
    ]
    return Dataset(utterances)
