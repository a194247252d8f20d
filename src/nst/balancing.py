"""Greedy token-distribution balancing of pseudo-labeled sentence pools.

Sentences are sampled with replacement (multiplicity capped) so that the
token unigram distribution of the sampled set approaches a target
distribution, by greedily minimizing the KL divergence between the two. Each
round scores every eligible sentence by its cost-benefit, the KL decrease
from adding it divided by its token count, commits the top-B sentences
against the counts frozen at the start of the round, and repeats.

The loop stops once the sampled token total has reached a floor and the last
batch no longer decreased the KL, or when no sentence is eligible; in the
latter case a shortfall against the floor is reported as infeasible rather
than raised.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import TokenDistribution, WeightedSample, token_counts
from .errors import NstError


class BalancingError(NstError):
    pass


class VocabMismatchError(BalancingError):
    pass


class EmptyPoolError(BalancingError):
    pass


@dataclass(frozen=True)
class SamplerConfig:
    """Greedy sampler knobs.

    The batch size is derived from the pool: B = ceil(batch_fraction * pool
    size). ``min_token_total`` is the floor on sampled tokens, normally the
    supervised set's token count.
    """

    multiplicity_cap: int = 2
    batch_fraction: float = 0.1
    min_token_total: int = 0
    smoothing_epsilon: float = 1e-6

    def __post_init__(self):
        if self.multiplicity_cap < 1:
            raise BalancingError("multiplicity_cap must be >= 1")
        if not 0 < self.batch_fraction <= 1:
            raise BalancingError("batch_fraction must be in (0, 1]")
        if self.min_token_total < 0:
            raise BalancingError("min_token_total must be >= 0")
        if not (math.isfinite(self.smoothing_epsilon) and self.smoothing_epsilon > 0):
            raise BalancingError(
                f"smoothing_epsilon must be finite and > 0, got {self.smoothing_epsilon!r}"
            )

    def batch_size(self, pool_size: int) -> int:
        return int(math.ceil(self.batch_fraction * pool_size))


def _smooth(vec: np.ndarray, epsilon: float) -> np.ndarray:
    """Add epsilon to every entry and renormalize. Maps all-zero to uniform."""
    smoothed = vec + epsilon
    return smoothed / smoothed.sum()


def kl_divergence(
    p: TokenDistribution, q: TokenDistribution, epsilon: float = 1e-6
) -> float:
    """KL(p || q) after epsilon-smoothing both distributions.

    Smoothing keeps the divergence finite when p puts mass where q has none;
    identical inputs give exactly 0.
    """
    if p.vocab_size != q.vocab_size:
        raise VocabMismatchError(
            f"vocab sizes differ: {p.vocab_size} != {q.vocab_size}"
        )
    ps = _smooth(p.probs, epsilon)
    qs = _smooth(q.probs, epsilon)
    return float(np.sum(ps * (np.log(ps) - np.log(qs))))


def _row_kls(rows: np.ndarray, log_q: np.ndarray, epsilon: float) -> np.ndarray:
    """Smoothed KL of each count row against ``log_q``; an all-zero row reads as uniform."""
    totals = rows.sum(axis=1, keepdims=True)
    smoothed = rows / np.where(totals > 0, totals, 1.0) + epsilon
    smoothed /= smoothed.sum(axis=1, keepdims=True)
    return np.sum(smoothed * (np.log(smoothed) - log_q), axis=1)


@dataclass(frozen=True)
class BalanceResult:
    """Selected samples in pool order plus an infeasible-floor flag."""

    samples: tuple[WeightedSample, ...]
    infeasible: bool

    def total_tokens(self) -> int:
        return sum(len(s.transcript) * s.multiplicity for s in self.samples)


def submodular_sample(
    pool: Sequence[WeightedSample],
    target: TokenDistribution,
    config: SamplerConfig,
) -> BalanceResult:
    """Greedy batched sampling of ``pool`` toward ``target``.

    Deterministic: cost-benefit ties break by pool order, and there is no
    randomness anywhere. Zero-length sentences are never eligible. Every
    output multiplicity is at most ``config.multiplicity_cap``.
    """
    if len(pool) == 0:
        raise EmptyPoolError("candidate pool is empty")
    vocab_size = target.vocab_size
    epsilon = config.smoothing_epsilon
    n = len(pool)
    counts_matrix = token_counts([s.transcript for s in pool], vocab_size)
    lengths = counts_matrix.sum(axis=1)
    batch = config.batch_size(n)
    log_q = np.log(_smooth(target.probs, epsilon))

    selections = np.zeros(n, dtype=np.int64)
    counts = np.zeros(vocab_size, dtype=np.float64)
    total_tokens = 0
    kl_current = _row_kls(counts[None, :], log_q, epsilon)[0]

    while True:
        eligible = np.flatnonzero(
            (selections < config.multiplicity_cap) & (lengths >= 1)
        )
        if eligible.size == 0:
            break
        kls = _row_kls(counts + counts_matrix[eligible], log_q, epsilon)
        scores = (kl_current - kls) / lengths[eligible]
        # Stable sort on the negated score keeps pool order among ties.
        order = np.argsort(-scores, kind="stable")
        chosen = eligible[order[:batch]]
        selections[chosen] += 1
        counts += counts_matrix[chosen].sum(axis=0)
        total_tokens += int(lengths[chosen].sum())
        kl_next = _row_kls(counts[None, :], log_q, epsilon)[0]
        if total_tokens >= config.min_token_total and kl_next >= kl_current:
            break
        kl_current = kl_next

    samples = tuple(
        WeightedSample(pool[i].utterance_id, pool[i].transcript, int(selections[i]))
        for i in range(n)
        if selections[i] > 0
    )
    return BalanceResult(samples=samples, infeasible=total_tokens < config.min_token_total)
