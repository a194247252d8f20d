"""Length-normalized pseudo-label filtering.

A fused decode score grows roughly linearly in transcript length with
fluctuations on the order of the square root of the length. The filter model
standardizes it: fit (mu, beta) by least squares of score on length over dev
transcripts, take sigma as the standard deviation of the per-sqrt-length
residuals, and rank every generated transcript by

    (score - mu * length - beta) / (sigma * sqrt(length)).

Relaxing the cutoff on this statistic over training generations grows the
kept set while holding its quality roughly constant. The filter and its curves
share one keep rule: strictly above the cutoff, and -inf keeps everything.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .corpus import Dataset, MissingTranscriptError, string_tokens
from .errors import NstError, read_record
from .scoring import EmptyReferenceError, corpus_wer

SIGMA_FLOOR = 1e-12

NEG_INF = float("-inf")

_MODEL_SPEC = {"mu": float, "beta": float, "sigma": float}


class FilteringError(NstError):
    pass


class TooFewPointsError(FilteringError):
    pass


class DegenerateDesignError(FilteringError):
    pass


class MissingScoreError(FilteringError):
    def __init__(self, utterance_id: str):
        super().__init__(f"utterance {utterance_id!r} carries no score")
        self.utterance_id = utterance_id


@dataclass(frozen=True)
class FilterModel:
    """Fitted normalization (mu: score per token, beta: offset, sigma: scale)."""

    mu: float
    beta: float
    sigma: float

    def __post_init__(self):
        for name in ("mu", "beta", "sigma"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise FilteringError(f"{name} must be finite")
            object.__setattr__(self, name, value)
        if self.sigma <= 0:
            raise FilteringError("sigma must be positive")

    def to_dict(self) -> dict:
        return {"mu": self.mu, "beta": self.beta, "sigma": self.sigma}

    @classmethod
    def from_dict(cls, record: Mapping) -> "FilterModel":
        """The model a ``to_dict`` record describes; all three numbers are required."""
        return cls(**read_record(record, _MODEL_SPEC, FilteringError, "filter model",
                                 required=_MODEL_SPEC))


def fit_filter(pairs: Sequence[tuple[int, float]]) -> FilterModel:
    """Fit the filter model on (length, fused score) pairs.

    mu and beta are the ordinary least squares fit of score on length; sigma
    is the population standard deviation of the residuals divided by
    sqrt(length), floored at SIGMA_FLOOR so noiseless data stays usable.
    """
    if len(pairs) < 3:
        raise TooFewPointsError(f"need >= 3 pairs, got {len(pairs)}")
    lengths = np.array([p[0] for p in pairs], dtype=np.float64)
    scores = np.array([p[1] for p in pairs], dtype=np.float64)
    if np.any(lengths < 1) or np.any(lengths != np.round(lengths)):
        raise FilteringError("lengths must be integers >= 1")
    if not np.all(np.isfinite(scores)):
        raise FilteringError("scores must be finite")
    if np.unique(lengths).size < 2:
        raise DegenerateDesignError("all lengths equal; slope is unidentifiable")
    l_mean = lengths.mean()
    s_mean = scores.mean()
    sxx = float(np.sum((lengths - l_mean) ** 2))
    sxy = float(np.sum((lengths - l_mean) * (scores - s_mean)))
    mu = sxy / sxx
    beta = s_mean - mu * l_mean
    normalized = (scores - mu * lengths - beta) / np.sqrt(lengths)
    sigma = max(float(np.std(normalized)), SIGMA_FLOOR)
    return FilterModel(mu=mu, beta=beta, sigma=sigma)


def filter_score(model: FilterModel, fused: float, length: int) -> float:
    """Normalized filtering score; a blank transcript scores -inf."""
    if length < 0:
        raise FilteringError("length must be >= 0")
    if length == 0:
        return NEG_INF
    return (fused - model.mu * length - model.beta) / (model.sigma * math.sqrt(length))


def _keeps(score: float, cutoff: float) -> bool:
    """The keep rule: strictly above ``cutoff``; a cutoff of -inf keeps everything."""
    return cutoff == NEG_INF or score > cutoff


def apply_filter(dataset: Dataset, model: FilterModel, cutoff: float) -> Dataset:
    """The utterances, in order, whose filter score the keep rule keeps at ``cutoff``."""
    kept = []
    for u in dataset:
        if u.transcript is None:
            raise MissingTranscriptError(u.id)
        if u.score is None:
            raise MissingScoreError(u.id)
        if _keeps(filter_score(model, u.score, len(u.transcript)), cutoff):
            kept.append(u)
    # Dropping nothing returns the input rather than rechecking every id in a copy.
    return dataset if len(kept) == len(dataset) else Dataset(kept)


@dataclass(frozen=True)
class ScoredTranscript:
    """A generated transcript with its fused score, keyed by utterance id."""

    tokens: tuple[str, ...]
    fused: float

    def __post_init__(self):
        tokens = string_tokens(self.tokens, FilteringError, "scored transcript")
        object.__setattr__(self, "tokens", tokens)
        fused = float(self.fused)
        if not math.isfinite(fused):
            raise FilteringError("fused score must be finite")
        object.__setattr__(self, "fused", fused)


@dataclass(frozen=True)
class CurvePoint:
    threshold: float
    utterance_fraction: float
    token_fraction: float
    wer: float | None


def default_thresholds(low: float = -3.0, high: float = 3.0, step: float = 0.1) -> tuple[float, ...]:
    if not (math.isfinite(step) and step > 0):
        raise FilteringError(f"threshold step must be finite and positive, got {step!r}")
    if not (math.isfinite(low) and math.isfinite(high) and low <= high):
        raise FilteringError(f"thresholds need finite low <= high, got low {low!r}, high {high!r}")
    count = int(round((high - low) / step)) + 1
    return tuple(float(x) for x in np.linspace(low, high, count))


def score_curves(
    dev: Dataset,
    hyps: Mapping[str, ScoredTranscript],
    model: FilterModel,
    thresholds: Sequence[float] | None = None,
) -> list[CurvePoint]:
    """Survival curves of the filter score over a scored dev set.

    For each threshold: the fraction of utterances the keep rule keeps, the
    fraction of generated tokens they hold, and the aggregate WER of their
    transcripts (None when nothing is kept).

    The rule is monotone in the score, so each threshold keeps a prefix of the
    dev set sorted by descending score. Each pair of the longest kept prefix is
    aligned once, and every row reads off running integer sums: summed edits
    over summed reference length, exactly what ``corpus_wer`` gives the kept set.
    """
    if thresholds is None:
        thresholds = default_thresholds()
    entries = []
    for u in dev:
        if u.transcript is None:
            raise MissingTranscriptError(u.id)
        try:
            hyp = hyps[u.id]
        except KeyError:
            raise FilteringError(f"no scored transcript for utterance {u.id!r}") from None
        score = filter_score(model, hyp.fused, len(hyp.tokens))
        entries.append((score, u.transcript, hyp.tokens))
    if not entries:
        raise FilteringError("dev set is empty")
    entries.sort(key=lambda e: e[0], reverse=True)
    total_utts = len(entries)
    total_tokens = sum(len(tokens) for _, _, tokens in entries)
    thresholds = [float(t) for t in thresholds]
    counts, count = [], 0
    for t in thresholds:
        # Move the kept prefix's end from the last threshold's to the first entry t drops.
        while count < total_utts and _keeps(entries[count][0], t):
            count += 1
        while count and not _keeps(entries[count - 1][0], t):
            count -= 1
        counts.append(count)
    sums = [(0, 0, 0)]  # kept prefix length -> (hypothesis tokens, edits, reference length)
    for _, ref, hyp in entries[: max(counts, default=0)]:
        # Against an empty reference every hypothesis token is an insertion.
        edits = corpus_wer([(ref, hyp)]).errors if ref else len(hyp)
        tokens, errors, ref_length = sums[-1]
        sums.append((tokens + len(hyp), errors + edits, ref_length + len(ref)))
    points = []
    for threshold, count in zip(thresholds, counts):
        tokens, errors, ref_length = sums[count]
        if count and not ref_length:
            raise EmptyReferenceError("total reference length is 0")
        token_fraction = tokens / total_tokens if total_tokens > 0 else 0.0
        wer = errors / ref_length if count else None
        points.append(CurvePoint(threshold, count / total_utts, token_fraction, wer))
    return points


def curves_to_tsv(points: Sequence[CurvePoint]) -> str:
    """Render curve points as TSV with a commented header row."""
    lines = ["threshold\tutt_frac\ttok_frac\twer"]
    for p in points:
        wer_cell = "" if p.wer is None else f"{p.wer:.6g}"
        lines.append(
            f"{p.threshold:.6g}\t{p.utterance_fraction:.6g}\t{p.token_fraction:.6g}\t{wer_cell}"
        )
    return "\n".join(lines) + "\n"
