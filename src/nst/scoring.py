"""Fused decode score combination, fusion-parameter grid search, and WER.

The fused score of a hypothesis is an affine combination of its acoustic and
language-model scores plus a mode-dependent auxiliary term: a coverage bonus
for attention decoders, a per-token reward for transducer decoders.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .corpus import (
    Dataset,
    MissingTranscriptError,
    TokenVocab,
    Transcript,
    read_jsonl,
    write_jsonl,
)
from .errors import NstError, read_record

ATTENTION = "attention"
TRANSDUCER = "transducer"

_FUSION_SPEC = {"lm_weight": float, "coverage_weight": float, "nonblank_reward": float,
                "mode": str}
# The keys of a hypotheses-JSONL line, with their JSON types.
_HYPOTHESIS_SPEC = {"id": str, "tokens": list, "am": float, "lm": float, "coverage": float,
                    "fused": float}


class ScoringError(NstError):
    pass


class EmptyReferenceError(ScoringError):
    pass


@dataclass(frozen=True)
class ScoredHypothesis:
    """A decoded transcript with its component scores.

    ``coverage`` is an opaque nonnegative statistic supplied by the
    recognizer; this module only combines it.
    """

    transcript: Transcript
    am_score: float
    lm_score: float
    coverage: float = 0.0
    fused: float | None = None

    def __post_init__(self):
        for name in ("am_score", "lm_score", "coverage"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ScoringError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)
        if self.coverage < 0:
            raise ScoringError("coverage must be nonnegative")
        if self.fused is not None:
            fused = float(self.fused)
            if not math.isfinite(fused):
                raise ScoringError(f"fused score must be finite, got {fused!r}")
            object.__setattr__(self, "fused", fused)

    def with_fused(self, value: float) -> "ScoredHypothesis":
        return replace(self, fused=float(value))


@dataclass(frozen=True)
class FusionParams:
    """Weights of the fused score.

    In attention mode the per-token reward is ignored; in transducer mode the
    coverage weight is ignored.
    """

    lm_weight: float = 0.0
    coverage_weight: float = 0.0
    nonblank_reward: float = 0.0
    mode: str = ATTENTION

    def __post_init__(self):
        if self.mode not in (ATTENTION, TRANSDUCER):
            raise ScoringError(f"unknown fusion mode: {self.mode!r}")
        for name in ("lm_weight", "coverage_weight", "nonblank_reward"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ScoringError(f"{name} must be finite")
            object.__setattr__(self, name, value)
        if self.lm_weight < 0:
            raise ScoringError("lm_weight must be >= 0")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, record: Mapping) -> "FusionParams":
        """The parameters a ``to_dict`` record describes; absent keys take their defaults."""
        return cls(**read_record(record, _FUSION_SPEC, ScoringError, "fusion parameters"))


def fuse_components(
    am_score: float,
    lm_score: float,
    coverage: float,
    length: int,
    params: FusionParams,
) -> float:
    """Fused score from raw components; ``length`` is the token count."""
    base = am_score + params.lm_weight * lm_score
    if params.mode == ATTENTION:
        return base + params.coverage_weight * coverage
    return base + params.nonblank_reward * length


def fuse_score(hyp: ScoredHypothesis, params: FusionParams) -> float:
    return fuse_components(
        hyp.am_score, hyp.lm_score, hyp.coverage, len(hyp.transcript), params
    )


def rerank(
    hyps: Sequence[ScoredHypothesis], params: FusionParams
) -> list[ScoredHypothesis]:
    """Hypotheses sorted by fused score, descending, stable under ties."""
    fused = [h.with_fused(fuse_score(h, params)) for h in hyps]
    order = sorted(range(len(fused)), key=lambda i: (-fused[i].fused, i))
    return [fused[i] for i in order]


def best_hypothesis(
    hyps: Sequence[ScoredHypothesis], params: FusionParams
) -> ScoredHypothesis:
    """The hypothesis with maximal fused score; earliest wins ties."""
    if not hyps:
        raise ScoringError("empty hypothesis list")
    best = None
    best_score = -math.inf
    for h in hyps:
        score = fuse_score(h, params)
        if score > best_score:
            best, best_score = h, score
    return best.with_fused(best_score)


@dataclass(frozen=True)
class WerResult:
    substitutions: int
    insertions: int
    deletions: int
    wer: float

    @property
    def errors(self) -> int:
        return self.substitutions + self.insertions + self.deletions


def edit_alignment_counts(
    reference: Sequence, hypothesis: Sequence
) -> tuple[int, int, int]:
    """(substitutions, insertions, deletions) of a minimal edit alignment.

    Among all minimal-distance alignments, the one with the most matches is
    used; this makes the decomposition canonical, so swapping the arguments
    exchanges insertions and deletions exactly.
    """
    n, m = len(reference), len(hypothesis)
    # DP over (edits, -matches), compared lexicographically.
    prev = [(j, 0) for j in range(m + 1)]
    for i in range(1, n + 1):
        cur = [(i, 0)]
        r = reference[i - 1]
        for j in range(1, m + 1):
            diag_e, diag_m = prev[j - 1]
            if r == hypothesis[j - 1]:
                best = (diag_e, diag_m - 1)
            else:
                best = (diag_e + 1, diag_m)
            up = (prev[j][0] + 1, prev[j][1])
            left = (cur[j - 1][0] + 1, cur[j - 1][1])
            if up < best:
                best = up
            if left < best:
                best = left
            cur.append(best)
        prev = cur
    edits, neg_matches = prev[m]
    matches = -neg_matches
    substitutions = n + m - 2 * matches - edits
    deletions = n - matches - substitutions
    insertions = m - matches - substitutions
    return substitutions, insertions, deletions


def wer(reference: Sequence, hypothesis: Sequence) -> WerResult:
    """Error rate of ``hypothesis`` against a nonempty ``reference``.

    Sequences of words give WER; sequences of token ids give the token-level
    error rate. Comparison is by equality either way.
    """
    if len(reference) == 0:
        raise EmptyReferenceError("reference is empty; the error ratio is undefined")
    s, i, d = edit_alignment_counts(reference, hypothesis)
    return WerResult(s, i, d, (s + i + d) / len(reference))


def corpus_wer(
    pairs: Iterable[tuple[Sequence[str], Sequence[str]]]
) -> WerResult:
    """Aggregate WER: summed edit counts over summed reference length."""
    total_s = total_i = total_d = total_ref = 0
    for reference, hypothesis in pairs:
        s, i, d = edit_alignment_counts(reference, hypothesis)
        total_s += s
        total_i += i
        total_d += d
        total_ref += len(reference)
    if total_ref == 0:
        raise EmptyReferenceError("total reference length is 0")
    return WerResult(total_s, total_i, total_d, (total_s + total_i + total_d) / total_ref)


@dataclass(frozen=True)
class GridPoint:
    params: FusionParams
    dev_wer: float


def grid_search_table(
    grid: Sequence[FusionParams],
    dev: Dataset,
    recognizer,
    beam: int = 4,
    hyp_lists: Sequence[Sequence[ScoredHypothesis]] | None = None,
) -> list[GridPoint]:
    """Dev-set WER of every grid point under fused re-ranking.

    ``recognizer`` needs only ``vocab`` and ``transcribe(utterances, beam)``.
    It is called once; each grid point only re-ranks the same hypothesis
    lists. ``hyp_lists`` short-circuits transcription when the caller already
    has them.

    Grid points mostly agree on an utterance's best hypothesis, so each
    distinct (utterance, best hypothesis) pair is aligned once per call, and
    every point's WER is its summed errors over the total reference length:
    the integer ratio ``corpus_wer`` returns for the same pairs.
    """
    if not grid:
        raise ScoringError("fusion grid is empty")
    references = []
    for u in dev:
        if u.transcript is None:
            raise MissingTranscriptError(u.id)
        references.append(u.transcript)
    if hyp_lists is None:
        hyp_lists = recognizer.transcribe(list(dev), beam)
    vocab = recognizer.vocab
    pairs = list(zip(references, hyp_lists))
    total_ref = sum(len(reference) for reference, _ in pairs)
    errors_of: dict[tuple[int, Transcript], int] = {}
    table = []
    for params in grid:
        errors = 0
        for index, (reference, hyps) in enumerate(pairs):
            key = (index, best_hypothesis(hyps, params).transcript)
            if key not in errors_of:
                errors_of[key] = sum(edit_alignment_counts(reference, vocab.decode(key[1])))
            errors += errors_of[key]
        if total_ref == 0:
            raise EmptyReferenceError("total reference length is 0")
        table.append(GridPoint(params, errors / total_ref))
    return table


def grid_search_fusion(
    grid: Sequence[FusionParams],
    dev: Dataset,
    recognizer,
    beam: int = 4,
    hyp_lists: Sequence[Sequence[ScoredHypothesis]] | None = None,
) -> FusionParams:
    """The grid point minimizing dev WER; ties go to the earliest index."""
    table = grid_search_table(grid, dev, recognizer, beam, hyp_lists)
    return min(table, key=lambda point: point.dev_wer).params


@dataclass(frozen=True)
class HypothesisRecord:
    """One hypotheses-JSONL line: token strings plus raw score components."""

    utterance_id: str
    tokens: tuple[str, ...]
    am: float
    lm: float
    coverage: float = 0.0
    fused: float | None = None


def hypothesis_records(
    dataset: Dataset,
    hyp_lists: Sequence[Sequence[ScoredHypothesis]],
    vocab: TokenVocab,
) -> list[HypothesisRecord]:
    """Unfused records of every hypothesis, utterance by utterance, in list order."""
    return [
        HypothesisRecord(
            utterance_id=u.id,
            tokens=vocab.decode(h.transcript),
            am=h.am_score,
            lm=h.lm_score,
            coverage=h.coverage,
        )
        for u, hyps in zip(dataset, hyp_lists)
        for h in hyps
    ]


def read_hypotheses(path: str | Path) -> list[HypothesisRecord]:
    """The records of a hypotheses JSONL; a malformed line raises ManifestError."""
    return read_jsonl(
        path, _HYPOTHESIS_SPEC, "hypothesis record",
        lambda r, _: HypothesisRecord(r["id"], tuple(r["tokens"]), r["am"], r["lm"],
                                      r.get("coverage", 0.0), r.get("fused")),
        required=("id", "tokens", "am", "lm"),
    )


def write_hypotheses(records: Iterable[HypothesisRecord], path: str | Path) -> None:
    write_jsonl(path, (
        {"id": r.utterance_id, "tokens": list(r.tokens), "am": r.am, "lm": r.lm,
         "coverage": r.coverage, **({} if r.fused is None else {"fused": r.fused})}
        for r in records
    ))
