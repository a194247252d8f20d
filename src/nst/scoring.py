"""N-best lists, fused decode score combination, fusion-parameter grid search, and WER.

The fused score of a hypothesis is an affine combination of its acoustic and
language-model scores plus a mode-dependent auxiliary term: a coverage bonus
for attention decoders, a per-token reward for transducer decoders.

A recognizer returns its hypotheses as one ``NBest``, a set of arrays, so the
loop picks each utterance's best hypothesis by an array argmax and builds no
object per hypothesis.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

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
    """Fused score from raw components; ``length`` is the token count.

    It is plain arithmetic, so it also applies elementwise to NumPy arrays:
    ``NBest.best`` fuses whole columns with it.
    """
    base = am_score + params.lm_weight * lm_score
    if params.mode == ATTENTION:
        return base + params.coverage_weight * coverage
    return base + params.nonblank_reward * length


def best_hypothesis(
    hyps: Sequence[ScoredHypothesis], params: FusionParams
) -> ScoredHypothesis:
    """The hypothesis with maximal fused score, carrying that score; earliest wins ties.

    It is ``NBest.best`` of a one-row ``NBest``, so an empty list or an
    overflowing best score raises ``ScoringError``.
    """
    (rank,), (score,) = NBest.from_lists([hyps]).best(params)
    return hyps[rank].with_fused(score)


@dataclass(frozen=True, eq=False)
class NBest:
    """Every utterance's hypothesis list, as columns.

    Row ``i`` holds utterance ``i``'s ``counts[i]`` hypotheses, best decode
    score first. Hypothesis ``(i, r)`` is the token ids ``tokens[i, r,
    :lengths[i, r]]`` with the scores ``am[i, r]``, ``lm[i, r]`` and
    ``coverage[i, r]``. Every other cell is padding, which is never read.

    The arrays are checked once each, never per hypothesis: counts within
    ``0..k``, held lengths within ``0..L``, held token ids nonnegative, held
    scores finite and held coverage nonnegative.

    An ``NBest`` reads like the list of hypothesis lists it replaces: its
    length is the row count, a row (by index or by iteration) is a
    ``list[ScoredHypothesis]`` built when asked for, a slice is an ``NBest``
    of those rows, and ``==`` compares row by row.
    """

    tokens: np.ndarray  # (n, k, L) integers
    lengths: np.ndarray  # (n, k) integers
    counts: np.ndarray  # (n,) integers
    am: np.ndarray  # (n, k) float64
    lm: np.ndarray  # (n, k) float64
    coverage: np.ndarray  # (n, k) float64

    def __post_init__(self):
        arrays = {}
        for name in ("tokens", "lengths", "counts"):
            arrays[name] = np.asarray(getattr(self, name))
            if arrays[name].dtype.kind not in "iu":
                raise ScoringError(f"{name} must hold integers, got {arrays[name].dtype}")
        for name in ("am", "lm", "coverage"):
            arrays[name] = np.asarray(getattr(self, name), dtype=np.float64)
        if arrays["tokens"].ndim != 3:
            raise ScoringError(f"tokens must be (n, k, L), got shape {arrays['tokens'].shape}")
        n, k, width = arrays["tokens"].shape
        for name, shape in (("lengths", (n, k)), ("counts", (n,)), ("am", (n, k)),
                            ("lm", (n, k)), ("coverage", (n, k))):
            if arrays[name].shape != shape:
                raise ScoringError(f"{name} must have shape {shape}, got {arrays[name].shape}")
        counts = arrays["counts"]
        if np.any((counts < 0) | (counts > k)):
            raise ScoringError(f"hypothesis counts must lie in 0..{k}")
        held = np.arange(k) < counts[:, None]
        lengths = arrays["lengths"]
        if np.any(held & ((lengths < 0) | (lengths > width))):
            raise ScoringError(f"hypothesis lengths must lie in 0..{width}")
        held_tokens = held[:, :, None] & (np.arange(width) < lengths[:, :, None])
        if np.any(held_tokens & (arrays["tokens"] < 0)):
            raise ScoringError("token ids must be nonnegative")
        for name in ("am", "lm", "coverage"):
            if not np.all(np.isfinite(arrays[name][held])):
                raise ScoringError(f"{name} scores must be finite")
        if np.any(arrays["coverage"][held] < 0):
            raise ScoringError("coverage must be nonnegative")
        for name, array in arrays.items():
            view = array.view()
            view.setflags(write=False)
            object.__setattr__(self, name, view)

    @classmethod
    def from_lists(cls, hyp_lists: Sequence[Sequence[ScoredHypothesis]]) -> "NBest":
        """The rows of per-utterance hypothesis lists, in order."""
        counts = [len(hyps) for hyps in hyp_lists]
        width = max((len(h.transcript) for hyps in hyp_lists for h in hyps), default=0)
        tokens = np.zeros((len(counts), max(counts, default=0), width), dtype=np.int64)
        lengths = np.zeros(tokens.shape[:2], dtype=np.int64)
        scores = np.zeros((3, *tokens.shape[:2]))
        for i, hyps in enumerate(hyp_lists):
            for r, h in enumerate(hyps):
                tokens[i, r, : len(h.transcript)] = h.transcript.tokens
                lengths[i, r] = len(h.transcript)
                scores[:, i, r] = h.am_score, h.lm_score, h.coverage
        return cls(tokens, lengths, np.array(counts, dtype=np.int64), *scores)

    def __len__(self) -> int:
        return len(self.counts)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return NBest(*(getattr(self, f.name)[index] for f in fields(self)))
        return [
            ScoredHypothesis(Transcript(ids), am, lm, coverage)
            for ids, am, lm, coverage in self._held(range(len(self))[index])
        ]

    def __iter__(self) -> Iterator[list[ScoredHypothesis]]:
        return map(self.__getitem__, range(len(self)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NBest):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def _held(self, row: int) -> list[tuple[tuple[int, ...], float, float, float]]:
        """Row ``row``'s hypotheses as (token ids, am, lm, coverage) Python values."""
        count = int(self.counts[row])
        columns = (self.tokens[row, :count].tolist(), self.lengths[row, :count].tolist(),
                   self.am[row, :count].tolist(), self.lm[row, :count].tolist(),
                   self.coverage[row, :count].tolist())
        return [(tuple(ids[:length]), am, lm, coverage)
                for ids, length, am, lm, coverage in zip(*columns)]

    def best(self, params: FusionParams) -> tuple[np.ndarray, np.ndarray]:
        """Each row's hypothesis with maximal fused score: its rank and that score.

        The fused score is ``fuse_components`` applied to the columns, and the
        first maximum wins ties. A row with no hypotheses, or a best fused
        score that overflows, raises ``ScoringError``.
        """
        if np.any(self.counts == 0):
            raise ScoringError("empty hypothesis list")
        if len(self) == 0:
            return np.zeros(0, dtype=np.intp), np.zeros(0)
        with np.errstate(over="ignore", invalid="ignore"):  # overflow is refused below
            fused = fuse_components(self.am, self.lm, self.coverage, self.lengths, params)
        held = np.arange(fused.shape[1]) < self.counts[:, None]
        ranks = np.where(held, fused, -np.inf).argmax(axis=1)
        scores = fused[np.arange(len(self)), ranks]
        if not np.all(np.isfinite(scores)):
            raise ScoringError("fused score must be finite")
        return ranks, scores

    def token_ids(self, ranks: np.ndarray) -> list[tuple[int, ...]]:
        """The token ids of hypothesis ``ranks[i]`` of each row ``i``."""
        ranks = np.asarray(ranks)
        if ranks.shape != self.counts.shape or np.any((ranks < 0) | (ranks >= self.counts)):
            raise ScoringError("each rank must name one of its row's hypotheses")
        rows = np.arange(len(self))
        return [tuple(ids[:length]) for ids, length in zip(
            self.tokens[rows, ranks].tolist(), self.lengths[rows, ranks].tolist())]


@dataclass(frozen=True)
class WerResult:
    errors: int
    wer: float


def edit_alignment_counts(reference: Sequence, hypothesis: Sequence) -> int:
    """Levenshtein distance: the fewest substitutions, insertions and deletions
    that turn ``reference`` into ``hypothesis``. It is symmetric in its arguments.

    Myers' bit-parallel algorithm, in Hyyrö's form for the distance of whole
    sequences, over Python ints: bit ``i`` of a column vector stands for
    reference position ``i``, and one pass of about a dozen integer operations
    per hypothesis token advances every cell of a DP column at once. Tokens
    are matched by dict lookup, so they must be hashable.

    ``bench/spans.py`` traces this function, and counts its calls, by this name.
    """
    # masks[token]: the reference positions holding ``token``, one bit each
    masks: dict = {}
    bit = 1
    for token in reference:
        masks[token] = masks.get(token, 0) | bit
        bit <<= 1
    if bit == 1:
        return len(hypothesis)
    full, last = bit - 1, bit >> 1
    distance = full.bit_length()
    # Bit i of pv (mv): the current DP column rises (falls) by one from row i to row i + 1.
    pv, mv = full, 0
    for token in hypothesis:
        eq = masks.get(token, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        # Bit i of ph (mh): row i + 1 rises (falls) by one from the last column to this one.
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & last:
            distance += 1
        elif mh & last:
            distance -= 1
        # The top row counts insertions, so its horizontal step is always +1.
        ph = (ph << 1) | 1
        pv = ((mh << 1) | ~(xv | ph)) & full
        mv = ph & xv
    return distance


def wer(reference: Sequence, hypothesis: Sequence) -> WerResult:
    """Error rate of ``hypothesis`` against a nonempty ``reference``.

    Sequences of words give WER; sequences of token ids give the token-level
    error rate. Comparison is by equality either way.
    """
    if len(reference) == 0:
        raise EmptyReferenceError("reference is empty; the error ratio is undefined")
    return corpus_wer([(reference, hypothesis)])


def corpus_wer(
    pairs: Iterable[tuple[Sequence[str], Sequence[str]]]
) -> WerResult:
    """Aggregate WER: summed edit distances over summed reference length."""
    errors = total_ref = 0
    for reference, hypothesis in pairs:
        errors += edit_alignment_counts(reference, hypothesis)
        total_ref += len(reference)
    if total_ref == 0:
        raise EmptyReferenceError("total reference length is 0")
    return WerResult(errors, errors / total_ref)


@dataclass(frozen=True)
class GridPoint:
    params: FusionParams
    dev_wer: float


def grid_search_table(
    grid: Sequence[FusionParams],
    dev: Dataset,
    nbest: NBest,
    vocab: TokenVocab,
) -> list[GridPoint]:
    """Dev-set WER of every grid point under fused re-ranking of ``nbest``.

    ``nbest`` holds one row per dev utterance; each grid point only re-ranks
    the same rows, and ``vocab`` decodes the winners.

    Grid points mostly agree on an utterance's best hypothesis, so the edit
    distance of each distinct (utterance, best hypothesis) pair is computed
    once per call, and every point's WER is its summed edits over the total
    reference length: the integer ratio ``corpus_wer`` returns for the same
    pairs. A row count other than the utterance count raises ``ValueError``.
    """
    if not grid:
        raise ScoringError("fusion grid is empty")
    references = []
    for u in dev:
        if u.transcript is None:
            raise MissingTranscriptError(u.id)
        references.append(u.transcript)
    total_ref = sum(map(len, references))
    if total_ref == 0:
        raise EmptyReferenceError("total reference length is 0")
    errors_of: dict[tuple[int, tuple[int, ...]], int] = {}
    table = []
    for params in grid:
        ranks, _ = nbest.best(params)
        best = zip(references, nbest.token_ids(ranks), strict=True)
        errors = 0
        for index, (reference, ids) in enumerate(best):
            key = (index, ids)
            if key not in errors_of:
                errors_of[key] = edit_alignment_counts(reference, vocab.decode(ids))
            errors += errors_of[key]
        table.append(GridPoint(params, errors / total_ref))
    return table


def grid_search_fusion(
    grid: Sequence[FusionParams],
    dev: Dataset,
    recognizer,
    beam: int = 4,
) -> FusionParams:
    """The grid point minimizing dev WER; ties go to the earliest index.

    ``recognizer`` needs only ``vocab`` and ``transcribe(utterances, beam)``;
    it transcribes ``dev`` once.
    """
    nbest = recognizer.transcribe(list(dev), beam)
    table = grid_search_table(grid, dev, nbest, recognizer.vocab)
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
    dataset: Dataset, hyp_lists: NBest, vocab: TokenVocab
) -> list[HypothesisRecord]:
    """Unfused records of every hypothesis, utterance by utterance, in rank order."""
    return [
        HypothesisRecord(u.id, vocab.decode(ids), am, lm, coverage)
        for u, row in zip(dataset, range(len(hyp_lists)), strict=True)
        for ids, am, lm, coverage in hyp_lists._held(row)
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
