"""The ``Recognizer`` protocol of the generation loop, plus a synthetic toy recognizer.

``ToyRecognizer`` is the loop's default recognizer; only this module knows
its model file format.

The toy world emits each token as a block of identical one-hot feature rows
corrupted by i.i.d. Gaussian noise. The toy recognizer learns a per-token
centroid (mean of aligned frames) and a bigram language model with add-one
smoothing, and decodes with an exact top-k lattice search: per frame block,
a token's acoustic score is the negative mean squared distance to its
centroid, and the search keeps the k best paths per (position, last token)
state, which is exact for bigram-factored scores. Ties go to the lower token
id, then to the better incoming rank.

The search is batched: utterances are sorted by block count, longest
first, and decoded a chunk at a time, whatever their block counts. A chunk
holds as many utterances as a byte budget allows at the block count of its
first, longest utterance, so chunks of short utterances hold more. Each
chunk's acoustic scores are computed in one pass, when it is decoded. Per
block and column the search merges the states' already sorted paths instead
of sorting all candidates (see ``_merge_top``), so its hypothesis lists are
bit-identical to searching one utterance at a time.

The design gives self-training real signal at desk scale: more training
text sharpens the bigram model and more frames sharpen the centroids, so a
student trained on decent pseudo-labels beats its teacher.
"""
from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Protocol, Sequence

import numpy as np

from .augment import AugmentPolicy, apply_policy
from .corpus import (
    Dataset,
    MissingTranscriptError,
    TokenVocab,
    Utterance,
    atomic_write_text,
    read_json,
    string_tokens,
)
from .errors import NstError, read_record
from .scoring import NBest
from .seeding import derive_rng


class RecognizerError(NstError):
    pass


class EmptyDatasetError(RecognizerError):
    pass


class FrameAlignmentError(RecognizerError):
    pass


class Recognizer(Protocol):
    """What the generation loop needs of a recognizer.

    ``train`` replaces the current model; ``transcribe`` returns an
    ``NBest`` with one row per utterance, in input order, each holding at
    most ``beam`` hypotheses; ``load`` refuses, with ``RecognizerError``, a
    model made for another vocabulary or frame rate.
    """

    vocab: TokenVocab

    def train(self, dataset: Dataset, policy: AugmentPolicy, seed: int) -> None: ...

    def transcribe(self, utterances: Sequence[Utterance], beam: int) -> NBest: ...

    def save(self, path: str | Path) -> None: ...

    def load(self, path: str | Path) -> None: ...


@dataclass(frozen=True)
class ToyWorld:
    """Synthetic channel parameters. Feature dimension equals the vocab size."""

    vocab_size: int
    noise: float = 0.0
    frames_per_token: int = 3

    def __post_init__(self):
        if self.vocab_size < 2:
            raise RecognizerError("vocab_size must be >= 2")
        if not (np.isfinite(self.noise) and self.noise >= 0):
            raise RecognizerError("noise must be finite and >= 0")
        _check_frame_rate(self.frames_per_token)

    def vocab(self) -> TokenVocab:
        width = len(str(self.vocab_size - 1))
        return TokenVocab([f"t{i:0{width}d}" for i in range(self.vocab_size)])


# The preferred successors' shares of a structured source's routed mass, best first.
_SUCCESSOR_SHARES = (0.5, 0.3, 0.2)


class MarkovSentenceSource:
    """Sentence sampler with bigram structure and uniform random lengths.

    Tokens are drawn by inverse CDF, one ``rng.random()`` double each, over
    tables built once from ``initial`` and the rows of ``transition``: the
    draw ``Generator.choice(V, p=row)`` makes, so the stream is the same.
    """

    def __init__(
        self,
        initial: np.ndarray,
        transition: np.ndarray,
        length_range: tuple[int, int] = (4, 10),
    ):
        initial = np.array(initial, dtype=np.float64)
        transition = np.array(transition, dtype=np.float64)
        v = initial.size
        if initial.ndim != 1 or transition.shape != (v, v):
            raise RecognizerError("initial probs must be a vector and transition a V x V matrix")
        for name, probs in (("initial", initial), ("transition", transition)):
            if not np.all(np.isfinite(probs)):
                raise RecognizerError(f"{name} probs must be finite")
        if np.any(initial < 0) or abs(initial.sum() - 1.0) > 1e-9:
            raise RecognizerError("initial probs must be a distribution")
        if np.any(transition < 0) or np.any(np.abs(transition.sum(axis=1) - 1.0) > 1e-9):
            raise RecognizerError("transition rows must be distributions")
        if not 1 <= length_range[0] <= length_range[1]:
            raise RecognizerError("length range must satisfy 1 <= lo <= hi")
        # The tables are derived from these, so they may not change.
        initial.flags.writeable = False
        transition.flags.writeable = False
        self.initial = initial
        self.transition = transition
        self.length_range = (int(length_range[0]), int(length_range[1]))
        # Row t is the successor CDF of token t; row V, the start context's.
        self._cdfs = [_cdf(row) for row in transition] + [_cdf(initial)]

    def __call__(self, rng: np.random.Generator) -> list[int]:
        lo, hi = self.length_range
        length = int(rng.integers(lo, hi + 1))
        cdfs = self._cdfs
        cdf = cdfs[-1]
        tokens = []
        for u in rng.random(length).tolist():
            token = bisect_right(cdf, u)
            tokens.append(token)
            cdf = cdfs[token]
        return tokens

    @classmethod
    def structured(
        cls,
        vocab_size: int,
        seed: int,
        branching: int = 3,
        length_range: tuple[int, int] = (4, 10),
        skew: float = 0.85,
    ) -> "MarkovSentenceSource":
        """Random source with concentrated successors and a skewed start.

        Each token routes 90% of its mass to ``branching`` (1 to 3) preferred
        successors, which gives a language model something to learn; the
        geometric initial distribution skews the token marginals so that
        balancing has work to do.
        """
        if not 1 <= branching <= len(_SUCCESSOR_SHARES):
            raise RecognizerError(
                f"branching must be 1 to {len(_SUCCESSOR_SHARES)}, got {branching!r}"
            )
        if vocab_size < branching:
            raise RecognizerError(f"vocab size {vocab_size} is below the branching {branching}")
        rng = np.random.default_rng(seed)
        initial = skew ** np.arange(vocab_size, dtype=np.float64)
        initial /= initial.sum()
        transition = np.full((vocab_size, vocab_size), 0.1 / vocab_size)
        weights = np.array(_SUCCESSOR_SHARES[:branching], dtype=np.float64)
        weights = 0.9 * weights / weights.sum()
        for t in range(vocab_size):
            successors = rng.choice(vocab_size, size=branching, replace=False)
            transition[t, successors] += weights
        transition /= transition.sum(axis=1, keepdims=True)
        return cls(initial, transition, length_range)


def _cdf(probs: np.ndarray) -> list[float]:
    """``probs``' normalized cumulative sums, computed as ``Generator.choice`` does."""
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def synth_generate(
    world: ToyWorld,
    n: int,
    sentence_source: Callable[[np.random.Generator], Sequence[int]],
    rng: np.random.Generator,
    id_prefix: str = "utt",
) -> Dataset:
    """Generate ``n`` labeled utterances through the noisy one-hot channel."""
    if n < 1:
        raise RecognizerError("n must be >= 1")
    vocab = world.vocab()
    eye = np.eye(world.vocab_size, dtype=np.float64)
    utterances = []
    for i in range(n):
        token_ids = list(sentence_source(rng))
        if not token_ids:
            raise RecognizerError("sentence source produced an empty sentence")
        clean = np.repeat(eye[token_ids], world.frames_per_token, axis=0)
        noisy = clean + world.noise * rng.standard_normal(clean.shape)
        utterances.append(
            Utterance(
                id=f"{id_prefix}-{i:05d}",
                features=noisy,
                transcript=vocab.decode(token_ids),
            )
        )
    return Dataset(utterances)


def _check_frame_rate(frames_per_token: int) -> None:
    if frames_per_token < 1:
        raise RecognizerError(f"frames_per_token must be >= 1, got {frames_per_token}")


# The keys of a toy model file, with their JSON types.
_MODEL_SPEC = {"tokens": list, "frames_per_token": int, "centroids": list, "bigram_log": list}


@dataclass
class ToyModel:
    """Per-token centroids plus a bigram LM (last row is the start context)."""

    tokens: tuple[str, ...]
    frames_per_token: int
    centroids: np.ndarray
    bigram_log: np.ndarray

    def __post_init__(self):
        _check_frame_rate(self.frames_per_token)
        # Tokens a vocabulary would refuse are refused here, not at the first decode.
        self.tokens = TokenVocab(string_tokens(self.tokens, RecognizerError, "toy model")).tokens
        v = len(self.tokens)
        for name in ("centroids", "bigram_log"):
            try:  # no dtype, which would read the string "1.5" as a number
                table = np.asarray(getattr(self, name))
            except ValueError:  # ragged rows
                table = np.asarray(None)
            if table.dtype.kind not in "iuf":
                raise RecognizerError(f"{name} must be a matrix of numbers")
            setattr(self, name, table.astype(np.float64, copy=False))
        if self.centroids.shape != (v, v):
            raise RecognizerError(f"centroids must be ({v}, {v})")
        if self.bigram_log.shape != (v + 1, v):
            raise RecognizerError(f"bigram table must be ({v + 1}, {v})")
        # JSON readers accept NaN and Infinity; a model holding them decodes garbage.
        for name in ("centroids", "bigram_log"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise RecognizerError(f"{name} must be finite")

    @property
    def vocab(self) -> TokenVocab:
        return TokenVocab(self.tokens)

    def to_dict(self) -> dict:
        return {
            "tokens": list(self.tokens),
            "frames_per_token": self.frames_per_token,
            "centroids": self.centroids.tolist(),
            "bigram_log": self.bigram_log.tolist(),
        }

    @classmethod
    def from_dict(cls, record: Mapping) -> "ToyModel":
        """The model a ``to_dict`` record describes; every key is required."""
        values = read_record(record, _MODEL_SPEC, RecognizerError, "toy model",
                             required=_MODEL_SPEC)
        return cls(**values)


def toy_train(
    dataset: Dataset,
    vocab: TokenVocab,
    frames_per_token: int,
    policy: AugmentPolicy,
    seed: int,
) -> ToyModel:
    """Estimate centroids and the bigram LM from a labeled dataset.

    Training consumes augmented features (one derived RNG stream per
    utterance id, so parallel order cannot matter). Frames are split evenly
    across the transcript tokens; for synthesized supervised data this
    coincides with the true block alignment. Multiplicities enter as integer
    weights on both the frame sums and the bigram counts. Features must be
    as wide as the vocab, as the decoder requires (``_check_width``).
    """
    if len(dataset) == 0:
        raise EmptyDatasetError("cannot train on an empty dataset")
    _check_frame_rate(frames_per_token)
    v = vocab.size
    frame_sums = np.zeros((v, v), dtype=np.float64)
    frame_counts = np.zeros(v, dtype=np.float64)
    bigram_counts = np.zeros((v + 1, v), dtype=np.float64)
    start = v
    for u in dataset:
        if u.transcript is None:
            raise MissingTranscriptError(u.id)
        _check_width(u, v)
        token_ids = [vocab.id_of(t) for t in u.transcript]
        weight = u.multiplicity
        features = apply_policy(
            u.features, policy, derive_rng(seed, "augment", u.id)
        ).astype(np.float64)
        k = len(token_ids)
        if k == 0:
            continue
        n_frames = features.shape[0]
        bounds = [(j * n_frames) // k for j in range(k + 1)]
        previous = start
        for j, token in enumerate(token_ids):
            block = features[bounds[j] : bounds[j + 1]]
            if block.shape[0]:
                frame_sums[token] += weight * block.sum(axis=0)
                frame_counts[token] += weight * block.shape[0]
            bigram_counts[previous, token] += weight
            previous = token
    centroids = np.zeros((v, v), dtype=np.float64)
    seen = frame_counts > 0
    centroids[seen] = frame_sums[seen] / frame_counts[seen, None]
    bigram_log = np.log(
        (bigram_counts + 1.0) / (bigram_counts.sum(axis=1, keepdims=True) + v)
    )
    return ToyModel(
        tokens=vocab.tokens,
        frames_per_token=frames_per_token,
        centroids=centroids,
        bigram_log=bigram_log,
    )


def _check_width(utterance: Utterance, v: int) -> None:
    """Refuse features that are not ``v`` wide: a frame holds one value per token."""
    width = utterance.features.shape[1]
    if width != v:
        raise FrameAlignmentError(
            f"utterance {utterance.id!r}: feature width {width} does not match vocab size {v}"
        )


def _block_count(model: ToyModel, utterance: Utterance) -> int:
    """Number of frame blocks in ``utterance``; refuses a shape the model cannot decode."""
    _check_width(utterance, len(model.tokens))
    fpt = model.frames_per_token
    n_frames = utterance.features.shape[0]
    if n_frames % fpt != 0 or n_frames == 0:
        raise FrameAlignmentError(
            f"utterance {utterance.id!r}: {n_frames} frames is not a whole number of "
            f"{fpt}-frame blocks"
        )
    return n_frames // fpt


def _am_scores(model: ToyModel, utterances: Sequence[Utterance]) -> np.ndarray:
    """(blocks, V) acoustic scores of the utterances' blocks laid end to end.

    A token's raw block score is the negative mean squared distance to its
    centroid; each block is then normalized by its logsumexp, making the
    score the block-level log-posterior under an isotropic Gaussian channel.
    The normalization is constant within a block, so it never changes any
    ranking of hypotheses for one utterance; it exists so that utterance
    scores are comparable across utterances, which is what cutoff filtering
    relies on (the raw distances are dominated by the per-utterance noise
    energy, which carries no information about correctness).

    One centroid at a time, so no temporary is larger than the (blocks,
    frames_per_token, V) frames. The squared distances are summed over the
    contiguous feature axis into a (blocks, frames_per_token, V) array whose
    frame axis is then averaged, the same float order whatever utterances
    share the call. A non-finite score raises ``RecognizerError`` naming
    the first utterance that has one.
    """
    v = len(model.tokens)
    frames = np.concatenate([u.features for u in utterances], dtype=np.float64)
    blocks = frames.reshape(-1, model.frames_per_token, v)
    diff = np.empty_like(blocks)
    distances = np.empty_like(blocks)
    # Non-finite features are refused below, by the scores they give.
    with np.errstate(invalid="ignore", over="ignore"):
        for t, centroid in enumerate(model.centroids):
            np.subtract(blocks, centroid, out=diff)
            np.multiply(diff, diff, out=diff)
            distances[:, :, t] = np.sum(diff, axis=2)
        raw = -np.mean(distances, axis=1)
        peak = raw.max(axis=1, keepdims=True)
        log_norm = peak + np.log(np.exp(raw - peak).sum(axis=1, keepdims=True))
        scores = raw - log_norm
    finite = np.isfinite(scores).all(axis=1)
    if not finite.all():
        ends = np.cumsum([len(u.features) // model.frames_per_token for u in utterances])
        bad = utterances[int(np.searchsorted(ends, finite.argmin(), side="right"))]
        raise RecognizerError(f"utterance {bad.id}: its features give non-finite acoustic scores")
    return scores


# Bytes of working memory one decode chunk may hold: the utterances of a chunk
# times _utterance_bytes at the chunk's longest block count stay within it,
# though a chunk always takes at least one utterance.
_CHUNK_BYTES = 1 << 21


def _utterance_bytes(blocks: int, v: int, beam: int, frames_per_token: int) -> int:
    """Bytes the decoder holds for one utterance of a chunk whose longest has ``blocks`` blocks."""
    return 8 * (
        blocks * v  # padded acoustic scores
        + 3 * blocks * frames_per_token * v  # scoring: float64 frames, one difference, distances
        + 3 * v * beam  # keys, am_tot, lm_tot
        + 6 * v * beam  # one step's picks, their indices and the new scores
        + 3 * v * v  # run heads, _merge_top's copy of them and its taken counts
        + beam * blocks  # the chunk's token ids, and their sorted copy (int32)
    ) + 4 * (blocks - 1) * v * beam  # backptr (int32)


def _merge_top(
    heads: np.ndarray, entry: Callable[[np.ndarray, np.ndarray], np.ndarray], k: int
) -> np.ndarray:
    """The ``k`` best entries of each row, merged from the row's sorted runs.

    Each row holds ``width`` runs of ``k`` entries, each run non-increasing.
    ``heads`` is (rows, width), every run's first entry, and ``entry(run,
    rank)`` gives, for every row, entry ``rank`` of its run ``run[row]``.
    Returns (rows, k) indices ``run * k + rank``, which equal the first
    ``k`` columns of a stable descending argsort of the rows laid out run
    after run.

    Each of ``k`` rounds takes the best head by ``argmax``, whose first
    maximum is the lowest run, then advances that run. A run holding the
    best value left has it at its head, so this is the stable sort's tie
    rule: lower run, then lower rank. Only picked runs are read past their
    head, and no run runs out: before the last round it has given at most
    ``k - 1`` entries.
    """
    rows, width = heads.shape
    heads = heads.copy()
    head_flat = heads.reshape(-1)
    taken = np.zeros(rows * width, dtype=np.intp)
    first_head = np.arange(rows) * width
    picks = np.empty((rows, k), dtype=np.intp)
    for r in range(k):
        run = heads.argmax(axis=1)
        head = first_head + run
        rank = taken[head]
        picks[:, r] = run * k + rank
        if r + 1 < k:
            taken[head] = rank + 1
            head_flat[head] = entry(run, rank + 1)
    return picks


def _decode_chunk(
    am: np.ndarray, n_blocks: np.ndarray, bigram_log: np.ndarray, beam: int, lm_weight: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Exact top-``beam`` search over the block lattices of a chunk of utterances.

    Returns each row's hypotheses, sorted by am + lm_weight * lm: the (rows,
    beam, longest block count) token ids, the (rows, beam) am and lm scores,
    and the (rows,) number of hypotheses found. A row's hypotheses span its
    own block count; ranks past the number found are padding.

    ``am`` is (utterances, longest block count, V), each row zero-padded
    past its own ``n_blocks``. Rows come longest first, so the rows that
    still have a block ``i`` form a prefix, and only that prefix takes the
    step; a finished row keeps its paths until it is backtracked from its
    own last block. State is (position, last token) with ``beam`` best
    partial paths kept per state, ranked by a key accumulated as ``(key +
    lm_weight * lm) + am`` per block. Each column (next token) keeps its
    ``beam`` best (state, rank) candidates, ties broken by the flat index
    ``state * beam + rank``: lower token id, then better incoming rank.

    A state's ranks are sorted and float addition is monotone, so a state's
    candidates for one column form a sorted run, and ``_merge_top`` takes
    the column's ``beam`` best from its ``V`` runs in that order. It reads
    a run past its head only when it picks from it, so no block builds all
    ``V * beam`` candidates of a column.
    """
    n_utts, max_blocks, v = am.shape
    lm = bigram_log[:v].T  # lm[t, s]: log P(t | s)
    weighted = lm_weight * lm
    lm_flat, weighted_flat = lm.reshape(-1), weighted.reshape(-1)
    # live[i]: rows that have a block i, a prefix of the chunk
    live = (n_blocks[:, None] > np.arange(max_blocks)).sum(axis=0).tolist()
    # Per (utterance u, column t) cell: the offset of u's paths and of row t of lm.
    path_base = np.repeat(np.arange(n_utts) * (v * beam), v)
    lm_base = np.tile(np.arange(v) * v, n_utts)

    keys = np.full((n_utts, v, beam), -np.inf)
    am_tot = np.zeros((n_utts, v, beam))
    lm_tot = np.zeros((n_utts, v, beam))
    am_tot[:, :, 0] = am[:, 0]
    lm_tot[:, :, 0] = bigram_log[v]
    keys[:, :, 0] = am_tot[:, :, 0] + lm_weight * lm_tot[:, :, 0]
    backptr = np.empty((max_blocks - 1, n_utts, v, beam), dtype=np.int32)

    for i in range(1, max_blocks):
        n = live[i]
        paths, lm_row = path_base[: n * v], lm_base[: n * v]
        step = am[:n, i].reshape(-1)
        prev_keys, prev_am, prev_lm = (x[:n].reshape(-1) for x in (keys, am_tot, lm_tot))

        def extend(state, rank):
            # Rank ``rank`` of ``state`` extended with each cell's token.
            return (prev_keys[paths + state * beam + rank] + weighted_flat[lm_row + state]) + step

        # lead[u, t, s]: the run heads, state s's best path extended with token t
        lead = (keys[:n, None, :, 0] + weighted) + step.reshape(n, v, 1)
        pick = _merge_top(lead.reshape(n * v, v), extend, beam)
        picked = paths[:, None] + pick
        lm_index = lm_row[:, None] + pick // beam
        new_keys = (prev_keys[picked] + weighted_flat[lm_index]) + step[:, None]
        keys[:n] = new_keys.reshape(n, v, beam)
        am_tot[:n] = (prev_am[picked] + step[:, None]).reshape(n, v, beam)
        lm_tot[:n] = (prev_lm[picked] + lm_flat[lm_index]).reshape(n, v, beam)
        backptr[i - 1, :n] = pick.reshape(n, v, beam)

    rows = np.arange(n_utts)
    best = _merge_top(keys[:, :, 0], lambda state, rank: keys[rows, state, rank], beam)
    found = np.isfinite(np.take_along_axis(keys.reshape(n_utts, -1), best, axis=1))
    am_out = np.take_along_axis(am_tot.reshape(n_utts, -1), best, axis=1)
    lm_out = np.take_along_axis(lm_tot.reshape(n_utts, -1), best, axis=1)
    tokens = np.zeros((n_utts, beam, max_blocks), dtype=np.int32)
    state, rank = np.divmod(best, beam)
    tokens[rows, :, n_blocks - 1] = state
    for i in range(max_blocks - 1, 0, -1):
        n = live[i]
        state[:n], rank[:n] = np.divmod(backptr[i - 1][rows[:n, None], state[:n], rank[:n]], beam)
        tokens[:n, :, i - 1] = state[:n]

    # Re-sort on the exact expression re-ranking uses, so equal fusion
    # parameters can never reorder the list (the search key accumulates the
    # same quantity in a different float order).
    order = np.argsort(
        np.where(found, -(am_out + lm_weight * lm_out), np.inf), axis=1, kind="stable"
    )
    return (
        np.take_along_axis(tokens, order[:, :, None], axis=1),
        np.take_along_axis(am_out, order, axis=1),
        np.take_along_axis(lm_out, order, axis=1),
        found.sum(axis=1),
    )


def toy_transcribe(
    model: ToyModel,
    utterances: Sequence[Utterance],
    beam: int,
    lm_weight: float = 0.0,
) -> NBest:
    """Per-utterance top-``beam`` hypotheses, sorted by am + lm_weight * lm.

    Every utterance's shape is checked first, in input order. Utterances
    are then decoded longest first, a chunk of any block counts at a time,
    each chunk as large as ``_CHUNK_BYTES`` allows at its first utterance's
    block count. A chunk's acoustic scores are computed in one pass when it
    is decoded, refusing non-finite ones, and its rows are scattered back to
    input order. Every hypothesis of an utterance spans its block count,
    which is also its coverage.

    The decoder's working memory is bounded per chunk, but the result is
    not: its int32 token ids are padded to the longest utterance, so they
    take ``4 * len(utterances) * beam * max_blocks`` bytes.
    """
    if beam < 1:
        raise RecognizerError("beam must be >= 1")
    if not np.isfinite(lm_weight):
        raise RecognizerError(f"lm_weight must be finite, got {lm_weight!r}")
    counts = [_block_count(model, u) for u in utterances]
    by_length = sorted(range(len(utterances)), key=lambda j: -counts[j])
    v = len(model.tokens)
    tokens = np.zeros((len(utterances), beam, max(counts, default=0)), dtype=np.int32)
    am_scores, lm_scores = np.zeros((2, len(utterances), beam))
    found = np.zeros(len(utterances), dtype=np.int64)
    lo = 0
    while lo < len(by_length):
        longest = counts[by_length[lo]]
        per_utterance = _utterance_bytes(longest, v, beam, model.frames_per_token)
        indices = by_length[lo : lo + max(1, _CHUNK_BYTES // per_utterance)]
        lo += len(indices)
        n_blocks = np.array([counts[j] for j in indices])
        am = np.zeros((len(indices), longest, v))
        am[n_blocks[:, None] > np.arange(longest)] = _am_scores(
            model, [utterances[j] for j in indices]
        )
        (
            tokens[indices, :, :longest], am_scores[indices], lm_scores[indices],
            found[indices],
        ) = _decode_chunk(am, n_blocks, model.bigram_log, beam, lm_weight)
    lengths = np.repeat(np.array(counts, dtype=np.int64)[:, None], beam, axis=1)
    return NBest(tokens, lengths, found, am_scores, lm_scores, lengths.astype(np.float64))


class ToyRecognizer:
    """The toy model behind the ``Recognizer`` protocol."""

    def __init__(
        self,
        vocab: TokenVocab,
        frames_per_token: int,
        decode_lm_weight: float = 0.0,
        model: ToyModel | None = None,
    ):
        self.vocab = vocab
        self.frames_per_token = frames_per_token
        self.decode_lm_weight = decode_lm_weight
        self.model = model

    @classmethod
    def from_file(cls, path: str | Path, decode_lm_weight: float = 0.0) -> "ToyRecognizer":
        """A recognizer with the vocabulary and frame rate of the model at ``path``."""
        model = read_json(path, ToyModel.from_dict, RecognizerError)
        return cls(model.vocab, model.frames_per_token, decode_lm_weight, model=model)

    def train(self, dataset: Dataset, policy: AugmentPolicy, seed: int) -> None:
        self.model = toy_train(dataset, self.vocab, self.frames_per_token, policy, seed)

    def transcribe(self, utterances: Sequence[Utterance], beam: int) -> NBest:
        return toy_transcribe(self._trained(), utterances, beam, self.decode_lm_weight)

    def save(self, path: str | Path) -> None:
        atomic_write_text(path, json.dumps(self._trained().to_dict(), sort_keys=True))

    def load(self, path: str | Path) -> None:
        model = read_json(path, ToyModel.from_dict, RecognizerError)
        if model.tokens != self.vocab.tokens:
            raise RecognizerError(f"{path}: model tokens differ from the vocabulary")
        if model.frames_per_token != self.frames_per_token:
            raise RecognizerError(
                f"{path}: model has {model.frames_per_token} frames per token, "
                f"expected {self.frames_per_token}"
            )
        self.model = model

    def _trained(self) -> ToyModel:
        if self.model is None:
            raise RecognizerError("recognizer has no trained model")
        return self.model
