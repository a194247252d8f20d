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

The search is batched: utterances with the same block count are decoded
together, a chunk of bounded size at a time, and each chunk's acoustic
scores are computed only when it is decoded. Per block it prunes the
candidates that provably cannot place (see ``_decode_chunk``), so its
hypothesis lists are bit-identical to searching one utterance at a time.

The design gives self-training real signal at desk scale: more training
text sharpens the bigram model and more frames sharpen the centroids, so a
student trained on decent pseudo-labels beats its teacher.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Protocol, Sequence

import numpy as np

from .augment import AugmentPolicy, apply_policy
from .corpus import (
    Dataset,
    MissingTranscriptError,
    TokenVocab,
    Transcript,
    Utterance,
    atomic_write_text,
    read_json,
)
from .errors import NstError, read_record
from .scoring import ScoredHypothesis
from .seeding import derive_rng


class RecognizerError(NstError):
    pass


class EmptyDatasetError(RecognizerError):
    pass


class FrameAlignmentError(RecognizerError):
    pass


class Recognizer(Protocol):
    """What the generation loop needs of a recognizer.

    ``train`` replaces the current model; ``transcribe`` returns one list of
    at most ``beam`` hypotheses per utterance; ``load`` refuses, with
    ``RecognizerError``, a model made for another vocabulary or frame rate.
    """

    vocab: TokenVocab

    def train(self, dataset: Dataset, policy: AugmentPolicy, seed: int) -> None: ...

    def transcribe(
        self, utterances: Sequence[Utterance], beam: int
    ) -> list[list[ScoredHypothesis]]: ...

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
        if self.noise < 0:
            raise RecognizerError("noise must be >= 0")
        if self.frames_per_token < 1:
            raise RecognizerError("frames_per_token must be >= 1")

    def vocab(self) -> TokenVocab:
        width = len(str(self.vocab_size - 1))
        return TokenVocab([f"t{i:0{width}d}" for i in range(self.vocab_size)])


class MarkovSentenceSource:
    """Sentence sampler with bigram structure and uniform random lengths."""

    def __init__(
        self,
        initial: np.ndarray,
        transition: np.ndarray,
        length_range: tuple[int, int] = (4, 10),
    ):
        initial = np.asarray(initial, dtype=np.float64)
        transition = np.asarray(transition, dtype=np.float64)
        v = initial.size
        if transition.shape != (v, v):
            raise RecognizerError("transition matrix shape must match initial probs")
        if np.any(initial < 0) or abs(initial.sum() - 1.0) > 1e-9:
            raise RecognizerError("initial probs must be a distribution")
        if np.any(transition < 0) or np.any(np.abs(transition.sum(axis=1) - 1.0) > 1e-9):
            raise RecognizerError("transition rows must be distributions")
        if not 1 <= length_range[0] <= length_range[1]:
            raise RecognizerError("length range must satisfy 1 <= lo <= hi")
        self.initial = initial
        self.transition = transition
        self.length_range = (int(length_range[0]), int(length_range[1]))

    def __call__(self, rng: np.random.Generator) -> list[int]:
        lo, hi = self.length_range
        length = int(rng.integers(lo, hi + 1))
        v = self.initial.size
        tokens = [int(rng.choice(v, p=self.initial))]
        for _ in range(length - 1):
            tokens.append(int(rng.choice(v, p=self.transition[tokens[-1]])))
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

        Each token routes 90% of its mass to ``branching`` preferred
        successors, which gives a language model something to learn; the
        geometric initial distribution skews the token marginals so that
        balancing has work to do.
        """
        rng = np.random.default_rng(seed)
        initial = skew ** np.arange(vocab_size, dtype=np.float64)
        initial /= initial.sum()
        transition = np.full((vocab_size, vocab_size), 0.1 / vocab_size)
        weights = np.array([0.5, 0.3, 0.2][:branching], dtype=np.float64)
        weights = 0.9 * weights / weights.sum()
        for t in range(vocab_size):
            successors = rng.choice(vocab_size, size=branching, replace=False)
            transition[t, successors] += weights
        transition /= transition.sum(axis=1, keepdims=True)
        return cls(initial, transition, length_range)


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
        v = len(self.tokens)
        self.centroids = np.asarray(self.centroids, dtype=np.float64)
        self.bigram_log = np.asarray(self.bigram_log, dtype=np.float64)
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
        return cls(**{**values, "tokens": tuple(values["tokens"])})


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
    weights on both the frame sums and the bigram counts.
    """
    if len(dataset) == 0:
        raise EmptyDatasetError("cannot train on an empty dataset")
    v = vocab.size
    frame_sums = np.zeros((v, v), dtype=np.float64)
    frame_counts = np.zeros(v, dtype=np.float64)
    bigram_counts = np.zeros((v + 1, v), dtype=np.float64)
    start = v
    for u in dataset:
        if u.transcript is None:
            raise MissingTranscriptError(u.id)
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


def _block_count(model: ToyModel, features: np.ndarray) -> int:
    """Number of frame blocks in ``features``; refuses a shape the model cannot decode."""
    v = len(model.tokens)
    if features.shape[1] != v:
        raise FrameAlignmentError(
            f"feature width {features.shape[1]} does not match vocab size {v}"
        )
    fpt = model.frames_per_token
    n_frames = features.shape[0]
    if n_frames % fpt != 0 or n_frames == 0:
        raise FrameAlignmentError(
            f"{n_frames} frames is not a whole number of {fpt}-frame blocks"
        )
    return n_frames // fpt


def _am_matrix(model: ToyModel, features: np.ndarray) -> np.ndarray:
    """(n_blocks, V) acoustic scores.

    A token's raw block score is the negative mean squared distance to its
    centroid; each block is then normalized by its logsumexp, making the
    score the block-level log-posterior under an isotropic Gaussian channel.
    The normalization is constant within a block, so it never changes any
    ranking of hypotheses for one utterance; it exists so that utterance
    scores are comparable across utterances, which is what cutoff filtering
    relies on (the raw distances are dominated by the per-utterance noise
    energy, which carries no information about correctness).
    """
    _block_count(model, features)
    v = len(model.tokens)
    blocks = features.astype(np.float64).reshape(-1, model.frames_per_token, v)
    diffs = blocks[:, :, None, :] - model.centroids[None, None, :, :]
    raw = -np.mean(np.sum(diffs * diffs, axis=3), axis=1)
    peak = raw.max(axis=1, keepdims=True)
    log_norm = peak + np.log(np.exp(raw - peak).sum(axis=1, keepdims=True))
    return raw - log_norm


# Candidates (utterance x column x state x rank) one decode chunk may span: a
# chunk holds _CHUNK_CANDIDATES // (V * beam * V) utterances, which bounds its
# working memory whatever the vocabulary and the beam.
_CHUNK_CANDIDATES = 1 << 16


def _decode_chunk(
    am: np.ndarray, bigram_log: np.ndarray, beam: int, lm_weight: float
) -> list[list[ScoredHypothesis]]:
    """Exact top-``beam`` search over the block lattices of equal-length utterances.

    ``am`` is (utterances, n_blocks, V). State is (position, last token) with
    ``beam`` best partial paths kept per state, ranked by a key accumulated
    as ``(key + lm_weight * lm) + am`` per block. Each column (next token)
    keeps its ``beam`` best (state, rank) candidates, ties broken by the flat
    index ``state * beam + rank``: lower token id, then better incoming rank.

    Pruning is exact. A state's ranks are sorted and float addition is
    monotone, so a state whose rank-0 candidate is not among the column's
    ``min(beam, V)`` best rank-0 candidates has at least ``beam`` candidates
    ahead of each of its ranks. Only the surviving states' candidates are
    sorted, in flat-index order so that the stable sort keeps the tie rule.
    """
    n_utts, n_blocks, v = am.shape
    lm = bigram_log[:v].T  # lm[t, s]: log P(t | s)
    weighted = lm_weight * lm
    width = min(beam, v)
    utts = np.arange(n_utts)[:, None, None]
    cols = np.arange(v)[None, :, None]
    states = np.broadcast_to(np.arange(v), (n_utts, v, v))

    keys = np.full((n_utts, v, beam), -np.inf)
    am_tot = np.zeros((n_utts, v, beam))
    lm_tot = np.zeros((n_utts, v, beam))
    am_tot[:, :, 0] = am[:, 0]
    lm_tot[:, :, 0] = bigram_log[v]
    keys[:, :, 0] = am_tot[:, :, 0] + lm_weight * lm_tot[:, :, 0]
    backptr = np.empty((n_blocks - 1, n_utts, v, beam), dtype=np.int32)

    for i in range(1, n_blocks):
        step = am[:, i, :, None]
        if width < v:
            # lead[u, t, s]: state s's best path extended with token t
            lead = (keys[:, None, :, 0] + weighted) + step
            states = np.sort(np.argsort(-lead, axis=2, kind="stable")[:, :, :width], axis=2)
        cand = (keys[utts, states] + weighted[cols, states][..., None]) + step[..., None]
        cand = cand.reshape(n_utts, v, width * beam)
        pick = np.argsort(-cand, axis=2, kind="stable")[:, :, :beam]
        source = np.take_along_axis(states, pick // beam, axis=2)
        rank = pick % beam
        keys = np.take_along_axis(cand, pick, axis=2)
        am_tot = am_tot[utts, source, rank] + step
        lm_tot = lm_tot[utts, source, rank] + lm[cols, source]
        backptr[i - 1] = source * beam + rank

    flat = keys.reshape(n_utts, v * beam)
    best = np.argsort(-flat, axis=1, kind="stable")[:, :beam]
    found = np.isfinite(np.take_along_axis(flat, best, axis=1))
    am_out = np.take_along_axis(am_tot.reshape(n_utts, -1), best, axis=1)
    lm_out = np.take_along_axis(lm_tot.reshape(n_utts, -1), best, axis=1)
    tokens = np.empty((n_utts, beam, n_blocks), dtype=np.int64)
    state, rank = np.divmod(best, beam)
    tokens[:, :, -1] = state
    rows = np.arange(n_utts)[:, None]
    for i in range(n_blocks - 1, 0, -1):
        state, rank = np.divmod(backptr[i - 1][rows, state, rank], beam)
        tokens[:, :, i - 1] = state

    # Re-sort on the exact expression re-ranking uses, so equal fusion
    # parameters can never reorder the list (the search key accumulates the
    # same quantity in a different float order).
    order = np.argsort(
        np.where(found, -(am_out + lm_weight * lm_out), np.inf), axis=1, kind="stable"
    )
    coverage = float(n_blocks)
    return [
        [
            ScoredHypothesis(Transcript(tuple(seq)), am_score, lm_score, coverage)
            for seq, am_score, lm_score in zip(seqs[:count], ams, lms)
        ]
        for seqs, ams, lms, count in zip(
            np.take_along_axis(tokens, order[:, :, None], axis=1).tolist(),
            np.take_along_axis(am_out, order, axis=1).tolist(),
            np.take_along_axis(lm_out, order, axis=1).tolist(),
            found.sum(axis=1).tolist(),
        )
    ]


def toy_transcribe(
    model: ToyModel,
    utterances: Sequence[Utterance],
    beam: int,
    lm_weight: float = 0.0,
) -> list[list[ScoredHypothesis]]:
    """Per-utterance top-``beam`` hypothesis lists, sorted by am + lm_weight * lm.

    Utterances are grouped by block count and decoded a chunk at a time;
    each chunk's acoustic scores are computed only when it is decoded.
    """
    if beam < 1:
        raise RecognizerError("beam must be >= 1")
    groups: dict[int, list[int]] = {}
    for index, u in enumerate(utterances):
        groups.setdefault(_block_count(model, u.features), []).append(index)
    v = len(model.tokens)
    chunk = max(1, _CHUNK_CANDIDATES // (v * beam * v))
    results: list[list[ScoredHypothesis]] = [[] for _ in utterances]
    for members in groups.values():
        for lo in range(0, len(members), chunk):
            indices = members[lo : lo + chunk]
            am = np.stack([_am_matrix(model, utterances[j].features) for j in indices])
            for j, hyps in zip(indices, _decode_chunk(am, model.bigram_log, beam, lm_weight)):
                results[j] = hyps
    return results


def _read_model(path: str | Path) -> ToyModel:
    try:
        return ToyModel.from_dict(read_json(path, RecognizerError))
    except (TypeError, ValueError, RecognizerError) as exc:
        raise RecognizerError(f"{path}: not a toy model file ({exc!r})") from None


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
        model = _read_model(path)
        return cls(model.vocab, model.frames_per_token, decode_lm_weight, model=model)

    def train(self, dataset: Dataset, policy: AugmentPolicy, seed: int) -> None:
        self.model = toy_train(dataset, self.vocab, self.frames_per_token, policy, seed)

    def transcribe(
        self, utterances: Sequence[Utterance], beam: int
    ) -> list[list[ScoredHypothesis]]:
        return toy_transcribe(self._trained(), utterances, beam, self.decode_lm_weight)

    def save(self, path: str | Path) -> None:
        atomic_write_text(path, json.dumps(self._trained().to_dict(), sort_keys=True))

    def load(self, path: str | Path) -> None:
        model = _read_model(path)
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
