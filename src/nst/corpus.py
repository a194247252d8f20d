"""Dataset model, token vocabulary, token statistics, and manifest persistence.

Utterances carry a feature matrix (frames x channels, float32) plus optional
transcript, score, and sampling multiplicity. Manifests are JSON Lines with
one object per utterance; feature matrices live in binary files beside them
so manifests stay diffable.

A save writes a manifest's new feature matrices to one pack, ``<stem>.nstp``:
feature records laid end to end, each referenced from its manifest line as
``<pack>:<byte offset>``, the only form a reference takes: a manifest line
without an offset, as written before packs, is refused with a ManifestError.
An utterance loaded from a manifest remembers the record its features came
from, and a manifest derived from it (relabeled, filtered, rebalanced)
references that record by relative path instead of copying it. A derived
manifest therefore stays loadable only while the files it points into exist
unchanged. Every text file is decoded by ``text_lines``.
"""
from __future__ import annotations

import json
import math
import numbers
import operator
import os
import re
import struct
from dataclasses import dataclass, field, replace
from itertools import chain
from pathlib import Path
from typing import Callable, Collection, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import NstError, read_record

FEATURE_MAGIC = b"NSTF"

# Utterance ids keep to these characters, so no tab or newline reaches a TSV such as
# ``nst mix``'s output.
_SAFE_ID = re.compile(r"[A-Za-z0-9._-]+")
_ID_RULE = "utterance id must be a nonempty string of A-Z, a-z, 0-9, '.', '_' and '-'"

# The keys of a manifest line, with their JSON types.
_MANIFEST_SPEC = {"id": str, "features": str, "transcript": (list, None),
                  "score": (float, None), "multiplicity": int}


class CorpusError(NstError):
    pass


class UnknownTokenError(CorpusError):
    def __init__(self, token: str):
        super().__init__(f"token not in vocabulary: {token!r}")
        self.token = token


class ManifestError(CorpusError):
    """JSON Lines parse or schema failure, carrying the offending line number."""

    def __init__(self, path: object, line_number: int, reason: str):
        super().__init__(f"{path}: line {line_number}: {reason}")
        self.line_number = line_number


class MissingFeatureFileError(CorpusError):
    def __init__(self, path: object):
        super().__init__(f"feature file not found: {path}")
        self.path = str(path)


class FeatureFileError(CorpusError):
    pass


class EmptyInputError(CorpusError):
    pass


class MissingTranscriptError(CorpusError):
    def __init__(self, utterance_id: str):
        super().__init__(f"utterance {utterance_id!r} has no transcript")
        self.utterance_id = utterance_id


def _integer_or_none(value: object) -> int | None:
    """``value`` as an ``int`` when it is an integer other than a bool, else None."""
    if isinstance(value, bool):
        return None
    try:
        return operator.index(value)
    except TypeError:
        return None


def _multiplicity(value: object, where: str = "") -> int:
    """``value`` as a sampling multiplicity: an integer other than a bool, at least 1.

    ``where`` prefixes the error message.
    """
    multiplicity = _integer_or_none(value)
    if multiplicity is None:
        raise CorpusError(f"{where}multiplicity must be an integer, got {value!r}")
    if multiplicity < 1:
        raise CorpusError(f"{where}multiplicity must be >= 1, got {multiplicity}")
    return multiplicity


@dataclass(frozen=True)
class Transcript:
    """Ordered sequence of token ids. The empty transcript is legal.

    A token id is any integer but a bool (NumPy integers included); a float
    or a string is refused, not rounded or parsed.
    """

    tokens: tuple[int, ...]

    def __post_init__(self):
        given = tuple(self.tokens)
        toks = tuple(map(_integer_or_none, given))
        if None in toks:
            position = toks.index(None)
            raise CorpusError(f"token id {position} must be an integer, got {given[position]!r}")
        if any(t < 0 for t in toks):
            raise CorpusError("token ids must be nonnegative")
        object.__setattr__(self, "tokens", toks)

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self) -> Iterator[int]:
        return iter(self.tokens)


class TokenVocab:
    """Total bijection between token strings and ids 0..size-1."""

    def __init__(self, tokens: Sequence[str]):
        toks = tuple(tokens)
        if not toks:
            raise CorpusError("vocabulary must contain at least one token")
        if len(set(toks)) != len(toks):
            raise CorpusError("duplicate tokens in vocabulary")
        for tok in toks:
            if not tok or any(ch.isspace() for ch in tok):
                raise CorpusError(
                    f"tokens must be nonempty and whitespace-free: {tok!r}"
                )
        self._tokens = toks
        self._ids = {tok: i for i, tok in enumerate(toks)}

    @property
    def size(self) -> int:
        return len(self._tokens)

    @property
    def tokens(self) -> tuple[str, ...]:
        return self._tokens

    def __len__(self) -> int:
        return self.size

    def __contains__(self, token: str) -> bool:
        return token in self._ids

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TokenVocab) and other._tokens == self._tokens

    def id_of(self, token: str) -> int:
        try:
            return self._ids[token]
        except KeyError:
            raise UnknownTokenError(token) from None

    def token_of(self, token_id: int) -> str:
        if not 0 <= token_id < self.size:
            raise CorpusError(f"token id out of range: {token_id}")
        return self._tokens[token_id]

    def encode_tokens(self, tokens: Sequence[str]) -> Transcript:
        return Transcript(tuple(self.id_of(t) for t in tokens))

    def decode(self, transcript: Transcript | Sequence[int]) -> tuple[str, ...]:
        return tuple(self.token_of(t) for t in transcript)


@dataclass(frozen=True)
class TokenDistribution:
    """Normalized token counts over ids 0..vocab_size-1."""

    probs: np.ndarray

    def __post_init__(self):
        arr = np.array(self.probs, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise CorpusError("distribution must be a nonempty vector")
        if np.any(arr < 0) or not np.all(np.isfinite(arr)):
            raise CorpusError("probabilities must be finite and nonnegative")
        if abs(float(arr.sum()) - 1.0) > 1e-9:
            raise CorpusError(f"probabilities must sum to 1, got {arr.sum()!r}")
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    @property
    def vocab_size(self) -> int:
        return int(self.probs.size)

    @classmethod
    def from_counts(cls, counts: Sequence[float] | np.ndarray) -> "TokenDistribution":
        arr = np.asarray(counts, dtype=np.float64)
        total = float(arr.sum())
        if total <= 0:
            raise EmptyInputError("total token count is 0")
        return cls(arr / total)


def token_counts(transcripts: Sequence[Transcript | Sequence[int]], vocab_size: int) -> np.ndarray:
    """``(len(transcripts), vocab_size)`` float64 matrix; row i counts the ids of transcript i.

    Raises CorpusError naming the first id outside ``0..vocab_size-1``.
    """
    lengths = np.fromiter(map(len, transcripts), dtype=np.int64, count=len(transcripts))
    try:
        ids = np.fromiter(chain.from_iterable(transcripts), dtype=np.int64, count=int(lengths.sum()))
    except OverflowError:  # an id beyond int64, refused below like any id outside the vocab
        ids = np.array(list(chain.from_iterable(transcripts)), dtype=object)
    outside = np.flatnonzero((ids < 0) | (ids >= vocab_size))
    if outside.size:
        raise CorpusError(f"token id {ids[outside[0]]} outside vocab of size {vocab_size}")
    rows = np.repeat(np.arange(len(transcripts), dtype=np.int64), lengths)
    flat = np.bincount(rows * vocab_size + ids, minlength=len(transcripts) * vocab_size)
    return flat.reshape(len(transcripts), vocab_size).astype(np.float64)


def token_distribution(
    transcripts: Sequence[Transcript | Sequence[int]],
    vocab_size: int,
    weights: Sequence[int] | None = None,
) -> TokenDistribution:
    """Weighted token unigram distribution of ``transcripts``.

    ``weights`` are sampling multiplicities, defaulting to 1 per transcript.
    Raises EmptyInputError when the weighted token total is 0.
    """
    if weights is not None and len(weights) != len(transcripts):
        raise CorpusError("weights must match transcripts in length")
    counts = token_counts(transcripts, vocab_size)
    if weights is not None:
        counts *= np.array([_multiplicity(w) for w in weights], dtype=np.float64)[:, None]
    return TokenDistribution.from_counts(counts.sum(axis=0))


@dataclass(frozen=True)
class WeightedSample:
    """A sentence selected for training with an integer sampling multiplicity."""

    utterance_id: str
    transcript: Transcript
    multiplicity: int = 1

    def __post_init__(self):
        object.__setattr__(self, "multiplicity", _multiplicity(self.multiplicity))


def string_tokens(tokens: Iterable, error: type[NstError], what: str) -> tuple[str, ...]:
    """``tokens`` as a tuple; a token that is not a string raises ``error`` naming its position."""
    tokens = tuple(tokens)
    for position, token in enumerate(tokens):
        if not isinstance(token, str):
            raise error(f"{what} token {position} must be a string, got {token!r}")
    return tokens


@dataclass(frozen=True, eq=False)
class Utterance:
    """One element of a dataset: features plus optional transcript metadata.

    ``transcript`` is a tuple of token strings (the reference for labeled
    data, the pseudo-label for generated data). ``score`` is the fused decode
    score attached by transcription. Instances are immutable; the feature
    matrix is frozen on construction.

    ``feature_source`` is set by ``load_manifest``: the feature reference and
    the array read from it. ``save_manifest`` references that record while
    ``features`` is still that array, so ``replace`` may carry it along.
    """

    id: str
    features: np.ndarray
    transcript: tuple[str, ...] | None = None
    score: float | None = None
    multiplicity: int = 1
    feature_source: tuple[str, np.ndarray] | None = field(default=None, repr=False)

    def __post_init__(self):
        if not isinstance(self.id, str) or not _SAFE_ID.fullmatch(self.id):
            raise CorpusError(f"{_ID_RULE}, got {self.id!r}")
        feats = np.asarray(self.features, dtype=np.float32)
        if feats.ndim != 2 or feats.shape[0] < 1:
            raise CorpusError(
                f"features must be a 2-d matrix with >= 1 row, got shape {feats.shape}"
            )
        feats.setflags(write=False)
        object.__setattr__(self, "features", feats)
        if self.transcript is not None:
            transcript = string_tokens(self.transcript, CorpusError, f"utterance {self.id!r}:")
            object.__setattr__(self, "transcript", transcript)
        if self.score is not None:
            if isinstance(self.score, bool) or not isinstance(self.score, numbers.Real):
                raise CorpusError(
                    f"utterance {self.id!r}: score must be a number, got {self.score!r}"
                )
            score = float(self.score)
            if not math.isfinite(score):
                raise CorpusError(f"score must be finite, got {score!r}")
            object.__setattr__(self, "score", score)
        object.__setattr__(
            self, "multiplicity", _multiplicity(self.multiplicity, f"utterance {self.id!r}: ")
        )

    @property
    def n_channels(self) -> int:
        return int(self.features.shape[1])


class Dataset:
    """Ordered, immutable collection of utterances.

    Invariants: ids are unique and every utterance shares one channel count.
    """

    def __init__(self, utterances: Iterable[Utterance]):
        utts = tuple(utterances)
        seen: set[str] = set()
        width: int | None = None
        for u in utts:
            if u.id in seen:
                raise CorpusError(f"duplicate utterance id: {u.id!r}")
            seen.add(u.id)
            if width is None:
                width = u.n_channels
            elif u.n_channels != width:
                raise CorpusError(
                    f"inconsistent channel count: {u.n_channels} != {width} (utterance {u.id!r})"
                )
        self._utterances = utts

    def __len__(self) -> int:
        return len(self._utterances)

    def __iter__(self) -> Iterator[Utterance]:
        return iter(self._utterances)

    def __getitem__(self, index: int) -> Utterance:
        return self._utterances[index]

    def ids(self) -> tuple[str, ...]:
        return tuple(u.id for u in self._utterances)

    def total_tokens(self) -> int:
        """Sum of transcript lengths; every utterance must be labeled."""
        total = 0
        for u in self._utterances:
            if u.transcript is None:
                raise MissingTranscriptError(u.id)
            total += len(u.transcript)
        return total

    def strip_labels(self) -> "Dataset":
        """Copy with transcripts and scores removed (an unlabeled view)."""
        return Dataset(
            replace(u, transcript=None, score=None) for u in self._utterances
        )


def _feature_bytes(features: np.ndarray) -> bytes:
    arr = np.ascontiguousarray(features, dtype="<f4")
    if arr.ndim != 2:
        raise CorpusError("features must be 2-d")
    rows, cols = arr.shape
    return FEATURE_MAGIC + struct.pack("<II", rows, cols) + arr.tobytes()


def write_features(path: str | Path, *matrices: np.ndarray) -> None:
    """Write ``matrices`` to ``path`` as feature records laid end to end, atomically."""
    _atomic_write(path, map(_feature_bytes, matrices))


# A reference to one record of a pack: its path, a colon, and its byte offset.
_PACK_REFERENCE = re.compile(r"(.*):([0-9]+)", re.DOTALL)


def _pack_record(reference: str) -> tuple[str, int]:
    """The pack path and byte offset of ``reference``, ``<pack>:<byte offset>``.

    A reference without an offset, as in a manifest written before packs,
    raises FeatureFileError naming it.
    """
    packed = _PACK_REFERENCE.fullmatch(reference)
    if packed is None:
        raise FeatureFileError(
            f"{reference}: not a <pack>:<byte offset> reference "
            "(one .nstf file per utterance is no longer read)"
        )
    return packed[1], int(packed[2])


class _FeatureFiles:
    """Reads feature records from packs, opening each pack once until the reader is closed."""

    def __init__(self):
        self._open: dict[str, tuple[int, int]] = {}

    def __enter__(self) -> "_FeatureFiles":
        return self

    def __exit__(self, *exc_info) -> None:
        for fd, _ in self._open.values():
            os.close(fd)

    def read(self, pack: str, offset: int) -> np.ndarray:
        """The record at byte ``offset`` of ``pack``, as ``read_features`` describes."""
        if pack not in self._open:
            try:
                fd = os.open(pack, os.O_RDONLY)
            except FileNotFoundError:
                raise MissingFeatureFileError(pack) from None
            self._open[pack] = (fd, os.fstat(fd).st_size)
        fd, size = self._open[pack]
        if offset >= size:  # an offset beyond int64 included
            raise FeatureFileError(f"{pack}:{offset}: offset past the end of {size} bytes")
        header = os.pread(fd, 12, offset)
        if len(header) < 12 or header[:4] != FEATURE_MAGIC:
            raise FeatureFileError(f"{pack}:{offset}: not a feature record (bad magic)")
        rows, cols = struct.unpack("<II", header[4:])
        end = offset + 12 + rows * cols * 4
        if end > size:
            raise FeatureFileError(
                f"{pack}:{offset}: truncated feature record ({size - offset} bytes, "
                f"expected {end - offset})"
            )
        data = os.pread(fd, end - offset - 12, offset + 12)
        return np.frombuffer(data, dtype="<f4").reshape(rows, cols)


def read_features(reference: str | Path) -> np.ndarray:
    """The matrix at ``reference``, ``<pack>:<byte offset>``.

    The record must fit in its pack. A reference without an offset raises
    FeatureFileError, and a missing pack MissingFeatureFileError.
    """
    with _FeatureFiles() as files:
        return files.read(*_pack_record(os.fspath(reference)))


def _atomic_write(path: str | Path, chunks: Iterable[bytes]) -> None:
    """Write ``chunks`` in order so readers see the old file or the new one, never a torn one.

    The bytes go to a fresh temp file beside ``path`` (created with the usual
    mode, so the umask applies), which is removed if anything fails.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    handle = open(tmp, "xb")
    try:
        with handle:
            for chunk in chunks:
                handle.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _holds(path: Path, chunks: Iterable[bytes]) -> bool:
    """Whether the file at ``path`` holds exactly ``chunks`` in order."""
    with open(path, "rb") as handle:
        return all(handle.read(len(chunk)) == chunk for chunk in chunks) and not handle.read(1)


def atomic_write_text(path: str | Path, text: str) -> None:
    """``text`` as UTF-8 with newlines kept as written, written atomically."""
    _atomic_write(path, [text.encode("utf-8")])


def _json_text(path: str | Path, records: Iterable[object], **options) -> str:
    """Each of ``records`` as JSON and a newline, for the file ``path``.

    JSON has no NaN or infinity, so a record holding one raises CorpusError
    naming ``path``, before anything is written there.
    """
    encoder = json.JSONEncoder(allow_nan=False, **options)
    try:
        return "".join(encoder.encode(record) + "\n" for record in records)
    except ValueError as exc:
        raise CorpusError(f"{path}: cannot write as JSON ({exc})") from None


def atomic_write_json(path: str | Path, record: object) -> None:
    """``record`` as indented, key-sorted JSON and a newline, written atomically."""
    atomic_write_text(path, _json_text(path, [record], sort_keys=True, indent=2))


def text_lines(path: str | Path, error: type[NstError]) -> Iterator[str]:
    """Each line of the UTF-8 text file ``path``, newline included, read one at a time.

    Lines end at newline bytes only. A line that is not UTF-8 raises ``error`` (for
    ManifestError, one carrying the line number), saying ``{path}: line N: not UTF-8 at
    byte M (reason)`` with the line and the byte in it counted from 1.
    """
    with open(path, "rb") as handle:
        for line_number, raw in enumerate(handle, 1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                reason = f"not UTF-8 at byte {exc.start + 1} ({exc.reason})"
                if issubclass(error, ManifestError):
                    raise ManifestError(path, line_number, reason) from None
                raise error(f"{path}: line {line_number}: {reason}") from None
            yield line


def read_json(path: str | Path, build: Callable[[object], object], error: type[NstError]) -> object:
    """``build`` of the JSON document in ``path``, which is how every record file is read.

    A file that is not UTF-8 raises ``error`` as ``text_lines`` does. A file that does not
    parse, or an NstError that ``build`` raises, is raised again as ``error``, naming
    ``path`` once, first; the builder's error is its ``__cause__``.
    """
    text = "".join(text_lines(path, error))
    try:
        document = json.loads(text)
    except ValueError as exc:
        raise error(f"{path}: invalid JSON ({exc})") from None
    try:
        return build(document)
    except NstError as exc:
        raise error(f"{path}: {exc}") from exc


def write_jsonl(path: str | Path, records: Iterable[Mapping]) -> None:
    """``records`` as JSON Lines, one object and a newline each, written atomically."""
    atomic_write_text(path, _json_text(path, records, ensure_ascii=False))


def read_jsonl(
    path: str | Path, spec: Mapping, what: str, build: Callable[[dict, int], object],
    required: Collection[str] = (),
) -> list:
    """``build(record, line number)`` of each nonblank line, in file order.

    Each line of ``text_lines`` goes through ``read_record`` with ``spec`` and is built before
    the next is read, so a file's records are never all held at once. Every list in a manifest or
    hypotheses line is a token list, so it must hold only strings, and every number must be
    finite. A line that is not UTF-8, invalid JSON or a failed check raises ManifestError naming
    the file and the 1-based line.
    """
    built = []
    for line_number, line in enumerate(text_lines(path, ManifestError), 1):
        if not line.strip():
            continue
        try:
            record = read_record(json.loads(line), spec, CorpusError, what, required)
        except json.JSONDecodeError as exc:
            raise ManifestError(path, line_number, f"invalid JSON ({exc.msg})") from None
        except CorpusError as exc:
            raise ManifestError(path, line_number, str(exc)) from None
        for key, value in record.items():
            if type(value) is float:
                if not math.isfinite(value):
                    raise ManifestError(path, line_number, f"{what}: {key} must be finite")
            elif type(value) is list:
                for token in value:
                    if type(token) is not str:
                        raise ManifestError(path, line_number, f"{what}: non-string in {key}")
        built.append(build(record, line_number))
    return built


def _manifest_record(u: Utterance, features: str) -> dict:
    """The manifest line of ``u``, whose features are at ``features`` relative to the manifest."""
    record: dict[str, object] = {"id": u.id, "features": features}
    if u.transcript is not None:
        record["transcript"] = list(u.transcript)
    if u.score is not None:
        record["score"] = u.score
    if u.multiplicity != 1:
        record["multiplicity"] = u.multiplicity
    return record


def save_manifest(dataset: Dataset, path: str | Path) -> None:
    """Write ``dataset`` as a JSONL manifest plus a binary feature pack.

    An utterance whose features are still the array ``load_manifest`` read
    references that record by a path relative to the manifest. Every other
    feature matrix is written, in dataset order, to the pack ``<stem>.nstp``
    next to the manifest and referenced as ``<stem>.nstp:<byte offset>``. The
    pack is written before the manifest, and each is replaced atomically.
    Other manifests may reference an existing pack, so a fresh one may not
    replace an existing file with different bytes: such a save is refused
    before anything is written. An identical existing pack is left in place.
    """
    manifest_path = Path(path)
    manifest_dir = os.path.abspath(manifest_path.parent)
    pack_name = manifest_path.stem + ".nstp"
    fresh: list[np.ndarray] = []
    offset = 0
    references = []
    # Each source directory's path relative to the manifest directory; the
    # joined result is what os.path.relpath gives for each record.
    relative_dirs: dict[str, str] = {}
    for u in dataset:
        source = u.feature_source
        if source is not None and source[1] is u.features:
            directory, name = os.path.split(source[0])
            if directory not in relative_dirs:
                relative_dirs[directory] = os.path.relpath(directory or os.curdir, manifest_dir)
            relative_dir = relative_dirs[directory]
            rel = name if relative_dir == os.curdir else os.path.join(relative_dir, name)
        else:
            rel = f"{pack_name}:{offset}"
            fresh.append(u.features)
            offset += 12 + 4 * u.features.size
        references.append(rel)
    if fresh:
        pack = manifest_path.with_name(pack_name)
        if not pack.exists():
            write_features(pack, *fresh)
        elif not _holds(pack, map(_feature_bytes, fresh)):
            raise CorpusError(
                f"refusing to overwrite {pack}: it holds other features, "
                "which other manifests may reference"
            )
    write_jsonl(manifest_path, map(_manifest_record, dataset, references))


def load_manifest(path: str | Path) -> Dataset:
    """Load a JSONL manifest, reading feature records relative to it.

    Utterance order follows manifest order. A malformed line raises
    ManifestError with its 1-based line number before its record is read, as
    does a feature reference without a byte offset, and a record holding NaN
    or an infinity raises one naming the utterance; a dangling feature
    reference raises MissingFeatureFileError naming the resolved pack, and a
    bad offset FeatureFileError naming the reference. Each pack is opened once
    per load, and its records are read one at a time.
    """
    manifest_path = Path(path)
    manifest_dir = os.path.abspath(manifest_path.parent)

    def utterance(record: dict, line_number: int) -> Utterance:
        if not _SAFE_ID.fullmatch(record["id"]):
            raise ManifestError(manifest_path, line_number, f"{_ID_RULE}, got {record['id']!r}")
        if record.get("multiplicity", 1) < 1:
            raise ManifestError(manifest_path, line_number, "multiplicity must be >= 1")
        reference = os.path.join(manifest_dir, record["features"])
        try:
            pack, offset = _pack_record(reference)
        except FeatureFileError as exc:
            raise ManifestError(manifest_path, line_number, str(exc)) from None
        features = files.read(pack, offset)
        if not np.isfinite(features).all():
            raise ManifestError(manifest_path, line_number,
                                f"utterance {record['id']}: features hold a non-finite value")
        return Utterance(
            id=record["id"],
            features=features,
            transcript=record.get("transcript"),
            score=record.get("score"),
            multiplicity=record.get("multiplicity", 1),
            feature_source=(reference, features),
        )

    with _FeatureFiles() as files:
        return Dataset(read_jsonl(manifest_path, _MANIFEST_SPEC, "manifest record", utterance,
                                  required=("id", "features")))


def save_vocab(vocab: TokenVocab, path: str | Path) -> None:
    atomic_write_text(path, "\n".join(vocab.tokens) + "\n")


def load_vocab(path: str | Path) -> TokenVocab:
    """One token per line; the line index is the token id, so no line may be blank.

    Every refusal raises CorpusError naming ``path``.
    """
    lines = "".join(text_lines(path, CorpusError)).splitlines()
    for line_number, line in enumerate(lines, 1):
        if not line.strip():
            raise CorpusError(f"{path}: line {line_number}: blank line in vocabulary")
    try:
        return TokenVocab(lines)
    except CorpusError as exc:
        raise CorpusError(f"{path}: {exc}") from exc
