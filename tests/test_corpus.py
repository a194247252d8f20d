import json
import os
import re
import tempfile
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nst import corpus
from nst.corpus import (
    CorpusError,
    Dataset,
    EmptyInputError,
    ManifestError,
    MissingFeatureFileError,
    FeatureFileError,
    TokenDistribution,
    TokenVocab,
    Transcript,
    Utterance,
    WeightedSample,
    atomic_write_json,
    atomic_write_text,
    load_manifest,
    load_vocab,
    read_features,
    read_json,
    read_jsonl,
    save_manifest,
    save_vocab,
    token_counts,
    token_distribution,
    write_features,
    write_jsonl,
)
from nst.corpus import UnknownTokenError
from nst.errors import NstError, read_record

from conftest import assert_datasets_equal


class TestEncodeTokens:
    def test_direct_mapping(self, ab_vocab):
        assert ab_vocab.encode_tokens(["a", "b", "a"]) == Transcript((0, 1, 0))

    def test_no_tokens(self, ab_vocab):
        assert ab_vocab.encode_tokens([]) == Transcript(())

    def test_unknown_token_named(self, ab_vocab):
        with pytest.raises(UnknownTokenError) as err:
            ab_vocab.encode_tokens(["a", "c"])
        assert err.value.token == "c"

    @given(st.lists(st.sampled_from(["a", "b", "cc", "dd"]), max_size=20))
    def test_roundtrip_identity(self, words):
        vocab = TokenVocab(["a", "b", "cc", "dd"])
        assert vocab.decode(vocab.encode_tokens(words)) == tuple(words)


class TestVocab:
    def test_bijection(self):
        vocab = TokenVocab(["x", "y", "z"])
        assert vocab.size == 3
        for i, tok in enumerate(vocab.tokens):
            assert vocab.id_of(tok) == i
            assert vocab.token_of(i) == tok

    def test_duplicates_rejected(self):
        with pytest.raises(CorpusError):
            TokenVocab(["a", "a"])

    def test_whitespace_rejected(self):
        with pytest.raises(CorpusError):
            TokenVocab(["a b"])

    def test_file_roundtrip(self, tmp_path):
        vocab = TokenVocab([f"tok{i}" for i in range(5)])
        save_vocab(vocab, tmp_path / "vocab.txt")
        assert load_vocab(tmp_path / "vocab.txt") == vocab

    def test_blank_line_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("a\n\nb\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="line 2"):
            load_vocab(path)

    @pytest.mark.parametrize(
        "data, reason",
        [(b"a\nb\na\n", "duplicate tokens in vocabulary"),
         (b"", "vocabulary must contain at least one token"),
         (b"a\nb c\n", "tokens must be nonempty and whitespace-free: 'b c'"),
         (b"a\n\nb\n", "line 2: blank line in vocabulary"),
         (b"a\n\xff\n", "line 2: not UTF-8 at byte 1 (invalid start byte)")],
        ids=["duplicate", "empty", "whitespace", "blank-line", "not-utf-8"],
    )
    def test_every_refusal_names_the_file(self, tmp_path, data, reason):
        # A duplicate once read "duplicate tokens in vocabulary", naming no file.
        path = tmp_path / "vocab.txt"
        path.write_bytes(data)
        with pytest.raises(CorpusError) as refused:
            load_vocab(path)
        assert str(refused.value).startswith(f"{path}: {reason}")


class TestTokenDistribution:
    def test_symmetric_counts(self):
        dist = token_distribution([Transcript((0, 1)), Transcript((0, 1))], 2)
        assert dist.probs.tolist() == [0.5, 0.5]

    def test_direct_count(self):
        dist = token_distribution([Transcript((0, 0, 1))], 2)
        assert dist.probs.tolist() == pytest.approx([2 / 3, 1 / 3])

    def test_weighted_count(self):
        dist = token_distribution([Transcript((0,)), Transcript((1,))], 2, weights=[3, 1])
        assert dist.probs.tolist() == [0.75, 0.25]

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            token_distribution([Transcript(())], 2)

    @pytest.mark.parametrize("weight", [2.7, True], ids=["float", "bool"])
    def test_non_integer_weight_refused(self, weight):
        # Truncated or read as 1, the weight would count the transcript a wrong number of times.
        with pytest.raises(CorpusError, match=f"multiplicity must be an integer, got {weight!r}"):
            token_distribution([Transcript((0,)), Transcript((1,))], 2, weights=[1, weight])

    @given(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=4), max_size=6),
            min_size=1,
            max_size=10,
        ).filter(lambda ts: any(ts_entry for ts_entry in ts))
    )
    @settings(max_examples=50)
    def test_sums_to_one(self, sequences):
        dist = token_distribution([Transcript(tuple(s)) for s in sequences], 5)
        assert abs(float(dist.probs.sum()) - 1.0) <= 1e-9

    @given(
        st.lists(
            st.tuples(
                st.lists(st.integers(min_value=0, max_value=6), max_size=8),
                st.integers(min_value=1, max_value=5),
            ),
            min_size=1,
            max_size=12,
        ).filter(lambda rows: any(tokens for tokens, _ in rows))
    )
    @settings(max_examples=100)
    def test_counts_match_a_plain_counter(self, rows):
        transcripts = [Transcript(tuple(tokens)) for tokens, _ in rows]
        weights = [weight for _, weight in rows]
        counts = token_counts(transcripts, 7)
        assert counts.shape == (len(rows), 7) and counts.dtype == np.float64
        for row, (tokens, _) in zip(counts, rows):
            assert row.tolist() == [Counter(tokens)[t] for t in range(7)]
        naive = Counter()
        for tokens, weight in rows:
            for t in tokens:
                naive[t] += weight
        total = sum(naive.values())
        expected = np.array([naive[t] for t in range(7)], dtype=np.float64) / total
        assert token_distribution(transcripts, 7, weights).probs.tobytes() == expected.tobytes()

    def test_counts_of_no_transcripts(self):
        assert token_counts([], 3).shape == (0, 3)
        assert token_counts([Transcript(())], 3).tolist() == [[0.0, 0.0, 0.0]]

    @pytest.mark.parametrize("ids", [(0, 3, 5), (1, -1), (2**70,)],
                             ids=["too-large", "negative", "beyond-int64"])
    def test_id_outside_vocab_named(self, ids):
        bad = next(t for t in ids if not 0 <= t < 3)
        with pytest.raises(CorpusError, match=f"token id {bad} outside vocab of size 3"):
            token_distribution([Transcript((0, 1)), ids], 3)

    def test_invalid_distribution_rejected(self):
        with pytest.raises(CorpusError):
            TokenDistribution(np.array([0.5, 0.4]))
        with pytest.raises(CorpusError):
            TokenDistribution(np.array([1.5, -0.5]))


class TestTypes:
    def test_transcript_negative_id(self):
        with pytest.raises(CorpusError):
            Transcript((-1,))

    @pytest.mark.parametrize(
        "tokens, position",
        [((1.7, True, "3"), 0), ((0, True), 1), ((0, 1, "3"), 2), ((np.float64(2.0),), 0),
         ((np.True_,), 0)],
    )
    def test_transcript_refuses_a_token_id_that_is_not_an_integer(self, tokens, position):
        # int() once turned (1.7, True, '3') into (1, 1, 3) and raised nothing.
        refusal = f"token id {position} must be an integer, got {tokens[position]!r}"
        with pytest.raises(CorpusError, match=re.escape(refusal)):
            Transcript(tokens)

    def test_transcript_accepts_numpy_integers(self):
        transcript = Transcript((np.int64(3), np.uint8(2), 0))
        assert transcript.tokens == (3, 2, 0)
        assert all(type(t) is int for t in transcript.tokens)

    @pytest.mark.parametrize(
        "field, value",
        [("multiplicity", 2.7), ("multiplicity", True), ("multiplicity", "2"),
         ("score", True), ("score", "1.5"), ("score", np.True_)],
    )
    def test_utterance_refuses_a_coerced_multiplicity_or_score(self, field, value):
        # multiplicity=2.7 once became 2, and score=True became 1.0.
        with pytest.raises(CorpusError, match=f"'u': {field} must be an? (integer|number)"):
            Utterance(id="u", features=np.ones((1, 2)), **{field: value})

    def test_utterance_accepts_numpy_numbers(self):
        u = Utterance(id="u", features=np.ones((1, 2)), score=np.float32(0.5),
                      multiplicity=np.int64(3))
        assert (u.score, u.multiplicity) == (0.5, 3)
        assert type(u.score) is float and type(u.multiplicity) is int

    def test_weighted_sample_multiplicity(self):
        with pytest.raises(CorpusError):
            WeightedSample("u", Transcript((0,)), 0)

    @pytest.mark.parametrize("multiplicity", [2.7, True], ids=["float", "bool"])
    def test_weighted_sample_refuses_a_non_integer_multiplicity(self, multiplicity):
        with pytest.raises(CorpusError, match=f"must be an integer, got {multiplicity!r}"):
            WeightedSample("u", Transcript((0,)), multiplicity)

    def test_weighted_sample_accepts_numpy_integers(self):
        sample = WeightedSample("u", Transcript((0,)), np.int64(3))
        assert sample.multiplicity == 3 and type(sample.multiplicity) is int

    @pytest.mark.parametrize(
        "utterance_id", ["", "spk 1/utt", "a\tb", "u1\n", "ü", 7, None],
        ids=["empty", "space-and-slash", "tab", "trailing-newline", "non-ascii", "int", "none"],
    )
    def test_utterance_refuses_an_id_outside_the_id_characters(self, utterance_id):
        with pytest.raises(CorpusError, match="utterance id must be a nonempty string of"):
            Utterance(id=utterance_id, features=np.ones((1, 2)))

    def test_utterance_needs_rows(self):
        with pytest.raises(CorpusError):
            Utterance(id="u", features=np.zeros((0, 3)))

    def test_utterance_features_frozen(self):
        u = Utterance(id="u", features=np.ones((2, 2)))
        with pytest.raises(ValueError):
            u.features[0, 0] = 5.0

    @pytest.mark.parametrize(
        "transcript, position, value",
        [((1, None), 0, "1"), (("a", None), 1, "None"), (("a", b"b"), 1, "b'b'")],
    )
    def test_utterance_refuses_a_token_that_is_not_a_string(self, transcript, position, value):
        # str() once turned (1, None) into ('1', 'None') and raised nothing.
        refusal = f"'u': token {position} must be a string, got {value}"
        with pytest.raises(CorpusError, match=refusal):
            Utterance(id="u", features=np.ones((1, 2)), transcript=transcript)

    def test_dataset_unique_ids(self):
        u = Utterance(id="u", features=np.ones((1, 2)))
        with pytest.raises(CorpusError):
            Dataset([u, Utterance(id="u", features=np.ones((1, 2)))])

    def test_dataset_consistent_channels(self):
        with pytest.raises(CorpusError):
            Dataset(
                [
                    Utterance(id="a", features=np.ones((1, 2))),
                    Utterance(id="b", features=np.ones((1, 3))),
                ]
            )

    def test_strip_labels(self, small_dataset):
        stripped = small_dataset.strip_labels()
        assert all(u.transcript is None and u.score is None for u in stripped)
        assert stripped.ids() == small_dataset.ids()


def _record_opens(monkeypatch) -> list:
    """The paths ``nst.corpus`` passes to ``os.open`` from now on, in call order."""
    opened = []
    real_open = os.open

    def record(path, *args, **kwargs):
        opened.append(path)
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr("nst.corpus.os.open", record)
    return opened


class TestFeatureFiles:
    def test_roundtrip(self, tmp_path):
        matrix = np.arange(12, dtype=np.float32).reshape(3, 4)
        write_features(tmp_path / "f.nstp", matrix)
        assert np.array_equal(read_features(tmp_path / "f.nstp:0"), matrix)

    def test_header_layout(self, tmp_path):
        write_features(tmp_path / "f.nstp", np.zeros((2, 3), dtype=np.float32))
        raw = (tmp_path / "f.nstp").read_bytes()
        assert raw[:4] == b"NSTF"
        assert raw[4:8] == (2).to_bytes(4, "little")
        assert raw[8:12] == (3).to_bytes(4, "little")
        assert len(raw) == 12 + 2 * 3 * 4

    def test_bad_magic(self, tmp_path):
        (tmp_path / "junk.nstp").write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(FeatureFileError, match="bad magic"):
            read_features(tmp_path / "junk.nstp:0")

    def test_truncated(self, tmp_path):
        write_features(tmp_path / "f.nstp", np.zeros((2, 3), dtype=np.float32))
        raw = (tmp_path / "f.nstp").read_bytes()
        (tmp_path / "f.nstp").write_bytes(raw[:-4])
        with pytest.raises(FeatureFileError, match="truncated"):
            read_features(tmp_path / "f.nstp:0")

    def test_missing(self, tmp_path):
        with pytest.raises(MissingFeatureFileError):
            read_features(tmp_path / "absent.nstp:0")

    def test_failed_replace_leaves_no_file(self, tmp_path, monkeypatch):
        # A torn pack would make the overwrite guard refuse to re-run the same save.
        def fail_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("nst.corpus.os.replace", fail_replace)
        with pytest.raises(OSError, match="disk full"):
            write_features(tmp_path / "f.nstf", np.zeros((2, 3), dtype=np.float32))
        assert list(tmp_path.iterdir()) == []

    def test_pack_records_lie_end_to_end(self, tmp_path):
        matrices = [np.arange(n * 2, dtype=np.float32).reshape(n, 2) for n in (1, 3, 2)]
        write_features(tmp_path / "p.nstp", *matrices)
        raw = (tmp_path / "p.nstp").read_bytes()
        offsets = [0, 12 + 8, 12 + 8 + 12 + 24]
        assert len(raw) == offsets[-1] + 12 + 16
        for offset, matrix in zip(offsets, matrices):
            assert raw[offset:offset + 4] == b"NSTF"
            assert np.array_equal(read_features(f"{tmp_path / 'p.nstp'}:{offset}"), matrix)
        # A reference is always to one record: a pack named without an offset is refused.
        with pytest.raises(FeatureFileError, match="not a <pack>:<byte offset> reference"):
            read_features(tmp_path / "p.nstp")

    @pytest.mark.parametrize(
        "offset, named",
        [("36", "offset past the end"), ("4", "bad magic"), ("20", "truncated"),
         ("9" * 30, "offset past the end"), (str(2**63), "offset past the end")],
        ids=["past-end", "off-magic", "record-past-end", "huge", "int64-max-plus-1"],
    )
    def test_bad_offset_is_refused_naming_the_reference(self, tmp_path, offset, named):
        # Two 20-byte records, the second cut short by one value.
        write_features(tmp_path / "p.nstp", np.zeros((1, 2)), np.zeros((1, 2)))
        (tmp_path / "p.nstp").write_bytes((tmp_path / "p.nstp").read_bytes()[:-4])
        reference = f"{tmp_path / 'p.nstp'}:{offset}"
        with pytest.raises(FeatureFileError) as err:
            read_features(reference)
        assert reference in str(err.value) and named in str(err.value)

    def test_missing_pack_names_the_pack(self, tmp_path):
        with pytest.raises(MissingFeatureFileError) as err:
            read_features(f"{tmp_path / 'absent.nstp'}:0")
        assert err.value.path == str(tmp_path / "absent.nstp")

    @pytest.mark.parametrize("bad_line", [1, 3])
    def test_a_reference_without_an_offset_is_refused_before_any_open(
        self, tmp_path, small_dataset, monkeypatch, bad_line
    ):
        # A manifest written before packs referenced one .nstf file per utterance.
        write_features(tmp_path / "u-1.nstf", small_dataset[0].features)
        with pytest.raises(FeatureFileError, match="u-1.nstf: not a <pack>:<byte offset>"):
            read_features(tmp_path / "u-1.nstf")
        path = tmp_path / "data.jsonl"
        save_manifest(small_dataset, path)
        lines = path.read_text().splitlines()
        lines[bad_line - 1] = json.dumps({**json.loads(lines[bad_line - 1]), "features": "u-1.nstf"})
        path.write_text("\n".join(lines) + "\n")
        opened = _record_opens(monkeypatch)
        with pytest.raises(ManifestError) as err:
            load_manifest(path)
        assert err.value.line_number == bad_line
        assert str(err.value) == (
            f"{path}: line {bad_line}: {tmp_path / 'u-1.nstf'}: not a <pack>:<byte offset> "
            "reference (one .nstf file per utterance is no longer read)"
        )
        # The lines before it read their records; the refused line opens no file.
        assert opened == ([] if bad_line == 1 else [str(tmp_path / "data.nstp")])


class TestManifests:
    def test_roundtrip_identity(self, tmp_path, small_dataset):
        path = tmp_path / "data.jsonl"
        save_manifest(small_dataset, path)
        assert_datasets_equal(load_manifest(path), small_dataset)

    def test_roundtrip_preserves_optional_fields(self, tmp_path):
        dataset = Dataset(
            [
                Utterance(id="u1", features=np.ones((2, 2)), transcript=(), score=-1.25),
                Utterance(id="u2", features=np.ones((3, 2)), multiplicity=2),
            ]
        )
        path = tmp_path / "data.jsonl"
        save_manifest(dataset, path)
        loaded = load_manifest(path)
        assert_datasets_equal(loaded, dataset)
        assert loaded[0].transcript == ()
        assert loaded[1].transcript is None

    def test_malformed_line_cites_line_number(self, tmp_path, small_dataset):
        path = tmp_path / "data.jsonl"
        save_manifest(small_dataset, path)
        lines = path.read_text().splitlines()
        lines[2] = "{not json"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ManifestError) as err:
            load_manifest(path)
        assert err.value.line_number == 3

    def test_missing_feature_file_names_path(self, tmp_path, small_dataset):
        path = tmp_path / "data.jsonl"
        save_manifest(small_dataset, path)
        victim = tmp_path / "data.nstp"
        victim.unlink()
        with pytest.raises(MissingFeatureFileError) as err:
            load_manifest(path)
        assert err.value.path == str(victim)

    @pytest.mark.parametrize(
        "offset", ["312", "4", str(2**64)], ids=["past-end", "off-magic", "beyond-int64"]
    )
    def test_bad_offset_in_a_manifest_fails_at_load(self, tmp_path, small_dataset, offset):
        path = tmp_path / "data.jsonl"
        save_manifest(small_dataset, path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[2])
        record["features"] = f"data.nstp:{offset}"
        lines[2] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FeatureFileError, match=re.escape(f"data.nstp:{offset}")):
            load_manifest(path)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                             ids=["nan", "inf", "-inf"])
    def test_non_finite_features_fail_at_load(self, tmp_path, small_dataset, value):
        # Such a record once loaded, and training or decoding on it failed later.
        utterances = list(small_dataset)
        features = utterances[2].features.copy()
        features[1, 2] = value
        utterances[2] = replace(utterances[2], features=features)
        path = tmp_path / "data.jsonl"
        save_manifest(Dataset(utterances), path)
        with pytest.raises(ManifestError, match="utterance u-2: .*non-finite") as err:
            load_manifest(path)
        assert err.value.line_number == 3
        assert str(err.value).startswith(f"{path}: line 3: ")

    def test_schema_violations(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text(json.dumps({"features": "x.nstf"}) + "\n")
        with pytest.raises(ManifestError):
            load_manifest(path)
        path.write_text(json.dumps({"id": "u", "features": "x.nstf", "multiplicity": 0}) + "\n")
        with pytest.raises(ManifestError):
            load_manifest(path)

    @pytest.mark.parametrize(
        "record, named",
        [
            ({"id": "u1", "features": "f.nstf", "score": True, "multiplicity": True, "scroe": 3},
             "unknown manifest record: scroe"),
            ({"id": "u1", "features": "f.nstf", "score": True}, "score must be a number or null"),
            ({"id": "u1", "features": "f.nstf", "multiplicity": True},
             "multiplicity must be an integer"),
            ({"id": "u1", "features": "f.nstf", "multiplicity": 2.0},
             "multiplicity must be an integer"),
            ({"id": "u1", "features": "f.nstf", "score": "1.5"}, "score must be a number or null"),
            ({"id": 7, "features": "f.nstf"}, "id must be a string"),
            ({"id": "", "features": "f.nstf"}, "utterance id must be"),
            ({"id": "spk 1/utt", "features": "f.nstf"}, "utterance id must be.*'spk 1/utt'"),
            ({"id": "u1\t2", "features": "f.nstf"}, "utterance id must be"),
            ({"id": "u1", "features": "f.nstf", "transcript": "ab"}, "transcript must be a list"),
            ({"id": "u1", "features": "f.nstf", "transcript": ["a", 1]},
             "non-string in transcript"),
            ({"id": "u1", "features": "f.nstf", "score": float("nan")}, "score must be finite"),
            ({"id": "u1"}, "missing from manifest record: features"),
            (["u1", "f.nstf"], "manifest record must be a mapping"),
        ],
        ids=["found-record", "bool-score", "bool-multiplicity", "float-multiplicity",
             "string-score", "int-id", "empty-id", "unsafe-id", "tab-id", "string-transcript",
             "int-token", "nan-score", "missing-features", "list-record"],
    )
    def test_mistyped_lines_refused_naming_line_and_key(self, tmp_path, record, named):
        # Each would otherwise load as another utterance; no feature file exists, so the
        # refusal must come before any is read.
        path = tmp_path / "data.jsonl"
        path.write_text("\n" + json.dumps(record) + "\n")
        with pytest.raises(ManifestError, match=named) as err:
            load_manifest(path)
        assert err.value.line_number == 2
        assert str(path) in str(err.value)

    def test_ids_of_every_allowed_character_round_trip(self, tmp_path):
        # The one id rule holds at construction, load and save alike, so a manifest that
        # loads can be saved again.
        ids = ["ABCXYZ", "abcxyz", "0189", "spk-1_utt.2", ".", "_", "-"]
        dataset = Dataset(Utterance(id=i, features=np.ones((1, 2))) for i in ids)
        save_manifest(dataset, tmp_path / "a.jsonl")
        loaded = load_manifest(tmp_path / "a.jsonl")
        save_manifest(loaded, tmp_path / "b.jsonl")
        assert load_manifest(tmp_path / "b.jsonl").ids() == tuple(ids)

    def test_manifest_is_jsonl_with_relative_features(self, tmp_path, small_dataset):
        path = tmp_path / "data.jsonl"
        save_manifest(small_dataset, path)
        for line in path.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            assert not record["features"].startswith("/")
            assert set(record) <= {"id", "features", "transcript", "score", "multiplicity"}

    def test_derived_manifest_references_source_sidecars(self, tmp_path, small_dataset):
        source = tmp_path / "in" / "data.jsonl"
        source.parent.mkdir()
        save_manifest(small_dataset, source)
        loaded = load_manifest(source)
        derived = tmp_path / "out" / "derived.jsonl"
        derived.parent.mkdir()
        save_manifest(loaded, derived)
        assert list(derived.parent.iterdir()) == [derived]
        references = [json.loads(line)["features"]
                      for line in derived.read_text(encoding="utf-8").splitlines()]
        assert references == [f"../in/data.nstp:{o}" for o in (0, 60, 132, 216)]
        for a, b in zip(load_manifest(derived), small_dataset):
            assert a.features.tobytes() == b.features.astype(np.float32).tobytes()

    @pytest.mark.parametrize(
        "manifest",
        ["derived.jsonl", "task/derived.jsonl", "task/sub/derived.jsonl",
         "out/derived.jsonl", "out/deeper/derived.jsonl"],
        ids=["parent-dir", "own-dir", "child-dir", "other-tree", "deeper-tree"],
    )
    def test_sidecar_references_are_the_relpath_of_each_sidecar(
        self, tmp_path, small_dataset, manifest
    ):
        # Relative paths are computed once per pack directory; each must still
        # be exactly os.path.relpath of its record, with no "./" in the manifest's
        # own directory.
        task = tmp_path / "task"
        task.mkdir()
        save_manifest(Dataset(small_dataset[:2]), task / "a.jsonl")
        save_manifest(Dataset(small_dataset[2:]), task / "b.jsonl")
        loaded = [*load_manifest(task / "a.jsonl"), *load_manifest(task / "b.jsonl")]
        path = tmp_path / manifest
        path.parent.mkdir(parents=True, exist_ok=True)
        save_manifest(Dataset(loaded), path)
        records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        expected = [os.path.relpath(u.feature_source[0], path.parent) for u in loaded]
        assert [r["features"] for r in records] == expected
        if manifest == "task/derived.jsonl":
            assert expected == ["a.nstp:0", "a.nstp:60", "b.nstp:0", "b.nstp:84"]
        assert_datasets_equal(load_manifest(path), small_dataset)

    def test_replaced_features_get_their_own_sidecar(self, tmp_path, small_dataset):
        source = tmp_path / "data.jsonl"
        save_manifest(small_dataset, source)
        loaded = load_manifest(source)
        changed = replace(loaded[1], features=loaded[1].features + 1)
        derived = tmp_path / "derived.jsonl"
        save_manifest(Dataset([loaded[0], changed]), derived)
        references = [json.loads(line)["features"] for line in derived.read_text().splitlines()]
        assert references == ["data.nstp:0", "derived.nstp:0"]
        assert (tmp_path / "derived.nstp").stat().st_size == 72
        reloaded = load_manifest(derived)
        assert np.array_equal(reloaded[0].features, loaded[0].features)
        assert np.array_equal(reloaded[1].features, loaded[1].features + 1)

    def test_each_pack_is_opened_once_per_load(self, tmp_path, small_dataset, monkeypatch):
        # Records are read one at a time from packs held open for the load.
        source = tmp_path / "data.jsonl"
        save_manifest(small_dataset, source)
        derived = Dataset(replace(u, features=u.features + 1) if i % 2 else u
                          for i, u in enumerate(load_manifest(source)))
        save_manifest(derived, tmp_path / "derived.jsonl")
        opened = _record_opens(monkeypatch)
        reloaded = load_manifest(tmp_path / "derived.jsonl")
        assert sorted(opened) == [str(tmp_path / "data.nstp"), str(tmp_path / "derived.nstp")]
        assert_datasets_equal(reloaded, derived)

    def test_overwriting_a_loaded_sidecar_is_refused_before_any_write(
        self, tmp_path, small_dataset
    ):
        path = tmp_path / "data.jsonl"
        save_manifest(small_dataset, path)
        loaded = load_manifest(path)
        fresh = Utterance(id="new", features=np.ones((2, 3)))
        changed = replace(loaded[1], features=loaded[1].features + 1)
        before = path.read_bytes()
        pack_before = (tmp_path / "data.nstp").read_bytes()
        with pytest.raises(CorpusError, match="refusing to overwrite .*data.nstp"):
            save_manifest(Dataset([fresh, changed]), path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.jsonl", "data.nstp"]
        assert (tmp_path / "data.nstp").read_bytes() == pack_before
        assert path.read_bytes() == before
        assert_datasets_equal(load_manifest(path), small_dataset)

    def test_failed_save_leaves_previous_manifest(self, tmp_path, small_dataset, monkeypatch):
        path = tmp_path / "data.jsonl"
        save_manifest(small_dataset, path)
        before = path.read_bytes()

        def fail_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("nst.corpus.os.replace", fail_replace)
        with pytest.raises(OSError):
            save_manifest(small_dataset.strip_labels(), path)
        assert path.read_bytes() == before


    def test_identical_pack_is_left_in_place_and_a_differing_one_refused(
        self, tmp_path, small_dataset
    ):
        path = tmp_path / "data.jsonl"
        save_manifest(small_dataset, path)
        pack = tmp_path / "data.nstp"
        inode = pack.stat().st_ino
        save_manifest(small_dataset, path)
        assert pack.stat().st_ino == inode
        # Same shapes, so the same size, but other values.
        shifted = Dataset(replace(u, features=u.features + 1) for u in small_dataset)
        before = path.read_bytes()
        with pytest.raises(CorpusError, match="refusing to overwrite"):
            save_manifest(shifted, path)
        assert pack.stat().st_ino == inode and path.read_bytes() == before
        assert_datasets_equal(load_manifest(path), small_dataset)

    @pytest.mark.parametrize("failure", ["replace", "write"])
    def test_failed_pack_save_leaves_no_pack_and_the_previous_manifest(
        self, tmp_path, small_dataset, monkeypatch, failure
    ):
        source = tmp_path / "in" / "data.jsonl"
        source.parent.mkdir()
        save_manifest(small_dataset, source)
        out = tmp_path / "out"
        out.mkdir()
        path = out / "data.jsonl"
        save_manifest(load_manifest(source), path)
        before = path.read_bytes()

        if failure == "replace":
            def fail_replace(src, dst):
                raise OSError("disk full")

            monkeypatch.setattr("nst.corpus.os.replace", fail_replace)
        else:
            # The third record fails after two were streamed to the temp file.
            real = corpus._feature_bytes
            calls = iter(range(100))

            def fail_third(features):
                if next(calls) == 2:
                    raise OSError("disk full")
                return real(features)

            monkeypatch.setattr("nst.corpus._feature_bytes", fail_third)
        with pytest.raises(OSError, match="disk full"):
            save_manifest(small_dataset, path)
        assert [p.name for p in out.iterdir()] == ["data.jsonl"]
        assert path.read_bytes() == before


@given(
    st.lists(st.integers(1, 6), min_size=1, max_size=6),
    st.integers(1, 4),
    st.lists(st.booleans(), min_size=6, max_size=6),
    st.sampled_from(["derived.jsonl", "task/derived.jsonl", "task/sub/derived.jsonl",
                     "out/derived.jsonl"]),
)
@settings(max_examples=40, deadline=None)
def test_pack_round_trip_over_random_shapes(frames, cols, replaced, manifest):
    # A fresh save, then a derived save elsewhere that replaces some rows'
    # features: every row reads back bit for bit, from whichever file holds it.
    rng = np.random.default_rng(len(frames) * 7 + cols)
    dataset = Dataset(
        Utterance(id=f"u{i}", features=rng.standard_normal((n, cols)))
        for i, n in enumerate(frames)
    )
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "task").mkdir()
        save_manifest(dataset, root / "task" / "data.jsonl")
        loaded = load_manifest(root / "task" / "data.jsonl")
        derived = Dataset(
            replace(u, features=-u.features) if flip else u for u, flip in zip(loaded, replaced)
        )
        path = root / manifest
        path.parent.mkdir(parents=True, exist_ok=True)
        save_manifest(derived, path)
        assert [u.features.tobytes() for u in load_manifest(path)] == [
            u.features.tobytes() for u in derived
        ]
        assert path.with_suffix(".nstp").exists() == any(replaced[: len(frames)])


class TestAtomicWrite:
    def test_failed_replace_leaves_only_the_original(self, tmp_path, monkeypatch):
        path = tmp_path / "a.txt"
        atomic_write_text(path, "old\n")

        def fail_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("nst.corpus.os.replace", fail_replace)
        with pytest.raises(OSError, match="disk full"):
            atomic_write_text(path, "new\n")
        assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]
        assert path.read_text() == "old\n"

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        with pytest.raises(UnicodeEncodeError):
            atomic_write_text(tmp_path / "a.txt", "\ud800")
        assert list(tmp_path.iterdir()) == []

    def test_file_mode_follows_the_umask(self, tmp_path):
        plain = tmp_path / "plain.txt"
        plain.write_text("x")
        atomic_write_text(tmp_path / "a.txt", "x")
        assert (tmp_path / "a.txt").stat().st_mode == plain.stat().st_mode


class TestJsonFiles:
    def test_read_json_names_the_file_in_the_callers_error(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"beam": 3')
        with pytest.raises(CorpusError, match=f"{path}: invalid JSON"):
            read_json(path, dict, CorpusError)
        path.write_bytes(b'{"beam": "\xff"}')
        with pytest.raises(CorpusError) as refused:
            read_json(path, dict, CorpusError)
        assert str(refused.value) == f"{path}: line 1: not UTF-8 at byte 11 (invalid start byte)"
        path.write_text('{"beam": 3}')
        assert read_json(path, dict, CorpusError) == {"beam": 3}

    def test_read_json_raises_the_builders_refusal_as_the_callers_error(self, tmp_path):
        class Refused(NstError):
            pass

        def build(record):
            return read_record(record, {"beam": int}, CorpusError, "test record")

        path = tmp_path / "config.json"
        path.write_text('{"beam": "3"}')
        with pytest.raises(Refused) as refused:
            read_json(path, build, Refused)
        assert str(refused.value) == f"{path}: test record: beam must be an integer, got '3'"
        assert isinstance(refused.value.__cause__, CorpusError)
        # Only a refusal is renamed; a fault in the builder passes through as it is.
        with pytest.raises(KeyError):
            read_json(path, lambda record: record["depth"], Refused)

    def test_write_jsonl_bytes(self, tmp_path):
        path = tmp_path / "records.jsonl"
        records = [{"id": "é", "tokens": ["a"], "am": -1.5}, {"id": "b", "n": 2}]
        write_jsonl(path, records)
        assert path.read_bytes() == (
            "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records).encode("utf-8")
        )
        write_jsonl(path, [])
        assert path.read_bytes() == b""

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("writer", [write_jsonl, atomic_write_json],
                             ids=["write_jsonl", "atomic_write_json"])
    def test_writers_refuse_a_number_json_cannot_hold(self, tmp_path, writer, value):
        # Python's JSON writer would put out NaN or Infinity, which no JSON reader accepts.
        path = tmp_path / "out.json"
        record = {"id": "u", "scores": [0.5, value]}
        with pytest.raises(CorpusError, match=f"{path}: cannot write as JSON"):
            writer(path, [record] if writer is write_jsonl else record)
        assert list(tmp_path.iterdir()) == []

    def test_read_jsonl_skips_blank_lines_and_numbers_the_rest(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text('{"id": "a", "n": 1}\n\n  \n{"id": "b", "n": 2.5}\n')
        spec = {"id": str, "n": float}

        def read(**kwargs):
            return read_jsonl(path, spec, "test record", lambda r, n: (n, r), **kwargs)

        assert read(required=("id",)) == [(1, {"id": "a", "n": 1.0}), (4, {"id": "b", "n": 2.5})]
        path.write_text('{"id": "a"}\n{"id": "b"\n')
        with pytest.raises(ManifestError, match="line 2: invalid JSON") as err:
            read()
        assert err.value.line_number == 2
