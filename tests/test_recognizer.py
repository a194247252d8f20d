import itertools
import json
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nst import recognizer
from nst.augment import identity_policy
from nst.corpus import Dataset, TokenVocab, Utterance
from nst.recognizer import (
    EmptyDatasetError,
    FrameAlignmentError,
    MarkovSentenceSource,
    RecognizerError,
    ToyModel,
    ToyRecognizer,
    ToyWorld,
    synth_generate,
    toy_train,
    toy_transcribe,
)
from nst.scoring import FusionParams, best_hypothesis, fuse_components
from nst.seeding import derive_rng

from oracles import reference_decode


def uniform_source(length=3, vocab=4):
    def source(rng):
        return [int(t) for t in rng.integers(0, vocab, length)]

    return source


@pytest.fixture
def world():
    return ToyWorld(vocab_size=4, noise=0.0, frames_per_token=2)


class TestToyWorld:
    def test_validation(self):
        with pytest.raises(RecognizerError):
            ToyWorld(vocab_size=1)
        with pytest.raises(RecognizerError):
            ToyWorld(vocab_size=4, noise=-0.1)

    def test_vocab_matches_size(self, world):
        vocab = world.vocab()
        assert vocab.size == 4
        assert len(set(vocab.tokens)) == 4


class TestSentenceSource:
    def test_structured_source_is_valid(self):
        source = MarkovSentenceSource.structured(8, seed=3, length_range=(2, 5))
        rng = derive_rng(0)
        for _ in range(50):
            sentence = source(rng)
            assert 2 <= len(sentence) <= 5
            assert all(0 <= t < 8 for t in sentence)

    def test_rejects_bad_rows(self):
        with pytest.raises(RecognizerError):
            MarkovSentenceSource(np.array([0.5, 0.5]), np.array([[1.0, 0.1], [0.5, 0.5]]))


class TestSynthGenerate:
    def test_noiseless_single_token_is_one_hot(self):
        world = ToyWorld(vocab_size=4, noise=0.0, frames_per_token=1)
        data = synth_generate(world, 1, lambda rng: [2], derive_rng(0))
        expected = np.zeros((1, 4), dtype=np.float32)
        expected[0, 2] = 1.0
        assert np.array_equal(data[0].features, expected)
        assert data[0].transcript == (world.vocab().token_of(2),)

    def test_seeded_generation_reproducible(self, world):
        a = synth_generate(world, 5, uniform_source(), derive_rng(42))
        b = synth_generate(world, 5, uniform_source(), derive_rng(42))
        for ua, ub in zip(a, b):
            assert ua.id == ub.id
            assert np.array_equal(ua.features, ub.features)
            assert ua.transcript == ub.transcript

    def test_noise_level_matches_configuration(self):
        world = ToyWorld(vocab_size=5, noise=0.3, frames_per_token=1)
        data = synth_generate(world, 2000, lambda rng: [0], derive_rng(7))
        eye = np.eye(5, dtype=np.float32)
        residuals = np.concatenate(
            [(u.features - eye[[0]]).ravel() for u in data]
        )
        n = residuals.size
        stderr = 0.3 / np.sqrt(2 * n)
        assert abs(residuals.std() - 0.3) <= 3 * stderr

    def test_n_must_be_positive(self, world):
        with pytest.raises(RecognizerError):
            synth_generate(world, 0, uniform_source(), derive_rng(0))


class TestToyTrain:
    def test_noiseless_centroids_exact(self, world):
        data = synth_generate(world, 20, uniform_source(), derive_rng(1))
        model = toy_train(data, world.vocab(), world.frames_per_token, identity_policy(), 0)
        assert np.allclose(model.centroids, np.eye(4), atol=1e-7)

    def test_bigram_add_one_smoothing(self, world):
        vocab = world.vocab()
        a, b = vocab.token_of(0), vocab.token_of(1)
        data = Dataset(
            [
                Utterance(id="u1", features=np.zeros((4, 4)), transcript=(a, b)),
                Utterance(id="u2", features=np.zeros((4, 4)), transcript=(a, b)),
            ]
        )
        model = toy_train(data, vocab, 2, identity_policy(), 0)
        v = 4
        assert np.exp(model.bigram_log[0, 1]) == pytest.approx((2 + 1) / (2 + v))
        assert np.exp(model.bigram_log[0, 0]) == pytest.approx(1 / (2 + v))
        # Start-context row counts both sentence beginnings.
        assert np.exp(model.bigram_log[v, 0]) == pytest.approx((2 + 1) / (2 + v))

    def test_multiplicity_weights_counts(self, world):
        vocab = world.vocab()
        a, b = vocab.token_of(0), vocab.token_of(1)
        one = Dataset(
            [
                Utterance(id="u1", features=np.zeros((2, 4)), transcript=(a, b), multiplicity=3),
                Utterance(id="u2", features=np.ones((2, 4)), transcript=(b, a)),
            ]
        )
        duplicated = Dataset(
            [
                Utterance(id="u1", features=np.zeros((2, 4)), transcript=(a, b)),
                Utterance(id="u1b", features=np.zeros((2, 4)), transcript=(a, b)),
                Utterance(id="u1c", features=np.zeros((2, 4)), transcript=(a, b)),
                Utterance(id="u2", features=np.ones((2, 4)), transcript=(b, a)),
            ]
        )
        m1 = toy_train(one, vocab, 1, identity_policy(), 0)
        m2 = toy_train(duplicated, vocab, 1, identity_policy(), 0)
        assert np.allclose(m1.bigram_log, m2.bigram_log, atol=1e-12)
        assert np.allclose(m1.centroids, m2.centroids, atol=1e-12)

    def test_even_frame_split_for_mismatched_lengths(self, world):
        # 4 frames against 2 tokens: each token owns 2 frames.
        vocab = world.vocab()
        a, b = vocab.token_of(0), vocab.token_of(1)
        features = np.vstack(
            [np.full((2, 4), 1.0), np.full((2, 4), 3.0)]
        )
        data = Dataset([Utterance(id="u", features=features, transcript=(a, b))])
        model = toy_train(data, vocab, 2, identity_policy(), 0)
        assert np.allclose(model.centroids[0], np.full(4, 1.0))
        assert np.allclose(model.centroids[1], np.full(4, 3.0))

    def test_more_data_reduces_centroid_error(self):
        world = ToyWorld(vocab_size=4, noise=0.5, frames_per_token=2)
        sizes = (25, 100)
        mse = {size: [] for size in sizes}
        for seed in range(20):
            for size in sizes:
                data = synth_generate(
                    world, size, uniform_source(4), derive_rng("mse", seed, size)
                )
                model = toy_train(
                    data, world.vocab(), world.frames_per_token, identity_policy(), seed
                )
                mse[size].append(float(np.mean((model.centroids - np.eye(4)) ** 2)))
        assert np.mean(mse[100]) < np.mean(mse[25])

    def test_empty_dataset_rejected(self, world):
        with pytest.raises(EmptyDatasetError):
            toy_train(Dataset([]), world.vocab(), 2, identity_policy(), 0)


def enumerate_top_k(model, features, lm_weight, k):
    """Independent oracle: score every token sequence exhaustively."""
    import math

    fpt = model.frames_per_token
    v = len(model.tokens)
    n_blocks = features.shape[0] // fpt

    def block_logposts(i):
        block = features[i * fpt : (i + 1) * fpt].astype(np.float64)
        raw = [
            -float(np.mean(np.sum((block - model.centroids[t]) ** 2, axis=1)))
            for t in range(v)
        ]
        norm = max(raw) + math.log(sum(math.exp(r - max(raw)) for r in raw))
        return [r - norm for r in raw]

    posts = [block_logposts(i) for i in range(n_blocks)]
    scored = []
    for seq in itertools.product(range(v), repeat=n_blocks):
        am = sum(posts[i][t] for i, t in enumerate(seq))
        lm = float(model.bigram_log[v, seq[0]])
        for i in range(1, n_blocks):
            lm += float(model.bigram_log[seq[i - 1], seq[i]])
        scored.append((seq, am, lm))
    scored.sort(key=lambda x: -(x[1] + lm_weight * x[2]))
    return scored[:k]


@pytest.fixture
def trained():
    world = ToyWorld(vocab_size=3, noise=0.35, frames_per_token=2)
    source = MarkovSentenceSource.structured(3, seed=11, branching=2, length_range=(3, 3))
    data = synth_generate(world, 60, source, derive_rng("train", 0))
    model = toy_train(data, world.vocab(), world.frames_per_token, identity_policy(), 5)
    return world, model


class TestToyTranscribe:
    def test_noiseless_decodes_truth(self):
        world = ToyWorld(vocab_size=4, noise=0.0, frames_per_token=2)
        data = synth_generate(world, 10, uniform_source(), derive_rng(3))
        model = toy_train(data, world.vocab(), world.frames_per_token, identity_policy(), 0)
        hyp_lists = toy_transcribe(model, list(data), beam=2)
        vocab = world.vocab()
        for u, hyps in zip(data, hyp_lists):
            assert vocab.decode(hyps[0].transcript) == u.transcript

    def test_beam_one_equals_greedy_argmax(self, trained):
        world, model = trained
        rng = derive_rng("greedy", 1)
        data = synth_generate(world, 20, uniform_source(3, vocab=3), rng)
        hyp_lists = toy_transcribe(model, list(data), beam=1, lm_weight=0.0)
        fpt = world.frames_per_token
        for u, hyps in zip(data, hyp_lists):
            assert len(hyps) == 1
            greedy = []
            for i in range(u.features.shape[0] // fpt):
                block = u.features[i * fpt : (i + 1) * fpt].astype(np.float64)
                dists = [
                    float(np.mean(np.sum((block - c) ** 2, axis=1)))
                    for c in model.centroids
                ]
                greedy.append(int(np.argmin(dists)))
            assert list(hyps[0].transcript) == greedy

    def test_beam_matches_exhaustive_enumeration(self, trained):
        world, model = trained
        data = synth_generate(world, 15, uniform_source(3, vocab=3), derive_rng("exh", 2))
        for lm_weight in (0.0, 0.7):
            hyp_lists = toy_transcribe(model, list(data), beam=4, lm_weight=lm_weight)
            for u, hyps in zip(data, hyp_lists):
                expected = enumerate_top_k(model, u.features, lm_weight, 4)
                assert len(hyps) == 4
                for hyp, (seq, am, lm) in zip(hyps, expected):
                    assert tuple(hyp.transcript) == seq
                    assert hyp.am_score == pytest.approx(am, abs=1e-9)
                    assert hyp.lm_score == pytest.approx(lm, abs=1e-9)

    def test_sorted_by_decode_score_and_coverage_set(self, trained):
        world, model = trained
        data = synth_generate(world, 5, uniform_source(3, vocab=3), derive_rng("sort", 3))
        hyp_lists = toy_transcribe(model, list(data), beam=4, lm_weight=0.5)
        for hyps in hyp_lists:
            keys = [h.am_score + 0.5 * h.lm_score for h in hyps]
            assert keys == sorted(keys, reverse=True)
            assert all(h.coverage == 3.0 for h in hyps)

    def test_rerank_at_decode_params_preserves_order(self, trained):
        world, model = trained
        data = synth_generate(world, 20, uniform_source(3, vocab=3), derive_rng("rerank", 4))
        hyp_lists = toy_transcribe(model, list(data), beam=4, lm_weight=0.5)
        params = FusionParams(lm_weight=0.5)
        for hyps in hyp_lists:
            fused = [
                fuse_components(h.am_score, h.lm_score, h.coverage, len(h.transcript), params)
                for h in hyps
            ]
            assert fused == sorted(fused, reverse=True)
            best = best_hypothesis(hyps, params)
            assert best.transcript == hyps[0].transcript

    def test_determinism(self, trained):
        world, model = trained
        data = synth_generate(world, 10, uniform_source(3, vocab=3), derive_rng("det", 5))
        first = toy_transcribe(model, list(data), beam=3, lm_weight=0.3)
        second = toy_transcribe(model, list(data), beam=3, lm_weight=0.3)
        assert first == second

    def test_misaligned_frames_rejected(self, trained):
        world, model = trained
        bad = Utterance(id="bad", features=np.zeros((3, 3)))
        with pytest.raises(FrameAlignmentError):
            toy_transcribe(model, [bad], beam=1)

    def test_wrong_width_rejected(self, trained):
        world, model = trained
        bad = Utterance(id="bad", features=np.zeros((4, 5)))
        with pytest.raises(FrameAlignmentError):
            toy_transcribe(model, [bad], beam=1)


def exact(hyp_lists):
    """Hypothesis lists as (tokens, am, lm, coverage) with the floats' exact bits."""
    return [
        [(tuple(h.transcript), h.am_score.hex(), h.lm_score.hex(), h.coverage.hex()) for h in hyps]
        for hyps in hyp_lists
    ]


def reference_lists(model, utterances, beam, lm_weight):
    """The unbatched, unpruned search, one utterance at a time."""
    return [
        [
            (tokens, am.hex(), lm.hex(), coverage.hex())
            for tokens, am, lm, coverage in reference_decode(
                recognizer._am_matrix(model, u.features), model.bigram_log, beam, lm_weight
            )
        ]
        for u in utterances
    ]


@st.composite
def decode_cases(draw):
    """A model and utterances on a few coarse levels, so exact score ties are common.

    Utterances mix block counts, some repeat an earlier feature matrix, the
    beam may exceed the vocabulary, and ``chunk`` utterances make one chunk.
    """
    v = draw(st.integers(2, 4))
    fpt = draw(st.integers(1, 2))
    beam = draw(st.integers(1, 6 * v))
    lm_weight = draw(st.sampled_from([0.0, 0.75, 2.0]))
    chunk = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = np.array([0.0, 0.5, 1.0])
    model = ToyModel(
        tokens=tuple(f"t{i}" for i in range(v)),
        frames_per_token=fpt,
        centroids=rng.choice(levels, (v, v)),
        bigram_log=rng.choice([-0.5, -1.0, -2.0], (v + 1, v)),
    )
    features = []
    for n_blocks, copy in draw(
        st.lists(st.tuples(st.integers(1, 4), st.integers(-4, 7)), min_size=1, max_size=9)
    ):
        if 0 <= copy < len(features):
            features.append(features[copy])
        else:
            features.append(rng.choice(levels, (n_blocks * fpt, v)))
    utterances = [Utterance(id=f"u{i}", features=f) for i, f in enumerate(features)]
    return model, utterances, beam, lm_weight, chunk


@pytest.fixture(scope="module")
def criterion_model():
    """A model at the benchmark's scale: 20 tokens, 3 frames per token."""
    world = ToyWorld(vocab_size=20, noise=0.9, frames_per_token=3)
    source = MarkovSentenceSource.structured(20, seed=1, length_range=(3, 6))
    data = synth_generate(world, 200, source, derive_rng("criterion", 0))
    return world, toy_train(data, world.vocab(), 3, identity_policy(), 0)


class TestBatchedDecode:
    @settings(max_examples=300, deadline=None)
    @given(decode_cases())
    def test_bit_identical_to_the_reference_search(self, case):
        model, utterances, beam, lm_weight, chunk = case
        v = len(model.tokens)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(recognizer, "_CHUNK_CANDIDATES", chunk * v * beam * v)
            got = toy_transcribe(model, utterances, beam, lm_weight)
        assert exact(got) == reference_lists(model, utterances, beam, lm_weight)

    def test_groups_larger_than_one_chunk_on_a_trained_model(self, criterion_model):
        world, model = criterion_model
        source = MarkovSentenceSource.structured(20, seed=4, length_range=(3, 5))
        data = list(synth_generate(world, 240, source, derive_rng("chunks", 0)))
        group_sizes = Counter(u.features.shape[0] for u in data).values()
        for beam in (3, 8):
            assert min(group_sizes) > recognizer._CHUNK_CANDIDATES // (20 * beam * 20)
            got = toy_transcribe(model, data, beam, 0.75)
            assert exact(got) == reference_lists(model, data, beam, 0.75)

    def test_working_memory_stays_near_the_unbatched_search(self, criterion_model):
        # Decoding 400 utterances in one batch would hold several MB of candidates.
        world, model = criterion_model
        source = MarkovSentenceSource.structured(20, seed=1, length_range=(6, 6))
        utterances = list(synth_generate(world, 400, source, derive_rng("memory", 0)))

        def peak(decode):
            tracemalloc.start()
            try:
                decode()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        batched = peak(lambda: toy_transcribe(model, utterances, 8, 0.75))
        unbatched = peak(lambda: reference_lists(model, utterances, 8, 0.75))
        assert batched <= unbatched + 2 * 2**20

    @pytest.mark.parametrize(
        "beam", [3, 20, 24], ids=["beam-under-vocab", "beam-is-vocab", "beam-over-vocab"]
    )
    @pytest.mark.parametrize("lm_weight", [0.0, 0.75])
    def test_one_block_utterance_in_a_chunk_of_long_ones(self, criterion_model, beam, lm_weight):
        # The 1-block row stops stepping at once and is backtracked from block 0.
        world, model = criterion_model
        source = MarkovSentenceSource.structured(20, seed=7, length_range=(8, 14))
        long = list(synth_generate(world, 5, source, derive_rng("mixed", 0)))
        short = synth_generate(world, 1, lambda rng: [3], derive_rng("mixed", 1), "short")[0]
        utterances = [long[0], short, *long[1:]]
        calls = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(recognizer, "_CHUNK_CANDIDATES", len(utterances) * 20 * beam * 20)
            spy_on_decode_chunk(patch, calls)
            got = toy_transcribe(model, utterances, beam, lm_weight)
        assert calls == [len(utterances)]
        assert [h.coverage for h in got[1]] == [1.0] * min(beam, 20)
        assert exact(got) == reference_lists(model, utterances, beam, lm_weight)

    def test_one_decode_call_per_chunk_across_block_counts(self, criterion_model):
        world, model = criterion_model
        source = MarkovSentenceSource.structured(20, seed=2, length_range=(20, 40))
        utterances = list(synth_generate(world, 80, source, derive_rng("guard", 0)))
        assert len({u.features.shape[0] for u in utterances}) >= 15
        chunk = recognizer._CHUNK_CANDIDATES // (20 * 16 * 20)
        calls = []
        with pytest.MonkeyPatch.context() as patch:
            spy_on_decode_chunk(patch, calls)
            toy_transcribe(model, utterances, 16, 0.75)
        assert len(calls) == math.ceil(80 / chunk) == 8


def spy_on_decode_chunk(patch, calls):
    """Record the utterance count of each ``_decode_chunk`` call in ``calls``."""
    decode = recognizer._decode_chunk

    def spy(am, *args):
        calls.append(len(am))
        return decode(am, *args)

    patch.setattr(recognizer, "_decode_chunk", spy)


@st.composite
def sorted_runs(draw):
    """(rows, width, k) values on a few levels, each run non-increasing, often to a -inf tail."""
    rows, width, k = draw(st.integers(1, 4)), draw(st.integers(1, 6)), draw(st.integers(1, 6))
    levels = st.sampled_from([-np.inf, -np.inf, -2.0, -1.0, -0.5, 0.0])
    values = draw(arrays(np.float64, (rows, width, k), elements=levels))
    return -np.sort(-values, axis=2)


@settings(max_examples=300, deadline=None)
@given(sorted_runs())
def test_merge_takes_what_a_stable_sort_takes(runs):
    rows, width, k = runs.shape
    index = np.arange(rows)
    got = recognizer._merge_top(runs[:, :, 0], lambda run, rank: runs[index, run, rank], k)
    expected = np.argsort(-runs.reshape(rows, -1), axis=1, kind="stable")[:, :k]
    assert got.tolist() == expected.tolist()


class TestToyRecognizer:
    def test_train_then_transcribe(self, world):
        data = synth_generate(world, 15, uniform_source(), derive_rng(8))
        recognizer = ToyRecognizer(world.vocab(), world.frames_per_token)
        recognizer.train(data, identity_policy(), seed=0)
        hyp_lists = recognizer.transcribe(list(data), beam=2)
        assert len(hyp_lists) == len(data)

    def test_untrained_transcribe_rejected(self, world):
        recognizer = ToyRecognizer(world.vocab(), world.frames_per_token)
        with pytest.raises(RecognizerError):
            recognizer.transcribe([], beam=1)

    def test_model_json_roundtrip(self, tmp_path, trained):
        world, model = trained
        path = tmp_path / "model.json"
        ToyRecognizer(world.vocab(), world.frames_per_token, model=model).save(path)
        assert path.read_text() == json.dumps(model.to_dict(), sort_keys=True)
        recognizer = ToyRecognizer(world.vocab(), world.frames_per_token)
        recognizer.load(path)
        loaded = recognizer.model
        assert loaded.tokens == model.tokens
        assert loaded.frames_per_token == model.frames_per_token
        assert np.array_equal(loaded.centroids, model.centroids)
        assert np.array_equal(loaded.bigram_log, model.bigram_log)

    def test_untrained_save_rejected(self, tmp_path, world):
        recognizer = ToyRecognizer(world.vocab(), world.frames_per_token)
        with pytest.raises(RecognizerError):
            recognizer.save(tmp_path / "model.json")
        assert not (tmp_path / "model.json").exists()

    @pytest.mark.parametrize(
        "vocab, frames_per_token",
        [(TokenVocab(["a", "b", "c"]), 2), (None, 3)],
        ids=["tokens", "frames_per_token"],
    )
    def test_load_refuses_a_model_for_another_task(
        self, tmp_path, trained, vocab, frames_per_token
    ):
        # Same vocabulary size, so only the check tells the models apart.
        world, model = trained
        path = tmp_path / "model.json"
        ToyRecognizer(world.vocab(), world.frames_per_token, model=model).save(path)
        recognizer = ToyRecognizer(vocab or world.vocab(), frames_per_token)
        with pytest.raises(RecognizerError, match=str(path)):
            recognizer.load(path)
        assert recognizer.model is None

    @pytest.mark.parametrize(
        "text", ["{not json", '{"tokens": ["a", "b"]}', '{"tokens": 3, "frames_per_token": 2}']
    )
    def test_malformed_model_file_refused(self, tmp_path, world, text):
        path = tmp_path / "model.json"
        path.write_text(text)
        with pytest.raises(RecognizerError, match="not a toy model file"):
            ToyRecognizer(world.vocab(), world.frames_per_token).load(path)
        with pytest.raises(RecognizerError, match="not a toy model file"):
            ToyRecognizer.from_file(path)

    def test_truncated_model_file_named_once(self, tmp_path, world):
        # The refusal once read "m.json: not a toy model file (RecognizerError('m.json: ...'))".
        path = tmp_path / "m.json"
        path.write_text('{"tokens": ')
        for load in (ToyRecognizer.from_file, ToyRecognizer(world.vocab(), 2).load):
            with pytest.raises(RecognizerError, match="not a toy model file") as refused:
                load(path)
            message = str(refused.value)
            assert message.startswith(f"{path}: invalid JSON (")
            assert message.count(str(path)) == 1 and "RecognizerError(" not in message

    @pytest.mark.parametrize(
        "key, value",
        [("tokens", "ab"), ("frames_per_token", 2.9), ("frames_per_token", True)],
        ids=["string-tokens", "float-frames-per-token", "bool-frames-per-token"],
    )
    def test_wrong_typed_model_file_refused(self, tmp_path, trained, key, value):
        # "ab" would otherwise load as the tokens ('a', 'b'), and 2.9 as 2 frames per token.
        world, model = trained
        record = {**model.to_dict(), key: value}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(record))
        with pytest.raises(RecognizerError, match=key):
            ToyRecognizer.from_file(path)
        with pytest.raises(RecognizerError, match=key):
            ToyModel.from_dict(record)

    @pytest.mark.parametrize(
        "name, row, value",
        [("bigram_log", -1, float("nan")), ("centroids", 0, float("inf")),
         ("bigram_log", 1, float("-inf"))],
        ids=["nan-start-bigram", "inf-centroid", "neg-inf-bigram"],
    )
    def test_non_finite_model_file_refused(self, tmp_path, trained, name, row, value):
        # json writes and reads NaN and Infinity, so such a file parses.
        world, model = trained
        record = model.to_dict()
        record[name][row][0] = value
        path = tmp_path / "model.json"
        path.write_text(json.dumps(record))
        with pytest.raises(RecognizerError, match=f"{name} must be finite"):
            ToyRecognizer(world.vocab(), world.frames_per_token).load(path)
        with pytest.raises(RecognizerError, match=str(path)):
            ToyRecognizer.from_file(path)
        with pytest.raises(RecognizerError, match=f"{name} must be finite"):
            ToyModel.from_dict(record)

    def test_from_file_takes_vocab_and_frame_rate_from_the_model(self, tmp_path, trained):
        world, model = trained
        path = tmp_path / "model.json"
        ToyRecognizer(world.vocab(), world.frames_per_token, model=model).save(path)
        recognizer = ToyRecognizer.from_file(path, decode_lm_weight=0.5)
        assert recognizer.vocab == world.vocab()
        assert recognizer.frames_per_token == world.frames_per_token
        data = synth_generate(world, 4, uniform_source(vocab=3), derive_rng(9))
        assert recognizer.transcribe(list(data), 2) == toy_transcribe(
            model, list(data), 2, lm_weight=0.5
        )
