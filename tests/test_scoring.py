import json
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nst import scoring
from nst.corpus import Dataset, ManifestError, TokenVocab, Transcript, Utterance
from nst.scoring import (
    EmptyReferenceError,
    FusionParams,
    HypothesisRecord,
    NBest,
    ScoredHypothesis,
    ScoringError,
    best_hypothesis,
    corpus_wer,
    edit_alignment_counts,
    fuse_components,
    grid_search_fusion,
    grid_search_table,
    hypothesis_records,
    read_hypotheses,
    wer,
    write_hypotheses,
)

from conftest import reference_best_of
from oracles import exhaustive_edit_distance

WORDS = ["wa", "wb", "wc"]
word_seq = st.lists(st.sampled_from(WORDS), max_size=8)


def hyp(tokens=(0,), am=0.0, lm=0.0, coverage=0.0):
    return ScoredHypothesis(Transcript(tuple(tokens)), am, lm, coverage)


class TestFuseComponents:
    def test_fusion_disabled(self):
        params = FusionParams(lm_weight=0.0, coverage_weight=0.0)
        assert fuse_components(-5.0, -2.0, 7.0, 1, params) == -5.0

    def test_attention_mode(self):
        params = FusionParams(lm_weight=0.5, coverage_weight=0.1, mode="attention")
        assert fuse_components(-5.0, -2.0, 3.0, 1, params) == pytest.approx(-5.7)

    def test_transducer_mode(self):
        params = FusionParams(lm_weight=0.5, nonblank_reward=0.25, mode="transducer")
        assert fuse_components(-5.0, -2.0, 0.0, 4, params) == pytest.approx(-5.0)

    def test_from_dict_refuses_a_misspelt_key(self):
        params = FusionParams(lm_weight=0.5, mode="transducer", nonblank_reward=0.25)
        assert FusionParams.from_dict(params.to_dict()) == params
        assert FusionParams.from_dict({}) == FusionParams()
        with pytest.raises(ScoringError, match="lm_wieght"):
            FusionParams.from_dict({"lm_wieght": 0.5})

    def test_attention_ignores_reward(self):
        a = FusionParams(0.5, 0.1, 0.0, "attention")
        b = FusionParams(0.5, 0.1, 99.0, "attention")
        assert fuse_components(-1.0, -1.0, 2.0, 2, a) == fuse_components(-1.0, -1.0, 2.0, 2, b)

    def test_transducer_ignores_coverage(self):
        a = FusionParams(0.5, 0.0, 0.3, "transducer")
        b = FusionParams(0.5, 99.0, 0.3, "transducer")
        assert fuse_components(-1.0, -1.0, 2.0, 2, a) == fuse_components(-1.0, -1.0, 2.0, 2, b)

    @given(
        st.floats(0, 4),
        st.floats(0, 4),
        st.floats(-2, 2),
        st.floats(-2, 2),
    )
    @settings(max_examples=50)
    def test_affine_in_each_parameter(self, w1, w2, c, rho):
        def fused(params):
            return fuse_components(-3.0, -1.5, 2.0, 3, params)

        for mode in ("attention", "transducer"):
            f1 = fused(FusionParams(w1, c, rho, mode))
            f2 = fused(FusionParams(w2, c, rho, mode))
            mid = fused(FusionParams((w1 + w2) / 2, c, rho, mode))
            assert mid == pytest.approx((f1 + f2) / 2, abs=1e-9)
        # Affine in the coverage weight and in the per-token reward as well.
        g1 = fused(FusionParams(w1, c, rho, "attention"))
        g2 = fused(FusionParams(w1, c + 2.0, rho, "attention"))
        gmid = fused(FusionParams(w1, c + 1.0, rho, "attention"))
        assert gmid == pytest.approx((g1 + g2) / 2, abs=1e-9)
        t1 = fused(FusionParams(w1, c, rho, "transducer"))
        t2 = fused(FusionParams(w1, c, rho + 2.0, "transducer"))
        tmid = fused(FusionParams(w1, c, rho + 1.0, "transducer"))
        assert tmid == pytest.approx((t1 + t2) / 2, abs=1e-9)

    def test_nonfinite_rejected(self):
        with pytest.raises(ScoringError):
            ScoredHypothesis(Transcript((0,)), float("nan"), 0.0)
        with pytest.raises(ScoringError):
            ScoredHypothesis(Transcript((0,)), 0.0, 0.0, coverage=-1.0)
        with pytest.raises(ScoringError):
            FusionParams(lm_weight=-0.5)


class TestWer:
    def test_identity(self):
        result = wer("a b c".split(), "a b c".split())
        assert result.errors == 0
        assert result.wer == 0.0

    def test_single_substitution(self):
        result = wer("a b c".split(), "a x c".split())
        assert result.errors == 1
        assert result.wer == pytest.approx(1 / 3)

    def test_empty_hypothesis(self):
        result = wer("a b c".split(), [])
        assert result.errors == 3
        assert result.wer == 1.0

    def test_empty_reference_rejected(self):
        with pytest.raises(EmptyReferenceError):
            wer([], ["a"])

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            ref = [WORDS[i] for i in rng.integers(0, 3, rng.integers(1, 9))]
            hypo = [WORDS[i] for i in rng.integers(0, 3, rng.integers(0, 9))]
            expected = exhaustive_edit_distance(ref, hypo)
            result = wer(ref, hypo)
            assert result.errors == expected

    @given(word_seq.filter(len), word_seq)
    @settings(max_examples=100)
    def test_zero_iff_equal(self, ref, hypo):
        assert (wer(ref, hypo).wer == 0.0) == (ref == hypo)

    @given(word_seq, word_seq)
    @settings(max_examples=200)
    def test_edit_distance_is_exhaustive_and_symmetric(self, ref, hypo):
        distance = edit_alignment_counts(ref, hypo)
        assert distance == exhaustive_edit_distance(ref, hypo) == edit_alignment_counts(hypo, ref)

    def test_corpus_wer_pools_counts(self):
        result = corpus_wer(
            [("a b".split(), "a b".split()), ("a b c d".split(), "a b c x".split())]
        )
        assert result.errors == 1
        assert result.wer == pytest.approx(1 / 6)


class TestBestHypothesis:
    def test_zero_params_select_max_am(self):
        hyps = [
            hyp(tokens=(0,), am=-3.0, lm=0.0),
            hyp(tokens=(1,), am=-1.0, lm=-50.0),
            hyp(tokens=(2,), am=-2.0, lm=50.0),
        ]
        best = best_hypothesis(hyps, FusionParams())
        assert best.transcript.tokens == (1,)
        assert best.fused == -1.0

    def test_first_of_equal_fused_scores_wins(self):
        params = FusionParams(lm_weight=0.5)
        hyps = [hyp(tokens=(2,), am=-3.0), hyp(tokens=(0,), am=-1.0, lm=-2.0),
                hyp(tokens=(1,), am=-1.5, lm=-1.0)]
        best = best_hypothesis(hyps, params)
        assert best.transcript.tokens == (0,)
        assert best.fused == -2.0

    def test_fused_score_is_fuse_components(self):
        h = hyp(tokens=(0, 1, 2), am=-4.0, lm=-2.0, coverage=5.0)
        for mode in ("attention", "transducer"):
            params = FusionParams(0.7, 0.2, 0.4, mode)
            assert best_hypothesis([h], params).fused == fuse_components(-4.0, -2.0, 5.0, 3, params)

    def test_empty_list_rejected(self):
        with pytest.raises(ScoringError):
            best_hypothesis([], FusionParams())


@st.composite
def nbest_cases(draw):
    """Random N-best lists, mostly on coarse score levels, so equal fused scores are common.

    Rows hold 1..k hypotheses of 0..3 tokens, and some repeat an earlier
    hypothesis exactly. Padding cells hold NaN scores and negative ids and
    lengths, which no reader may touch.
    """
    level = st.one_of(st.sampled_from([-2.0, -1.3, -0.5, 0.0, 0.7]), st.floats(-50, 50))
    k = draw(st.integers(1, 4))
    hyp_lists = []
    for _ in range(draw(st.integers(1, 5))):
        hyps = []
        for _ in range(draw(st.integers(1, k))):
            if hyps and draw(st.booleans()):
                hyps.append(draw(st.sampled_from(hyps)))
            else:
                tokens = draw(st.lists(st.integers(0, 3), max_size=3))
                hyps.append(hyp(tokens, draw(level), draw(level), abs(draw(level))))
        hyp_lists.append(hyps)
    nbest = NBest.from_lists(hyp_lists)
    held = np.arange(nbest.am.shape[1]) < nbest.counts[:, None]
    padded = {
        "tokens": np.where(np.arange(nbest.tokens.shape[2]) < nbest.lengths[:, :, None],
                           nbest.tokens, -7),
        "lengths": np.where(held, nbest.lengths, -1),
        **{name: np.where(held, getattr(nbest, name), np.nan)
           for name in ("am", "lm", "coverage")},
    }
    padded["tokens"] = np.where(held[:, :, None], padded["tokens"], -9)
    params = FusionParams(draw(st.sampled_from([0.0, 0.3, 1.0, 2.7])),
                          draw(st.sampled_from([0.0, 0.1, -1.3])),
                          draw(st.sampled_from([0.0, 0.1, -1.3])),
                          draw(st.sampled_from(["attention", "transducer"])))
    return hyp_lists, replace(nbest, **padded), params


def valid_nbest():
    return NBest.from_lists([
        [hyp((0, 1), -1.0, -2.0, 2.0), hyp((1,), -1.5, -0.5, 1.0)],
        [hyp((2,), -0.5, -1.0, 1.0)],
    ])


class TestNBest:
    @settings(max_examples=300, deadline=None)
    @given(nbest_cases())
    def test_best_is_the_reference_best_of_each_row(self, case):
        hyp_lists, nbest, params = case
        assert list(nbest) == hyp_lists
        ranks, fused = nbest.best(params)
        assert nbest.token_ids(ranks) == [
            tuple(hyps[r].transcript) for hyps, r in zip(hyp_lists, ranks)
        ]
        for hyps, rank, score in zip(hyp_lists, ranks.tolist(), fused.tolist()):
            expected_rank, expected_score = reference_best_of(hyps, params)
            assert (rank, score.hex()) == (expected_rank, expected_score.hex())

    def test_reads_like_a_list_of_hypothesis_lists(self):
        hyp_lists = [[hyp((0, 1), -1.0, -2.0, 2.0), hyp((1,), -1.5, -0.5, 1.0)],
                     [hyp((2,), -0.5, -1.0, 1.0)], [hyp((), -3.0, 0.0)]]
        nbest = NBest.from_lists(hyp_lists)
        assert len(nbest) == 3
        assert nbest[0] == hyp_lists[0] and nbest[-1] == hyp_lists[-1]
        assert list(nbest) == hyp_lists
        assert isinstance(nbest[1:], NBest) and list(nbest[1:]) == hyp_lists[1:]
        assert list(nbest[::-1]) == hyp_lists[::-1]
        assert nbest == NBest.from_lists(hyp_lists) and nbest[:2] != nbest[1:]
        with pytest.raises(IndexError):
            nbest[3]

    def test_an_empty_row_is_refused(self):
        nbest = NBest.from_lists([[hyp((0,), -1.0)], []])
        assert nbest[1] == []
        with pytest.raises(ScoringError, match="empty hypothesis list"):
            nbest.best(FusionParams())

    def test_an_overflowing_best_score_is_refused_as_by_best_hypothesis(self):
        # One overflow to +inf and one to -inf: both routines refuse each the same way.
        for score, lm_weight in ((1e308, 1.0), (-1e308, 2.0)):
            hyps = [hyp((0,), score, score)]
            params = FusionParams(lm_weight=lm_weight)
            with pytest.raises(ScoringError, match="fused score must be finite"):
                best_hypothesis(hyps, params)
            with pytest.raises(ScoringError, match="fused score must be finite"):
                NBest.from_lists([hyps]).best(params)

    def test_nan_in_padding_is_accepted(self):
        nbest = valid_nbest()
        am = nbest.am.copy()
        am[1, 1] = np.nan
        padded = replace(nbest, am=am)
        assert padded == nbest
        assert [r.tolist() for r in padded.best(FusionParams())] == [[0, 0], [-1.0, -0.5]]

    @pytest.mark.parametrize(
        "name, cell, value, named",
        [("counts", (0,), -1, "counts must lie in 0..2"),
         ("counts", (1,), 3, "counts must lie in 0..2"),
         ("lengths", (0, 1), -1, "lengths must lie in 0..2"),
         ("lengths", (1, 0), 3, "lengths must lie in 0..2"),
         ("tokens", (0, 0, 1), -1, "token ids must be nonnegative"),
         ("am", (0, 1), np.nan, "am scores must be finite"),
         ("lm", (1, 0), -np.inf, "lm scores must be finite"),
         ("coverage", (0, 0), np.inf, "coverage scores must be finite"),
         ("coverage", (1, 0), -1.0, "coverage must be nonnegative")],
        ids=["negative-count", "count-over-k", "negative-length", "length-over-L",
             "negative-token", "nan-am", "infinite-lm", "infinite-coverage",
             "negative-coverage"],
    )
    def test_an_invalid_held_cell_is_refused(self, name, cell, value, named):
        nbest = valid_nbest()
        array = getattr(nbest, name).copy()
        array[cell] = value
        with pytest.raises(ScoringError, match=named):
            replace(nbest, **{name: array})

    @pytest.mark.parametrize(
        "name, array, named",
        [("tokens", np.zeros((2, 2, 2)), "tokens must hold integers"),
         ("counts", np.ones(2, dtype=bool), "counts must hold integers"),
         ("tokens", np.zeros((2, 2), dtype=np.int64), "tokens must be"),
         ("lengths", np.zeros((2, 3), dtype=np.int64), "lengths must have shape"),
         ("am", np.zeros(2), "am must have shape")],
        ids=["float-tokens", "bool-counts", "2d-tokens", "wide-lengths", "1d-am"],
    )
    def test_a_mistyped_or_misshapen_array_is_refused(self, name, array, named):
        with pytest.raises(ScoringError, match=named):
            replace(valid_nbest(), **{name: array})

    def test_arrays_are_read_only(self):
        nbest = valid_nbest()
        with pytest.raises(ValueError):
            nbest.am[0, 0] = 0.0

    def test_a_rank_outside_its_row_is_refused(self):
        with pytest.raises(ScoringError, match="each rank"):
            valid_nbest().token_ids(np.array([0, 1]))


class FakeRecognizer:
    """Recognizer stub returning canned hypothesis lists keyed by utterance id."""

    def __init__(self, vocab, hyp_lists):
        self.vocab = vocab
        self._hyp_lists = hyp_lists

    def transcribe(self, utterances, beam):
        return NBest.from_lists([self._hyp_lists[u.id] for u in utterances])


class DroppingRecognizer(FakeRecognizer):
    """A recognizer that returns one hypothesis list fewer than it was given utterances."""

    def transcribe(self, utterances, beam):
        return super().transcribe(utterances, beam)[:-1]


@pytest.fixture
def fake_dev():
    vocab = TokenVocab(["x", "y"])
    utterances = [
        Utterance(id=f"d{i}", features=np.zeros((1, 1)), transcript=("x",))
        for i in range(3)
    ]
    # am alone prefers the wrong token; the LM corrects it.
    hyp_lists = {
        u.id: [
            ScoredHypothesis(Transcript((1,)), am_score=-1.0, lm_score=-5.0),
            ScoredHypothesis(Transcript((0,)), am_score=-2.0, lm_score=-1.0),
        ]
        for u in utterances
    }
    return Dataset(utterances), FakeRecognizer(vocab, hyp_lists)


class TestGridSearch:
    def test_singleton_grid(self, fake_dev):
        dev, recognizer = fake_dev
        only = FusionParams(lm_weight=0.3)
        assert grid_search_fusion([only], dev, recognizer) == only

    def test_picks_strictly_lower_wer_point(self, fake_dev):
        dev, recognizer = fake_dev
        grid = [FusionParams(lm_weight=0.0), FusionParams(lm_weight=1.0)]
        table = grid_search_table(grid, dev, recognizer.transcribe(list(dev), 4), recognizer.vocab)
        assert table[0].dev_wer == 1.0
        assert table[1].dev_wer == 0.0
        assert grid_search_fusion(grid, dev, recognizer) == grid[1]

    def test_tie_breaks_to_earliest_index(self, fake_dev):
        dev, recognizer = fake_dev
        # Same ranking either way (coverage is 0 everywhere), so WERs tie.
        grid = [
            FusionParams(lm_weight=1.0, coverage_weight=0.0),
            FusionParams(lm_weight=1.0, coverage_weight=5.0),
        ]
        table = grid_search_table(grid, dev, recognizer.transcribe(list(dev), 4), recognizer.vocab)
        assert table[0].dev_wer == table[1].dev_wer
        assert grid_search_fusion(grid, dev, recognizer) == grid[0]

    def test_a_missing_hypothesis_list_is_refused(self, fake_dev):
        # Zipped silently, the dev WER would be scored over the first utterances only.
        dev, recognizer = fake_dev
        dropping = DroppingRecognizer(recognizer.vocab, recognizer._hyp_lists)
        with pytest.raises(ValueError, match="shorter"):
            grid_search_table(
                [FusionParams()], dev, dropping.transcribe(list(dev), 4), dropping.vocab
            )
        with pytest.raises(ValueError, match="shorter"):
            hypothesis_records(dev, dropping.transcribe(list(dev), 4), dropping.vocab)

    def test_empty_grid_rejected(self, fake_dev):
        dev, recognizer = fake_dev
        with pytest.raises(ScoringError):
            grid_search_fusion([], dev, recognizer)

    def test_toy_recognizer_grid_point_selection(self):
        # Both grid points evaluated exhaustively by hand below; the fixed
        # seed gives strictly different dev WERs.
        from nst.augment import identity_policy
        from nst.recognizer import (
            MarkovSentenceSource,
            ToyRecognizer,
            ToyWorld,
            synth_generate,
            toy_train,
        )
        from nst.seeding import derive_rng

        seed = 1
        world = ToyWorld(vocab_size=6, noise=0.5, frames_per_token=2)
        source = MarkovSentenceSource.structured(6, seed=2, branching=2, length_range=(4, 6))
        train = synth_generate(world, 80, source, derive_rng("gs-train", seed))
        model = toy_train(train, world.vocab(), 2, identity_policy(), seed)
        recognizer = ToyRecognizer(world.vocab(), 2, model=model)
        dev = synth_generate(world, 3, source, derive_rng("gs-dev", seed), id_prefix="dev")
        grid = [FusionParams(lm_weight=0.0), FusionParams(lm_weight=1.0)]

        # Oracle: evaluate every grid point directly, utterance by utterance.
        hyp_lists = recognizer.transcribe(list(dev), 4)
        manual = []
        for params in grid:
            pairs = []
            for u, hyps in zip(dev, hyp_lists):
                best = max(
                    hyps,
                    key=lambda h: h.am_score
                    + params.lm_weight * h.lm_score
                    + params.coverage_weight * h.coverage,
                )
                pairs.append((u.transcript, world.vocab().decode(best.transcript)))
            manual.append(corpus_wer(pairs).wer)
        assert manual[1] < manual[0]
        assert grid_search_fusion(grid, dev, recognizer, beam=4) == grid[1]


class TestGridAlignmentCount:
    @pytest.fixture
    def toy_dev(self):
        from nst.augment import identity_policy
        from nst.recognizer import (
            MarkovSentenceSource,
            ToyRecognizer,
            ToyWorld,
            synth_generate,
            toy_train,
        )
        from nst.seeding import derive_rng

        world = ToyWorld(vocab_size=6, noise=0.8, frames_per_token=2)
        source = MarkovSentenceSource.structured(6, seed=2, branching=2, length_range=(3, 6))
        train = synth_generate(world, 60, source, derive_rng("ga-train", 3))
        model = toy_train(train, world.vocab(), 2, identity_policy(), 3)
        recognizer = ToyRecognizer(world.vocab(), 2, model=model)
        dev = synth_generate(world, 12, source, derive_rng("ga-dev", 3), id_prefix="dev")
        return dev, recognizer, recognizer.transcribe(list(dev), 4)

    def test_each_distinct_pair_is_aligned_once(self, toy_dev, monkeypatch):
        dev, recognizer, hyp_lists = toy_dev
        grid = [FusionParams(lm_weight=w) for w in (0.0, 0.3, 0.7, 1.0, 2.0, 4.0)]
        refs = [u.transcript for u in dev]
        decode = recognizer.vocab.decode
        # By hand: every grid point's best pairs, through corpus_wer.
        best = [[hyps[reference_best_of(hyps, p)[0]].transcript for hyps in hyp_lists]
                for p in grid]
        manual = [corpus_wer(zip(refs, map(decode, row))).wer for row in best]
        distinct = {(i, t) for row in best for i, t in enumerate(row)}
        assert len(grid) < len(distinct) < len(grid) * len(dev)

        aligned = []
        original = scoring.edit_alignment_counts

        def counting(reference, hypothesis):
            aligned.append((tuple(reference), tuple(hypothesis)))
            return original(reference, hypothesis)

        monkeypatch.setattr(scoring, "edit_alignment_counts", counting)
        table = grid_search_table(grid, dev, hyp_lists, recognizer.vocab)
        assert Counter(aligned) == Counter((refs[i], decode(t)) for i, t in distinct)
        assert [point.dev_wer for point in table] == manual
        assert [point.params for point in table] == grid

    def test_all_empty_references_rejected(self, fake_dev):
        dev, recognizer = fake_dev
        blank = Dataset(
            Utterance(id=u.id, features=u.features, transcript=()) for u in dev
        )
        with pytest.raises(EmptyReferenceError):
            grid_search_table(
                [FusionParams()], blank, recognizer.transcribe(list(blank), 4), recognizer.vocab
            )


class TestHypothesesJsonl:
    def test_roundtrip(self, tmp_path):
        records = [
            HypothesisRecord("u1", ("a", "b"), am=-1.5, lm=-0.25, coverage=2.0),
            HypothesisRecord("u2", (), am=-9.0, lm=0.0, coverage=0.0, fused=-9.0),
        ]
        path = tmp_path / "hyps.jsonl"
        write_hypotheses(records, path)
        assert read_hypotheses(path) == records

    def test_bytes_are_one_json_object_per_line(self, tmp_path):
        path = tmp_path / "hyps.jsonl"
        record = HypothesisRecord("u1", ("a", "é"), am=-1.5, lm=-0.25, coverage=2.0, fused=-3.0)
        write_hypotheses([record], path)
        assert path.read_text(encoding="utf-8") == (
            '{"id": "u1", "tokens": ["a", "é"], "am": -1.5, "lm": -0.25, "coverage": 2.0, '
            '"fused": -3.0}\n'
        )

    @pytest.mark.parametrize(
        "record, named",
        [
            ({"id": 7, "tokens": "ab", "am": True, "lm": "-1.5", "covrage": 0.9},
             "unknown hypothesis record: covrage"),
            ({"id": 7, "tokens": ["a"], "am": -1.0, "lm": -1.5}, "id must be a string"),
            ({"id": "u1", "tokens": "ab", "am": -1.0, "lm": -1.5}, "tokens must be a list"),
            ({"id": "u1", "tokens": ["a", 2], "am": -1.0, "lm": -1.5},
             "non-string in tokens"),
            ({"id": "u1", "tokens": ["a"], "am": True, "lm": -1.5}, "am must be a number"),
            ({"id": "u1", "tokens": ["a"], "am": -1.0, "lm": "-1.5"}, "lm must be a number"),
            ({"id": "u1", "tokens": ["a"], "am": -1.0, "lm": -1.5, "fused": None},
             "fused must be a number"),
            ({"id": "u1", "tokens": ["a"], "lm": -1.5}, "missing from hypothesis record: am"),
            ({"id": "u1", "tokens": ["a"], "am": float("nan"), "lm": -1.5}, "am must be finite"),
            ({"id": "u1", "tokens": ["a"], "am": -1.0, "lm": float("-inf")}, "lm must be finite"),
        ],
        ids=["found-record", "int-id", "string-tokens", "int-token", "bool-am", "string-lm",
             "null-fused", "missing-am", "nan-am", "infinite-lm"],
    )
    def test_mistyped_lines_refused_naming_line_and_key(self, tmp_path, record, named):
        # The first line once loaded as id '7', tokens ('a', 'b'), am 1.0, lm -1.5, coverage 0.
        path = tmp_path / "hyps.jsonl"
        good = {"id": "u0", "tokens": [], "am": -1.0, "lm": 0.0}
        path.write_text(json.dumps(good) + "\n" + json.dumps(record) + "\n")
        with pytest.raises(ManifestError, match=named) as err:
            read_hypotheses(path)
        assert err.value.line_number == 2
        assert str(path) in str(err.value)

    def test_failed_write_leaves_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "hyps.jsonl"
        write_hypotheses([HypothesisRecord("u1", ("a",), am=-1.0, lm=-2.0)], path)
        before = path.read_bytes()

        def fail_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("nst.corpus.os.replace", fail_replace)
        with pytest.raises(OSError):
            write_hypotheses([HypothesisRecord("u2", ("b",), am=-3.0, lm=-4.0)], path)
        assert path.read_bytes() == before
