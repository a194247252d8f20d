import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nst.corpus import Dataset, Utterance
from nst.filtering import (
    CurvePoint,
    DegenerateDesignError,
    FilterModel,
    FilteringError,
    MissingScoreError,
    ScoredTranscript,
    SIGMA_FLOOR,
    TooFewPointsError,
    apply_filter,
    curves_to_tsv,
    default_thresholds,
    filter_score,
    fit_filter,
    score_curves,
)
from nst.scoring import EmptyReferenceError
from oracles import reference_score_curves

NEG_INF = float("-inf")


def project_out_line(lengths, raw):
    """Component of ``raw`` orthogonal to span{1, lengths}, via Cramer's rule."""
    n = len(lengths)
    sum_l = sum(lengths)
    sum_ll = sum(x * x for x in lengths)
    sum_e = sum(raw)
    sum_le = sum(x * e for x, e in zip(lengths, raw))
    det = sum_ll * n - sum_l * sum_l
    a = (sum_le * n - sum_l * sum_e) / det
    b = (sum_ll * sum_e - sum_l * sum_le) / det
    return [e - a * x - b for x, e in zip(lengths, raw)]


def population_std(values):
    mean = sum(values) / len(values)
    return math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))


class TestFitFilter:
    def test_noiseless_collinear(self):
        model = fit_filter([(1, 5.0), (2, 7.0), (3, 9.0)])
        assert model.mu == pytest.approx(2.0, rel=1e-12)
        assert model.beta == pytest.approx(3.0, rel=1e-12)
        assert model.sigma == SIGMA_FLOOR

    def test_constructed_residual_recovery(self):
        # Residuals orthogonal to the design leave the least-squares line at
        # exactly the planted (mu, beta); sigma is then the population std of
        # the per-sqrt-length residuals, both computed here independently.
        lengths = [1, 4, 9, 16, 25]
        planted = project_out_line(lengths, [0.5, -1.2, 0.7, -0.3, 0.9])
        scores = [2.0 * l + 3.0 + e for l, e in zip(lengths, planted)]
        model = fit_filter(list(zip(lengths, scores)))
        assert model.mu == pytest.approx(2.0, rel=1e-9)
        assert model.beta == pytest.approx(3.0, rel=1e-9)
        expected_sigma = population_std(
            [e / math.sqrt(l) for l, e in zip(lengths, planted)]
        )
        assert model.sigma == pytest.approx(expected_sigma, rel=1e-9)

    def test_degenerate_design(self):
        with pytest.raises(DegenerateDesignError):
            fit_filter([(5, 1.0), (5, 2.0), (5, 3.0)])

    def test_too_few_points(self):
        with pytest.raises(TooFewPointsError):
            fit_filter([(1, 1.0), (2, 2.0)])

    def test_bad_lengths(self):
        with pytest.raises(FilteringError):
            fit_filter([(0, 1.0), (1, 2.0), (2, 3.0)])

    def test_ols_identities_and_unit_score_std(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(5, 60))
            lengths = rng.integers(1, 40, n)
            if np.unique(lengths).size < 2:
                continue
            scores = -1.3 * lengths + 0.4 + rng.normal(0, 1.0, n) * np.sqrt(lengths)
            model = fit_filter(list(zip(lengths.tolist(), scores.tolist())))
            residuals = scores - model.mu * lengths - model.beta
            scale = max(1.0, float(np.abs(residuals).sum()))
            assert abs(float(residuals.sum())) <= 1e-6 * scale
            weighted = float((lengths * residuals).sum())
            weighted_scale = max(1.0, float(np.abs(lengths * residuals).sum()))
            assert abs(weighted) <= 1e-6 * weighted_scale
            fitted = [
                filter_score(model, s, int(l)) for l, s in zip(lengths, scores)
            ]
            assert population_std(fitted) == pytest.approx(1.0, abs=1e-9)


class TestFilterModelRecord:
    def test_dict_roundtrip(self):
        model = FilterModel(mu=-1.5, beta=0.25, sigma=2.0)
        assert FilterModel.from_dict(model.to_dict()) == model
        assert FilterModel.from_dict({"mu": -1, "beta": 0, "sigma": 2}) == FilterModel(-1.0, 0.0, 2.0)

    @pytest.mark.parametrize(
        "record",
        [
            {"mu": 1.0},
            {"mu": 1.0, "beta": 0.0, "sigma": 1.0, "sigam": 1.0},
            {"mu": "1", "beta": 0.0, "sigma": 1.0},
            {"mu": [1.0], "beta": 0.0, "sigma": 1.0},
            {"mu": True, "beta": 0.0, "sigma": 1.0},
            [1.0, 0.0, 1.0],
        ],
    )
    def test_from_dict_rejects_malformed_records(self, record):
        with pytest.raises(FilteringError):
            FilterModel.from_dict(record)


class TestFilterScore:
    def test_direct_evaluation(self):
        model = FilterModel(mu=0.0, beta=0.0, sigma=1.0)
        assert filter_score(model, -6.0, 4) == pytest.approx(-3.0)

    def test_regression_line_maps_to_zero(self):
        model = FilterModel(mu=2.0, beta=3.0, sigma=0.5)
        for length in (1, 2, 7, 40):
            assert filter_score(model, 2.0 * length + 3.0, length) == pytest.approx(0.0)

    def test_blank_transcript_scores_neg_inf(self):
        model = FilterModel(mu=1.0, beta=0.0, sigma=1.0)
        assert filter_score(model, 100.0, 0) == NEG_INF

    def test_monotone_in_score_and_mu(self):
        model = FilterModel(mu=0.5, beta=0.0, sigma=1.0)
        higher = FilterModel(mu=1.5, beta=0.0, sigma=1.0)
        for length in (1, 3, 9):
            assert filter_score(model, -1.0, length) < filter_score(model, 0.0, length)
            assert filter_score(higher, -1.0, length) < filter_score(model, -1.0, length)

    def test_sigma_must_be_positive(self):
        with pytest.raises(FilteringError):
            FilterModel(mu=0.0, beta=0.0, sigma=0.0)


def scored_dataset(entries):
    """entries: list of (id, token count, fused score)."""
    return Dataset(
        Utterance(
            id=utt_id,
            features=np.zeros((1, 1)),
            transcript=tuple(f"w{k}" for k in range(length)),
            score=fused,
        )
        for utt_id, length, fused in entries
    )


class TestApplyFilter:
    identity_model = FilterModel(mu=0.0, beta=0.0, sigma=1.0)

    def test_neg_inf_cutoff_keeps_everything(self):
        dataset = scored_dataset([("a", 0, -50.0), ("b", 4, -2.0), ("c", 1, 3.0)])
        kept = apply_filter(dataset, self.identity_model, NEG_INF)
        assert kept.ids() == dataset.ids()

    def test_direct_comparison(self):
        # Scores with length 1 and sigma 1 equal the fused values, so "on" scores
        # exactly the cutoff and is dropped.
        dataset = scored_dataset([("a", 1, -1.2), ("on", 1, 0.0), ("b", 1, 0.3), ("c", 1, 1.7)])
        kept = apply_filter(dataset, self.identity_model, 0.0)
        assert kept.ids() == ("b", "c")

    def test_blank_passes_only_neg_inf(self):
        dataset = scored_dataset([("blank", 0, 1e9), ("full", 3, 30.0)])
        assert apply_filter(dataset, self.identity_model, -1e12).ids() == ("full",)
        assert apply_filter(dataset, self.identity_model, NEG_INF).ids() == ("blank", "full")

    def test_nested_cutoffs_by_enumeration(self):
        rng = np.random.default_rng(3)
        entries = []
        for i in range(100):
            length = int(rng.integers(0, 12))
            fused = float(rng.normal(0, 2) * math.sqrt(max(length, 1)))
            entries.append((f"u{i:03d}", length, fused))
        dataset = scored_dataset(entries)
        cutoffs = [1.0, 0.5, 0.0, -1.0, NEG_INF]
        kept_sets = []
        for cutoff in cutoffs:
            kept = apply_filter(dataset, self.identity_model, cutoff)
            # Enumeration oracle: recheck every utterance against the rule.
            expected = [
                utt_id
                for utt_id, length, fused in entries
                if cutoff == NEG_INF
                or (length > 0 and fused / math.sqrt(length) > cutoff)
            ]
            assert list(kept.ids()) == expected
            kept_sets.append(set(kept.ids()))
        for tighter, looser in zip(kept_sets, kept_sets[1:]):
            assert tighter <= looser
        sizes = [len(s) for s in kept_sets]
        assert sizes == sorted(sizes)

    def test_order_preserved(self):
        dataset = scored_dataset([("z", 1, 5.0), ("a", 1, 4.0), ("m", 1, 3.0)])
        assert apply_filter(dataset, self.identity_model, 0.0).ids() == ("z", "a", "m")

    def test_missing_score_names_utterance(self):
        dataset = Dataset(
            [Utterance(id="u9", features=np.zeros((1, 1)), transcript=("x",))]
        )
        with pytest.raises(MissingScoreError) as err:
            apply_filter(dataset, self.identity_model, 0.0)
        assert err.value.utterance_id == "u9"


def survival(x: float) -> float:
    return 0.5 * math.erfc(x / math.sqrt(2))


class TestScoredTranscript:
    @pytest.mark.parametrize(
        "tokens, position, value", [((1, None), 0, "1"), (("a", None), 1, "None")]
    )
    def test_refuses_a_token_that_is_not_a_string(self, tokens, position, value):
        with pytest.raises(FilteringError, match=f"token {position} must be a string, got {value}"):
            ScoredTranscript(tokens, -1.0)

    def test_string_tokens_pass_through(self):
        assert ScoredTranscript(["a", "b"], -1).tokens == ("a", "b")


class TestScoreCurves:
    @pytest.fixture
    def dev_and_hyps(self):
        rng = np.random.default_rng(17)
        mu, beta, sigma = -1.0, 0.5, 0.7
        utterances = []
        hyps = {}
        pairs = []
        for i in range(200):
            length = int(rng.integers(2, 30))
            fused = mu * length + beta + sigma * rng.normal() * math.sqrt(length)
            tokens = tuple(f"w{k}" for k in range(length))
            utt_id = f"d{i:03d}"
            utterances.append(
                Utterance(id=utt_id, features=np.zeros((1, 1)), transcript=tokens)
            )
            hyps[utt_id] = ScoredTranscript(tokens, fused)
            pairs.append((length, fused))
        model = fit_filter(pairs)
        return Dataset(utterances), hyps, model

    def test_full_set_at_neg_inf(self, dev_and_hyps):
        dev, hyps, model = dev_and_hyps
        (point,) = score_curves(dev, hyps, model, [NEG_INF])
        assert point.utterance_fraction == 1.0
        assert point.token_fraction == 1.0
        assert point.wer == 0.0

    def test_empty_above_max(self, dev_and_hyps):
        dev, hyps, model = dev_and_hyps
        (point,) = score_curves(dev, hyps, model, [1e9])
        assert point.utterance_fraction == 0.0
        assert point.token_fraction == 0.0
        assert point.wer is None

    def test_fractions_monotone_nonincreasing(self, dev_and_hyps):
        dev, hyps, model = dev_and_hyps
        points = score_curves(dev, hyps, model)
        utt = [p.utterance_fraction for p in points]
        tok = [p.token_fraction for p in points]
        assert all(a >= b for a, b in zip(utt, utt[1:]))
        assert all(a >= b for a, b in zip(tok, tok[1:]))

    def test_survival_matches_standard_normal(self, dev_and_hyps):
        dev, hyps, model = dev_and_hyps
        points = score_curves(dev, hyps, model, default_thresholds(-4.0, 4.0, 0.05))
        distance = max(
            abs(p.utterance_fraction - survival(p.threshold)) for p in points
        )
        assert distance < 0.1

    def test_default_grid_has_61_rows(self):
        assert len(default_thresholds()) == 61

    @pytest.mark.parametrize(
        "low, high, step, named",
        [(-3.0, 3.0, 0.0, "step"), (-3.0, 3.0, -0.1, "step"), (-3.0, 3.0, math.nan, "step"),
         (-3.0, 3.0, math.inf, "step"), (3.0, -3.0, 0.1, "low <= high"),
         (-math.inf, 3.0, 0.1, "low <= high"), (math.nan, 3.0, 0.1, "low <= high")],
    )
    def test_bad_threshold_grid_refused(self, low, high, step, named):
        # A zero step once divided by zero; high < low reached numpy's sample-count check.
        with pytest.raises(FilteringError, match=named):
            default_thresholds(low, high, step)
        assert default_thresholds(1.0, 1.0, 0.5) == (1.0,)

    def test_tsv_rendering(self):
        text = curves_to_tsv(
            [CurvePoint(0.5, 0.25, 0.2, 0.125), CurvePoint(2.0, 0.0, 0.0, None)]
        )
        lines = text.splitlines()
        assert lines[0] == "threshold\tutt_frac\ttok_frac\twer"
        assert lines[1] == "0.5\t0.25\t0.2\t0.125"
        assert lines[2] == "2\t0\t0\t"

    def test_missing_hypothesis_rejected(self, dev_and_hyps):
        dev, hyps, model = dev_and_hyps
        partial = dict(hyps)
        partial.popitem()
        with pytest.raises(FilteringError):
            score_curves(dev, partial, model, [0.0])


# Few fused values and short transcripts, so equal scores are common; blank
# hypotheses score -inf.
CURVE_MODEL = FilterModel(mu=-0.5, beta=0.25, sigma=1.0)
curve_words = st.lists(st.sampled_from("abc"), max_size=3).map(tuple)
curve_rows = st.lists(
    st.tuples(curve_words, curve_words, st.sampled_from((-2.0, -1.0, 0.0, 1.5))),
    min_size=1,
    max_size=8,
)


@st.composite
def curve_cases(draw):
    """(reference, hypothesis, fused) rows plus thresholds, some on the rows' own scores."""
    rows = draw(curve_rows)
    scores = [filter_score(CURVE_MODEL, fused, len(hyp)) for _, hyp, fused in rows]
    thresholds = draw(
        st.lists(
            st.one_of(
                st.sampled_from(scores),
                st.sampled_from((NEG_INF, math.inf, 0.0)),
                st.floats(-4.0, 4.0),
            ),
            max_size=8,
        )
    )
    return rows, thresholds


class TestScoreCurvesOracle:
    @settings(max_examples=300, deadline=None)
    @given(curve_cases())
    # Equal scores (1.75) sitting exactly on a threshold are all out, then all in.
    @example(([(("a",), ("a",), 1.5), (("b",), ("a",), 1.5), (("c",), ("c",), 0.0)], [1.75, 1.0]))
    # Empty references alone in the slices that -2.0 and then -inf admit.
    @example(([(("a",), ("a",), 1.5), ((), ("b",), -2.0), ((), (), 0.0)], [0.0, -2.0, NEG_INF]))
    # Empty references mixed with others in one slice; duplicate, unsorted thresholds.
    @example(([((), ("a", "b"), 1.5), (("c",), ("a",), 1.5), ((), (), -1.0)], [1.0, NEG_INF, 1.0]))
    # Only empty references, so any nonempty kept set has no reference tokens.
    @example(([((), ("a",), 0.0), ((), (), 0.0)], [5.0, 0.0, -3.0]))
    def test_matches_threshold_by_threshold_oracle(self, case):
        rows, thresholds = case
        dev = Dataset(
            Utterance(id=f"u{i}", features=np.zeros((1, 1)), transcript=ref)
            for i, (ref, _, _) in enumerate(rows)
        )
        hyps = {f"u{i}": ScoredTranscript(hyp, fused) for i, (_, hyp, fused) in enumerate(rows)}
        entries = [
            (filter_score(CURVE_MODEL, fused, len(hyp)), ref, hyp) for ref, hyp, fused in rows
        ]
        try:
            expected = reference_score_curves(entries, thresholds)
        except ValueError:
            with pytest.raises(EmptyReferenceError):
                score_curves(dev, hyps, CURVE_MODEL, thresholds)
            return
        points = score_curves(dev, hyps, CURVE_MODEL, thresholds)
        assert [
            (p.threshold, p.utterance_fraction, p.token_fraction, p.wer) for p in points
        ] == expected
        assert curves_to_tsv(points) == curves_to_tsv([CurvePoint(*row) for row in expected])

    def test_empty_dev_rejected(self):
        with pytest.raises(FilteringError, match="empty"):
            score_curves(Dataset([]), {}, CURVE_MODEL, [0.0])
        with pytest.raises(ValueError):
            reference_score_curves([], [0.0])
