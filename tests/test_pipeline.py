import copy
import functools
import json
from dataclasses import replace
from pathlib import Path

import pytest

from nst import pipeline, scoring
from nst.augment import AugmentPolicy
from nst.corpus import load_manifest, save_manifest, save_vocab
from nst.augment import AugmentError
from nst.mixing import MixingError, MixPlan
from nst.pipeline import (
    BalanceSettings,
    GenerationConfig,
    GenerationMetrics,
    PipelineConfig,
    PipelineError,
    PipelineState,
    StageError,
    emit_reports,
    init_state,
    load_state,
    parse_cutoff,
    run_generation,
    run_pipeline,
    save_state,
)
from nst.recognizer import (
    MarkovSentenceSource,
    RecognizerError,
    ToyRecognizer,
    ToyWorld,
    synth_generate,
)
from nst.scoring import FusionParams
from nst.seeding import derive_rng

NEG_INF = float("-inf")

MILD_POLICY = AugmentPolicy(
    freq_mask_param=1,
    num_freq_masks=1,
    time_mask_param=None,
    time_mask_ratio=0.05,
    num_time_masks=2,
    time_warp_param=0,
)

GRID = (FusionParams(lm_weight=0.0), FusionParams(lm_weight=0.7))


def make_task(root: Path, sup=40, dev=30, unlab=80, noise=0.4, seed=5):
    world = ToyWorld(vocab_size=8, noise=noise, frames_per_token=2)
    source = MarkovSentenceSource.structured(8, seed=21, length_range=(3, 6))
    root.mkdir(parents=True, exist_ok=True)
    save_vocab(world.vocab(), root / "vocab.txt")
    rng = derive_rng(seed, "task")
    save_manifest(synth_generate(world, sup, source, rng, "sup"), root / "sup.jsonl")
    save_manifest(synth_generate(world, dev, source, rng, "dev"), root / "dev.jsonl")
    unlabeled = synth_generate(world, unlab, source, rng, "unlab").strip_labels()
    save_manifest(unlabeled, root / "unlab.jsonl")
    return world


def make_config(root: Path, gens):
    return PipelineConfig(
        supervised=str(root / "sup.jsonl"),
        unlabeled=str(root / "unlab.jsonl"),
        dev=str(root / "dev.jsonl"),
        vocab=str(root / "vocab.txt"),
        frames_per_token=2,
        beam=3,
        generations=tuple(gens),
    )


def gen_config(generation, cutoff=None, balance=False, mix=None):
    return GenerationConfig(
        generation=generation,
        augment_policy=MILD_POLICY,
        fusion_grid=GRID,
        filter_cutoff=cutoff,
        balance=BalanceSettings() if balance else None,
        mix=mix or MixPlan(mode="batchwise", ratio=(1, 1), batch_size=4),
    )


@pytest.fixture
def task(tmp_path):
    root = tmp_path / "task"
    make_task(root)
    return root


class TestGenerationZero:
    def test_trains_on_supervised_only_and_records_baseline(self, task, tmp_path):
        config = make_config(task, [gen_config(0)])
        workdir = tmp_path / "work"
        state = init_state(workdir, config, seed=9)
        state = run_generation(state, config.generations[0])
        assert state.generation == 1
        assert len(state.metrics) == 1
        row = state.metrics[0]
        assert row.generation == 0
        assert 0.0 <= row.dev_wer <= 1.0
        assert row.semi_utterances == 0
        assert row.semi_examples == 0
        assert (workdir / "model_gen0.json").exists()
        assert (workdir / "filter_gen0.json").exists()
        assert (workdir / "curves_gen0.tsv").exists()
        assert state.fusion is not None
        assert state.filter_model is not None

    def test_generation_mismatch_rejected(self, task, tmp_path):
        config = make_config(task, [gen_config(0), gen_config(1)])
        state = init_state(tmp_path / "work", config, seed=9)
        with pytest.raises(PipelineError):
            run_generation(state, config.generations[1])


class TestFullLoop:
    def test_single_generation_pipeline(self, task, tmp_path):
        config = make_config(task, [gen_config(0)])
        state = run_pipeline(tmp_path / "work", config, seed=3)
        table = (tmp_path / "work" / "metrics.tsv").read_text().splitlines()
        assert table[0] == "generation\tdev_wer\tsemi_utterances\tsemi_examples"
        assert len(table) == 2

    def test_filtering_disabled_balancing_enabled(self, task, tmp_path):
        config = make_config(
            task, [gen_config(0), gen_config(1, cutoff=None, balance=True)]
        )
        workdir = tmp_path / "work"
        state = run_pipeline(workdir, config, seed=4)
        pseudo = load_manifest(workdir / "pseudo_gen1.jsonl")
        unlab = load_manifest(task / "unlab.jsonl")
        # Every pseudo-label is present before balancing.
        assert pseudo.ids() == unlab.ids()
        assert not (workdir / "filtered_gen1.jsonl").exists()
        balanced = load_manifest(workdir / "balanced_gen1.jsonl")
        assert set(balanced.ids()) <= set(pseudo.ids())
        assert all(1 <= u.multiplicity <= 2 for u in balanced)
        assert state.metrics[1].semi_utterances == len(balanced)

    def test_filtered_sets_nested_across_relaxing_cutoffs(self, task, tmp_path):
        config = make_config(
            task,
            [
                gen_config(0),
                gen_config(1, cutoff=0.5),
                gen_config(2, cutoff=NEG_INF),
            ],
        )
        workdir = tmp_path / "work"
        state = run_pipeline(workdir, config, seed=6)
        sizes = [m.semi_utterances for m in state.metrics]
        assert sizes[0] == 0
        # The -inf generation keeps the whole unlabeled set.
        assert sizes[2] == len(load_manifest(task / "unlab.jsonl"))
        assert sizes[1] <= sizes[2]

    def test_derived_manifests_reference_unlabeled_sidecars(self, task, tmp_path):
        config = make_config(
            task, [gen_config(0), gen_config(1, cutoff=NEG_INF, balance=True)]
        )
        workdir = tmp_path / "work"
        run_pipeline(workdir, config, seed=4)
        for stem in ("pseudo", "filtered", "balanced"):
            assert (workdir / f"{stem}_gen1.jsonl").exists()
        assert list(workdir.glob("*_features")) == []
        pseudo = load_manifest(workdir / "pseudo_gen1.jsonl")
        unlab = load_manifest(task / "unlab.jsonl")
        assert pseudo.ids() == unlab.ids()
        for a, b in zip(pseudo, unlab):
            assert a.features.tobytes() == b.features.tobytes()

    def test_resume_is_a_noop_after_completion(self, task, tmp_path):
        config = make_config(task, [gen_config(0)])
        workdir = tmp_path / "work"
        first = run_pipeline(workdir, config, seed=11)
        state_bytes = (workdir / "state.json").read_bytes()
        second = run_pipeline(workdir, config, seed=11)
        assert (workdir / "state.json").read_bytes() == state_bytes
        assert second.metrics == first.metrics

    def test_seed_mismatch_rejected(self, task, tmp_path):
        config = make_config(task, [gen_config(0)])
        workdir = tmp_path / "work"
        run_pipeline(workdir, config, seed=11)
        with pytest.raises(PipelineError):
            run_pipeline(workdir, config, seed=12)

    @pytest.mark.parametrize(
        "name, value",
        [("frames_per_token", 3), ("beam", 4), ("decode_lm_weight", 0.5),
         ("supervised", "dev.jsonl"), ("unlabeled", "sup.jsonl"), ("dev", "unlab.jsonl"),
         ("vocab", "vocab2.txt")],
    )
    def test_resume_with_other_run_settings_refused(self, task, tmp_path, name, value):
        # Before this check the state's settings silently won over the config's.
        config = make_config(task, [gen_config(0)])
        workdir = tmp_path / "work"
        run_pipeline(workdir, config, seed=11)
        snapshot = sorted((p.name, p.read_bytes()) for p in workdir.iterdir())
        if name in ("supervised", "unlabeled", "dev", "vocab"):
            value = str(task / value)
        changed = replace(
            config, **{name: value}, generations=config.generations + (gen_config(1),)
        )
        with pytest.raises(PipelineError, match=f"cannot resume: .*{name}"):
            run_pipeline(workdir, changed, seed=11)
        assert sorted((p.name, p.read_bytes()) for p in workdir.iterdir()) == snapshot
        # The same settings, reached through another spelling of the paths, resume.
        relative = replace(config, supervised=str(task / ".." / task.name / "sup.jsonl"))
        assert run_pipeline(workdir, relative, seed=11).generation == 1


class TestDeterminism:
    def test_rerun_from_persisted_state_is_byte_identical(self, task, tmp_path):
        config = make_config(task, [gen_config(0), gen_config(1, cutoff=0.0, balance=True)])
        workdir = tmp_path / "work"
        state0 = init_state(workdir, config, seed=13)
        state1 = run_generation(state0, config.generations[0])
        checkpoint = (workdir / "state.json").read_bytes()

        run_generation(state1, config.generations[1])
        first_state = (workdir / "state.json").read_bytes()
        first_model = (workdir / "model_gen1.json").read_bytes()
        first_manifest = (workdir / "pseudo_gen1.jsonl").read_bytes()

        (workdir / "state.json").write_bytes(checkpoint)
        run_generation(load_state(workdir), config.generations[1])
        assert (workdir / "state.json").read_bytes() == first_state
        assert (workdir / "model_gen1.json").read_bytes() == first_model
        assert (workdir / "pseudo_gen1.jsonl").read_bytes() == first_manifest


class TestDecodeCount:
    def test_dev_is_decoded_once_per_generation(self, task, tmp_path, monkeypatch):
        # Generation 0 decodes dev once (tune_fusion); later generations also
        # decode the unlabeled set (transcribe_unlabeled) first.
        calls = []
        transcribe = ToyRecognizer.transcribe

        def counting(self, utterances, beam):
            calls.append(len(utterances))
            return transcribe(self, utterances, beam)

        monkeypatch.setattr(ToyRecognizer, "transcribe", counting)
        config = make_config(
            task, [gen_config(0), gen_config(1, cutoff=0.0), gen_config(2, cutoff=NEG_INF)]
        )
        state = init_state(tmp_path / "work", config, seed=6)
        per_generation = []
        for gen in config.generations:
            calls.clear()
            state = run_generation(state, gen)
            per_generation.append(list(calls))
        assert per_generation == [[30], [80, 30], [80, 30]]

    def test_one_generation_aligns_distinct_grid_pairs_plus_dev_at_most(
        self, task, tmp_path, monkeypatch
    ):
        # tune_fusion aligns each distinct (utterance, best hypothesis) pair of
        # the grid once; score_curves aligns each dev utterance at most once.
        aligned = []
        edit_alignment_counts = scoring.edit_alignment_counts

        def counting_alignment(reference, hypothesis):
            aligned.append(1)
            return edit_alignment_counts(reference, hypothesis)

        distinct_pairs = []
        grid_search_table = pipeline.grid_search_table

        def recording_grid(grid, dev, recognizer, beam, hyp_lists):
            distinct_pairs.append(
                len({
                    (i, scoring.best_hypothesis(hyps, params).transcript)
                    for params in grid
                    for i, hyps in enumerate(hyp_lists)
                })
            )
            return grid_search_table(grid, dev, recognizer, beam, hyp_lists=hyp_lists)

        monkeypatch.setattr(scoring, "edit_alignment_counts", counting_alignment)
        monkeypatch.setattr(pipeline, "grid_search_table", recording_grid)
        config = make_config(task, [gen_config(0), gen_config(1, cutoff=0.0)])
        state = init_state(tmp_path / "work", config, seed=6)
        dev_size = len(load_manifest(task / "dev.jsonl"))
        for gen in config.generations:
            aligned.clear()
            distinct_pairs.clear()
            state = run_generation(state, gen)
            (distinct,) = distinct_pairs
            assert 0 < len(aligned) <= distinct + dev_size < len(GRID) * dev_size + dev_size


class TestGradationalSchedules:
    def test_six_generation_cutoff_relaxation_grows_semi_sets(self, tmp_path):
        # Filtering only (no balancing): the semi set is the filtered set,
        # and relaxing cutoffs grows it generation over generation.
        root = tmp_path / "task"
        make_task(root, sup=60, dev=40, unlab=300, noise=0.7, seed=31)
        cutoffs = [None, 1.0, 0.5, 0.0, -1.0, NEG_INF]
        config = make_config(
            root, [gen_config(i, cutoff=cutoffs[i]) for i in range(6)]
        )
        state = run_pipeline(tmp_path / "work", config, seed=31)
        sizes = [m.semi_utterances for m in state.metrics]
        assert len(sizes) == 6
        assert all(a <= b for a, b in zip(sizes, sizes[1:]))
        assert sizes[1] > 0
        assert sizes[5] == 300

    def test_fast_and_slow_pipelines_report_comparable_tables(self, tmp_path):
        # A 3-generation run (cutoffs 0, -inf) against a 5-generation run
        # (1, 0.5, 0, -inf); the report pairs WER with semi-set size so the
        # two evolutions can be compared at matched sizes. No direction is
        # asserted, only that both runs complete and report cleanly.
        root = tmp_path / "task"
        make_task(root, sup=50, dev=40, unlab=200, noise=0.7, seed=33)
        fast_cutoffs = [None, 0.0, NEG_INF]
        slow_cutoffs = [None, 1.0, 0.5, 0.0, NEG_INF]
        results = {}
        for name, cutoffs in [("fast", fast_cutoffs), ("slow", slow_cutoffs)]:
            config = make_config(
                root, [gen_config(i, cutoff=cutoffs[i]) for i in range(len(cutoffs))]
            )
            state = run_pipeline(tmp_path / f"work-{name}", config, seed=33)
            paths = emit_reports(state)
            lines = paths["wer_vs_semi_size"].read_text().splitlines()
            assert lines[0] == "generation\tsemi_utterances\tsemi_examples\tdev_wer"
            assert len(lines) == 1 + len(cutoffs)
            rows = [line.split("\t") for line in lines[1:]]
            results[name] = [(int(r[1]), float(r[3])) for r in rows]
        for rows in results.values():
            assert all(0.0 <= wer_value <= 1.0 for _, wer_value in rows)
            assert all(size >= 0 for size, _ in rows)


class TestStageErrors:
    def test_failed_stage_leaves_state_untouched(self, task, tmp_path):
        config = make_config(task, [gen_config(0), gen_config(1)])
        workdir = tmp_path / "work"
        state = init_state(workdir, config, seed=2)
        state = run_generation(state, config.generations[0])
        snapshot = (workdir / "state.json").read_bytes()
        (task / "unlab.jsonl").unlink()
        with pytest.raises(StageError) as err:
            run_generation(state, config.generations[1])
        assert err.value.generation == 1
        assert err.value.stage == "load_teacher"
        assert (workdir / "state.json").read_bytes() == snapshot

    def test_a_recognizer_that_drops_a_hypothesis_list_is_refused(self, task, tmp_path):
        class DroppingRecognizer(ToyRecognizer):
            def transcribe(self, utterances, beam):
                return super().transcribe(utterances, beam)[:-1]

        config = make_config(task, [gen_config(0), gen_config(1)])
        state = init_state(tmp_path / "work", config, seed=2)
        with pytest.raises(StageError) as err:
            run_generation(state, config.generations[0], recognizer=DroppingRecognizer)
        assert (err.value.generation, err.value.stage) == (0, "tune_fusion")
        assert isinstance(err.value.cause, ValueError) and "shorter" in str(err.value.cause)
        state = run_generation(state, config.generations[0])
        with pytest.raises(StageError) as err:
            run_generation(state, config.generations[1], recognizer=DroppingRecognizer)
        assert (err.value.generation, err.value.stage) == (1, "transcribe_unlabeled")
        assert isinstance(err.value.cause, ValueError) and "shorter" in str(err.value.cause)

    @pytest.mark.parametrize(
        "key, value",
        [("tokens", [f"x{i}" for i in range(8)]), ("frames_per_token", 3)],
        ids=["tokens", "frames_per_token"],
    )
    def test_resume_against_a_teacher_for_another_task_refused(
        self, task, tmp_path, key, value
    ):
        # The forged teacher has the run's vocabulary size, so without the
        # check it would decode under the run's token names.
        workdir = tmp_path / "work"
        state = run_pipeline(workdir, make_config(task, [gen_config(0)]), seed=2)
        model_path = workdir / state.model_file
        record = json.loads(model_path.read_text())
        record[key] = value
        model_path.write_text(json.dumps(record, sort_keys=True))
        snapshot = (workdir / "state.json").read_bytes()
        config = make_config(task, [gen_config(0), gen_config(1)])
        with pytest.raises(StageError) as err:
            run_pipeline(workdir, config, seed=2)
        assert (err.value.generation, err.value.stage) == (1, "load_teacher")
        assert isinstance(err.value.cause, RecognizerError)
        assert (workdir / "state.json").read_bytes() == snapshot


class InjectedFault(Exception):
    pass


class Cue:
    """Raises InjectedFault on the ``nth`` call of whatever it guards."""

    def __init__(self, nth):
        self.left = nth

    def guard(self, fn):
        def guarded(*args, **kwargs):
            self.left -= 1
            if self.left == 0:
                raise InjectedFault(fn.__name__)
            return fn(*args, **kwargs)

        return guarded


class CuedRecognizer:
    """ToyRecognizer behind the protocol, with ``method`` guarded by ``cue``.

    One cue is shared by every recognizer a factory builds, so calls count
    across the teacher and the student.
    """

    def __init__(self, method, cue, vocab, frames_per_token, decode_lm_weight):
        self.inner = ToyRecognizer(vocab, frames_per_token, decode_lm_weight)
        self.vocab = vocab
        setattr(self, method, cue.guard(getattr(self.inner, method)))

    def train(self, dataset, policy, seed):
        self.inner.train(dataset, policy, seed)

    def transcribe(self, utterances, beam):
        return self.inner.transcribe(utterances, beam)

    def save(self, path):
        self.inner.save(path)

    def load(self, path):
        self.inner.load(path)


INJECTION_SEED = 17
RECOGNIZER_METHODS = ("train", "transcribe", "save", "load")
# (generation, stage, the recognizer method or pipeline name that raises, on
# which of its calls in the run). Every stage of both generations is covered.
INJECTIONS = [
    (0, "load", "load_vocab", 1),
    (0, "train", "train", 1),
    (0, "tune_fusion", "transcribe", 1),
    (0, "fit_filter", "fit_filter", 1),
    (0, "score_curves", "score_curves", 1),
    (1, "load", "load_manifest", 3),
    (1, "load_teacher", "load", 1),
    (1, "transcribe_unlabeled", "transcribe", 2),
    (1, "filter", "apply_filter", 1),
    (1, "balance", "_balance", 1),
    (1, "mix", "_draw_training_set", 1),
    (1, "train", "save", 2),
    (1, "tune_fusion", "transcribe", 3),
    (1, "fit_filter", "fit_filter", 2),
    (1, "score_curves", "score_curves", 2),
]
# Every byte-identical artifact of a run.
ARTIFACTS = (
    "state.json",
    "metrics.tsv",
    "model_gen*.json",
    "fusion_gen*.json",
    "filter_gen*.json",
    "curves_gen*.tsv",
    "dev_hyps_gen*.jsonl",
    "info_gen*.json",
    "pseudo_gen*.jsonl",
    "filtered_gen*.jsonl",
    "balanced_gen*.jsonl",
)


def artifacts(workdir: Path) -> dict[str, bytes]:
    return {
        p.name: p.read_bytes() for pattern in ARTIFACTS for p in workdir.glob(pattern)
    }


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory):
    """A tiny two-generation task and the workdir of one uninterrupted run."""
    root = tmp_path_factory.mktemp("inject")
    make_task(root / "task", sup=20, dev=12, unlab=24, seed=INJECTION_SEED)
    config = make_config(
        root / "task", [gen_config(0), gen_config(1, cutoff=0.0, balance=True)]
    )
    reference = root / "reference"
    run_pipeline(reference, config, seed=INJECTION_SEED)
    for pattern in ARTIFACTS:
        assert list(reference.glob(pattern)), pattern
    return config, reference


class TestFailureInjection:
    @pytest.mark.parametrize(
        "generation, stage, target, nth",
        INJECTIONS,
        ids=[f"gen{g}-{stage}" for g, stage, _, _ in INJECTIONS],
    )
    def test_resume_after_a_failed_stage_matches_an_uninterrupted_run(
        self, uninterrupted, monkeypatch, generation, stage, target, nth
    ):
        config, reference = uninterrupted
        # A sibling of the reference, so derived manifests' relative
        # references to the task's sidecars are the same strings.
        workdir = reference.parent / f"gen{generation}-{stage}"
        cue = Cue(nth)
        if target in RECOGNIZER_METHODS:
            factory = functools.partial(CuedRecognizer, target, cue)
        else:
            factory = ToyRecognizer
            monkeypatch.setattr(pipeline, target, cue.guard(getattr(pipeline, target)))
        state = init_state(workdir, config, seed=INJECTION_SEED)
        with pytest.raises(StageError) as err:
            for gen in config.generations:
                snapshot = (workdir / "state.json").read_bytes()
                state = run_generation(state, gen, recognizer=factory)
        assert (err.value.generation, err.value.stage) == (generation, stage)
        assert isinstance(err.value.cause, InjectedFault)
        assert (workdir / "state.json").read_bytes() == snapshot

        monkeypatch.undo()
        run_pipeline(workdir, config, seed=INJECTION_SEED)
        assert artifacts(workdir) == artifacts(reference)


class TestReports:
    def test_reports_after_generation_zero(self, task, tmp_path):
        config = make_config(task, [gen_config(0)])
        workdir = tmp_path / "work"
        state = run_pipeline(workdir, config, seed=8)
        paths = emit_reports(state)
        survival = paths["score_survival"].read_text().splitlines()
        assert survival[0] == "generation\tthreshold\tutt_frac\ttok_frac"
        assert len(survival) == 1 + 61
        fractions = [float(line.split("\t")[2]) for line in survival[1:]]
        assert all(a >= b for a, b in zip(fractions, fractions[1:]))
        wer_above = paths["wer_above_score"].read_text().splitlines()
        assert wer_above[0] == "generation\tthreshold\twer"
        assert len(wer_above) == 1 + 61
        assert paths["wer_by_generation"].exists()
        assert paths["wer_vs_semi_size"].exists()

    def test_no_metrics_rejected(self, task, tmp_path):
        config = make_config(task, [gen_config(0)])
        state = init_state(tmp_path / "work", config, seed=1)
        with pytest.raises(PipelineError, match="no generations completed"):
            emit_reports(state)


# A run config record that parses; ``edited_config`` breaks one entry of it.
VALID_CONFIG = {
    "datasets": {"supervised": "s.jsonl", "unlabeled": "u.jsonl", "dev": "d.jsonl",
                 "vocab": "v.txt"},
    "frames_per_token": 2,
    "beam": 3,
    "generations": [
        {"generation": 0, "augment": {"time_mask_param": 4}, "filter_cutoff": 0.5,
         "balance": {"min_tokens": 40}, "mix": {"ratio": [1, 1], "batch_size": 4}},
    ],
}

MISSING = object()


def edited_config(where, key, value):
    """``VALID_CONFIG`` with ``key`` of one record set to ``value``, or deleted if MISSING."""
    record = copy.deepcopy(VALID_CONFIG)
    generation = record["generations"][0]
    target = {"run": record, "generation": generation, "mix": generation["mix"],
              "balance": generation["balance"]}[where]
    if value is MISSING:
        del target[key]
    else:
        target[key] = value
    return record


class TestConfigParsing:
    def test_cutoff_forms(self):
        assert parse_cutoff(None) is None
        assert parse_cutoff("-inf") == NEG_INF
        assert parse_cutoff("inf") == float("inf")
        assert parse_cutoff(0.5) == 0.5
        assert parse_cutoff("0.25") == 0.25
        # No score is above NaN, so a NaN cutoff would keep nothing.
        for nan in ("nan", "NaN", float("nan")):
            with pytest.raises(PipelineError, match="filter_cutoff"):
                parse_cutoff(nan)

    def test_generation_config_refuses_misspelt_keys(self):
        record = gen_config(1, cutoff=0.0, balance=True).to_dict()
        assert GenerationConfig.from_dict(record) == gen_config(1, cutoff=0.0, balance=True)
        for wrong, right in [("filter_cuttoff", "filter_cutoff"), ("balanse", "balance")]:
            misspelt = {wrong if key == right else key: value for key, value in record.items()}
            with pytest.raises(PipelineError, match=wrong):
                GenerationConfig.from_dict(misspelt)

    def test_balance_settings_refuse_misspelt_keys(self):
        settings = BalanceSettings(multiplicity_cap=3, min_tokens=40)
        assert BalanceSettings.from_dict(settings.to_dict()) == settings
        with pytest.raises(PipelineError, match="batch_fracton"):
            BalanceSettings.from_dict({"multiplicity_cap": 2, "batch_fracton": 0.5})
        # A nested balance record is read through the same check.
        with pytest.raises(PipelineError, match="multiplicity_capp"):
            GenerationConfig.from_dict(
                {"generation": 0, "balance": {"multiplicity_capp": 3}}
            )

    def test_pipeline_config_refuses_misspelt_keys(self):
        paths = dict(VALID_CONFIG["datasets"])
        assert PipelineConfig.from_dict({**VALID_CONFIG, "datasets": paths}).beam == 3
        with pytest.raises(PipelineError, match="bema"):
            PipelineConfig.from_dict({**VALID_CONFIG, "bema": 8})
        misspelt = {("supervized" if key == "supervised" else key): value
                    for key, value in paths.items()}
        with pytest.raises(PipelineError, match="supervized"):
            PipelineConfig.from_dict({**VALID_CONFIG, "datasets": misspelt})

    def test_pipeline_config_refuses_the_flat_layout(self):
        # The dataset paths sit under "datasets" only; beside the run settings they are unknown.
        flat = {key: value for key, value in VALID_CONFIG.items() if key != "datasets"}
        with pytest.raises(PipelineError, match="unknown pipeline settings: dev, supervised"):
            PipelineConfig.from_dict({**flat, **VALID_CONFIG["datasets"]})

    @pytest.mark.parametrize(
        "where, key, value, error",
        [
            ("run", "beam", 8.7, PipelineError),
            ("run", "beam", "8", PipelineError),
            ("run", "frames_per_token", 2.9, PipelineError),
            ("generation", "generation", 0.6, PipelineError),
            ("generation", "filter_cutoff", True, PipelineError),
            ("mix", "ratio", [1.5, 1], MixingError),
            ("mix", "ratio", 5, MixingError),
            ("balance", "min_tokens", 2.5, PipelineError),
            ("generation", "fusion_grid", {"lm_weight": 0.5}, PipelineError),
            ("generation", "augment", {"time_mask_param": None}, AugmentError),
            ("run", "frames_per_token", MISSING, PipelineError),
            ("generation", "generation", MISSING, PipelineError),
            ("run", "datasets", MISSING, PipelineError),
            ("run", "beam", 0, PipelineError),
            ("run", "frames_per_token", 0, PipelineError),
            ("run", "decode_lm_weight", float("nan"), PipelineError),
            ("run", "decode_lm_weight", float("inf"), PipelineError),
            ("generation", "filter_cutoff", "nan", PipelineError),
            ("generation", "filter_cutoff", float("nan"), PipelineError),
            ("generation", "filter_cutoff", "high", PipelineError),
            ("mix", "ratio", [1, 2, 3], MixingError),
        ],
        ids=["beam-float", "beam-string", "frames_per_token-float", "generation-float",
             "filter_cutoff-bool", "ratio-float-term", "ratio-not-a-list", "min_tokens-float",
             "fusion_grid-mapping", "time_mask_param-null-alone", "missing-frames_per_token",
             "missing-generation", "missing-datasets", "beam-zero", "frames_per_token-zero",
             "decode_lm_weight-nan", "decode_lm_weight-inf", "filter_cutoff-nan-string",
             "filter_cutoff-nan", "filter_cutoff-word", "ratio-three-terms"],
    )
    def test_malformed_config_refused(self, where, key, value, error):
        PipelineConfig.from_dict(VALID_CONFIG)
        # Each refusal names the key; the augment one names the mask it lacks.
        with pytest.raises(error, match="time_mask" if key == "augment" else key):
            PipelineConfig.from_dict(edited_config(where, key, value))

    def test_integers_read_as_floats_keep_the_state_bytes(self):
        record = {**VALID_CONFIG, "decode_lm_weight": 1}
        record["generations"] = [
            {"generation": 0, "filter_cutoff": 0, "fusion_grid": [{"lm_weight": 1}],
             "augment": {"time_mask_ratio": 1, "masked_value": -1}},
        ]
        config = PipelineConfig.from_dict(record)
        assert type(config.decode_lm_weight) is float
        as_json = json.dumps(config.generations[0].to_dict())
        assert '"filter_cutoff": 0.0' in as_json and '"lm_weight": 1.0' in as_json
        assert '"time_mask_ratio": 1.0' in as_json and '"masked_value": -1.0' in as_json

    @pytest.mark.parametrize(
        "balance, expected",
        [(True, BalanceSettings()), ({}, BalanceSettings()), (False, None), (None, None),
         ({"min_tokens": "auto", "multiplicity_cap": 3}, BalanceSettings(multiplicity_cap=3))],
        ids=["true", "empty", "false", "null", "record"],
    )
    def test_balance_forms(self, balance, expected):
        # An empty balance record means the default settings, as true does.
        config = GenerationConfig.from_dict({"generation": 1, "balance": balance})
        assert config.balance == expected

    def test_config_json_roundtrip(self, task, tmp_path):
        record = {
            "datasets": {
                "supervised": "task/sup.jsonl",
                "unlabeled": "task/unlab.jsonl",
                "dev": "task/dev.jsonl",
                "vocab": "task/vocab.txt",
            },
            "frames_per_token": 2,
            "beam": 3,
            "generations": [
                {
                    "generation": 0,
                    "augment": {"freq_mask_param": 1, "num_freq_masks": 1,
                                "time_mask_ratio": 0.05, "num_time_masks": 2},
                    "fusion_grid": [{"lm_weight": 0.0}, {"lm_weight": 0.7}],
                },
                {
                    "generation": 1,
                    "augment": {"time_mask_param": 4},
                    "fusion_grid": [{"lm_weight": 0.7}],
                    "filter_cutoff": "-inf",
                    "balance": True,
                    "mix": {"mode": "batchwise", "ratio": [1, 1], "batch_size": 4},
                },
            ],
        }
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(record))
        config = PipelineConfig.from_file(config_path)
        assert config.supervised == str(tmp_path / "task" / "sup.jsonl")
        assert config.generations[1].filter_cutoff == NEG_INF
        assert config.generations[1].balance == BalanceSettings()
        assert config.generations[0].augment_policy.time_mask_ratio == 0.05

    def test_generation_numbering_enforced(self, task):
        with pytest.raises(PipelineError):
            make_config(task, [gen_config(1)])

    @pytest.mark.parametrize(
        "edit",
        [
            lambda r: r.pop("beam"),
            lambda r: r.pop("metrics"),
            lambda r: r.update(beam="3"),
            lambda r: r.update(generation=1.5),
            lambda r: r.update(model_file=7),
            lambda r: r["metrics"][0].update(dev_wer="0.3"),
            lambda r: r["metrics"][0].pop("semi_examples"),
        ],
        ids=["missing-beam", "missing-metrics", "string-beam", "float-generation",
             "int-model-file", "string-dev-wer", "metrics-missing-key"],
    )
    def test_malformed_state_refused(self, tmp_path, edit):
        state = PipelineState(
            workdir=tmp_path, seed=3, frames_per_token=2, beam=3, decode_lm_weight=0.5,
            supervised="s.jsonl", unlabeled="u.jsonl", dev="d.jsonl", vocab="v.txt",
            generation=1, model_file="model_gen0.json",
            metrics=[GenerationMetrics(0, 0.25, 0, 0)],
        )
        path = save_state(state)
        assert load_state(tmp_path) == state
        record = json.loads(path.read_text())
        edit(record)
        path.write_text(json.dumps(record))
        with pytest.raises(PipelineError):
            load_state(tmp_path)

    def test_state_json_roundtrip(self, task, tmp_path):
        config = make_config(task, [gen_config(0)])
        workdir = tmp_path / "work"
        state = run_pipeline(workdir, config, seed=21)
        loaded = load_state(workdir)
        assert loaded.generation == state.generation
        assert loaded.metrics == state.metrics
        assert loaded.fusion == state.fusion
        assert loaded.filter_model == state.filter_model
        assert loaded.model_file == state.model_file
