import json
import math
import os
import shutil
from dataclasses import replace

import numpy as np
import pytest

from nst import cli, recognizer
from nst.augment import AugmentError, AugmentPolicy
from nst.cli import main
from nst.corpus import (
    CorpusError,
    Dataset,
    ManifestError,
    load_manifest,
    load_vocab,
    read_json,
    save_manifest,
)
from nst.filtering import FilteringError, FilterModel
from nst.mixing import MixPlan
from nst.pipeline import (
    BalanceSettings,
    PipelineConfig,
    PipelineError,
    balance_sample,
    draw_mix,
    emit_reports,
    load_state,
    run_pipeline,
)
from nst.recognizer import RecognizerError, ToyRecognizer
from nst.scoring import read_hypotheses
from nst.seeding import derive_rng

from conftest import assert_datasets_equal


def synth_argv(out, seed):
    return [
        "synth",
        "--out", str(out),
        "--vocab-size", "8",
        "--noise", "0.4",
        "--frames-per-token", "2",
        "--supervised", "30",
        "--dev", "25",
        "--unlabeled", "40",
        "--min-length", "3",
        "--max-length", "6",
        "--seed", str(seed),
    ]


@pytest.fixture
def task_dir(tmp_path):
    out = tmp_path / "task"
    assert main(synth_argv(out, seed=5)) == 0
    return out


def test_synth_writes_task(task_dir):
    assert (task_dir / "vocab.txt").exists()
    sup = load_manifest(task_dir / "supervised.jsonl")
    unlab = load_manifest(task_dir / "unlabeled.jsonl")
    assert len(sup) == 30
    assert all(u.transcript is not None for u in sup)
    assert all(u.transcript is None for u in unlab)


def test_synth_rerun_with_another_seed_refused(task_dir, tmp_path, capsys):
    # A derived copy references the dev pack; a second synth into the same
    # directory would rewrite them under it.
    dev = task_dir / "dev.jsonl"
    copy = tmp_path / "copy.jsonl"
    save_manifest(load_manifest(dev), copy)
    before = [u.features.copy() for u in load_manifest(copy)]
    manifest_bytes = dev.read_bytes()
    assert main(synth_argv(task_dir, seed=6)) == 2
    assert "refusing to overwrite" in capsys.readouterr().err
    assert dev.read_bytes() == manifest_bytes
    after = load_manifest(copy)
    assert all(np.array_equal(a, u.features) for a, u in zip(before, after))
    # The same seed writes the same bytes, which may stay in place.
    assert main(synth_argv(task_dir, seed=5)) == 0
    assert dev.read_bytes() == manifest_bytes
    # A rerun with another vocabulary is refused before the vocab is replaced.
    vocab_bytes = (task_dir / "vocab.txt").read_bytes()
    argv = synth_argv(task_dir, seed=5)
    argv[argv.index("--vocab-size") + 1] = "12"
    assert main(argv) == 2
    assert "refusing to overwrite" in capsys.readouterr().err
    assert (task_dir / "vocab.txt").read_bytes() == vocab_bytes
    assert dev.read_bytes() == manifest_bytes


@pytest.mark.parametrize("noise", ["nan", "inf"])
def test_synth_refuses_non_finite_noise(tmp_path, capsys, noise):
    argv = synth_argv(tmp_path / "task", seed=5)
    argv[argv.index("--noise") + 1] = noise
    assert main(argv) == 2
    assert "noise must be finite" in capsys.readouterr().err
    assert not (tmp_path / "task").exists()


def test_synth_refuses_a_vocab_smaller_than_the_branching(tmp_path, capsys):
    # Each token routes its mass to 3 distinct preferred successors.
    argv = synth_argv(tmp_path / "task", seed=5)
    argv[argv.index("--vocab-size") + 1] = "2"
    assert main(argv) == 2
    assert "vocab size 2 is below the branching 3" in capsys.readouterr().err
    assert not (tmp_path / "task").exists()


@pytest.fixture
def model_path(task_dir, tmp_path):
    model = tmp_path / "model.json"
    code = main(
        [
            "toy-train",
            "--manifest", str(task_dir / "supervised.jsonl"),
            "--vocab", str(task_dir / "vocab.txt"),
            "--frames-per-token", "2",
            "--seed", "0",
            "--out", str(model),
        ]
    )
    assert code == 0
    return model


@pytest.fixture
def dev_hyps(task_dir, model_path, tmp_path):
    hyps = tmp_path / "dev_hyps.jsonl"
    code = main(
        [
            "toy-transcribe",
            "--model", str(model_path),
            "--manifest", str(task_dir / "dev.jsonl"),
            "--beam", "3",
            "--out", str(hyps),
        ]
    )
    assert code == 0
    return hyps


def test_score_adds_fused(dev_hyps, tmp_path):
    fused = tmp_path / "fused.jsonl"
    code = main(
        ["score", "--params", "0.5,0.1,0", "--mode", "attention",
         "--hyps", str(dev_hyps), "--out", str(fused)]
    )
    assert code == 0
    records = read_hypotheses(fused)
    assert records
    for r in records:
        assert r.fused == pytest.approx(r.am + 0.5 * r.lm + 0.1 * r.coverage)


@pytest.fixture
def filter_model_path(dev_hyps, tmp_path):
    fused = tmp_path / "fused.jsonl"
    main(["score", "--params", "0.5,0,0", "--hyps", str(dev_hyps), "--out", str(fused)])
    out = tmp_path / "filter.json"
    code = main(["fit-filter", "--hyps", str(fused), "--out", str(out)])
    assert code == 0
    return out


def test_fit_filter_writes_model(filter_model_path):
    record = json.loads(filter_model_path.read_text())
    assert set(record) == {"mu", "beta", "sigma"}
    assert record["sigma"] > 0


def test_filter_and_curves(task_dir, model_path, filter_model_path, tmp_path):
    # Pseudo-label the unlabeled set through the CLI surfaces.
    hyps = tmp_path / "unlab_hyps.jsonl"
    main(["toy-transcribe", "--model", str(model_path),
          "--manifest", str(task_dir / "unlabeled.jsonl"), "--beam", "1",
          "--out", str(hyps)])
    fused = tmp_path / "unlab_fused.jsonl"
    main(["score", "--params", "0.5,0,0", "--hyps", str(hyps), "--out", str(fused)])

    # Build a scored manifest from the fused hypotheses.
    unlab = load_manifest(task_dir / "unlabeled.jsonl")
    by_id = {}
    for record in read_hypotheses(fused):
        if record.utterance_id not in by_id or record.fused > by_id[record.utterance_id].fused:
            by_id[record.utterance_id] = record
    from nst.corpus import Dataset, Utterance, save_manifest

    scored = Dataset(
        Utterance(id=u.id, features=u.features,
                  transcript=by_id[u.id].tokens, score=by_id[u.id].fused)
        for u in unlab
    )
    scored_path = tmp_path / "scored.jsonl"
    save_manifest(scored, scored_path)

    kept_path = tmp_path / "kept.jsonl"
    code = main(["filter", "--manifest", str(scored_path),
                 "--filter-model", str(filter_model_path),
                 "--cutoff", "0", "--out", str(kept_path)])
    assert code == 0
    kept = load_manifest(kept_path)
    assert 0 < len(kept) < len(scored)
    assert not (tmp_path / "kept.nstp").exists()

    everything = tmp_path / "all.jsonl"
    # argparse needs the '=' form for values that begin with a dash
    main(["filter", "--manifest", str(scored_path),
          "--filter-model", str(filter_model_path),
          "--cutoff=-inf", "--out", str(everything)])
    assert len(load_manifest(everything)) == len(scored)
    assert not (tmp_path / "all.nstp").exists()

    curves = tmp_path / "curves.tsv"
    code = main(["curves", "--refs", str(task_dir / "dev.jsonl"),
                 "--hyps", str(tmp_path / "fused.jsonl"),
                 "--filter-model", str(filter_model_path),
                 "--out", str(curves)])
    assert code == 0
    lines = curves.read_text().splitlines()
    assert lines[0] == "threshold\tutt_frac\ttok_frac\twer"
    assert len(lines) == 62

    balanced = tmp_path / "balanced.jsonl"
    code = main(["balance", "--manifest", str(kept_path),
                 "--target", str(task_dir / "supervised.jsonl"),
                 "--vocab", str(task_dir / "vocab.txt"),
                 "--min-tokens", "40",
                 "--out", str(balanced)])
    assert code == 0
    assert all(1 <= u.multiplicity <= 2 for u in load_manifest(balanced))
    assert not (tmp_path / "balanced.nstp").exists()


def test_augment_cli(task_dir, tmp_path):
    policy = tmp_path / "policy.json"
    policy.write_text(json.dumps({"freq_mask_param": 2, "num_freq_masks": 1,
                                  "time_mask_ratio": 0.1, "num_time_masks": 2}))
    out = tmp_path / "aug.jsonl"
    code = main(["augment", "--manifest", str(task_dir / "supervised.jsonl"),
                 "--policy", str(policy), "--seed", "3", "--out", str(out)])
    assert code == 0
    original = load_manifest(task_dir / "supervised.jsonl")
    augmented = load_manifest(out)
    assert augmented.ids() == original.ids()
    assert augmented[0].features.shape == original[0].features.shape
    # Every augmented matrix is a fresh record, in order, in the output's own pack.
    offsets = np.cumsum([0] + [12 + 4 * u.features.size for u in original])
    references = [json.loads(line)["features"] for line in out.read_text().splitlines()]
    assert references == [f"aug.nstp:{o}" for o in offsets[:-1]]
    assert (tmp_path / "aug.nstp").stat().st_size == offsets[-1]


def test_filter_on_a_bad_feature_offset_exits_2(task_dir, tmp_path, capsys):
    manifest = tmp_path / "bad.jsonl"
    records = [json.loads(line) for line in (task_dir / "supervised.jsonl").read_text().splitlines()]
    for r in records:
        r["features"] = f"task/{r['features']}"
    bad = records[3]["features"] = f"task/supervised.nstp:{2**64}"
    manifest.write_text("".join(json.dumps(r) + "\n" for r in records))
    model = tmp_path / "filter.json"
    model.write_text(json.dumps({"mu": 0.0, "beta": 0.0, "sigma": 1.0}))
    code = main(["filter", "--manifest", str(manifest), "--filter-model", str(model),
                 "--cutoff", "0", "--out", str(tmp_path / "kept.jsonl")])
    assert code == 2
    err = capsys.readouterr().err
    assert "offset past the end" in err and bad in err
    assert not (tmp_path / "kept.jsonl").exists()


def test_augment_in_place_refused(task_dir, tmp_path, capsys):
    # A derived copy references the dev pack; augmenting dev in place
    # would rewrite them under the copy.
    dev = task_dir / "dev.jsonl"
    copy = tmp_path / "copy.jsonl"
    save_manifest(load_manifest(dev), copy)
    before = [u.features.copy() for u in load_manifest(copy)]
    policy = tmp_path / "policy.json"
    policy.write_text(json.dumps({"freq_mask_param": 2, "num_freq_masks": 1,
                                  "time_mask_param": 2, "num_time_masks": 1}))
    manifest_bytes = dev.read_bytes()
    code = main(["augment", "--manifest", str(dev), "--policy", str(policy),
                 "--seed", "3", "--out", str(dev)])
    assert code == 2
    assert "refusing to overwrite" in capsys.readouterr().err
    assert dev.read_bytes() == manifest_bytes
    after = load_manifest(copy)
    assert all(np.array_equal(a, u.features) for a, u in zip(before, after))


@pytest.mark.parametrize(
    "command, flag, record",
    [
        ("filter", "--filter-model", {"mu": 1.0}),
        ("augment", "--policy", {"mode": "x"}),
        ("augment", "--policy", {"freq_mask_param": [1]}),
    ],
    ids=["filter-missing-key", "augment-unknown-key", "augment-wrong-type"],
)
def test_malformed_model_file_exits_2(task_dir, tmp_path, capsys, command, flag, record):
    path = tmp_path / "record.json"
    path.write_text(json.dumps(record))
    argv = [command, "--manifest", str(task_dir / "dev.jsonl"), flag, str(path),
            "--out", str(tmp_path / "out.jsonl")]
    if command == "filter":
        argv += ["--cutoff", "0"]
    else:
        argv += ["--seed", "0"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (tmp_path / "out.jsonl").exists()


def test_non_finite_model_file_exits_2(task_dir, model_path, tmp_path, capsys):
    record = json.loads(model_path.read_text())
    record["bigram_log"][-1][0] = float("nan")
    record["centroids"][0][0] = float("inf")
    model_path.write_text(json.dumps(record))
    out = tmp_path / "hyps.jsonl"
    argv = ["toy-transcribe", "--model", str(model_path),
            "--manifest", str(task_dir / "dev.jsonl"), "--beam", "2", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "must be finite" in err
    assert not out.exists()


def _narrowed(task, tmp_path, width):
    """The supervised manifest with each utterance's features cut to ``width`` columns."""
    path = tmp_path / f"width{width}.jsonl"
    sup = load_manifest(task / "supervised.jsonl")
    save_manifest(Dataset(replace(u, features=u.features[:, :width]) for u in sup), path)
    return str(path)


def _toy_model_with(model, tmp_path, **values):
    path = tmp_path / "edited_model.json"
    path.write_text(json.dumps({**json.loads(model.read_text()), **values}))
    return str(path)


def _toy_model_with_true(model, tmp_path, table):
    """``_toy_model_with`` a JSON ``true`` among the numbers of ``table``'s first row."""
    rows = json.loads(model.read_text())[table]
    rows[0][0] = True
    return _toy_model_with(model, tmp_path, **{table: rows})


def _config_with_balance(task, tmp_path, **balance):
    path = tmp_path / "cfg.json"
    datasets = {"supervised": "supervised.jsonl", "unlabeled": "unlabeled.jsonl",
                "dev": "dev.jsonl", "vocab": "vocab.txt"}
    path.write_text(json.dumps({
        "datasets": {key: str(task / name) for key, name in datasets.items()},
        "frames_per_token": 2,
        "generations": [{"generation": 0}, {"generation": 1, "balance": balance}],
    }))
    return str(path)


# Each bad value: the command line before ``--out`` (from the task, a trained toy model
# and a scratch directory), and the words its one error line must hold.
BAD_VALUES = {
    "toy-train-width-1": (
        lambda task, model, tmp: ["toy-train", "--manifest", _narrowed(task, tmp, 1),
                                  "--vocab", str(task / "vocab.txt"), "--frames-per-token", "2"],
        "'sup-00000': feature width 1 does not match vocab size 8"),
    "toy-train-width-5": (
        lambda task, model, tmp: ["toy-train", "--manifest", _narrowed(task, tmp, 5),
                                  "--vocab", str(task / "vocab.txt"), "--frames-per-token", "2"],
        "'sup-00000': feature width 5 does not match vocab size 8"),
    "toy-train-zero-frames-per-token": (
        lambda task, model, tmp: ["toy-train", "--manifest", str(task / "supervised.jsonl"),
                                  "--vocab", str(task / "vocab.txt"), "--frames-per-token", "0"],
        "frames_per_token must be >= 1, got 0"),
    "toy-transcribe-zero-frames-per-token-model": (
        lambda task, model, tmp: ["toy-transcribe",
                                  "--model", _toy_model_with(model, tmp, frames_per_token=0),
                                  "--manifest", str(task / "dev.jsonl")],
        "edited_model.json: frames_per_token must be >= 1, got 0"),
    "toy-transcribe-true-in-a-centroids-row": (
        lambda task, model, tmp: ["toy-transcribe",
                                  "--model", _toy_model_with_true(model, tmp, "centroids"),
                                  "--manifest", str(task / "dev.jsonl")],
        "edited_model.json: centroids must be a matrix of numbers"),
    "toy-transcribe-true-in-a-bigram-row": (
        lambda task, model, tmp: ["toy-transcribe",
                                  "--model", _toy_model_with_true(model, tmp, "bigram_log"),
                                  "--manifest", str(task / "dev.jsonl")],
        "edited_model.json: bigram_log must be a matrix of numbers"),
    "toy-transcribe-nan-lm-weight": (
        lambda task, model, tmp: ["toy-transcribe", "--model", str(model), "--lm-weight", "nan",
                                  "--manifest", str(task / "dev.jsonl")],
        "lm_weight must be finite, got nan"),
    "toy-transcribe-inf-lm-weight": (
        lambda task, model, tmp: ["toy-transcribe", "--model", str(model), "--lm-weight", "inf",
                                  "--manifest", str(task / "dev.jsonl")],
        "lm_weight must be finite, got inf"),
    "balance-inf-epsilon": (
        lambda task, model, tmp: ["balance", "--manifest", str(task / "dev.jsonl"),
                                  "--target", str(task / "supervised.jsonl"),
                                  "--vocab", str(task / "vocab.txt"), "--epsilon", "inf"],
        "smoothing_epsilon must be finite and > 0, got inf"),
    "run-config-infinite-epsilon": (
        lambda task, model, tmp: ["run", "--workdir", str(tmp / "work"), "--config",
                                  _config_with_balance(task, tmp, smoothing_epsilon=math.inf)],
        "smoothing_epsilon must be finite and > 0, got inf"),
    "score-word-in-params": (
        lambda task, model, tmp: ["score", "--params", "0,a,0", "--hyps", str(tmp / "h.jsonl")],
        "--params term 'a' is not a number, in '0,a,0'"),
    "mix-word-in-ratio": (
        lambda task, model, tmp: ["mix", "--sup", str(task / "supervised.jsonl"),
                                  "--ratio", "1:x"],
        "--ratio term 'x' is not an integer, in '1:x'"),
}


@pytest.mark.parametrize("case", sorted(BAD_VALUES))
def test_a_bad_value_exits_2_and_writes_nothing(task_dir, model_path, tmp_path, capsys, case):
    command, named = BAD_VALUES[case]
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    argv = command(task_dir, model_path, scratch)
    out = scratch / "out"
    if argv[0] != "run":
        argv += ["--out", str(out)]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert named in err
    assert not out.exists() and not (scratch / "work").exists()


def test_toy_train_refuses_a_zero_frame_rate_before_training(
    task_dir, tmp_path, capsys, monkeypatch
):
    # The refusal once came from the trained ToyModel, after every utterance was augmented.
    calls = []
    augment = recognizer.apply_policy
    monkeypatch.setattr(recognizer, "apply_policy",
                        lambda *args: calls.append(1) or augment(*args))
    out = tmp_path / "model.json"
    argv = ["toy-train", "--manifest", str(task_dir / "supervised.jsonl"),
            "--vocab", str(task_dir / "vocab.txt"), "--frames-per-token", "0", "--out", str(out)]
    assert main(argv) == 2
    assert "frames_per_token must be >= 1, got 0" in capsys.readouterr().err
    assert calls == [] and not out.exists()


def test_run_refuses_a_misspelt_config_key(task_dir, tmp_path, capsys):
    config = {
        "datasets": {
            "supervised": "task/supervised.jsonl",
            "unlabeled": "task/unlabeled.jsonl",
            "dev": "task/dev.jsonl",
            "vocab": "task/vocab.txt",
        },
        "frames_per_token": 2,
        "generations": [{"generation": 0, "fusion_grid": [{"lm_wieght": 0.7}]}],
    }
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(config))
    workdir = tmp_path / "work"
    code = main(["run", "--config", str(config_path), "--workdir", str(workdir), "--seed", "7"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "lm_wieght" in err
    assert not workdir.exists()


def run_config(supervised="task/supervised.jsonl", unlabeled="task/unlabeled.jsonl"):
    """A two-generation ``nst run`` config over the ``task_dir`` task."""
    return {
        "datasets": {
            "supervised": supervised,
            "unlabeled": unlabeled,
            "dev": "task/dev.jsonl",
            "vocab": "task/vocab.txt",
        },
        "frames_per_token": 2,
        "beam": 3,
        "generations": [{"generation": 0}, {"generation": 1}],
    }


@pytest.mark.parametrize("manifest", ["supervised", "unlabeled"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_run_refuses_non_finite_features_at_load(task_dir, tmp_path, capsys, manifest, value):
    # A NaN in a supervised utterance once stopped generation 0 at "centroids must
    # be finite", and one in an unlabeled utterance stopped generation 1's decode.
    utterances = list(load_manifest(task_dir / f"{manifest}.jsonl"))
    features = utterances[7].features.copy()
    features[2, 0] = value
    utterances[7] = replace(utterances[7], features=features)
    bad = tmp_path / f"bad_{manifest}.jsonl"
    save_manifest(Dataset(utterances), bad)
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(run_config(**{manifest: bad.name})))
    workdir = tmp_path / "work"
    code = main(["run", "--config", str(config_path), "--workdir", str(workdir), "--seed", "7"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(
        f"error: generation 0, stage 'load': {bad}: line 8: utterance {utterances[7].id}: "
    )
    assert "non-finite" in err
    assert not (workdir / "model_gen0.json").exists()


def test_run_with_a_missing_unlabeled_manifest_fails_before_training(task_dir, tmp_path, capsys):
    # It once failed at generation 1's load_teacher, after generation 0 wrote its files.
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(run_config(unlabeled="task/missing.jsonl")))
    workdir = tmp_path / "work"
    code = main(["run", "--config", str(config_path), "--workdir", str(workdir), "--seed", "7"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: generation 0, stage 'load': ") and "missing.jsonl" in err
    assert sorted(p.name for p in workdir.iterdir()) == ["state.json"]


def _add_record(path, **entries):
    path.write_text(json.dumps({**json.loads(path.read_text()), **entries}))


# Each way a workdir's records can disagree: the file damaged, how, and the words
# its error line must hold next to the workdir's path.
DAMAGED_WORKDIRS = {
    "state-with-metrics": (
        "state.json", lambda path: _add_record(path, metrics=[]),
        "state.json: unknown pipeline state: metrics"),
    "state-deleted": ("state.json", lambda path: path.unlink(), "it holds info_gen0.json"),
    "fusion-deleted": ("fusion_gen0.json", lambda path: path.unlink(), "no fusion record at "),
    "fusion-without-dev-wer": (
        "fusion_gen0.json", lambda path: path.write_text('{"params": {}}'),
        "fusion_gen0.json: missing from fusion record: dev_wer"),
    "info-with-generation": (
        "info_gen0.json", lambda path: _add_record(path, generation=0),
        "info_gen0.json: unknown generation record: generation"),
}


@pytest.mark.parametrize("case", sorted(DAMAGED_WORKDIRS))
def test_run_refuses_a_workdir_whose_records_disagree(task_dir, tmp_path, capsys, case):
    # Generation 0 is complete; the resume into generation 1 must stop before writing.
    name, damage, named = DAMAGED_WORKDIRS[case]
    config = run_config()
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({**config, "generations": config["generations"][:1]}))
    workdir = tmp_path / "work"
    argv = ["run", "--config", str(config_path), "--workdir", str(workdir), "--seed", "7"]
    assert main(argv) == 0
    damage(workdir / name)
    snapshot = sorted((p.name, p.read_bytes()) for p in workdir.iterdir())
    config_path.write_text(json.dumps(config))
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(workdir) in err and named in err
    assert sorted((p.name, p.read_bytes()) for p in workdir.iterdir()) == snapshot


def test_cli_reproduces_the_loops_filter_and_curves(task_dir, tmp_path):
    # The loop takes each dev utterance's best hypothesis from NBest.best; the
    # CLI takes it from fused JSON Lines records. Both must give the same filter
    # model and curves, byte for byte, when fed the loop's tuned fusion.
    config = {
        "datasets": {
            "supervised": "task/supervised.jsonl",
            "unlabeled": "task/unlabeled.jsonl",
            "dev": "task/dev.jsonl",
            "vocab": "task/vocab.txt",
        },
        "frames_per_token": 2,
        "beam": 3,
        "generations": [
            {"generation": 0,
             "fusion_grid": [{"lm_weight": 0.3, "coverage_weight": 0.1}, {"lm_weight": 0.7}]},
            {"generation": 1, "filter_cutoff": 0.0,
             "fusion_grid": [{"lm_weight": 0.45, "nonblank_reward": 0.3, "mode": "transducer"}]},
        ],
    }
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(config))
    workdir = tmp_path / "work"
    assert main(["run", "--config", str(config_path), "--workdir", str(workdir),
                 "--seed", "7"]) == 0
    for g in range(2):
        params = json.loads((workdir / f"fusion_gen{g}.json").read_text())["params"]
        weights = ",".join(
            repr(params[name]) for name in ("lm_weight", "coverage_weight", "nonblank_reward"))
        fused, model, curves = (tmp_path / f"{name}{g}" for name in ("fused", "filter", "curves"))
        assert main(["score", "--params", weights, "--mode", params["mode"],
                     "--hyps", str(workdir / f"dev_hyps_gen{g}.jsonl"), "--out", str(fused)]) == 0
        assert main(["fit-filter", "--hyps", str(fused), "--out", str(model)]) == 0
        assert main(["curves", "--refs", str(task_dir / "dev.jsonl"), "--hyps", str(fused),
                     "--filter-model", str(model), "--out", str(curves)]) == 0
        assert model.read_bytes() == (workdir / f"filter_gen{g}.json").read_bytes()
        assert curves.read_bytes() == (workdir / f"curves_gen{g}.tsv").read_bytes()


@pytest.mark.parametrize(
    "edit, named",
    [
        (lambda c: c.pop("frames_per_token"), "frames_per_token"),
        (lambda c: c["generations"][0].update(augment={"time_mask_param": None}), "time_mask"),
    ],
    ids=["missing-frames_per_token", "null-time_mask_param"],
)
def test_run_refuses_a_malformed_config(task_dir, tmp_path, capsys, edit, named):
    config = {
        "datasets": {
            "supervised": "task/supervised.jsonl",
            "unlabeled": "task/unlabeled.jsonl",
            "dev": "task/dev.jsonl",
            "vocab": "task/vocab.txt",
        },
        "frames_per_token": 2,
        "generations": [{"generation": 0}],
    }
    edit(config)
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(config))
    workdir = tmp_path / "work"
    code = main(["run", "--config", str(config_path), "--workdir", str(workdir), "--seed", "7"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err
    assert not workdir.exists()


def test_balance_min_tokens_auto_is_the_target_total(task_dir, tmp_path, capsys):
    target = task_dir / "supervised.jsonl"

    def balance(min_tokens):
        out = tmp_path / f"balanced_{min_tokens}.jsonl"
        code = main(["balance", "--manifest", str(task_dir / "dev.jsonl"), "--target", str(target),
                     "--vocab", str(task_dir / "vocab.txt"), "--min-tokens", min_tokens,
                     "--out", str(out)])
        assert code == 0
        return out.read_bytes()

    total = load_manifest(target).total_tokens()
    assert balance("auto") == balance(str(total)) != balance(str(total // 2))
    with pytest.raises(SystemExit) as exit_info:
        balance("2.5")
    assert exit_info.value.code == 2
    assert "--min-tokens: expected an integer or 'auto', got '2.5'" in capsys.readouterr().err


def test_mix_cli(task_dir, tmp_path):
    out = tmp_path / "stream.tsv"
    code = main(["mix", "--sup", str(task_dir / "supervised.jsonl"),
                 "--semi", str(task_dir / "dev.jsonl"),
                 "--mode", "batchwise", "--ratio", "1:1", "--batch", "4",
                 "--num-batches", "5", "--seed", "1", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "batch\tutterance_id\torigin"
    assert len(lines) == 1 + 5 * 4
    for line in lines[1:]:
        _, _, origin = line.split("\t")
        assert origin in {"sup", "semi"}


def test_balance_cli_writes_the_loops_balanced_set(task_dir, tmp_path):
    pool, target = task_dir / "dev.jsonl", task_dir / "supervised.jsonl"
    out = tmp_path / "balanced.jsonl"
    code = main(["balance", "--manifest", str(pool), "--target", str(target),
                 "--vocab", str(task_dir / "vocab.txt"), "--cap", "3", "--min-tokens", "150",
                 "--out", str(out)])
    assert code == 0
    settings = BalanceSettings(multiplicity_cap=3, min_tokens=150)
    expected, _ = balance_sample(
        load_manifest(pool), load_manifest(target), load_vocab(task_dir / "vocab.txt"), settings
    )
    written = load_manifest(out)
    assert [(u.id, u.multiplicity) for u in written] == [(u.id, u.multiplicity) for u in expected]
    assert_datasets_equal(written, expected)
    # A real selection: some sentences left out, some drawn more than once.
    assert len(written) < len(load_manifest(pool))
    assert max(u.multiplicity for u in written) > 1


@pytest.mark.parametrize("pool, target", [("unlabeled", "supervised"), ("supervised", "unlabeled")])
def test_balance_refuses_a_manifest_without_transcripts(task_dir, tmp_path, capsys, pool, target):
    # Either manifest without transcripts once died in a TypeError traceback.
    out = tmp_path / "balanced.jsonl"
    capsys.readouterr()
    code = main(["balance", "--manifest", str(task_dir / f"{pool}.jsonl"),
                 "--target", str(task_dir / f"{target}.jsonl"),
                 "--vocab", str(task_dir / "vocab.txt"), "--out", str(out)])
    assert code == 2
    first = load_manifest(task_dir / "unlabeled.jsonl")[0].id
    assert capsys.readouterr().err == f"error: utterance {first!r} has no transcript\n"
    assert not out.exists()


def test_parser_defaults_are_the_dataclass_defaults():
    # One home per default: the flags read them from the settings they build.
    parser = cli.build_parser()
    balance = parser.parse_args(["balance", "--manifest", "m", "--target", "t", "--vocab", "v",
                                 "--out", "o"])
    settings = BalanceSettings()
    assert (balance.cap, balance.batch_frac, balance.min_tokens, balance.epsilon) == (
        settings.multiplicity_cap, settings.batch_fraction, settings.min_tokens,
        settings.smoothing_epsilon,
    )
    mix = parser.parse_args(["mix", "--sup", "s", "--out", "o"])
    plan = MixPlan()
    assert (mix.mode, mix.ratio, mix.batch) == (plan.mode, "1:1", plan.batch_size)
    assert tuple(int(term) for term in mix.ratio.split(":")) == plan.ratio


@pytest.mark.parametrize("mode", ["batchwise", "uniform"])
def test_mix_cli_writes_the_loops_draw(task_dir, tmp_path, mode):
    sup, semi = task_dir / "supervised.jsonl", task_dir / "dev.jsonl"
    out = tmp_path / "stream.tsv"
    code = main(["mix", "--sup", str(sup), "--semi", str(semi), "--mode", mode,
                 "--ratio", "1:3", "--batch", "8", "--num-batches", "6", "--seed", "4",
                 "--out", str(out)])
    assert code == 0
    plan = MixPlan(mode=mode, ratio=(1, 3), batch_size=8)
    items = draw_mix(load_manifest(sup), load_manifest(semi), plan, derive_rng(4, "mix"), 6)
    rows = [f"{i}\t{utt.id}\t{origin}" for i, item in enumerate(items) for utt, origin in item]
    assert out.read_text().splitlines() == ["batch\tutterance_id\torigin", *rows]
    assert len(rows) == 6 * plan.item_size


def test_run_and_report_cli(task_dir, tmp_path):
    config = {
        "datasets": {
            "supervised": "task/supervised.jsonl",
            "unlabeled": "task/unlabeled.jsonl",
            "dev": "task/dev.jsonl",
            "vocab": "task/vocab.txt",
        },
        "frames_per_token": 2,
        "beam": 3,
        "generations": [
            {
                "generation": 0,
                "augment": {"time_mask_ratio": 0.05, "num_time_masks": 2,
                            "freq_mask_param": 1, "num_freq_masks": 1},
                "fusion_grid": [{"lm_weight": 0.0}, {"lm_weight": 0.7}],
            },
            {
                "generation": 1,
                "augment": {"time_mask_ratio": 0.05, "num_time_masks": 2,
                            "freq_mask_param": 1, "num_freq_masks": 1},
                "fusion_grid": [{"lm_weight": 0.0}, {"lm_weight": 0.7}],
                "filter_cutoff": 0,
                "balance": True,
                "mix": {"mode": "batchwise", "ratio": [1, 1], "batch_size": 4},
            },
        ],
    }
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(config))
    workdir = tmp_path / "work"
    code = main(["run", "--config", str(config_path), "--workdir", str(workdir), "--seed", "7"])
    assert code == 0
    assert (workdir / "metrics.tsv").exists()
    code = main(["report", "--workdir", str(workdir)])
    assert code == 0
    assert (workdir / "report_wer_by_generation.tsv").exists()
    assert (workdir / "report_score_survival.tsv").exists()


def test_cli_reports_errors_cleanly(tmp_path, capsys):
    code = main(["fit-filter", "--hyps", str(tmp_path / "nope.jsonl"),
                 "--out", str(tmp_path / "out.json")])
    assert code == 2 or isinstance(code, int)


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    """A task, its two-generation config ``cfg.json`` and ``work`` with generation 0 complete."""
    root = tmp_path_factory.mktemp("finished")
    assert main(synth_argv(root / "task", seed=5)) == 0
    config = run_config()
    (root / "cfg.json").write_text(json.dumps({**config, "generations": config["generations"][:1]}))
    argv = ["run", "--config", str(root / "cfg.json"), "--workdir", str(root / "work"),
            "--seed", "7"]
    assert main(argv) == 0
    (root / "cfg.json").write_text(json.dumps(config))
    return root


@pytest.fixture
def run_copy(finished_run, tmp_path):
    """A copy of ``finished_run`` to damage; the workdir stores its input paths relative to it."""
    root = tmp_path / "run"
    shutil.copytree(finished_run, root)
    return root


def _files(root):
    """(path relative to ``root``, bytes) of every file under ``root``."""
    return sorted((str(p.relative_to(root)), p.read_bytes())
                  for p in root.rglob("*") if p.is_file())


def _edit_json(path, edit):
    record = json.loads(path.read_text())
    edit(record)
    path.write_text(json.dumps(record))


def _edit_line(path, number, text):
    lines = path.read_text().splitlines()
    lines[number - 1] = text
    path.write_text("\n".join(lines) + "\n")


def _break_utf8(path, number):
    """Put the byte 0xff, never valid UTF-8, after the ninth byte of line ``number``."""
    lines = path.read_bytes().split(b"\n")
    lines[number - 1] = lines[number - 1][:9] + b"\xff" + lines[number - 1][9:]
    path.write_bytes(b"\n".join(lines))


def _resume(path):
    """Resume the run in ``path``'s workdir with its ``cfg.json``, at the seed it started with."""
    root = path.parent.parent
    return run_pipeline(root / "work", PipelineConfig.from_file(root / "cfg.json"), seed=7)


# Each input file, as a path in a ``finished_run`` copy: its API loader, the error that
# loader raises, the CLI command line that reads it from ``root``, a malformed record of it,
# and the message, with ``{path}`` for the file, that both must refuse that record with.
INPUT_FILES = {
    "config": (
        "cfg.json", PipelineConfig.from_file, PipelineError,
        lambda root, path: ["run", "--config", str(path), "--workdir", str(root / "work")],
        lambda path: _edit_json(path, lambda c: c["generations"][1].update(filter_cuttoff=0)),
        "{path}: unknown generation settings: filter_cuttoff"),
    "config-not-utf-8": (
        "cfg.json", PipelineConfig.from_file, PipelineError,
        lambda root, path: ["run", "--config", str(path), "--workdir", str(root / "work")],
        lambda path: _break_utf8(path, 1),
        "{path}: line 1: not UTF-8 at byte 10 (invalid start byte)"),
    "state": (
        "work/state.json", lambda path: load_state(path.parent), PipelineError,
        lambda root, path: ["report", "--workdir", str(path.parent)],
        lambda path: _edit_json(path, lambda r: r.update(metrics=[])),
        "{path}: unknown pipeline state: metrics"),
    "state-not-utf-8": (
        "work/state.json", lambda path: load_state(path.parent), PipelineError,
        lambda root, path: ["report", "--workdir", str(path.parent)],
        lambda path: _break_utf8(path, 2),
        "{path}: line 2: not UTF-8 at byte 10 (invalid start byte)"),
    "info": (
        "work/info_gen0.json", lambda path: load_state(path.parent), PipelineError,
        lambda root, path: ["report", "--workdir", str(path.parent)],
        lambda path: _edit_json(path, lambda r: r.update(semi_utterances=1.5)),
        "{path}: generation record: semi_utterances must be an integer, got 1.5"),
    "fusion": (
        "work/fusion_gen0.json", lambda path: load_state(path.parent), PipelineError,
        lambda root, path: ["report", "--workdir", str(path.parent)],
        lambda path: _edit_json(path, lambda r: r.pop("dev_wer")),
        "{path}: missing from fusion record: dev_wer"),
    "teacher-filter": (
        "work/filter_gen0.json", _resume, PipelineError,
        lambda root, path: ["run", "--config", str(root / "cfg.json"),
                            "--workdir", str(path.parent), "--seed", "7"],
        lambda path: _edit_json(path, lambda r: r.pop("sigma")),
        "generation 1, stage 'load_teacher': {path}: missing from filter model: sigma"),
    "policy": (
        "p.json", lambda path: read_json(path, AugmentPolicy.from_dict, AugmentError),
        AugmentError,
        lambda root, path: ["augment", "--manifest", str(root / "task" / "dev.jsonl"),
                            "--policy", str(path), "--out", str(root / "out.jsonl")],
        lambda path: path.write_text('{"freq_mask_parm": 1}'),
        "{path}: unknown augment policy: freq_mask_parm"),
    "filter-model": (
        "f.json", lambda path: read_json(path, FilterModel.from_dict, FilteringError),
        FilteringError,
        lambda root, path: ["filter", "--manifest", str(root / "task" / "dev.jsonl"),
                            "--filter-model", str(path), "--cutoff", "0",
                            "--out", str(root / "out.jsonl")],
        lambda path: path.write_text('{"mu": "x", "beta": 0.0, "sigma": 1.0}'),
        "{path}: filter model: mu must be a number, got 'x'"),
    "toy-model": (
        "work/model_gen0.json", ToyRecognizer.from_file, RecognizerError,
        lambda root, path: ["toy-transcribe", "--model", str(path),
                            "--manifest", str(root / "task" / "dev.jsonl"),
                            "--out", str(root / "out.jsonl")],
        lambda path: _edit_json(path, lambda r: r["centroids"][0].pop()),
        "{path}: centroids must be a matrix of numbers"),
    "manifest": (
        "task/dev.jsonl", load_manifest, ManifestError,
        lambda root, path: ["filter", "--manifest", str(path),
                            "--filter-model", str(root / "work" / "filter_gen0.json"),
                            "--cutoff", "0", "--out", str(root / "out.jsonl")],
        lambda path: _break_utf8(path, 2),
        "{path}: line 2: not UTF-8 at byte 10 (invalid start byte)"),
    "hypotheses": (
        "work/dev_hyps_gen0.jsonl", read_hypotheses, ManifestError,
        lambda root, path: ["score", "--params", "0,0,0", "--hyps", str(path),
                            "--out", str(root / "out.jsonl")],
        lambda path: _break_utf8(path, 2),
        "{path}: line 2: not UTF-8 at byte 10 (invalid start byte)"),
    "vocab": (
        "task/vocab.txt", load_vocab, CorpusError,
        lambda root, path: ["balance", "--manifest", str(root / "task" / "dev.jsonl"),
                            "--target", str(root / "task" / "supervised.jsonl"),
                            "--vocab", str(path), "--out", str(root / "out.jsonl")],
        lambda path: path.write_text(path.read_text() + path.read_text().split()[0] + "\n"),
        "{path}: duplicate tokens in vocabulary"),
    "vocab-not-utf-8": (
        "task/vocab.txt", load_vocab, CorpusError,
        lambda root, path: ["balance", "--manifest", str(root / "task" / "dev.jsonl"),
                            "--target", str(root / "task" / "supervised.jsonl"),
                            "--vocab", str(path), "--out", str(root / "out.jsonl")],
        lambda path: _break_utf8(path, 2),  # line 2 is a two-byte token
        "{path}: line 2: not UTF-8 at byte 3 (invalid start byte)"),
    "curves": (
        "work/curves_gen0.tsv", lambda path: emit_reports(load_state(path.parent)),
        PipelineError,
        lambda root, path: ["report", "--workdir", str(path.parent)],
        lambda path: _edit_line(path, 2, "0.5\t1"),
        "{path}: line 2: expected 4 tab-separated cells, got 2"),
    "curves-empty": (
        "work/curves_gen0.tsv", lambda path: emit_reports(load_state(path.parent)),
        PipelineError,
        lambda root, path: ["report", "--workdir", str(path.parent)],
        lambda path: path.write_text(""),
        "{path}: line 1: not the header of a curves table"),
    "curves-not-utf-8": (
        "work/curves_gen0.tsv", lambda path: emit_reports(load_state(path.parent)),
        PipelineError,
        lambda root, path: ["report", "--workdir", str(path.parent)],
        lambda path: _break_utf8(path, 2),
        "{path}: line 2: not UTF-8 at byte 10 (invalid start byte)"),
}


def _refusals(root, kind, capsys):
    """The API loader's and the CLI's refusal of the file of ``kind``; neither writes a file."""
    name, load, error, arguments, _, _ = INPUT_FILES[kind]
    before = _files(root)
    with pytest.raises(error) as refused:
        load(root / name)
    capsys.readouterr()
    assert main(arguments(root, root / name)) == 2
    err = capsys.readouterr().err
    assert _files(root) == before
    return str(refused.value), err


@pytest.mark.parametrize("kind", sorted(k for k, row in INPUT_FILES.items()
                                         if row[0].endswith(".json")))
def test_invalid_json_file_refused_naming_it(run_copy, capsys, kind):
    # A truncated file once surfaced as a bare JSONDecodeError naming no file.
    path = run_copy / INPUT_FILES[kind][0]
    path.write_text('{"mu": 1.0,')
    refused, err = _refusals(run_copy, kind, capsys)
    assert f"{path}: invalid JSON (" in refused
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{path}: invalid JSON (" in err


@pytest.mark.parametrize("kind", sorted(INPUT_FILES))
def test_malformed_input_file_refused_naming_it(run_copy, capsys, kind):
    # Once a refused config, policy, filter model or vocab named no file, a short curves
    # row died on Python's unpacking error, and an empty curves file gave an empty report.
    name, _, _, _, damage, message = INPUT_FILES[kind]
    path = run_copy / name
    damage(path)
    expected = message.format(path=path)
    assert _refusals(run_copy, kind, capsys) == (expected, f"error: {expected}\n")


def test_a_moved_task_config_and_workdir_resume_to_the_bytes_of_an_uninterrupted_run(
    finished_run, tmp_path
):
    # state.json once held absolute input paths, so the moved copy was refused with
    # "cannot resume: the state has another supervised, unlabeled, dev, vocab".
    moved = tmp_path / "moved" / "elsewhere"
    shutil.copytree(finished_run, moved)
    state = json.loads((moved / "work" / "state.json").read_text())
    assert state["supervised"] == os.path.join("..", "task", "supervised.jsonl")
    fresh = tmp_path / "fresh"
    shutil.copytree(finished_run / "task", fresh / "task")
    shutil.copy(finished_run / "cfg.json", fresh)
    for root in (moved, fresh):
        argv = ["run", "--config", str(root / "cfg.json"), "--workdir", str(root / "work"),
                "--seed", "7"]
        assert main(argv) == 0
    assert _files(moved / "work") == _files(fresh / "work")


def test_hypotheses_with_a_mistyped_line_exit_2(dev_hyps, tmp_path, capsys):
    lines = dev_hyps.read_text().splitlines()
    lines[1] = json.dumps({"id": 7, "tokens": "ab", "am": True, "lm": "-1.5", "covrage": 0.9})
    dev_hyps.write_text("\n".join(lines) + "\n")
    out = tmp_path / "fused.jsonl"
    assert main(["score", "--params", "0,0,0", "--hyps", str(dev_hyps), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {dev_hyps}: line 2: unknown hypothesis record: covrage\n"
    assert not out.exists()


def test_score_that_overflows_exits_2_and_writes_nothing(tmp_path, capsys):
    # Written as "fused": -Infinity, the file was refused by the next step, fit-filter.
    hyps = tmp_path / "hyps.jsonl"
    hyps.write_text(json.dumps({"id": "u1", "tokens": ["a"], "am": -1e308, "lm": -1e308}) + "\n")
    out = tmp_path / "fused.jsonl"
    assert main(["score", "--params", "2,0,0", "--hyps", str(hyps), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out}: cannot write as JSON") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["hyps.jsonl"]


@pytest.mark.parametrize(
    "argv, named",
    [
        (["curves", "--step", "0"], "step"),
        (["curves", "--low", "3", "--high", "-3"], "low <= high"),
        (["filter", "--cutoff", "nan"], "filter_cutoff"),
        (["mix", "--ratio", "1:2:3", "--batch", "6"], "two integers"),
        (["mix", "--mode", "uniform", "--ratio", "1:2:3"], "two integers"),
        (["mix", "--mode", "uniform", "--ratio", "1:one"], "'one'"),
        (["mix", "--num-batches", "-1"], "negative number of mix items"),
    ],
    ids=["curves-step-zero", "curves-high-below-low", "filter-nan-cutoff", "mix-three-terms",
         "mix-uniform-three-terms", "mix-uniform-word-term", "mix-negative-count"],
)
def test_bad_settings_exit_2(task_dir, dev_hyps, filter_model_path, tmp_path, capsys, argv, named):
    paths = {
        "curves": ["--refs", str(task_dir / "dev.jsonl"), "--hyps", str(tmp_path / "fused.jsonl"),
                   "--filter-model", str(filter_model_path)],
        "filter": ["--manifest", str(task_dir / "dev.jsonl"),
                   "--filter-model", str(filter_model_path)],
        "mix": ["--sup", str(task_dir / "supervised.jsonl"),
                "--semi", str(task_dir / "dev.jsonl")],
    }[argv[0]]
    out = tmp_path / "out.tsv"
    capsys.readouterr()
    assert main([*argv, *paths, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err
    assert not out.exists()
