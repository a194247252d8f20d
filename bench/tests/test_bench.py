"""Self-tests for the benchmark: span arithmetic, patch hygiene, smoke runs, gates.

Run from the repository root with ``python -m pytest bench/tests``.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import workloads
from spans import Tracer, self_times, summarize

BENCH_DIR = Path(run.__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_times_subtract_direct_children():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9].
    tree = [
        ["pipeline.run_pipeline", 0.0, 10.0, None],
        ["corpus.save_manifest", 1.0, 4.0, 0],
        ["corpus.write_features", 2.0, 3.0, 1],
        ["recognizer.transcribe", 5.0, 9.0, 0],
    ]
    assert self_times(tree) == [3.0, 2.0, 1.0, 4.0]
    inclusive, calls, layer_self = summarize(tree)
    assert inclusive["corpus.save_manifest"] == 3.0
    assert calls["corpus.write_features"] == 1
    assert layer_self["corpus"] == 3.0
    assert layer_self["pipeline"] == 3.0
    assert sum(layer_self.values()) == 10.0


def _current(targets):
    return [owner.__dict__[attr] for owner, attr, _ in targets]


def test_originals_restored_after_tracing_even_on_error():
    import nst.pipeline
    import nst.recognizer

    tracer = Tracer()
    targets = tracer.targets()
    before = _current(targets)
    original_save = nst.pipeline.save_manifest
    with pytest.raises(ZeroDivisionError):
        with tracer:
            assert nst.pipeline.save_manifest is not original_save
            assert nst.pipeline.save_manifest.__wrapped__ is original_save
            assert "__wrapped__" in vars(nst.recognizer.ToyRecognizer.transcribe)
            1 / 0
    assert _current(targets) == before
    assert nst.pipeline.save_manifest is original_save


def test_tracer_wraps_names_where_consumers_look_them_up():
    names = {(getattr(owner, "__name__", None), attr) for owner, attr, _ in Tracer().targets()}
    for expected in [
        ("nst.pipeline", "save_manifest"),
        ("nst.cli", "load_manifest"),
        ("nst.scoring", "edit_alignment_counts"),
        ("nst.filtering", "corpus_wer"),
        ("nst.recognizer", "apply_policy"),
        ("ToyRecognizer", "transcribe"),
        ("ToyRecognizer", "train"),
    ]:
        assert expected in names


def test_spans_nest_and_count_errors():
    tracer = Tracer(clock=iter(range(100)).__next__)
    inner = tracer.wrap("corpus.load_manifest", lambda path: [1, 2, 3])

    def failing():
        raise ValueError("bad input")

    outer = tracer.wrap("filtering.apply_filter", failing)
    tracer.span("cli.chain", inner, "x")
    with pytest.raises(ValueError):
        outer()
    assert [s[0] for s in tracer.spans] == ["cli.chain", "corpus.load_manifest", "filtering.apply_filter"]
    assert tracer.spans[1][3] == 0
    assert tracer.counts["corpus.utts_read"] == 3
    assert tracer.counts["filtering.errors"] == 1


def test_metric_tables_match_benchmark_json():
    assert list(run.END_TO_END) == [m["name"] for m in SPEC["end_to_end"]]
    assert run.END_TO_END == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert run.per_layer_units() == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def _run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_smoke_run_prints_exactly_the_declared_metrics(workload, trace):
    done = _run_bench(
        ROOT, "--workload", workload, "--seed", "5", "--seconds", "0.01",
        "--trace", trace, "--size", "tiny",
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if trace == "1":
        values = {name: m["value"] for name, m in result["metrics"].items()}
        layer_total = sum(values[f"{layer}.self_s"] for layer in spans.LAYERS)
        assert layer_total == pytest.approx(values["trace.run_s"], rel=0.02)
        if workload == "curate_stages":
            assert values["recognizer.transcribe_s"] == 0
        else:
            assert values["recognizer.transcribe_s"] > 0


@pytest.mark.parametrize(
    "workload, victim",
    [("paper_loop", "curves_gen1.tsv"), ("long_utts", "model_gen0.json"), ("curate_stages", "mix.tsv")],
)
def test_golden_check_fails_when_an_output_is_perturbed(tmp_path, workload, victim):
    wl = workloads.get(workload, "tiny")
    inputs = wl.setup(tmp_path / "inputs", 9)
    workdir = tmp_path / "work"
    result = wl.run(inputs, workdir)
    golden = wl.digest(inputs, workdir, result)
    assert run.mismatches(golden, wl.digest(inputs, workdir, result)) == []
    with open(workdir / victim, "a", encoding="utf-8") as handle:
        handle.write(" ")
    assert run.mismatches(golden, wl.digest(inputs, workdir, result)) == [victim]


def test_pseudo_label_digest_ignores_manifest_layout_but_not_scores(tmp_path):
    wl = workloads.get("paper_loop", "tiny")
    inputs = wl.setup(tmp_path / "inputs", 9)
    workdir = tmp_path / "work"
    state = wl.run(inputs, workdir)
    golden = wl.digest(inputs, workdir, state)
    manifest = workdir / "pseudo_gen1.jsonl"
    records = [json.loads(line) for line in manifest.read_text().splitlines()]
    for r in records:
        r["features"] = "moved/" + r["features"]
    manifest.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert run.mismatches(golden, wl.digest(inputs, workdir, state)) == []
    records[0]["score"] += 1.0
    manifest.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert run.mismatches(golden, wl.digest(inputs, workdir, state)) == ["pseudo_labels_gen1"]


def test_goldens_hold_criterion_10_wers():
    goldens = json.loads(run.GOLDENS.read_text())
    paper = goldens["paper_loop/full/20240817"]
    assert [round(m["dev_wer"], 4) for m in paper["metrics"]] == [0.3624, 0.3412, 0.3076, 0.2998]
    for workload in workloads.WORKLOADS:
        assert sum(key.startswith(f"{workload}/full/") for key in goldens) >= 2


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run_bench(tmp_path, "--workload", "paper_loop", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())
