"""Benchmark entry point: one workload, one seed, one process, one thread.

    python3 bench/run.py --workload paper_loop --seed 20240817 --seconds 30 --trace 0

Run from the root of a checkout. Set-up (synthesizing the task and writing its
manifests) runs at least three times and for at least five seconds, and
reports its median. The timed phase then repeats, each time in a fresh
workdir, until ``--seconds`` have passed; every repetition's outputs are
checked against the recorded golden for this seed, or against the first
repetition when the seed has none. ``--trace 1`` adds one traced repetition
and reports per-layer metrics instead of end-to-end ones. The last line of
standard output is the result as one JSON object.

``--record-golden`` stores the first repetition's digest in
``bench/goldens.json`` for this workload, size and seed.
"""
import os

# Pinned before numpy is imported, so native libraries start one thread each.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from spans import LAYERS, Tracer, summarize

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
GOLDENS = BENCH_DIR / "goldens.json"
# Set-up is short and its file writes are noisy, so it repeats until both hold.
SETUP_MIN_COUNT = 3
SETUP_MIN_SECONDS = 5.0

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "utts_per_s": "1/s",
    "peak_rss_mb": "MB",
    "workdir_mb": "MB",
    "dev_wer_final": "ratio",
    "ok_frac": "ratio",
}

# Inclusive seconds of one function's spans, keyed by metric name.
FUNCTION_SECONDS = {
    "recognizer.transcribe_s": "recognizer.transcribe",
    "recognizer.train_s": "recognizer.train",
    "corpus.save_manifest_s": "corpus.save_manifest",
    "corpus.load_manifest_s": "corpus.load_manifest",
    "scoring.alignment_s": "scoring.edit_alignment_counts",
    "scoring.grid_search_s": "scoring.grid_search_table",
    "filtering.score_curves_s": "filtering.score_curves",
    "filtering.apply_filter_s": "filtering.apply_filter",
    "filtering.fit_s": "filtering.fit_filter",
    "balancing.sample_s": "balancing.submodular_sample",
    "augment.apply_policy_s": "augment.apply_policy",
    "mixing.draw_s": "mixing.mix_batchwise",
}
# Number of calls to one function, keyed by metric name.
FUNCTION_CALLS = {
    "corpus.feature_files_written": "corpus.write_features",
    "scoring.alignments": "scoring.edit_alignment_counts",
    "scoring.best_hypothesis_calls": "scoring.best_hypothesis",
    "augment.calls": "augment.apply_policy",
}
COUNTS = (
    "recognizer.utts_decoded",
    "recognizer.blocks_decoded",
    "corpus.bytes_written",
    "corpus.utts_read",
    "balancing.pool_utts",
    "balancing.selected_utts",
    "mixing.examples_drawn",
)
MAX_GENERATIONS = 4


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {name: "s" for name in FUNCTION_SECONDS}
    units.update({name: "count" for name in (*FUNCTION_CALLS, *COUNTS)})
    units.update({
        "corpus.bytes_written": "B",
        "recognizer.us_per_block": "us",
        "filtering.keep_fraction": "ratio",
    })
    units.update({f"pipeline.gen{g}_s": "s" for g in range(MAX_GENERATIONS)})
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units.update({f"{layer}.errors": "count" for layer in LAYERS})
    units.update({"trace.run_s": "s", "trace.overhead_frac": "ratio"})
    return units


def layer_metrics(tracer: Tracer, untraced_run_s: float) -> dict[str, float]:
    """Per-layer metrics from one traced run; layer self times sum to the root span."""
    _, start, end, _ = tracer.spans[0]
    run_s = end - start
    inclusive, calls, layer_self = summarize(tracer.spans)
    counts = tracer.counts
    out = {name: inclusive[fn] for name, fn in FUNCTION_SECONDS.items()}
    out["mixing.draw_s"] += inclusive["mixing.mix_uniform"]
    out.update({name: calls[fn] for name, fn in FUNCTION_CALLS.items()})
    out.update({name: counts[name] for name in COUNTS})
    blocks = counts["recognizer.blocks_decoded"]
    out["recognizer.us_per_block"] = out["recognizer.transcribe_s"] * 1e6 / blocks if blocks else 0.0
    attempted = counts["filtering.attempted"]
    out["filtering.keep_fraction"] = counts["filtering.kept"] / attempted if attempted else 0.0
    generations = [end - start for name, start, end, _ in tracer.spans if name == "pipeline.run_generation"]
    for g in range(MAX_GENERATIONS):
        out[f"pipeline.gen{g}_s"] = generations[g] if g < len(generations) else 0.0
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer]
        out[f"{layer}.errors"] = counts[f"{layer}.errors"]
    out["trace.run_s"] = run_s
    out["trace.overhead_frac"] = run_s / untraced_run_s - 1.0
    return out


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _fs_type(path: Path) -> str:
    """Filesystem type of the mount holding ``path``, from /proc/mounts."""
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as handle:
            for line in handle:
                fields = line.split()
                mount = fields[1]
                if Path(mount) in (path, *path.parents) and len(mount) > len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


def environment(workdir: Path) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "workdir_fs": _fs_type(workdir),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def mismatches(expected: dict, actual: dict) -> list[str]:
    """Keys whose values differ between two digests."""
    keys = sorted(set(expected) | set(actual))
    return [k for k in keys if expected.get(k) != actual.get(k)]


def load_golden(workload: str, size: str, seed: int) -> dict | None:
    if not GOLDENS.exists():
        return None
    return json.loads(GOLDENS.read_text()).get(f"{workload}/{size}/{seed}")


def record_golden(workload: str, size: str, seed: int, digest: dict) -> None:
    goldens = json.loads(GOLDENS.read_text()) if GOLDENS.exists() else {}
    goldens[f"{workload}/{size}/{seed}"] = digest
    GOLDENS.write_text(json.dumps(goldens, sort_keys=True, indent=1) + "\n")


class Runner:
    """Runs one workload's repetitions and gates each on its outputs."""

    def __init__(self, workload, base: Path, expected: dict | None):
        self.workload = workload
        self.base = base
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.seconds: list[float] = []
        self.workdir_bytes: list[int] = []
        self.digest = None

    def repeat(self, inputs, tracer: Tracer | None = None) -> None:
        """One timed repetition in a fresh workdir, checked and deleted untimed."""
        workdir = self.base / f"run{self.attempted}"
        self.attempted += 1
        try:
            if tracer is None:
                start = time.perf_counter()
                result = self.workload.run(inputs, workdir)
                elapsed = time.perf_counter() - start
            else:
                with tracer:
                    start = time.perf_counter()
                    result = tracer.span(self.workload.root_span, self.workload.run, inputs, workdir)
                    elapsed = time.perf_counter() - start
            self.seconds.append(elapsed)
            self.workdir_bytes.append(_tree_bytes(workdir))
            self.digest = self.workload.digest(inputs, workdir, result)
            if self.expected is None:
                self.expected = self.digest
            wrong = mismatches(self.expected, self.digest)
            if wrong:
                raise AssertionError(f"outputs differ from the reference in {wrong}")
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)


def measure(args) -> dict:
    import workloads

    workload = workloads.get(args.workload, args.size)
    base = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    try:
        setup_times: list[float] = []
        while len(setup_times) < SETUP_MIN_COUNT or sum(setup_times) < SETUP_MIN_SECONDS:
            if setup_times:
                shutil.rmtree(base / "inputs")
            start = time.perf_counter()
            inputs = workload.setup(base / "inputs", args.seed)
            setup_times.append(time.perf_counter() - start)

        golden = None if args.record_golden else load_golden(args.workload, args.size, args.seed)
        runner = Runner(workload, base, golden)
        window = time.perf_counter()
        while not runner.attempted or time.perf_counter() - window < args.seconds:
            runner.repeat(inputs)
        if not runner.seconds:
            raise SystemExit("error: no repetition of the workload completed")
        run_s = statistics.median(runner.seconds)
        print("env " + json.dumps(environment(base), sort_keys=True))
        print("repetitions_s " + " ".join(f"{t:.3f}" for t in runner.seconds))
        if args.record_golden and not runner.failed:
            record_golden(args.workload, args.size, args.seed, runner.digest)

        if args.trace:
            tracer = Tracer()
            runner.repeat(inputs, tracer)
            tracer.write(ROOT / ".bench_work" / f"trace-{args.workload}-{args.seed}.jsonl")
            metrics = layer_metrics(tracer, run_s)
            units = per_layer_units()
        else:
            metrics = {
                "setup_s": statistics.median(setup_times),
                "run_s": run_s,
                "utts_per_s": workload.work_units() / run_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "workdir_mb": statistics.median(runner.workdir_bytes) / 1e6,
                "dev_wer_final": workload.dev_wer(runner.digest),
                "ok_frac": 1.0 - runner.failed / runner.attempted,
            }
            units = END_TO_END
        return {
            "correct": runner.failed == 0,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        }
    finally:
        shutil.rmtree(base, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["paper_loop", "long_utts", "curate_stages"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full")
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import nst
    except ImportError as exc:
        print(f"error: cannot import the nst package from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if (ROOT / "src") not in Path(nst.__file__).resolve().parents:
        print(f"error: nst was imported from {nst.__file__}, not from this checkout", file=sys.stderr)
        return 2
    result = measure(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
