"""Byte-identity of the system's outputs: each benchmark workload, run at its tiny size,
must give the digest recorded in ``goldens_tiny.json``, and a small ``nst synth`` must
write files whose SHA-256 digests are recorded there too.

The workload digest is ``bench/workloads.py``'s, so this check and the benchmark's gate
share one definition of "the same output". Re-record after a deliberate change with

    PYTHONPATH=src python tests/test_goldens.py

and add a CHANGES.md line naming each artifact that moved and why.
"""
import hashlib
import json
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

TESTS_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(TESTS_DIR.parent / "bench"))
import workloads  # noqa: E402

from nst.cli import main  # noqa: E402

GOLDENS = TESTS_DIR / "goldens_tiny.json"
SEEDS = (20240817, 7)
CASES = [(name, seed) for name in workloads.WORKLOADS for seed in SEEDS]
# Left at their defaults: vocab size, noise, frame rate and sentence lengths.
SYNTH_ARGS = ("--supervised", "20", "--dev", "20", "--unlabeled", "40", "--seed", "7")
SYNTH_KEY = "synth/" + " ".join(SYNTH_ARGS)


def environment() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "platform": f"{platform.system()}-{platform.machine()}"}


def tiny_digest(name: str, seed: int, root: Path) -> dict:
    workload = workloads.get(name, "tiny")
    inputs = workload.setup(root / "inputs", seed)
    result = workload.run(inputs, root / "work")
    return workload.digest(inputs, root / "work", result)


def synth_digest(root: Path) -> dict:
    """SHA-256 of every file a small ``nst synth`` writes, by file name."""
    assert main(["synth", "--out", str(root), *SYNTH_ARGS]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(root.iterdir())}


def cpu_dispatch() -> str:
    """The CPU-dispatch targets numpy was built with that this CPU supports, where numpy says."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:
        return "not reported by this numpy"
    return ", ".join(t for t in __cpu_dispatch__ if __cpu_features__.get(t)) or "none"


def moved_keys(expected: dict, digest: dict) -> list[str]:
    return sorted(k for k in set(expected) | set(digest) if expected.get(k) != digest.get(k))


def mismatch_message(golden: dict, what: str, moved: list[str]) -> str:
    recorded = {k: golden[k] for k in environment()}
    return (
        f"{what}: these artifacts differ from the golden: {', '.join(moved)}. "
        f"The golden was recorded with {recorded}; this run has {environment()}. "
        f"numpy's active CPU-dispatch targets here: {cpu_dispatch()}. numpy picks its "
        "float64 exp and log kernels by these targets, and the AVX-512 (X86_V4) kernels "
        "round some last bits unlike the baseline ones; another numpy build can also sum in "
        "another SIMD order. So a mismatch on another CPU or build may not be a "
        "regression. Re-record only for a "
        "deliberate change, with a CHANGES.md line naming each artifact and the reason."
    )


@pytest.mark.parametrize("name, seed", CASES, ids=[f"{n}-{s}" for n, s in CASES])
def test_tiny_outputs_match_the_recorded_goldens(tmp_path, name, seed):
    golden = json.loads(GOLDENS.read_text())[f"{name}/tiny/{seed}"]
    moved = moved_keys(golden["digest"], tiny_digest(name, seed, tmp_path))
    assert not moved, mismatch_message(golden, f"{name} at seed {seed}", moved)


def test_synth_files_match_the_recorded_goldens(tmp_path):
    golden = json.loads(GOLDENS.read_text())[SYNTH_KEY]
    moved = moved_keys(golden["digest"], synth_digest(tmp_path / "task"))
    assert not moved, mismatch_message(golden, f"nst {' '.join(SYNTH_ARGS)}", moved)


def test_a_mismatch_names_the_cpu_dispatch_targets():
    golden = json.loads(GOLDENS.read_text())[SYNTH_KEY]
    message = mismatch_message(golden, "a case", ["vocab.txt"])
    assert f"targets here: {cpu_dispatch()}." in message


def record(root: Path) -> None:
    goldens = {}
    for name, seed in CASES:
        digest = tiny_digest(name, seed, root / f"{name}-{seed}")
        goldens[f"{name}/tiny/{seed}"] = {"digest": digest, **environment()}
    goldens[SYNTH_KEY] = {"digest": synth_digest(root / "synth"), **environment()}
    GOLDENS.write_text(json.dumps(goldens, sort_keys=True, indent=1) + "\n")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        record(Path(scratch))
