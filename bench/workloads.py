"""The benchmark's workloads: inputs made from a seed, one timed call, a digest.

Each workload is a closed loop with one caller: ``setup`` writes the inputs a
user would hand the program, ``run`` is the timed phase, and ``digest`` reads
the outputs back (untimed) into a JSON-able record that the correctness gate
compares. Digests leave manifest bytes out, so a change to how manifests are
stored on disk does not trip the gate while labels, scores and models stay
the same.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from nst import cli
from nst.augment import AugmentPolicy
from nst.corpus import Dataset, read_features, save_manifest, save_vocab
from nst.filtering import fit_filter
from nst.mixing import MixPlan
from nst.pipeline import BalanceSettings, GenerationConfig, PipelineConfig, run_pipeline
from nst.recognizer import MarkovSentenceSource, ToyWorld, synth_generate, toy_train, toy_transcribe
from nst.scoring import FusionParams, HypothesisRecord, best_hypothesis, corpus_wer, write_hypotheses
from nst.seeding import derive_rng, derive_seed

NEG_INF = float("-inf")
VOCAB_SIZE = 20
NOISE = 0.905
FRAMES_PER_TOKEN = 3
SOURCE_SEED = 1234
POLICY = AugmentPolicy(
    freq_mask_param=6,
    num_freq_masks=2,
    time_mask_param=None,
    time_mask_ratio=0.2,
    num_time_masks=4,
    time_warp_param=0,
)
GRID = tuple(FusionParams(lm_weight=w) for w in (0.0, 0.3, 0.6, 1.0, 1.5, 2.0))


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _sha_json(value) -> str:
    return _sha(json.dumps(value, sort_keys=True).encode())


def _manifest_records(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


def _task(root: Path, seed: int, lengths: tuple[int, int], sizes: dict[str, int], labeled_pool: bool):
    """Synthesize a task with the frozen acceptance generator and write its manifests."""
    world = ToyWorld(vocab_size=VOCAB_SIZE, noise=NOISE, frames_per_token=FRAMES_PER_TOKEN)
    source = MarkovSentenceSource.structured(
        VOCAB_SIZE, seed=SOURCE_SEED, branching=3, length_range=lengths
    )
    rng = derive_rng(seed, "task", NOISE, str(lengths))
    root.mkdir(parents=True)
    save_vocab(world.vocab(), root / "vocab.txt")
    sup = synth_generate(world, sizes["supervised"], source, rng, "sup")
    dev = synth_generate(world, sizes["dev"], source, rng, "dev")
    pool = synth_generate(world, sizes["unlabeled"], source, rng, "unlab")
    save_manifest(sup, root / "sup.jsonl")
    save_manifest(dev, root / "dev.jsonl")
    if not labeled_pool:
        save_manifest(pool.strip_labels(), root / "unlab.jsonl")
    return world, sup, dev, pool, rng


@dataclass(frozen=True)
class LoopWorkload:
    """``run_pipeline`` over a synthesized task; the timed phase is the whole loop."""

    name: str
    lengths: tuple[int, int]
    beam: int
    cutoffs: tuple
    ratios: tuple
    min_tokens: int | None
    sizes: dict
    root_span = "pipeline.run_pipeline"

    def resized(self, sizes: dict) -> "LoopWorkload":
        return replace(self, sizes=sizes, cutoffs=self.cutoffs[: sizes["generations"]])

    def config(self, task: Path) -> PipelineConfig:
        balance = BalanceSettings(min_tokens=self.min_tokens)
        generations = tuple(
            GenerationConfig(
                generation=g,
                augment_policy=POLICY,
                fusion_grid=GRID,
                filter_cutoff=cutoff,
                balance=balance if g > 0 else None,
                mix=MixPlan(mode="batchwise", ratio=self.ratios[g], batch_size=8),
            )
            for g, cutoff in enumerate(self.cutoffs)
        )
        return PipelineConfig(
            supervised=str(task / "sup.jsonl"),
            unlabeled=str(task / "unlab.jsonl"),
            dev=str(task / "dev.jsonl"),
            vocab=str(task / "vocab.txt"),
            frames_per_token=FRAMES_PER_TOKEN,
            beam=self.beam,
            decode_lm_weight=0.75,
            generations=generations,
        )

    def setup(self, root: Path, seed: int) -> dict:
        _task(root, seed, self.lengths, self.sizes, labeled_pool=False)
        return {"config": self.config(root), "seed": seed}

    def run(self, inputs: dict, workdir: Path):
        return run_pipeline(workdir, inputs["config"], inputs["seed"])

    def work_units(self) -> int:
        """Input utterances each generation processes: dev, plus unlabeled after generation 0."""
        n = len(self.cutoffs)
        return n * self.sizes["dev"] + (n - 1) * self.sizes["unlabeled"]

    def digest(self, inputs: dict, workdir: Path, state) -> dict:
        out: dict = {
            "metrics": [m.to_dict() for m in state.metrics],
            "metrics.tsv": _sha((workdir / "metrics.tsv").read_bytes()),
        }
        for g in range(len(state.metrics)):
            for stem in ("fusion", "filter"):
                out[f"{stem}_gen{g}"] = json.loads((workdir / f"{stem}_gen{g}.json").read_text())
            for name in (f"model_gen{g}.json", f"curves_gen{g}.tsv"):
                out[name] = _sha((workdir / name).read_bytes())
            pseudo = workdir / f"pseudo_gen{g}.jsonl"
            if pseudo.exists():
                labels = [
                    (r["id"], r.get("transcript"), r.get("score"))
                    for r in _manifest_records(pseudo)
                ]
                out[f"pseudo_labels_gen{g}"] = _sha_json(labels)
        return out

    @staticmethod
    def dev_wer(digest: dict) -> float:
        return digest["metrics"][-1]["dev_wer"]


CURATE_PARAMS = "0.6,0,0"
CURATE_CUTOFF = "0.0"


@dataclass(frozen=True)
class CurateWorkload:
    """The granular CLI chain over a pseudo-labeled pool, called in-process."""

    name: str
    sizes: dict
    root_span = "cli.chain"

    def resized(self, sizes: dict) -> "CurateWorkload":
        return replace(self, sizes=sizes)

    def setup(self, root: Path, seed: int) -> dict:
        """Write the pool, the supervised and dev sets, and the dev hypotheses.

        Pool transcripts come from the synthetic generator. Pool scores are
        drawn on the scale of a filter fit to the dev hypotheses, so the
        chain's filter at cutoff 0 keeps about half the pool.
        """
        world, sup, dev, pool, rng = _task(
            root, seed, (3, 6), self.sizes, labeled_pool=True
        )
        vocab = world.vocab()
        model = toy_train(sup, vocab, FRAMES_PER_TOKEN, POLICY, derive_seed(seed, "train"))
        lm, coverage, reward = (float(x) for x in CURATE_PARAMS.split(","))
        params = FusionParams(lm_weight=lm, coverage_weight=coverage, nonblank_reward=reward)
        hyp_lists = toy_transcribe(model, list(dev), 8, 0.75)
        records = [
            HypothesisRecord(u.id, vocab.decode(h.transcript), h.am_score, h.lm_score, h.coverage)
            for u, hyps in zip(dev, hyp_lists)
            for h in hyps
        ]
        best = [best_hypothesis(hyps, params) for hyps in hyp_lists]
        scale = fit_filter([(len(b.transcript), b.fused) for b in best if len(b.transcript) >= 1])
        write_hypotheses(records, root / "dev_hyps.jsonl")
        z = rng.standard_normal(len(pool))
        scored = [
            replace(
                u,
                score=float(
                    scale.mu * len(u.transcript)
                    + scale.beta
                    + scale.sigma * np.sqrt(len(u.transcript)) * zi
                ),
            )
            for u, zi in zip(pool, z)
        ]
        save_manifest(Dataset(scored), root / "pool.jsonl")
        (root / "policy.json").write_text(json.dumps(POLICY.to_dict()), encoding="utf-8")
        return {"root": root, "seed": seed}

    def chain(self, inputs: dict, workdir: Path) -> list[list[str]]:
        task, seed = inputs["root"], str(inputs["seed"])
        w = {name: str(workdir / name) for name in (
            "dev_fused.jsonl", "filter.json", "curves.tsv", "filtered.jsonl",
            "balanced.jsonl", "augmented.jsonl", "mix.tsv",
        )}
        return [
            ["score", "--params", CURATE_PARAMS, "--hyps", str(task / "dev_hyps.jsonl"),
             "--out", w["dev_fused.jsonl"]],
            ["fit-filter", "--hyps", w["dev_fused.jsonl"], "--out", w["filter.json"]],
            ["curves", "--refs", str(task / "dev.jsonl"), "--hyps", w["dev_fused.jsonl"],
             "--filter-model", w["filter.json"], "--out", w["curves.tsv"]],
            ["filter", "--manifest", str(task / "pool.jsonl"), "--filter-model",
             w["filter.json"], "--cutoff", CURATE_CUTOFF, "--out", w["filtered.jsonl"]],
            ["balance", "--manifest", w["filtered.jsonl"], "--target", str(task / "sup.jsonl"),
             "--vocab", str(task / "vocab.txt"), "--min-tokens", str(self.sizes["min_tokens"]),
             "--out", w["balanced.jsonl"]],
            ["augment", "--manifest", w["balanced.jsonl"], "--policy", str(task / "policy.json"),
             "--seed", seed, "--out", w["augmented.jsonl"]],
            ["mix", "--sup", str(task / "sup.jsonl"), "--semi", w["augmented.jsonl"],
             "--mode", "batchwise", "--ratio", "1:3", "--batch", "8",
             "--num-batches", str(self.sizes["mix_batches"]), "--seed", seed,
             "--out", w["mix.tsv"]],
        ]

    def run(self, inputs: dict, workdir: Path):
        workdir.mkdir(parents=True)
        messages = io.StringIO()
        for argv in self.chain(inputs, workdir):
            with contextlib.redirect_stdout(messages):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"nst {argv[0]} exited with {code}")

    def work_units(self) -> int:
        return self.sizes["unlabeled"]

    def digest(self, inputs: dict, workdir: Path, _result) -> dict:
        refs = {r["id"]: r["transcript"] for r in _manifest_records(inputs["root"] / "dev.jsonl")}
        best: dict = {}
        for r in _manifest_records(workdir / "dev_fused.jsonl"):
            if r["id"] not in best or r["fused"] > best[r["id"]]["fused"]:
                best[r["id"]] = r
        features = hashlib.sha256()
        augmented = workdir / "augmented.jsonl"
        for r in _manifest_records(augmented):
            features.update(r["id"].encode())
            features.update(read_features(augmented.parent / r["features"]).tobytes())
        out = {
            "dev_wer": corpus_wer((refs[k], v["tokens"]) for k, v in best.items()).wer,
            "filter": json.loads((workdir / "filter.json").read_text()),
            "curves.tsv": _sha((workdir / "curves.tsv").read_bytes()),
            "mix.tsv": _sha((workdir / "mix.tsv").read_bytes()),
            "augmented_features": features.hexdigest(),
        }
        for stem in ("filtered", "balanced"):
            ids = [(r["id"], r.get("multiplicity", 1)) for r in _manifest_records(workdir / f"{stem}.jsonl")]
            out[f"{stem}_ids"] = _sha_json(ids)
            out[f"{stem}_count"] = len(ids)
        return out

    @staticmethod
    def dev_wer(digest: dict) -> float:
        return digest["dev_wer"]


# Sizes per workload: "full" is what the benchmark measures, "tiny" is for self-tests.
WORKLOADS = {
    "paper_loop": (
        LoopWorkload(
            name="paper_loop",
            lengths=(3, 6),
            beam=8,
            cutoffs=(None, 1.0, 0.0, NEG_INF),
            ratios=((1, 1), (1, 1), (2, 6), (2, 6)),
            min_tokens=3000,
            sizes={"supervised": 200, "dev": 200, "unlabeled": 2000, "generations": 4},
        ),
        {"supervised": 30, "dev": 30, "unlabeled": 60, "generations": 2},
    ),
    "long_utts": (
        LoopWorkload(
            name="long_utts",
            lengths=(20, 40),
            beam=16,
            cutoffs=(None, 0.0, NEG_INF),
            ratios=((1, 1), (1, 1), (1, 3)),
            min_tokens=None,
            sizes={"supervised": 40, "dev": 40, "unlabeled": 80, "generations": 3},
        ),
        {"supervised": 8, "dev": 12, "unlabeled": 10, "generations": 2},
    ),
    "curate_stages": (
        CurateWorkload(
            name="curate_stages",
            sizes={"supervised": 200, "dev": 200, "unlabeled": 6000,
                   "min_tokens": 8000, "mix_batches": 1000},
        ),
        {"supervised": 30, "dev": 30, "unlabeled": 300, "min_tokens": 300, "mix_batches": 20},
    ),
}


def get(name: str, size: str = "full"):
    workload, tiny = WORKLOADS[name]
    return workload if size == "full" else workload.resized(tiny)
