"""Generation loop orchestration, persisted state, and analysis reports.

``load`` runs once per run; then each generation runs the stages after it
in order (the ``_Stage`` names):

    load                  once per run: the vocab and the supervised, dev and
                          unlabeled manifests, each checked as it is read
    load_teacher          the previous generation's model, fusion weights and
                          filter model, read from its files
    transcribe_unlabeled  the teacher's fused top hypotheses as pseudo-labels
    filter                keep pseudo-labels above the generation's cutoff
    balance               resample toward the supervised token distribution
    mix                   draw the supervised/semi-supervised training set
    train                 train the student with the generation's
                          augmentation policy and save it as the new model
    tune_fusion           decode dev once and grid-search the fusion weights
    fit_filter            fit the next generation's filter model on the
                          fused dev transcripts; write the dev hypotheses
    score_curves          survival and WER-above-score curves on dev

Generation 0 is the degenerate first cycle: no teacher, so it skips
``load_teacher`` through ``mix`` and trains on the supervised set alone.
Each generation's settings are its ``GenerationConfig``; there is no other
per-generation schedule.

The loop sees a recognizer only through the ``Recognizer`` protocol: the
``recognizer`` factory of ``run_generation`` (``ToyRecognizer`` by default)
builds the teacher and the student, which train, save, load and decode.

``state.json``, the run's identity, is written once, when the run starts.
Each generation's numbers live only in its own atomically written files, and
``info_gen{g}.json``, written last, marks generation g complete. A resume
and a generation's teacher read those files alike. All randomness derives
from (master seed, generation, stage name).
"""
from __future__ import annotations

import math
import os
from collections import Counter
from dataclasses import asdict, dataclass, field, replace
from itertools import count, islice
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .augment import AugmentPolicy
from .balancing import BalanceResult, SamplerConfig, submodular_sample
from .corpus import (
    Dataset,
    TokenVocab,
    Utterance,
    WeightedSample,
    atomic_write_json,
    atomic_write_text,
    load_manifest,
    load_vocab,
    read_json,
    save_manifest,
    text_lines,
    token_distribution,
)
from .errors import NstError, read_record
from .filtering import (
    FilterModel,
    ScoredTranscript,
    apply_filter,
    curves_to_tsv,
    default_thresholds,
    fit_filter,
    score_curves,
)
from .mixing import BATCHWISE, MixPlan, mix_batchwise, mix_uniform
from .recognizer import Recognizer, ToyRecognizer
from .scoring import FusionParams, grid_search_table, hypothesis_records, write_hypotheses
from .seeding import derive_rng, derive_seed

STATE_FILENAME = "state.json"

# The keys each config and state record may hold, with their JSON types.
_BALANCE_SPEC = {"multiplicity_cap": int, "batch_fraction": float,
                 "min_tokens": (int, str, None), "smoothing_epsilon": float}
_GENERATION_SPEC = {"generation": int, "augment": dict, "fusion_grid": list, "mix": dict,
                    "filter_cutoff": (float, str, None), "balance": (bool, dict, None)}
_DATASET_SPEC = {"supervised": str, "unlabeled": str, "dev": str, "vocab": str}
_RUN_SPEC = {"datasets": dict, "frames_per_token": int, "beam": int, "decode_lm_weight": float,
             "generations": list}
# The run's identity: the state fields a run fixes when it starts; a resume must agree on each.
_STATE_SPEC = {"seed": int, "frames_per_token": int, "beam": int, "decode_lm_weight": float,
               **_DATASET_SPEC}
_FUSION_RECORD_SPEC = {"params": dict, "dev_wer": float}
_INFO_SPEC = {"semi_utterances": int, "semi_examples": int, "balance_infeasible": bool,
              "training_utterances": int, "training_examples": int}


class PipelineError(NstError):
    pass


class StageError(PipelineError):
    """A generation stage failed; its generation record is not written."""

    def __init__(self, generation: int, stage: str, cause: Exception):
        super().__init__(f"generation {generation}, stage {stage!r}: {cause}")
        self.generation = generation
        self.stage = stage
        self.cause = cause


def parse_cutoff(value: object) -> float | None:
    """A config cutoff: a number or numeric string such as '-inf', never NaN; null turns it off."""
    if value is None:
        return None
    try:
        cutoff = float(value)
    except (TypeError, ValueError):
        cutoff = math.nan
    if math.isnan(cutoff):
        raise PipelineError(f"filter_cutoff must be a number, '-inf', 'inf' or null: {value!r}")
    return cutoff


def format_cutoff(value: float | None) -> object:
    if value is None:
        return None
    if math.isinf(value):
        return "-inf" if value < 0 else "inf"
    return value


@dataclass(frozen=True)
class BalanceSettings:
    """Balancer knobs; ``min_tokens`` of None means the supervised token total."""

    multiplicity_cap: int = 2
    batch_fraction: float = 0.1
    min_tokens: int | None = None
    smoothing_epsilon: float = 1e-6

    def __post_init__(self):
        # The sampler's checks, run now so a bad setting fails at config load.
        if self.min_tokens is not None and self.min_tokens < 0:
            raise PipelineError("balance settings: min_tokens must be >= 0")
        self.resolve(0)

    def resolve(self, supervised_tokens: int) -> SamplerConfig:
        floor = self.min_tokens if self.min_tokens is not None else supervised_tokens
        return SamplerConfig(
            multiplicity_cap=self.multiplicity_cap,
            batch_fraction=self.batch_fraction,
            min_token_total=floor,
            smoothing_epsilon=self.smoothing_epsilon,
        )

    @classmethod
    def from_dict(cls, record: Mapping) -> "BalanceSettings":
        """The settings a ``to_dict`` record describes; absent keys take their defaults.

        ``min_tokens`` is an integer, or ``"auto"``/null for the supervised
        token total.
        """
        values = read_record(record, _BALANCE_SPEC, PipelineError, "balance settings")
        if values.get("min_tokens") == "auto":
            values["min_tokens"] = None
        elif isinstance(values.get("min_tokens"), str):
            raise PipelineError("balance settings: min_tokens must be an integer, 'auto' or null")
        return cls(**values)

    def to_dict(self) -> dict:
        return {
            "multiplicity_cap": self.multiplicity_cap,
            "batch_fraction": self.batch_fraction,
            "min_tokens": "auto" if self.min_tokens is None else self.min_tokens,
            "smoothing_epsilon": self.smoothing_epsilon,
        }


@dataclass(frozen=True)
class GenerationConfig:
    """One generation's knobs: augmentation, fusion grid, filter, balance, mix."""

    generation: int
    augment_policy: AugmentPolicy
    fusion_grid: tuple[FusionParams, ...]
    filter_cutoff: float | None = None
    balance: BalanceSettings | None = None
    mix: MixPlan = field(default_factory=MixPlan)

    def __post_init__(self):
        if self.generation < 0:
            raise PipelineError("generation index must be >= 0")
        if not self.fusion_grid:
            raise PipelineError("fusion grid must be nonempty")

    @property
    def filtering(self) -> bool:
        return self.filter_cutoff is not None

    @property
    def balancing(self) -> bool:
        return self.balance is not None

    @classmethod
    def from_dict(cls, record: Mapping) -> "GenerationConfig":
        """The config a ``to_dict`` record describes; only ``generation`` is required.

        An absent ``augment`` or ``mix`` takes that record's defaults, and an
        absent ``fusion_grid`` is one default point. ``filter_cutoff`` goes
        through ``parse_cutoff``. ``balance`` is a balance settings record, or
        true for the default settings; false or null turns balancing off.
        """
        values = read_record(record, _GENERATION_SPEC, PipelineError, "generation settings",
                             required=("generation",))
        balance = {} if values.get("balance") is True else values.get("balance")
        return cls(
            generation=values["generation"],
            augment_policy=AugmentPolicy.from_dict(values.get("augment", {})),
            fusion_grid=tuple(
                FusionParams.from_dict(g) for g in values.get("fusion_grid", [{}])
            ),
            filter_cutoff=parse_cutoff(values.get("filter_cutoff")),
            balance=None if balance in (None, False) else BalanceSettings.from_dict(balance),
            mix=MixPlan.from_dict(values.get("mix", {})),
        )

    def to_dict(self) -> dict:
        return {
            "generation": self.generation,
            "augment": self.augment_policy.to_dict(),
            "fusion_grid": [g.to_dict() for g in self.fusion_grid],
            "filter_cutoff": format_cutoff(self.filter_cutoff),
            "mix": self.mix.to_dict(),
            "balance": self.balance.to_dict() if self.balance else None,
        }


@dataclass(frozen=True)
class PipelineConfig:
    """Run-level settings plus the ordered generation configs."""

    supervised: str
    unlabeled: str
    dev: str
    vocab: str
    frames_per_token: int
    beam: int = 4
    decode_lm_weight: float = 0.0
    generations: tuple[GenerationConfig, ...] = ()

    def __post_init__(self):
        for name in ("frames_per_token", "beam"):
            if getattr(self, name) < 1:
                raise PipelineError(f"{name} must be >= 1, got {getattr(self, name)!r}")
        if not math.isfinite(self.decode_lm_weight):
            raise PipelineError(f"decode_lm_weight must be finite, got {self.decode_lm_weight!r}")
        for index, gen in enumerate(self.generations):
            if gen.generation != index:
                raise PipelineError(
                    f"generation configs must be numbered 0..n-1 in order; "
                    f"position {index} is numbered {gen.generation}"
                )

    @classmethod
    def from_dict(cls, record: Mapping, base_dir: Path | None = None) -> "PipelineConfig":
        """The config a run config record describes.

        ``datasets`` (all four paths) and ``frames_per_token`` are required;
        other absent keys take their defaults. Relative dataset paths are
        resolved against ``base_dir`` when it is given.
        """
        values = read_record(record, _RUN_SPEC, PipelineError, "pipeline settings",
                             required=("datasets", "frames_per_token"))
        paths = read_record(values.pop("datasets"), _DATASET_SPEC, PipelineError,
                            "dataset paths", required=_DATASET_SPEC)
        for key, path in paths.items():
            values[key] = str(Path(base_dir or ".", path))  # an absolute path stays as it is
        if "generations" in values:
            values["generations"] = tuple(
                GenerationConfig.from_dict(g) for g in values["generations"]
            )
        return cls(**values)

    @classmethod
    def from_file(cls, path: str | Path) -> "PipelineConfig":
        """The config in the JSON file ``path``; every refusal is a PipelineError naming it."""
        return read_json(path, lambda record: cls.from_dict(record, base_dir=Path(path).parent),
                         PipelineError)


@dataclass(frozen=True)
class GenerationMetrics:
    generation: int
    dev_wer: float
    semi_utterances: int
    semi_examples: int

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class PipelineState:
    """The run's identity, from ``state.json``, and each completed generation's metrics."""

    workdir: Path
    seed: int
    frames_per_token: int
    beam: int
    decode_lm_weight: float
    supervised: str
    unlabeled: str
    dev: str
    vocab: str
    metrics: list[GenerationMetrics] = field(default_factory=list)

    @property
    def generation(self) -> int:
        """The number of completed generations, which is the next one to run."""
        return len(self.metrics)

    def to_dict(self) -> dict:
        """The run's identity, as ``state.json`` holds it."""
        return {name: getattr(self, name) for name in _STATE_SPEC}


def _read_file_record(path: Path, spec: Mapping, what: str) -> dict:
    """The record in the JSON file ``path``, every key of ``spec`` required; errors name it."""
    if not path.exists():
        raise PipelineError(f"no {what} at {path}")
    return read_json(
        path, lambda record: read_record(record, spec, PipelineError, what, required=spec),
        PipelineError)


def load_state(workdir: str | Path) -> PipelineState:
    """``state.json``, with metrics for g = 0, 1, ... while ``info_gen{g}.json`` exists.

    Generation g's dev WER is read from ``fusion_gen{g}.json``, its semi-set
    counts from ``info_gen{g}.json``.
    """
    workdir = Path(workdir)
    identity = _read_file_record(workdir / STATE_FILENAME, _STATE_SPEC, "pipeline state")
    state = PipelineState(workdir=workdir, **identity)
    for g in count():
        info_path = workdir / f"info_gen{g}.json"
        if not info_path.exists():
            return state
        info = _read_file_record(info_path, _INFO_SPEC, "generation record")
        tuned = _read_file_record(workdir / f"fusion_gen{g}.json", _FUSION_RECORD_SPEC,
                                  "fusion record")
        state.metrics.append(GenerationMetrics(
            g, tuned["dev_wer"], info["semi_utterances"], info["semi_examples"]))


def _start_state(workdir: str | Path, config: PipelineConfig, seed: int) -> PipelineState:
    """The state of a run of ``config`` that has completed no generation.

    Each input path is stored relative to the workdir, both resolved, so a task moved together
    with its workdir keeps its state.
    """
    workdir = Path(workdir)
    paths = {name: os.path.relpath(Path(getattr(config, name)).resolve(), workdir.resolve())
             for name in _DATASET_SPEC}
    return PipelineState(workdir=workdir, seed=int(seed), frames_per_token=config.frames_per_token,
                         beam=config.beam, decode_lm_weight=config.decode_lm_weight, **paths)


def init_state(workdir: str | Path, config: PipelineConfig, seed: int) -> PipelineState:
    """Write ``state.json``; a workdir holding another run's generation records is refused."""
    state = _start_state(workdir, config, seed)
    records = sorted(state.workdir.glob("info_gen*.json"))
    if records:
        raise PipelineError(f"cannot start a run in {state.workdir}: it holds {records[0].name}")
    state.workdir.mkdir(parents=True, exist_ok=True)
    atomic_write_json(state.workdir / STATE_FILENAME, state.to_dict())
    return state


class _Stage:
    """Context manager wrapping a stage so failures carry generation and stage.

    Only an ``Exception`` is wrapped: ``KeyboardInterrupt`` and ``SystemExit``
    pass through unchanged.
    """

    def __init__(self, generation: int, stage: str):
        self.generation = generation
        self.stage = stage

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if isinstance(exc, Exception) and not isinstance(exc, StageError):
            raise StageError(self.generation, self.stage, exc) from exc
        return False


def _pseudo_label(
    unlabeled: Dataset,
    recognizer: Recognizer,
    fusion: FusionParams,
    beam: int,
) -> Dataset:
    """Transcribe the unlabeled set and attach fused top hypotheses."""
    nbest = recognizer.transcribe(list(unlabeled), beam)
    ranks, scores = nbest.best(fusion)
    vocab = recognizer.vocab
    return Dataset(
        replace(u, transcript=vocab.decode(ids), score=score)
        for u, ids, score in zip(unlabeled, nbest.token_ids(ranks), scores.tolist(), strict=True)
    )


def balance_sample(
    pool: Dataset, target: Dataset, vocab: TokenVocab, settings: BalanceSettings
) -> tuple[Dataset, BalanceResult]:
    """Sample ``pool`` toward the token distribution of ``target``.

    Returns the sampled utterances in pool order, each with its sampled
    multiplicity, and the sampler's result. A ``min_tokens`` of None takes
    ``target``'s token total as the floor. An utterance of either set without
    a transcript raises MissingTranscriptError before anything is sampled.
    """
    pool.total_tokens()
    config = settings.resolve(target.total_tokens())
    samples = [WeightedSample(u.id, vocab.encode_tokens(u.transcript), 1) for u in pool]
    distribution = token_distribution(
        [vocab.encode_tokens(u.transcript) for u in target], vocab.size
    )
    result = submodular_sample(samples, distribution, config)
    chosen = {s.utterance_id: s.multiplicity for s in result.samples}
    balanced = Dataset(replace(u, multiplicity=chosen[u.id]) for u in pool if u.id in chosen)
    return balanced, result


def draw_mix(
    supervised: Dataset,
    semi: Dataset,
    plan: MixPlan,
    rng: np.random.Generator,
    items: int,
) -> list[list[tuple[Utterance, str]]]:
    """The first ``items`` items of ``plan``'s stream as lists of (utterance, origin).

    An item is one batch in batchwise mode and one example in uniform mode.
    """
    if items < 0:
        raise PipelineError(f"cannot draw a negative number of mix items: {items}")
    if plan.mode == BATCHWISE:
        stream = mix_batchwise(supervised, semi, plan, rng)
    else:
        stream = ([example] for example in mix_uniform(supervised, semi, rng))
    return list(islice(stream, items))


def _draw_training_set(
    supervised: Dataset,
    semi: Dataset,
    plan: MixPlan,
    generation: int,
    seed: int,
) -> Dataset:
    """One epoch's worth of the mixed stream, collapsed to multiplicities.

    A drawn example appearing k times trains with weight k, which is exactly
    what physical duplication would do for this trainer.
    """
    examples = len(supervised) + sum(u.multiplicity for u in semi)
    items = draw_mix(supervised, semi, plan, derive_rng(seed, generation, "mix"),
                     math.ceil(examples / plan.item_size))
    # Utterances hash by identity, and each dataset holds one utterance per id.
    drawn = Counter((origin, utt) for item in items for utt, origin in item)
    return Dataset(
        replace(utt, id=f"{origin}.{utt.id}", multiplicity=count)
        for (origin, utt), count in drawn.items()
    )


def fit_scored(scored: Mapping[str, ScoredTranscript]) -> FilterModel:
    """The filter model fit on each scored transcript's (length, fused score).

    Blank transcripts do not enter the fit.
    """
    return fit_filter([(len(s.tokens), s.fused) for s in scored.values() if s.tokens])


@dataclass(frozen=True)
class RunInputs:
    """The vocab and the three datasets of a run, which no generation changes."""

    vocab: TokenVocab
    supervised: Dataset
    dev: Dataset
    unlabeled: Dataset


def load_inputs(state: PipelineState) -> RunInputs:
    """The vocab and the manifests at the state's paths, each read and checked once."""
    vocab, *manifests = ((state.workdir / path).resolve()
                         for path in (state.vocab, state.supervised, state.dev, state.unlabeled))
    return RunInputs(load_vocab(vocab), *map(load_manifest, manifests))


def run_generation(
    state: PipelineState,
    config: GenerationConfig,
    inputs: RunInputs,
    *,
    recognizer: Callable[[TokenVocab, int, float], Recognizer] = ToyRecognizer,
) -> PipelineState:
    """Execute one generation cycle on ``load_inputs(state)`` and return the advanced state.

    ``recognizer(vocab, frames_per_token, decode_lm_weight)`` builds the
    teacher and the student. A stage failure raises StageError before
    ``info_gen{g}.json`` records the generation as complete.
    """
    g = state.generation
    if config.generation != g:
        raise PipelineError(
            f"state expects generation {g}, config is for {config.generation}"
        )
    workdir = state.workdir
    workdir.mkdir(parents=True, exist_ok=True)
    vocab, supervised, dev = inputs.vocab, inputs.supervised, inputs.dev

    semi = Dataset([])
    balance_infeasible = False
    if g == 0:
        training_set = supervised
    else:
        with _Stage(g, "load_teacher"):
            teacher = recognizer(vocab, state.frames_per_token, state.decode_lm_weight)
            teacher.load(workdir / f"model_gen{g - 1}.json")
            tuned = _read_file_record(workdir / f"fusion_gen{g - 1}.json", _FUSION_RECORD_SPEC,
                                      "fusion record")
            teacher_fusion = FusionParams.from_dict(tuned["params"])
            teacher_filter = read_json(workdir / f"filter_gen{g - 1}.json", FilterModel.from_dict,
                                       PipelineError)
        with _Stage(g, "transcribe_unlabeled"):
            pseudo = _pseudo_label(inputs.unlabeled, teacher, teacher_fusion, state.beam)
            save_manifest(pseudo, workdir / f"pseudo_gen{g}.jsonl")
        with _Stage(g, "filter"):
            if config.filtering:
                filtered = apply_filter(pseudo, teacher_filter, config.filter_cutoff)
                save_manifest(filtered, workdir / f"filtered_gen{g}.jsonl")
            else:
                filtered = pseudo
        with _Stage(g, "balance"):
            if config.balancing and len(filtered) > 0:
                semi, result = balance_sample(filtered, supervised, vocab, config.balance)
                balance_infeasible = result.infeasible
                save_manifest(semi, workdir / f"balanced_gen{g}.jsonl")
            else:
                semi = filtered
        with _Stage(g, "mix"):
            if len(semi) > 0:
                training_set = _draw_training_set(
                    supervised, semi, config.mix, g, state.seed
                )
            else:
                training_set = supervised

    with _Stage(g, "train"):
        student = recognizer(vocab, state.frames_per_token, state.decode_lm_weight)
        student.train(
            training_set, config.augment_policy, derive_seed(state.seed, g, "train")
        )
        student.save(workdir / f"model_gen{g}.json")

    with _Stage(g, "tune_fusion"):
        dev_nbest = student.transcribe(list(dev), state.beam)
        table = grid_search_table(config.fusion_grid, dev, dev_nbest, vocab)
        best = min(table, key=lambda point: point.dev_wer)  # the earliest of equal points
        fusion, dev_wer = best.params, best.dev_wer
        atomic_write_json(
            workdir / f"fusion_gen{g}.json", {"params": fusion.to_dict(), "dev_wer": dev_wer}
        )

    with _Stage(g, "fit_filter"):
        ranks, scores = dev_nbest.best(fusion)
        scored = {
            u.id: ScoredTranscript(vocab.decode(ids), score)
            for u, ids, score in zip(dev, dev_nbest.token_ids(ranks), scores.tolist())
        }
        filter_model = fit_scored(scored)
        atomic_write_json(workdir / f"filter_gen{g}.json", filter_model.to_dict())
        write_hypotheses(
            hypothesis_records(dev, dev_nbest, vocab),
            workdir / f"dev_hyps_gen{g}.jsonl",
        )

    with _Stage(g, "score_curves"):
        curves = score_curves(dev, scored, filter_model, default_thresholds())
        atomic_write_text(workdir / f"curves_gen{g}.tsv", curves_to_tsv(curves))

    semi_examples = sum(u.multiplicity for u in semi)
    info = {
        "semi_utterances": len(semi),
        "semi_examples": semi_examples,
        "balance_infeasible": balance_infeasible,
        "training_utterances": len(training_set),
        "training_examples": sum(u.multiplicity for u in training_set),
    }
    atomic_write_json(workdir / f"info_gen{g}.json", info)  # last: generation g is complete
    return replace(
        state, metrics=state.metrics + [GenerationMetrics(g, dev_wer, len(semi), semi_examples)]
    )


def metrics_tsv(metrics: Sequence[GenerationMetrics]) -> str:
    lines = ["generation\tdev_wer\tsemi_utterances\tsemi_examples"]
    for m in metrics:
        lines.append(
            f"{m.generation}\t{m.dev_wer:.6g}\t{m.semi_utterances}\t{m.semi_examples}"
        )
    return "\n".join(lines) + "\n"


def run_pipeline(
    workdir: str | Path, config: PipelineConfig, seed: int
) -> PipelineState:
    """Run (or resume) every configured generation and write the metrics table.

    A resume must keep the state's seed, run settings and resolved dataset paths.
    """
    workdir = Path(workdir)
    if (workdir / STATE_FILENAME).exists():
        state = load_state(workdir)
        start = _start_state(workdir, config, seed)
        changed = [name for name in _STATE_SPEC if getattr(state, name) != getattr(start, name)]
        if changed:
            raise PipelineError(f"cannot resume: the state has another {', '.join(changed)}")
    else:
        state = init_state(workdir, config, seed)
    if state.generation > len(config.generations):
        raise PipelineError(
            f"state has {state.generation} completed generations but the config "
            f"lists only {len(config.generations)}"
        )
    with _Stage(state.generation, "load"):
        inputs = load_inputs(state)
    for gen_config in config.generations[state.generation :]:
        state = run_generation(state, gen_config, inputs)
    atomic_write_text(workdir / "metrics.tsv", metrics_tsv(state.metrics))
    return state


def emit_reports(state: PipelineState) -> dict[str, Path]:
    """Write the per-figure analysis tables from completed generations.

    wer_by_generation: dev WER per generation.
    score_survival: fraction of dev utterances and tokens above each
        filter-score threshold, per generation.
    wer_above_score: aggregate dev WER of transcripts above each threshold.
    wer_vs_semi_size: dev WER against the semi-supervised set size.
    """
    if not state.metrics:
        raise PipelineError("no generations completed")
    tables = {
        "wer_by_generation": ["generation\tdev_wer"],
        "score_survival": ["generation\tthreshold\tutt_frac\ttok_frac"],
        "wer_above_score": ["generation\tthreshold\twer"],
        "wer_vs_semi_size": ["generation\tsemi_utterances\tsemi_examples\tdev_wer"],
    }
    for m in state.metrics:
        tables["wer_by_generation"].append(f"{m.generation}\t{m.dev_wer:.6g}")
        path = state.workdir / f"curves_gen{m.generation}.tsv"
        lines = "".join(text_lines(path, PipelineError)).splitlines()
        if lines[:1] != curves_to_tsv([]).splitlines():
            raise PipelineError(f"{path}: line 1: not the header of a curves table")
        for line_number, row in enumerate(lines[1:], 2):
            cells = row.split("\t")
            if len(cells) != 4:
                raise PipelineError(f"{path}: line {line_number}: expected 4 tab-separated "
                                    f"cells, got {len(cells)}")
            threshold, utt_frac, tok_frac, wer_cell = cells
            tables["score_survival"].append(f"{m.generation}\t{threshold}\t{utt_frac}\t{tok_frac}")
            tables["wer_above_score"].append(f"{m.generation}\t{threshold}\t{wer_cell}")
        tables["wer_vs_semi_size"].append(
            f"{m.generation}\t{m.semi_utterances}\t{m.semi_examples}\t{m.dev_wer:.6g}"
        )
    out = {name: state.workdir / f"report_{name}.tsv" for name in tables}
    for name, lines in tables.items():
        atomic_write_text(out[name], "\n".join(lines) + "\n")
    out["metrics"] = state.workdir / "metrics.tsv"
    atomic_write_text(out["metrics"], metrics_tsv(state.metrics))
    return out
