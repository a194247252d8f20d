"""Generation loop orchestration, persisted state, and analysis reports.

Each generation runs these stages in order (the ``_Stage`` names):

    load                  vocab, supervised and dev manifests
    load_teacher          the previous model, tuned fusion and filter model,
                          and the unlabeled manifest
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

State is a single JSON document written atomically, so an interrupted run
leaves either the previous or the next state file, never a torn one. All
randomness derives from (master seed, generation, stage name).
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Mapping, Sequence

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
from .scoring import (
    FusionParams,
    best_hypothesis,
    grid_search_table,
    hypothesis_records,
    write_hypotheses,
)
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
_METRICS_SPEC = {"generation": int, "dev_wer": float, "semi_utterances": int, "semi_examples": int}
_STATE_SPEC = {"seed": int, "frames_per_token": int, "beam": int, "decode_lm_weight": float,
               **_DATASET_SPEC, "generation": int, "model_file": (str, None),
               "fusion": (dict, None), "filter_model": (dict, None), "metrics": list}
# The state fields a run fixes when it starts; a resume must agree on each.
_RUN_FIELDS = ("seed", "frames_per_token", "beam", "decode_lm_weight", *_DATASET_SPEC)


class PipelineError(NstError):
    pass


class StageError(PipelineError):
    """A generation stage failed; the state file is left untouched."""

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
        return cls.from_dict(read_json(path, PipelineError), base_dir=Path(path).parent)


@dataclass(frozen=True)
class GenerationMetrics:
    generation: int
    dev_wer: float
    semi_utterances: int
    semi_examples: int

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, record: Mapping) -> "GenerationMetrics":
        return cls(**read_record(record, _METRICS_SPEC, PipelineError, "generation metrics",
                                 required=_METRICS_SPEC))


@dataclass
class PipelineState:
    """Persisted loop state; ``generation`` counts completed generations."""

    workdir: Path
    seed: int
    frames_per_token: int
    beam: int
    decode_lm_weight: float
    supervised: str
    unlabeled: str
    dev: str
    vocab: str
    generation: int = 0
    model_file: str | None = None
    fusion: FusionParams | None = None
    filter_model: FilterModel | None = None
    metrics: list[GenerationMetrics] = field(default_factory=list)

    def to_dict(self) -> dict:
        """Every field but ``workdir``, as JSON-ready values."""
        record = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "workdir"}
        record.update(
            fusion=self.fusion.to_dict() if self.fusion else None,
            filter_model=self.filter_model.to_dict() if self.filter_model else None,
            metrics=[m.to_dict() for m in self.metrics],
        )
        return record

    @classmethod
    def from_dict(cls, workdir: Path, record: Mapping) -> "PipelineState":
        """The state a ``to_dict`` record describes; every key is required."""
        values = read_record(record, _STATE_SPEC, PipelineError, "pipeline state",
                             required=_STATE_SPEC)
        if values["fusion"] is not None:
            values["fusion"] = FusionParams.from_dict(values["fusion"])
        if values["filter_model"] is not None:
            values["filter_model"] = FilterModel.from_dict(values["filter_model"])
        values["metrics"] = [GenerationMetrics.from_dict(m) for m in values["metrics"]]
        return cls(workdir=workdir, **values)


def save_state(state: PipelineState) -> Path:
    state.workdir.mkdir(parents=True, exist_ok=True)
    path = state.workdir / STATE_FILENAME
    atomic_write_json(path, state.to_dict())
    return path


def load_state(workdir: str | Path) -> PipelineState:
    workdir = Path(workdir)
    path = workdir / STATE_FILENAME
    if not path.exists():
        raise PipelineError(f"no pipeline state at {path}")
    return PipelineState.from_dict(workdir, read_json(path, PipelineError))


def _start_state(workdir: str | Path, config: PipelineConfig, seed: int) -> PipelineState:
    """The state of a run of ``config`` that has completed no generation."""
    return PipelineState(
        workdir=Path(workdir),
        seed=int(seed),
        frames_per_token=config.frames_per_token,
        beam=config.beam,
        decode_lm_weight=config.decode_lm_weight,
        supervised=str(Path(config.supervised).resolve()),
        unlabeled=str(Path(config.unlabeled).resolve()),
        dev=str(Path(config.dev).resolve()),
        vocab=str(Path(config.vocab).resolve()),
    )


def init_state(workdir: str | Path, config: PipelineConfig, seed: int) -> PipelineState:
    state = _start_state(workdir, config, seed)
    save_state(state)
    return state


class _Stage:
    """Context manager wrapping a stage so failures carry generation and stage."""

    def __init__(self, generation: int, stage: str):
        self.generation = generation
        self.stage = stage

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc is not None and not isinstance(exc, StageError):
            raise StageError(self.generation, self.stage, exc) from exc
        return False


def _pseudo_label(
    unlabeled: Dataset,
    recognizer: Recognizer,
    fusion: FusionParams,
    beam: int,
) -> Dataset:
    """Transcribe the unlabeled set and attach fused top hypotheses."""
    hyp_lists = recognizer.transcribe(list(unlabeled), beam)
    vocab = recognizer.vocab
    labeled = []
    for u, hyps in zip(unlabeled, hyp_lists, strict=True):
        best = best_hypothesis(hyps, fusion)
        labeled.append(
            replace(u, transcript=vocab.decode(best.transcript), score=best.fused)
        )
    return Dataset(labeled)


def balance_sample(
    pool: Dataset, target: Dataset, vocab: TokenVocab, settings: BalanceSettings
) -> BalanceResult:
    """Sample ``pool`` toward the token distribution of ``target``.

    A ``min_tokens`` of None takes ``target``'s token total as the floor.
    """
    samples = [WeightedSample(u.id, vocab.encode_tokens(u.transcript), 1) for u in pool]
    distribution = token_distribution(
        [vocab.encode_tokens(u.transcript) for u in target], vocab.size
    )
    return submodular_sample(samples, distribution, settings.resolve(target.total_tokens()))


def _balance(
    filtered: Dataset,
    supervised: Dataset,
    vocab: TokenVocab,
    settings: BalanceSettings,
) -> tuple[Dataset, bool]:
    """The balanced semi set, in sample order."""
    result = balance_sample(filtered, supervised, vocab, settings)
    semi = Dataset(
        replace(filtered.by_id(s.utterance_id), multiplicity=s.multiplicity)
        for s in result.samples
    )
    return semi, result.infeasible


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
    semi_examples = sum(u.multiplicity for u in semi)
    target = len(supervised) + semi_examples
    rng = derive_rng(seed, generation, "mix")
    counts: dict[tuple[str, str], int] = {}
    sources: dict[tuple[str, str], Utterance] = {}

    def record(utt: Utterance, origin: str) -> None:
        key = (origin, utt.id)
        counts[key] = counts.get(key, 0) + 1
        sources[key] = utt

    if plan.mode == BATCHWISE:
        stream = mix_batchwise(supervised, semi, plan, rng)
        n_batches = math.ceil(target / plan.batch_size)
        for _ in range(n_batches):
            for utt, origin in next(stream):
                record(utt, origin)
    else:
        stream = mix_uniform(supervised, semi, rng)
        for _ in range(target):
            utt, origin = next(stream)
            record(utt, origin)

    drawn = [
        replace(sources[key], id=f"{key[0]}.{key[1]}", multiplicity=count)
        for key, count in counts.items()
    ]
    return Dataset(drawn)


def run_generation(
    state: PipelineState,
    config: GenerationConfig,
    *,
    recognizer: Callable[[TokenVocab, int, float], Recognizer] = ToyRecognizer,
) -> PipelineState:
    """Execute one generation cycle and persist the advanced state.

    ``recognizer(vocab, frames_per_token, decode_lm_weight)`` builds the
    teacher and the student. Any stage failure raises StageError without
    touching the state file.
    """
    g = state.generation
    if config.generation != g:
        raise PipelineError(
            f"state expects generation {g}, config is for {config.generation}"
        )
    workdir = state.workdir
    workdir.mkdir(parents=True, exist_ok=True)

    with _Stage(g, "load"):
        vocab = load_vocab(state.vocab)
        supervised = load_manifest(state.supervised)
        dev = load_manifest(state.dev)

    semi = Dataset([])
    balance_infeasible = False
    if g == 0 or state.model_file is None:
        training_set = supervised
    else:
        with _Stage(g, "load_teacher"):
            teacher = recognizer(vocab, state.frames_per_token, state.decode_lm_weight)
            teacher.load(workdir / state.model_file)
            if state.fusion is None or state.filter_model is None:
                raise PipelineError("state lacks tuned fusion or filter model")
            unlabeled = load_manifest(state.unlabeled)
        with _Stage(g, "transcribe_unlabeled"):
            pseudo = _pseudo_label(unlabeled, teacher, state.fusion, state.beam)
            save_manifest(pseudo, workdir / f"pseudo_gen{g}.jsonl")
        with _Stage(g, "filter"):
            if config.filtering:
                filtered = apply_filter(pseudo, state.filter_model, config.filter_cutoff)
                save_manifest(filtered, workdir / f"filtered_gen{g}.jsonl")
            else:
                filtered = pseudo
        with _Stage(g, "balance"):
            if config.balancing and len(filtered) > 0:
                semi, balance_infeasible = _balance(
                    filtered, supervised, vocab, config.balance
                )
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
        model_file = f"model_gen{g}.json"
        student.save(workdir / model_file)

    with _Stage(g, "tune_fusion"):
        dev_hyp_lists = student.transcribe(list(dev), state.beam)
        table = grid_search_table(
            config.fusion_grid, dev, student, state.beam, hyp_lists=dev_hyp_lists
        )
        best = min(table, key=lambda point: point.dev_wer)  # the earliest of equal points
        fusion, dev_wer = best.params, best.dev_wer
        atomic_write_json(
            workdir / f"fusion_gen{g}.json", {"params": fusion.to_dict(), "dev_wer": dev_wer}
        )

    with _Stage(g, "fit_filter"):
        best_hyps = [best_hypothesis(hyps, fusion) for hyps in dev_hyp_lists]
        pairs = [
            (len(b.transcript), b.fused) for b in best_hyps if len(b.transcript) >= 1
        ]
        filter_model = fit_filter(pairs)
        atomic_write_json(workdir / f"filter_gen{g}.json", filter_model.to_dict())
        write_hypotheses(
            hypothesis_records(dev, dev_hyp_lists, vocab),
            workdir / f"dev_hyps_gen{g}.jsonl",
        )

    with _Stage(g, "score_curves"):
        scored = {
            u.id: ScoredTranscript(vocab.decode(b.transcript), b.fused)
            for u, b in zip(dev, best_hyps)
        }
        curves = score_curves(dev, scored, filter_model, default_thresholds())
        atomic_write_text(workdir / f"curves_gen{g}.tsv", curves_to_tsv(curves))

    semi_examples = sum(u.multiplicity for u in semi)
    info = {
        "generation": g,
        "semi_utterances": len(semi),
        "semi_examples": semi_examples,
        "balance_infeasible": balance_infeasible,
        "training_utterances": len(training_set),
        "training_examples": sum(u.multiplicity for u in training_set),
    }
    atomic_write_json(workdir / f"info_gen{g}.json", info)

    new_state = replace(
        state,
        generation=g + 1,
        model_file=model_file,
        fusion=fusion,
        filter_model=filter_model,
        metrics=state.metrics + [GenerationMetrics(g, dev_wer, len(semi), semi_examples)],
    )
    save_state(new_state)
    return new_state


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
        changed = [name for name in _RUN_FIELDS if getattr(state, name) != getattr(start, name)]
        if changed:
            raise PipelineError(f"cannot resume: the state has another {', '.join(changed)}")
    else:
        state = init_state(workdir, config, seed)
    if state.generation > len(config.generations):
        raise PipelineError(
            f"state has {state.generation} completed generations but the config "
            f"lists only {len(config.generations)}"
        )
    for gen_config in config.generations[state.generation :]:
        state = run_generation(state, gen_config)
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
        curves = (state.workdir / f"curves_gen{m.generation}.tsv").read_text(encoding="utf-8")
        for row in curves.splitlines()[1:]:  # below the header
            threshold, utt_frac, tok_frac, wer_cell = row.split("\t")
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
