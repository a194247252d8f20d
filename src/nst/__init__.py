"""Data-side machinery for noisy student training of sequence recognizers.

Modules:
    corpus      dataset model, token vocabulary, manifests, feature files
    scoring     N-best lists, fused score combination, grid search, WER
    filtering   length-normalized score fitting and cutoff filtering
    balancing   greedy token-distribution balancing
    augment     frequency/time masking and time warping
    mixing      batchwise and uniform training-stream composition
    recognizer  the Recognizer protocol plus a synthetic toy recognizer
    pipeline    the generation loop, persisted state, analysis reports
"""

from .corpus import (
    Dataset,
    TokenDistribution,
    TokenVocab,
    Transcript,
    Utterance,
    WeightedSample,
    load_manifest,
    load_vocab,
    read_features,
    save_manifest,
    save_vocab,
    token_distribution,
)
from .errors import NstError
from .scoring import (
    FusionParams,
    NBest,
    ScoredHypothesis,
    best_hypothesis,
    grid_search_fusion,
    wer,
)
from .filtering import FilterModel, apply_filter, filter_score, fit_filter
from .balancing import SamplerConfig, kl_divergence, submodular_sample
from .augment import AugmentPolicy, apply_policy
from .mixing import MixPlan, mix_batchwise, mix_uniform
from .recognizer import ToyRecognizer, ToyWorld, synth_generate, toy_train, toy_transcribe
from .pipeline import (
    GenerationConfig,
    PipelineConfig,
    PipelineState,
    RunInputs,
    emit_reports,
    load_inputs,
    run_generation,
    run_pipeline,
)

__version__ = "0.1.0"

__all__ = [
    "AugmentPolicy",
    "Dataset",
    "FilterModel",
    "FusionParams",
    "GenerationConfig",
    "MixPlan",
    "NBest",
    "NstError",
    "PipelineConfig",
    "PipelineState",
    "RunInputs",
    "SamplerConfig",
    "ScoredHypothesis",
    "TokenDistribution",
    "TokenVocab",
    "ToyRecognizer",
    "ToyWorld",
    "Transcript",
    "Utterance",
    "WeightedSample",
    "apply_filter",
    "apply_policy",
    "best_hypothesis",
    "emit_reports",
    "filter_score",
    "fit_filter",
    "grid_search_fusion",
    "kl_divergence",
    "load_inputs",
    "load_manifest",
    "load_vocab",
    "mix_batchwise",
    "mix_uniform",
    "read_features",
    "run_generation",
    "run_pipeline",
    "save_manifest",
    "save_vocab",
    "submodular_sample",
    "synth_generate",
    "token_distribution",
    "toy_train",
    "toy_transcribe",
    "wer",
]
