"""Data-side machinery for noisy student training of sequence recognizers.

Modules:
    corpus      dataset model, tokenization, manifests, feature files
    scoring     fused score combination, grid search, WER
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
    detokenize,
    load_manifest,
    load_vocab,
    save_manifest,
    save_vocab,
    token_distribution,
    tokenize,
)
from .errors import NstError
from .scoring import FusionParams, ScoredHypothesis, grid_search_fusion, wer
from .filtering import FilterModel, apply_filter, filter_score, fit_filter
from .balancing import SamplerConfig, cost_benefit, kl_divergence, submodular_sample
from .augment import AugmentPolicy, apply_policy
from .mixing import MixPlan, mix_batchwise, mix_uniform
from .recognizer import ToyRecognizer, ToyWorld, synth_generate, toy_train, toy_transcribe
from .pipeline import (
    GenerationConfig,
    PipelineConfig,
    PipelineState,
    emit_reports,
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
    "NstError",
    "PipelineConfig",
    "PipelineState",
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
    "cost_benefit",
    "detokenize",
    "emit_reports",
    "filter_score",
    "fit_filter",
    "grid_search_fusion",
    "kl_divergence",
    "load_manifest",
    "load_vocab",
    "mix_batchwise",
    "mix_uniform",
    "run_generation",
    "run_pipeline",
    "save_manifest",
    "save_vocab",
    "submodular_sample",
    "synth_generate",
    "token_distribution",
    "tokenize",
    "toy_train",
    "toy_transcribe",
    "wer",
]
