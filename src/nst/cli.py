"""Command-line interface: ``nst <subcommand>``."""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .augment import AugmentError, AugmentPolicy, apply_policy, identity_policy
from .corpus import (
    Dataset,
    atomic_write_json,
    atomic_write_text,
    load_manifest,
    load_vocab,
    read_json,
    save_manifest,
    save_vocab,
)
from .errors import NstError
from .filtering import (
    FilteringError,
    FilterModel,
    ScoredTranscript,
    apply_filter,
    curves_to_tsv,
    default_thresholds,
    score_curves,
)
from .mixing import MixPlan
from .pipeline import (
    BalanceSettings,
    PipelineConfig,
    balance_sample,
    draw_mix,
    emit_reports,
    fit_scored,
    load_state,
    parse_cutoff,
    run_pipeline,
)
from .recognizer import MarkovSentenceSource, ToyRecognizer, ToyWorld, synth_generate
from .scoring import (
    FusionParams,
    fuse_components,
    hypothesis_records,
    read_hypotheses,
    write_hypotheses,
)
from .seeding import derive_rng


def cmd_synth(args) -> int:
    world = ToyWorld(
        vocab_size=args.vocab_size,
        noise=args.noise,
        frames_per_token=args.frames_per_token,
    )
    source = MarkovSentenceSource.structured(
        args.vocab_size, seed=args.seed, length_range=(args.min_length, args.max_length)
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rng = derive_rng(args.seed, "synth")
    sup = synth_generate(world, args.supervised, source, rng, id_prefix="sup")
    dev = synth_generate(world, args.dev, source, rng, id_prefix="dev")
    unlab = synth_generate(world, args.unlabeled, source, rng, id_prefix="unlab")
    save_manifest(sup, out / "supervised.jsonl")
    save_manifest(dev, out / "dev.jsonl")
    save_manifest(unlab.strip_labels(), out / "unlabeled.jsonl")
    # Last, so that a rerun refused by save_manifest leaves the vocab as it was.
    save_vocab(world.vocab(), out / "vocab.txt")
    print(f"wrote {len(sup)}/{len(dev)}/{len(unlab)} sup/dev/unlabeled utterances to {out}")
    return 0


def cmd_toy_train(args) -> int:
    dataset = load_manifest(args.manifest)
    recognizer = ToyRecognizer(load_vocab(args.vocab), args.frames_per_token)
    policy = (read_json(args.policy, AugmentPolicy.from_dict, AugmentError) if args.policy
              else identity_policy())
    recognizer.train(dataset, policy, args.seed)
    recognizer.save(args.out)
    print(f"wrote model to {args.out}")
    return 0


def cmd_toy_transcribe(args) -> int:
    recognizer = ToyRecognizer.from_file(args.model, args.lm_weight)
    dataset = load_manifest(args.manifest)
    hyp_lists = recognizer.transcribe(list(dataset), args.beam)
    records = hypothesis_records(dataset, hyp_lists, recognizer.vocab)
    write_hypotheses(records, args.out)
    print(f"wrote {len(records)} hypotheses to {args.out}")
    return 0


def _terms(flag: str, text: str, separator: str, kind: type, what: str) -> list:
    """``text`` split at ``separator``, each term as ``kind``.

    A term that is not one raises NstError naming ``flag``, the term and ``text``.
    """
    terms = []
    for term in text.split(separator):
        try:
            terms.append(kind(term))
        except ValueError:
            raise NstError(f"{flag} term {term!r} is not {what}, in {text!r}") from None
    return terms


def _parse_params(args) -> FusionParams:
    parts = _terms("--params", args.params, ",", float, "a number")
    if len(parts) != 3:
        raise NstError("--params expects three comma-separated values: lm,coverage,reward")
    return FusionParams(*parts, mode=args.mode)


def cmd_score(args) -> int:
    params = _parse_params(args)
    records = read_hypotheses(args.hyps)
    fused = [
        replace(r, fused=fuse_components(r.am, r.lm, r.coverage, len(r.tokens), params))
        for r in records
    ]
    write_hypotheses(fused, args.out)
    print(f"wrote {len(fused)} fused hypotheses to {args.out}")
    return 0


def _best_scored(path: str) -> dict[str, ScoredTranscript]:
    """Each utterance's highest-fused hypothesis in a fused hypotheses JSONL."""
    best: dict[str, ScoredTranscript] = {}
    for r in read_hypotheses(path):
        if r.fused is None:
            raise NstError(f"hypothesis for {r.utterance_id!r} lacks a fused score")
        current = best.get(r.utterance_id)
        if current is None or r.fused > current.fused:
            best[r.utterance_id] = ScoredTranscript(r.tokens, r.fused)
    return best


def cmd_fit_filter(args) -> int:
    model = fit_scored(_best_scored(args.hyps))
    atomic_write_json(args.out, model.to_dict())
    print(f"fit mu={model.mu:.6g} beta={model.beta:.6g} sigma={model.sigma:.6g}")
    return 0


def cmd_filter(args) -> int:
    dataset = load_manifest(args.manifest)
    model = read_json(args.filter_model, FilterModel.from_dict, FilteringError)
    filtered = apply_filter(dataset, model, parse_cutoff(args.cutoff))
    save_manifest(filtered, args.out)
    print(f"kept {len(filtered)} of {len(dataset)} utterances")
    return 0


def cmd_curves(args) -> int:
    dev = load_manifest(args.refs)
    model = read_json(args.filter_model, FilterModel.from_dict, FilteringError)
    scored = _best_scored(args.hyps)
    points = score_curves(dev, scored, model, default_thresholds(args.low, args.high, args.step))
    atomic_write_text(args.out, curves_to_tsv(points))
    print(f"wrote {len(points)} curve rows to {args.out}")
    return 0


def cmd_balance(args) -> int:
    dataset = load_manifest(args.manifest)
    target_set = load_manifest(args.target)
    vocab = load_vocab(args.vocab)
    settings = BalanceSettings(
        multiplicity_cap=args.cap,
        batch_fraction=args.batch_frac,
        min_tokens=args.min_tokens,
        smoothing_epsilon=args.epsilon,
    )
    balanced, result = balance_sample(dataset, target_set, vocab, settings)
    save_manifest(balanced, args.out)
    status = "infeasible floor, pool exhausted" if result.infeasible else "ok"
    print(
        f"sampled {len(balanced)} sentences, {result.total_tokens()} tokens ({status})"
    )
    return 0


def cmd_augment(args) -> int:
    dataset = load_manifest(args.manifest)
    policy = read_json(args.policy, AugmentPolicy.from_dict, AugmentError)
    augmented = Dataset(
        replace(
            u, features=apply_policy(u.features, policy, derive_rng(args.seed, "augment", u.id))
        )
        for u in dataset
    )
    save_manifest(augmented, args.out)
    print(f"augmented {len(augmented)} utterances into {args.out}")
    return 0


def cmd_mix(args) -> int:
    ratio = tuple(_terms("--ratio", args.ratio, ":", int, "an integer"))
    plan = MixPlan(mode=args.mode, ratio=ratio, batch_size=args.batch)
    sup = load_manifest(args.sup)
    semi = load_manifest(args.semi) if args.semi else Dataset([])
    items = draw_mix(sup, semi, plan, derive_rng(args.seed, "mix"), args.num_batches)
    lines = ["batch\tutterance_id\torigin"]
    lines.extend(
        f"{index}\t{utt.id}\t{origin}" for index, item in enumerate(items) for utt, origin in item
    )
    atomic_write_text(args.out, "\n".join(lines) + "\n")
    print(f"wrote mix stream to {args.out}")
    return 0


def cmd_run(args) -> int:
    config = PipelineConfig.from_file(args.config)
    state = run_pipeline(args.workdir, config, args.seed)
    for m in state.metrics:
        print(
            f"generation {m.generation}: dev WER {m.dev_wer:.4f}, "
            f"semi set {m.semi_utterances} utterances ({m.semi_examples} examples)"
        )
    return 0


def cmd_report(args) -> int:
    state = load_state(args.workdir)
    paths = emit_reports(state)
    for name, path in sorted(paths.items()):
        print(f"{name}: {path}")
    return 0


def _min_tokens(text: str) -> int | None:
    """``--min-tokens``: an integer, or ``auto`` (None) for the target's token total."""
    if text == "auto":
        return None
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer or 'auto', got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nst")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic toy task")
    p.add_argument("--out", required=True)
    p.add_argument("--vocab-size", type=int, default=20)
    p.add_argument("--noise", type=float, default=0.3)
    p.add_argument("--frames-per-token", type=int, default=3)
    p.add_argument("--supervised", type=int, default=200)
    p.add_argument("--dev", type=int, default=200)
    p.add_argument("--unlabeled", type=int, default=2000)
    p.add_argument("--min-length", type=int, default=4)
    p.add_argument("--max-length", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("toy-train", help="train the toy recognizer on a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--frames-per-token", type=int, default=3)
    p.add_argument("--policy")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_toy_train)

    p = sub.add_parser("toy-transcribe", help="decode a manifest with a toy model")
    p.add_argument("--model", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--beam", type=int, default=4)
    p.add_argument("--lm-weight", type=float, default=0.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_toy_transcribe)

    p = sub.add_parser("score", help="add fused scores to a hypotheses JSONL")
    p.add_argument("--params", required=True, help="lm_weight,coverage_weight,nonblank_reward")
    p.add_argument("--mode", choices=["attention", "transducer"], default="attention")
    p.add_argument("--hyps", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("fit-filter", help="fit the filter model on fused dev hypotheses")
    p.add_argument("--hyps", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit_filter)

    p = sub.add_parser("filter", help="filter a scored manifest at a cutoff")
    p.add_argument("--manifest", required=True)
    p.add_argument("--filter-model", required=True)
    p.add_argument("--cutoff", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("curves", help="emit score survival and WER curves as TSV")
    p.add_argument("--refs", required=True, help="labeled dev manifest")
    p.add_argument("--hyps", required=True, help="fused hypotheses JSONL")
    p.add_argument("--filter-model", required=True)
    p.add_argument("--low", type=float, default=-3.0)
    p.add_argument("--high", type=float, default=3.0)
    p.add_argument("--step", type=float, default=0.1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_curves)

    p = sub.add_parser("balance", help="balance a manifest toward a target token distribution")
    p.add_argument("--manifest", required=True)
    p.add_argument("--target", required=True, help="manifest defining the target distribution")
    p.add_argument("--vocab", required=True)
    p.add_argument("--cap", type=int, default=BalanceSettings().multiplicity_cap)
    p.add_argument("--batch-frac", type=float, default=BalanceSettings().batch_fraction)
    p.add_argument("--min-tokens", type=_min_tokens, default="auto",
                   help="token floor: an integer, or 'auto' for the target's token total")
    p.add_argument("--epsilon", type=float, default=BalanceSettings().smoothing_epsilon)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_balance)

    p = sub.add_parser("augment", help="apply an augmentation policy to a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--policy", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("mix", help="emit a mixed training stream as TSV")
    p.add_argument("--sup", required=True)
    p.add_argument("--semi")
    p.add_argument("--mode", choices=["batchwise", "uniform"], default=MixPlan().mode)
    p.add_argument("--ratio", default=":".join(map(str, MixPlan().ratio)))
    p.add_argument("--batch", type=int, default=MixPlan().batch_size)
    p.add_argument("--num-batches", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_mix)

    p = sub.add_parser("run", help="run the generation loop from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("report", help="write analysis tables from a finished workdir")
    p.add_argument("--workdir", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NstError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
