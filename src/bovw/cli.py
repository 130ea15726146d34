"""Command-line front end for the pipeline and the experiment harness."""

from __future__ import annotations

import argparse
import inspect
import logging
import sys

import numpy as np

from . import classifier, codebook, encoding, harness, synth
from .corpus import load_manifest
from .features import GridParams


def _add_grid_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--stride", type=int, default=GridParams.stride, help="grid stride in pixels")
    p.add_argument("--patch", type=int, default=GridParams.patch_size, help="patch size in pixels")


def _add_encoding_flags(p: argparse.ArgumentParser) -> None:
    defaults = encoding.EncodingParams()
    p.add_argument("--sigma", type=float, default=defaults.sigma,
                   help="soft-assignment kernel width")
    p.add_argument("--assignment", choices=encoding.ASSIGNMENTS, default=defaults.assignment)
    p.add_argument("--pooling", choices=encoding.POOLINGS, default=defaults.pooling)


def _seed(text: str, low: int = 0) -> int:
    try:
        if (value := int(text)) >= low:
            return value
    except ValueError:
        pass
    kind = "positive" if low == 1 else "non-negative"
    raise argparse.ArgumentTypeError(f"expected a {kind} integer, got {text!r}")


def _positive(text: str) -> int:
    return _seed(text, low=1)


def _add_training_flags(p: argparse.ArgumentParser) -> None:
    defaults = classifier.TrainConfig()
    p.add_argument("--c-reg", type=float, default=defaults.c_reg, help="SVM regularization C")
    p.add_argument("--epochs", type=int, default=defaults.epochs, help="SVM training epochs")


def _add_experiment_flags(p: argparse.ArgumentParser) -> None:
    _add_grid_flags(p)
    _add_encoding_flags(p)
    p.add_argument("--k", type=_positive, default=harness.PipelineParams.k, help="dictionary size")
    p.add_argument("--runs", type=_positive, default=5, help="repetitions per configuration")
    p.add_argument("--seed", type=_seed, default=0, help="base seed; run i uses seed+i")
    p.add_argument("--alpha", type=float, default=harness.PipelineParams.alpha,
                   help="confidence level")
    _add_training_flags(p)
    p.add_argument("--cache-dir", default=None, help="descriptor cache directory")
    p.add_argument("--out", required=True, help="results CSV path (appended)")


def _grid(args) -> GridParams:
    return GridParams(stride=args.stride, patch_size=args.patch)


def _encoding_params(args) -> encoding.EncodingParams:
    return encoding.EncodingParams(args.sigma, args.assignment, args.pooling)


def _pipeline(args) -> harness.PipelineParams:
    return harness.PipelineParams(
        grid=_grid(args),
        encoding=_encoding_params(args),
        k=args.k,
        c_reg=args.c_reg,
        epochs=args.epochs,
        alpha=args.alpha,
    )


def _int_list(text: str) -> list[int]:
    try:
        if values := [int(v) for v in text.split(",") if v]:
            return values
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a comma-separated integer list, got {text!r}")


def _positive_list(text: str) -> list[int]:
    if min(values := _int_list(text)) >= 1:
        return values
    raise argparse.ArgumentTypeError(f"expected positive integers, got {text!r}")


def cmd_extract(args) -> int:
    manifest = load_manifest(args.manifest)
    store = harness.DescriptorStore(_grid(args), cache_dir=args.cache_dir)
    total = sum(map(len, store.pool(manifest)))
    print(f"extracted {len(manifest)} images, {total} descriptors -> {args.cache_dir}")
    return 0


def cmd_codebook(args) -> int:
    codebook.check_seed(args.seed)  # saved in the file: a seed it cannot hold fails first
    manifest = load_manifest(args.manifest)
    if args.classes is not None:
        manifest = harness.select_classes(
            manifest, args.classes, args.seed + harness.CLASS_SEED_OFFSET
        )
    harness.check_output_dir(args.out)  # a bad --out, --k or image fails before any extraction
    store = harness.DescriptorStore(_grid(args), cache_dir=args.cache_dir)
    (pool,) = store.pools([manifest], [args.k])
    if args.classes is not None:
        print(f"classes: {','.join(manifest.class_labels)}")
    cb = codebook.build_random_codebook(pool, args.k, args.seed, source_name=manifest.name,
                                        source_classes=manifest.class_labels)
    codebook.save_codebook(cb, args.out)
    print(f"codebook {cb.codebook_id} -> {args.out}")
    return 0


def cmd_encode(args) -> int:
    manifest = load_manifest(args.manifest)
    cb = codebook.load_codebook(args.codebook)
    # a bad flag or output path fails before any extraction, a bad image in store.pool
    params = _encoding_params(args)
    for out in filter(None, [args.out, args.csv]):
        harness.check_output_dir(out)
    store = harness.DescriptorStore(_grid(args), cache_dir=args.cache_dir)
    bows = harness.encode_rows(np.empty((len(manifest), cb.k)), store.pool(manifest), cb, params)
    encoding.save_bows(bows, cb.codebook_id, args.out)
    if args.csv:
        encoding.export_bows_csv(bows, [e.path for e in manifest.entries], args.csv)
    print(f"encoded {len(bows)} images with {cb.codebook_id} -> {args.out}")
    return 0


def _labelled_bows(args) -> tuple:
    """The ``--bows`` matrix and its labels, one per row, from ``--manifest``."""
    manifest = load_manifest(args.manifest)
    mat, _ = encoding.load_bows(args.bows)
    if len(mat) != len(manifest):
        raise ValueError(f"bow file has {len(mat)} rows but manifest has {len(manifest)} entries")
    return mat, [e.label for e in manifest.entries]


def cmd_train(args) -> int:
    harness.check_output_dir(args.out)  # a bad --out fails before any training
    mat, labels = _labelled_bows(args)
    cfg = classifier.TrainConfig(c_reg=args.c_reg, epochs=args.epochs, seed=args.seed)
    model = classifier.train_ovr(mat, labels, cfg)
    classifier.save_model(model, args.out)
    print(f"trained {len(model.labels)}-class model -> {args.out}")
    return 0


def cmd_eval(args) -> int:
    mat, labels = _labelled_bows(args)
    model = classifier.load_model(args.model)
    acc = classifier.accuracy(model, mat, labels)
    print(f"accuracy\t{acc!r}")
    return 0


def _experiment(args, n_train_per_class: int, experiment, **options) -> int:
    """Run ``experiment`` (``harness.cross_base_experiment`` or
    ``harness.diversity_sweep``) with ``options``, append its rows to
    ``--out`` and print them."""
    params = _pipeline(args)
    spec = harness.SplitSpec(n_train_per_class=n_train_per_class,
                             run_seeds=tuple(args.seed + i for i in range(args.runs)))
    harness.check_summary_csv(args.out)  # a bad --out fails before any extraction
    store = harness.DescriptorStore(params.grid, cache_dir=args.cache_dir)
    rows = experiment(load_manifest(args.source), target=load_manifest(args.target), spec=spec,
                      params=params, store=store, **options)
    harness.write_summary_csv(rows, args.out)
    for r in rows:
        print(
            f"{r.experiment} dict={r.dict_source} classes={r.dict_classes} target={r.target} "
            f"n_train={r.n_train} acc={r.mean_acc:.4f} ci=[{r.ci_low:.4f}, {r.ci_high:.4f}]"
        )
    return 0


def cmd_crossbase(args) -> int:
    return _experiment(args, min(args.ntrain), harness.cross_base_experiment,
                       n_train_values=args.ntrain, include_native=not args.no_native)


def cmd_sweep(args) -> int:
    return _experiment(args, args.ntrain, harness.diversity_sweep,
                       class_counts=args.class_counts, n_train=args.ntrain)


def cmd_synth(args) -> int:
    manifest = synth.generate_preset(
        args.out_dir, args.corpus, images_per_class=args.images_per_class,
        size=args.size, seed=args.seed,
    )
    print(f"wrote {len(manifest)} images, {len(manifest.class_labels)} classes "
          f"-> {args.out_dir}/{args.corpus}.manifest")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bovw",
        description="Bag-of-visual-words pipeline and dictionary-generalizability experiments",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log trial details")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="extract dense SIFT into a descriptor cache")
    p.add_argument("--manifest", required=True)
    p.add_argument("--cache-dir", required=True)
    _add_grid_flags(p)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("codebook", help="sample a random visual dictionary")
    p.add_argument("--manifest", required=True)
    p.add_argument("--k", type=_positive, default=harness.PipelineParams.k)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--classes", type=_positive, default=None,
                   help="restrict the pool to a seeded subset of this many classes")
    p.add_argument("--cache-dir", default=None)
    p.add_argument("--out", required=True)
    _add_grid_flags(p)
    p.set_defaults(func=cmd_codebook)

    p = sub.add_parser("encode", help="encode a manifest into bag-of-words vectors")
    p.add_argument("--manifest", required=True)
    p.add_argument("--codebook", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--csv", default=None, help="also export a readable CSV")
    p.add_argument("--cache-dir", default=None)
    _add_grid_flags(p)
    _add_encoding_flags(p)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("train", help="train a linear one-vs-rest SVM on encoded vectors")
    p.add_argument("--bows", required=True)
    p.add_argument("--manifest", required=True, help="labels, aligned with bow rows")
    p.add_argument("--out", required=True)
    _add_training_flags(p)
    p.add_argument("--seed", type=_seed, default=classifier.TrainConfig.seed)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="report accuracy of a model on encoded vectors")
    p.add_argument("--bows", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--model", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("crossbase", help="native vs cross-corpus dictionary comparison")
    p.add_argument("--source", required=True, help="dictionary-source manifest")
    p.add_argument("--target", required=True, help="evaluation-target manifest")
    p.add_argument("--ntrain", type=_positive_list, required=True,
                   help="comma-separated training sizes per class")
    p.add_argument("--no-native", action="store_true",
                   help="skip the native (target-built) configuration")
    _add_experiment_flags(p)
    p.set_defaults(func=cmd_crossbase)

    p = sub.add_parser("sweep", help="dictionary quality vs source class diversity")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--class-counts", type=_int_list, default=[1, 6, 12, 25, 50, 101],
                   help="comma-separated nested subset sizes")
    p.add_argument("--ntrain", type=_positive, default=30, help="training images per class")
    _add_experiment_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("synth", help="generate a synthetic texture corpus")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--corpus", choices=sorted(synth.CORPUS_PRESETS), default="textures8")
    defaults = inspect.signature(synth.generate_preset).parameters
    p.add_argument("--images-per-class", type=int, default=defaults["images_per_class"].default)
    p.add_argument("--size", type=int, default=defaults["size"].default)
    p.add_argument("--seed", type=_seed, default=defaults["seed"].default)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (ValueError, OSError) as err:
        # bad input or an unreadable file, reported like argparse's bad flags
        print(f"bovw {args.command}: error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
