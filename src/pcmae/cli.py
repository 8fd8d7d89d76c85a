"""Command-line entry point.

Commands: pretrain, finetune, eval, fewshot, extract, describe, reconstruct,
selfcheck. Every report is comma-separated text with a one-line header.
Exit codes: 0 success, 1 usage/config error, 2 data error, 3 numerical
failure.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import (FinetuneProtocol, SchemaError, load_config_file,
                     model_config_to_dict, split_config_dict)
from .optim import DivergenceError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def count(text: str) -> int:
    """An argparse type: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_config_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file (flat key-value schema)")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override one config key (repeatable)")


def _overrides(args) -> dict:
    """Flat config keys from --config, then --set, then the command's flags."""
    raw = load_config_file(args.config) if args.config else {}
    for item in args.set:
        if "=" not in item:
            raise SchemaError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        raw[key.strip()] = _parse_literal(value.strip())
    for key in ("epochs", "batch_size", "seed"):
        if getattr(args, key, None) is not None:
            raw[key] = getattr(args, key)
    return raw


def _load_checkpoint_configs(args):
    """The rule of every command that reads ``--checkpoint``: load it once,
    start from its model config and apply the overrides on top. A model key
    that then differs from the checkpoint's is a data error ('config
    mismatch'); training keys start from the defaults. Returns (store, model
    config, training config, config block)."""
    from .dataio import CheckpointError, load_model_checkpoint

    store, ckpt_cfg, block = load_model_checkpoint(args.checkpoint)
    model_cfg, train_cfg = split_config_dict({**model_config_to_dict(ckpt_cfg),
                                              **_overrides(args)})
    if model_cfg != ckpt_cfg:
        raise CheckpointError(f"{args.checkpoint}: config mismatch")
    return store, model_cfg, train_cfg, block


def _parse_literal(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _out_dir(args) -> Path:
    out = Path(getattr(args, "out", None) or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def build_parser() -> _Parser:
    parser = _Parser(prog="pcmae", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("pretrain", help="masked-reconstruction pretraining")
    _add_config_args(p)
    p.add_argument("--dataset", required=True, help="dataset root (manifest layout)")
    p.add_argument("--split", default="train")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", default="out_pretrain")

    p = sub.add_parser("finetune", help="train a classifier on a pretrained backbone")
    _add_config_args(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--checkpoint", required=True, help="pretraining checkpoint")
    p.add_argument("--scope", choices=("global", "local"), default="local")
    p.add_argument("--head", choices=("linear", "nonlinear"), default="linear")
    p.add_argument("--split", default="train")
    p.add_argument("--eval-split", dest="eval_split", default=None)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", default="out_finetune")

    p = sub.add_parser("eval", help="evaluate a classifier checkpoint")
    _add_config_args(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--checkpoint", required=True, help="classifier checkpoint")
    p.add_argument("--split", default="test")
    p.add_argument("--out", default=None)

    p = sub.add_parser("fewshot", help="n-way m-shot episodes over a frozen backbone")
    _add_config_args(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--checkpoint", required=True, help="pretraining checkpoint")
    p.add_argument("--n", type=count, required=True, help="classes per episode")
    p.add_argument("--m", type=count, required=True, help="shots per class")
    p.add_argument("--episodes", type=count, default=10)
    p.add_argument("--test-per-class", dest="test_per_class", type=count, default=20)
    p.add_argument("--scope", choices=("global", "local"), default="local")
    p.add_argument("--head", choices=("linear", "nonlinear"), default="linear")
    p.add_argument("--split", default="train")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", default="out_fewshot")

    p = sub.add_parser("extract", help="pooled global feature per cloud (2d columns)")
    _add_config_args(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", help="dataset root")
    p.add_argument("--split", default="test")
    p.add_argument("--input", action="append", default=[], help="single .xyz file (repeatable)")
    p.add_argument("--out", default="features.csv")

    p = sub.add_parser("describe", help="SPFH descriptor rows per patch center")
    _add_config_args(p)
    p.add_argument("--input", required=True, help=".xyz cloud file")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", default=None, help="output CSV (default stdout)")

    p = sub.add_parser("reconstruct", help="dump input/visible/predicted point files")
    _add_config_args(p)
    p.add_argument("--input", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", default="out_reconstruct")

    sub.add_parser("selfcheck", help="run the oracle/gradient invariant suite")

    return parser


# --- command implementations -------------------------------------------------

def _cmd_pretrain(args) -> int:
    from .dataio import load_dataset
    from .training import pretrain_loop

    model_cfg, train_cfg = split_config_dict(_overrides(args))
    items, _ = load_dataset(args.dataset, args.split, n=model_cfg.n, seed=train_cfg.seed)
    clouds = [c for c, _ in items]
    out = _out_dir(args)
    pretrain_loop(clouds, train_cfg, model_cfg, out_dir=out, log=print)
    print(f"artifacts in {out}")
    return EXIT_OK


def _cmd_finetune(args) -> int:
    from .dataio import load_dataset, save_checkpoint, write_csv
    from .training import evaluate_classifier, finetune

    backbone, model_cfg, train_cfg, _ = _load_checkpoint_configs(args)
    items, class_names = load_dataset(args.dataset, args.split, n=model_cfg.n,
                                      seed=train_cfg.seed)
    protocol = FinetuneProtocol(scope=args.scope, head=args.head,
                                num_classes=len(class_names))
    tuned, history = finetune(backbone, items, protocol, train_cfg, model_cfg, log=print)
    out = _out_dir(args)
    save_checkpoint(out / "classifier.ckpt", tuned, model_cfg, train_cfg,
                    extra={"protocol": {"scope": protocol.scope, "head": protocol.head,
                                        "num_classes": protocol.num_classes},
                           "classes": class_names})
    rows = [("train", f"{evaluate_classifier(tuned, model_cfg, protocol, items):.6f}")]
    if args.eval_split:
        eval_items, _ = load_dataset(args.dataset, args.eval_split, n=model_cfg.n,
                                     seed=train_cfg.seed)
        rows.append((args.eval_split, f"{evaluate_classifier(tuned, model_cfg, protocol, eval_items):.6f}"))
    write_csv(out / "accuracy.csv", ("split", "accuracy"), rows)
    for split, acc in rows:
        print(f"{split} accuracy: {acc}")
    return EXIT_OK


def _classifier_protocol(path, store, model_cfg, block) -> tuple[FinetuneProtocol, int]:
    """The protocol and data seed a classifier checkpoint records. A missing
    or invalid key, and head tensors other than ``classifier_layout``'s
    names and shapes, raise CheckpointError naming the key or the tensor."""
    from .dataio import CheckpointError, check_layout
    from .pipeline import BACKBONE_PREFIXES
    from .training import classifier_layout

    extra = block.get("extra") or {}
    if "protocol" not in extra:
        raise SchemaError("checkpoint does not contain a classifier head")
    proto, train = extra["protocol"], block.get("train") or {}
    try:
        protocol = FinetuneProtocol(*(proto[key] for key in ("scope", "head", "num_classes")))
        if type(train.get("seed", 0)) is not int:
            raise SchemaError("train.seed must be an integer")
    except KeyError as exc:
        raise CheckpointError(f"{path}: protocol key {exc} is missing") from None
    except (SchemaError, TypeError, AttributeError) as exc:     # not objects, bad values
        raise CheckpointError(f"{path}: bad protocol: {exc}") from None
    check_layout(path, {name: t.shape for name, t in store.items()},
                 classifier_layout(model_cfg, protocol),
                 lambda name: not name.startswith(BACKBONE_PREFIXES))
    return protocol, train.get("seed", 0)


def _cmd_eval(args) -> int:
    from .dataio import load_dataset, write_csv
    from .training import evaluate_classifier

    backbone, model_cfg, _, block = _load_checkpoint_configs(args)
    protocol, seed = _classifier_protocol(args.checkpoint, backbone, model_cfg, block)
    items, _ = load_dataset(args.dataset, args.split, n=model_cfg.n, seed=seed)
    acc = evaluate_classifier(backbone, model_cfg, protocol, items)
    print(f"{args.split} accuracy: {acc:.6f}")
    if args.out:
        write_csv(Path(args.out), ("split", "accuracy"), [(args.split, f"{acc:.6f}")])
    return EXIT_OK


def _cmd_fewshot(args) -> int:
    from .dataio import load_dataset, write_csv
    from .training import run_few_shot

    backbone, model_cfg, train_cfg, _ = _load_checkpoint_configs(args)
    items, _ = load_dataset(args.dataset, args.split, n=model_cfg.n, seed=train_cfg.seed)
    accs, mean, std = run_few_shot(backbone, items, args.n, args.m, train_cfg,
                                   model_cfg, protocol_head=args.head,
                                   protocol_scope=args.scope,
                                   episodes=args.episodes,
                                   test_per_class=args.test_per_class, log=print)
    out = _out_dir(args)
    rows = [(str(i), f"{a:.6f}") for i, a in enumerate(accs)]
    rows.append(("mean", f"{mean:.6f}"))
    rows.append(("std", f"{std:.6f}"))
    write_csv(out / "fewshot.csv", ("episode", "accuracy"), rows)
    print(f"{args.n}-way {args.m}-shot over {args.episodes} episodes: "
          f"{100*mean:.2f} +- {100*std:.2f} %")
    return EXIT_OK


def _cmd_extract(args) -> int:
    from .dataio import load_dataset, load_xyz
    from .geometry import normalize_cloud
    from .training import extract_features

    backbone, model_cfg, _, _ = _load_checkpoint_configs(args)
    named_clouds = []
    if args.dataset:
        items, _ = load_dataset(args.dataset, args.split, n=model_cfg.n, seed=0)
        manifest_names = [f"{args.split}[{i}]" for i in range(len(items))]
        named_clouds = list(zip(manifest_names, (c for c, _ in items)))
    for path in args.input:
        named_clouds.append((path, normalize_cloud(load_xyz(path, n=model_cfg.n, seed=0))))
    if not named_clouds:
        raise UsageError("extract needs --dataset or --input")
    width = model_cfg.feature_dim
    feats = extract_features([cloud for _, cloud in named_clouds], model_cfg, backbone)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("cloud," + ",".join(f"f{i:03d}" for i in range(width)) + "\n")
        for (name, _), feat in zip(named_clouds, feats):
            fh.write(name + "," + ",".join(f"{v:.9g}" for v in feat) + "\n")
    print(f"wrote {len(named_clouds)} feature rows to {args.out}")
    return EXIT_OK


def _cmd_describe(args) -> int:
    from .dataio import load_xyz
    from .geometry import normalize_cloud
    from .pipeline import patch_descriptors

    model_cfg, train_cfg = split_config_dict(_overrides(args))
    cloud = normalize_cloud(load_xyz(args.input, n=model_cfg.n, seed=train_cfg.seed))
    patches, hists = patch_descriptors(cloud, model_cfg, seed=train_cfg.seed)
    names = [f"{angle}_{b}" for angle in ("alpha", "phi", "theta")
             for b in range(model_cfg.bins)]
    lines = ["center," + ",".join(names)]
    for row, center in zip(hists, patches.center_indices):
        lines.append(str(int(center)) + "," + ",".join(f"{v:.9g}" for v in row))
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {hists.shape[0]} descriptor rows to {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_reconstruct(args) -> int:
    from .dataio import load_xyz, save_xyz
    from .geometry import PointCloud, normalize_cloud
    from .pipeline import reconstruction_dump

    backbone, model_cfg, train_cfg, _ = _load_checkpoint_configs(args)
    cloud = normalize_cloud(load_xyz(args.input, n=model_cfg.n, seed=train_cfg.seed))
    inp, visible, predicted = reconstruction_dump(cloud, model_cfg, backbone,
                                                  seed=train_cfg.seed)
    out = _out_dir(args)
    stem = Path(args.input).stem
    for tag, pts in (("input", inp), ("visible", visible), ("predicted", predicted)):
        save_xyz(out / f"{stem}_{tag}.xyz", PointCloud(pts))
    print(f"wrote {stem}_input/visible/predicted.xyz to {out}")
    return EXIT_OK


def _cmd_selfcheck(args) -> int:
    from .selfcheck import run_selfcheck

    return EXIT_OK if run_selfcheck(report=print) else EXIT_NUMERIC


_COMMANDS = {
    "pretrain": _cmd_pretrain,
    "finetune": _cmd_finetune,
    "eval": _cmd_eval,
    "fewshot": _cmd_fewshot,
    "extract": _cmd_extract,
    "describe": _cmd_describe,
    "reconstruct": _cmd_reconstruct,
    "selfcheck": _cmd_selfcheck,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except SchemaError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DivergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except FloatingPointError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, ValueError) as exc:
        # DataError / CheckpointError subclass ValueError
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
