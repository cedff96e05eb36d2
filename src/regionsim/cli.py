"""Operator surface: dataset generation, training, evaluation, label
inspection, and gradient checking.

Exit codes separate failure classes so scripts can branch on them:
0 success, 1 runtime error, 2 usage error (argparse), 3 config error,
4 missing or unreadable files. Every artifact-producing run writes a
``run.json`` provenance record (config echo, seeds, artifact hashes).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

from . import trainer
from .atomic import atomic_open
from .checkpoint import load_checkpoint, to_model
from .config import (
    RunConfig,
    config_digest,
    load_config_file,
    parse_config_text,
    run_config_from,
    world_canonical_lines,
    world_spec_from,
)
from .errors import ConfigError, DatasetError, RegionsimError
from .gradsuite import PASS_THRESHOLD, run_suite
from .supervision import read_label_file
from .synthcity import generate_dataset, load_dataset, region_overlap, spec_digest, write_dataset

# Ablation flags, the config key each forces, and the value it forces.
_ABLATIONS = (
    ("no-regions", "train.regions", False, "image-level labels only, no sub-regions"),
    ("no-quarters", "train.quarters", False, "drop quarter regions, keep halves"),
    ("no-neg-regions", "train.neg_regions", False, "score negatives as whole images"),
    ("no-soft", "train.soft", False, "mined hard positives only, no soft loss"),
    ("const-tau", "train.const_tau", True, "hold the temperature at its starting value"),
    ("naive-topk", "train.naive_topk", True, "one-hot labels on all top-k positives"),
)


def _load_values(args) -> dict:
    """Merge config file, --set overrides, then ablation flags, in that order."""
    values = {} if args.config == "default" else load_config_file(args.config)
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        values.update(parse_config_text(item))
    for flag, key, forced, _ in _ABLATIONS:
        if getattr(args, flag.replace("-", "_"), False):
            values[key] = forced
    if getattr(args, "seed", None) is not None:
        values["train.seed"] = args.seed
    if getattr(args, "workers", None) is not None:
        values["train.workers"] = args.workers
    return values


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_run_record(out_dir: str, command: str, config_lines: list[str], seeds: dict):
    """Provenance record: config echo, seeds, and artifact hashes."""
    artifacts = {}
    for root, _, names in os.walk(out_dir):
        for name in sorted(names):
            if name == "run.json":
                continue
            path = os.path.join(root, name)
            artifacts[os.path.relpath(path, out_dir)] = _sha256(path)
    record = {
        "command": command,
        "config": config_lines,
        "seeds": seeds,
        "artifacts": artifacts,
    }
    with atomic_open(os.path.join(out_dir, "run.json"), "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cmd_gen_data(args) -> int:
    values = _load_values(args)
    spec = world_spec_from(values)
    ds = generate_dataset(spec)
    write_dataset(ds, args.out)
    lines = world_canonical_lines(spec)
    _write_run_record(args.out, "gen-data", lines, {"world": spec.seed})
    print(f"wrote {len(ds.images)} images to {args.out} (world {spec_digest(spec)})")
    return 0


def _cmd_train(args) -> int:
    values = _load_values(args)
    cfg = run_config_from(values)
    if args.data:
        ds = load_dataset(args.data)
    else:
        ds = generate_dataset(world_spec_from(values))
    result = trainer.run_pipeline(ds, cfg, out_dir=args.out, log=print)
    lines = world_canonical_lines(ds.spec) + cfg.canonical_lines()
    seeds = {"world": ds.spec.seed, "train": cfg.seed}
    _write_run_record(args.out, "train", lines, seeds)
    print(f"run {config_digest(cfg, spec_digest(ds.spec))} complete: {args.out}")
    return 0


def _cmd_eval(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    model, _ = to_model(ckpt)
    ds = load_dataset(args.data)
    cfg = RunConfig(eval_out_dim=args.out_dim)
    recalls = trainer.evaluate_model(model, ds, cfg, args.workers or 1)
    for k in (1, 5, 10):
        print(f"recall@{k} {recalls[k]:.3f}")
    return 0


def _cmd_labels(args) -> int:
    records = read_label_file(args.labels)
    images = {}
    if args.data:
        ds = load_dataset(args.data)
        images = {img.id: img for img in ds.images}
        for rec in records:
            for image_id in (rec.query_id, *rec.positive_ids):
                if image_id not in images:
                    raise DatasetError(f"labels name image id {image_id}, which {args.data} lacks")
    shown = 0
    for rec in records:
        if args.query is not None and rec.query_id != args.query:
            continue
        for (gid, rid), weight in zip(rec.entries, rec.weights):
            line = (
                f"query {rec.query_id} gen {rec.generation} tau {rec.tau:.9g} "
                f"gallery {gid} region {rid} weight {weight:.9g}"
            )
            if images:
                truth = region_overlap(
                    images[rec.query_id], images[gid], rid, ds.spec.window_m
                )
                line += f" overlap {truth:.6f}"
            print(line)
        shown += 1
    print(f"# {shown} records from {args.labels}", file=sys.stderr)
    return 0


def _cmd_gradcheck(args) -> int:
    errors = run_suite(args.seed)
    for name, err in errors.items():
        print(f"{name} {err:.3e}")
    worst = max(errors.values())
    print(f"max {worst:.3e}")
    return 0 if worst <= PASS_THRESHOLD else 1


def _add_config_flags(sub, ablations: bool):
    sub.add_argument("--config", default="default", help="config file, or 'default'")
    sub.add_argument(
        "--set", action="append", metavar="KEY=VALUE", help="override one config key"
    )
    if ablations:
        sub.add_argument("--seed", type=int, help="override train.seed")
        sub.add_argument("--workers", type=int, help="override train.workers")
        for flag, _, _, text in _ABLATIONS:
            sub.add_argument(f"--{flag}", action="store_true", help=text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regionsim",
        description="image-to-region similarity training on a synthetic street world",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen-data", help="render a dataset directory from a world config")
    _add_config_flags(gen, ablations=False)
    gen.add_argument("--out", required=True, help="dataset output directory")
    gen.set_defaults(func=_cmd_gen_data)

    train = subs.add_parser("train", help="run the full generation pipeline")
    _add_config_flags(train, ablations=True)
    train.add_argument("--out", required=True, help="artifact output directory")
    train.add_argument("--data", help="dataset directory (default: generate in memory)")
    train.set_defaults(func=_cmd_train)

    ev = subs.add_parser("eval", help="recall@{1,5,10} for one checkpoint")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--data", required=True, help="dataset directory")
    ev.add_argument("--out-dim", type=int, default=64, help="whitened descriptor size")
    ev.add_argument("--workers", type=int, help="encoding worker count")
    ev.set_defaults(func=_cmd_eval)

    labels = subs.add_parser("labels", help="dump a soft-label file as text")
    labels.add_argument("--labels", required=True, help="labels_gen<w>.txt path")
    labels.add_argument("--data", help="dataset directory for the overlap join")
    labels.add_argument("--query", type=int, help="show one query id only")
    labels.set_defaults(func=_cmd_labels)

    grad = subs.add_parser("gradcheck", help="finite-difference check of every op")
    grad.add_argument("--seed", type=int, default=0)
    grad.set_defaults(func=_cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except (DatasetError, OSError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 4
    except RegionsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
