"""Command-line entry point.

Four subcommands cover the pipeline: ``mine-vsim`` builds the visual
similarity table from a detection corpus, ``refine`` jointly selects labels
for detection records, ``eval`` scores refined output against graded label
pools, and ``tune`` runs the randomized hyperparameter search.

Configuration precedence: built-in defaults, then an optional ``key = value``
config file, then explicit flags. Every command is deterministic given
identical inputs and seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path

from . import evaluation, pipeline
from .errors import ConfigError, ContractViolation, LoadError, TagRefineError
from .knowledge import (
    KnowledgeStore,
    load_allowlist,
    load_assertions,
    load_coloc,
    load_embeddings,
    load_hypernyms,
)
from .labels import Space, canon_label
from .scoring import Hyperparameters
from .textio import data_lines, json_list, json_str, json_table, put_new
from .vsim import accumulate, finalize, read_detections_jsonl, read_vsim_tsv, write_vsim_tsv


EXIT_OK = 0
EXIT_ERROR = 2
EXIT_MISMATCH = 3

HP_KEYS = tuple(field.name for field in dataclasses.fields(Hyperparameters))


def _parse_scalar(text: str):
    lowered = text.strip().lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    if lowered == "none":
        return None
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text.strip()


def read_config_file(path) -> dict:
    """Parse a `key = value` config file; `#` also starts a trailing comment.
    A key given twice (`tau-s` and `tau_s` are one key) is a LoadError."""
    values = {}
    for lineno, line in data_lines(path):
        setting = line.split("#", 1)[0]
        if "=" not in setting:
            raise LoadError(path, f"expected `key = value`, got {line.strip()!r}", lineno)
        key, value = setting.split("=", 1)
        try:
            put_new(values, key.strip().replace("-", "_"), _parse_scalar(value), "key")
        except ValueError as exc:
            raise LoadError(path, str(exc), lineno) from exc
    return values


def _parse_budget(text: str):
    if text.strip().lower() == "none":
        return None
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"budget must be an integer or `none`, got {text!r}")


def add_shared_flags(sub: argparse.ArgumentParser) -> None:
    """`--config`, the nine hyperparameters and `--jobs` (only 1): refine and tune."""
    # hyperparameter flags set no attribute unless given, so a given flag,
    # `--budget none` included, always wins over the config file
    unset = argparse.SUPPRESS
    sub.add_argument("--config", help="key = value config file; flags win over it")
    sub.add_argument("--alpha", type=float, default=unset, help="visual evidence weight")
    sub.add_argument("--beta", type=float, default=unset, help="cross-box coherence weight")
    sub.add_argument("--gamma", type=float, default=unset, help="abstract coherence weight")
    sub.add_argument("--kappa", type=float, default=unset, help="generalization weight inside the visual term")
    sub.add_argument("--delta", type=float, default=unset, help="embedding-vs-colocation blend in [0, 1]")
    sub.add_argument("--budget", type=_parse_budget, default=unset,
                     help="joint label budget (integer, default 5) or `none` to "
                          "disable the constraint and trim output afterwards")
    sub.add_argument("--tau-s", type=float, default=unset, dest="tau_s",
                     help="visual-similarity threshold in (0, 1]")
    sub.add_argument("--visir-star", action="store_true", default=unset, dest="visir_star",
                     help="cap selected visual labels at 80%% of the input boxes")
    sub.add_argument("--abstract-cap", type=int, default=unset, dest="abstract_cap",
                     help="abstract candidate cap per image before solving")
    sub.add_argument("--jobs", type=int, default=1, choices=(1,),
                     help="only 1; refinement runs one image at a time")


def resolve_hp(args) -> Hyperparameters:
    """Defaults, overridden by the config file, overridden by explicit flags."""
    config = read_config_file(args.config) if args.config else {}
    for key in config:
        if key not in HP_KEYS:
            raise ConfigError(
                f"{args.config}: unknown config key {key!r}; expected one of {', '.join(HP_KEYS)}"
            )
    flags = vars(args)
    config.update({key: flags[key] for key in HP_KEYS if key in flags})
    return dataclasses.replace(Hyperparameters(), **config)


def add_knowledge_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--vsim", help="visual-similarity TSV (from mine-vsim)")
    sub.add_argument("--embeddings", help="word-vector text file")
    sub.add_argument("--hypernyms", help="child/parent/depth TSV")
    sub.add_argument("--assertions", help="subject/relation/object/score TSV")
    sub.add_argument("--coloc", help="co-location counts TSV")
    sub.add_argument("--allowlist", help="label popularity TSV for hypernym pruning")
    sub.add_argument("--allowlist-threshold", type=float, default=0.0,
                     dest="allowlist_threshold",
                     help="minimum popularity for retained hypernym parents")


def validate_paths(*paths) -> None:
    for path in paths:
        if path is not None and not Path(path).exists():
            raise LoadError(path, "no such file")


def load_store(args) -> KnowledgeStore:
    validate_paths(args.vsim, args.embeddings, args.hypernyms,
                   args.assertions, args.coloc, args.allowlist)
    allowlist = load_allowlist(args.allowlist) if args.allowlist else {}
    return KnowledgeStore.assemble(
        embeddings=load_embeddings(args.embeddings) if args.embeddings else None,
        parents=(
            load_hypernyms(args.hypernyms, allowlist, args.allowlist_threshold)
            if args.hypernyms else None
        ),
        by_subject=load_assertions(args.assertions) if args.assertions else None,
        coloc=load_coloc(args.coloc) if args.coloc else None,
        vsim=read_vsim_tsv(args.vsim) if args.vsim else None,
    )


# --- commands -------------------------------------------------------------------

def cmd_mine_vsim(args) -> int:
    validate_paths(args.corpus)
    records, skipped = read_detections_jsonl(args.corpus)
    acc = accumulate(records)
    del records  # folded in: free them before the table is built
    table = finalize(acc)
    write_vsim_tsv(table, args.out)
    print(f"mined {len(table)} label pairs over {len(table.labels())} labels "
          f"from {acc.records_seen} records")
    if skipped:
        print(f"warnings: {skipped} malformed lines skipped")
    return EXIT_OK


def cmd_refine(args) -> int:
    validate_paths(args.detections)
    hp = resolve_hp(args)
    store = load_store(args)
    records, skipped = read_detections_jsonl(args.detections)
    if skipped:
        print(f"warnings: {skipped} malformed detection lines skipped", file=sys.stderr)
    if args.select_incoherent:
        records = pipeline.select_incoherent(records, store, hp)
    if args.dump_lp:
        Path(args.dump_lp).mkdir(parents=True, exist_ok=True)
    outputs = pipeline.refine_records(records, store, hp, lp_dir=args.dump_lp)
    with open(args.out, "w", encoding="utf-8") as fh:
        for obj in outputs:
            fh.write(json.dumps(obj, ensure_ascii=False) + "\n")
    print(f"refined {len(outputs)} images -> {args.out}")
    return EXIT_OK


def _read_refined_jsonl(path) -> dict[str, list[tuple[str, Space]]]:
    return json_table(path, "refined", "image", lambda obj: (
        json_str(obj["image"]),
        [(canon_label(json_str(entry["label"])), Space(entry["space"]))
         for entry in json_list(obj["labels"], dict)]))


def cmd_eval(args) -> int:
    systems = []
    for spec_item in args.system:
        name, path = spec_item.split("=", 1) if "=" in spec_item else ("", spec_item)
        if not name:
            name = Path(path).stem
        systems.append((name, path))
    validate_paths(args.judgments, *[path for _, path in systems])
    judgments = evaluation.read_judgments_jsonl(args.judgments)
    pool_tags = sorted({tag for _, tag in judgments}, key=evaluation.POOL_TAGS.index)

    mismatches = []
    rows = []
    for name, path in systems:
        system_labels = _read_refined_jsonl(path)
        for tag in pool_tags:
            pools = {img: pool for (img, t), pool in judgments.items() if t == tag}
            judged = set(pools)
            produced = set(system_labels)
            if judged != produced:
                for image in sorted(judged ^ produced):
                    side = "not judged" if image in produced else "not refined"
                    mismatches.append(f"{name}/{tag}: image {image!r} {side}")
                continue
            for mode in evaluation.MODES:
                p, r, f, n = evaluation.evaluate_images(system_labels, pools, mode)
                rows.append(evaluation.MetricsRow(
                    system=name, pool=tag, mode=mode,
                    precision=p, recall=r, f1=f, images=n,
                ))
    if mismatches:
        for line in mismatches:
            print(f"image-id mismatch: {line}", file=sys.stderr)
        return EXIT_MISMATCH
    with open(args.out, "w", encoding="utf-8") as fh:
        evaluation.write_metrics_tsv(rows, fh)
    print(f"wrote {len(rows)} metric rows -> {args.out}")
    return EXIT_OK


def _parse_range(text: str) -> tuple[str, tuple[float, float]]:
    try:
        name, _, span = text.partition("=")
        lo_s, _, hi_s = span.partition(":")
        name = name.strip()
        lo, hi = float(lo_s), float(hi_s)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected NAME=LO:HI, got {text!r}"
        ) from None
    if name not in evaluation.TUNABLE_PARAMS:
        raise argparse.ArgumentTypeError(
            f"unknown parameter {name!r}; tunable: {', '.join(evaluation.TUNABLE_PARAMS)}"
        )
    return name, (lo, hi)


def _read_gold_jsonl(path) -> dict[str, set[str]]:
    return json_table(path, "gold", "image", lambda obj: (
        json_str(obj["image"]), {canon_label(x) for x in json_list(obj["labels"], str)}))


def cmd_tune(args) -> int:
    validate_paths(args.train, args.gold)
    base_hp = resolve_hp(args)
    store = load_store(args)
    records, skipped = read_detections_jsonl(args.train)
    if skipped:
        print(f"warnings: {skipped} malformed detection lines skipped", file=sys.stderr)
    gold = _read_gold_jsonl(args.gold)
    train_set = [(r, gold.get(r.image_id, set())) for r in records]
    space = dict(args.range or [])

    best_hp, results = evaluation.tune(
        train_set, space, args.trials, args.seed, store, base_hp
    )
    with open(args.out, "w", encoding="utf-8") as fh:
        header = "\t".join(("trial", *evaluation.TUNABLE_PARAMS, "f1"))
        fh.write(header + "\n")
        for res in results:
            values = "\t".join(f"{res.params[p]:.6f}" for p in evaluation.TUNABLE_PARAMS)
            fh.write(f"{res.trial}\t{values}\t{res.score:.6f}\n")
    print("# best hyperparameters (config-file snippet)")
    for key in evaluation.TUNABLE_PARAMS:
        print(f"{key} = {getattr(best_hp, key):.6f}")
    print(f"# trial log -> {args.out}")
    return EXIT_OK


# --- parser ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tagrefine",
        description="Refine noisy per-box detection labels into a coherent "
                    "set of concrete, generalized, and abstract image tags.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mine = sub.add_parser("mine-vsim", help="mine the visual-similarity table from a corpus")
    p_mine.add_argument("--corpus", required=True, help="detections JSONL")
    p_mine.add_argument("--out", required=True, help="output TSV path")
    p_mine.set_defaults(func=cmd_mine_vsim)

    p_refine = sub.add_parser("refine", help="jointly select labels for detection records")
    p_refine.add_argument("--detections", required=True, help="detections JSONL")
    p_refine.add_argument("--out", required=True, help="output JSONL path")
    p_refine.add_argument("--select-incoherent", action="store_true",
                          help="keep only 3-7 box images with incoherent detections")
    p_refine.add_argument("--dump-lp", help="directory for per-image LP-format dumps")
    add_knowledge_flags(p_refine)
    add_shared_flags(p_refine)
    p_refine.set_defaults(func=cmd_refine)

    p_eval = sub.add_parser("eval", help="score refined output against judged pools")
    p_eval.add_argument("--system", action="append", required=True,
                        metavar="[NAME=]PATH", help="refined JSONL; repeatable")
    p_eval.add_argument("--judgments", required=True, help="graded pools JSONL")
    p_eval.add_argument("--out", required=True, help="metrics TSV path")
    p_eval.set_defaults(func=cmd_eval)

    p_tune = sub.add_parser("tune", help="randomized hyperparameter search")
    p_tune.add_argument("--train", required=True, help="training detections JSONL")
    p_tune.add_argument("--gold", required=True, help="gold labels JSONL")
    p_tune.add_argument("--trials", type=int, required=True)
    p_tune.add_argument("--range", action="append", type=_parse_range,
                        metavar="NAME=LO:HI", help="sampling range; repeatable")
    p_tune.add_argument("--out", required=True, help="trial log TSV path")
    p_tune.add_argument("--seed", type=int, default=0, help="seed of the trial sampler")
    add_knowledge_flags(p_tune)
    add_shared_flags(p_tune)
    p_tune.set_defaults(func=cmd_tune)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=logging.WARNING,
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (LoadError, ConfigError, OSError) as exc:
        # OSError: an output path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (ContractViolation, TagRefineError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
