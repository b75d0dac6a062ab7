"""Command line front end.

Subcommands cover the full pipeline: generate a synthetic policy, derive
its entitlements, group objects, inspect ranked features for one group
pair, predict unknown cells, and run removal sweeps.  Settings resolve in
three layers: built-in defaults, then a JSON config file, then flags.

Exit codes: 0 on success (declined predictions included), 1 for input or
configuration problems, 2 for internal failures.  A file that cannot be
read, is not UTF-8 text or not valid JSON (nested too deeply included), and
an output path that cannot be written, are input problems: exit 1 with a
message naming the path.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import json
import sys

from . import __version__
from .clustering import ClusteringConfig, active_attributes, cluster_objects, member_means
from .features import rank_features
from .generator import TEMPLATES, GeneratorConfig, generate, reference_entitlements
from .harness import HarnessConfig, eligible_cells, evaluate_matrix, percent_key, tally
from .model import AbacError, InputError
from .policy_io import (
    dump_cell,
    entitlements_to_csv,
    load_entitlements,
    load_policy,
    policy_to_dict,
    read_json,
    write_json,
    writing,
)
from .prediction import Confidence, PredictionConfig, TripleCache, predict_missing

CONFIG_KEYS = ("st", "weights", "ntcf", "seed")


# ---------------------------------------------------------------- plumbing


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; that code is reserved for internal
    # failures here, so route bad usage through the input-error path
    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError(message)


def _parse_weights(text: str) -> dict:
    out = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        name, sep, raw = part.partition("=")
        if not sep or not name:
            raise InputError(f"weights must look like attr=1.5: {part!r}")
        try:
            out[name.strip()] = float(raw)
        except ValueError:
            raise InputError(f"weight for {name.strip()!r} is not a number: {raw!r}") from None
    return out


def _parse_ntcf(text: str) -> tuple:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2 or not all(p.lstrip("-").isdigit() for p in parts):
        raise InputError(f"confidence gates must be two integers like 3,5: {text!r}")
    return int(parts[0]), int(parts[1])


def _positive_int(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer: {text!r}")
    return int(text)


def _config_number(path: str, key: str, value, integer: bool = False):
    """value itself when it is a JSON number (an integer if asked)."""
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        what = "an integer" if integer else "a number"
        raise InputError(f"{path}: {key} must be {what}, not {json.dumps(value)}")
    return value


def _load_config_file(path: str) -> dict:
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise InputError(f"{path}: config must be a JSON object")
    unknown = sorted(set(doc) - set(CONFIG_KEYS))
    if unknown:
        raise InputError(f"{path}: unknown config keys {unknown}; allowed: {list(CONFIG_KEYS)}")
    if doc.get("st") is not None:
        _config_number(path, "st", doc["st"])
    if "seed" in doc:
        _config_number(path, "seed", doc["seed"], integer=True)
    if "weights" in doc:
        if not isinstance(doc["weights"], dict):
            raise InputError(f"{path}: weights must be an object of attr -> number")
        doc["weights"] = {
            k: float(_config_number(path, f"weights.{k}", v)) for k, v in doc["weights"].items()
        }
    if "ntcf" in doc:
        pair = doc["ntcf"]
        if not (isinstance(pair, list) and len(pair) == 2):
            raise InputError(f"{path}: ntcf must be a two-element list")
        doc["ntcf"] = tuple(_config_number(path, "ntcf", v, integer=True) for v in pair)
    return doc


def _settings(args) -> dict:
    """Defaults, overlaid by the config file, overlaid by explicit flags."""
    merged = {"st": None, "weights": {}, "ntcf": (3, 5), "seed": 0}
    if getattr(args, "config", None):
        merged.update(_load_config_file(args.config))
    for key in CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return merged


def _clustering_config(
    settings, schema, default_st: float = ClusteringConfig().threshold
) -> ClusteringConfig:
    st = settings["st"] if settings["st"] is not None else default_st
    cfg = ClusteringConfig(threshold=st, weights=settings["weights"])
    cfg.check_weight_names(schema)
    return cfg


def _prediction_config(settings) -> PredictionConfig:
    high, medium = settings["ntcf"]
    return PredictionConfig(high_rank_limit=high, medium_rank_limit=medium)


def _output(out_path: str | None):
    """The `write` of the file at out_path, or of stdout, for a `with`."""
    return writing(out_path) if out_path else contextlib.nullcontext(sys.stdout.write)


def _emit(text: str, out_path: str | None) -> None:
    with _output(out_path) as write:
        write(text)


def _emit_json(doc, out_path: str | None, sort_keys: bool = True) -> None:
    with _output(out_path) as write:
        write_json(doc, write, sort_keys)
        write("\n")


_CONFIDENCE_NAMES = {Confidence.HIGH: "High", Confidence.MEDIUM: "Medium", Confidence.NEI: "NEI"}


# ------------------------------------------------------------- subcommands


def _cmd_generate(args) -> int:
    settings = _settings(args)
    policy = generate(GeneratorConfig(template=args.template, scale=args.scale, seed=settings["seed"]))
    _emit_json(policy_to_dict(policy), args.out, sort_keys=False)
    if args.entitlements_out:
        _emit(entitlements_to_csv(reference_entitlements(policy)), args.entitlements_out)
    return 0


def _cmd_entitlements(args) -> int:
    policy = load_policy(args.policy)
    _emit(entitlements_to_csv(reference_entitlements(policy)), args.out)
    return 0


def _cmd_cluster(args) -> int:
    settings = _settings(args)
    policy = load_policy(args.policy)
    config = _clustering_config(settings, policy.model.schema)
    clustering = cluster_objects(policy.model, config)
    groups = []
    for g in clustering.groups:
        objs = [policy.model.side_objects(g.side)[m] for m in g.members]
        # the means refinement compared with the threshold; the mean over
        # pairs is the mean of the member means, rounded once
        means = member_means(objs, config) if len(objs) > 1 else []
        groups.append(
            {
                "gid": g.gid,
                "side": g.side.value,
                "members": list(g.members),
                "signature": sorted(active_attributes(objs[0])),
                "pairs": len(objs) * (len(objs) - 1) // 2,
                "mean_similarity": float(sum(means) / len(means)) if means else None,
                "min_member_mean": float(min(means)) if means else None,
                "max_member_mean": float(max(means)) if means else None,
            }
        )
    _emit_json({"threshold": config.threshold, "groups": groups}, args.out)
    return 0


def _cmd_features(args) -> int:
    settings = _settings(args)
    policy = load_policy(args.policy)
    entitlements = load_entitlements(args.entitlements, policy.model)
    clustering = cluster_objects(policy.model, _clustering_config(settings, policy.model.schema))
    if args.user not in policy.model.users:
        raise InputError(f"unknown user {args.user!r}")
    if args.resource not in policy.model.resources:
        raise InputError(f"unknown resource {args.resource!r}")
    if args.action not in policy.model.actions:
        raise InputError(f"unknown action {args.action!r}")
    ug, rg = clustering.users[args.user], clustering.resources[args.resource]
    data = TripleCache(policy.model, entitlements).learning_data(ug, rg, args.action)
    ranked = rank_features(ug, rg, data)
    _emit_json(
        {
            "user_group": ug.gid,
            "resource_group": rg.gid,
            "action": args.action,
            "rows": data.row_count,
            "features": [
                {
                    "rank": i + 1,
                    "feature": rf.feature.render(),
                    "coefficient": round(rf.coefficient, 9),
                    "characterizing": rf.characterizing,
                }
                for i, rf in enumerate(ranked)
            ],
        },
        args.out,
    )
    return 0


def _cmd_predict(args) -> int:
    settings = _settings(args)
    policy = load_policy(args.policy)
    entitlements = load_entitlements(args.entitlements, policy.model)
    clustering = cluster_objects(policy.model, _clustering_config(settings, policy.model.schema))
    predictions = predict_missing(
        policy.model, clustering, entitlements, _prediction_config(settings)
    )
    rows = []
    for p in predictions:
        rows.append(
            {
                "side": p.side.value,
                "object": p.object_id,
                "attr": p.attr,
                "confidence": _CONFIDENCE_NAMES[p.confidence],
                "value": dump_cell(p.value),
                "evidence": [
                    {
                        "feature": e.feature,
                        "rank": e.rank,
                        "confidence": _CONFIDENCE_NAMES[e.confidence],
                        "values": sorted(e.values),
                    }
                    for e in p.evidence
                ],
            }
        )
    _emit_json({"predictions": rows}, args.out)
    return 0


def _matrix_csv(template, scales, percents, matrix, timing: bool) -> str:
    header = ["dataset", "objects", "attributes", "entitlements", "accuracy"]
    # every decimal of the key, so that distinct keys name distinct columns
    header += [f"cov{p:.6f}".rstrip("0").rstrip(".") for p in percents]
    header += ["time_s"]
    lines = [",".join(header)]
    for scale in scales:
        policy, ents = matrix.policies[scale]
        om = policy.model
        rows = [r for r in matrix.runs if r.scale == scale]
        _, acc = tally(rows)
        record = [
            f"{template}-{scale}",
            str(len(om.users) + len(om.resources)),
            str(len(eligible_cells(om))),
            str(len(ents)),
            f"{acc:.4f}",
        ]
        for p in percents:
            cov, _ = matrix.pooled(scale, p / 100.0)
            record.append(f"{cov:.4f}")
        if timing:
            mean_elapsed = sum(r.elapsed for r in rows) / len(rows) if rows else 0.0
            record.append(f"{mean_elapsed:.3f}")
        else:
            record.append("")
        lines.append(",".join(record))
    return "\n".join(lines) + "\n"


def _matrix_json(template, scales, percents, runs, settings, matrix, timing: bool, subset_ok: bool):
    detail = []
    for r in matrix.runs:
        cells = []
        for c in r.cells:
            verdict = "NEI" if c.correct is None else ("Correct" if c.correct else "Wrong")
            cells.append(
                {
                    "side": c.side.value,
                    "object": c.object_id,
                    "attr": c.attr,
                    "truth": dump_cell(c.truth),
                    "predicted": dump_cell(c.predicted),
                    "confidence": _CONFIDENCE_NAMES[c.confidence],
                    "verdict": verdict,
                }
            )
        row = {
            "scale": r.scale,
            "percent": percent_key(r.fraction),
            "run": r.run_index,
            "seed": r.seed,
            "removed": r.removed,
            "predicted": r.predicted,
            "correct": r.correct,
            "coverage": round(r.coverage, 6),
            "accuracy": round(r.accuracy, 6),
            "cells": cells,
        }
        if timing:
            row["elapsed_s"] = round(r.elapsed, 6)
        detail.append(row)
    return {
        "template": template,
        "scales": list(scales),
        "percents": list(percents),
        "runs": runs,
        "seed": settings["seed"],
        "st": settings["st"],
        "ntcf": list(settings["ntcf"]),
        "subset_scoring": subset_ok,
        "detail": detail,
    }


def _cmd_evaluate(args) -> int:
    settings = _settings(args)
    try:
        scales = [int(s) for s in args.scales.split(",") if s.strip()]
        percents = [float(p) for p in args.percents.split(",") if p.strip()]
    except ValueError as e:
        raise InputError(f"bad --scales/--percents value: {e}") from None
    if not scales or not percents:
        raise InputError("need at least one scale and one percent")
    if any(not 0 <= p <= 100 for p in percents):
        raise InputError(f"percents must lie in [0, 100]: {percents}")
    fractions = [p / 100.0 for p in percents]
    # from here on a percent is its key: the duplicate check, the pooling
    # and the output all read it
    percents = [percent_key(f) for f in fractions]
    for flag, values in (("--scales", scales), ("--percents", percents)):
        dup = next((v for i, v in enumerate(values) if v in values[:i]), None)
        if dup is not None:
            raise InputError(f"duplicate value in {flag}: {dup:g}")
    subset_ok = not args.exact_multi
    schema = generate(GeneratorConfig(template=args.template)).model.schema
    harness_config = HarnessConfig(
        clustering=_clustering_config(settings, schema, HarnessConfig().clustering.threshold),
        prediction=_prediction_config(settings),
        subset_ok=subset_ok,
    )
    matrix = evaluate_matrix(
        args.template,
        scales,
        fractions,
        args.runs,
        base_seed=settings["seed"],
        config=harness_config,
        jobs=args.jobs,
    )
    csv_text = _matrix_csv(args.template, scales, percents, matrix, args.timing)
    if args.csv:
        _emit(csv_text, args.csv)
    if args.json:
        _emit_json(
            _matrix_json(args.template, scales, percents, args.runs, settings, matrix, args.timing, subset_ok),
            args.json,
        )
    if not args.csv and not args.json:
        _emit(csv_text, None)
    return 0


# ------------------------------------------------------------------ parser


def _add_settings_flags(p, st_help):
    p.add_argument("--config", metavar="FILE", help="JSON config file (keys: st, weights, ntcf, seed)")
    p.add_argument("--st", type=float, default=None, help=st_help)
    p.add_argument(
        "--weights",
        type=_parse_weights,
        default=None,
        metavar="A=W,B=W",
        help="per-attribute similarity weights (default: 1.0 each)",
    )


# built once per process: parsing leaves the tree as it was, so a caller
# that runs many commands in one process pays for building it once
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="abacfill", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("generate", help="build a synthetic policy")
    p.add_argument("--template", required=True, choices=TEMPLATES)
    p.add_argument("--scale", type=int, default=1, help="template repetitions (default 1)")
    p.add_argument("--seed", type=int, default=None, help="generator seed (default 0)")
    p.add_argument("--config", metavar="FILE", help="JSON config file (keys: st, weights, ntcf, seed)")
    p.add_argument("--out", metavar="FILE", help="policy JSON path (default: stdout)")
    p.add_argument("--entitlements-out", metavar="FILE", help="also write the entitlement CSV here")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("entitlements", help="derive granted triples of a complete policy")
    p.add_argument("--policy", required=True, metavar="FILE")
    p.add_argument("--out", metavar="FILE", help="CSV path (default: stdout)")
    p.set_defaults(func=_cmd_entitlements)

    p = sub.add_parser("cluster", help="group objects by attribute similarity")
    p.add_argument("--policy", required=True, metavar="FILE")
    _add_settings_flags(p, "similarity threshold (default 0.25)")
    p.add_argument("--out", metavar="FILE", help="JSON path (default: stdout)")
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("features", help="rank features for one user/resource/action triple")
    p.add_argument("--policy", required=True, metavar="FILE")
    p.add_argument("--entitlements", required=True, metavar="FILE")
    p.add_argument("--user", required=True, help="user object id naming the user group")
    p.add_argument("--resource", required=True, help="resource object id naming the resource group")
    p.add_argument("--action", required=True)
    _add_settings_flags(p, "similarity threshold (default 0.25)")
    p.add_argument("--out", metavar="FILE", help="JSON path (default: stdout)")
    p.set_defaults(func=_cmd_features)

    p = sub.add_parser("predict", help="fill unknown cells with confidence-tagged values")
    p.add_argument("--policy", required=True, metavar="FILE")
    p.add_argument("--entitlements", required=True, metavar="FILE")
    _add_settings_flags(p, "similarity threshold (default 0.25)")
    p.add_argument("--ntcf", type=_parse_ntcf, default=None, metavar="H,M",
                   help="confidence rank gates (default 3,5)")
    p.add_argument("--out", metavar="FILE", help="JSON path (default: stdout)")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("evaluate", help="removal sweep with coverage/accuracy reporting")
    p.add_argument("--template", required=True, choices=TEMPLATES)
    p.add_argument("--scales", default="1", metavar="1,2,3", help="comma-separated scales (default 1)")
    p.add_argument("--percents", default="3,6,9", metavar="3,6,9",
                   help="removal percentages (default 3,6,9)")
    p.add_argument("--runs", type=_positive_int, default=5, help="runs per setting (default 5)")
    p.add_argument("--seed", type=int, default=None, help="base seed (default 0)")
    _add_settings_flags(p, "similarity threshold (default 0.1 for removal sweeps)")
    p.add_argument("--ntcf", type=_parse_ntcf, default=None, metavar="H,M",
                   help="confidence rank gates (default 3,5)")
    p.add_argument("--exact-multi", action="store_true",
                   help="score multi-valued predictions by set equality instead of subset")
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="processes that share the removal runs, capped by the runs and "
                        "by the CPUs this process may use (default 1)")
    p.add_argument("--timing", action="store_true",
                   help="include wall-clock columns (breaks byte-for-byte reproducibility)")
    p.add_argument("--csv", metavar="FILE", help="summary CSV path (default: stdout)")
    p.add_argument("--json", metavar="FILE", help="per-run detail JSON path")
    p.set_defaults(func=_cmd_evaluate)

    return parser


def main(argv=None) -> int:
    # a command leaves no cyclic garbage, so the cyclic collector's scans are
    # paused while it runs; reference counting frees all that it drops
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except AbacError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 0
    except Exception as e:  # noqa: BLE001 - last-resort invariant guard
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
