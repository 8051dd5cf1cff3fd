"""Command-line interface.

One binary, eight subcommands, uniform JSON I/O: every run prints a single
self-contained report document on stdout (the ``search`` subcommand
additionally streams one JSON line per frontier record before it), with
human-readable diagnostics on stderr only.

Exit codes:
  0  success
  2  invalid input file or arguments
  3  size refusal (enumeration above the configured cap)
  4  search budget exhausted (inconclusive)
  5  internal-consistency failure (theorem-violating state; certificate
     attached to the report)

Reports embed an input digest (sha256 of the canonical JSON of the loaded
object, so equivalent encodings of the same instance digest identically),
the parameters, and versions; with a fixed seed, re-running reproduces the
report byte for byte apart from the wall-time field.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from fractions import Fraction

from . import __version__
from .bounds import bound_report
from .core import (
    InputFormatError,
    InternalConsistencyError,
    KUniformHypergraph,
    SizeRefusalError,
    hypergraph_from_dict,
    hypergraph_to_dict,
    max_clique,
)
from .extractor import (
    GraphExtractionOutcome,
    HypergraphExtractionOutcome,
    extract_graph,
    extract_hypergraph,
)
from .forbidden import DEFAULT_BUDGET, Verdict, find_complete_tuple
from .geometry import (
    box_family_from_dict,
    box_family_to_dict,
    build_nerve,
    colorful_check,
    fractional_helly_pipeline,
    random_box_family,
)
from .search import (
    FrontierRecord,
    HillClimbConfig,
    exhaustive_frontier,
    format_beta_table,
    hill_climb,
    report_beta_upper,
)


def _frac(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _canonical_digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return "sha256:" + hashlib.sha256(blob).hexdigest()


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputFormatError(f"input file not found: {path}")
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{path} is not valid JSON: {exc}")


def _load_instance(path: str) -> tuple[KUniformHypergraph, str]:
    H = hypergraph_from_dict(_load_json(path))
    return H, _canonical_digest(hypergraph_to_dict(H))


def _load_boxes(path: str):
    fam = box_family_from_dict(_load_json(path))
    return fam, _canonical_digest(box_family_to_dict(fam))


def _load_nerve_family(path: str):
    """A box family with enough boxes for its nerve (more than d+1)."""
    fam, digest = _load_boxes(path)
    if len(fam) <= fam.d + 1:
        raise InputFormatError(
            f"nerve needs more than d+1 = {fam.d + 1} boxes, got {len(fam)}"
        )
    return fam, digest


def _budget(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"budget must be an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"budget must be >= 0, got {value}")
    return value


def _dumps(doc: dict) -> str:
    # No space after item commas: edge lists and score tables are most of a
    # report, and this makes it about a fifth smaller.
    return json.dumps(doc, sort_keys=True, separators=(",", ": "))


def _emit(report: dict) -> None:
    print(_dumps(report))


def _report(subcommand: str, digest, parameters: dict, outcome, started: float) -> dict:
    return {
        "subcommand": subcommand,
        "input_digest": digest,
        "parameters": parameters,
        "outcome": outcome,
        "wall_time_s": round(time.perf_counter() - started, 6),
        "versions": {"cliquecert": __version__, "python": sys.version.split()[0]},
    }


def _edge_list(edges) -> list:
    return [list(e) for e in edges]


def _graph_outcome_dict(out: GraphExtractionOutcome) -> dict:
    t = out.trace
    doc = {
        "kind": out.kind,
        "alpha": _frac(t.alpha),
        "alpha_float": float(t.alpha),
        "bound": t.bound,
        "bound_met": t.bound_met,
        "fallback": False,
        "trace": {
            "mu_by_vertex": list(t.mu_by_vertex),
            "missing_in_neighborhood": list(t.missing_in_neighborhood),
            # json writes the (tau, score) tuples as arrays; no list copy.
            "tau_scores": t.tau_scores,
            "chosen_tau": list(t.chosen_tau) if t.chosen_tau else None,
        },
    }
    if out.kind == "clique":
        doc["vertices"] = list(out.clique.vertices)
    else:
        doc["tuples"] = _edge_list(out.certificate.tuples)
    return doc


def _hypergraph_outcome_dict(out: HypergraphExtractionOutcome) -> dict:
    t = out.trace
    doc = {
        "kind": out.kind,
        "alpha": _frac(t.alpha),
        "alpha_float": float(t.alpha),
        "bound": t.beta,
        "bound_met": t.bound_met,
        "fallback": t.fallback,
        "trace": {
            "chosen_taus": _edge_list(t.chosen_taus),
            "family_sizes": list(t.family_sizes),
            # json writes the (tau, score) tuples as arrays; no list copy.
            "round_scores": t.round_scores,
            "expected_bound": t.expected_bound,
        },
    }
    if out.kind == "clique":
        doc["vertices"] = list(out.clique.vertices)
    else:
        doc["tuples"] = _edge_list(out.certificate.tuples)
    return doc


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_analyze(args) -> int:
    t0 = time.perf_counter()
    H, digest = _load_instance(args.input)
    omega = max_clique(H)
    alpha = H.edge_density()
    outcome = {
        "n": H.n,
        "k": H.k,
        "edge_count": len(H.edges),
        "missing_count": math.comb(H.n, H.k) - len(H.edges),
        "alpha": _frac(alpha),
        "alpha_float": float(alpha),
        "omega": len(omega.vertices),
        "omega_witness": list(omega.vertices),
    }
    _emit(_report("analyze", digest, {"input": args.input}, outcome, t0))
    return 0


def _cmd_forbidden(args) -> int:
    t0 = time.perf_counter()
    H, digest = _load_instance(args.input)
    result = find_complete_tuple(H, args.m, args.budget)
    outcome = {
        "verdict": result.verdict.value,
        "certificate": result.certificate.to_dict() if result.certificate else None,
        "nodes": result.nodes,
    }
    params = {"input": args.input, "m": args.m, "budget": args.budget}
    _emit(_report("forbidden", digest, params, outcome, t0))
    return 4 if result.verdict is Verdict.EXHAUSTED else 0


def _cmd_extract(args) -> int:
    t0 = time.perf_counter()
    H, digest = _load_instance(args.input)
    m = args.m if args.m is not None else H.k
    if args.algorithm == "graph":
        if H.k != 2 or m != 2:
            raise InputFormatError("--algorithm graph requires k = 2 and m = 2")
        outcome = _graph_outcome_dict(extract_graph(H))
    else:
        outcome = _hypergraph_outcome_dict(extract_hypergraph(H, m))
    params = {"input": args.input, "m": m, "algorithm": args.algorithm}
    _emit(_report("extract", digest, params, outcome, t0))
    return 0


def _cmd_bounds(args) -> int:
    t0 = time.perf_counter()
    try:
        alpha = Fraction(args.alpha)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputFormatError(f"cannot parse alpha {args.alpha!r}: {exc}")
    report = bound_report(alpha, args.k, args.m, args.d)
    table = (
        f"{'quantity':>16} {'value':>14}\n"
        f"{'alpha':>16} {str(report.alpha):>14}\n"
        f"{'theorem1':>16} {report.theorem1:>14.8g}\n"
        f"{'chordal':>16} {report.chordal:>14.8g}\n"
        f"{'beta_recursive':>16} {report.beta_recursive:>14.8g}\n"
        f"{'kalai':>16} {report.kalai:>14.8g}\n"
        f"{'exponent':>16} {report.exponent:>14}"
    )
    print(table, file=sys.stderr)
    params = {"alpha": args.alpha, "k": args.k, "m": args.m, "d": args.d}
    _emit(_report("bounds", None, params, report.to_dict(), t0))
    return 0


def _cmd_nerve(args) -> int:
    t0 = time.perf_counter()
    fam, digest = _load_nerve_family(args.input)
    nerve = build_nerve(fam)
    outcome = {
        "hypergraph": hypergraph_to_dict(nerve.base),
        "density": _frac(nerve.density()),
        "density_float": float(nerve.density()),
    }
    _emit(_report("nerve", digest, {"input": args.input}, outcome, t0))
    return 0


def _cmd_helly(args) -> int:
    t0 = time.perf_counter()
    fam, digest = _load_nerve_family(args.input)
    check = colorful_check(fam, args.budget)
    if check.verdict is Verdict.EXHAUSTED:
        print("colorful check exhausted its budget; result inconclusive", file=sys.stderr)
        _emit(
            _report(
                "helly",
                digest,
                {"input": args.input, "budget": args.budget},
                {"verdict": check.verdict.value, "nodes": check.nodes},
                t0,
            )
        )
        return 4
    out = fractional_helly_pipeline(fam)
    outcome = {
        "indices": list(out.indices),
        "point": list(out.point),
        "subfamily_size": len(out.indices),
        "alpha": _frac(out.alpha),
        "alpha_float": float(out.alpha),
        "kalai_target": out.kalai_target,
        "degraded": out.degraded,
        "colorful_verdict": check.verdict.value,
        "extraction": _hypergraph_outcome_dict(out.extraction),
    }
    _emit(_report("helly", digest, {"input": args.input, "budget": args.budget}, outcome, t0))
    return 0


def _cmd_search(args) -> int:
    t0 = time.perf_counter()
    records: list[FrontierRecord] = []
    if args.exhaustive:
        rec = exhaustive_frontier(args.n, args.k, args.m, args.omega_cap, budget=args.budget)
        if rec is not None:
            records.append(rec)
    else:
        if args.seed is None:
            raise InputFormatError("--seed is required for randomized search")
        config = HillClimbConfig(
            n=args.n,
            k=args.k,
            m=args.m,
            omega_cap=args.omega_cap,
            iterations=args.iters,
            restarts=args.restarts,
            seed=args.seed,
            tuple_budget=args.budget,
        )
        records.append(hill_climb(config))
    for rec in records:
        print(_dumps(rec.to_dict()))
    rows = report_beta_upper(records)
    print(format_beta_table(rows), file=sys.stderr)
    outcome = {
        "rows": [
            {
                "k": r.k,
                "m": r.m,
                "alpha": _frac(r.alpha),
                "min_omega_ratio": _frac(r.min_omega_ratio),
                "theorem1": r.theorem1,
                "beta_recursive": r.beta_recursive,
            }
            for r in rows
        ],
        "records": len(records),
    }
    params = {
        "n": args.n,
        "k": args.k,
        "m": args.m,
        "omega_cap": args.omega_cap,
        "iters": args.iters,
        "restarts": args.restarts,
        "seed": args.seed,
        "exhaustive": args.exhaustive,
    }
    _emit(_report("search", None, params, outcome, t0))
    return 0


def _cmd_gen_boxes(args) -> int:
    t0 = time.perf_counter()
    fam = random_box_family(
        args.n,
        args.d,
        args.seed,
        spread=args.spread,
        min_side=args.min_side,
        max_side=args.max_side,
    )
    params = {
        "n": args.n,
        "d": args.d,
        "seed": args.seed,
        "spread": args.spread,
        "min_side": args.min_side,
        "max_side": args.max_side,
    }
    _emit(_report("gen-boxes", None, params, box_family_to_dict(fam), t0))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cliquecert",
        description="Exact clique extraction with verifiable certificates.",
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=os.cpu_count() or 1,
        help="worker parallelism hint; results are deterministic regardless",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("analyze", help="instance summary: density, clique number, witness")
    p.add_argument("--input", required=True)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("forbidden", help="search for a complete m-tuple of missing edges")
    p.add_argument("--input", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET)
    p.set_defaults(func=_cmd_forbidden)

    p = sub.add_parser("extract", help="clique-or-certificate extraction with trace")
    p.add_argument("--input", required=True)
    p.add_argument("--m", type=int, default=None, help="defaults to the instance's k")
    p.add_argument("--algorithm", choices=("hypergraph", "graph"), default="hypergraph")
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("bounds", help="bound table at a given (alpha, k, m, d)")
    p.add_argument("--alpha", required=True, help='exact fraction like "3/4" (or a decimal)')
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("nerve", help="intersection nerve of a box family")
    p.add_argument("--input", required=True)
    p.set_defaults(func=_cmd_nerve)

    p = sub.add_parser("helly", help="fractional-Helly pipeline on a box family")
    p.add_argument("--input", required=True)
    p.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET)
    p.set_defaults(func=_cmd_helly)

    p = sub.add_parser("search", help="extremal-instance search for upper bounds")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--omega-cap", type=int, required=True)
    p.add_argument("--iters", type=int, default=10_000)
    p.add_argument("--restarts", type=int, default=1)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("gen-boxes", help="deterministic random box family")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--spread", type=int, default=100)
    p.add_argument("--min-side", type=int, default=0)
    p.add_argument("--max-side", type=int, default=40)
    p.set_defaults(func=_cmd_gen_boxes)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except ValueError as exc:
        # InputFormatError for a bad file; a plain ValueError from a library
        # entry point rejecting a parameter (m < k, n = 0, restarts = 0, ...).
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SizeRefusalError as exc:
        print(f"size refusal: {exc}", file=sys.stderr)
        return 3
    except InternalConsistencyError as exc:
        cert = getattr(exc, "certificate", None)
        doc = {
            "error": "internal-consistency failure",
            "detail": str(exc),
            "certificate": cert.to_dict() if cert is not None else None,
        }
        print(_dumps(doc))
        print(f"internal-consistency failure: {exc}", file=sys.stderr)
        return 5


def app() -> None:
    raise SystemExit(main())
