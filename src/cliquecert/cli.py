"""Command-line interface.

One binary, eight subcommands, uniform JSON I/O: every run prints a single
self-contained report document on stdout (``search`` prints exactly one
frontier-record line before it), with human-readable diagnostics on
stderr only.

Exit codes:
  0  success
  2  invalid input file or arguments
  3  size refusal (enumeration above a fixed cap, or a count in the report
     with more decimal digits than Python prints)
  4  search budget exhausted (inconclusive)
  5  internal-consistency failure (theorem-violating state; certificate
     attached to the report)

Reports embed an input digest (sha256 of the canonical JSON of the loaded
object, so equivalent encodings of the same instance digest identically),
every parsed argument as the parameters, and versions; with a fixed seed,
re-running reproduces the report byte for byte apart from the wall-time
field.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from fractions import Fraction
from functools import cache

from . import __version__
from .bounds import bound_report
from .core import (
    MAX_PRINTED_DIGITS,
    BudgetExhaustedError,
    InputFormatError,
    InternalConsistencyError,
    KUniformHypergraph,
    SizeRefusalError,
    comb_exceeds,
    hypergraph_from_dict,
    max_clique,
)
from .extractor import ExtractionOutcome, extract_graph, extract_hypergraph
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
    HillClimbConfig,
    exhaustive_frontier,
    format_beta_table,
    hill_climb,
    report_beta_upper,
)


def _frac(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _canonical_digest(payload) -> str:
    # The payload is a fresh tree, so json's cycle check is skipped.
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"), check_circular=False)
    return "sha256:" + hashlib.sha256(blob.encode()).hexdigest()


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputFormatError(f"input file not found: {path}")
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc.strerror or exc}")
    except RecursionError:
        raise InputFormatError(f"{path} is nested too deeply to parse")
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{path} is not valid JSON: {exc}")


def _hypergraph_doc(H: KUniformHypergraph) -> dict:
    # hypergraph_to_dict(H) without its copy of the edges: json writes the
    # edge tuples as arrays.
    return {"n": H.n, "k": H.k, "edges": H.sorted_edges}


def _load_instance(path: str) -> tuple[KUniformHypergraph, str]:
    H = hypergraph_from_dict(_load_json(path))
    return H, _canonical_digest(_hypergraph_doc(H))


def _load_boxes(path: str):
    fam = box_family_from_dict(_load_json(path))
    return fam, _canonical_digest(box_family_to_dict(fam))


def _budget(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"budget must be an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"budget must be >= 0, got {value}")
    return value


def _dumps(doc: dict) -> str:
    """The report as one JSON line.  No space after item commas: edge lists
    and score tables are most of a report, and this makes it about a fifth
    smaller.  Reports are fresh trees, so json's cycle check is skipped: a
    cyclic document would end in RecursionError, not ValueError."""
    return json.dumps(doc, sort_keys=True, separators=(",", ": "), check_circular=False)


def _edge_list(edges) -> list:
    return [list(e) for e in edges]


def _outcome_dict(out: ExtractionOutcome, bound: float, fallback: bool, trace: dict) -> dict:
    # The fields both extractors report; ``trace`` holds the ones they do not share.
    doc = {
        "kind": out.kind,
        "alpha": _frac(out.trace.alpha),
        "alpha_float": float(out.trace.alpha),
        "bound": bound,
        "bound_met": out.trace.bound_met,
        "fallback": fallback,
        "trace": trace,
    }
    if out.kind == "clique":
        doc["vertices"] = list(out.clique.vertices)
    else:
        doc["tuples"] = _edge_list(out.certificate.tuples)
    return doc


def _graph_outcome_dict(out: ExtractionOutcome) -> dict:
    t = out.trace
    trace = {
        "mu_by_vertex": list(t.mu_by_vertex),
        "missing_in_neighborhood": list(t.missing_in_neighborhood),
        # json writes the (tau, score) tuples as arrays; no list copy.
        "tau_scores": t.tau_scores,
        "chosen_tau": list(t.chosen_tau) if t.chosen_tau else None,
    }
    return _outcome_dict(out, t.bound, False, trace)


def _hypergraph_outcome_dict(out: ExtractionOutcome) -> dict:
    t = out.trace
    trace = {
        "chosen_taus": _edge_list(t.chosen_taus),
        "family_sizes": list(t.family_sizes),
        # json writes the (tau, score) tuples as arrays; no list copy.
        "round_scores": t.round_scores,
        "expected_bound": t.expected_bound,
    }
    return _outcome_dict(out, t.beta, t.fallback, trace)


# ---------------------------------------------------------------------------
# subcommands: each returns (input digest or None, outcome, exit code), and
# ``main`` wraps the outcome in the report
# ---------------------------------------------------------------------------


def _cmd_analyze(args) -> tuple:
    H, digest = _load_instance(args.input)
    # The report prints C(n, k) - |E| and the density, whose denominator
    # divides C(n, k); refused before the search when C(n, k) is too long.
    if comb_exceeds(H.n, H.k, 10**MAX_PRINTED_DIGITS - 1):
        raise SizeRefusalError(
            f"C({H.n},{H.k}), the k-subset count the report prints, "
            f"has more than {MAX_PRINTED_DIGITS} digits"
        )
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
    return digest, outcome, 0


def _cmd_forbidden(args) -> tuple:
    H, digest = _load_instance(args.input)
    result = find_complete_tuple(H, args.m, args.budget)
    outcome = {
        "verdict": result.verdict.value,
        "certificate": result.certificate.to_dict() if result.certificate else None,
        "nodes": result.nodes,
    }
    return digest, outcome, 4 if result.verdict is Verdict.EXHAUSTED else 0


def _cmd_extract(args) -> tuple:
    H, digest = _load_instance(args.input)
    if args.m is None:
        args.m = H.k  # the report records the resolved value
    if args.algorithm == "graph":
        if H.k != 2 or args.m != 2:
            raise InputFormatError("--algorithm graph requires k = 2 and m = 2")
        return digest, _graph_outcome_dict(extract_graph(H)), 0
    return digest, _hypergraph_outcome_dict(extract_hypergraph(H, args.m)), 0


def _cmd_bounds(args) -> tuple:
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
    return None, report.to_dict(), 0


def _cmd_nerve(args) -> tuple:
    fam, digest = _load_boxes(args.input)
    nerve = build_nerve(fam)
    density = nerve.edge_density()
    outcome = {
        "hypergraph": _hypergraph_doc(nerve),
        "density": _frac(density),
        "density_float": float(density),
    }
    return digest, outcome, 0


def _cmd_helly(args) -> tuple:
    fam, digest = _load_boxes(args.input)
    check = colorful_check(fam, args.budget)
    if check.verdict is Verdict.EXHAUSTED:
        print("colorful check exhausted its budget; result inconclusive", file=sys.stderr)
        return digest, {"verdict": check.verdict.value, "nodes": check.nodes}, 4
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
        "colorful_nodes": check.nodes,
        "extraction": _hypergraph_outcome_dict(out.extraction),
    }
    return digest, outcome, 0


def _cmd_search(args) -> tuple:
    if args.exhaustive:
        rec = exhaustive_frontier(args.n, args.k, args.m, args.omega_cap, budget=args.budget)
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
        rec = hill_climb(config)
    print(_dumps(rec.to_dict()))
    rows = report_beta_upper((rec,))
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
        "records": 1,
    }
    return None, outcome, 0


def _cmd_gen_boxes(args) -> tuple:
    fam = random_box_family(
        args.n,
        args.d,
        args.seed,
        spread=args.spread,
        min_side=args.min_side,
        max_side=args.max_side,
    )
    return None, box_family_to_dict(fam), 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then shared by every
    ``main`` call in the process."""
    parser = argparse.ArgumentParser(
        prog="cliquecert",
        description="Exact clique extraction with verifiable certificates.",
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
    started = time.perf_counter()
    try:
        digest, outcome, code = args.func(args)
    except ValueError as exc:
        # InputFormatError for a bad file; a plain ValueError from a library
        # entry point rejecting a parameter (m < k, n = 0, restarts = 0, ...).
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SizeRefusalError as exc:
        print(f"size refusal: {exc}", file=sys.stderr)
        return 3
    except BudgetExhaustedError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return 4
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
    report = {
        "subcommand": args.subcommand,
        "input_digest": digest,
        "parameters": {k: v for k, v in vars(args).items() if k not in ("subcommand", "func")},
        "outcome": outcome,
        "wall_time_s": round(time.perf_counter() - started, 6),
        "versions": {"cliquecert": __version__, "python": sys.version.split()[0]},
    }
    print(_dumps(report))
    return code


def app() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    app()
