"""Extremal-instance search: empirical upper bounds on the optimal clique
fraction.

A frontier record is an instance with many m-cliques, a small clique
number, and a completed proof that it contains no complete m-tuple of
missing edges.  For such an instance omega/n is a valid upper bound on the
best achievable guarantee at that m-clique density, so the search hunts
for high c_m under an omega cap.  Nothing here is trusted from search
state: every reported record is re-verified from the instance itself, and
budget-exhausted tuple searches disqualify a candidate outright.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Optional

from .bounds import beta_recursion, theorem1_bound
from .core import (
    Density,
    KUniformHypergraph,
    SizeRefusalError,
    count_m_cliques,
    hypergraph_to_dict,
    max_clique,
)
from .forbidden import DEFAULT_BUDGET, Verdict, find_complete_tuple

DEFAULT_MAX_ENUMERATION = 1 << 22


@dataclass(frozen=True)
class FrontierRecord:
    """A verified extremal instance.

    alpha and omega_ratio are recomputed from the instance at construction
    time, never copied from search state, and ``verified`` is always a
    completed ABSENT verdict.
    """

    n: int
    k: int
    m: int
    alpha: Density
    omega_ratio: Fraction
    instance: KUniformHypergraph
    verified: Verdict

    @classmethod
    def from_instance(
        cls, H: KUniformHypergraph, m: int, budget: int = DEFAULT_BUDGET
    ) -> "FrontierRecord":
        result = find_complete_tuple(H, m, budget)
        if result.verdict is not Verdict.ABSENT:
            raise ValueError(
                f"instance does not qualify: tuple search verdict is {result.verdict.value}"
            )
        cm = count_m_cliques(H, m)
        total = math.comb(H.n, m)
        alpha = Fraction(cm, total) if total else Fraction(0)
        omega = len(max_clique(H).vertices)
        return cls(
            n=H.n,
            k=H.k,
            m=m,
            alpha=alpha,
            omega_ratio=Fraction(omega, H.n) if H.n else Fraction(0),
            instance=H,
            verified=result.verdict,
        )

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "m": self.m,
            "alpha": f"{self.alpha.numerator}/{self.alpha.denominator}",
            "alpha_float": float(self.alpha),
            "omega_ratio": f"{self.omega_ratio.numerator}/{self.omega_ratio.denominator}",
            "omega_ratio_float": float(self.omega_ratio),
            "instance": hypergraph_to_dict(self.instance),
            "verified": self.verified.value,
        }


def exhaustive_frontier(
    n: int,
    k: int,
    m: int,
    omega_cap: int,
    *,
    budget: int = DEFAULT_BUDGET,
    max_enumeration: int = DEFAULT_MAX_ENUMERATION,
) -> Optional[FrontierRecord]:
    """Maximum c_m over all edge subsets with omega <= omega_cap and a
    completed proof of no complete m-tuple.

    Edge subsets are enumerated as bitmasks over the lexicographically
    sorted k-subsets; among the maximizers the lowest mask wins, which
    pins the witness deterministically.  Refuses enumerations larger than
    ``max_enumeration`` instances.
    """
    positions = list(combinations(range(n), k))
    total = 1 << len(positions)
    if total > max_enumeration:
        raise SizeRefusalError(
            f"exhaustive search over 2^{len(positions)} = {total} instances exceeds "
            f"the cap of {max_enumeration}"
        )
    best_mask_edges = None
    best_cm = -1
    for mask in range(total):
        edges = frozenset(pos for i, pos in enumerate(positions) if mask >> i & 1)
        H = KUniformHypergraph(n=n, k=k, edges=edges)
        if len(max_clique(H).vertices) > omega_cap:
            continue
        cm = count_m_cliques(H, m)
        if cm <= best_cm:
            continue
        if find_complete_tuple(H, m, budget).verdict is not Verdict.ABSENT:
            continue
        best_cm = cm
        best_mask_edges = edges
    if best_mask_edges is None:
        return None
    winner = KUniformHypergraph(n=n, k=k, edges=best_mask_edges)
    return FrontierRecord.from_instance(winner, m, budget)


@dataclass(frozen=True)
class HillClimbConfig:
    n: int
    k: int
    m: int
    omega_cap: int
    iterations: int = 10_000
    restarts: int = 1
    seed: int = 0
    tuple_budget: int = DEFAULT_BUDGET


def _restart_seed(master: int, restart: int) -> int:
    """Independent per-restart stream, stable across processes."""
    digest = hashlib.blake2b(f"{master}:{restart}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


DOWNHILL_PROBABILITY = 0.25


def hill_climb(config: HillClimbConfig) -> FrontierRecord:
    """Edge-toggle local search maximizing c_m under both constraints.

    Starts from the edgeless instance (always feasible), proposes a random
    k-subset toggle per iteration, and accepts any feasible improving or
    sideways move; feasible downhill moves are accepted with a fixed seeded
    probability so the walk can dismantle local optima.  Feasible means
    omega <= omega_cap (exact) together with a completed ABSENT verdict
    from the tuple search; candidates whose search exhausts its budget are
    discarded.  The best instance ever visited is what gets reported, and
    it is re-verified from scratch.  Restart streams are derived by
    splitting the master seed, so the result is bit-reproducible for a
    fixed config.
    """
    n, k, m = config.n, config.k, config.m
    if config.restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {config.restarts}")
    if n < k:
        raise ValueError(f"n must be >= k = {k} so that a k-subset can be toggled, got n = {n}")
    if config.omega_cap < min(n, k - 1):
        raise ValueError(
            f"omega_cap = {config.omega_cap} is below the vacuous clique floor "
            f"min(n, k-1) = {min(n, k - 1)}; no instance can qualify"
        )
    positions = list(combinations(range(n), k))
    best: Optional[FrontierRecord] = None
    best_cm = -1
    for restart in range(config.restarts):
        rng = random.Random(_restart_seed(config.seed, restart))
        edges: set[tuple[int, ...]] = set()
        cur_cm = count_m_cliques(KUniformHypergraph(n=n, k=k, edges=frozenset()), m)
        restart_best_edges = frozenset(edges)
        restart_best_cm = cur_cm
        for _ in range(config.iterations):
            pos = positions[rng.randrange(len(positions))]
            adding = pos not in edges
            trial = set(edges)
            if adding:
                trial.add(pos)
            else:
                trial.remove(pos)
            H2 = KUniformHypergraph(n=n, k=k, edges=frozenset(trial))
            cm2 = count_m_cliques(H2, m)
            if cm2 < cur_cm and rng.random() >= DOWNHILL_PROBABILITY:
                continue
            if len(max_clique(H2).vertices) > config.omega_cap:
                continue
            if find_complete_tuple(H2, m, config.tuple_budget).verdict is not Verdict.ABSENT:
                continue
            edges = trial
            cur_cm = cm2
            if cur_cm > restart_best_cm:
                restart_best_cm = cur_cm
                restart_best_edges = frozenset(edges)
        final = KUniformHypergraph(n=n, k=k, edges=restart_best_edges)
        record = FrontierRecord.from_instance(final, m, config.tuple_budget)
        if restart_best_cm > best_cm:
            best_cm = restart_best_cm
            best = record
    return best


@dataclass(frozen=True)
class BetaUpperRow:
    """One line of the empirical upper-bound table: at density alpha the
    smallest observed omega/n, next to the proved lower bounds."""

    k: int
    m: int
    alpha: Density
    min_omega_ratio: Fraction
    theorem1: float
    beta_recursive: float


def report_beta_upper(records: Iterable[FrontierRecord]) -> list[BetaUpperRow]:
    """Reduce records to per-(k, m, alpha) minima of omega/n."""
    groups: dict[tuple[int, int, Fraction], Fraction] = {}
    for rec in records:
        key = (rec.k, rec.m, rec.alpha)
        ratio = rec.omega_ratio
        if key not in groups or ratio < groups[key]:
            groups[key] = ratio
    rows = []
    for (k, m, alpha), ratio in sorted(groups.items()):
        rows.append(
            BetaUpperRow(
                k=k,
                m=m,
                alpha=alpha,
                min_omega_ratio=ratio,
                theorem1=theorem1_bound(float(alpha)),
                beta_recursive=beta_recursion(float(alpha), k, m) if alpha > 0 else 0.0,
            )
        )
    return rows


def format_beta_table(rows: list[BetaUpperRow]) -> str:
    header = f"{'k':>3} {'m':>3} {'alpha':>12} {'min w/n':>12} {'theorem1':>12} {'beta_rec':>12}"
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r.k:>3} {r.m:>3} {str(r.alpha):>12} {str(r.min_omega_ratio):>12} "
            f"{r.theorem1:>12.6g} {r.beta_recursive:>12.6g}"
        )
    return "\n".join(lines)
