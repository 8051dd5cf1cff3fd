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
from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterable, NamedTuple

from .bounds import beta_recursion, theorem1_bound
from .core import (
    BudgetExhaustedError,
    Density,
    Edge,
    KUniformHypergraph,
    clique_through_exceeds,
    count_cliques_through,
    count_m_cliques,
    hypergraph_to_dict,
    mask_vertices,
    max_clique,
    refuse_over_cap,
)
from .forbidden import (
    DEFAULT_BUDGET,
    MAX_TUPLE_SLOTS,
    CompleteTupleCertificate,
    TupleIndex,
    Verdict,
    certify,
    check_complete_tuple,
    find_complete_tuple,
    tuple_through_pair,
)

MAX_ENUMERATION_BITS = 22


class FrontierRecord(NamedTuple):
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
        if result.verdict is Verdict.EXHAUSTED:
            raise BudgetExhaustedError(
                f"the tuple search verifying the record exhausted its budget of {budget} nodes"
            )
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


def _check_search(n: int, k: int, m: int, omega_cap: int) -> None:
    # Shared by both searches: each needs a k-subset to place, a cap that
    # the vacuous cliques (any k-1 vertices) do not already exceed, an
    # instance arity and m >= k, which every clique count and tuple search
    # assumes.
    if n < k:
        raise ValueError(f"n must be >= k = {k} so that a k-subset exists, got n = {n}")
    if omega_cap < k - 1:
        raise ValueError(
            f"omega_cap = {omega_cap} is below the vacuous clique floor "
            f"k-1 = {k - 1}; no instance can qualify"
        )
    if k < 2:
        raise ValueError(f"edge arity k must be >= 2, got {k}")
    if m < k:
        raise ValueError(f"m must be >= k = {k}, got {m}")


def exhaustive_frontier(
    n: int, k: int, m: int, omega_cap: int, *, budget: int = DEFAULT_BUDGET
) -> FrontierRecord:
    """Maximum c_m over all edge subsets with omega <= omega_cap and a
    completed proof of no complete m-tuple.

    Edge subsets are enumerated as bitmasks over the lexicographically
    sorted k-subsets; among the maximizers the lowest mask wins, which
    pins the witness deterministically.  Refuses enumerations larger than
    2^``MAX_ENUMERATION_BITS`` instances.  A candidate whose tuple search
    exhausts ``budget`` is skipped; if one of them had at least the
    winner's c_m, the result is inconclusive and BudgetExhaustedError is
    raised.  Otherwise there is always a winner: mask 0, the edgeless
    instance, has omega = k-1 <= omega_cap and no complete m-tuple.
    """
    _check_search(n, k, m, omega_cap)
    # Compare exponents: 2^C(n, k) is not built, and nothing is listed,
    # before the refusal.
    what = f"the exponent C({n},{k}) of an exhaustive search over 2^C({n},{k}) instances"
    refuse_over_cap(what, MAX_ENUMERATION_BITS, n, k)
    positions = list(combinations(range(n), k))
    total = 1 << len(positions)
    best = None
    best_cm = -1
    exhausted_cm = -1
    for mask in range(total):
        edges = frozenset(pos for i, pos in enumerate(positions) if mask >> i & 1)
        H = KUniformHypergraph(n=n, k=k, edges=edges)
        cm = count_m_cliques(H, m)
        if cm <= best_cm or len(max_clique(H).vertices) > omega_cap:
            continue
        verdict = find_complete_tuple(H, m, budget).verdict
        if verdict is Verdict.EXHAUSTED:
            exhausted_cm = max(exhausted_cm, cm)
        if verdict is not Verdict.ABSENT:
            continue
        best_cm = cm
        best = H
    if exhausted_cm >= 0 and exhausted_cm >= best_cm:
        raise BudgetExhaustedError(
            f"a candidate with c_m = {exhausted_cm} exhausted the tuple search budget of "
            f"{budget} nodes, so the maximum is undecided"
        )
    return FrontierRecord.from_instance(best, m, budget)


class HillClimbConfig(NamedTuple):
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
    it is re-verified from scratch (BudgetExhaustedError when that search
    runs out of budget).  Restart streams are derived by
    splitting the master seed, so the result is bit-reproducible for a
    fixed config.

    The current instance is always feasible, so a toggle of the k-set e
    is checked only where it can change something, by the seeded kernels:
    the m-cliques through e give the change in c_m, a clique through e
    is the only way adding e can break the cap, and a complete tuple that
    uses e the only one the toggle can create.  The instance is kept as an
    edge bitmask over the k-subsets with its link masks;
    ``KUniformHypergraph`` is built only for each restart's best instance,
    and a certificate the tuple check hits is verified by enumeration
    against the edge bitmask.  At k = 2 the check is
    ``forbidden.tuple_through_pair`` on the link masks, after the toggle,
    and no ``TupleIndex`` is built.  It is charged the missing pairs its
    walks for two pairs or more try; a check of at most one pair costs no
    node.  At k >= 3 it is ``TupleIndex.search`` seeded with
    ``TupleIndex.through``, charged every candidate it passes over.
    ``tuple_budget`` bounds each check, and a proposal whose check runs
    past it is discarded.  It bounds the final re-verification too,
    ``find_complete_tuple``, which at k = 2 is charged the missing pairs
    it tries; each k = 2 walk refuses past the cap of its ``WorkMeter``.  The climb lists every k-subset,
    so it refuses more than ``forbidden.MAX_TUPLE_SLOTS`` of them.
    """
    n, k, m = config.n, config.k, config.m
    if config.restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {config.restarts}")
    if config.iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {config.iterations}")
    _check_search(n, k, m, config.omega_cap)
    refuse_over_cap(f"the k-subset count C({n},{k}) of a hill climb", MAX_TUPLE_SLOTS, n, k)
    positions = list(combinations(range(n), k))
    rank = {e: i for i, e in enumerate(positions)}
    vertex_masks = [sum(1 << v for v in e) for e in positions]
    budget = config.tuple_budget
    best = None
    for restart in range(config.restarts):
        rng = random.Random(_restart_seed(config.seed, restart))
        # The instance: bit i of `edges` for positions[i], and `links`.
        # The edgeless start has no m-clique, since m >= k.
        links, toggle, tuple_through = _edgeless_climb(n, k, m, positions, budget)
        edges = restart_best = 0
        cur_cm = restart_best_cm = 0
        for _ in range(config.iterations):
            i = rng.randrange(len(positions))
            em, adding = vertex_masks[i], not edges >> i & 1
            # A clique through e reads no link that toggling e changes, so
            # both clique checks run on the current links.
            delta = count_cliques_through(links, k, m, em)
            cm2 = cur_cm + delta if adding else cur_cm - delta
            if cm2 < cur_cm and rng.random() >= DOWNHILL_PROBABILITY:
                continue
            # Removing an edge cannot raise omega.
            if adding and clique_through_exceeds(links, k, em, config.omega_cap):
                continue
            toggle(em)
            trial = edges ^ 1 << i
            tuples, nodes = tuple_through(i, adding, trial)
            if tuples is None and nodes <= budget:
                edges, cur_cm = trial, cm2
                if cur_cm > restart_best_cm:
                    restart_best, restart_best_cm = edges, cur_cm
                continue
            if tuples is not None:
                # Raises unless the certificate checks out on the trial,
                # read bit by bit from its mask rather than from the links
                # the search used.
                cert = CompleteTupleCertificate(tuple(tuples))
                certify(cert, check_complete_tuple(n, k, lambda t: trial >> rank[t] & 1, cert))
            toggle(em)
        H = KUniformHypergraph(
            n=n, k=k, edges=frozenset(positions[j] for j in mask_vertices(restart_best))
        )
        record = FrontierRecord.from_instance(H, m, budget)
        # Every record has the same C(n, m) denominator, so alpha orders c_m.
        if best is None or record.alpha > best.alpha:
            best = record
    return best


def _edgeless_climb(
    n: int, k: int, m: int, positions: list[Edge], budget: int
) -> tuple[dict[int, int], Callable, Callable]:
    """The link masks of an edgeless instance, the toggle that flips the
    k-set with a given vertex mask in them, and the climb's tuple check:
    ``(i, adding, trial)`` gives the tuples of a complete m-tuple through
    ``positions[i]``, just toggled, on the instance with edge bitmask
    ``trial`` (None if there is none), and the node count.  At k = 2 the
    check is ``tuple_through_pair`` on the links; at k >= 3 it is
    ``TupleIndex.search`` over every k-subset, seeded by ``through``."""
    if k == 2:
        links: dict[int, int] = {}

        def toggle(em: int) -> None:
            low = em & -em
            high = em ^ low
            links[low] = links.get(low, 0) ^ high
            links[high] = links.get(high, 0) ^ low

        def tuple_through(i: int, adding: bool, trial: int):
            return tuple_through_pair(links, m, positions[i], adding, budget)

        return links, toggle, tuple_through
    index = TupleIndex(n, k, positions, {})
    full = (1 << len(positions)) - 1

    def tuple_through(i: int, adding: bool, trial: int):
        pools = index.through(positions[i], None if adding else i)
        chosen, nodes = index.search(m, budget, full ^ trial, pools)
        return (None if chosen is None else [positions[j] for j in chosen]), nodes

    return index.links, index.toggle, tuple_through


class BetaUpperRow(NamedTuple):
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
