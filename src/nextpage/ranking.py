"""PageRank scoring and conversion to ordinal ranks 1..p.

Ordinals are the importance scale used by the predictor: the page with the
highest score gets ordinal p, the lowest gets 1.  Ties are broken by URL so
the ordinal map is a deterministic permutation regardless of input order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConvergenceError, ValidationError
from .sitegraph import SiteGraph

DEFAULT_DAMPING = 0.85
DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 200


def pagerank(
    g: SiteGraph,
    damping: float = DEFAULT_DAMPING,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> dict[str, float]:
    """Power-iteration PageRank with uniform teleport.

    Dangling-page mass is redistributed uniformly over all pages.  Iteration
    stops once the L1 change between successive score vectors is <= tol.
    Pages are indexed in sorted-URL order, so an iteration is O(E) and the
    result is bit-identical under any permutation of g.pages.
    """
    if not 0.0 < damping < 1.0:
        raise ValidationError("damping must be strictly between 0 and 1")
    if tol <= 0.0:
        raise ValidationError("tol must be positive")
    if max_iter < 1:
        raise ValidationError("max_iter must be at least 1")

    order = sorted(g.pages)
    n = len(order)
    index = {u: i for i, u in enumerate(order)}
    out = [tuple(map(index.__getitem__, g.links[u])) for u in order]
    dangling_idx = [i for i, targets in enumerate(out) if not targets]
    scores = [1.0 / n] * n

    residual = float("inf")
    for _ in range(max_iter):
        # Plain left-to-right additions, not sum(), whose float sum is
        # compensated from Python 3.12 on: the scores stay bit-identical
        # across versions.
        dangling = 0.0
        for i in dangling_idx:
            dangling += scores[i]
        base = (1.0 - damping) / n + damping * dangling / n
        fresh = [base] * n
        for src, targets in enumerate(out):
            if targets:
                share = damping * scores[src] / len(targets)
                for dst in targets:
                    fresh[dst] += share
        residual = 0.0
        for f, s in zip(fresh, scores):
            residual += abs(f - s)
        scores = fresh
        if residual <= tol:
            return dict(zip(order, scores))
    raise ConvergenceError(
        f"pagerank did not converge after {max_iter} iterations "
        f"(residual {residual:.3e}, tolerance {tol:.3e})"
    )


def ordinal_ranks(scores: dict[str, float]) -> dict[str, int]:
    """Assign ordinals 1..p by ascending score; ties get the lower ordinal in
    ascending URL order."""
    if not scores:
        raise ValidationError("no scores to rank")
    ranked = sorted(scores, key=lambda u: (scores[u], u))
    return {url: i for i, url in enumerate(ranked, start=1)}


@dataclass(frozen=True)
class RankAssignment:
    """PageRank scores plus their ordinal permutation."""

    scores: dict[str, float]
    ordinals: dict[str, int]


def rank_pages(
    g: SiteGraph,
    damping: float = DEFAULT_DAMPING,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> RankAssignment:
    scores = pagerank(g, damping=damping, tol=tol, max_iter=max_iter)
    return RankAssignment(scores=scores, ordinals=ordinal_ranks(scores))
