"""Independent reference implementations used to check the engine.

Everything here is deliberately written with different machinery than the
package under test: dense numpy matrices instead of adjacency dicts,
layer-by-layer frontier expansion instead of a FIFO queue, and an order-free
characterization of common pages instead of incremental marking.  The
exceptions are `dict_pagerank`, the engine's earlier URL-keyed PageRank loop,
kept as the reference for the exact floating-point results of the index-based
one; `eager_demotion_sweep` / `eager_modification_sweep`, the engine's
earlier sweeps over every page, kept as the reference for the demotions the
engine now settles when a record is read; `reference_predict`, the
engine's earlier predict that built every `Candidate` and sorted those, kept
as the reference for the one that ranks plain key tuples;
`rewind_then_settle_access`, the engine's earlier `record_access`, kept as
the reference for the one that tests for a backward clock in line; and
`oracle_generate_trace`, the engine's earlier trace generator that worked out
a page's same-class out-links on every visit, kept as the reference for the
exact trace (and so the exact random draws) of the one that works them out
once per page.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from itertools import permutations, product
from operator import attrgetter

import numpy as np

from nextpage.config import EngineConfig
from nextpage.errors import ConvergenceError, UnknownPageError, ValidationError
from nextpage.model import Model, _settle, assign_classes
from nextpage.predictor import Candidate, LevelRank
from nextpage.sitegraph import SiteGraph
from nextpage.updates import SessionEvent


def dense_pagerank(g: SiteGraph, damping: float = 0.85, iters: int = 5000, tol: float = 1e-15):
    """Dense-matrix power iteration; dangling rows spread uniformly."""
    pages = list(g.pages)
    index = {u: i for i, u in enumerate(pages)}
    n = len(pages)
    matrix = np.zeros((n, n))
    for src in pages:
        targets = g.links[src]
        if targets:
            for t in targets:
                matrix[index[src], index[t]] += 1.0 / len(targets)
        else:
            matrix[index[src], :] = 1.0 / n
    x = np.full(n, 1.0 / n)
    teleport = np.full(n, (1.0 - damping) / n)
    for _ in range(iters):
        fresh = teleport + damping * (x @ matrix)
        if np.abs(fresh - x).sum() <= tol:
            x = fresh
            break
        x = fresh
    return {u: float(x[index[u]]) for u in pages}


def dict_pagerank(
    g: SiteGraph, damping: float = 0.85, tol: float = 1e-10, max_iter: int = 200, residuals=None
):
    """URL-keyed power iteration doing the same float operations in the same
    order as `nextpage.ranking.pagerank`: sources in sorted-URL order, links in
    file order, dangling mass and residual added left to right in sorted-URL
    order (no `sum()`, which is compensated for floats from Python 3.12).  Each
    iteration's residual is appended to `residuals` when a list is given."""
    order = sorted(g.pages)
    n = len(order)
    degree = {u: len(g.links[u]) for u in order}
    scores = {u: 1.0 / n for u in order}

    residual = float("inf")
    for _ in range(max_iter):
        dangling = 0.0
        for u in order:
            if degree[u] == 0:
                dangling += scores[u]
        base = (1.0 - damping) / n + damping * dangling / n
        fresh = {u: base for u in order}
        for src in order:
            if degree[src] == 0:
                continue
            share = damping * scores[src] / degree[src]
            for dst in g.links[src]:
                fresh[dst] += share
        residual = 0.0
        for u in order:
            residual += abs(fresh[u] - scores[u])
        if residuals is not None:
            residuals.append(residual)
        scores = fresh
        if residual <= tol:
            return scores
    raise ConvergenceError(
        f"pagerank did not converge after {max_iter} iterations "
        f"(residual {residual:.3e}, tolerance {tol:.3e})"
    )


def first_touch_classes(g: SiteGraph, dominants=None):
    """Layered BFS first-touch class map plus the set of common pages.

    A reached page is common when some reached page of a different class
    links to it (dominants excepted: they keep their seeded class).
    """
    dominants = tuple(dominants if dominants is not None else g.dominants)
    classes = {d: i for i, d in enumerate(dominants, start=1)}
    layer = list(dominants)
    while layer:
        incoming = []
        for page in layer:
            for target in g.links[page]:
                if target not in classes:
                    classes[target] = classes[page]
                    incoming.append(target)
        layer = incoming

    dominant_set = set(dominants)
    common = set()
    for src, cls in list(classes.items()):
        for target in g.links[src]:
            if target in classes and classes[target] != cls and target not in dominant_set:
                common.add(target)

    full = {url: classes.get(url, 0) for url in g.pages}
    return full, common


def resolve_by_inlink_majority(g: SiteGraph, classes, common):
    """Brute-force common-page resolution over a reverse multigraph."""
    inbound = {url: Counter() for url in g.pages}
    for src in g.pages:
        for target in g.links[src]:
            if classes[src] != 0:
                inbound[target][classes[src]] += 1
    final = dict(classes)
    for page in common:
        counts = inbound[page]
        if counts:
            best = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[0][0]
            final[page] = best
    return final


def all_digraphs(n: int):
    """Every loop-free digraph on pages n0..n{n-1}, as link-map dicts."""
    pages = tuple(f"n{i}" for i in range(n))
    arcs = [(a, b) for a in pages for b in pages if a != b]
    for bits in product((False, True), repeat=len(arcs)):
        links = {u: [] for u in pages}
        for present, (a, b) in zip(bits, arcs):
            if present:
                links[a].append(b)
        yield pages, {u: tuple(ts) for u, ts in links.items()}


def dominant_choices(pages, max_dominants: int = 2):
    """All ordered dominant lists of size 1..max_dominants."""
    for size in range(1, max_dominants + 1):
        yield from permutations(pages, size)


def random_site_graph(rng: random.Random, n: int, max_out: int = 4, with_home: bool = False):
    """Random graph with 1..3 dominants; self-links allowed."""
    pages = tuple(f"n{i}" for i in range(n))
    links = {
        u: tuple(rng.choice(pages) for _ in range(rng.randint(0, max_out)))
        for u in pages
    }
    k = rng.randint(1, min(3, n))
    dominants = tuple(rng.sample(pages, k))
    home = rng.choice(pages) if with_home and rng.random() < 0.5 else None
    return SiteGraph(pages=pages, links=links, dominants=dominants, home=home)


def eager_demotion_sweep(model: Model, cfg: EngineConfig, now: int) -> list[str]:
    """Drop every page idle for demote_threshold ticks one level (floor 1),
    walking every record.  Reads the records' fields directly, so it must only
    run on a model that no lazy sweep has touched."""
    demoted = []
    for rec in model.records.values():
        if rec.level > 1 and now - rec.ts >= cfg.demote_threshold:
            rec.level -= 1
            rec.lc = 0
            rec.ts = now
            demoted.append(rec.url)
    return demoted


def eager_modification_sweep(model: Model, cfg: EngineConfig, now: int) -> list[str]:
    """Raise every page modified within recency_window one level (cap L),
    walking every record; each dm is examined by one sweep only."""
    promoted = []
    for rec in model.records.values():
        if rec.dm <= rec.dm_seen:
            continue
        if now - rec.dm <= cfg.recency_window and rec.level < model.levels:
            rec.level += 1
            rec.lc = 0
            rec.ts = now
            promoted.append(rec.url)
        rec.dm_seen = rec.dm
    return promoted


def eager_sweeps(model: Model, cfg: EngineConfig, after: int, upto: int) -> None:
    """`run_sweeps` with the eager reference sweeps: both, at every multiple
    of sweep_period in (after, upto], found by testing each tick."""
    for now in range(max(after, 0) + 1, upto + 1):
        if now % cfg.sweep_period == 0:
            model.tick = max(model.tick, now)
            eager_demotion_sweep(model, cfg, now)
            eager_modification_sweep(model, cfg, now)


def rewind_then_settle_access(model: Model, url: str, now: int) -> bool:
    """`record_access` as two steps, both taken on every access: first end
    the schedule (settling every page) if it holds a sweep at or after
    now + threshold, then settle the record against whatever schedule is
    left; then count the access."""
    rec = model.records.get(url)
    if rec is None:
        raise UnknownPageError(url)
    s = model.schedule
    if s is not None and now + s.threshold <= s.last:
        model.settle_all()
        model.schedule = None
    s = model.schedule
    if s is not None and rec.level > 1 and rec.ts <= s.last - s.threshold:
        _settle(s, rec)
    if rec.level >= model.levels:
        rec.ts = now
        return False
    if rec.lc < model.levels - 1:
        rec.lc += 1
        rec.ts = now
        return False
    rec.level += 1
    rec.lc = 0
    rec.ts = now
    return True


@dataclass(frozen=True)
class Prediction:
    """The engine's earlier prediction record: every candidate stored."""

    source: str
    candidates: tuple[Candidate, ...]
    window: tuple[str, ...]


def reference_predict(model: Model, url: str, window: int) -> Prediction:
    """Build a `Candidate` for every distinct out-link, each settled first,
    sort them by (class_match, priority) descending, stably, and take the
    first `window` URLs."""
    if window < 0:
        raise ValidationError("window must be non-negative")
    source = model.records.get(url)
    if source is None:
        raise UnknownPageError(url)

    candidates = []
    for target in sorted(set(source.links)):
        rec = model.settled(target)
        candidates.append(
            Candidate(
                target,
                LevelRank(rec.level, rec.ordinal),
                rec.class_no,
                rec.class_no == source.class_no and rec.class_no != 0,
            )
        )
    candidates.sort(key=attrgetter("class_match", "priority"), reverse=True)
    ordered = tuple(candidates)
    return Prediction(
        source=url,
        candidates=ordered,
        window=tuple(c.url for c in ordered[:window]),
    )


def oracle_generate_trace(
    g: SiteGraph, sessions: int, length: int, affinity: float, seed: int
) -> list[SessionEvent]:
    """Round-robin class-affine sessions, recomputing each page's same-class
    out-links at every step; common pages are resolved by the brute-force
    `resolve_by_inlink_majority`."""
    if sessions < 1 or length < 1:
        raise ValidationError("sessions and length must be at least 1")
    if not 0.0 <= affinity <= 1.0:
        raise ValidationError("affinity must be within [0, 1]")

    rng = random.Random(seed)
    provisional, common = assign_classes(g)
    classes = resolve_by_inlink_majority(g, provisional, common)

    starts = [g.home if g.home is not None else rng.choice(g.pages) for _ in range(sessions)]
    current = list(starts)
    events: list[SessionEvent] = []
    tick = 0
    for step in range(length):
        for s in range(sessions):
            if step == 0:
                url = starts[s]
            else:
                here = current[s]
                outs = g.links[here]
                if not outs:
                    url = starts[s]
                else:
                    same_class = (
                        [t for t in outs if classes[t] == classes[here]]
                        if classes[here] != 0
                        else []
                    )
                    if rng.random() < affinity and same_class:
                        url = rng.choice(same_class)
                    else:
                        url = rng.choice(outs)
            tick += 1
            events.append(SessionEvent(session_id=f"s{s + 1}", url=url, tick=tick))
            current[s] = url
    return events
