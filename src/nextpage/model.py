"""Initial model construction: class assignment, level partition, page records.

Classes group related pages: each dominant page seeds one class, and a
breadth-first traversal from the dominants (in declared order) hands each
newly reached page the class of the page that reached it.  Pages reached from
more than one class are "common" and are reassigned afterwards to the class
with the most links pointing at them.  Pages no traversal reaches sit in the
reserved class 0.

Levels partition the same pages by popularity: ordinal ranks are split into
L = ceil(sqrt(p)) contiguous groups, higher ordinals in higher levels.  Class
numbers stay fixed for the life of the model; levels move with the access
stream (see updates.py).  Demotions of idle pages are settled when a record is
read, so level, lc and ts are read through `Model.settled`.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import ModelFormatError, ValidationError
from .ranking import DEFAULT_DAMPING, RankAssignment, ordinal_ranks, pagerank
from .sitegraph import ModificationLog, SiteGraph

MODEL_CSV_HEADER = "key,url,lc,level,class,ts,dm,links"


@dataclass(slots=True)
class PageRecord:
    """One row of the model store.

    `lc` counts accesses at the current level (L accesses promote one level),
    `ts` is the last-access tick, `dm` the last-modification tick (0 = never).
    `dm_seen` is sweep bookkeeping: the newest dm value a modification sweep
    has already examined, so one modification promotes at most once.  It is
    not part of the dump format.
    """

    url: str
    lc: int
    level: int
    class_no: int
    ts: int
    dm: int
    links: tuple[str, ...]
    ordinal: int
    dm_seen: int = 0


class Schedule(NamedTuple):
    """The demotion sweeps run so far: one at each of `first`, `first +
    period`, ..., `last`, all under the same `threshold`."""

    first: int
    last: int
    threshold: int
    period: int


@dataclass
class Model:
    """The prediction model: URL-indexed records, the level cap and the clock.

    Mutated in place by the update engine; each record's class_no and
    ordinal never change after construction.  `schedule` holds the demotion
    sweeps run so far (None before the first); a record may owe demotions to
    them until it is read through `settled`.  `pending` holds the pages with a
    modification no modification sweep has examined yet.
    """

    records: dict[str, PageRecord]
    levels: int
    tick: int = 0
    schedule: Schedule | None = None
    pending: set[str] = field(default_factory=set)

    def __post_init__(self):
        self.pending.update(url for url, r in self.records.items() if r.dm > r.dm_seen)

    @property
    def cutoff(self) -> float:
        """A record above level 1 owes a demotion exactly when its ts is at
        or below this tick."""
        s = self.schedule
        return -math.inf if s is None else s.last - s.threshold

    def settled(self, url: str) -> PageRecord:
        """The record of `url` with the demotions the sweeps so far owe it applied.

        A sweep demotes a page above level 1 that has been idle for
        `threshold` ticks one level, resetting lc and stamping ts with the
        sweep tick.  So an untouched page is demoted at the first sweep tick
        s1 >= ts + threshold and then every `step` ticks (the threshold
        rounded up to whole periods) until it reaches level 1.
        """
        rec = self.records[url]
        s = self.schedule
        if s is not None and rec.level > 1 and rec.ts <= s.last - s.threshold:
            due = rec.ts + s.threshold
            s1 = max(s.first, due + (s.last - due) % s.period)
            step = -(-s.threshold // s.period) * s.period
            k = min(rec.level - 1, 1 + (s.last - s1) // step)
            rec.level -= k
            rec.lc = 0
            rec.ts = s1 + (k - 1) * step
        return rec

    def settle_all(self) -> None:
        """Settle every record that owes demotions."""
        cutoff = self.cutoff
        for url, rec in self.records.items():
            if rec.ts <= cutoff and rec.level > 1:
                self.settled(url)


def assign_classes(g: SiteGraph) -> tuple[dict[str, int], list[str]]:
    """First-touch breadth-first class assignment from the dominant pages.

    Returns the provisional class map (class 0 for unreached pages) and the
    list of common pages in the order their class conflict was discovered.
    Dominant pages keep their own class and are never marked common.
    """
    classes: dict[str, int] = {d: i for i, d in enumerate(g.dominants, start=1)}
    dominant_set = set(g.dominants)
    common: list[str] = []
    common_set: set[str] = set()

    frontier = deque(g.dominants)
    while frontier:
        page = frontier.popleft()
        page_class = classes[page]
        for target in g.links[page]:
            assigned = classes.get(target)
            if assigned is None:
                classes[target] = page_class
                frontier.append(target)
            elif assigned != page_class and target not in dominant_set and target not in common_set:
                common.append(target)
                common_set.add(target)

    for url in g.pages:
        classes.setdefault(url, 0)
    return classes, common


def resolve_common_pages(
    g: SiteGraph, classes: dict[str, int], common: list[str]
) -> dict[str, int]:
    """Reassign each common page to the class with the most links pointing to it.

    One pass over the edges counts each common page's in-links by source
    class, every occurrence of a duplicated link included; sources in class 0
    are not counted and ties go to the smaller class number.  A common page
    with no countable in-links keeps its provisional class.  All counts use
    the provisional map, so the outcome does not depend on the order of
    `common`.
    """
    counts: dict[str, Counter[int]] = {page: Counter() for page in common}
    for src in g.pages:
        src_class = classes[src]
        if src_class == 0:
            continue
        for target in g.links[src]:
            if target in counts:
                counts[target][src_class] += 1
    resolved = dict(classes)
    for page, by_class in counts.items():
        if by_class:
            resolved[page] = min(by_class, key=lambda c: (-by_class[c], c))
    return resolved


def assign_levels(
    ranks: RankAssignment, levels: int | None = None
) -> tuple[int, dict[str, int]]:
    """Split pages into L contiguous level groups by ordinal.

    L defaults to ceil(sqrt(p)).  Group sizes differ by at most one, with the
    larger groups at the lower levels, so the top level is never the bigger
    one.  Higher ordinal always means an equal or higher level.
    """
    p = len(ranks.ordinals)
    if p == 0:
        raise ValidationError("no pages to level")
    count = levels if levels is not None else math.isqrt(p - 1) + 1
    if count < 1:
        raise ValidationError("level count must be at least 1")

    base, rem = divmod(p, count)
    by_ordinal = sorted(ranks.ordinals, key=ranks.ordinals.get)
    level_map: dict[str, int] = {}
    idx = 0
    for level in range(1, count + 1):
        size = base + (1 if level <= rem else 0)
        for url in by_ordinal[idx : idx + size]:
            level_map[url] = level
        idx += size
    return count, level_map


def build_model(
    g: SiteGraph,
    ranks: RankAssignment,
    dm_log: ModificationLog | None = None,
    levels: int | None = None,
) -> Model:
    """Assemble the initial model; deterministic for identical inputs."""
    if set(ranks.ordinals) != set(g.pages):
        raise ValidationError("rank assignment does not cover the graph's pages")
    latest_dm = dm_log.latest() if dm_log is not None else {}
    for url in latest_dm:
        if url not in g.links:
            raise ValidationError(f"modification log names unknown page {url}")

    provisional, common = assign_classes(g)
    class_map = resolve_common_pages(g, provisional, common)
    level_count, level_map = assign_levels(ranks, levels=levels)

    records: dict[str, PageRecord] = {}
    for url in g.pages:
        records[url] = PageRecord(
            url=url,
            lc=0,
            level=level_map[url],
            class_no=class_map[url],
            ts=0,
            dm=latest_dm.get(url, 0),
            links=g.links[url],
            ordinal=ranks.ordinals[url],
        )
    return Model(records=records, levels=level_count)


def model_to_csv(model: Model) -> str:
    """Dump the store as CSV (key,url,lc,level,class,ts,dm,links), sorted by
    URL, every record settled first."""
    model.settle_all()
    lines = [MODEL_CSV_HEADER]
    for i, url in enumerate(sorted(model.records), start=1):
        r = model.records[url]
        lines.append(
            f"A{i},{r.url},{r.lc},{r.level},{r.class_no},{r.ts},{r.dm},{';'.join(r.links)}"
        )
    return "\n".join(lines) + "\n"


def model_from_csv(
    text: str,
    damping: float = DEFAULT_DAMPING,
    levels: int | None = None,
) -> Model:
    """Rebuild a Model from its CSV dump.

    Ordinals are not stored in the dump; they are recomputed by running
    PageRank over the stored link lists, which reproduces the build-time
    values exactly because scoring is independent of row order.  The level
    cap defaults to max(ceil(sqrt(p)), highest stored level) and the clock
    resumes at the newest stored tick; pass `levels` when the model was built
    with an explicit override.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != MODEL_CSV_HEADER:
        raise ModelFormatError(f"expected header {MODEL_CSV_HEADER!r}", line=1)

    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != 8:
            raise ModelFormatError("expected 8 comma-separated fields", lineno)
        _, url, lc, level, cls, ts, dm, links = fields
        try:
            row = (url, int(lc), int(level), int(cls), int(ts), int(dm))
        except ValueError:
            raise ModelFormatError("counter fields must be integers", lineno) from None
        rows.append((lineno, row, tuple(links.split(";")) if links else ()))

    if not rows:
        raise ModelFormatError("model dump has no rows")
    urls = [row[0] for _, row, _ in rows]
    url_set = set(urls)
    if len(url_set) != len(urls):
        raise ModelFormatError("duplicate URL in model dump")

    link_map = {row[0]: links for _, row, links in rows}
    for lineno, row, links in rows:
        for t in links:
            if t not in url_set:
                raise ModelFormatError(f"unknown page {t} in links", lineno)

    p = len(urls)
    default_cap = math.isqrt(p - 1) + 1
    max_level = max(row[2] for _, row, _ in rows)
    cap = levels if levels is not None else max(default_cap, max_level)

    # Same scoring path as the build, on the same link data.
    try:
        graph_for_rank = SiteGraph(
            pages=tuple(urls),
            links=link_map,
            dominants=(urls[0],),  # dominants are irrelevant to scoring
        )
    except ValidationError as e:
        raise ModelFormatError(str(e)) from e
    ordinals = ordinal_ranks(pagerank(graph_for_rank, damping=damping))

    records: dict[str, PageRecord] = {}
    tick = 0
    for lineno, (url, lc, level, cls, ts, dm), links in rows:
        if not 1 <= level <= cap:
            raise ModelFormatError(f"level {level} outside [1, {cap}]", lineno)
        if not 0 <= lc <= cap - 1:
            raise ModelFormatError(f"counter {lc} outside [0, {cap - 1}]", lineno)
        if cls < 0 or ts < 0 or dm < 0:
            raise ModelFormatError("negative class/ts/dm", lineno)
        records[url] = PageRecord(
            url=url, lc=lc, level=level, class_no=cls, ts=ts, dm=dm,
            links=links, ordinal=ordinals[url],
        )
        tick = max(tick, ts, dm)
    return Model(records=records, levels=cap, tick=tick)
