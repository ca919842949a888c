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
read, so level, lc and ts are read through `Model.settled`, or through
`_settle` on a record already at hand.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import islice
from typing import NamedTuple

from .errors import ModelFormatError, ValidationError
# Nothing here calls `pagerank` or `ordinal_ranks`; they stay importable from
# this module because perfbench's traced run wraps `model.pagerank` and
# `model.ordinal_ranks` by attribute.
from .ranking import RankAssignment, ordinal_ranks, pagerank  # noqa: F401
from .sitegraph import ModificationLog, SiteGraph, _check_url

# A dump opens with the tag line `nextpage-model v2,levels=<L>`, then the
# column header.
MODEL_V2_TAG = "nextpage-model v2"
MODEL_V2_HEADER = "key,url,lc,level,class,ts,dm,ordinal,dm_seen,links"
_V2_TAG_LINE = f"{MODEL_V2_TAG},levels=<L>"


@dataclass(slots=True)
class PageRecord:
    """One row of the model store.

    `lc` counts accesses at the current level (L accesses promote one level),
    `ts` is the last-access tick, `dm` the last-modification tick (0 = never).
    `dm_seen` is sweep bookkeeping: the newest dm value a modification sweep
    has already examined, so one modification promotes at most once.
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


def _settle(s: Schedule, rec: PageRecord) -> None:
    """Apply to `rec` the demotions the sweeps of `s` owe it.

    The caller has checked that it owes some: a record above level 1 owes
    demotions exactly when its ts is at or below `s.last - s.threshold`
    (the cutoff).  A sweep demotes a page above level 1 that has been
    idle for `threshold` ticks one level, resetting lc and stamping ts with
    the sweep tick.  So an untouched page is demoted at the first sweep tick
    s1 >= ts + threshold and then every `step` ticks (the threshold rounded
    up to whole periods) until it reaches level 1.
    """
    period = s.period
    due = rec.ts + s.threshold
    s1 = due + (s.last - due) % period
    if s1 < s.first:
        s1 = s.first
    step = -(-s.threshold // period) * period
    k = 1 + (s.last - s1) // step
    if k >= rec.level:
        k = rec.level - 1
    rec.level -= k
    rec.lc = 0
    rec.ts = s1 + (k - 1) * step


@dataclass
class Model:
    """The prediction model: URL-indexed records, the level cap and the clock.

    Mutated in place by the update engine; each record's class_no and
    ordinal never change after construction.  `schedule` holds the demotion
    sweeps run so far (None before the first); a record may owe demotions to
    them until it is read through `settled`.  `pending` holds the pages with a
    modification no modification sweep has examined yet.  `link_records`
    caches each page's distinct out-link records, sorted by URL, as `predict`
    first asks for them; it is not part of the model's state, so equality,
    repr and the dump ignore it.  It holds the record objects themselves, so
    records are changed in place, never replaced.
    """

    records: dict[str, PageRecord]
    levels: int
    tick: int = 0
    schedule: Schedule | None = None
    pending: set[str] = field(default_factory=set)
    link_records: dict[str, tuple[PageRecord, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        self.pending.update(url for url, r in self.records.items() if r.dm > r.dm_seen)

    def settled(self, url: str) -> PageRecord:
        """The record of `url` with the demotions the sweeps so far owe it
        applied (see `_settle`)."""
        rec = self.records[url]
        s = self.schedule
        if s is not None and rec.level > 1 and rec.ts <= s.last - s.threshold:
            _settle(s, rec)
        return rec

    def settle_all(self) -> None:
        """Settle every record that owes demotions."""
        s = self.schedule
        if s is None:
            return
        cutoff = s.last - s.threshold
        for rec in self.records.values():
            if rec.ts <= cutoff and rec.level > 1:
                _settle(s, rec)


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

    One tally over the edges counts each (common page, source class) pair,
    every occurrence of a duplicated link included; sources in class 0 are
    not counted and ties go to the smaller class number.  A common page with
    no countable in-links keeps its provisional class.  All counts use the
    provisional map, so the outcome does not depend on the order of `common`.
    """
    common_set = set(common)
    tally = Counter(
        (target, src_class)
        for src in g.pages
        if (src_class := classes[src])
        for target in g.links[src]
        if target in common_set
    )
    resolved = dict(classes)
    most: dict[str, int] = {}
    for (page, cls), n in tally.items():
        # the first class counted for a page, then any with more in-links,
        # or as many and a smaller number
        if n > most.get(page, 0) or (n == most[page] and cls < resolved[page]):
            most[page] = n
            resolved[page] = cls
    return resolved


def page_classes(g: SiteGraph) -> dict[str, int]:
    """Every page's class: `assign_classes`, then `resolve_common_pages`.

    Worked out once per graph object, on the first call, and kept in
    `g.class_map`; later calls return that map, which callers must not
    change.
    """
    classes = g.class_map
    if classes is None:
        classes = resolve_common_pages(g, *assign_classes(g))
        # SiteGraph is frozen; the map is a cache, not part of its value.
        object.__setattr__(g, "class_map", classes)
    return classes


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
    """Assemble the initial model; deterministic for identical inputs.

    Classes come from `page_classes`, worked out once per graph object, so
    a second build from the same graph, or a trace generated from it, does
    not redo them.  The clock starts at the newest modification tick, where
    `model_from_csv` resumes it on a reload of the dump.
    """
    if set(ranks.ordinals) != set(g.pages):
        raise ValidationError("rank assignment does not cover the graph's pages")
    # The rule `model_from_csv` applies, so that every build's dump reloads.
    if set(ranks.ordinals.values()) != set(range(1, len(g.pages) + 1)):
        raise ValidationError(f"ordinals are not a permutation of 1..{len(g.pages)}")
    latest_dm = dm_log.latest() if dm_log is not None else {}
    for url in latest_dm:
        if url not in g.links:
            raise ValidationError(f"modification log names unknown page {url}")

    class_map = page_classes(g)
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
    return Model(records=records, levels=level_count, tick=max(latest_dm.values(), default=0))


def model_to_csv(model: Model) -> str:
    """Dump a model as a v2 model CSV.

    Line 1 is `nextpage-model v2,levels=<L>`, which stays the same for the
    model's whole life; line 2 is the column header; then one row per page,
    sorted by URL, every record settled first.
    """
    model.settle_all()
    records = [model.records[url] for url in sorted(model.records)]
    pieces = [f"{MODEL_V2_TAG},levels={model.levels}\n{MODEL_V2_HEADER}\n"]
    # A thousand rows at a time, so that the lines of every row are never
    # held beside the text at once.
    for first in range(0, len(records), 1000):
        lines = [
            f"A{i},{r.url},{r.lc},{r.level},{r.class_no},{r.ts},{r.dm},{r.ordinal},{r.dm_seen},{';'.join(r.links)}\n"
            for i, r in enumerate(records[first : first + 1000], start=first + 1)
        ]
        pieces.append("".join(lines))
    return "".join(pieces)


def _numbered(lines: list[str]) -> Iterator[tuple[int, str]]:
    """(line number in the file, line) for each non-blank line."""
    return ((n, line) for n, line in enumerate(lines, start=1) if line.strip())


def _parse_levels_line(line: str, lineno: int) -> int:
    """The level cap from a dump's first line, `nextpage-model v2,levels=<L>`,
    found at line `lineno` of the file."""
    tag, _, setting = line.partition(",")
    key, _, value = setting.partition("=")
    try:
        cap = int(value)
    except ValueError:
        cap = 0
    if tag != MODEL_V2_TAG or key != "levels" or cap < 1:
        raise ModelFormatError(f"expected header {_V2_TAG_LINE!r}", line=lineno)
    return cap


def model_from_csv(text: str) -> Model:
    """Rebuild a Model from its CSV dump.

    The dump stores the level cap, each page's ordinal and its dm_seen, so
    loading it is a parse and PageRank never runs.  Every row is checked:
    field count, integers, URL syntax, duplicate URLs, value ranges and link
    targets.  The text must end in a newline, so a dump cut short mid-row
    is rejected rather than loaded with that row's links truncated.  The
    clock resumes at the newest stored tick.
    """
    lines = text.splitlines()
    rows = _numbered(lines)
    tag_lineno, tag = next(rows, (1, ""))
    cap = _parse_levels_line(tag, tag_lineno)
    header_lineno, header = next(rows, (tag_lineno + 1, ""))
    if header != MODEL_V2_HEADER:
        raise ModelFormatError(f"expected header {MODEL_V2_HEADER!r}", line=header_lineno)
    if not text.endswith("\n"):
        raise ModelFormatError("model dump does not end in a newline: it was cut short")
    p = sum(1 for line in lines if line.strip()) - 2
    if p == 0:
        raise ModelFormatError("model dump has no rows")

    records: dict[str, PageRecord] = {}
    seen_ordinals: set[int] = set()
    # One string object per distinct URL, shared by its row and every link
    # to it, so the link lists hold no strings of their own.
    shared: dict[str, str] = {}
    for lineno, line in rows:
        fields = line.split(",")
        if len(fields) != 10:
            raise ModelFormatError("expected 10 comma-separated fields", lineno)
        try:
            lc, level, cls, ts, dm, ordinal, dm_seen = map(int, fields[2:-1])
        except ValueError:
            raise ModelFormatError("counter fields must be integers", lineno) from None
        url = shared.setdefault(fields[1], fields[1])
        try:
            _check_url(url)
        except ValidationError as e:
            raise ModelFormatError(str(e), lineno) from None
        if url in records:
            raise ModelFormatError("duplicate URL in model dump", lineno)
        if not 1 <= level <= cap:
            raise ModelFormatError(f"level {level} outside [1, {cap}]", lineno)
        if not 0 <= lc <= cap - 1:
            raise ModelFormatError(f"counter {lc} outside [0, {cap - 1}]", lineno)
        if cls < 0 or ts < 0 or dm < 0:
            raise ModelFormatError("negative class/ts/dm", lineno)
        if not 1 <= ordinal <= p or ordinal in seen_ordinals:
            raise ModelFormatError(f"ordinals are not a permutation of 1..{p}", lineno)
        seen_ordinals.add(ordinal)
        if not 0 <= dm_seen <= dm:
            raise ModelFormatError(f"dm_seen {dm_seen} outside [0, {dm}]", lineno)
        targets = fields[-1].split(";") if fields[-1] else ()
        links = tuple(map(shared.setdefault, targets, targets))
        records[url] = PageRecord(url, lc, level, cls, ts, dm, links, ordinal, dm_seen)

    # `shared` holds every row's URL and every link target, so it outgrows
    # `records` only when a link names no row; then find the first such row.
    if len(shared) > len(records):
        for (lineno, _), rec in zip(islice(_numbered(lines), 2, None), records.values()):
            for t in rec.links:
                if t not in records:
                    raise ModelFormatError(f"unknown page {t} in links", lineno)
    tick = max(max(r.ts, r.dm) for r in records.values())
    return Model(records=records, levels=cap, tick=tick)
