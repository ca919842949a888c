"""Site link-graph ingestion and validation.

The graph file is line oriented plain text:

    # comment
    index.html -> about.html news.html
    about.html ->
    @dominant news.html
    @home index.html

One line per page (``<url> -> <out-link>*``, whitespace separated), plus the
two directives.  ``@dominant`` names the seed pages that root the page
categories; if omitted, the out-links of the ``@home`` page are used instead.
File order is significant everywhere: it fixes category numbering and every
downstream tie-break.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import GraphFormatError, ModLogFormatError, ValidationError

# Kept out of URLs so the CSV dump and the ';'-joined link lists stay unambiguous.
_RESERVED_CHARS = set(",;#")


def _check_url(url: str) -> None:
    if not url or url.startswith("@") or url == "->":
        raise ValidationError(f"illegal URL {url!r}")
    # split() cuts at exactly the characters isspace() accepts
    if not _RESERVED_CHARS.isdisjoint(url) or url.split() != [url]:
        raise ValidationError(f"illegal character in URL {url!r}")


@dataclass(frozen=True)
class SiteGraph:
    """A site's pages, directed links, and dominant (seed) pages.

    Immutable after construction; safe to share between threads.  `links`
    must have exactly one entry per page (possibly empty), in file order.
    `class_map` holds the graph's resolved class map once `model.page_classes`
    has worked it out; it is worked out once per graph object, which is sound
    only because nothing changes `pages`, `links` or `dominants` after
    construction.  It is no part of the graph's value: equality, hash and
    repr ignore it, and a pickled graph carries it.
    """

    pages: tuple[str, ...]
    links: dict[str, tuple[str, ...]]
    dominants: tuple[str, ...]
    home: str | None = None
    class_map: dict[str, int] | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.pages:
            raise ValidationError("graph has no pages")
        seen = set()
        for url in self.pages:
            _check_url(url)
            if url in seen:
                raise ValidationError(f"duplicate page {url}")
            seen.add(url)
        if set(self.links) != seen:
            raise ValidationError("links must cover exactly the declared pages")
        for src, targets in self.links.items():
            for t in targets:
                if t not in seen:
                    raise ValidationError(f"unknown page {t} linked from {src}")
        if not self.dominants:
            raise ValidationError("dominant set is empty")
        if len(set(self.dominants)) != len(self.dominants):
            raise ValidationError("duplicate dominant page")
        for d in self.dominants:
            if d not in seen:
                raise ValidationError(f"dominant {d} is not a declared page")
        if self.home is not None and self.home not in seen:
            raise ValidationError(f"home {self.home} is not a declared page")


def _resolve_dominants(declared, home, links):
    """Explicit dominants win; otherwise the home page's out-links in file order."""
    if declared:
        return tuple(declared)
    if home is None:
        raise GraphFormatError("no @dominant pages and no @home page declared")
    seeds = tuple(dict.fromkeys(links.get(home, ())))
    if not seeds:
        raise GraphFormatError(f"home page {home} has no out-links to use as dominants")
    return seeds


def parse_graph(text: str) -> SiteGraph:
    """Parse a graph file into a validated SiteGraph.

    Raises GraphFormatError with a line number for syntax problems, duplicate
    pages, links to undeclared pages, or a missing dominant/home declaration.
    """
    pages: list[str] = []
    links: dict[str, tuple[str, ...]] = {}
    declared_dominants: list[str] = []
    home: str | None = None
    first_link_line: dict[str, int] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "@dominant":
            if len(tokens) < 2:
                raise GraphFormatError("@dominant needs at least one URL", lineno)
            declared_dominants.extend(tokens[1:])
            continue
        if tokens[0] == "@home":
            if len(tokens) != 2:
                raise GraphFormatError("@home needs exactly one URL", lineno)
            if home is not None:
                raise GraphFormatError("duplicate @home directive", lineno)
            home = tokens[1]
            continue
        if tokens[0].startswith("@"):
            raise GraphFormatError(f"unknown directive {tokens[0]}", lineno)
        if len(tokens) < 2 or tokens[1] != "->":
            raise GraphFormatError("expected '<url> -> <out-link>*'", lineno)
        url = tokens[0]
        if url in links:
            raise GraphFormatError(f"duplicate page {url}", lineno)
        try:
            _check_url(url)
            for t in tokens[2:]:
                _check_url(t)
        except ValidationError as e:
            raise GraphFormatError(str(e), lineno) from e
        pages.append(url)
        links[url] = tuple(tokens[2:])
        for t in tokens[2:]:
            first_link_line.setdefault(t, lineno)

    if not pages:
        raise GraphFormatError("graph file declares no pages")
    page_set = set(pages)
    for src, targets in links.items():
        for t in targets:
            if t not in page_set:
                raise GraphFormatError(f"unknown page {t}", first_link_line[t])
    for d in declared_dominants:
        if d not in page_set:
            raise GraphFormatError(f"unknown page {d} in @dominant")
    if len(set(declared_dominants)) != len(declared_dominants):
        raise GraphFormatError("duplicate page in @dominant")
    if home is not None and home not in page_set:
        raise GraphFormatError(f"unknown page {home} in @home")

    dominants = _resolve_dominants(declared_dominants, home, links)
    return SiteGraph(pages=tuple(pages), links=links, dominants=dominants, home=home)


def render_graph(g: SiteGraph) -> str:
    """Inverse of parse_graph: parse(render(g)) == g for every valid graph."""
    lines = [f"{url} -> {' '.join(g.links[url])}".rstrip() for url in g.pages]
    lines.append(f"@dominant {' '.join(g.dominants)}")
    if g.home is not None:
        lines.append(f"@home {g.home}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ModificationLog:
    """Page modification instants, as (url, logical tick) pairs in file order."""

    entries: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        last: dict[str, int] = {}
        for url, tick in self.entries:
            if tick < 0:
                raise ValidationError(f"negative modification tick for {url}")
            if tick < last.get(url, 0):
                raise ValidationError(f"modification ticks decrease for {url}")
            last[url] = tick

    def latest(self) -> dict[str, int]:
        """Last modification tick per URL."""
        return dict(self.entries)


def parse_modlog(text: str) -> ModificationLog:
    """Parse a modification log file: one `<tick> <url>` pair per line."""
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise ModLogFormatError("expected '<tick> <url>'", lineno)
        try:
            tick = int(tokens[0])
        except ValueError:
            raise ModLogFormatError(f"bad tick {tokens[0]!r}", lineno) from None
        entries.append((tokens[1], tick))
    try:
        return ModificationLog(entries=tuple(entries))
    except ValidationError as e:
        raise ModLogFormatError(str(e)) from e
