"""Next-request prediction: rank a page's out-links, emit the top-W window.

Each candidate link carries a `LevelRank` priority pair whose tuple order is
the precedence: a higher level always wins; within a level, the higher
ordinal rank wins.  Links in the same class as the requested page are
preferred over everything else, so the full candidate order is: class match,
then priority, then URL as the final determinizer.

`predict` ranks plain key tuples, (class match, level, ordinal, url, class);
a `Candidate` is built from its key only when `Prediction.candidates` is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import itemgetter
from typing import NamedTuple

from .errors import UnknownPageError, ValidationError
from .model import Model, _settle


class LevelRank(NamedTuple):
    """Priority pair attached to a candidate link; the larger pair wins."""

    level: int
    rank: int


class Candidate(NamedTuple):
    url: str
    priority: LevelRank
    class_no: int
    class_match: bool


def compare_level_rank(a: LevelRank, b: LevelRank) -> int:
    """Total preorder on priority pairs.

    Returns 1 if `a` takes precedence, -1 if `b` does, 0 if equivalent.
    Level dominates; rank only decides within a level.
    """
    return (a > b) - (a < b)


# The first three fields of a ranked key are the precedence.
_PRECEDENCE = itemgetter(0, 1, 2)


@dataclass(frozen=True)
class Prediction:
    """Ordered candidates for one request; `window` is a prefix of their URLs.

    Equal predictions have equal ranked keys, hence equal candidates.  The
    hash leaves the key list out, since a list has none.
    """

    source: str
    window: tuple[str, ...]
    _ranked: list[tuple[bool, int, int, str, int]] = field(hash=False)

    @property
    def candidates(self) -> tuple[Candidate, ...]:
        """Every distinct out-link, best first, built from the ranked keys on
        each read."""
        return tuple(
            Candidate(url, LevelRank(level, ordinal), class_no, match)
            for match, level, ordinal, url, class_no in self._ranked
        )


def predict(model: Model, url: str, window: int) -> Prediction:
    """Predict the next requests after `url` and return the top-`window` URLs.

    Candidates are the page's distinct direct out-links, read from
    `Model.link_records` (built on a page's first prediction), each settled
    (see `Model.settled`) before its level is read.  Class 0 never counts as
    a match.  Raises UnknownPageError for URLs outside the model; the caller
    should then serve the request without prefetching.
    """
    if window < 0:
        raise ValidationError("window must be non-negative")
    source = model.records.get(url)
    if source is None:
        raise UnknownPageError(url)
    links = model.link_records.get(url)
    if links is None:
        records = model.records
        links = model.link_records[url] = tuple([records[t] for t in sorted(set(source.links))])

    s = model.schedule
    cutoff = -math.inf if s is None else s.last - s.threshold
    source_class = source.class_no
    ranked = []
    for rec in links:
        if rec.ts <= cutoff and rec.level > 1:
            _settle(s, rec)
        class_no = rec.class_no
        match = class_no == source_class and class_no != 0
        ranked.append((match, rec.level, rec.ordinal, rec.url, class_no))
    # The sort is stable under reverse=True, so URL order breaks full ties.
    ranked.sort(key=_PRECEDENCE, reverse=True)
    return Prediction(url, tuple([key[3] for key in ranked[:window]]), ranked)
