"""Next-request prediction: rank a page's out-links, emit the top-W window.

Each candidate link carries a `LevelRank` priority pair whose tuple order is
the precedence: a higher level always wins; within a level, the higher
ordinal rank wins.  Links in the same class as the requested page are
preferred over everything else, so the full candidate order is: class match,
then priority, then URL as the final determinizer.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import NamedTuple

from .errors import UnknownPageError, ValidationError
from .model import Model


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


@dataclass(frozen=True)
class Prediction:
    """Ordered candidates for one request; `window` is a prefix of their URLs."""

    source: str
    candidates: tuple[Candidate, ...]
    window: tuple[str, ...]


def predict(model: Model, url: str, window: int) -> Prediction:
    """Predict the next requests after `url` and return the top-`window` URLs.

    Candidates are the page's distinct direct out-links, each settled (see
    `Model.settled`) before its level is read.  Class 0 never counts as a
    match.  Raises UnknownPageError for URLs outside the model;
    the caller should then serve the request without prefetching.
    """
    if window < 0:
        raise ValidationError("window must be non-negative")
    source = model.records.get(url)
    if source is None:
        raise UnknownPageError(url)

    records = model.records
    cutoff = model.cutoff
    candidates = []
    for target in sorted(set(source.links)):
        rec = records[target]
        if rec.ts <= cutoff and rec.level > 1:
            rec = model.settled(target)
        candidates.append(
            Candidate(
                target,
                LevelRank(rec.level, rec.ordinal),
                rec.class_no,
                rec.class_no == source.class_no and rec.class_no != 0,
            )
        )
    # The sort is stable under reverse=True, so URL order breaks full ties.
    candidates.sort(key=attrgetter("class_match", "priority"), reverse=True)
    ordered = tuple(candidates)
    return Prediction(
        source=url,
        candidates=ordered,
        window=tuple(c.url for c in ordered[:window]),
    )
