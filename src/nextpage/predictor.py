"""Next-request prediction: rank a page's out-links, emit the top-W window.

Each candidate link carries a (level, rank) priority pair.  A higher level
always takes precedence; within a level, the higher ordinal rank wins.  Links
in the same class as the requested page are preferred over everything else,
so the full candidate order is: class match, then priority, then URL as the
final determinizer.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UnknownPageError, ValidationError
from .model import Model


@dataclass(frozen=True)
class LevelRank:
    """Priority pair attached to a candidate link."""

    level: int
    rank: int


@dataclass(frozen=True)
class Candidate:
    url: str
    priority: LevelRank
    class_no: int
    class_match: bool


def candidate_key(c: Candidate) -> tuple[bool, int, int, str]:
    """The candidate order as a sort key; a smaller key comes first.

    Class match first, then the higher level, then the higher rank within a
    level, then URL.  `predict` sorts by this key, and `compare_level_rank`
    reads the priority order off it.
    """
    return (not c.class_match, -c.priority.level, -c.priority.rank, c.url)


def compare_level_rank(a: LevelRank, b: LevelRank) -> int:
    """Total preorder on priority pairs.

    Returns 1 if `a` takes precedence, -1 if `b` does, 0 if equivalent.
    Level dominates; rank only decides within a level.  Decided by
    `candidate_key` on candidates that differ only in priority.
    """
    ka = candidate_key(Candidate(url="", priority=a, class_no=0, class_match=False))
    kb = candidate_key(Candidate(url="", priority=b, class_no=0, class_match=False))
    return (ka < kb) - (ka > kb)


@dataclass(frozen=True)
class Prediction:
    """Ordered candidates for one request; `window` is a prefix of their URLs."""

    source: str
    candidates: tuple[Candidate, ...]
    window: tuple[str, ...]


def predict(model: Model, url: str, window: int) -> Prediction:
    """Predict the next requests after `url` and return the top-`window` URLs.

    Candidates are the page's direct out-links (first occurrence wins on
    duplicates).  Class 0 never counts as a match.  Raises UnknownPageError
    for URLs outside the model; the caller should then serve the request
    without prefetching.
    """
    if window < 0:
        raise ValidationError("window must be non-negative")
    source = model.records.get(url)
    if source is None:
        raise UnknownPageError(url)

    seen: set[str] = set()
    candidates = []
    for target in source.links:
        if target in seen:
            continue
        seen.add(target)
        rec = model.records[target]
        candidates.append(
            Candidate(
                url=target,
                priority=LevelRank(level=rec.level, rank=rec.ordinal),
                class_no=rec.class_no,
                class_match=rec.class_no == source.class_no and rec.class_no != 0,
            )
        )
    candidates.sort(key=candidate_key)
    ordered = tuple(candidates)
    return Prediction(
        source=url,
        candidates=ordered,
        window=tuple(c.url for c in ordered[:window]),
    )
