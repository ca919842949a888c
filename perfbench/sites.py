"""Seeded synthetic inputs for the benchmark: sites and modification logs.

`site_text` renders a portal-shaped link graph in the engine's graph file
format.  It has the shape of `scripts/make_demo_site.build_site`: a home page
fanning out to one root per section (the dominant pages), each root linking
to its first four members, and each member linking forward, back to its
root, to one or two random members of its own section and, with probability
`cross_rate`, to a random member of another section.  At (8, 12, 0.12, 95)
the text equals the committed `data/demo_site.txt` byte for byte, so a larger
site built here is the demo site scaled up.
"""

from __future__ import annotations

import random


def _root(i: int) -> str:
    return f"/s{i}/"


def _member(i: int, j: int) -> str:
    return f"/s{i}/p{j}"


def site_text(sections: int, members: int, cross_rate: float, seed: int) -> str:
    """Graph file text for a site of 1 + sections * (members + 1) pages.

    The random draws happen in the same order as in the demo-site script, so
    equal arguments give equal sites.
    """
    rng = random.Random(seed)
    roots = [_root(i) for i in range(1, sections + 1)]
    lines = ["/ -> " + " ".join(roots)]
    for i in range(1, sections + 1):
        lines.append(f"{_root(i)} -> " + " ".join(_member(i, j) for j in range(1, 5)))
        for j in range(1, members + 1):
            out = []
            if j < members:
                out.append(_member(i, j + 1))
            out.append(_root(i))
            for _ in range(rng.randint(1, 2)):
                out.append(_member(i, rng.randint(1, members)))
            if rng.random() < cross_rate:
                other = rng.choice([k for k in range(1, sections + 1) if k != i])
                out.append(_member(other, rng.randint(1, members)))
            links = []
            for url in out:
                if url != _member(i, j) and url not in links:
                    links.append(url)
            lines.append(f"{_member(i, j)} -> {' '.join(links)}".rstrip())
    lines.append("@dominant " + " ".join(roots))
    lines.append("@home /")
    return "\n".join(lines) + "\n"


def modlog_text(urls: list[str], last_tick: int, every: int, seed: int) -> str:
    """Modification log text: about one change per `every` ticks of 1..last_tick.

    Ticks are drawn uniformly and written in ascending order, so each page's
    ticks never decrease, as the log format requires.
    """
    rng = random.Random(seed)
    ticks = sorted(rng.randint(1, last_tick) for _ in range(max(1, last_tick // every)))
    return "".join(f"{tick} {rng.choice(urls)}\n" for tick in ticks)
