"""The six-configuration algebra and the configuration classes of a run.

A configuration describes, for one vertex on a noose, the clockwise
pattern of in- and out-edge blocks inside the noose; the six possible
patterns are the strings i, o, io, oi, oio, ioi.  A vertex whose inside
pattern collapses to a substring of the assigned configuration realizes
it (empty blocks are allowed), and two configurations merge into a
bimodal vertex exactly when their concatenation collapses to a substring
of oio or ioi.

A vertex's inside darts on an arc form one contiguous run, and the edges
kept inside the arc leave a subsequence of it.  Let P be the
configurations that are subsequences of the collapsed run.  A kept
subsequence realizes configuration c exactly when it is empty or its
collapse is a member of P that realizes c, so c matters to the arc only
through the set {p in P : realizes(p, c)}: its *class*.  ``class_map``
numbers the classes by their smallest configuration.  The map depends
only on the run's first letter and its switch count, and every run with
two or more switches has six classes, so ``CLASS_MAPS`` holds the eight
maps keyed by (first dart end, switches capped at 3).  ``CLASS_ORDERS``
orders the classes of each map by inclusion of their sets, on every run
that has the map.
"""

from __future__ import annotations

CONFIGS = ("i", "o", "io", "oi", "oio", "ioi")
CONFIG_INDEX = {c: k for k, c in enumerate(CONFIGS)}


def collapse(letters: str) -> str:
    out = []
    for ch in letters:
        if not out or out[-1] != ch:
            out.append(ch)
    return "".join(out)


def compatible(x: str, y: str) -> bool:
    """Whether two configurations merge into a bimodal cyclic pattern:
    their concatenation, collapsed, is a substring of oio or ioi.  The
    concatenation order does not matter."""
    merged = collapse(x + y)
    return merged in "oio" or merged in "ioi"


def compatible_wrt(x: str, y: str, target: str) -> bool:
    """Whether x followed by y (order matters) collapses to a substring of
    the target configuration."""
    return collapse(x + y) in target


def realizes(pattern: str, config: str) -> bool:
    """Whether a dart direction sequence fits a configuration, i.e. its
    collapse is a substring of the configuration (empty always fits)."""
    p = collapse(pattern)
    return p == "" or p in config


def _pattern_sets(run: str) -> tuple[frozenset, ...]:
    """Per configuration, its class's pattern set for a vertex whose
    inside darts read ``run`` (o at a tail, i at a head): the
    configurations that are subsequences of the collapsed run and realize
    it."""
    run = collapse(run)

    def fits(p: str) -> bool:
        letters = iter(run)
        return all(ch in letters for ch in p)

    patterns = [p for p in CONFIGS if fits(p)]
    return tuple(frozenset(p for p in patterns if realizes(p, c)) for c in CONFIGS)


def _numbered(sets: tuple[frozenset, ...]) -> tuple[int, ...]:
    number: dict[frozenset, int] = {}
    return tuple(number.setdefault(s, len(number)) for s in sets)


def class_map(run: str) -> tuple[int, ...]:
    """Configuration index -> class index for a vertex whose inside darts
    read ``run``, classes numbered in the order of their smallest
    configuration."""
    return _numbered(_pattern_sets(run))


def _class_maps_and_orders() -> tuple[dict, dict]:
    """``CLASS_MAPS`` and ``CLASS_ORDERS``, from the pattern sets of each
    run shape, which are not kept.  A run longer than its capped shape
    has the same pattern sets: every configuration is a subsequence."""
    sets = {(end, switches): _pattern_sets(("oioi", "ioio")[end][:switches + 1])
            for end in (0, 1) for switches in range(4)}
    maps = {key: _numbered(by_config) for key, by_config in sets.items()}
    orders = {}
    for cmap in dict.fromkeys(maps.values()):
        reps = [cmap.index(k) for k in range(max(cmap) + 1)]
        runs = [by_config for key, by_config in sets.items() if maps[key] == cmap]
        orders[cmap] = tuple(tuple(all(run[a] <= run[b] for run in runs) for b in reps)
                             for a in reps)
    return maps, orders


# (end of the run's first dart, switches capped at 3) -> class map; dart
# end 0 is a tail (o), 1 a head (i).  Class map -> le, where le[a][b] iff
# class a's pattern set lies within class b's on every run with that map.
# Tables are monotone in it: a kept set that fits a class fits every class
# above it.  One run's inclusion order alone is unsound for a shared map:
# under oio the ioi class lies within the oio class, under oioi it does not.
CLASS_MAPS, CLASS_ORDERS = _class_maps_and_orders()
