"""Per-layer attribution of a ``cProfile`` run.

Every module under ``src/repro`` belongs to exactly one layer group, named
after the package layout (``sim`` and ``phy`` are split in two).  A repro
function's self time and call count go to its own group.  Self time spent in
non-repro code (builtins, ``heapq``, numpy, the standard library) is credited
to the repro layers that called it, split along pstats' caller edges and
followed up through non-repro callers to the nearest repro frame.  Time with
no repro frame above it goes to ``other``.
"""

from __future__ import annotations

import os

#: group -> path rules relative to the ``repro`` package: a rule ending in
#: ``/`` is a directory prefix, anything else one file.  No two rules overlap.
GROUPS: dict[str, tuple[str, ...]] = {
    "sim.engine": ("sim/__init__.py", "sim/engine.py", "sim/events.py"),
    "sim.components": ("sim/components.py", "sim/rng.py", "sim/trace.py"),
    "phy.radio": ("phy/__init__.py", "phy/radio.py"),
    "phy.channel": ("phy/channel.py", "phy/spatial.py", "phy/propagation.py",
                    "phy/energy.py"),
    "mac": ("mac/",),
    "net": ("net/",),
    "core": ("core/",),
    "app": ("app/",),
    "topology": ("topology/",),
    "faults": ("faults/",),
    "obs": ("obs/",),
    "stats": ("stats/",),
    "experiments": ("experiments/",),
    "campaign": ("campaign/",),
    "serve": ("serve/",),
    "dist": ("dist/",),
    "analysis": ("analysis/",),
    "viz": ("viz/",),
    "api": ("__init__.py", "api.py"),
}
OTHER = "other"


def matching_groups(rel: str) -> list[str]:
    """Every group with a rule matching ``rel`` (a posix path relative to
    the ``repro`` package); the layer map is sound when this has length 1."""
    return [group for group, rules in GROUPS.items()
            if any(rel.startswith(rule) if rule.endswith("/") else rel == rule
                   for rule in rules)]


def group_of(filename: str, repro_dir: str) -> str | None:
    """The layer group of a profiled function's file; None outside repro."""
    prefix = repro_dir.rstrip(os.sep) + os.sep
    if not filename.startswith(prefix):
        return None
    groups = matching_groups(filename[len(prefix):].replace(os.sep, "/"))
    return groups[0] if groups else OTHER


def attribute(stats: dict) -> dict[str, float]:
    """``{"<group>.self_s", "<group>.calls"}`` from ``pstats.Stats().stats``.

    ``calls`` counts calls of the group's own functions (exact); ``self_s``
    is profiler-weighted self time including the non-repro code it called.
    ``other.calls`` counts non-repro calls with no repro frame above them.
    """
    import repro

    repro_dir = os.path.dirname(repro.__file__)
    owner = {func: group_of(func[0], repro_dir) for func in stats}
    totals = {group: {"self_s": 0.0, "calls": 0}
              for group in (*GROUPS, OTHER)}
    shares_memo: dict = {}

    def shares(func, active: frozenset) -> dict[str, float]:
        """How a non-repro function's cost splits over repro layers.
        Recursive edges are skipped: a recursive call inherits the split of
        the outer call."""
        if func in shares_memo:
            return shares_memo[func]
        active = active | {func}
        weights: dict[str, float] = {}
        total = 0.0
        for caller, edge in stats[func][4].items():
            weight = edge[3]  # cumulative time of func under this caller
            if weight <= 0.0 or caller in active:
                continue
            total += weight
            if caller not in owner:
                split = {OTHER: 1.0}
            elif owner[caller] is not None:
                split = {owner[caller]: 1.0}
            else:
                split = shares(caller, active)
            for g, frac in split.items():
                weights[g] = weights.get(g, 0.0) + weight * frac
        result = ({g: w / total for g, w in weights.items()} if total > 0.0
                  else {OTHER: 1.0})
        shares_memo[func] = result
        return result

    for func, (_cc, nc, tt, _ct, _callers) in stats.items():
        group = owner[func]
        if group is not None:
            totals[group]["self_s"] += tt
            totals[group]["calls"] += nc
            continue
        split = shares(func, frozenset())
        for g, frac in split.items():
            totals[g]["self_s"] += tt * frac
        if split == {OTHER: 1.0}:
            totals[OTHER]["calls"] += nc
    return {f"{group}.{field}": value for group, fields in totals.items()
            for field, value in fields.items()}
