"""Content addressing for sweep cells.

A cell's identity is everything that determines its result: which runner,
which (protocol, x, seed) coordinates, every field of the experiment config
(nested dataclasses included), any extra keyword arguments, and the model:
a digest of the source of every module that can change a result (see
:func:`model_fingerprint`).  Two invocations that agree on all of those
produce the same :class:`~repro.stats.metrics.MetricsSummary`, so their
results can be shared through the cache; change any one of them and the
key — hence the cache entry — changes with it.

Canonicalization is deliberately conservative: dataclasses are tagged with
their class name so two config types with identical fields don't collide,
floats go through ``repr`` (shortest round-trip form, exact), and unknown
objects fall back to ``repr`` so *something* always hashes rather than
silently aliasing distinct configs.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from pathlib import Path
from typing import Any, Callable, Mapping

import numpy as np

__all__ = ["canonicalize", "cell_key", "model_fingerprint", "runner_name_of"]

#: Sub-packages of ``repro`` that cannot change a cell's result — reporting,
#: serving, orchestration and plotting — so editing them keeps the cache warm.
_NOT_MODEL = frozenset({"obs", "serve", "campaign", "viz"})


def canonicalize(obj: Any) -> Any:
    """Reduce ``obj`` to a deterministic JSON-serializable form."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        # repr is the shortest exact round-trip form; avoids JSON float quirks.
        return {"__float__": repr(obj)}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {
            f.name: canonicalize(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
        return {"__dataclass__": type(obj).__name__, "fields": fields}
    if isinstance(obj, np.ndarray):
        return {"__ndarray__": canonicalize(obj.tolist())}
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return canonicalize(float(obj))
    if isinstance(obj, Mapping):
        return {
            "__mapping__": sorted(
                (str(k), canonicalize(v)) for k, v in obj.items()
            )
        }
    if isinstance(obj, (set, frozenset)):
        return {"__set__": sorted(json.dumps(canonicalize(v), sort_keys=True)
                                  for v in obj)}
    if isinstance(obj, (list, tuple)):
        return [canonicalize(v) for v in obj]
    if isinstance(obj, type):
        return {"__type__": f"{obj.__module__}.{obj.__qualname__}"}
    if callable(obj):
        name = getattr(obj, "__qualname__", getattr(obj, "__name__", repr(obj)))
        return {"__callable__": f"{getattr(obj, '__module__', '?')}.{name}"}
    return {"__repr__": repr(obj)}


def _digest(payload: Any) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@functools.lru_cache(maxsize=None)
def model_fingerprint() -> str:
    """sha256 over the source of the ``repro`` package minus
    :data:`_NOT_MODEL`, computed once per process.

    Any edit to the simulator, protocols, experiments or statistics —
    comment-only edits included — gives every cell a new key, so a stale
    cached result can never be served for changed code.
    """
    import repro
    root = Path(repro.__file__).parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root)
        if rel.parts[0] in _NOT_MODEL:
            continue
        source = path.read_bytes()
        digest.update(f"{rel.as_posix()}\0{len(source)}\0".encode())
        digest.update(source)
    return digest.hexdigest()


def runner_name_of(run_one: Callable) -> str:
    """Default runner identity: the callable's module-qualified name."""
    return f"{getattr(run_one, '__module__', '?')}.{run_one.__qualname__}"


def cell_key(
    runner_name: str,
    protocol: str,
    x: float,
    seed: int,
    config: Any,
    extra_kwargs: Mapping | None = None,
) -> str:
    """Content address of one sweep cell (64 hex chars)."""
    payload = {
        "runner": runner_name,
        "protocol": protocol,
        "x": canonicalize(x),
        "seed": int(seed),
        "config": canonicalize(config),
        "extra": canonicalize(dict(extra_kwargs or {})),
        "model": model_fingerprint(),
    }
    return _digest(payload)

