"""The deployment volume, as a value object.

Every geometry consumer in the stack — placement, mobility, topology
control, the channel's spatial index — used to thread loose
``width_m, height_m`` positional pairs around, which hard-coded the whole
pipeline to flat 2-D terrains.  :class:`Arena` replaces those pairs with one
frozen dataclass that knows its own dimensionality:

* ``Arena(1000.0, 1000.0)`` — the paper's flat terrain (``dim == 2``);
* ``Arena(900.0, 900.0, depth_m=200.0)`` — an airborne deployment volume
  (``dim == 3``), positions carrying an altitude coordinate;
* ``Arena(900.0, 900.0, depth_m=0.0)`` — a *degenerate* 3-D arena: positions
  are ``(N, 3)`` with every altitude pinned to zero, which must (and does —
  the equivalence tests pin it) produce link budgets float-equal to the 2-D
  arena's.

Bit-identity contract: :meth:`Arena.sample` draws one uniform vector per
axis, in axis order, exactly as the legacy ``uniform_random(n, w, h, rng)``
did — so every pre-Arena 2-D experiment reproduces its golden results
byte-for-byte through the new API.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["Arena", "as_arena"]


@dataclass(frozen=True)
class Arena:
    """An axis-aligned deployment box anchored at the origin.

    ``width_m`` spans the x axis, ``height_m`` the y axis, and ``depth_m``
    — when not ``None`` — the z (altitude) axis.  ``depth_m=None`` means a
    genuinely 2-D arena (positions are ``(N, 2)``); ``depth_m=0.0`` means a
    3-D arena squashed flat (positions are ``(N, 3)`` with ``z == 0``).
    """

    width_m: float
    height_m: float
    depth_m: Optional[float] = None

    def __post_init__(self) -> None:
        if self.width_m <= 0 or self.height_m <= 0:
            raise ValueError("width_m and height_m must be positive")
        if self.depth_m is not None and self.depth_m < 0:
            raise ValueError("depth_m must be non-negative (or None for 2-D)")

    # ------------------------------------------------------------ geometry

    @property
    def dim(self) -> int:
        """Coordinate dimensionality: 2, or 3 when ``depth_m`` is set."""
        return 2 if self.depth_m is None else 3

    @property
    def extents(self) -> tuple[float, ...]:
        """Per-axis side lengths, ``(width, height[, depth])``."""
        if self.depth_m is None:
            return (self.width_m, self.height_m)
        return (self.width_m, self.height_m, self.depth_m)

    @property
    def volume(self) -> float:
        """Area (2-D) or volume (3-D) of the deployment box."""
        out = self.width_m * self.height_m
        if self.depth_m is not None:
            out *= self.depth_m
        return out

    def flat(self) -> "Arena":
        """The 2-D footprint of this arena (drops the altitude axis)."""
        return Arena(self.width_m, self.height_m)

    # ------------------------------------------------------------- queries

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """``n`` positions uniform over the box, shape ``(n, dim)``.

        Draws one length-``n`` uniform vector per axis in axis order — the
        exact draw sequence of the legacy 2-D ``uniform_random``, so seeded
        2-D placements are bit-identical through this API.
        """
        if n <= 0:
            raise ValueError("n must be positive")
        cols = [rng.uniform(0.0, extent, size=n) for extent in self.extents]
        return np.column_stack(cols)

    def contains(self, positions: np.ndarray) -> np.ndarray:
        """Boolean mask: which positions lie inside the box (inclusive)."""
        positions = self._check(positions)
        inside = np.ones(len(positions), dtype=bool)
        for axis, extent in enumerate(self.extents):
            coord = positions[:, axis]
            inside &= (coord >= 0.0) & (coord <= extent)
        return inside

    def clamp(self, positions: np.ndarray) -> np.ndarray:
        """Positions clipped into the box, as a new array."""
        positions = self._check(positions).copy()
        for axis, extent in enumerate(self.extents):
            np.clip(positions[:, axis], 0.0, extent, out=positions[:, axis])
        return positions

    def _check(self, positions: np.ndarray) -> np.ndarray:
        positions = np.asarray(positions, dtype=float)
        if positions.ndim != 2 or positions.shape[1] != self.dim:
            raise ValueError(
                f"positions must be (N, {self.dim}) for a {self.dim}-D "
                f"arena, got {positions.shape}")
        return positions


def as_arena(arena: "Arena | tuple | None", width_m=None,
             height_m=None, depth_m=None) -> Arena:
    """Coerce an arena-like argument into an :class:`Arena`.

    An existing :class:`Arena` passes through, a ``(w, h[, d])`` tuple
    converts, and bare ``width_m`` / ``height_m`` keywords build a 2-D
    arena.
    """
    if arena is not None:
        if isinstance(arena, Arena):
            return arena
        if isinstance(arena, (tuple, list)) and len(arena) in (2, 3):
            return Arena(*map(float, arena))
        raise TypeError(f"expected an Arena, got {arena!r}")
    if width_m is None or height_m is None:
        raise TypeError("either arena= or both width_m= and height_m= "
                        "are required")
    return Arena(float(width_m), float(height_m),
                 None if depth_m is None else float(depth_m))
