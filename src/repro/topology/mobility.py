"""Node mobility (the MANET dimension of the paper's problem setting).

The paper positions Routeless Routing for "wireless networks with dynamic
topological changes"; its own evaluation moves no nodes (failures stand in
for dynamics), but mobility is the canonical MANET stressor and the natural
extension experiment.  Three models:

* :class:`RandomWaypoint` — each node picks a uniform random destination,
  travels there at a uniform random speed, pauses, repeats.  The standard
  model of the AODV/DSR evaluation literature.
* :class:`RandomWalk` — each node picks a heading and speed for an epoch,
  reflecting off the terrain boundary.
* :class:`GaussMarkov3D` — temporally correlated 3-D flight: per-node
  speed, heading and pitch each follow a mean-reverting Gauss-Markov
  recurrence with memory parameter α, the standard UAV mobility model.

All are driven by one vectorized manager that advances every node each tick
and pushes the new positions into the channel through the incremental
:meth:`~repro.phy.channel.Channel.move_nodes` path.  Ticks are coarse
(default 0.25 s) relative to packet airtimes, the usual discrete-mobility
approximation.

Geometry comes from an :class:`~repro.topology.arena.Arena`, passed as
``arena=`` (or the first positional after the channel) or carried by the
config.  Models register themselves in a small name registry
(:func:`mobility_model`), so campaigns can sweep the mobility model as an
axis the same way the experiment registry lets them sweep experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Optional

import numpy as np

from repro.sim.components import Component, SimContext
from repro.topology.arena import Arena

if TYPE_CHECKING:  # pragma: no cover
    from repro.phy.channel import Channel

__all__ = [
    "MobilityConfig",
    "GaussMarkovConfig",
    "RandomWaypoint",
    "RandomWalk",
    "GaussMarkov3D",
    "mobility_model",
    "mobility_model_names",
    "register_mobility_model",
]


@dataclass(frozen=True)
class MobilityConfig:
    min_speed_mps: float = 1.0
    max_speed_mps: float = 10.0
    #: Pause at each waypoint, uniform over this range (RandomWaypoint only).
    min_pause_s: float = 0.0
    max_pause_s: float = 2.0
    #: Heading/speed epoch length (RandomWalk only).
    epoch_s: float = 5.0
    tick_s: float = 0.25
    #: Deployment volume the nodes move in.  Optional here so speed-only
    #: configs stay concise; the model constructor's ``arena=`` argument
    #: takes precedence, and one of the two must be provided.
    arena: Optional[Arena] = field(default=None, kw_only=True)

    def __post_init__(self) -> None:
        if not 0 < self.min_speed_mps <= self.max_speed_mps:
            raise ValueError("need 0 < min_speed <= max_speed")
        if self.tick_s <= 0:
            raise ValueError("tick_s must be positive")
        if self.min_pause_s < 0 or self.max_pause_s < self.min_pause_s:
            raise ValueError("need 0 <= min_pause <= max_pause")


@dataclass(frozen=True, kw_only=True)
class GaussMarkovConfig:
    """Tuning for :class:`GaussMarkov3D`.

    ``alpha`` is the memory parameter of the Gauss-Markov recurrence
    ``v' = α·v + (1-α)·v̄ + sqrt(1-α²)·N(0, σ)``: 0 is memoryless (each
    tick an independent draw around the mean), 1 is ballistic (the initial
    velocity persists forever).
    """

    alpha: float = 0.75
    mean_speed_mps: float = 10.0
    speed_sigma_mps: float = 2.0
    #: Direction (azimuth) noise, radians.
    direction_sigma_rad: float = 0.4
    #: Mean pitch and pitch noise, radians; the mean-reverting pitch keeps
    #: flight mostly level with stochastic climbs and dives.
    mean_pitch_rad: float = 0.0
    pitch_sigma_rad: float = 0.15
    max_pitch_rad: float = 0.6
    #: Altitude band, as offsets into the arena's depth; ``None`` spans the
    #: whole band ``[0, depth_m]``.
    min_altitude_m: Optional[float] = None
    max_altitude_m: Optional[float] = None
    tick_s: float = 0.25
    arena: Optional[Arena] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        if self.mean_speed_mps <= 0:
            raise ValueError("mean_speed_mps must be positive")
        if self.speed_sigma_mps < 0 or self.direction_sigma_rad < 0 \
                or self.pitch_sigma_rad < 0:
            raise ValueError("sigmas must be non-negative")
        if self.tick_s <= 0:
            raise ValueError("tick_s must be positive")
        if self.max_pitch_rad <= 0:
            raise ValueError("max_pitch_rad must be positive")


class _MobilityBase(Component):
    """Shared tick loop: advance all mobile nodes, push positions to the
    channel through the incremental ``move_nodes`` path."""

    _default_config: Callable = MobilityConfig

    def __init__(self, ctx: SimContext, channel: "Channel",
                 arena: Arena | None = None, *, config=None,
                 frozen: Iterable[int] = (), name: str = "mobility"):
        super().__init__(ctx, name)
        if arena is None and config is not None:
            arena = config.arena
        if not isinstance(arena, Arena):
            raise TypeError(f"{type(self).__name__} requires an arena "
                            f"(arena=Arena(...) or a config with one)")
        self.channel = channel
        self.arena = arena
        if channel.dim != arena.dim:
            raise ValueError(
                f"arena is {arena.dim}-D but the channel is "
                f"{channel.dim}-D — build both from the same Arena")
        self.config = config if config is not None else self._default_config()
        self.positions = channel.positions.copy()
        self.n = len(self.positions)
        frozen_set = set(frozen)
        #: Mask of nodes that move (frozen nodes — e.g. sinks — stay put).
        self.mobile = np.array([i not in frozen_set for i in range(self.n)])
        self._rng = self.rng()
        self.ticks = 0
        self.distance_moved_m = np.zeros(self.n)
        self.schedule(self.config.tick_s, self._tick)

    def _tick(self) -> None:
        before = self.positions.copy()
        self._advance(self.config.tick_s)
        self.distance_moved_m += np.linalg.norm(self.positions - before, axis=1)
        self.ticks += 1
        # Incremental channel update: only the nodes that actually moved this
        # tick (paused / frozen nodes sat still) — the link budget
        # recomputes just their grid neighborhoods, and a tick where nothing
        # moved costs nothing at all.
        moved = np.flatnonzero(np.any(self.positions != before, axis=1))
        if len(moved):
            self.channel.move_nodes(moved, self.positions[moved])
        self.schedule(self.config.tick_s, self._tick)

    def _advance(self, dt: float) -> None:
        raise NotImplementedError


class RandomWaypoint(_MobilityBase):
    """The random waypoint model (2-D or 3-D: waypoints sample the arena)."""

    def __init__(self, ctx: SimContext, channel: "Channel",
                 arena: Arena | None = None, *,
                 config: MobilityConfig | None = None,
                 frozen: Iterable[int] = ()):
        super().__init__(ctx, channel, arena, config=config, frozen=frozen,
                         name="mobility.rwp")
        self.waypoints = self._draw_waypoints(self.n)
        self.speeds = self._draw_speeds(self.n)
        self.pause_until = np.zeros(self.n)

    def _draw_waypoints(self, n: int) -> np.ndarray:
        return self.arena.sample(self._rng, n)

    def _draw_speeds(self, n: int) -> np.ndarray:
        return self._rng.uniform(self.config.min_speed_mps,
                                 self.config.max_speed_mps, n)

    def _advance(self, dt: float) -> None:
        now = self.now
        moving = self.mobile & (self.pause_until <= now)
        if not moving.any():
            return
        delta = self.waypoints[moving] - self.positions[moving]
        dist = np.linalg.norm(delta, axis=1)
        step = self.speeds[moving] * dt
        arrived = dist <= step

        # Walk toward the waypoint (clamped at arrival).
        scale = np.where(arrived, 1.0, np.divide(step, dist, where=dist > 0,
                                                 out=np.ones_like(dist)))
        self.positions[moving] += delta * scale[:, None]

        # Arrivals: pause, then a fresh waypoint and speed.
        arrived_ids = np.flatnonzero(moving)[arrived]
        if len(arrived_ids):
            self.pause_until[arrived_ids] = now + self._rng.uniform(
                self.config.min_pause_s, self.config.max_pause_s,
                len(arrived_ids))
            self.waypoints[arrived_ids] = self._draw_waypoints(len(arrived_ids))
            self.speeds[arrived_ids] = self._draw_speeds(len(arrived_ids))


class RandomWalk(_MobilityBase):
    """Random direction walk with boundary reflection (2-D or 3-D)."""

    def __init__(self, ctx: SimContext, channel: "Channel",
                 arena: Arena | None = None, *,
                 config: MobilityConfig | None = None,
                 frozen: Iterable[int] = ()):
        super().__init__(ctx, channel, arena, config=config, frozen=frozen,
                         name="mobility.rw")
        self.velocities = self._draw_velocities(self.n)
        self._epoch_end = self.config.epoch_s

    def _draw_velocities(self, n: int) -> np.ndarray:
        speed = self._rng.uniform(self.config.min_speed_mps,
                                  self.config.max_speed_mps, n)
        heading = self._rng.uniform(0, 2 * np.pi, n)
        if self.arena.dim == 2:
            return np.column_stack([speed * np.cos(heading),
                                    speed * np.sin(heading)])
        # 3-D: a uniform direction on the sphere (cosine-uniform elevation).
        sin_el = self._rng.uniform(-1.0, 1.0, n)
        cos_el = np.sqrt(1.0 - sin_el**2)
        return np.column_stack([speed * np.cos(heading) * cos_el,
                                speed * np.sin(heading) * cos_el,
                                speed * sin_el])

    def _advance(self, dt: float) -> None:
        if self.now >= self._epoch_end:
            self.velocities = self._draw_velocities(self.n)
            self._epoch_end = self.now + self.config.epoch_s
        self.positions[self.mobile] += self.velocities[self.mobile] * dt
        # Reflect off the arena boundary, flipping the velocity component.
        for axis, limit in enumerate(self.arena.extents):
            below = self.positions[:, axis] < 0
            above = self.positions[:, axis] > limit
            self.positions[below, axis] *= -1
            if limit > 0:
                self.positions[above, axis] = \
                    2 * limit - self.positions[above, axis]
            else:
                self.positions[above, axis] = 0.0
            flip = (below | above) & self.mobile
            self.velocities[flip, axis] *= -1
        for axis, limit in enumerate(self.arena.extents):
            np.clip(self.positions[:, axis], 0, limit,
                    out=self.positions[:, axis])


class GaussMarkov3D(_MobilityBase):
    """Gauss-Markov 3-D mobility: temporally correlated UAV-style flight.

    Per node and per tick, speed ``s``, heading ``θ`` and pitch ``φ`` each
    follow the mean-reverting recurrence

    ``v' = α·v + (1-α)·v̄ + sqrt(1-α²)·N(0, σ_v)``

    with per-node memory parameter α (a scalar config value, or one α per
    node via the ``alpha=`` constructor argument — heterogeneous fleets mix
    twitchy and smooth flyers in one run).  The velocity vector is
    ``s·(cosθ·cosφ, sinθ·cosφ, sinφ)``; horizontal walls mirror the
    heading, and altitude is clamped into the configured band (pitch flips
    sign at the band edges, so flight paths bounce off the ceiling and
    floor instead of sticking to them).

    Requires a 3-D arena; a ``depth_m=0`` arena degenerates to level 2-D
    flight with the altitude pinned at zero.
    """

    _default_config = GaussMarkovConfig

    def __init__(self, ctx: SimContext, channel: "Channel",
                 arena: Arena | None = None, *,
                 config: GaussMarkovConfig | None = None,
                 alpha: "float | np.ndarray | None" = None,
                 frozen: Iterable[int] = ()):
        super().__init__(ctx, channel, arena, config=config, frozen=frozen,
                         name="mobility.gm3d")
        if self.arena.dim != 3:
            raise ValueError(
                "GaussMarkov3D needs a 3-D arena (Arena(w, h, depth_m=...)); "
                "use depth_m=0.0 for degenerate level flight")
        cfg = self.config
        if alpha is None:
            alpha = cfg.alpha
        self.alpha = np.broadcast_to(np.asarray(alpha, dtype=float),
                                     (self.n,)).copy()
        if ((self.alpha < 0) | (self.alpha > 1)).any():
            raise ValueError("per-node alpha must be in [0, 1]")
        #: sqrt(1-α²) — the stationary-variance-preserving noise gain.
        self._noise_gain = np.sqrt(1.0 - self.alpha**2)

        depth = self.arena.depth_m or 0.0
        lo = 0.0 if cfg.min_altitude_m is None else float(cfg.min_altitude_m)
        hi = depth if cfg.max_altitude_m is None else float(cfg.max_altitude_m)
        if not 0.0 <= lo <= hi <= depth:
            raise ValueError(
                f"altitude band [{lo}, {hi}] must sit inside [0, {depth}]")
        #: Altitude band every mobile node is clamped into.
        self.altitude_band = (lo, hi)

        # Per-node state: speed around the mean, heading uniform, pitch at
        # its mean.  Mean heading is the initial draw (the classic model's
        # per-node preferred direction).
        self.speed = np.maximum(
            0.0, self._rng.normal(cfg.mean_speed_mps, cfg.speed_sigma_mps,
                                  self.n))
        self.heading = self._rng.uniform(0.0, 2 * np.pi, self.n)
        self.mean_heading = self.heading.copy()
        self.pitch = np.full(self.n, cfg.mean_pitch_rad)
        # Out-of-band starting altitudes (placement spans the full depth)
        # are folded into the band immediately so the clamp invariant holds
        # from tick one.
        z = self.positions[:, 2]
        np.clip(z, lo, hi, out=z)

    def _advance(self, dt: float) -> None:
        cfg = self.config
        a = self.alpha
        gain = self._noise_gain
        n = self.n

        self.speed = (a * self.speed
                      + (1.0 - a) * cfg.mean_speed_mps
                      + gain * self._rng.normal(0.0, cfg.speed_sigma_mps, n))
        np.maximum(self.speed, 0.0, out=self.speed)
        self.heading = (a * self.heading
                        + (1.0 - a) * self.mean_heading
                        + gain * self._rng.normal(
                            0.0, cfg.direction_sigma_rad, n))
        self.pitch = (a * self.pitch
                      + (1.0 - a) * cfg.mean_pitch_rad
                      + gain * self._rng.normal(0.0, cfg.pitch_sigma_rad, n))
        np.clip(self.pitch, -cfg.max_pitch_rad, cfg.max_pitch_rad,
                out=self.pitch)

        cos_p = np.cos(self.pitch)
        v = np.column_stack([self.speed * np.cos(self.heading) * cos_p,
                             self.speed * np.sin(self.heading) * cos_p,
                             self.speed * np.sin(self.pitch)])
        self.positions[self.mobile] += v[self.mobile] * dt

        # Horizontal walls: reflect the position, mirror the heading.
        for axis, limit in ((0, self.arena.width_m),
                            (1, self.arena.height_m)):
            below = self.positions[:, axis] < 0
            above = self.positions[:, axis] > limit
            self.positions[below, axis] *= -1
            self.positions[above, axis] = 2 * limit - self.positions[above, axis]
            hit = (below | above) & self.mobile
            if hit.any():
                if axis == 0:
                    self.heading[hit] = np.pi - self.heading[hit]
                    self.mean_heading[hit] = np.pi - self.mean_heading[hit]
                else:
                    self.heading[hit] = -self.heading[hit]
                    self.mean_heading[hit] = -self.mean_heading[hit]
            np.clip(self.positions[:, axis], 0, limit,
                    out=self.positions[:, axis])

        # Altitude: clamp into the band, flip pitch at the edges so the
        # next tick flies back into it.
        lo, hi = self.altitude_band
        z = self.positions[:, 2]
        out_low = z < lo
        out_high = z > hi
        np.clip(z, lo, hi, out=z)
        bounced = (out_low | out_high) & self.mobile
        if bounced.any():
            self.pitch[bounced] *= -1.0


# ------------------------------------------------------------ model registry

_MOBILITY_MODELS: dict[str, type] = {}


def register_mobility_model(name: str, cls: type | None = None):
    """Register a mobility model under ``name`` (usable as a decorator).

    Mirrors the experiment registry: campaigns sweep ``--mobility NAME``
    through :func:`mobility_model` with zero CLI edits.
    """
    def _register(model_cls: type) -> type:
        existing = _MOBILITY_MODELS.get(name)
        if existing is not None and existing is not model_cls:
            raise ValueError(f"mobility model {name!r} already registered")
        _MOBILITY_MODELS[name] = model_cls
        return model_cls

    if cls is not None:
        return _register(cls)
    return _register


def mobility_model(name: str) -> type:
    """The registered mobility model class for ``name``."""
    try:
        return _MOBILITY_MODELS[name]
    except KeyError:
        raise KeyError(
            f"unknown mobility model {name!r}; choose from "
            f"{mobility_model_names()}") from None


def mobility_model_names() -> list[str]:
    """Every registered mobility model name, sorted."""
    return sorted(_MOBILITY_MODELS)


register_mobility_model("rwp", RandomWaypoint)
register_mobility_model("rwalk", RandomWalk)
register_mobility_model("gauss_markov_3d", GaussMarkov3D)
