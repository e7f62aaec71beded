"""SENSE-style component and port model.

The paper's simulator, SENSE, composes a node from components (application,
network protocol, MAC, radio) connected through typed ports.  We mirror that
structure: a :class:`Component` owns named :class:`Outport` objects that are
wired to bound methods of peer components.  The indirection keeps protocol
code ignorant of what sits above or below it — the same CSMA MAC serves
flooding, SSAF, Routeless Routing, AODV and Gradient Routing — and lets tests
wire a component to probes instead of real peers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.sim.engine import Simulator
from repro.sim.events import EventHandle
from repro.sim.rng import RandomStreams

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.observe import Observability

__all__ = ["SimContext", "Component", "Outport", "PortNotConnected"]


class PortNotConnected(RuntimeError):
    """Raised when a component sends through an unwired outport."""


def _unconnected(*args: Any, **kwargs: Any) -> None:
    """What :attr:`Outport.emit` does before any handler is wired: nothing."""


class Outport:
    """A one-to-many output connector.

    Components send through :attr:`emit`, which :meth:`connect` rebinds so
    that sending costs what the wiring needs and no more: a no-op while the
    port is unconnected, the peer's bound method itself once one handler is
    wired, and an in-order fan-out for two or more.  Calling the port
    directly invokes every handler too, but raises
    :class:`PortNotConnected` when there is none.
    """

    __slots__ = ("name", "_handlers", "connected", "emit")

    def __init__(self, name: str):
        self.name = name
        self._handlers: list[Callable[..., None]] = []
        self.connected = False
        self.emit: Callable[..., None] = _unconnected

    def connect(self, handler: Callable[..., None]) -> None:
        self._handlers.append(handler)
        self.connected = True
        if len(self._handlers) == 1:
            self.emit = handler
            return
        handlers = tuple(self._handlers)

        def fan_out(*args: Any, **kwargs: Any) -> None:
            for each in handlers:
                each(*args, **kwargs)

        self.emit = fan_out

    def __call__(self, *args: Any, **kwargs: Any) -> None:
        if not self.connected:
            raise PortNotConnected(f"outport {self.name!r} is not connected")
        self.emit(*args, **kwargs)


class SimContext:
    """Everything a component needs from its environment.

    Bundles the simulator clock/scheduler, the named RNG streams and the
    observability bundle, so component constructors take a single ``ctx``
    argument.

    :attr:`observing` is a plain attribute fixed here, when the context is
    built: hot-path code reads it once per instrumented site.
    """

    def __init__(
        self,
        simulator: Simulator | None = None,
        streams: RandomStreams | None = None,
        obs: "Observability | None" = None,
    ):
        self.simulator = simulator if simulator is not None else Simulator()
        self.streams = streams if streams is not None else RandomStreams(0)
        #: Observability bundle (metrics registry + packet ledger); ``None``
        #: means no collection — see :attr:`observing`.
        self.obs = obs
        #: True when an :class:`~repro.obs.observe.Observability` is
        #: attached.  Hot-path code checks this *before* building ledger or
        #: metric arguments (kwargs dicts), so a run without
        #: one pays one attribute read per instrumented site.
        self.observing: bool = obs is not None

    @property
    def now(self) -> float:
        return self.simulator.now


class Component:
    """Base class for simulation components.

    Subclasses declare outports in ``__init__`` via :meth:`outport` and
    expose inports as plain bound methods.
    """

    def __init__(self, ctx: SimContext, name: str):
        self.ctx = ctx
        self.sim = ctx.simulator
        self.name = name

    # ------------------------------------------------------------- utilities

    def outport(self, port_name: str) -> Outport:
        return Outport(f"{self.name}.{port_name}")

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any,
                 priority: int = 0) -> EventHandle:
        return self.sim.schedule(delay, callback, *args, priority=priority)

    def rng(self, stream_suffix: str = "") -> Any:
        """The component's own RNG stream (optionally sub-named)."""
        name = self.name if not stream_suffix else f"{self.name}.{stream_suffix}"
        return self.ctx.streams.stream(name)

    @property
    def now(self) -> float:
        return self.sim.now

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name}>"
