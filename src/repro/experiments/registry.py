"""The experiment registry: one decorator instead of an if/elif chain.

The CLI used to hard-code two parallel structures — an ``EXPERIMENTS`` dict
of runners/panels and an if/elif ladder mapping names to ``campaign_spec``
imports — so adding an experiment meant editing the CLI in two places.  Now
each experiment module *registers itself*::

    @experiment(name="fig3",
                description="Routeless Routing vs AODV",
                panels=("avg_delay_s", "delivery_ratio", "mac_packets",
                        "avg_hops"),
                x_label="communicating pairs")
    def campaign_spec(config=None):
        ...

and the CLI's subcommands, ``repro list`` and campaign resolution all read
:func:`get`/:func:`names` — a new experiment (the chaos runner, say) plugs
in with zero CLI edits.  Experiments that are scripts rather than sweeps
(fig2's maps, the chaos gate) register with :func:`register_script`.

Registration is lazy: :func:`load_builtins` imports the experiment modules
on first registry access, so importing :mod:`repro.experiments.cli` stays
cheap and module import order cannot matter.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Callable, Optional

__all__ = ["ExperimentDef", "experiment", "register_script", "get", "names",
           "campaign_capable", "load_builtins", "unregister"]


@dataclass(frozen=True, kw_only=True)
class ExperimentDef:
    """One registered experiment: what the CLI needs to present it, and
    :meth:`run` to execute its sweep."""

    name: str
    description: str = ""
    #: Metric panels the figure renders, in order.
    panels: tuple = ()
    x_label: str = "x"
    #: ``campaign_spec(config=None) -> CampaignSpec`` for sweep experiments.
    spec: Optional[Callable] = None
    #: ``main(argv) -> int | None`` for script experiments (fig2, chaos).
    script: Optional[Callable] = None
    extra: dict = field(default_factory=dict, compare=False)

    @property
    def is_campaign(self) -> bool:
        return self.spec is not None

    def build_spec(self, config=None):
        if self.spec is None:
            raise TypeError(f"experiment {self.name!r} is a script, not a "
                            "campaign sweep")
        return self.spec(config) if config is not None else self.spec()

    def run(self, config=None, **campaign_kwargs) -> dict:
        """Run the full sweep over ``config`` (default: the experiment's
        active scale) and return ``{protocol: SweepSeries}`` keyed like the
        figure legend (campaign experiments only).

        Keyword arguments (``cache_dir``, ``campaign_dir``, ``workers``,
        ...) go to :func:`repro.campaign.run_spec`.  A quarantined cell
        raises — library callers expect a complete sweep; call
        ``run_spec`` directly for the tolerant campaign semantics.
        """
        from repro.campaign import run_spec
        outcome = run_spec(self.build_spec(config), **campaign_kwargs)
        if outcome.quarantined:
            raise RuntimeError(
                f"{self.name} sweep quarantined cells: "
                f"{outcome.summary['quarantined_cells']}")
        return outcome.results


_REGISTRY: dict[str, ExperimentDef] = {}

#: Modules whose import registers the built-in experiments.
_BUILTIN_MODULES = (
    "repro.experiments.fig1_ssaf",
    "repro.experiments.fig2_congestion",
    "repro.experiments.fig3_rr_vs_aodv",
    "repro.experiments.fig4_failures",
    "repro.experiments.ext_mobility",
    "repro.experiments.ext_scaling",
    "repro.experiments.ext_uav",
    "repro.experiments.chaos",
)
_builtins_loaded = False


def load_builtins() -> None:
    """Import every built-in experiment module (idempotent)."""
    global _builtins_loaded
    if _builtins_loaded:
        return
    _builtins_loaded = True
    for module in _BUILTIN_MODULES:
        importlib.import_module(module)


def _register(definition: ExperimentDef) -> None:
    existing = _REGISTRY.get(definition.name)
    if existing is not None and existing != definition:
        raise ValueError(f"experiment {definition.name!r} already registered")
    _REGISTRY[definition.name] = definition


def experiment(*, name: str, description: str = "", panels: tuple = (),
               x_label: str = "x") -> Callable:
    """Decorator for an experiment module's ``campaign_spec`` builder."""

    def decorate(spec_builder: Callable) -> Callable:
        _register(ExperimentDef(name=name, description=description,
                                panels=tuple(panels), x_label=x_label,
                                spec=spec_builder))
        return spec_builder

    return decorate


def register_script(*, name: str, description: str = "") -> Callable:
    """Decorator for script experiments — a ``main(argv) -> int | None``."""

    def decorate(main: Callable) -> Callable:
        _register(ExperimentDef(name=name, description=description,
                                script=main))
        return main

    return decorate


def unregister(name: str) -> None:
    """Remove a registered experiment.  For test plug-ins that must not
    outlive their suite; built-ins re-register on the next interpreter."""
    _REGISTRY.pop(name, None)


def get(name: str) -> Optional[ExperimentDef]:
    """The named experiment, or None.  Loads built-ins on first use."""
    load_builtins()
    return _REGISTRY.get(name)


def names() -> list[str]:
    """Every registered experiment name, sorted."""
    load_builtins()
    return sorted(_REGISTRY)


def campaign_capable() -> list[str]:
    """Names of experiments that run as campaign sweeps, sorted."""
    load_builtins()
    return sorted(n for n, d in _REGISTRY.items() if d.is_campaign)
