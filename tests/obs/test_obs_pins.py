"""Byte-level pins of every observability output on real experiment cells.

For the smallest cell of each campaign-capable experiment (plus one fig3
cell under a mixed fault plan) these tests hash three outputs of one
observed run:

* ``json.dumps(obs.snapshot())`` — the metric families, help text included;
* the :func:`~repro.obs.timeline.write_jsonl` ledger export;
* ``json.dumps(summarize(obs), sort_keys=True)`` — taken *before* any
  ``snapshot()`` call, and again after it.

Each cell also runs once with no :class:`Observability` attached: its
:class:`~repro.experiments.result.ExperimentResult` must equal the observed
run's, so no instrumentation site may steer the simulation.

The ledger and the registry may change how they store and derive things,
but never what they report: any change to these digests is a behaviour
change and must be re-recorded deliberately, with a note in the commit.
"""

import hashlib
import json

import pytest

from repro.experiments.cli import _campaign_spec
from repro.experiments.registry import campaign_capable
from repro.faults import check_invariants, mixed_chaos_plan
from repro.obs.observe import Observability
from repro.obs.summary import summarize
from repro.obs.timeline import write_jsonl

# (experiment, protocol, x, seed, with mixed fault plan) -> sha256 of
# (snapshot JSON, JSONL export, summary JSON).
PINS = {
    ("fig1", "ssaf", 8.0, 1, False): (
        "89cbc484fc1baa23181994ac7d023c179b9742231c7ef78498d836d654a817d7",
        "273db842d41f8590ef7e979b05c028effc6cf5be6ec0e8cc9581fafc318a899c",
        "a33495a993bd53945c621e01fcfd3ead37538df030f776cb86e737f34bb28455"),
    ("fig3", "aodv", 1, 1, False): (
        "15345c1f548b7001ee7480deb1e07850e7b03e685a346ae8b002356a3e541c70",
        "2a257bddbcfd200fb34ee2f2f74986949fbdbd4390eb284cc00d2b4be5cad0de",
        "7b552275e31f61d293083563843f503adc6b8fc5ccc86cbba93ff248fa999bfb"),
    ("fig3", "aodv", 1, 1, True): (
        "e377d0576f020101a375c8ca409f9e05e48d0f3e5819c623824a7b73b2c3f4a4",
        "77b82db18cac250b8cc6721a2f8c58a62c619f0dfce1b1cd19af9f9e2807bab6",
        "f5f5db6a4eb64f8ee4e4feb387148d2d8a472033bfaa5d86fa6bcd9784cd67b2"),
    ("fig4", "aodv", 0.0, 1, False): (
        "85dba8c52d4c2b2cc0a5d135ec61da6e07037bc1e28eff9f5c997488bc22d021",
        "24527429e4f65d39cd4f3bc220386295440db2cacbb7a72a43b470f8bffa70ab",
        "42802ce0ad19d5a7ef3e7439119d37bc3c74955850cf07381ec092c903ae2e7b"),
    ("mobility", "aodv", 0.0, 1, False): (
        "a62d8a87750ff834d2be61b320302e302a03e0f0453046d86cef3ad2a2065132",
        "22c44929d4c97d9595f3c157d67292de3f460b4b08d63d2aeae3df54e8c36f3c",
        "6b11d46d2f24409856e35ffe4df814dc3e310dcf9b8a4ef57c5f376802d25b3e"),
    ("scaling", "aodv", 50, 1, False): (
        "d99e35f47d4ff4bc8d149acc4f63a833ba3d10760366a32b074225beb5601015",
        "444f31498cbc85482e0ec3f4cb9fa7d74a041a84c7ed9510d38aef4f4861a06f",
        "7593f74952df00d8e07b1a10409c37a386e902c379908123ae1d4cb2a959cca7"),
    ("uav", "routeless", 0.5, 1, False): (
        "fdb71e683e4e8d2cca8f1541687b3e7ab1871f637105e6b2df9e5b70da587c7c",
        "e819fc1d8e41b0d2413af45b7b0836e8779f8b874ec5aabe11f444be6bd9a522",
        "74d2f9d9182fc44b29cf999f17b1569b59ce88c3c1b66eddea9c339dab65a40a"),
}


def _sha(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def test_pins_cover_every_campaign_experiment():
    assert {key[0] for key in PINS} == set(campaign_capable())


@pytest.mark.parametrize("key", list(PINS), ids=lambda k: "-".join(
    [k[0], k[1], f"{k[2]:g}", str(k[3])] + (["faults"] if k[4] else [])))
def test_obs_outputs_are_pinned(key, tmp_path):
    name, protocol, x, seed, chaos = key
    spec = _campaign_spec(name)
    extra = dict(spec.extra_kwargs)
    if chaos:
        extra["faults"] = mixed_chaos_plan(spec.config.n_nodes)
    obs = Observability()
    observed = spec.run_one(protocol, x, seed, spec.config, obs=obs, **extra)
    assert spec.run_one(protocol, x, seed, spec.config, **extra) == observed

    # Summary first: it reads the registry before anything snapshots it.
    summary_before = json.dumps(summarize(obs), sort_keys=True)
    snapshot = json.dumps(obs.snapshot())
    path = tmp_path / "ledger.jsonl"
    write_jsonl(obs.ledger, path)

    assert json.dumps(summarize(obs), sort_keys=True) == summary_before
    assert json.dumps(obs.snapshot()) == snapshot
    assert check_invariants(obs) == []
    digests = (_sha(snapshot), _sha(path.read_bytes()), _sha(summary_before))
    assert digests == PINS[key]
