"""The experiment registry: builtins, plug-in registration, CLI wiring."""

import pytest

import repro.experiments.cli as cli
from repro.experiments import registry
from repro.experiments.registry import ExperimentDef, experiment, register_script


@pytest.fixture
def scratch_name():
    """A registry slot that is guaranteed cleaned up after the test."""
    name = "test-scratch-exp"
    yield name
    registry.unregister(name)


class TestBuiltins:
    def test_all_builtins_registered(self):
        assert set(registry.names()) >= {
            "fig1", "fig2", "fig3", "fig4", "mobility", "scaling", "uav",
            "chaos"}

    def test_campaign_vs_script_split(self):
        capable = set(registry.campaign_capable())
        assert capable == {"fig1", "fig3", "fig4", "mobility", "scaling",
                           "uav"}
        assert not registry.get("fig2").is_campaign
        assert not registry.get("chaos").is_campaign

    def test_build_spec_produces_campaign_spec(self):
        spec = registry.get("fig1").build_spec()
        assert spec.name == "fig1"
        assert spec.protocols == ("counter1", "ssaf")

    def test_script_experiments_refuse_build_spec(self):
        with pytest.raises(TypeError, match="script"):
            registry.get("fig2").build_spec()

    def test_unknown_name_is_none(self):
        assert registry.get("fig99") is None

    def test_panels_and_x_labels_present(self):
        for name in registry.campaign_capable():
            definition = registry.get(name)
            assert definition.panels, name
            assert definition.x_label != "x", name


class TestPlugIn:
    def test_new_experiment_needs_zero_cli_edits(self, scratch_name):
        @experiment(name=scratch_name, description="scratch",
                    panels=("delivery_ratio",), x_label="k")
        def campaign_spec(config=None):  # pragma: no cover - never built
            raise NotImplementedError

        # Registry and CLI subcommand choices both pick the new experiment
        # up without any CLI change.
        assert scratch_name in registry.names()
        assert scratch_name in registry.campaign_capable()
        parser = cli.build_parser()
        parser.parse_args([scratch_name])  # not a choices error

    def test_script_registration(self, scratch_name):
        @register_script(name=scratch_name, description="scratch script")
        def main(argv=None):  # pragma: no cover - never run
            return 0

        assert not registry.get(scratch_name).is_campaign
        assert registry.get(scratch_name).script is main

    def test_unregister_frees_the_slot(self, scratch_name):
        @experiment(name=scratch_name, panels=("delivery_ratio",))
        def spec():  # pragma: no cover - never built
            raise AssertionError
        assert registry.get(scratch_name) is not None
        registry.unregister(scratch_name)
        assert registry.get(scratch_name) is None
        registry.unregister(scratch_name)  # idempotent

    def test_conflicting_reregistration_rejected(self, scratch_name):
        definition = ExperimentDef(name=scratch_name, spec=lambda: None)
        registry._register(definition)
        registry._register(definition)  # identical: idempotent
        with pytest.raises(ValueError, match="already registered"):
            registry._register(
                ExperimentDef(name=scratch_name, spec=lambda: None,
                              description="different"))


class TestCliShim:
    def test_experiments_table_removed(self):
        # The deprecated EXPERIMENTS table is gone; the registry is the
        # only lookup.
        assert not hasattr(cli, "EXPERIMENTS")
        assert cli.__all__ == ["main"]

    def test_unknown_module_attr_still_raises(self):
        with pytest.raises(AttributeError):
            cli.NO_SUCH_NAME
