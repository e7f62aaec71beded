"""ExperimentResult: builders, wire format, attribute access."""

import warnings

import pytest

from repro.campaign.cache import summary_from_dict, summary_to_dict
from repro.experiments.fig1_ssaf import Fig1Config
from repro.experiments.result import ExperimentResult, config_fingerprint
from repro.stats.metrics import MetricsSummary
from repro.stats.series import SweepSeries

SUMMARY = MetricsSummary(generated=10, delivered=9, delivery_ratio=0.9,
                         avg_delay_s=0.02, avg_hops=3.0, mac_packets=120)


def make_result(**kwargs) -> ExperimentResult:
    defaults = dict(config=Fig1Config(), seed=7, wall_s=1.5)
    defaults.update(kwargs)
    return ExperimentResult.from_summary(SUMMARY, **defaults)


class TestBuilders:
    def test_from_summary_copies_metrics(self):
        result = make_result()
        assert result.metrics["delivery_ratio"] == 0.9
        assert result.seed == 7
        assert result.wall_s == 1.5
        assert result.fingerprint == config_fingerprint(Fig1Config())

    def test_extra_metrics_join(self):
        result = make_result(fault_events=42.0)
        assert result.metrics["fault_events"] == 42.0

    def test_to_summary_round_trip(self):
        assert make_result().to_summary() == SUMMARY

    def test_to_summary_drops_extras(self):
        assert make_result(fault_events=42.0).to_summary() == SUMMARY

    def test_fingerprint_tracks_config(self):
        assert (make_result().fingerprint
                != make_result(config=Fig1Config(n_nodes=61)).fingerprint)

    def test_positional_construction_rejected(self):
        with pytest.raises(TypeError):
            ExperimentResult({"delivery_ratio": 1.0})


class TestEquality:
    def test_wall_clock_excluded_from_equality(self):
        assert make_result(wall_s=1.0) == make_result(wall_s=99.0)

    def test_metrics_included_in_equality(self):
        assert make_result() != make_result(fault_events=1.0)


class TestWire:
    def test_dict_round_trip(self):
        result = make_result()
        clone = ExperimentResult.from_dict(result.to_dict())
        assert clone == result
        assert clone.to_dict()["__kind__"] == "experiment_result"

    def test_cache_serialization_round_trip(self):
        result = make_result()
        assert summary_from_dict(summary_to_dict(result)) == result

    def test_untagged_payload_loads_as_legacy_summary(self):
        # Caches written before ExperimentResult existed must still load.
        loaded = summary_from_dict(summary_to_dict(SUMMARY))
        assert isinstance(loaded, MetricsSummary)
        assert loaded == SUMMARY


class TestDeprecationShim:
    def test_missing_attribute_raises_without_warning(self):
        result = make_result()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AttributeError):
                result.not_a_metric
            # Metrics are read from ``metrics``, never as attributes.
            with pytest.raises(AttributeError):
                result.delivery_ratio

    def test_sweep_series_normalizes_results(self):
        series = SweepSeries("ssaf")
        series.add(1.0, make_result())
        series.add(1.0, SUMMARY)  # mixed shapes accepted
        stats = series.metric(1.0, "delivery_ratio")
        assert stats.n == 2
        assert stats.mean == pytest.approx(0.9)
