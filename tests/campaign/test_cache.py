"""On-disk result cache: round-trips, sharding, atomicity, stats."""

import json

from repro.campaign.cache import ResultCache, summary_from_dict, summary_to_dict
from tests.campaign.fakes import FakeConfig, make_summary

KEY = "ab" + "0" * 62
OTHER = "cd" + "1" * 62


def test_roundtrip_exact(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    summary = make_summary("ssaf", 0.1, 3, FakeConfig())
    cache.put(KEY, summary)
    assert cache.get(KEY) == summary  # frozen dataclass: field-exact equality


def test_miss_returns_none_and_counts(tmp_path):
    cache = ResultCache(tmp_path)
    assert cache.get(KEY) is None
    assert cache.misses == 1 and cache.hits == 0
    cache.put(KEY, make_summary("a", 1.0, 1, FakeConfig()))
    assert cache.get(KEY) is not None
    assert cache.hits == 1
    assert cache.hit_ratio == 0.5


def test_sharded_layout(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(KEY, make_summary("a", 1.0, 1, FakeConfig()))
    cache.put(OTHER, make_summary("b", 2.0, 1, FakeConfig()))
    assert (tmp_path / "ab").is_dir()
    assert (tmp_path / "cd").is_dir()
    assert cache.entry_count() == 2


def test_contains(tmp_path):
    cache = ResultCache(tmp_path)
    assert KEY not in cache
    cache.put(KEY, make_summary("a", 1.0, 1, FakeConfig()))
    assert KEY in cache


def test_corrupt_entry_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(KEY, make_summary("a", 1.0, 1, FakeConfig()))
    path = cache._path(KEY)
    path.write_text("{ torn json")
    assert cache.get(KEY) is None


def test_torn_entry_leaves_other_entries_readable(tmp_path):
    cache = ResultCache(tmp_path)
    kept = make_summary("a", 1.0, 1, FakeConfig())
    cache.put(KEY, kept)
    cache.put(OTHER, make_summary("b", 2.0, 1, FakeConfig()))
    torn = cache._path(OTHER)
    text = torn.read_text()
    torn.write_text(text[: len(text) // 2])  # cut mid-write
    assert cache.get(KEY) == kept
    assert cache.get(OTHER) is None


def test_no_tmp_litter_after_put(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(KEY, make_summary("a", 1.0, 1, FakeConfig()))
    assert not list(tmp_path.glob("**/*.tmp"))


def test_put_fsyncs_before_publishing(tmp_path, monkeypatch):
    import os
    calls = []
    real_fsync, real_replace = os.fsync, os.replace
    monkeypatch.setattr(os, "fsync",
                        lambda fd: (calls.append("fsync"), real_fsync(fd)))
    monkeypatch.setattr(os, "replace",
                        lambda src, dst: (calls.append("replace"),
                                          real_replace(src, dst)))
    ResultCache(tmp_path).put(KEY, make_summary("a", 1.0, 1, FakeConfig()))
    assert calls == ["fsync", "replace"]  # the entry hit the disk barrier


def test_meta_recorded(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(KEY, make_summary("a", 1.0, 1, FakeConfig()),
              meta={"runner": "fig1"})
    payload = json.loads(cache._path(KEY).read_text())
    assert payload["meta"]["runner"] == "fig1"
    assert payload["key"] == KEY


def test_summary_dict_roundtrip_preserves_floats():
    summary = make_summary("ssaf", 0.1, 1, FakeConfig(scale=1 / 3))
    redecoded = summary_from_dict(json.loads(json.dumps(summary_to_dict(summary))))
    assert redecoded == summary
