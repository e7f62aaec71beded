"""``repro cache`` subcommand: stats reporting and age-based gc."""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.campaign.cache import ResultCache
from repro.campaign.cache_cli import main as cache_main, parse_age
from tests.campaign.fakes import FakeConfig, make_summary

KEY_A = "ab" + "0" * 62
KEY_B = "cd" + "1" * 62
SUMMARY = make_summary("ssaf", 1.0, 1, FakeConfig())


def _age(path, seconds: float) -> None:
    old = time.time() - seconds
    os.utime(path, (old, old))


@pytest.mark.parametrize("text, expected", [
    ("90", 90.0), ("45s", 45.0), ("30m", 1800.0), ("12h", 43200.0),
    ("7d", 604800.0), ("2w", 1209600.0), ("1.5h", 5400.0),
])
def test_parse_age(text, expected):
    assert parse_age(text) == expected


def test_parse_age_rejects_garbage():
    import argparse
    with pytest.raises(argparse.ArgumentTypeError):
        parse_age("soon")
    with pytest.raises(argparse.ArgumentTypeError):
        parse_age("-5m")


def test_stats_human_and_json(tmp_path, capsys):
    cache = ResultCache(tmp_path)
    cache.put(KEY_A, SUMMARY)
    rc = cache_main(["stats", "--cache-dir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "entries:       1" in out

    rc = cache_main(["stats", "--cache-dir", str(tmp_path), "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["entries"] == 1
    assert payload["size_bytes"] > 0


def test_gc_prunes_only_old_entries(tmp_path, capsys):
    cache = ResultCache(tmp_path)
    cache.put(KEY_A, SUMMARY)
    cache.put(KEY_B, SUMMARY)
    _age(cache._path(KEY_A), 10 * 86400)  # 10 days old
    rc = cache_main(["gc", "--older-than", "7d", "--cache-dir", str(tmp_path)])
    assert rc == 0
    assert "removed 1" in capsys.readouterr().out
    assert cache.get(KEY_A) is None
    assert cache.get(KEY_B) == SUMMARY


def test_gc_always_collects_quarantined_files(tmp_path, capsys):
    cache = ResultCache(tmp_path)
    cache.put(KEY_A, SUMMARY)
    cache._path(KEY_A).write_text("garbage")
    assert cache.get(KEY_A) is None  # quarantines to .corrupt
    corrupt = cache._path(KEY_A).with_suffix(".corrupt")
    assert corrupt.exists()
    rc = cache_main(["gc", "--older-than", "365d",
                     "--cache-dir", str(tmp_path)])
    assert rc == 0
    assert not corrupt.exists()


def test_gc_dry_run_removes_nothing(tmp_path, capsys):
    cache = ResultCache(tmp_path)
    cache.put(KEY_A, SUMMARY)
    _age(cache._path(KEY_A), 10 * 86400)
    rc = cache_main(["gc", "--older-than", "7d", "--dry-run",
                     "--cache-dir", str(tmp_path)])
    assert rc == 0
    assert "would remove 1" in capsys.readouterr().out
    assert cache.get(KEY_A) == SUMMARY


def test_gc_reports_kept(tmp_path, capsys):
    cache = ResultCache(tmp_path)
    cache.put(KEY_A, SUMMARY)
    cache.put(KEY_B, SUMMARY)
    report = cache.gc(older_than_s=3600.0)
    assert report == {"removed": 0, "freed_bytes": 0, "kept": 2}
