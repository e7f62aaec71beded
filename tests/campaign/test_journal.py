"""Journal + manifest: replay, torn lines, fingerprint guard."""

import pytest

from repro.campaign.journal import CampaignJournal, CellRecord, ManifestMismatch
from tests.campaign.fakes import FakeConfig, make_summary


def record(key="k1", status="done", **kwargs):
    defaults = dict(key=key, protocol="ssaf", x=1.0, seed=1, status=status,
                    summary=make_summary("ssaf", 1.0, 1, FakeConfig()))
    defaults.update(kwargs)
    return CellRecord(**defaults)


def test_append_and_load_roundtrip(tmp_path):
    journal = CampaignJournal(tmp_path)
    r1 = record("k1")
    r2 = record("k2", x=2.0, attempts=3, wall_s=0.5)
    journal.append(r1)
    journal.append(r2)
    loaded = journal.load()
    assert loaded == {"k1": r1, "k2": r2}


def test_later_lines_win(tmp_path):
    journal = CampaignJournal(tmp_path)
    journal.append(record("k1", status="quarantined", summary=None,
                          error="boom"))
    journal.append(record("k1", status="done"))
    assert journal.load()["k1"].status == "done"


def test_torn_trailing_line_skipped(tmp_path):
    journal = CampaignJournal(tmp_path)
    journal.append(record("k1"))
    with open(journal.journal_path, "a") as handle:
        handle.write('{"key": "k2", "protocol": "ssaf", "x"')  # cut mid-write
    loaded = journal.load()
    assert set(loaded) == {"k1"}


def test_empty_journal_loads_empty(tmp_path):
    assert CampaignJournal(tmp_path / "fresh").load() == {}


class TestManifest:
    def test_written_once(self, tmp_path):
        journal = CampaignJournal(tmp_path)
        journal.ensure_manifest({"fingerprint": "f1"}, resume=False)
        assert journal.read_manifest()["fingerprint"] == "f1"

    def test_resume_same_fingerprint_ok(self, tmp_path):
        journal = CampaignJournal(tmp_path)
        journal.ensure_manifest({"fingerprint": "f1"}, resume=False)
        journal.ensure_manifest({"fingerprint": "f1"}, resume=True)

    def test_resume_other_fingerprint_refused(self, tmp_path):
        journal = CampaignJournal(tmp_path)
        journal.ensure_manifest({"fingerprint": "f1"}, resume=False)
        with pytest.raises(ManifestMismatch):
            journal.ensure_manifest({"fingerprint": "f2"}, resume=True)

    def test_fresh_run_over_stale_dir_resets(self, tmp_path):
        journal = CampaignJournal(tmp_path)
        journal.ensure_manifest({"fingerprint": "f1"}, resume=False)
        journal.append(record("k1"))
        journal.ensure_manifest({"fingerprint": "f2"}, resume=False)
        assert journal.read_manifest()["fingerprint"] == "f2"
        assert journal.load() == {}


class TestCrashSafety:
    def test_manifest_publish_is_atomic(self, tmp_path, monkeypatch):
        import os
        journal = CampaignJournal(tmp_path)
        journal.write_manifest({"fingerprint": "f1"})

        def failing_replace(src, dst):
            raise OSError("powercut")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError):
            journal.write_manifest({"fingerprint": "f2"})
        monkeypatch.undo()
        # The previous manifest survives intact; no temp debris remains.
        assert journal.read_manifest() == {"fingerprint": "f1"}
        assert list(tmp_path.glob("*.tmp")) == []

    def test_append_fsyncs_by_default(self, tmp_path, monkeypatch):
        import os
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync",
                            lambda fd: (synced.append(fd), real_fsync(fd)))
        CampaignJournal(tmp_path).append(record("k1"))
        assert synced  # the record hit the disk barrier

    def test_fsync_false_skips_the_barrier_but_still_flushes(self, tmp_path,
                                                             monkeypatch):
        import os
        journal = CampaignJournal(tmp_path, fsync=False)
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync",
                            lambda fd: (synced.append(fd), real_fsync(fd)))
        journal.append(record("k1"))
        assert synced == []
        # Still durable enough to read back immediately.
        assert set(CampaignJournal(tmp_path).load()) == {"k1"}


class TestSummary:
    def test_write_read_roundtrip(self, tmp_path):
        journal = CampaignJournal(tmp_path)
        assert journal.read_summary() is None
        journal.write_summary({"completed": 8, "cell_wall_s": {"p50": 0.5}})
        assert journal.read_summary() == {"completed": 8,
                                          "cell_wall_s": {"p50": 0.5}}

    def test_unjsonable_values_are_stringified(self, tmp_path):
        journal = CampaignJournal(tmp_path)
        journal.write_summary({"path": tmp_path})  # Path is not JSON-safe
        assert journal.read_summary() == {"path": str(tmp_path)}

    def test_reset_removes_summary(self, tmp_path):
        journal = CampaignJournal(tmp_path)
        journal.write_summary({"completed": 1})
        journal.reset()
        assert journal.read_summary() is None

    def test_runner_persists_summary_json(self, tmp_path):
        from repro.campaign import run_campaign
        from tests.campaign import fakes
        outcome = run_campaign(
            fakes.counting_run_one, runner_name="fake",
            protocols=("alpha",), xs=(1.0,), seeds=(1,),
            config=FakeConfig(), campaign_dir=tmp_path)
        persisted = CampaignJournal(tmp_path).read_summary()
        assert persisted is not None
        assert persisted["runner"] == "fake"
        assert persisted["completed"] == outcome.summary["completed"] == 1
