"""Artifact writes are atomic: a failed write leaves no partial target and
no stray temporary file, and an earlier target survives it."""

import os

import numpy as np
import pytest

from regionsim import checkpoint as ck
from regionsim import cli
from regionsim import supervision as sup
from regionsim import synthcity as sc
from regionsim.atomic import atomic_open
from regionsim.errors import ParameterError


class _NumpyFailingAt:
    """numpy for one module, except that the n-th contiguous copy it makes
    cannot be turned into bytes."""

    def __init__(self, n):
        self.left = n

    def __getattr__(self, name):
        return getattr(np, name)

    def ascontiguousarray(self, *args, **kwargs):
        self.left -= 1
        if self.left == 0:
            return self
        return np.ascontiguousarray(*args, **kwargs)

    def tobytes(self):
        raise OSError("no space left on device")


def small_checkpoint(value=0.5):
    tensors = [("a", np.full((2, 3), value)), ("b", np.arange(4.0)), ("c", np.ones(5))]
    return ck.Checkpoint(1, 1, 0, "abcd", tensors)


class TestAtomicOpen:
    def test_success_leaves_only_the_target(self, tmp_path):
        with atomic_open(tmp_path / "out.txt", "w", encoding="ascii") as fh:
            fh.write("done\n")
            assert os.listdir(tmp_path) != ["out.txt"]  # still a temporary file
        assert os.listdir(tmp_path) == ["out.txt"]
        assert (tmp_path / "out.txt").read_text() == "done\n"

    def test_failure_midway_leaves_nothing(self, tmp_path):
        with pytest.raises(RuntimeError):
            with atomic_open(tmp_path / "out.bin", "wb") as fh:
                fh.write(b"partial")
                raise RuntimeError("interrupted")
        assert os.listdir(tmp_path) == []

    def test_rejects_modes_that_do_not_replace(self, tmp_path):
        for mode in ("a", "r", "x", "w+"):
            with pytest.raises(ParameterError):
                with atomic_open(tmp_path / "out.txt", mode):
                    pass
        assert os.listdir(tmp_path) == []


class TestArtifacts:
    def test_checkpoint_write_failing_midway(self, tmp_path, monkeypatch):
        path = tmp_path / "gen1.ckpt"
        monkeypatch.setattr(ck, "np", _NumpyFailingAt(3))
        with pytest.raises(OSError):
            ck.save_checkpoint(small_checkpoint(), str(path))
        assert os.listdir(tmp_path) == []

    def test_failed_rewrite_keeps_the_earlier_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "gen1.ckpt"
        ck.save_checkpoint(small_checkpoint(0.5), str(path))
        before = path.read_bytes()
        monkeypatch.setattr(ck, "np", _NumpyFailingAt(2))
        with pytest.raises(OSError):
            ck.save_checkpoint(small_checkpoint(0.25), str(path))
        monkeypatch.undo()
        assert os.listdir(tmp_path) == ["gen1.ckpt"]
        assert path.read_bytes() == before
        np.testing.assert_array_equal(ck.load_checkpoint(str(path)).named()["a"], 0.5)

    def test_label_file_write_failing_midway(self, tmp_path, monkeypatch):
        records = [
            sup.SoftLabelRecord(q, 1, 0.1, ((7, 0), (8, 0)), (0.5, 0.5)) for q in range(3)
        ]
        real = sup.format_record
        done = []

        def format_twice(rec):
            if len(done) == 2:
                raise OSError("no space left on device")
            done.append(rec)
            return real(rec)

        monkeypatch.setattr(sup, "format_record", format_twice)
        with pytest.raises(OSError):
            sup.write_label_file(str(tmp_path / "labels_gen2.txt"), records)
        assert os.listdir(tmp_path) == []

    def test_run_record_write_failing_midway(self, tmp_path):
        (tmp_path / "metrics.csv").write_text("generation\n")
        with pytest.raises(TypeError):
            # json.dump has written the artifacts and config by the time it
            # meets the seed it cannot serialize.
            cli._write_run_record(str(tmp_path), "train", ["a = 1"], {"world": object()})
        assert os.listdir(tmp_path) == ["metrics.csv"]

    def test_dataset_write_failing_in_world_json(self, tmp_path):
        spec = sc.WorldSpec(length_m=60.0, n_train_queries=1, n_train_gallery=1,
                            n_test_queries=1, n_test_gallery=1)
        ds = sc.generate_dataset(spec)
        # json.dump has written the spec by the time it meets the stat it
        # cannot serialize.
        ds.stats = {"unserializable": object()}
        with pytest.raises(TypeError):
            sc.write_dataset(ds, str(tmp_path))
        assert sorted(os.listdir(tmp_path)) == ["manifest.csv", "truth.csv"]
