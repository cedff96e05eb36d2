"""Checkpoint format tests: round-trip fidelity, header layout, corruption."""

import warnings

import numpy as np
import pytest

from regionsim import checkpoint as ck
from regionsim.errors import DatasetError, IntegrityError, SequencingError
from regionsim.model import init_model
from regionsim.seeding import derive_rng
from regionsim.synthcity import WorldSpec, generate_dataset, load_dataset, write_dataset


def sample_model(seed=0):
    rng = derive_rng(seed, "ckpt-images")
    images = [rng.uniform(0, 1, size=(32, 96)) for _ in range(6)]
    return init_model(seed, images)


def zero_velocities(model):
    return [np.zeros_like(p.data) for p in model.parameters()]


class TestFromToModel:
    def test_names_and_order(self):
        model = sample_model()
        ckpt = ck.from_model(model, zero_velocities(model), 1, 5, 0, "abcd")
        names = [n for n, _ in ckpt.tensors]
        assert names[:7] == list(ck.PARAM_NAMES)
        assert names[7:] == [f"mom.{n}" for n in ck.PARAM_NAMES]

    def test_round_trip_restores_values(self):
        model = sample_model(3)
        vels = [np.full_like(p.data, 0.25) for p in model.parameters()]
        ckpt = ck.from_model(model, vels, 2, 5, 3, "ffff")
        rebuilt, vels2 = ck.to_model(ckpt)
        for a, b in zip(model.parameters(), rebuilt.parameters()):
            np.testing.assert_array_equal(a.data, b.data)
            assert b.requires_grad
        for v in vels2:
            np.testing.assert_array_equal(v, np.full_like(v, 0.25))

    def test_copies_are_independent(self):
        model = sample_model()
        ckpt = ck.from_model(model, zero_velocities(model), 1, 5, 0, "abcd")
        model.vlad.centers.data += 1.0
        named = ckpt.named()
        assert not np.array_equal(named["vlad.centers"], model.vlad.centers.data)

    def test_velocity_count_mismatch(self):
        model = sample_model()
        with pytest.raises(IntegrityError):
            ck.from_model(model, zero_velocities(model)[:-1], 1, 5, 0, "abcd")

    def test_missing_tensor_rejected(self):
        model = sample_model()
        ckpt = ck.from_model(model, zero_velocities(model), 1, 5, 0, "abcd")
        ckpt.tensors = [(n, a) for n, a in ckpt.tensors if n != "conv2.bias"]
        with pytest.raises(IntegrityError):
            ck.to_model(ckpt)

    def test_generation_zero_rejected(self):
        model = sample_model()
        with pytest.raises(SequencingError):
            ck.from_model(model, zero_velocities(model), 0, 5, 0, "abcd")


class TestFileRoundTrip:
    def test_save_load_round_trip(self, tmp_path):
        model = sample_model(7)
        vels = [np.random.default_rng(1).normal(size=p.data.shape) for p in model.parameters()]
        ckpt = ck.from_model(model, vels, 3, 5, 7, "cafe0123")
        path = str(tmp_path / "gen3.ckpt")
        ck.save_checkpoint(ckpt, path)
        loaded = ck.load_checkpoint(path)
        assert loaded.generation == 3
        assert loaded.epoch == 5
        assert loaded.seed == 7
        assert loaded.config_hash == "cafe0123"
        for (n1, a1), (n2, a2) in zip(ckpt.tensors, loaded.tensors):
            assert n1 == n2
            # storage is float32, so loading equals an f4 round-trip
            np.testing.assert_array_equal(a2, a1.astype("<f4").astype(np.float64))

    def test_header_is_ascii_text(self, tmp_path):
        model = sample_model()
        ckpt = ck.from_model(model, zero_velocities(model), 1, 5, 0, "abcd")
        path = str(tmp_path / "c.ckpt")
        ck.save_checkpoint(ckpt, path)
        raw = open(path, "rb").read()
        head = raw[: raw.find(b"end\n")].decode("ascii")
        assert head.splitlines()[0] == "regionsim-checkpoint 1"
        assert "generation 1" in head
        assert "tensor conv1.weight 8 1 3 3" in head
        assert "tensor vlad.centers 8 16" in head

    def test_payload_is_little_endian_f4(self, tmp_path):
        model = sample_model()
        ckpt = ck.from_model(model, zero_velocities(model), 1, 5, 0, "abcd")
        path = str(tmp_path / "c.ckpt")
        ck.save_checkpoint(ckpt, path)
        raw = open(path, "rb").read()
        payload = raw[raw.find(b"end\n") + 4 :]
        n_first = ckpt.tensors[0][1].size
        got = np.frombuffer(payload, dtype="<f4", count=n_first).reshape(8, 1, 3, 3)
        np.testing.assert_array_equal(got, ckpt.tensors[0][1].astype("<f4"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError):
            ck.load_checkpoint(str(tmp_path / "missing.ckpt"))

    def test_truncated_payload(self, tmp_path):
        model = sample_model()
        ckpt = ck.from_model(model, zero_velocities(model), 1, 5, 0, "abcd")
        path = str(tmp_path / "c.ckpt")
        ck.save_checkpoint(ckpt, path)
        raw = open(path, "rb").read()
        open(path, "wb").write(raw[:-40])
        with pytest.raises(DatasetError):
            ck.load_checkpoint(path)

    def test_not_a_checkpoint(self, tmp_path):
        path = str(tmp_path / "junk.ckpt")
        open(path, "wb").write(b"hello world\nend\n")
        with pytest.raises(DatasetError):
            ck.load_checkpoint(path)

    def test_loaded_model_is_trainable(self, tmp_path):
        model = sample_model(5)
        ckpt = ck.from_model(model, zero_velocities(model), 1, 5, 5, "abcd")
        path = str(tmp_path / "c.ckpt")
        ck.save_checkpoint(ckpt, path)
        rebuilt, vels = ck.to_model(ck.load_checkpoint(path))
        assert len(rebuilt.parameters()) == 7
        assert all(p.requires_grad for p in rebuilt.parameters())
        assert all(v.dtype == np.float64 for v in vels)


class TestFileHandles:
    def test_loads_close_their_files(self, tmp_path):
        spec = WorldSpec(
            seed=1,
            length_m=60.0,
            n_train_queries=4,
            n_train_gallery=8,
            n_test_queries=4,
            n_test_gallery=8,
        )
        write_dataset(generate_dataset(spec), str(tmp_path / "data"))
        model = sample_model()
        path = str(tmp_path / "gen1.ckpt")
        ck.save_checkpoint(ck.from_model(model, zero_velocities(model), 1, 1, 0, "ab"), path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            ds = load_dataset(str(tmp_path / "data"))
            ck.load_checkpoint(path)
        assert len(ds.images) == 24
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
