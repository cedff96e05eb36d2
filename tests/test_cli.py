"""CLI tests: subcommands, config overrides, provenance records, exit codes."""

import hashlib
import json
import os
import shutil

import pytest

from regionsim import gradsuite
from regionsim.cli import main
from regionsim.config import parse_config_text, run_config_from, world_spec_from
from regionsim.supervision import read_label_file
from regionsim.synthcity import load_dataset

TINY_WORLD = [
    "--set", "world.length_m=120",
    "--set", "world.n_train_queries=8",
    "--set", "world.n_train_gallery=48",
    "--set", "world.n_test_queries=8",
    "--set", "world.n_test_gallery=48",
]
TINY_TRAIN = [
    "--set", "train.generations=2",
    "--set", "train.epochs=1",
    "--set", "train.k_positives=5",
    "--set", "train.center_init_images=8",
    "--set", "eval.out_dim=16",
]


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("cli-data"))
    assert main(["gen-data", "--out", out] + TINY_WORLD) == 0
    return out


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, data_dir):
    out = str(tmp_path_factory.mktemp("cli-run"))
    code = main(["train", "--data", data_dir, "--out", out] + TINY_TRAIN)
    assert code == 0
    return out


class TestGenData:
    def test_dataset_loads_back(self, data_dir):
        ds = load_dataset(data_dir)
        assert len(ds.images) == 112
        assert ds.spec.length_m == 120.0

    def test_run_record_hashes_match_files(self, data_dir):
        record = json.load(open(os.path.join(data_dir, "run.json")))
        assert record["command"] == "gen-data"
        assert record["artifacts"]
        for rel, digest in record["artifacts"].items():
            payload = open(os.path.join(data_dir, rel), "rb").read()
            assert hashlib.sha256(payload).hexdigest() == digest


class TestTrain:
    def test_expected_artifacts(self, run_dir):
        names = sorted(os.listdir(run_dir))
        assert names == ["gen1.ckpt", "gen2.ckpt", "labels_gen2.txt", "metrics.csv", "run.json"]

    def test_metrics_has_one_row_per_generation(self, run_dir):
        lines = open(os.path.join(run_dir, "metrics.csv")).read().splitlines()
        assert lines[0] == "generation,recall1,recall5,recall10"
        assert len(lines) == 3

    def test_config_echo_round_trips(self, run_dir):
        record = json.load(open(os.path.join(run_dir, "run.json")))
        values = parse_config_text("\n".join(record["config"]))
        assert world_spec_from(values).length_m == 120.0
        cfg = run_config_from(values)
        assert cfg.generations == 2 and cfg.eval_out_dim == 16
        assert record["seeds"] == {"world": 0, "train": 0}

    def test_ablation_flag_reaches_config(self, data_dir, tmp_path):
        out = str(tmp_path / "naive")
        args = ["train", "--data", data_dir, "--out", out, "--naive-topk"] + TINY_TRAIN
        assert main(args) == 0
        record = json.load(open(os.path.join(out, "run.json")))
        values = parse_config_text("\n".join(record["config"]))
        cfg = run_config_from(values)
        assert cfg.naive_topk and not cfg.use_soft and not cfg.use_regions
        assert not os.path.exists(os.path.join(out, "labels_gen2.txt"))


class TestEval:
    def test_prints_three_recall_lines(self, run_dir, data_dir, capsys):
        ckpt = os.path.join(run_dir, "gen2.ckpt")
        code = main(["eval", "--checkpoint", ckpt, "--data", data_dir, "--out-dim", "16"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert [ln.split()[0] for ln in lines] == ["recall@1", "recall@5", "recall@10"]
        for ln in lines:
            value = ln.split()[1]
            assert len(value.split(".")[1]) == 3
            assert 0.0 <= float(value) <= 1.0


class TestLabels:
    def test_one_line_per_entry_with_overlap(self, run_dir, data_dir, capsys):
        path = os.path.join(run_dir, "labels_gen2.txt")
        assert main(["labels", "--labels", path, "--data", data_dir]) == 0
        out = capsys.readouterr().out.splitlines()
        records = read_label_file(path)
        assert len(out) == sum(len(r.entries) for r in records)
        fields = out[0].split()
        assert fields[0] == "query" and "overlap" in fields
        overlap = float(fields[fields.index("overlap") + 1])
        assert 0.0 <= overlap <= 1.0

    def test_query_filter(self, run_dir, capsys):
        path = os.path.join(run_dir, "labels_gen2.txt")
        records = read_label_file(path)
        target = records[0].query_id
        assert main(["labels", "--labels", path, "--query", str(target)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out and all(ln.split()[1] == str(target) for ln in out)


class TestGradcheck:
    def test_reports_per_op_and_max(self, capsys):
        assert main(["gradcheck"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1].startswith("max ")
        assert float(lines[-1].split()[1]) <= 1e-4
        assert [line.split()[0] for line in lines[:-1]] == [n for n, _ in gradsuite.ALL_CHECKS]


class TestExitCodes:
    def test_missing_checkpoint_is_io_error(self, data_dir):
        code = main(["eval", "--checkpoint", "/nonexistent.ckpt", "--data", data_dir])
        assert code == 4

    def test_missing_labels_file_is_io_error(self):
        assert main(["labels", "--labels", "/nonexistent.txt"]) == 4

    def test_malformed_manifest_line_is_io_error(self, run_dir, data_dir, tmp_path, capsys):
        bad = tmp_path / "data"
        shutil.copytree(data_dir, bad)
        manifest = bad / "manifest.csv"
        lines = manifest.read_text().splitlines(keepends=True)
        lines[1] = lines[1].replace("\n", ",7\n")  # a fourth field on the first data line
        manifest.write_text("".join(lines))
        path = os.path.join(run_dir, "labels_gen2.txt")
        assert main(["labels", "--labels", path, "--data", str(bad)]) == 4
        assert "manifest.csv line 2" in capsys.readouterr().err

    def test_unknown_config_key_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("bogus.key = 3\n")
        assert main(["train", "--config", str(bad), "--out", str(tmp_path / "x")]) == 3

    def test_malformed_set_is_config_error(self, tmp_path):
        args = ["gen-data", "--out", str(tmp_path / "y"), "--set", "world.seed"]
        assert main(args) == 3

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["train", "--frobnicate"])
        assert err.value.code == 2
