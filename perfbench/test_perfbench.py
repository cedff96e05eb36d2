"""Self-test of the benchmark: every workload once on criterion 8's tiny world.

Run from the repository root:

    PYTHONPATH=src python -m pytest perfbench -q
"""

import json
import math
from pathlib import Path

import pytest

import workloads
from regionsim import autograd as ag
from regionsim import checkpoint, supervision, synthcity, trainer
from regionsim import evaluate as ev

BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
PATCHABLE = (ag, ag.Tensor, checkpoint, ev, supervision, synthcity, trainer)


def _snapshot() -> dict:
    return {(owner.__name__, k): v for owner in PATCHABLE for k, v in vars(owner).items()}


def _run(workload, trace):
    before = _snapshot()
    result = workloads.measure(
        workload, seed=5, seconds=0, trace=trace, small=True, setup_seconds=0
    )
    after = _snapshot()
    changed = [key for key, value in before.items() if after.get(key) is not value]
    assert not changed, f"wrappers left in place: {changed}"
    added = [key for key in after.keys() - before.keys() if not key[1].startswith("__")]
    assert not added, f"attributes added: {added}"
    return result


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_reported_with_its_unit(workload, trace):
    result = _run(workload, trace)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] == workloads.MIN_SETUPS + (2 if trace else 1)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    assert reported == {m["name"]: m["unit"] for m in declared}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    if trace:
        values = {name: m["value"] for name, m in result["metrics"].items()}
        region_scans = values["mining.hardest_negative_region.calls"]
        assert (region_scans > 0) == (workload == "distill-regions")
        assert (values["graph.nodes_per_batch"] > 0) == (workload != "retrieval-4x")
    else:
        assert result["metrics"]["recall_at_1"]["value"] > 0


def test_output_mismatch_counts_as_failure_without_stopping(monkeypatch):
    calls = []
    original = trainer.evaluate_model

    def drifting(*args, **kwargs):
        recalls = original(*args, **kwargs)
        calls.append(1)
        return {k: v / len(calls) for k, v in recalls.items()}

    monkeypatch.setattr(trainer, "evaluate_model", drifting)
    # A traced run makes two repetitions; the second reports another recall.
    result = workloads.measure(
        "gen1-geo", seed=5, seconds=0, trace=True, small=True, setup_seconds=0
    )
    assert len(calls) == 2
    assert result["correct"] is False
    assert result["failed"] == 1
    assert result["attempted"] == workloads.MIN_SETUPS + 2
