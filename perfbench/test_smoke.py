"""Smoke test of the benchmark at minimal size.

Each workload shrinks to one cheap instance of each kind; every metric that
BENCHMARK.json names must then come out once, with its unit and a finite
value, in the last line the benchmark prints.
"""

import functools
import json
import math
import sys

import pytest

import run

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402  (needs the sources on the path)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

SMALL = {
    "paper-examples": functools.partial(
        workloads.paper_examples, names=("affine",), variants=("quadratic",),
        growth_kw={"i_max": 1000}, divergence_kw={"levels": (10,)},
        flow_points=1000),
    "random-pl": functools.partial(workloads.random_pl, n_pairs=1,
                                   flow_points=1000),
    "sudakov": functools.partial(
        workloads.sudakov, pairs=workloads.SUDAKOV_PAIRS[:1],
        verify_kw={"n_samples": 2000, "n_rays": 2}, flow_points=1000),
}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_every_metric_emitted_once(workload, trace, monkeypatch, capsys):
    monkeypatch.setitem(workloads.GENERATORS, workload, SMALL[workload])
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)])
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in expected)
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert math.isfinite(got["value"]), m["name"]


def test_refuses_a_directory_without_sources(monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", run.ROOT / "no-such-checkout" / "src")
    assert run.main(["--workload", "sudakov", "--seed", "0", "--seconds", "1",
                     "--trace", "0"]) != 0
    assert capsys.readouterr().out == ""
