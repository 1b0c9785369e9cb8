"""Checks on the end-to-end benchmark itself (not tier-1):

    python -m pytest benchmarks/e2e -q

A ``--scale 0.05`` pass of all seven workloads (two untraced repeats and
the traced pass each) must finish in well under a minute and emit every
metric ``BENCHMARK.json`` names.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
SCRIPT = os.path.join(HERE, "bench_e2e.py")
sys.path.insert(0, HERE)

import bench_e2e  # noqa: E402  (also proves the import is side-effect free)
import e2e_report  # noqa: E402
from e2e_cases import CASES  # noqa: E402
from e2e_layers import LAYERS, LayerTracer  # noqa: E402

SMALL = "0.05"


def run_script(*args: str, cwd: str = REPO_ROOT, script: str = SCRIPT):
    return subprocess.run(
        [sys.executable, "-B", script, *args], cwd=cwd, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=170,
    )


@pytest.fixture(scope="module")
def small_pass():
    """All seven workloads at scale 0.05, traced pass included."""
    name = "test-scale005.json"
    done = run_script("--scale", SMALL, "--repeats", "2", "--trace", "--seed", "5", "--out", name)
    assert done.returncode == 0, done.stdout + done.stderr
    path = bench_e2e.results_path(name)
    with open(path) as handle:
        data = json.load(handle)
    os.remove(path)
    return data, done.stdout


def test_import_has_no_side_effects():
    code = (
        "import sys, threading; sys.path.insert(0, %r); "
        "import bench_e2e, e2e_cases, e2e_layers, e2e_report; "
        "assert 'repro' not in sys.modules; "
        "assert threading.active_count() == 1" % HERE
    )
    done = subprocess.run([sys.executable, "-B", "-c", code], text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == ""


def test_manifest_is_the_metric_tables_written_out():
    with open(bench_e2e.MANIFEST) as handle:
        manifest = json.load(handle)
    assert manifest == e2e_report.benchmark_manifest(
        manifest["command"], manifest["paths"], manifest["run_seconds"]
    )
    assert manifest["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in manifest["workloads"]] == list(CASES)
    assert len(manifest["per_layer"]) <= 128
    assert "setup_s" in [m["name"] for m in manifest["end_to_end"]]


def test_small_pass_emits_every_metric(small_pass):
    data, stdout = small_pass
    assert data["fingerprint"]["seed"] == 5
    assert data["fingerprint"]["scale"] == float(SMALL)
    assert data["fingerprint"]["usable_cores"] >= 1
    assert set(data["workloads"]) == set(CASES)
    per_layer = set(e2e_report.per_layer_units())
    for name, result in data["workloads"].items():
        assert result["correct"] and result["deterministic"], name
        assert result["fail_share"] == 0 and result["attempted"] >= 1, name
        for metric, _unit, _better, _bound in e2e_report.END_TO_END:
            assert result["metrics"][metric] > 0, (name, metric)
            assert metric in stdout
        assert set(result["per_layer"]) == per_layer, name
        # "partial"/"absent" is how a renamed hook shows; it is not a failure
        assert set(result["layer_status"]) == set(LAYERS)
        assert result["per_layer"]["trace.overhead_ratio"] > 0


def test_layer_self_times_fit_in_the_traced_wall(small_pass):
    data, _stdout = small_pass
    for name, result in data["workloads"].items():
        layers = result["per_layer"]
        total = sum(layers[f"{layer}.self_s"] for layer in LAYERS)
        traced_wall = layers["trace.overhead_ratio"] * result["metrics"]["wall_s"]
        assert 0 < total <= traced_wall * (1 + 1e-9), name
        assert sum(layers[f"{layer}.share"] for layer in LAYERS) <= 1 + 1e-9


def test_workloads_stress_the_layers_they_claim(small_pass):
    layers = {n: r["per_layer"] for n, r in small_pass[0]["workloads"].items()}
    assert layers["bootstrap_discovery"]["core.pathshard.calls"] == 0
    assert layers["bootstrap_discovery"]["flowsim.maxmin.calls"] == 0
    assert layers["native_coldstart"]["core.pathgraph.builds"] > 0
    assert layers["native_warm"]["core.host_agent.path_queries"] == 0
    assert layers["native_warm"]["core.host_agent.pathtable_hit_share"] == 1.0
    assert layers["chaos_failover"]["faultinject.runner.faults"] > 0
    assert layers["control_storm"]["netsim.events.calls"] == 0
    assert layers["control_storm"]["consensus.store.commits"] > 0
    assert layers["fluid_websearch"]["hybrid.packet_region.calls"] == 0
    assert layers["fluid_websearch"]["flowsim.maxmin.solves"] > 0
    assert layers["packet_incast"]["hybrid.packet_region.frames"] > 0


def test_contract_lines():
    for trace, names in (
        ("0", [m[0] for m in e2e_report.END_TO_END]),
        ("1", list(e2e_report.per_layer_units())),
    ):
        done = run_script("--workload", "control_storm", "--seed", "9", "--scale", SMALL,
                          "--seconds", "0.1", "--trace", trace)
        assert done.returncode == 0, done.stderr
        assert "seed=9" in done.stdout.splitlines()[0]
        line = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        assert list(line["metrics"]) == names
        assert all(set(v) == {"value", "unit"} for v in line["metrics"].values())


def test_seed_changes_the_inputs():
    digests = set()
    for seed in ("1", "2"):
        done = run_script("--child", "--workload", "control_storm", "--seed", seed,
                          "--scale", SMALL, "--trace", "0")
        assert done.returncode == 0, done.stderr
        digests.add(json.loads(done.stdout)["digest"])
    assert len(digests) == 2


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(bench_e2e.MANIFEST, tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    script = str(tmp_path / "benchmarks" / "e2e" / "bench_e2e.py")
    done = run_script("--workload", "control_storm", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=str(tmp_path), script=script)
    assert done.returncode != 0
    assert done.stdout == ""


def _repeat(**over):
    base = {
        "traced": False, "setup_s": 0.2, "wall_s": 2.0, "peak_rss_mb": 30.0,
        "attempted": 100, "failed": 0, "work": 1000, "work_unit": "ops",
        "sim": {"sim.duration_s": 1.5}, "digest": "d0",
        "counters": {"netsim.events.events": 1000, "core.pathservice.query_us_p50": 3.0},
    }
    base.update(over)
    return base


def test_repeats_that_disagree_fail_every_operation():
    agree = e2e_report.aggregate(
        "w", [_repeat(), _repeat(wall_s=2.2, setup_s=0.3), _repeat(wall_s=2.1, peak_rss_mb=31.0)])
    assert agree["correct"]
    assert agree["metrics"]["wall_s"] == 2.0 and agree["metrics"]["setup_s"] == 0.2  # fastest
    assert agree["metrics"]["peak_rss_mb"] == 30.0  # median
    assert agree["metrics"]["ok_share"] == 1.0
    # host-time readings may differ between repeats; exact things may not
    timing = dict(_repeat()["counters"], **{"core.pathservice.query_us_p50": 9.0})
    assert e2e_report.aggregate("w", [_repeat(), _repeat(counters=timing)])["correct"]
    count = dict(_repeat()["counters"], **{"netsim.events.events": 1001})
    for bad in (_repeat(digest="d1"), _repeat(counters=count), None):
        result = e2e_report.aggregate("w", [_repeat(), bad])
        assert not result["correct"]
        assert result["failed"] == result["attempted"] == 100
        assert result["fail_share"] == 1.0


def test_compare_applies_the_bounds():
    bounds = {"wall_s": ("lower", 0.10), "ok_share": ("higher", 0.001)}

    def side(walls, ok=1.0, digest="d0"):
        ordered = sorted(walls)
        return {"workloads": {"w": {
            "metrics": {"wall_s": ordered[len(ordered) // 2], "ok_share": ok},
            "samples": {"wall_s": walls}, "digest": digest, "exact": {},
        }}}

    def verdicts(a, b):
        lines, regressed = e2e_report.compare(a, b, bounds)
        return [line.split()[-1] for line in lines[1:]], regressed

    base = side([2.00, 2.02, 2.01])
    assert verdicts(base, side([2.05, 2.06, 2.04])) == (["unchanged", "unchanged", "identical"], 0)
    assert verdicts(base, side([2.40, 2.41, 2.42])) == (["regressed", "unchanged", "identical"], 1)
    assert verdicts(base, side([2.0, 2.4, 2.9]))[0][0] == "unresolved"
    assert verdicts(base, side([2.0, 2.0, 2.0], ok=0.99)) == (["unchanged", "regressed", "identical"], 1)
    assert verdicts(base, side([2.0, 2.0, 2.0], digest="d1"))[0][-1] == "CHANGED"


def test_missing_entry_point_marks_the_layer_instead_of_raising():
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    tracer = LayerTracer({
        "gone.method": ("repro.netsim.events:EventLoop.no_such_method",),
        "gone.module": ("repro.no_such_module:function",),
        "half": ("repro.netsim.events:EventLoop.run",
                 "repro.netsim.events:EventLoop.renamed_away"),
    })
    tracer.install()
    try:
        from repro.netsim.events import EventLoop

        loop = EventLoop()
        loop.schedule(1.0, lambda: None)
        with tracer.span("timed"):
            loop.run()
    finally:
        tracer.uninstall()
    assert [tracer.status(layer) for layer in tracer.layers] == ["absent", "absent", "partial"]
    folded = tracer.snapshot()["layers"]
    assert folded["half"]["calls"] == 1 and folded["half"]["self_s"] > 0
    assert folded["gone.method"]["calls"] == 0
    assert folded["half"]["missing"] == ["repro.netsim.events:EventLoop.renamed_away"]
    assert [row["name"] for row in tracer.span_rows()] == [
        "timed", "repro.netsim.events:EventLoop.run"]
    assert EventLoop.run.__name__ == "run" and not hasattr(EventLoop.run, "__wrapped__")
