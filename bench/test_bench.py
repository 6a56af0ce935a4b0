"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest -q bench/test_bench.py

Checks that every metric named in BENCHMARK.json is emitted with its
unit, that the same seed yields byte-identical configs, that the speed
probe converts wall time to reference seconds, that the traced run
records spans in every layer and repeats its counts exactly, and that
the benchmark refuses to run without the program's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_UNITS = {"count", "bytes"}


def bench(workload, trace, seed=3, root=ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=root, capture_output=True, text=True, timeout=170)
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_configs(name):
    def dump(seed):
        return json.dumps(workloads.build(name, seed), sort_keys=True)

    assert dump(11) == dump(11)
    assert dump(11) != dump(12)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_end_to_end_metrics_emitted_with_units(name):
    result = result_of(bench(name, trace=0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_reference_seconds_scale_by_probe_speed_and_drop_probe_time():
    probe = speed.SpeedProbe()
    probe.samples = [speed.REFERENCE_S]
    mark = probe.mark()
    # two probes inside the span, at half the reference speed, 0.1 s in all
    probe.samples += [2 * speed.REFERENCE_S, 2 * speed.REFERENCE_S]
    probe.spent = 0.1
    assert probe.reference_seconds(1.1, mark) == pytest.approx(0.5)
    # a span with no probe of its own uses the latest ones
    assert probe.reference_seconds(1.0, probe.mark()) == pytest.approx(2 / 3)


def test_traced_run_spans_every_layer_and_repeats_counts():
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    spans = dict.fromkeys(tracing.LAYERS, 0)
    for name in workloads.WORKLOADS:
        first = result_of(bench(name, trace=1))
        second = result_of(bench(name, trace=1))
        assert first["correct"] and second["correct"]
        assert {k: v["unit"] for k, v in first["metrics"].items()} == expected
        for key, unit in expected.items():
            if unit in COUNT_UNITS:
                assert first["metrics"][key] == second["metrics"][key], key
        for layer in tracing.LAYERS:
            spans[layer] += first["metrics"][f"{layer}.spans"]["value"]
    assert all(count > 0 for count in spans.values()), spans


def test_refuses_to_run_without_sources():
    bare = ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = bench("analysis", trace=0, root=bare)
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
