"""Tests of the benchmark itself: span arithmetic, exact counts, failure path.

Run from the root of the repository with ``python3 -m pytest perfbench -q``.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tracer

ROOT = Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def _span(i, parent, name, start, end, **attrs):
    span = {"id": i, "parent": parent, "name": name, "start": start, "end": end}
    if attrs:
        span["attrs"] = attrs
    return span


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span(0, None, "verify.run_verify", 0.0, 10.0, campaign="thm52"),
        _span(1, 0, "samplers.gamma_projection_chunk", 1.0, 6.0, rows=10, out_bytes=80),
        _span(2, 1, "specialfn.inverse_e1", 2.0, 5.0, elems=40),
        _span(3, 2, "specialfn.exp_integral_e1", 2.5, 4.0, elems=100),
        _span(4, 0, "trace.count", 6.0, 6.5),
        _span(5, 0, "stats.ks_test", 7.0, 7.25),
    ]
    own = tracer.self_times(spans)
    assert own == {0: 4.25, 1: 2.0, 2: 1.5, 3: 1.5, 4: 0.5, 5: 0.25}
    m = tracer.layer_metrics(spans)
    assert m["verify.accumulate.self_s"] == 4.25
    # The campaign's wall time leaves out the tracer's own counting.
    assert m["verify.thm52.wall_s"] == 9.5
    assert m["samplers.gamma_projection_chunk.self_s"] == 2.0
    assert m["samplers.gamma_projection_chunk.jumps_per_row"] == 4.0
    assert m["specialfn.e1_evals_per_inverse"] == 2.5
    assert m["stats.ks.self_s"] == 0.25
    assert m["samplers.stick_ensemble_chunk.useful_ratio"] == 0.0


def test_counting_below_nested_campaigns_is_left_out_of_each():
    spans = [
        _span(0, None, "verify.run_verify", 0.0, 20.0, campaign="all"),
        _span(1, 0, "verify.run_verify", 0.0, 8.0, campaign="sizebias"),
        _span(2, 1, "samplers.stick_ensemble_chunk", 1.0, 4.0, rows=4, out_bytes=32,
              sticks_needed=6, sticks_drawn=8),
        _span(3, 1, "trace.count", 4.0, 5.0),
        _span(4, 0, "trace.count", 8.0, 8.25),
        _span(5, 0, "verify.run_verify", 9.0, 19.0, campaign="thm52"),
    ]
    m = tracer.layer_metrics(spans)
    assert m["verify.sizebias.wall_s"] == 7.0
    assert m["verify.thm52.wall_s"] == 10.0
    assert m["samplers.stick_ensemble_chunk.useful_ratio"] == 0.75


def test_span_files_load_together_with_unique_ids(tmp_path):
    first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    first.write_text(json.dumps(_span(0, None, "cli.main", 0.0, 3.0)) + "\n"
                     + json.dumps(_span(1, 0, "measures.serialize", 1.0, 2.0)) + "\n")
    second.write_text(json.dumps(_span(0, None, "cli.main", 0.0, 2.0)) + "\n"
                      + json.dumps(_span(1, 0, "measures.serialize", 0.5, 1.0)) + "\n")
    spans = tracer.load_spans(first, second)
    assert [(s["id"], s["parent"]) for s in spans] == [(0, None), (1, 0), (2, None), (3, 2)]
    assert tracer.layer_metrics(spans)["measures.serialize.self_s"] == 1.5


def _traced(tmp_path, name, args):
    spans = tmp_path / f"{name}.jsonl"
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(spans), *args],
        cwd=ROOT, env=ENV, capture_output=True, check=True).stdout
    return out, tracer.layer_metrics(tracer.load_spans(spans))


@pytest.mark.parametrize("args", [
    ["verify", "all", "--n", "4000", "--seed", "5", "--jobs", "1"],
    ["verify", "sethuraman", "--construction", "gamma", "--alpha", "5", "--n", "10000",
     "--seed", "5", "--jobs", "1"],
    ["sample", "--alpha", "2", "--n", "60", "--seed", "5"],
    ["sample", "--alpha", "2", "--n", "30", "--construction", "gamma", "--seed", "5"],
])
def test_counts_repeat_and_output_is_untouched(tmp_path, args):
    plain = subprocess.run([sys.executable, "-m", "dpm", *args], cwd=ROOT, env=ENV,
                           capture_output=True, check=True).stdout
    out1, m1 = _traced(tmp_path, "a", args)
    out2, m2 = _traced(tmp_path, "b", args)
    assert out1 == out2 == plain
    assert {k: m1[k] for k in tracer.EXACT} == {k: m2[k] for k in tracer.EXACT}
    if args[0] == "sample":
        sampler = "sample_jump_measure" if "gamma" in args else "sample_stick_breaking"
        assert m1[f"samplers.{sampler}.self_s"] > 0
        assert m1["measures.serialize.self_s"] > 0
    if "gamma" in args:
        assert m1["specialfn.inverse_e1.elems"] > 0
    if args[1] == "all":
        assert all(m1[k] > 0 for k in tracer.EXACT)


def test_exits_nonzero_without_result_when_sources_are_missing(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "jump-path", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
