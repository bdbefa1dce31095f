"""In-process tracing of one dpm command, for the benchmark's per-layer metrics.

Run as a script from the root of the repository:

    PYTHONPATH=src python3 perfbench/tracer.py SPANS_FILE DPM_ARG...

It wraps public functions of the dpm layers (cli, verify, samplers,
specialfn, stats, measures) at the module attribute where the package looks
each one up, runs ``dpm.cli.main(DPM_ARG...)`` in this process and, when the
command ends, writes one JSON line per span to SPANS_FILE.  The wrappers
only read arguments and results, so stdout is byte-identical to an untraced
run of the same command.

A span holds its id, its parent's id, the layer function's name, start and
end (``time.perf_counter`` seconds) and the attributes taken at that
boundary: exact counts, or the campaign name.  Counting a result runs after
the span ends and is recorded as a ``trace.count`` sibling, so it is charged
to neither the kernel nor its caller's self time, and it is subtracted from
the wall time of the campaign it ran under.

``layer_metrics`` turns a list of spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

KERNELS = ("stick_projection_chunk", "stick_ensemble_chunk", "gamma_projection_chunk")
CAMPAIGNS = ("mecke", "sethuraman", "tbeta", "tbeta2", "sizebias", "thm52")
# Per-layer metrics that are counts, not times: a fixed command and seed
# must give them exactly.
EXACT = (
    "samplers.stick_ensemble_chunk.useful_ratio",
    "samplers.gamma_projection_chunk.jumps_per_row",
    "specialfn.inverse_e1.elems",
    "specialfn.e1_evals_per_inverse",
    "samplers.stick_projection_chunk.out_bytes",
    "samplers.stick_ensemble_chunk.out_bytes",
    "samplers.gamma_projection_chunk.out_bytes",
)


class Tracer:
    """Collects spans in memory for one traced command."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    def _span(self, name: str, parent, start: float, end: float) -> dict:
        span = {"id": len(self.spans), "parent": parent, "name": name,
                "start": start, "end": end}
        self.spans.append(span)
        return span

    def wrap(self, name: str, fn, count=None):
        """Return ``fn`` recording a span per call; ``count(arguments, result)``
        returns the attributes to attach to it."""
        sig = inspect.signature(fn) if count is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            span = self._span(name, parent, 0.0, 0.0)
            self._open.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if count is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span["attrs"] = count(bound.arguments, result)
                self._span("trace.count", parent, span["end"], time.perf_counter())
            return result

        return traced

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def _out_bytes(result) -> int:
    arrays = result if isinstance(result, tuple) else (result,)
    return int(sum(a.nbytes for a in arrays))


def _kernel_counts(args, result) -> dict:
    return {"rows": int(args["m"]), "out_bytes": _out_bytes(result)}


def _ensemble_counts(args, result) -> dict:
    # A row needed the sticks drawn up to the first one after which its
    # leftover mass (the sum of its later columns, the closing leftover
    # included) is at most trunc_eps; the kernel drew weights.shape[1] - 1
    # sticks for every row.
    weights = result[0]
    eps = float(args["trunc_eps"])
    needed = 0
    for lo in range(0, weights.shape[0], 8192):
        block = weights[lo:lo + 8192]
        leftover = np.cumsum(block[:, ::-1], axis=1)[:, ::-1][:, 1:]
        needed += int((np.argmax(leftover <= eps, axis=1) + 1).sum())
    counts = _kernel_counts(args, result)
    counts["sticks_needed"] = needed
    counts["sticks_drawn"] = int(weights.shape[0] * (weights.shape[1] - 1))
    return counts


def _elems(name: str):
    def count(args, result) -> dict:
        return {"elems": int(np.size(args[name]))}
    return count


def install(tracer: Tracer):
    """Wrap the layer functions of the imported dpm package; return the
    traced ``dpm.cli.main``."""
    import dpm.cli
    import dpm.measures
    import dpm.samplers
    import dpm.specialfn
    import dpm.verify

    wrap = tracer.wrap
    for kernel in KERNELS:
        count = _ensemble_counts if kernel == "stick_ensemble_chunk" else _kernel_counts
        setattr(dpm.verify, kernel, wrap(f"samplers.{kernel}", getattr(dpm.verify, kernel), count))
    dpm.verify.ks_test = wrap("stats.ks_test", dpm.verify.ks_test)
    dpm.verify.ks_two_sample = wrap("stats.ks_two_sample", dpm.verify.ks_two_sample)
    # run_verify("all") recurses through the module global, and the CLI
    # holds its own binding, so both names get the one wrapper.
    run_verify = wrap("verify.run_verify", dpm.verify.run_verify,
                      lambda args, result: {"campaign": args["name"]})
    dpm.verify.run_verify = dpm.cli.run_verify = run_verify
    dpm.samplers.inverse_e1 = wrap("specialfn.inverse_e1", dpm.samplers.inverse_e1, _elems("y"))
    dpm.specialfn.exp_integral_e1 = wrap(
        "specialfn.exp_integral_e1", dpm.specialfn.exp_integral_e1, _elems("x"))
    # The per-measure path of `dpm sample`: one sampler call, to_dict and
    # JSON encoding per measure.  The CLI's encoder also writes the verify
    # envelope, a few milliseconds per verify command.
    for sampler in ("sample_stick_breaking", "sample_jump_measure"):
        setattr(dpm.cli, sampler, wrap(f"samplers.{sampler}", getattr(dpm.cli, sampler)))
    dpm.measures.DiscreteMeasure.to_dict = wrap(
        "measures.serialize", dpm.measures.DiscreteMeasure.to_dict)
    dpm.cli._canonical_json = wrap("measures.serialize", dpm.cli._canonical_json)
    return wrap("cli.main", dpm.cli.main)


# ---------------------------------------------------------------------------
# analysis


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread per command, so the children of a span do
    not overlap and their durations add up.
    """
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def counting_times(spans) -> dict[int, float]:
    """For each span, the time of the ``trace.count`` spans beneath it."""
    parents = {s["id"]: s["parent"] for s in spans}
    below: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["name"] == "trace.count":
            p = s["parent"]
            while p is not None:
                below[p] += s["end"] - s["start"]
                p = parents[p]
    return below


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one traced command, or of several whose spans
    ``load_spans`` read together.

    Metrics of layers the commands never entered read 0.
    """
    self_s: dict[str, float] = defaultdict(float)
    counts: dict[tuple[str, str], int] = defaultdict(int)
    campaign_wall: dict[str, float] = defaultdict(float)
    jumps_kept = 0
    own = self_times(spans)
    counting = counting_times(spans)
    names = {s["id"]: s["name"] for s in spans}
    for s in spans:
        self_s[s["name"]] += own[s["id"]]
        for key, val in s.get("attrs", {}).items():
            if key == "campaign":
                if val != "all":
                    campaign_wall[val] += s["end"] - s["start"] - counting[s["id"]]
            else:
                counts[s["name"], key] += val
        if (s["name"] == "specialfn.inverse_e1"
                and names.get(s["parent"]) == "samplers.gamma_projection_chunk"):
            jumps_kept += s["attrs"]["elems"]

    m: dict[str, float] = {}
    for kernel in KERNELS:
        name = f"samplers.{kernel}"
        m[f"{name}.self_s"] = self_s[name]
        m[f"{name}.out_bytes"] = counts[name, "out_bytes"]
    ens = "samplers.stick_ensemble_chunk"
    m[f"{ens}.useful_ratio"] = _ratio(counts[ens, "sticks_needed"], counts[ens, "sticks_drawn"])
    gam = "samplers.gamma_projection_chunk"
    m[f"{gam}.jumps_per_row"] = _ratio(jumps_kept, counts[gam, "rows"])
    for fn in ("inverse_e1", "exp_integral_e1"):
        m[f"specialfn.{fn}.self_s"] = self_s[f"specialfn.{fn}"]
    m["specialfn.inverse_e1.elems"] = counts["specialfn.inverse_e1", "elems"]
    m["specialfn.e1_evals_per_inverse"] = _ratio(
        counts["specialfn.exp_integral_e1", "elems"], counts["specialfn.inverse_e1", "elems"])
    for sampler in ("sample_stick_breaking", "sample_jump_measure"):
        m[f"samplers.{sampler}.self_s"] = self_s[f"samplers.{sampler}"]
    m["measures.serialize.self_s"] = self_s["measures.serialize"]
    for campaign in CAMPAIGNS:
        m[f"verify.{campaign}.wall_s"] = campaign_wall[campaign]
    m["verify.accumulate.self_s"] = self_s["verify.run_verify"]
    m["stats.ks.self_s"] = self_s["stats.ks_test"] + self_s["stats.ks_two_sample"]
    return m


def load_spans(*paths) -> list[dict]:
    """Spans of one or more span files, renumbered so that ids stay unique."""
    spans: list[dict] = []
    for path in paths:
        base = len(spans)
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                span = json.loads(line)
                span["id"] += base
                if span["parent"] is not None:
                    span["parent"] += base
                spans.append(span)
    return spans


def main(argv) -> int:
    spans_path, dpm_args = argv[0], argv[1:]
    tracer = Tracer()
    traced_main = install(tracer)
    try:
        return traced_main(dpm_args)
    finally:
        sys.stdout.flush()
        tracer.write(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
