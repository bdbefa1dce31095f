"""The dpm benchmark: end-to-end and per-layer metrics of three dpm workloads.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every measured command is a fresh ``python3 -m dpm`` process run from
``src/``; ``--seed`` is passed to dpm as its seed.  Workloads:

* ``verify-all``: ``dpm verify all --n 200000``, the reference campaign run
  (stick kernels, thm52's ranked-jump path, statistic accumulation).
* ``jump-path``: ``dpm verify sethuraman --construction gamma --alpha 5
  --n 50000``; ``inverse_e1`` on arrays of millions of elements and no
  stick kernel.  At this n a campaign is one shard, so ``--jobs 2`` runs
  it in-process like ``--jobs 1``.
* ``sample-stream``: ``dpm sample`` at alpha 2, once with the stick
  construction and once with ``--construction gamma``; the per-measure
  object path, with ``inverse_e1`` on arrays of a few dozen elements.

A unit of work runs the workload's commands one after another (``wall_s``),
then again on two workers (``wall_jobs2_s``): a verify command with
``--jobs 2``, the two sample commands side by side.

With ``--trace 0`` the run measures ``setup_s`` (a fresh interpreter's
``import dpm``, median of several) and then repeats units while another
still fits in ``--seconds`` (at least once).  It reports the medians over
units of ``wall_s`` and ``wall_jobs2_s``, and ``peak_rss_mb``, the largest
RSS of any process of the workload, pool children included.  It prints
``fail_ratio`` with its base and, on sample-stream, ``stick_measures_per_s``
and ``jump_measures_per_s``, the medians over units of measures drawn per
second of each sample command.

With ``--trace 1`` the run alternates untraced and traced one-worker passes
(at least two pairs, more while they fit in ``--seconds``), the traced ones
in-process under ``perfbench/tracer.py``, and ends with one two-worker pass.
It reports the medians over traced passes of the per-layer metrics,
``verify.scaling_eff_jobs2`` and ``trace.overhead_ratio``, the median over
pairs of traced over untraced wall time, minus 1.  Span files go to
``.bench_build/perfbench``.

Every output is checked.  One operation is a command run, a verify report,
a sampled measure or a comparison.  An operation fails on a nonzero exit
code, a report whose verdict is not the expected one (a negative control
must fail, every other test pass), a sample line that does not parse or
whose weights do not sum to 1 within 1e-9, exact counts that differ between
traced passes, or output that differs between runs of one command and
seed: ``--jobs 1`` against two workers, traced against untraced, and
against earlier runs, whose digests are kept per source tree in
``.bench_build/perfbench/digests.json``.  Verify output is compared by its
``reports`` array, since the envelope echoes the job count.  ``correct`` is
false when an output is malformed, wrong or not reproducible; a statistical
verdict that misses is a failed operation but leaves ``correct`` true,
since a correct sampler still fails a test at the campaigns' false-alarm
rate.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines above it print each
metric with its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
DEADLINE_S = 170.0
SETUP_REPEATS = 11
MIN_TRACE_PAIRS = 2
WEIGHT_TOL = 1e-9
# Each workload maps a name to one dpm command, without seed or job count.
WORKLOADS = {
    "verify-all": {"verify": ["verify", "all", "--n", "200000"]},
    "jump-path": {"verify": ["verify", "sethuraman", "--construction", "gamma",
                             "--alpha", "5", "--n", "50000"]},
    "sample-stream": {
        "stick": ["sample", "--alpha", "2", "--n", "1000"],
        "jump": ["sample", "--alpha", "2", "--n", "420", "--construction", "gamma"],
    },
}


@dataclass
class Checks:
    """Operation counts and reproducibility of one benchmark run."""

    digests: dict[str, str]
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    notes: list[str] = field(default_factory=list)

    def op(self, ok: bool, hard: bool = False, note: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.correct = self.correct and not hard
            self.notes.append(note)

    def same_bytes(self, key: str, body: bytes) -> None:
        digest = hashlib.sha256(body).hexdigest()
        known = self.digests.setdefault(key, digest)
        self.op(known == digest, hard=True, note=f"output differs between runs of {key}")


@dataclass
class Proc:
    code: int
    wall: float
    rss_mb: float
    stdout: bytes


def _kill(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Runner:
    """Runs and times processes; kills what outlives the deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def run(self, argvs: list[list[str]], tag: str) -> tuple[list[Proc], float]:
        """Run the processes side by side; return them and the wall time
        until the last one ended."""
        if time.monotonic() > self.deadline:
            raise TimeoutError("benchmark deadline passed")
        outs = [open(OUT / f"{tag}-{i}.out", "wb+") for i in range(len(argvs))]
        try:
            t0 = time.perf_counter()
            # Each process leads its own group, so the kill takes pool
            # children along.
            popens = [subprocess.Popen([sys.executable] + argv, cwd=ROOT, env=self.env,
                                       stdout=out, stderr=subprocess.DEVNULL,
                                       start_new_session=True)
                      for argv, out in zip(argvs, outs)]
            timers = [threading.Timer(max(1.0, self.deadline - time.monotonic()), _kill, (p.pid,))
                      for p in popens]
            for timer in timers:
                timer.start()
            procs = []
            try:
                for popen, out in zip(popens, outs):
                    # wait4 reports the largest RSS of the process and of the
                    # children it reaped, which covers multiprocessing workers.
                    _, status, usage = os.wait4(popen.pid, 0)
                    wall = time.perf_counter() - t0
                    popen.returncode = os.waitstatus_to_exitcode(status)
                    out.seek(0)
                    procs.append(Proc(popen.returncode, wall, usage.ru_maxrss / 1024.0,
                                      out.read()))
            finally:
                for timer in timers:
                    timer.cancel()
            return procs, time.perf_counter() - t0
        finally:
            for out in outs:
                out.close()

    def one(self, argv: list[str], tag: str) -> Proc:
        return self.run([argv], tag)[0][0]


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "dpm").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _expected(report: dict) -> bool:
    if report["kind"] == "probe":
        return True
    return report["verdict"] == ("fail" if report["expected_failure"] else "pass")


def check_verify(proc: Proc, checks: Checks) -> bytes | None:
    """Count the operations of one finished verify command; return the
    bytes that must not depend on the job count, if it printed any."""
    checks.op(proc.code == 0, hard=proc.code not in (0, 1), note=f"exit code {proc.code}")
    if proc.code not in (0, 1):
        return None
    try:
        env = json.loads(proc.stdout)
        reports = env["reports"]
        wellformed = env["ok"] == (proc.code == 0) and env["n_reports"] == len(reports)
    except (ValueError, KeyError, TypeError):
        wellformed, reports = False, []
    checks.op(wellformed, hard=True, note="malformed verify envelope")
    for r in reports:
        checks.op(_expected(r), note=f"unexpected verdict {r['verdict']}: {r['name']}")
    return json.dumps(reports, sort_keys=True, separators=(",", ":")).encode()


def check_sample(proc: Proc, n: int, checks: Checks) -> bytes | None:
    """Count the operations of one finished sample command: the run, then
    each of the ``n`` measures it should print."""
    checks.op(proc.code == 0, hard=True, note=f"exit code {proc.code}")
    lines = proc.stdout.splitlines() if proc.code == 0 else []
    for i in range(n):
        try:
            total = sum(a["w"] for a in json.loads(lines[i])["atoms"])
            ok, note = abs(total - 1.0) <= WEIGHT_TOL, f"weights sum to {total!r}"
        except (IndexError, ValueError, KeyError, TypeError):
            ok, note = False, f"sample line {i} missing or malformed"
        checks.op(ok, hard=True, note=note)
    checks.op(len(lines) <= n, hard=True, note="more sample lines than --n")
    return proc.stdout if proc.code == 0 else None


class Workload:
    """The commands of one workload at one seed, and the checks of their output."""

    def __init__(self, name: str, seed: int, checks: Checks):
        self.commands = {k: v + ["--seed", str(seed)] for k, v in WORKLOADS[name].items()}
        self.verify = "verify" in self.commands
        self.checks = checks
        src = _source_digest()
        self.keys = {k: f"{src} {' '.join(v)}" for k, v in self.commands.items()}

    def argv(self, name: str, jobs: int) -> list[str]:
        extra = ["--jobs", str(jobs)] if self.verify else []
        return ["-m", "dpm"] + self.commands[name] + extra

    def check(self, name: str, proc: Proc) -> None:
        if self.verify:
            body = check_verify(proc, self.checks)
        else:
            body = check_sample(proc, self.draws(name), self.checks)
        if body is not None:
            self.checks.same_bytes(self.keys[name], body)

    def draws(self, name: str) -> int:
        cmd = self.commands[name]
        return int(cmd[cmd.index("--n") + 1])


def one_worker(runner: Runner, wl: Workload, tag: str) -> tuple[dict[str, float], float]:
    """Each command at --jobs 1, one after another: wall time per command,
    and the largest RSS."""
    walls, rss = {}, 0.0
    for name in wl.commands:
        proc = runner.one(wl.argv(name, 1), f"{tag}-{name}")
        wl.check(name, proc)
        walls[name] = proc.wall
        rss = max(rss, proc.rss_mb)
    return walls, rss


def two_workers(runner: Runner, wl: Workload, tag: str) -> tuple[float, float]:
    """The workload on two workers: wall time and the largest RSS."""
    names = list(wl.commands)
    procs, wall = runner.run([wl.argv(name, 2) for name in names], tag)
    for name, proc in zip(names, procs):
        wl.check(name, proc)
    return wall, max(p.rss_mb for p in procs)


def traced_pass(runner: Runner, wl: Workload, tag: str) -> tuple[float, dict[str, float]]:
    """Each command at --jobs 1 under the tracer: total wall time and the
    per-layer metrics of all of them."""
    wall, paths = 0.0, []
    for name in wl.commands:
        path = OUT / f"spans-{name}.jsonl"
        proc = runner.one([str(ROOT / "perfbench" / "tracer.py"), str(path)]
                          + wl.argv(name, 1)[2:], f"{tag}-{name}")
        wl.check(name, proc)
        wall += proc.wall
        paths.append(path)
    return wall, tracer.layer_metrics(tracer.load_spans(*paths))


def measure_setup(runner: Runner) -> float:
    times = []
    for i in range(SETUP_REPEATS):
        proc = runner.one(["-c", "import dpm"], f"setup{i}")
        if proc.code != 0:
            raise RuntimeError("import dpm failed")
        times.append(proc.wall)
    return statistics.median(times)


def run_untraced(runner: Runner, wl: Workload, seconds: float):
    setup = measure_setup(runner)
    started = time.monotonic()
    units, twos, rss, longest = [], [], 0.0, 0.0
    while not units or time.monotonic() - started + longest <= seconds:
        u0 = time.monotonic()
        walls, r1 = one_worker(runner, wl, f"unit{len(units)}")
        two, r2 = two_workers(runner, wl, f"unit{len(units)}-jobs2")
        units.append(walls)
        twos.append(two)
        rss = max(rss, r1, r2)
        longest = max(longest, time.monotonic() - u0)
    metrics = {
        "setup_s": setup,
        "wall_s": statistics.median(sum(w.values()) for w in units),
        "wall_jobs2_s": statistics.median(twos),
        "peak_rss_mb": rss,
    }
    info = {}
    if not wl.verify:
        info = {f"{name}_measures_per_s": statistics.median(
                    wl.draws(name) / w[name] for w in units)
                for name in wl.commands}
    return metrics, info, [f"units {len(units)}"]


def run_traced(runner: Runner, wl: Workload, seconds: float):
    started = time.monotonic()
    plain, ratios, layers, longest = [], [], [], 0.0
    while len(ratios) < MIN_TRACE_PAIRS or time.monotonic() - started + longest <= seconds:
        p0 = time.monotonic()
        tag = f"pair{len(ratios)}"
        # Alternate which pass goes first, so that drift in machine speed
        # does not favour one of them.
        if len(ratios) % 2:
            traced_wall, metrics = traced_pass(runner, wl, tag + "-traced")
            walls, _ = one_worker(runner, wl, tag)
        else:
            walls, _ = one_worker(runner, wl, tag)
            traced_wall, metrics = traced_pass(runner, wl, tag + "-traced")
        plain.append(sum(walls.values()))
        ratios.append(traced_wall / plain[-1])
        layers.append(metrics)
        longest = max(longest, time.monotonic() - p0)
    for name in tracer.EXACT:
        runs = {m[name] for m in layers}
        wl.checks.op(len(runs) == 1, hard=True, note=f"{name} differs between passes: {runs}")
    two, _ = two_workers(runner, wl, "jobs2")
    values = {name: layers[0][name] if name in tracer.EXACT
              else statistics.median(m[name] for m in layers) for name in layers[0]}
    values["verify.scaling_eff_jobs2"] = statistics.median(plain) / (2.0 * two)
    values["trace.overhead_ratio"] = statistics.median(ratios) - 1.0
    return values, {}, [f"pairs {len(ratios)}", f"overhead_ratios {[r - 1 for r in ratios]!r}"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "dpm" / "__init__.py").is_file():
        print(f"perfbench: no dpm sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    runner = Runner(time.monotonic() + DEADLINE_S)
    if runner.one(["-c", "import dpm"], "warmup").code != 0:
        print("perfbench: import dpm failed", file=sys.stderr)
        return 2
    digest_file = OUT / "digests.json"
    checks = Checks(json.loads(digest_file.read_text()) if digest_file.is_file() else {})
    wl = Workload(args.workload, args.seed, checks)
    run = run_traced if args.trace else run_untraced
    values, info, notes = run(runner, wl, args.seconds)
    digest_file.write_text(json.dumps(checks.digests, sort_keys=True, indent=0))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: (values[m["name"]], m["unit"])
               for m in declared["per_layer" if args.trace else "end_to_end"]}
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    for name, value in info.items():
        print(f"{name} {value!r} 1/s")
    ratio = checks.failed / checks.attempted
    print(f"fail_ratio {ratio!r} ratio ({checks.failed} failed of {checks.attempted} attempted)")
    for line in notes + checks.notes[:20]:
        print(line)
    print(json.dumps({
        "correct": checks.correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if checks.correct else 1


if __name__ == "__main__":
    sys.exit(main())
