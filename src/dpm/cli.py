"""Command-line front end: sample, moments, verify, characterize.

Output on stdout (or ``--out``) is canonical JSON (sorted keys, compact
separators) or CSV and is byte-identical across reruns with the same
configuration and seed, whatever ``--jobs`` is; timing and progress notes
go to stderr.  Exit codes: 0 all checks passed, 1 a statistical check
failed, 2 bad usage or configuration, an unwritable ``--out`` among them.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import itertools
import json
import math
import secrets
import sys
import time
from dataclasses import astuple, fields

from . import __version__
from .characterize import MAX_CHARACTERIZE_N, CharacterizationRow, characterize_from_samples
from .measures import BaseModel
from .moments import build_moment_table, multi_indices
from .samplers import RngStream, beta_pairs, sample_jump_measure, sample_stick_breaking
from .verify import (
    CAMPAIGN_NAMES,
    CampaignSettings,
    TestReport,
    campaign_ok,
    false_alarm_budget,
    run_verify,
)

# Rows per sampler call in `dpm sample`: output is written batch by batch,
# so memory stays flat in --n.
_SAMPLE_BATCH = 64


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def _finite_or_null(obj):
    """``obj`` with every non-finite float in it replaced by None, JSON null."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    return obj


@contextlib.contextmanager
def _output(out: str | None, mode: str = "w"):
    """The file named by ``--out``, or stdout."""
    if not out:
        yield sys.stdout
        return
    try:
        fh = open(out, mode, encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot write --out: {exc}")
    with fh:
        yield fh


def _emit(text: str, out: str | None) -> None:
    with _output(out) as fh:
        fh.write(text)


def _envelope(command: str, **body) -> str:
    """The JSON payload of ``command``: tool and version, then ``body``,
    with null for every non-finite number."""
    body = _finite_or_null(body)
    return _canonical_json({"tool": "dpm", "version": __version__, "command": command, **body})


def _csv(header, rows) -> str:
    """CSV text with one header line.  The csv module writes a float by
    ``str``, which for a Python float is its round-trip ``repr``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _parse_seed(raw: str) -> int:
    if raw == "random":
        return secrets.randbits(32)
    try:
        seed = int(raw)
    except ValueError:
        raise ValueError(f"seed must be an integer or 'random', got {raw!r}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return seed


def _parse_base(text: str) -> BaseModel:
    """A base model from its JSON text."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"--base is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ValueError("--base must be a JSON object")
    return BaseModel.from_dict(raw)


def _settings(args: argparse.Namespace) -> CampaignSettings:
    """The settings with the values of the setting flags the user set; the
    rest keep their defaults.  ``seed`` and ``base`` are parsed here, and a
    base sets alpha unless alpha is given too (it must then agree)."""
    given = {k: getattr(args, k) for k in args.settings if getattr(args, k) is not None}
    if "seed" in given:
        given["seed"] = _parse_seed(given["seed"])
    base = given.pop("base", "")
    if base != "":  # an empty --base means no base
        given["base"] = base = _parse_base(base)
        given.setdefault("alpha", base.alpha)
    return CampaignSettings(**given)


# ---------------------------------------------------------------------------
# sample


def _cmd_sample(args: argparse.Namespace) -> int:
    if args.n < 0:
        raise ValueError(f"n must be non-negative, got {args.n}")
    s = _settings(args)
    model = s.base or BaseModel.default(s.alpha)
    rng = RngStream(s.seed)

    def draw(start: int):
        m = min(_SAMPLE_BATCH, args.n - start)
        if s.construction == "stick":
            return sample_stick_breaking(model, rng, m)
        return sample_jump_measure(model, rng, m)

    batches = map(draw, range(0, args.n, _SAMPLE_BATCH))
    # The first batch is drawn before --out is opened, so an error raised
    # while drawing leaves that file as it was.
    first = next(batches, [])
    with _output(args.out) as fh:
        for batch in itertools.chain([first], batches):
            fh.write("".join(_canonical_json(zeta.to_dict()) for zeta in batch))
    return 0


# ---------------------------------------------------------------------------
# moments


def _moment_entries(alphas, max_degree: int):
    """Each moment up to ``max_degree`` by both routes, and their gap."""
    exact = build_moment_table(alphas, max_degree, method="exact")
    recursion = build_moment_table(alphas, max_degree, method="recursion")
    entries = []
    for degree in range(max_degree + 1):
        for ks in multi_indices(len(alphas), degree):
            e, r = exact.value(ks), recursion.value(ks)
            entries.append({"k": list(ks), "exact": e, "recursion": r, "abs_diff": abs(e - r)})
    return entries


def _cmd_moments(args: argparse.Namespace) -> int:
    try:
        alphas = tuple(float(tok) for tok in args.alphas.split(","))
    except ValueError:
        raise ValueError(f"--alphas must be a comma-separated list of numbers, got {args.alphas!r}")
    # Written as "not 0 <= a < inf", so that NaN fails too.
    if not alphas or not all(0.0 <= a < math.inf for a in alphas):
        raise ValueError(f"--alphas must be finite and non-negative, got {args.alphas!r}")
    if not 0.0 < sum(alphas) < math.inf:
        raise ValueError("--alphas must have a positive, finite total")
    if args.max_degree < 0:
        raise ValueError("--max-degree must be non-negative")
    entries = _moment_entries(alphas, args.max_degree)
    if args.format == "json":
        text = _envelope("moments", alphas=list(alphas), max_degree=args.max_degree,
                         entries=entries)
    else:
        value_cols = ["exact", "recursion", "abs_diff"]
        text = _csv(
            [f"k{i}" for i in range(len(alphas))] + value_cols,
            [row["k"] + [row[c] for c in value_cols] for row in entries],
        )
    _emit(text, args.out)
    return 0


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(args: argparse.Namespace) -> int:
    settings = _settings(args)
    # Fail on an unwritable --out before the campaign runs; appending
    # leaves an existing file as it is until the report is written.
    with _output(args.out, "a"):
        pass
    started = time.monotonic()
    reports = run_verify(args.campaign, settings)
    elapsed = time.monotonic() - started
    ok = campaign_ok(reports)
    budget = false_alarm_budget(reports)
    if args.format == "csv":
        text = _csv(
            [f.name for f in fields(TestReport)], [r.to_dict().values() for r in reports]
        )
    else:
        config = dict(vars(settings))
        del config["jobs"]  # so that stdout does not depend on the worker count
        config["base"] = settings.base.to_dict() if settings.base else None
        text = _envelope(
            "verify",
            campaign=args.campaign,
            config=config,
            ok=ok,
            false_alarm_budget=budget,
            n_reports=len(reports),
            reports=[r.to_dict() for r in reports],
        )
    _emit(text, args.out)
    unexpected = sum(0 if r.ok() else 1 for r in reports)
    print(
        f"verify {args.campaign}: {len(reports)} reports, "
        f"{unexpected} unexpected outcomes, false-alarm budget {budget:.2g}, {elapsed:.1f}s",
        file=sys.stderr,
    )
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# characterize


def _cmd_characterize(args: argparse.Namespace) -> int:
    s = _settings(args)
    if s.n > MAX_CHARACTERIZE_N:
        raise ValueError(f"characterize holds every pair in memory: n must be at most "
                         f"{MAX_CHARACTERIZE_N}, got {s.n}")
    z, w = beta_pairs(s.p, s.alpha, s.n, RngStream(s.seed).gen)
    report = characterize_from_samples(
        z,
        w,
        depth=args.depth,
        p=s.p if args.p_known else None,
    )
    if args.format == "csv":
        text = _csv(
            [f.name for f in fields(CharacterizationRow)], [astuple(row) for row in report.rows]
        )
    else:
        config = {k: getattr(s, k) for k in args.settings}
        config.update(depth=args.depth, p_known=args.p_known)
        text = _envelope("characterize", config=config, report=report.to_dict())
    _emit(text, args.out)
    print(
        f"characterize: p_hat={report.p_hat:.6g} alpha_hat={report.alpha_hat:.6g} "
        f"max|z|={report.max_abs_z:.3g} verdict={report.verdict}",
        file=sys.stderr,
    )
    if report.verdict == "fail":
        return 1
    return 0


# ---------------------------------------------------------------------------
# parser


# One argparse spec per CampaignSettings field.  A command takes the flag
# --<field> (with "-" for "_") of each field it lists; every flag defaults
# to None, so that `_settings` takes only what the user set.
_SETTING_FLAGS = {
    "alpha": dict(type=float, help="concentration"),
    "p": dict(type=float, help="Z ~ Be(p alpha, (1 - p) alpha)"),
    "n": dict(type=int, help="number of samples"),
    "seed": dict(help="integer seed or 'random'"),
    "jobs": dict(type=int, help="worker processes"),
    "base": dict(help="base model as JSON"),
    "construction": dict(choices=("stick", "gamma"), help="stick-breaking or normalized jumps"),
}


def _add_command(sub, name: str, func, settings=(), *, formats=True, **kw):
    """The subcommand ``name``: a flag for each setting it lists, then
    ``--format`` (if ``formats``) and ``--out``."""
    command = sub.add_parser(name, **kw)
    for key in settings:
        command.add_argument("--" + key.replace("_", "-"), default=None, **_SETTING_FLAGS[key])
    if formats:
        command.add_argument("--format", choices=("json", "csv"), default="json")
    command.add_argument("--out", default=None, help="write output to this file")
    command.set_defaults(func=func, settings=settings)
    return command


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpm",
        description=(
            "Sample random probability measures, tabulate their projection "
            "moments, and verify the size-biased mixing identities that pin "
            "down their law."
        ),
    )
    parser.add_argument("--version", action="version", version=f"dpm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = _add_command(
        sub, "sample", _cmd_sample, ("alpha", "seed", "base", "construction"),
        formats=False, help="draw random measures as JSON lines",
    )
    sp.add_argument("--n", type=int, default=10, help="number of draws")

    mp = _add_command(sub, "moments", _cmd_moments, help="tabulate mixed projection moments")
    mp.add_argument("--alphas", required=True, help="comma-separated block parameters")
    mp.add_argument("--max-degree", type=int, default=4, help="largest total degree")

    vp = _add_command(sub, "verify", _cmd_verify, tuple(_SETTING_FLAGS),
                      help="run a Monte Carlo verification campaign")
    vp.add_argument("campaign", choices=CAMPAIGN_NAMES + ("all",))

    cp = _add_command(
        sub, "characterize", _cmd_characterize, ("alpha", "p", "n", "seed"),
        help="recover mixing-weight moments from sampled data",
    )
    cp.add_argument("--depth", type=int, default=6)
    cp.add_argument("--p-known", action="store_true",
                    help="treat p as known instead of estimating it from the samples")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"dpm: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
