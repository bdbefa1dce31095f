"""Command-line front end: sample, moments, verify, characterize.

Output on stdout (or ``--out``) is canonical JSON (sorted keys, compact
separators) or CSV and is byte-identical across reruns with the same
configuration and seed; timing and progress notes go to stderr.  Exit
codes: 0 all checks passed, 1 a statistical check failed, 2 bad usage or
configuration.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import secrets
import sys
import time

from . import __version__
from .characterize import characterize_from_samples
from .measures import BaseModel
from .moments import build_moment_table, multi_indices
from .samplers import RngStream, beta_pairs, sample_jump_measure, sample_stick_breaking
from .verify import (
    CAMPAIGN_NAMES,
    CampaignSettings,
    campaign_ok,
    probe_symmetric,
    run_verify,
)

_PROBE_STREAM_BASE = 7_000_000


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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


def _parse_base(raw: str) -> BaseModel:
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(f"--base is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise ValueError("--base must be a JSON object")
    return BaseModel.from_dict(data)


def _resolve_jobs(explicit: int | None) -> int:
    if explicit is not None:
        jobs = explicit
    else:
        env = os.environ.get("DPM_JOBS")
        jobs = int(env) if env else 1
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    return jobs


# ---------------------------------------------------------------------------
# sample


def _cmd_sample(args: argparse.Namespace) -> int:
    seed = _parse_seed(args.seed)
    if args.n < 0:
        raise ValueError(f"n must be non-negative, got {args.n}")
    base = _parse_base(args.base) if args.base else None
    alpha = args.alpha if args.alpha is not None else (base.alpha if base else 2.0)
    if base is not None and args.alpha is not None and base.alpha != args.alpha:
        raise ValueError(
            f"--alpha {args.alpha:g} conflicts with the base model's alpha {base.alpha:g}"
        )
    model = base or BaseModel(alpha=alpha, atom_probs=(0.2, 0.35), diffuse_weight=0.45)
    rng = RngStream(seed)
    lines = []
    for _ in range(args.n):
        if args.construction == "stick":
            zeta = sample_stick_breaking(model, rng)
        else:
            zeta = sample_jump_measure(model, rng, trunc_eps=args.eps)
        lines.append(_canonical_json(zeta.to_dict()))
    _emit("".join(lines), args.out)
    return 0


# ---------------------------------------------------------------------------
# moments


def _moment_entries(alphas, max_degree: int, method: str):
    tables = {}
    for m in ("exact", "recursion") if method == "both" else (method,):
        tables[m] = build_moment_table(alphas, max_degree, method=m)
    entries = []
    for degree in range(max_degree + 1):
        for ks in multi_indices(len(alphas), degree):
            row = {"k": list(ks)}
            for m, table in tables.items():
                row[m] = table.value(ks)
            if method == "both":
                row["abs_diff"] = abs(row["exact"] - row["recursion"])
            entries.append(row)
    return entries


def _cmd_moments(args: argparse.Namespace) -> int:
    try:
        alphas = tuple(float(tok) for tok in args.alphas.split(","))
    except ValueError:
        raise ValueError(f"--alphas must be a comma-separated list of numbers, got {args.alphas!r}")
    if not alphas or any(a < 0.0 for a in alphas):
        raise ValueError("--alphas must be non-negative with at least one entry")
    if sum(alphas) <= 0.0:
        raise ValueError("--alphas must have positive total")
    if args.max_degree < 0:
        raise ValueError("--max-degree must be non-negative")
    entries = _moment_entries(alphas, args.max_degree, args.method)
    if args.format == "json":
        payload = {
            "tool": "dpm",
            "version": __version__,
            "command": "moments",
            "alphas": list(alphas),
            "max_degree": args.max_degree,
            "method": args.method,
            "entries": entries,
        }
        _emit(_canonical_json(payload), args.out)
    else:
        buf = io.StringIO()
        value_cols = ["exact", "recursion", "abs_diff"] if args.method == "both" else [args.method]
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow([f"k{i}" for i in range(len(alphas))] + value_cols)
        for row in entries:
            writer.writerow(list(row["k"]) + [repr(row[c]) for c in value_cols])
        _emit(buf.getvalue(), args.out)
    return 0


# ---------------------------------------------------------------------------
# verify


_REPORT_COLUMNS = (
    "name",
    "kind",
    "statistic",
    "p_value",
    "lhs",
    "rhs",
    "stderr",
    "n_samples",
    "seed",
    "verdict",
    "expected_failure",
    "notes",
)


def _reports_csv(reports) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_REPORT_COLUMNS)
    for r in reports:
        d = r.to_dict()
        writer.writerow(
            [repr(d[c]) if isinstance(d[c], float) else d[c] for c in _REPORT_COLUMNS]
        )
    return buf.getvalue()


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read config file: {exc}")
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    return data


def _pick(flag_value, config: dict, key: str, default):
    if flag_value is not None:
        return flag_value
    if key in config:
        return config[key]
    return default


def _cmd_verify(args: argparse.Namespace) -> int:
    config = _load_config(args.config) if args.config else {}
    seed = _parse_seed(str(_pick(args.seed, config, "seed", "12345")))
    base_raw = _pick(args.base, config, "base", None)
    if isinstance(base_raw, dict):
        base = BaseModel.from_dict(base_raw)
    elif base_raw:
        base = _parse_base(base_raw)
    else:
        base = None
    alpha = _pick(args.alpha, config, "alpha", None)
    if base is not None and alpha is not None and base.alpha != alpha:
        raise ValueError(
            f"--alpha {alpha:g} conflicts with the base model's alpha {base.alpha:g}"
        )
    if alpha is None:
        alpha = base.alpha if base is not None else 2.0
    settings = CampaignSettings(
        alpha=float(alpha),
        p=float(_pick(args.p, config, "p", 0.3)),
        n=int(_pick(args.n, config, "n", 200_000)),
        seed=seed,
        threshold=float(_pick(args.threshold, config, "threshold", 4.0)),
        jobs=_resolve_jobs(_pick(args.jobs, config, "jobs", None)),
        base=base,
        construction=str(_pick(args.construction, config, "construction", "stick")),
        trunc_eps=float(_pick(args.eps, config, "eps", 1e-12)),
        jump_eps=float(_pick(args.jump_eps, config, "jump_eps", 1e-8)),
    )
    if settings.construction not in ("stick", "gamma"):
        raise ValueError(f"construction must be 'stick' or 'gamma', got {settings.construction!r}")
    if not 0.0 < settings.p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {settings.p}")
    if settings.alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {settings.alpha}")
    if settings.n < 2:
        raise ValueError(f"n must be at least 2, got {settings.n}")
    if not 0.0 < settings.trunc_eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {settings.trunc_eps}")
    if not 0.0 < settings.jump_eps <= 0.1:
        raise ValueError(f"jump eps must lie in (0, 0.1], got {settings.jump_eps}")
    probe = bool(_pick(args.probe_symmetric, config, "probe_symmetric", False))
    depth = int(_pick(args.depth, config, "depth", 6))
    started = time.monotonic()
    reports = run_verify(args.campaign, settings)
    if probe:
        reports = reports + probe_symmetric(
            settings.alpha,
            settings.n,
            RngStream(seed, _PROBE_STREAM_BASE),
            depth=depth,
            jobs=settings.jobs,
        )
    elapsed = time.monotonic() - started
    ok = campaign_ok(reports)
    if args.format == "csv":
        text = _reports_csv(reports)
    else:
        payload = {
            "tool": "dpm",
            "version": __version__,
            "command": "verify",
            "campaign": args.campaign,
            "config": {
                "alpha": settings.alpha,
                "p": settings.p,
                "n": settings.n,
                "seed": settings.seed,
                "threshold": settings.threshold,
                "jobs": settings.jobs,
                "base": base.to_dict() if base is not None else None,
                "construction": settings.construction,
                "eps": settings.trunc_eps,
                "jump_eps": settings.jump_eps,
                "probe_symmetric": probe,
                "depth": depth,
            },
            "ok": ok,
            "n_reports": len(reports),
            "reports": [r.to_dict() for r in reports],
        }
        text = _canonical_json(payload)
    _emit(text, args.out)
    unexpected = sum(0 if r.ok() else 1 for r in reports)
    print(
        f"verify {args.campaign}: {len(reports)} reports, "
        f"{unexpected} unexpected outcomes, {elapsed:.1f}s",
        file=sys.stderr,
    )
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# characterize


def _cmd_characterize(args: argparse.Namespace) -> int:
    seed = _parse_seed(args.seed)
    if not 0.0 < args.p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {args.p}")
    if args.alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {args.alpha}")
    if args.n < 100:
        raise ValueError(f"n must be at least 100, got {args.n}")
    z, w = beta_pairs(args.p, args.alpha, args.n, RngStream(seed).gen)
    report = characterize_from_samples(
        z,
        w,
        depth=args.depth,
        p=args.p if args.p_known else None,
        threshold=args.threshold,
    )
    payload = {
        "tool": "dpm",
        "version": __version__,
        "command": "characterize",
        "config": {
            "alpha": args.alpha,
            "p": args.p,
            "n": args.n,
            "seed": seed,
            "depth": args.depth,
            "threshold": args.threshold,
            "p_known": bool(args.p_known),
        },
        "report": report.to_dict(),
    }
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            ["degree", "predicted", "empirical", "reference", "stderr", "z", "condition"]
        )
        for row in report.rows:
            d = row.to_dict()
            writer.writerow([d["degree"]] + [repr(d[c]) for c in
                            ("predicted", "empirical", "reference", "stderr", "z", "condition")])
        _emit(buf.getvalue(), args.out)
    else:
        _emit(_canonical_json(payload), args.out)
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

    sp = sub.add_parser("sample", help="draw random measures as JSON lines")
    sp.add_argument("--alpha", type=float, default=None, help="concentration (default 2)")
    sp.add_argument("--base", default=None, help="base model as JSON")
    sp.add_argument("--n", type=int, default=10, help="number of draws")
    sp.add_argument("--seed", default="12345", help="integer seed or 'random'")
    sp.add_argument(
        "--construction",
        choices=("stick", "gamma"),
        default="stick",
        help="stick-breaking or normalized-jump sampler",
    )
    sp.add_argument("--eps", type=float, default=1e-8, help="jump truncation level")
    sp.add_argument("--out", default=None, help="write output to this file")
    sp.set_defaults(func=_cmd_sample)

    mp = sub.add_parser("moments", help="tabulate mixed projection moments")
    mp.add_argument("--alphas", required=True, help="comma-separated block parameters")
    mp.add_argument("--max-degree", type=int, default=4, help="largest total degree")
    mp.add_argument(
        "--method",
        choices=("exact", "recursion", "both"),
        default="both",
        help="closed form, one-step recursion, or both with their gap",
    )
    mp.add_argument("--format", choices=("json", "csv"), default="json")
    mp.add_argument("--out", default=None)
    mp.set_defaults(func=_cmd_moments)

    vp = sub.add_parser("verify", help="run a Monte Carlo verification campaign")
    vp.add_argument("campaign", choices=CAMPAIGN_NAMES + ("all",))
    vp.add_argument("--alpha", type=float, default=None)
    vp.add_argument("--p", type=float, default=None)
    vp.add_argument("--n", type=int, default=None, help="samples per campaign")
    vp.add_argument("--seed", default=None, help="integer seed or 'random'")
    vp.add_argument("--threshold", type=float, default=None, help="|z| acceptance bound")
    vp.add_argument("--jobs", type=int, default=None, help="worker processes (env DPM_JOBS)")
    vp.add_argument("--base", default=None, help="base model as JSON")
    vp.add_argument("--construction", choices=("stick", "gamma"), default=None)
    vp.add_argument("--eps", type=float, default=None, help="stick truncation level")
    vp.add_argument("--jump-eps", type=float, default=None, help="jump truncation level")
    vp.add_argument(
        "--probe-symmetric",
        action="store_const",
        const=True,
        default=None,
        help="append the informational symmetric-point probe",
    )
    vp.add_argument("--depth", type=int, default=None, help="probe depth")
    vp.add_argument("--format", choices=("json", "csv"), default="json")
    vp.add_argument("--out", default=None)
    vp.add_argument("--config", default=None, help="JSON file of defaults; flags override")
    vp.set_defaults(func=_cmd_verify)

    cp = sub.add_parser(
        "characterize", help="recover mixing-weight moments from sampled data"
    )
    cp.add_argument("--alpha", type=float, default=2.0)
    cp.add_argument("--p", type=float, default=0.3)
    cp.add_argument("--n", type=int, default=200_000)
    cp.add_argument("--seed", default="12345", help="integer seed or 'random'")
    cp.add_argument("--depth", type=int, default=6)
    cp.add_argument("--threshold", type=float, default=4.0)
    cp.add_argument(
        "--p-known",
        action="store_true",
        help="treat p as known instead of estimating it from the samples",
    )
    cp.add_argument("--format", choices=("json", "csv"), default="json")
    cp.add_argument("--out", default=None)
    cp.set_defaults(func=_cmd_characterize)
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
