"""The byte ledger: a sha256 of each output whose bytes the command-line
contract pins, recorded under one numpy version.

An entry is the stdout of one command, or, for ``verify all``, the CSV rows
of one campaign at one seed.  A change that moves a draw or a statistic
moves some entries, and the test names them.  After a change meant to move
bytes, rewrite the ledger with

    PYTHONPATH=src python tests/test_ledger.py --write

and say in the change which entries moved.
"""

import contextlib
import csv
import hashlib
import io
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from dpm import verify
from dpm.cli import main
from dpm.verify import CAMPAIGN_NAMES

LEDGER = Path(__file__).with_name("ledger.json")
VERIFY_SEEDS = (42, 7)
COMMANDS = {
    "sample stick": ["sample", "--n", "200", "--seed", "3"],
    "sample gamma": ["sample", "--n", "200", "--seed", "3", "--construction", "gamma"],
    "moments": ["moments", "--alphas", "0.6,1.4", "--max-degree", "4"],
    "characterize": ["characterize", "--n", "20000", "--seed", "1"],
}


def _stdout(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        main(argv)
    return out.getvalue()


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def compute_ledger() -> dict:
    """Each entry's sha256, by its name."""
    entries = {}
    for seed in VERIFY_SEEDS:
        text = _stdout(["verify", "all", "--n", "20000", "--seed", str(seed), "--format", "csv"])
        lines = text.splitlines(keepends=True)[1:]
        by_campaign = {}
        for line, [name, *_] in zip(lines, csv.reader(lines)):
            campaign = re.match(r"[a-z0-9]+", name)[0]
            by_campaign[campaign] = by_campaign.get(campaign, "") + line
        assert sorted(by_campaign) == sorted(CAMPAIGN_NAMES)
        entries.update({f"verify {c} seed {seed}": _sha256(t) for c, t in by_campaign.items()})
    entries.update({name: _sha256(_stdout(argv)) for name, argv in COMMANDS.items()})
    return entries


def moved(entries: dict, recorded: dict) -> list[str]:
    """The names whose hash differs from the recorded one, or that only
    one side has."""
    return sorted(k for k in entries.keys() | recorded.keys() if entries.get(k) != recorded.get(k))


@pytest.fixture
def recorded() -> dict:
    ledger = json.loads(LEDGER.read_text())
    if ledger["numpy"] != np.__version__:
        pytest.skip(f"the ledger was recorded under numpy {ledger['numpy']}, "
                    f"this is numpy {np.__version__}")
    return ledger["entries"]


def test_every_output_keeps_its_bytes(recorded):
    assert moved(compute_ledger(), recorded) == []


def test_a_perturbed_kernel_moves_only_its_campaign(recorded, monkeypatch):
    real = verify._tbeta2_kernel

    def perturbed(m, gen, **params):
        gen.random()  # every shard's draws start one value later
        return real(m, gen, **params)

    monkeypatch.setattr(verify, "_tbeta2_kernel", perturbed)
    assert moved(compute_ledger(), recorded) == [f"verify tbeta2 seed {s}" for s in VERIFY_SEEDS]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_ledger.py --write")
    ledger = {"numpy": np.__version__, "entries": compute_ledger()}
    LEDGER.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
