"""Shared benchmark fixtures and the experiment report helper.

Every experiment benchmark prints the rows/series it reproduces (the
paper's table or claim) and writes them to ``build/experiments/`` (ignored
by git), so running an experiment never dirties the checkout.  ``make
bench-all`` is the one writer of the committed ``benchmarks/results/``: it
copies those files there after a full, passing run.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).resolve().parent.parent / "build" / "experiments"


def report(experiment_id: str, lines: list[str]) -> None:
    """Print an experiment's reproduced rows and persist them."""
    banner = f"===== {experiment_id} ====="
    text = "\n".join([banner, *lines, ""])
    # pytest captures stdout; write to stderr too so -s isn't required for
    # the terminal, and persist to the build directory regardless.
    print(text)
    print(text, file=sys.stderr)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / f"{experiment_id}.txt").write_text(text)


@pytest.fixture
def fresh_gallery():
    """A deterministic in-memory Gallery per benchmark."""
    from repro import build_gallery
    from repro.core import ManualClock, SeededIdFactory

    return build_gallery(clock=ManualClock(), id_factory=SeededIdFactory(1234))
