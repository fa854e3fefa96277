"""Where the checkout is, and how ``repro`` becomes importable from it."""

from __future__ import annotations

import sys
from pathlib import Path

#: benchmarks/gallerybench/_paths.py -> the checkout root
ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"


def require_repro() -> None:
    """Put ``<checkout>/src`` on ``sys.path``; exit 2 when the program is absent.

    The benchmark measures the Gallery in *this* checkout and nothing else, so
    a directory that holds only the benchmark's own files is an error, not a
    reason to fall back to some other installed copy.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"gallerybench: no program to measure: {SRC / 'repro'} is missing",
            file=sys.stderr,
        )
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
