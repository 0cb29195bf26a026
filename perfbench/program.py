"""Locate the program under test: the ``src/`` tree of this checkout.

The benchmark measures the code next to it, never an installed copy, so it
puts ``<checkout>/src`` first on ``sys.path`` and refuses to run when that
tree is missing.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_checkout_src() -> None:
    """Import ``teescrow`` from this checkout; exit non-zero if it is absent."""
    if not (SRC / "teescrow" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: no program at {SRC / 'teescrow'}; "
            "run from the root of a full checkout"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
