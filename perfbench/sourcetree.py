"""Locate the querysynth source tree the benchmark measures.

The benchmark always measures the package under ``src/`` of the checkout
that holds this directory, never an installed copy.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_source_tree() -> None:
    """Put ``src/`` first on the import path; exit with status 1 if the
    checkout has no querysynth package or another copy gets imported."""
    if not (SRC / "querysynth" / "__init__.py").is_file():
        raise SystemExit("perfbench: no querysynth package under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import querysynth
    if Path(querysynth.__file__).resolve().parent != SRC / "querysynth":
        raise SystemExit("perfbench: imported querysynth from %s, not from %s"
                         % (querysynth.__file__, SRC))
