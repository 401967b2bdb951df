"""The program under test: the `subtiling` sources of the checkout that
holds this benchmark, never an installed copy."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_checkout_sources():
    """Put the checkout's `src` first on the path and import from it.

    Exits with an error, and no result, when the checkout has no sources."""
    package = SRC / "subtiling"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no subtiling sources at {package}")
    sys.path.insert(0, str(SRC))
    import subtiling
    if Path(subtiling.__file__).resolve().parent != package:
        raise SystemExit(f"error: imported subtiling from {subtiling.__file__}"
                         f", not from {package}")
