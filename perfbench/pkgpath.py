"""Where the package under test lives: `src/` of the checkout the benchmark runs in."""

import os
import sys

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")


def add_package_path() -> bool:
    """Put the checkout's package first on sys.path; False when it is absent."""
    if not os.path.isfile(os.path.join(SRC, "henonlocus", "__init__.py")):
        return False
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    return True
