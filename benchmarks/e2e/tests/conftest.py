"""Make the benchmark's modules importable by their plain names, as
``run.py`` does when it runs as a script."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent.parent / "src"))
