#!/usr/bin/env python
"""Check every end-to-end benchmark sample digest against its golden.

Recomputes all sample digests a flow-build pass can produce (every
design at every golden seed, full and smoke scale) through
``benchmarks/e2e/flowjob.regen_goldens()`` and compares them with the
committed ``benchmarks/e2e/goldens.json``.  Nothing is written::

    PYTHONPATH=src python scripts/check_e2e_goldens.py

Exits 0 when every digest matches, and 1 after listing each key whose
digest differs, is missing or is unexpected.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List

E2E = Path(__file__).resolve().parent.parent / "benchmarks" / "e2e"


def mismatches(expected: Dict[str, str], actual: Dict[str, str]) -> List[str]:
    """One line per key whose digest differs between the two maps."""
    lines = []
    for key in sorted(set(expected) | set(actual)):
        if key not in actual:
            lines.append(f"{key}: not recomputed")
        elif key not in expected:
            lines.append(f"{key}: no golden digest")
        elif expected[key] != actual[key]:
            lines.append(f"{key}: {actual[key]} != golden {expected[key]}")
    return lines


def main() -> int:
    sys.path.insert(0, str(E2E))
    from flowjob import GOLDENS, regen_goldens

    expected = json.loads(GOLDENS.read_text())
    actual = regen_goldens()
    bad = mismatches(expected, actual)
    for line in bad:
        print(line)
    matched = sum(actual.get(key) == digest for key, digest in expected.items())
    print(f"{matched}/{len(expected)} e2e sample digests match {GOLDENS.name}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
