"""Check that a ``verify`` report reads exact on every line that must be.

    qostbc verify --K 256 | python3 .github/scripts/exact_lines.py

Every line but the round trips and the closing summary must read
``value=0.000e+00 tol=0e+00``.  Lines that do not are printed, and the
exit code is 1 if there are any or if the report is empty.
"""

import sys

lines = sys.stdin.read().splitlines()[:-1]
bad = [l for l in lines if "round-trip(" not in l and "value=0.000e+00 tol=0e+00" not in l]
print(*bad, sep="\n")
sys.exit(bool(bad) or not lines)
