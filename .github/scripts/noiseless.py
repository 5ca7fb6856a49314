"""Check that a noiseless ``simulate`` CSV decoded every block without error.

    qostbc simulate ... --esno-start 300 --esno-stop 300 | python3 .github/scripts/noiseless.py TRIALS

The exit code is 1 unless the CSV has a row and every row reads
``bit_errors`` 0 over ``TRIALS`` blocks.
"""

import csv
import sys

trials = sys.argv[1]
rows = list(csv.DictReader(sys.stdin))
sys.exit(not rows or any((r["bit_errors"], r["trials"]) != ("0", trials) for r in rows))
