"""Run one ``qostbc`` command in this interpreter and bound its peak RSS.

    PYTHONPATH=src python3 .github/scripts/peak_rss.py LIMIT_MB COMMAND [ARGS...]

The command's output goes where it would go.  The peak resident set size
of the interpreter is printed to stderr, and the exit code is the
command's own, or 1 if the peak exceeds ``LIMIT_MB`` megabytes.
"""

import resource
import sys

from qostbc.cli import main

limit = float(sys.argv[1])
rc = main(sys.argv[2:])
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(f"peak RSS {peak:.0f} MB", file=sys.stderr)
sys.exit(rc or peak > limit)
