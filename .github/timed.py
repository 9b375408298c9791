"""Run a command, then print its wall time and peak RSS.

Usage: python timed.py COMMAND [ARG...]

Prints one line, `<command>: wall <s> s, peak RSS <MB> MB`, to stdout after
the command exits, and exits with the command's own status. The peak RSS is
the largest resident set of any process the command waited for
(getrusage RUSAGE_CHILDREN), in MB of 2**20 bytes.
"""

import resource
import subprocess
import sys
import time

started = time.perf_counter()
status = subprocess.run(sys.argv[1:]).returncode
wall = time.perf_counter() - started
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(f"{sys.argv[1]}: wall {wall:.1f} s, peak RSS {peak:.1f} MB", flush=True)
sys.exit(status)
