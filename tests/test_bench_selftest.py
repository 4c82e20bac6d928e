"""The benchmark harness still runs against this source tree.

bench/selftest.py runs every workload at toy size, untraced and traced. It
fails when a traced name is renamed or no longer called on the hot path.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_selftest_passes():
    proc = subprocess.run([sys.executable, os.path.join("bench", "selftest.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=600, check=False)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
