"""Rerun the digest pins under other numeric kernels and list the pins that move.

The pinned digests in the test suite hold only with the OpenBLAS core and
the numpy SIMD targets they were recorded with. This script reruns the pin
tests in one child pytest process per setting below, with that setting's
variables added to the child's environment only, and prints the failing
test ids of each setting. It also reruns the checks that hold on any host,
such as the test that a state's predicted values do not depend on the call:
those must pass under every setting, and one that fails is a defect, not a
moved pin. It is not part of the test suite.

Run from anywhere, with the interpreter that runs the tests:

    python3 tools/numerics_matrix.py

It exits 0 when every setting ran, whatever moved, and 1 when pytest could
not run one (a collection or usage error).
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# the pin tests, then the host-independence checks
RERUN_TESTS = (
    "tests/test_cli_pins.py",
    "tests/test_sim_pins.py",
    "tests/test_loss_reference.py",
    "tests/test_svgchart.py",
    "tests/test_estimator.py::TestDqnScheduler::test_reference_states_pinned",
    "tests/test_estimator.py::TestDqnScheduler::test_values_do_not_depend_on_the_call",
)

# the targets numpy dispatches to on an AVX-512 host; disabling them leaves AVX2
NO_AVX512 = "AVX512_ICL AVX512_SPR X86_V4"

SETTINGS = {
    "OpenBLAS Haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "OpenBLAS Sandybridge": {"OPENBLAS_CORETYPE": "Sandybridge"},
    "numpy without AVX-512": {"NPY_DISABLE_CPU_FEATURES": NO_AVX512},
    "OpenBLAS Haswell, numpy without AVX-512": {"OPENBLAS_CORETYPE": "Haswell",
                                                "NPY_DISABLE_CPU_FEATURES": NO_AVX512},
}


def failing_ids(variables: dict) -> list | None:
    """Ids of the rerun tests that fail under ``variables``; None if pytest could not run."""
    env = dict(os.environ, **variables)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-rf", *RERUN_TESTS],
        cwd=ROOT, env=env, capture_output=True, text=True, check=False)
    # pytest exits 0 when all pass and 1 when some fail; anything else is no result
    if proc.returncode not in (0, 1):
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        return None
    return [line.split()[1] for line in proc.stdout.splitlines() if line.startswith("FAILED ")]


def main() -> int:
    status = 0
    for name, variables in SETTINGS.items():
        assignments = " ".join(f'{key}="{value}"' for key, value in variables.items())
        print(f"{name} ({assignments})", flush=True)
        failed = failing_ids(variables)
        if failed is None:
            print("  pytest could not run")
            status = 1
            continue
        print(f"  {len(failed)} failing")
        for test_id in failed:
            print(f"    {test_id}")
    return status


if __name__ == "__main__":
    sys.exit(main())
