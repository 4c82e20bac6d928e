"""Self-test of the benchmark harness at toy size.

    python3 bench/selftest.py

Runs every workload once untraced and once traced with ``--toy`` and
checks that each prints every metric BENCHMARK.json names, with its unit,
that no operation or output check failed, that the trace coverage guard
passed, and that on ``train_ref`` the net and agents spans take most of
the training time. Last, it runs the benchmark in a directory that holds
only BENCHMARK.json and the benchmark's files, where it must fail without
printing a result. Exits 0 when all hold.
"""

import json
import os
import shutil
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def run(cwd, *args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300, check=False)


def check_workload(spec, name, trace) -> list:
    proc = run(ROOT, "--workload", name, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--toy")
    where = f"{name} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-800:]}"]
    lines = proc.stdout.strip().splitlines()
    record, result = json.loads(lines[-2]), json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"{where}: failures {record['failures']}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    printed = result["metrics"]
    if set(printed) != {m["name"] for m in wanted}:
        problems.append(f"{where}: metric names differ from BENCHMARK.json: "
                        f"{sorted(set(printed) ^ {m['name'] for m in wanted})}")
    for metric in wanted:
        got = printed.get(metric["name"])
        if got is not None and got["unit"] != metric["unit"]:
            problems.append(f"{where}: {metric['name']} unit {got['unit']} != {metric['unit']}")
    if not trace:
        if record["workload_metrics"]["fail_ratio"]["value"] != 0:
            problems.append(f"{where}: fail_ratio is not 0")
        extra = {"train_ref": ["steps_per_s.eg", "steps_per_s.vb", "steps_per_s.me"],
                 "probe_predict": ["predict_rows_per_s"]}.get(name, [])
        missing = [m for m in extra if m not in record["workload_metrics"]]
        if missing:
            problems.append(f"{where}: workload metrics missing: {missing}")
    elif name == "train_ref" and record["workload_metrics"]["net_agents_share_of_train"] <= 0.5:
        problems.append(f"{where}: net+agents take no majority of train time")
    return problems


def check_bare_directory() -> list:
    """Without the source tree the benchmark must fail and print no result."""
    bare = os.path.join(ROOT, ".bench_work", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "--workload", "train_ref", "--seed", "1", "--seconds", "1",
                   "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return ["bare directory: the benchmark did not fail without src/"]
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    for workload in spec["workloads"]:
        for trace in (0, 1):
            problems += check_workload(spec, workload["name"], trace)
    problems += check_bare_directory()
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
