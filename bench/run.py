"""Run one benchmark workload of punctrl and print its metrics.

    python3 bench/run.py --workload train_ref --seed 0 --seconds 40 --trace 0

Workloads (see BENCHMARK.json and workloads.py): ``train_ref``,
``baseline_manual`` and ``probe_predict``. The program is the source tree
in ``src/`` next to this directory, driven in-process through
``punctrl.cli.main`` and the public library from one process, with BLAS
held to one thread. Passes run until ``--seconds`` is used up; timings are
medians over passes.

With ``--trace 0`` the result holds the end-to-end metrics. With
``--trace 1`` passes alternate untraced and traced, the result holds the
per-layer metrics, and the run fails (exit 1, no result) when a traced
name has gone or a span the workload must hit records no call.

Standard output ends with two JSON lines: a run record (versions, BLAS,
cores, seed, sha256 of the outputs, workload-specific metrics and the
failed checks), then the result ``{"correct", "attempted", "failed",
"metrics"}``. Exit 2 when the source tree is missing.
"""

import os
import sys

# one BLAS thread, fewer than the cores: the program is single-threaded
# and its matrix-vector products are too small to gain from more
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
from statistics import median  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
SETUP_SAMPLES = 9


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("train_ref", "baseline_manual", "probe_predict"))
    parser.add_argument("--seed", type=int, required=True, help="workload seed (inputs)")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny inputs, for selftest.py")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be an unsigned 64-bit integer")
    return args


def setup_times(workload, samples, ops, times) -> None:
    """Append cold set-up times, each taken in a fresh interpreter."""
    child = os.path.join(BENCH, "setup_child.py")
    for _ in range(samples):
        ops.attempted += 1
        proc = subprocess.run([sys.executable, child, ROOT, *workload.setup_args()],
                              capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            ops.fail(f"set-up child exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
            continue
        times.append(float(proc.stdout.split()[-1]))


def kernel_counts() -> dict:
    """Computed (not measured) work per call for the reference Gaussian-head network.

    A multiply-add counts as 2 flops; tanh, compare-select and scale count
    1 each. Bytes moved are the flat parameter buffer (float64) times the
    arrays a call touches: Adam params, gradients, two moments and its
    scratch buffer; Polyak the target and the online parameters.
    """
    from punctrl.net import GAUSSIAN, head_output_dim
    from punctrl.train import TrainConfig

    cfg = TrainConfig()
    dims = [cfg.sim.state_dim, *cfg.hidden_dims, head_output_dim(GAUSSIAN, cfg.sim.n_actions)]
    layers = list(zip(dims[:-1], dims[1:]))  # (fan_in, fan_out)
    hidden_units = sum(dims[1:-1])
    n_params = sum(o * i + o for i, o in layers)
    return {
        "shape": dims,
        "n_params": n_params,
        "forward_flops": sum(2 * o * i + o for i, o in layers) + 3 * hidden_units,
        # outer product per layer, W^T g for every layer but the first,
        # 4 flops per hidden unit for the activation derivative
        "backward_flops": sum(o * i for i, o in layers)
        + sum(2 * o * i for i, o in layers[1:]) + 4 * hidden_units,
        "adam_bytes": 8 * n_params * 5,
        "polyak_bytes": 8 * n_params * 2,
    }


def _blas_threads():
    import numpy

    pattern = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*blas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return f"unqueried (OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']})"


def run_record(args) -> dict:
    import numpy

    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30, check=False)
        sha = proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"
    except OSError:
        sha = "unknown (no git)"
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_vendor = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas_vendor = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_vendor,
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(passes, setup, ops) -> tuple[dict, dict]:
    """The bounded metrics every workload reports, and the workload-specific ones."""
    ok_ratio = (ops.attempted - ops.failed) / ops.attempted
    metrics = {
        "setup_s": _metric(median(setup) if setup else 0.0, "s"),
        "wall_s": _metric(median(p["wall"] for p in passes), "s"),
        "steps_per_s": _metric(
            median(p["steps"] / p.get("steps_wall", p["wall"]) for p in passes), "1/s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_ratio": _metric(ok_ratio, "ratio"),
    }
    extra = {"fail_ratio": _metric(1.0 - ok_ratio, "ratio")}
    if "agent_rates" in passes[0]:
        for kind in passes[0]["agent_rates"]:
            extra[f"steps_per_s.{kind}"] = _metric(
                median(p["agent_rates"][kind] for p in passes), "1/s")
    if "predict_rows_per_s" in passes[0]:
        extra["predict_rows_per_s"] = _metric(
            median(p["predict_rows_per_s"] for p in passes), "1/s")
    return metrics, extra


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "punctrl", "__init__.py")):
        print(f"error: no punctrl source tree under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import punctrl

    if not os.path.abspath(punctrl.__file__).startswith(SRC + os.sep):
        print(f"error: punctrl imported from {punctrl.__file__}, not {SRC}", file=sys.stderr)
        return 2
    work = os.path.join(WORK_ROOT, str(os.getpid()))
    os.makedirs(work)
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another run still uses it


def run(args, work) -> int:
    from spans import TraceError, Tracer
    from workloads import WORKLOADS, Ops, run_passes

    ops = Ops()
    workload = WORKLOADS[args.workload](work, args.seed, args.toy)
    setup = []
    try:
        tracer = Tracer() if args.trace else None
        workload.prepare(ops)
        if tracer:
            passes, hashes = run_passes(workload, ops, args.seconds, tracer=tracer)
            tracer.check_coverage(workload.must_hit, workload.must_not_hit)
        else:
            # set-up samples spread over the run meet the same machine load as the passes
            passes, hashes = run_passes(workload, ops, args.seconds,
                                        between=lambda: setup_times(workload, 1, ops, setup))
            setup_times(workload, max(0, SETUP_SAMPLES - len(setup)), ops, setup)
    except TraceError as exc:
        print(f"trace coverage failure: {exc}", file=sys.stderr)
        return 1
    computed = kernel_counts()
    record = run_record(args)
    record["passes"] = len(passes)
    record["pass_walls_s"] = [p["wall"] for p in passes]
    record["computed"] = computed
    if tracer:
        traced = [p["wall"] for p in passes if p["traced"]]
        untraced = [p["wall"] for p in passes if not p["traced"]]
        metrics = tracer.metrics(len(traced), traced, untraced, computed,
                                 getattr(workload, "rows", 0))
        extra = {"net_agents_share_of_train": tracer.share(("net.", "agents."), "train.train")}
    else:
        metrics, extra = end_to_end(passes, setup, ops)
    for error in ops.errors:
        print(f"failed: {error}", file=sys.stderr)
    print(json.dumps({"record": record, "workload_metrics": extra, "sha256": hashes,
                      "failures": ops.errors[:20]}))
    print(json.dumps({"correct": ops.failed == 0, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
