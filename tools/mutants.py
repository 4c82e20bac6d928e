"""Mutation score of the fast test suite: how many small breaks do the tests catch?

Each entry of MUTANTS changes one exact piece of text in one source file and
says what the fast suite should do with it: ``killed`` (some test fails) or
``equivalent`` (the change keeps every behaviour the program can show, so no
test can fail). For each mutant the script copies src/, tests/, bench/ and
pyproject.toml into a temporary directory, applies the change there, and runs
the fast suite in it, stopping at the first failure:

    python -m pytest -x -q --hypothesis-seed=0 -k "not acceptance and not bench_selftest"

It prints one line per mutant with its outcome and the first failing test,
then the score. The checkout itself is never changed. It is not part of the
test suite. Run from anywhere, with the interpreter that runs the tests:

    python3 tools/mutants.py    # every mutant, 2 at a time

It exits 0 when every outcome matches the table, 1 when one does not (a
mutant marked killed survived, or one marked equivalent was killed), and 2
when an entry's old text does not occur exactly once in its file (the table
no longer matches the code) or pytest could not run. The equivalent entries
double as the control run: if the copied tree failed its suite on its own,
they would be killed too, and the script would not report a clean score.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COPIED = ("src", "tests", "bench", "pyproject.toml")
FAST_SUITE = ("-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0",
              "-k", "not acceptance and not bench_selftest")
KILLED, EQUIVALENT = "killed", "equivalent"
JOBS = 2  # mutants run at once; each runs one pytest process
TIMEOUT_S = 600  # a suite still running after this counts the mutant as killed (hung)

SIM, AGENTS, NET, TRAIN, CLI, CONFIG, METRICS, ESTIMATOR, SEEDING, SVGCHART = (
    f"src/punctrl/{name}.py" for name in
    ("sim", "agents", "net", "train", "cli", "config", "metrics", "estimator", "seeding",
     "svgchart"))

# (file, exact old text, new text, expected outcome)
MUTANTS = (
    # simulator transitions and counters
    (SIM, "if remaining[action - 1] > 0:", "if remaining[action - 1] >= 0:", KILLED),
    # the slot never passes slots_per_subframe, so >= wraps exactly where == does
    (SIM, "if self.slot_index == cfg.slots_per_subframe:",
     "if self.slot_index >= cfg.slots_per_subframe:", EQUIVALENT),
    (SIM, "            counters.discarded += 1\n            counters.discarded_critical += 1\n",
     "            counters.discarded_critical += 1\n", KILLED),
    # the three losses, the bootstrap, Adam and Polyak
    (AGENTS, "float(target_q_next.max())", "float(target_q_next.mean())", KILLED),
    (AGENTS, "return diff * diff, 2.0 * diff", "return diff * diff, diff", KILLED),
    (AGENTS, "grad_ls.append(w * (-1.0 + ", "grad_ls.append(w * (1.0 + ", KILLED),
    (AGENTS, "k = float(sum(unclamped))", "k = float(len(unclamped))", KILLED),
    (AGENTS, "weight = -spec.w_me", "weight = spec.w_me", KILLED),
    (AGENTS, "return max(0.0, spec.epsilon_initial", "return (spec.epsilon_initial", KILLED),
    # the network engine: one forward pass and a backward that writes only its gradients
    (NET, "where=t <= 0.0)", "where=t < 0.0)", KILLED),
    (NET, "slope = np.multiply(t, t)", "slope = np.multiply(t, t, out=t)", KILLED),
    (NET, "g, out=out.biases[i])", "g, out=out.biases[i].copy())", KILLED),
    (NET, "np.maximum(t, act, out=act)", "np.minimum(t, act, out=act)", KILLED),
    (NET, "if s.shape != cache.acts[0].shape:", "if s.shape[-1:] != cache.acts[0].shape[-1:]:",
     KILLED),
    (NET, "ForwardCache(params, a.shape[:-1])", "ForwardCache(params, a.shape[:1])", KILLED),
    (NET, "buf += ADAM_EPSILON", "buf -= ADAM_EPSILON", KILLED),
    (NET, "if root_bc2 != 1.0:", "if root_bc2 > 1.0:", KILLED),
    (NET, "self.target.flat *= 1.0 - self.tau", "self.target.flat *= 1.0", KILLED),
    # the run's agent, the probes and the episode row
    (TRAIN, "self.spec = cfg.agent", "self.spec = AgentSpec()", KILLED),
    (TRAIN, "head_output_dim(cfg.agent.head_mode,", "head_output_dim(\"deterministic\",",
     KILLED),
    (TRAIN, "arrived = c.arrived - (0 if env.request is NONE else 1)",
     "arrived = c.arrived", KILLED),
    (TRAIN, "arrived_critical = c.arrived_critical - (1 if env.request is CRITICAL else 0)",
     "arrived_critical = c.arrived_critical", KILLED),
    (TRAIN, "and episode < cfg.episodes", "and episode <= cfg.episodes", KILLED),
    (TRAIN, "mean_gain = 2.0 * sim_cfg.rayleigh_sigma", "mean_gain = sim_cfg.rayleigh_sigma",
     KILLED),
    (TRAIN, "for count in range(1, cap):", "for count in range(1, cap + 1):", KILLED),
    (TRAIN, "if count > 1:", "if count > 0:", KILLED),
    (TRAIN, "s_next = encode_state(sim_cfg, 1, NONE, [slots - 1]",
     "s_next = encode_state(sim_cfg, 1, NONE, [slots]", KILLED),
    # no float lands exactly on the 1e-12 guard of md
    (TRAIN, "if abs(denom) >= 1e-12 else None", "if abs(denom) > 1e-12 else None", EQUIVALENT),
    (TRAIN, "if abs(denom) >= 1e-12 else None", "if denom >= 1e-12 else None", KILLED),
    (TRAIN, "row.mean_logstd_punct = float(np.mean(log_sigma[1:]))",
     "row.mean_logstd_punct = float(log_sigma[1])", KILLED),
    (TRAIN, "row.logstd_wait = float(log_sigma[0])", "row.logstd_wait = float(log_sigma[1])",
     KILLED),
    (TRAIN, "ProbeRow(run_id, spec.kind, 0,", "ProbeRow(run_id, \"eg\", 0,", KILLED),
    # the checkpoint format, and which checkpoints probe reads
    (TRAIN, "params.flat.astype(\"<f8\", copy=False)", "params.flat.astype(\">f8\", copy=False)",
     KILLED),
    (TRAIN, "if len(buf) > expected:", "if len(buf) > expected + 8:", KILLED),
    (TRAIN, "if run in run_ids and (run not in final or", "if run in run_ids and (not final or",
     KILLED),
    # a run without a final checkpoint gives only its first intermediate one
    (TRAIN, "(run not in final or snapshot.endswith(\"_final\"))",
     "(run not in final and snapshot.endswith(\"_ep001\") or snapshot.endswith(\"_final\"))",
     KILLED),
    # eg-s1 is a prefix of eg-s10
    (TRAIN, "if run in run_ids and",
     "if any(snapshot.startswith(r) for r in run_ids) and", KILLED),
    # what probe does per rep
    (CLI, "if rep == 0 or spec.head_mode != DETERMINISTIC:", "if rep == 0:", KILLED),
    (CLI, "range(args.reps or ADAPTATION_REPS)", "range(args.reps or 9)", KILLED),
    # an explicit --seed 0 must not fall back to the default
    (CLI, "ADAPTATION_SEED if args.seed is None else args.seed", "args.seed or ADAPTATION_SEED",
     KILLED),
    # runtime failures reach main's error line only by raising
    (CLI, "            raise ValueError(f\"{path} holds a {kind} agent,",
     "            print(f\"{path} holds a {kind} agent,", KILLED),
    # the config reader's grammar, the manifest and its out_dir rule
    # str.splitlines also ends a line at U+0085 and U+000C
    (CONFIG, "text.split(\"\\n\")", "text.splitlines()", KILLED),
    (CONFIG, "if value and (depth > indent or", "if value and (depth >= indent or", KILLED),
    (CONFIG, "key = stripped[:cut].rstrip().lower()", "key = stripped[:cut].rstrip()", KILLED),
    (CONFIG, "if key not in SCHEMA[section] or key in lines:", "if key not in SCHEMA[section]:",
     KILLED),
    (CONFIG, "if not out_dir or out_dir != out_dir.strip() or", "if not out_dir or", KILLED),
    (CONFIG, "or \"\\n\" in out_dir or", "or", KILLED),
    (CONFIG, "or \"\\r\" in out_dir:", "or \"\\r\\n\" in out_dir:", KILLED),
    (CONFIG, "out_dir.encode(\"utf-8\")", "out_dir.encode(\"utf-8\", \"surrogateescape\")",
     KILLED),
    # the text codec of CSV cells and manifest values, and the cut-short check
    (METRICS, "return format(value, \".17g\")", "return format(value, \".16g\")", KILLED),
    # a tuple of layer widths written as "(128, 128)" does not parse back
    (METRICS, "if isinstance(value, tuple):", "if isinstance(value, list):", KILLED),
    (METRICS, "if not text.endswith(\"\\n\"):", "if not text:", KILLED),
    (METRICS, "var = sum((v - mean) ** 2 for v in vals) / (n - 1)",
     "var = sum((v - mean) ** 2 for v in vals) / n", KILLED),
    # batch prediction's grouping and block shape, and the block reader of the random stream
    # an unstable sort can pick a later repeat as a group's first row
    (ESTIMATOR, "kind=\"stable\"", "kind=\"quicksort\"", KILLED),
    (ESTIMATOR, "starts[1:] |=", "starts[1:] &=", KILLED),
    (ESTIMATOR, "    ids -= 1\n", "", KILLED),
    # a row-wise argmax commutes with gathering rows
    (ESTIMATOR, "np.argmax(values, axis=1)[inverse]", "np.argmax(values[inverse], axis=1)",
     EQUIVALENT),
    # an unpadded last block meets another matmul kernel than a full one
    (ESTIMATOR, "forward(self.params_, block)[:rows.size]",
     "forward(self.params_, block[:rows.size])", KILLED),
    (SEEDING, "self._floats = ((raw >> 11) * _DOUBLE_UNIT)",
     "self._floats = ((raw >> 12) * _DOUBLE_UNIT)", KILLED),
    (SEEDING, "self._half = word >> 32", "self._half = word >> 31", KILLED),
    (SEEDING, "threshold = 2**32 % span", "threshold = 0", KILLED),
    # chart ticks: dropping the stop would loop without end, so this one stops a tick late
    (SVGCHART, "if t + step == t:", "if t + step == t and ticks[1:]:", KILLED),
    # a range of one float spacing would be drawn as the widest gap
    (SVGCHART, "if hi - lo <= 1e-9 * max(", "if hi - lo <= 0.0 * max(", KILLED),
)


def read_source(path: str) -> str:
    with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
        return fh.read()


def run_mutant(mutant) -> tuple:
    """(outcome, first failing test) of the fast suite on a copy with ``mutant`` applied.

    The outcome is "killed", "survived", "timeout" (counted as killed) or
    "error" when pytest could not run.
    """
    path, old, new, _ = mutant
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        for name in COPIED:
            source = os.path.join(ROOT, name)
            if os.path.isdir(source):
                shutil.copytree(source, os.path.join(tmp, name),
                                ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy2(source, tmp)
        with open(os.path.join(tmp, path), "w", encoding="utf-8") as fh:
            fh.write(read_source(path).replace(old, new, 1))
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        env.pop("PYTHONPATH", None)  # pyproject.toml puts the copy's src/ on the path
        try:
            proc = subprocess.run([sys.executable, "-m", "pytest", *FAST_SUITE], cwd=tmp,
                                  env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
                                  check=False)
        except subprocess.TimeoutExpired:
            return "timeout", f"no result after {TIMEOUT_S} s"
    # pytest's summary line: "FAILED <test id> - <message>"; an id may hold spaces
    first = next((line.split(" ", 1)[1].split(" - ", 1)[0] for line in proc.stdout.splitlines()
                  if line.startswith(("FAILED ", "ERROR "))), "")
    # pytest exits 0 when all pass, 1 when a test fails, 2 when collection fails
    if proc.returncode == 0:
        return "survived", ""
    if proc.returncode in (1, 2) and first:
        return "killed", first
    tail = (proc.stdout + proc.stderr).strip().splitlines()
    return "error", tail[-1] if tail else f"pytest exit {proc.returncode}"


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n", 1)[0]).parse_args(argv)
    sources = {path: read_source(path) for path, _, _, _ in MUTANTS}
    bad = [(path, old) for path, old, _, _ in MUTANTS if sources[path].count(old) != 1]
    for path, old in bad:
        print(f"stale entry: {old!r} does not occur exactly once in {path}", file=sys.stderr)
    if bad:
        return 2
    print(f"{len(MUTANTS)} mutants, {JOBS} at a time", flush=True)
    mismatched = errors = caught = 0
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        for mutant, (outcome, first) in zip(MUTANTS, pool.map(run_mutant, MUTANTS)):
            path, old, new, expected = mutant
            killed = outcome in ("killed", "timeout")
            caught += killed
            if outcome == "error":
                errors += 1
            elif killed != (expected == KILLED):
                mismatched += 1
            line = sources[path][:sources[path].index(old)].count("\n") + 1
            print(f"{outcome:<9} {path}:{line} (marked {expected}): "
                  f"{old.strip()!r} -> {new.strip()!r}", flush=True)
            if first:
                print(f"          {first}", flush=True)
    print(f"score: {caught} of {len(MUTANTS)} mutants killed; {mismatched} outcomes differ "
          f"from the table")
    if errors:
        return 2
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
