"""Command-line entry point: train, baseline, probe, report.

All randomness flows from --seed through named substreams; identical
invocations produce byte-identical output files. Exit codes: 0 success,
1 runtime failure, 2 usage error.
"""

import argparse
import glob
import os
import sys
from dataclasses import fields
from itertools import groupby

from .agents import AGENT_KINDS
from .config import ConfigError, as_train_config, check_config, load_config, write_manifest
from .metrics import (
    EpisodeRow,
    ProbeRow,
    SummaryRow,
    aggregate_episodes,
    aggregate_probes,
    read_csv,
    write_csv,
)
from .net import DETERMINISTIC, NetworkParams
from .seeding import STREAM_PROBE, check_seed, substream
from .svgchart import Series, emit_linechart
from .train import (
    ADAPTATION_CAP,
    ADAPTATION_REPS,
    ADAPTATION_SEED,
    MANUAL,
    find_checkpoints,
    load_checkpoint,
    manual_baseline,
    network_dims,
    probe_adaptation,
    probe_reaction,
    train,
)
from .validation import check_count

CHART_METRICS = (
    ("sum_reward", "rewards.svg", "episode sum reward"),
    ("tx_interrupted_ratio", "tx_interrupted.svg", "transmissions interrupted"),
    ("urllc_missed_ratio", "urllc_missed.svg", "URLLC requests missed"),
)


def _checked_int(text: str, check) -> int:
    """``text`` as a base-10 integer that ``check`` accepts; a rejection is a usage error."""
    try:
        return check(int(text, 10))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _seed_type(text: str) -> int:
    return _checked_int(text, check_seed)


def _count_type(minimum: int):
    return lambda text: _checked_int(text, lambda value: check_count("the value", value, minimum))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="punctrl",
        description="Train and probe puncturing schedulers on the mini-slot simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run seeded training repetitions")
    p_train.add_argument("--config", help="config file; defaults reproduce the reference setup")
    p_train.add_argument("--agent", dest="kind", choices=AGENT_KINDS,
                         help="exploration strategy")
    p_train.add_argument("--seed", type=_seed_type, help="base seed; rep k uses seed+k")
    p_train.add_argument("--reps", type=_count_type(1), help="number of seeded repetitions")
    p_train.add_argument("--out", dest="out_dir", help="output directory")
    p_train.add_argument("--jobs", type=_count_type(1), help="parallel worker processes")
    p_train.add_argument("--checkpoint-every", type=_count_type(0), dest="checkpoint_every",
                         help="checkpoint interval in episodes (0 = final only)")
    p_train.set_defaults(func=cmd_train)

    p_base = sub.add_parser("baseline", help="evaluate the manual scheduling heuristic")
    p_base.add_argument("--config", help="config file; [run] reps and jobs apply as in train")
    p_base.add_argument("--seed", type=_seed_type, help="base seed; rep k uses seed+k")
    p_base.add_argument("--episodes", type=_count_type(0), help="number of evaluation episodes")
    p_base.add_argument("--out", dest="out_dir", help="output directory")
    p_base.set_defaults(func=cmd_baseline)

    p_probe = sub.add_parser("probe", help="probe trained checkpoints with a critical event")
    p_probe.add_argument("--checkpoints", required=True,
                         help="directory containing checkpoints and the run manifest")
    p_probe.add_argument("--mode", choices=("reaction", "adapt"), default="reaction")
    p_probe.add_argument("--reps", type=_count_type(1),
                         help=f"adapt only: repetitions per checkpoint (default {ADAPTATION_REPS})")
    p_probe.add_argument("--cap", type=_count_type(1),
                         help=f"adapt only: most confrontations per rep (default {ADAPTATION_CAP})")
    p_probe.add_argument("--seed", type=_seed_type,
                         help=f"adapt only: sampling seed (default {ADAPTATION_SEED})")
    p_probe.add_argument("--out", help="output CSV path (default: probes.csv in the run dir "
                                       "for adapt, reaction/probes.csv for reaction)")
    p_probe.set_defaults(func=cmd_probe)

    p_report = sub.add_parser("report", help="aggregate runs into summaries and charts")
    p_report.add_argument("--in", dest="indir", required=True, help="directory holding run outputs")
    p_report.add_argument("--out", required=True, help="report output directory")
    p_report.set_defaults(func=cmd_report)
    return parser


def _resolved_config(args):
    """The config file's settings with the flags given on top; flag dests are field names."""
    cfg = load_config(args.config)
    if getattr(args, "kind", None) is not None:
        cfg.agent.kind = args.kind
    for f in fields(cfg):
        if getattr(args, f.name, None) is not None:
            setattr(cfg, f.name, getattr(args, f.name))
    check_config(cfg)
    return cfg


def _run_reps(cfg, run) -> int:
    """Write the manifest, call ``run`` once per rep (rep k on seed + k) and write
    every rep's rows to episodes.csv; ``run`` is ``train`` or ``manual_baseline``."""
    out_dir = cfg.out_dir
    os.makedirs(out_dir, exist_ok=True)
    write_manifest(cfg, os.path.join(out_dir, "manifest.ini"))
    ckpt_dir = os.path.join(out_dir, "checkpoints")
    tasks = [
        as_train_config(cfg, seed=cfg.seed + rep, checkpoint_dir=ckpt_dir)
        for rep in range(cfg.reps)
    ]
    if cfg.jobs > 1 and len(tasks) > 1:
        # imported here: a single-job run, the common case, never loads them.
        # spawn, not fork: numpy's BLAS may already have started threads
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context

        with ProcessPoolExecutor(max_workers=min(cfg.jobs, len(tasks)),
                                 mp_context=get_context("spawn")) as pool:
            results = list(pool.map(run, tasks))
    else:
        results = [run(task) for task in tasks]
    rows = [row for result in results for row in result.episodes]
    write_csv(rows, os.path.join(out_dir, "episodes.csv"), EpisodeRow)
    for result in results:
        mean_reward = (
            sum(r.sum_reward for r in result.episodes) / len(result.episodes)
            if result.episodes
            else float("nan")
        )
        print(f"{result.run_id}: {len(result.episodes)} episodes, "
              f"mean sum reward {mean_reward:.2f}")
    print(f"wrote {os.path.join(out_dir, 'episodes.csv')}")
    return 0


def cmd_train(args) -> int:
    return _run_reps(_resolved_config(args), train)


def cmd_baseline(args) -> int:
    return _run_reps(_resolved_config(args), manual_baseline)


def cmd_probe(args) -> int:
    given = [f"--{name}" for name in ("reps", "cap", "seed") if getattr(args, name) is not None]
    if args.mode == "reaction" and given:
        print(f"punctrl probe: error: --mode reaction does not read {', '.join(given)} "
              "(adapt only)", file=sys.stderr)
        return 2
    root = args.checkpoints
    if not os.path.isdir(root):
        raise ValueError(f"checkpoint directory not found: {root}")
    manifest = os.path.join(root, "manifest.ini")
    if not os.path.isfile(manifest):
        raise ValueError(f"no manifest.ini in {root}: probe needs the manifest the checkpoints "
                         "were trained with")
    cfg = load_config(manifest)
    files = find_checkpoints(root, cfg.agent.kind, range(cfg.seed, cfg.seed + cfg.reps))
    if not files:
        raise ValueError(f"no checkpoints of the runs in {manifest} found under {root}")
    spec = cfg.agent
    expected = NetworkParams.zeros(*network_dims(cfg)).shapes
    # 0 is a seed, so only a flag left unset takes the default
    seed = ADAPTATION_SEED if args.seed is None else args.seed
    rows = []
    for run_id, path in files:
        params, kind, _ = load_checkpoint(path)
        if kind != spec.kind:
            raise ValueError(f"{path} holds a {kind} agent, but {manifest} gives {spec.kind}")
        if params.shapes != expected:
            raise ValueError(f"{path} holds weight shapes {params.shapes}, but {manifest} gives "
                             f"{expected}")
        if args.mode == "reaction":
            rows.append(probe_reaction(params, cfg, run_id))
        else:
            # _count_type(1) rejects 0, so `or` only fills in flags left unset
            for rep in range(args.reps or ADAPTATION_REPS):
                # a deterministic head draws nothing that steers it at epsilon 0,
                # so every rep replays rep 0 and gets its count
                if rep == 0 or spec.head_mode != DETERMINISTIC:
                    rng = substream(seed, f"{STREAM_PROBE}/{run_id}/{rep}")
                    steps = probe_adaptation(params, cfg, rng, cap=args.cap or ADAPTATION_CAP)
                rows.append(ProbeRow(run_id, kind, rep, steps_until_explore=steps))
    # the two modes default to different files, so running both keeps both
    default_dir = os.path.join(root, "reaction") if args.mode == "reaction" else root
    out_path = args.out or os.path.join(default_dir, "probes.csv")
    os.makedirs(os.path.dirname(os.path.abspath(out_path)), exist_ok=True)
    write_csv(rows, out_path, ProbeRow)
    print(f"wrote {len(rows)} probe rows to {out_path}")
    return 0


def _collect_rows(indir: str, filename: str, row_type):
    rows = []
    for path in sorted(glob.glob(os.path.join(indir, "**", filename), recursive=True)):
        rows.extend(read_csv(path, row_type))
    return rows


def _fmt_stat(mean: float, std: float) -> str:
    return f"{mean:.4g} ± {std:.3g}"


def _print_probe_tables(probe_summaries) -> None:
    by_metric: dict[str, dict[str, SummaryRow]] = {}
    for row in probe_summaries:
        by_metric.setdefault(row.metric, {})[row.agent] = row
    reaction_metrics = [m for m in ("md", "logstd_wait", "mean_logstd_punct") if m in by_metric]
    if reaction_metrics:
        agents = sorted({a for m in reaction_metrics for a in by_metric[m]})
        print("\nReaction to the unseen critical event (mean ± std over snapshots)")
        print(f"{'metric':<20}" + "".join(f"{a:>20}" for a in agents))
        for metric in reaction_metrics:
            cells = []
            for agent in agents:
                row = by_metric[metric].get(agent)
                cells.append(_fmt_stat(row.mean, row.std) if row else "-")
            print(f"{metric:<20}" + "".join(f"{c:>20}" for c in cells))
    if "steps_until_explore" in by_metric:
        print("\nTraining steps until the new event is explored (mean ± std)")
        for agent, row in sorted(by_metric["steps_until_explore"].items()):
            print(f"  {agent:<8} {_fmt_stat(row.mean, row.std)}")


def cmd_report(args) -> int:
    episode_rows = _collect_rows(args.indir, "episodes.csv", EpisodeRow)
    if not episode_rows:
        raise ValueError(f"no runs found under {args.indir}")
    os.makedirs(args.out, exist_ok=True)
    agent_rows = [r for r in episode_rows if r.agent != MANUAL]
    manual_rows = [r for r in episode_rows if r.agent == MANUAL]
    summaries = aggregate_episodes(agent_rows) if agent_rows else []
    probe_rows = _collect_rows(args.indir, "probes.csv", ProbeRow)
    probe_summaries = aggregate_probes(probe_rows) if probe_rows else []
    write_csv(summaries + probe_summaries, os.path.join(args.out, "summary.csv"), SummaryRow)

    for metric, filename, title in CHART_METRICS:
        # summaries come sorted by (agent, episode), so each agent's rows are adjacent
        series = []
        metric_rows = (r for r in summaries if r.metric == metric)
        for agent, group in groupby(metric_rows, key=lambda r: r.agent):
            rows = list(group)
            series.append(Series(agent, [r.episode for r in rows], [r.mean for r in rows],
                                 [r.min for r in rows], [r.max for r in rows]))
        baseline = None
        if manual_rows:
            baseline = sum(getattr(r, metric) for r in manual_rows) / len(manual_rows)
        emit_linechart(series, os.path.join(args.out, filename), title, baseline=baseline)
    _print_probe_tables(probe_summaries)
    print(f"\nwrote summary and charts to {args.out}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ConfigError, OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
