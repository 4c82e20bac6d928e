"""Metric records, lossless CSV persistence, and repetition aggregation."""

import csv
import math
from dataclasses import dataclass, fields

EPISODE_METRICS = (
    "sum_reward",
    "tx_interrupted_ratio",
    "urllc_missed_ratio",
    "critical_missed_ratio",
)
PROBE_METRICS = ("md", "logstd_wait", "mean_logstd_punct", "steps_until_explore")


@dataclass
class EpisodeRow:
    """One training or evaluation episode's metrics."""

    run_id: str
    agent: str
    seed: int
    episode: int
    sum_reward: float
    tx_interrupted_ratio: float
    urllc_missed_ratio: float
    critical_missed_ratio: float
    epsilon_end: float


@dataclass
class ProbeRow:
    """One probe outcome; fields a mode does not produce stay None."""

    run_id: str
    agent: str
    repetition: int
    md: float | None = None
    logstd_wait: float | None = None
    mean_logstd_punct: float | None = None
    steps_until_explore: int | None = None


@dataclass
class SummaryRow:
    """Aggregate of one metric over a group of rows."""

    agent: str
    episode: int | None
    metric: str
    mean: float
    std: float
    min: float
    max: float
    n: int


def field_names(row_type) -> list[str]:
    return [f.name for f in fields(row_type)]


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_csv(rows, path, row_type=None) -> None:
    """UTF-8 CSV with a header; floats keep 17 significant digits.

    Round-tripping through read_csv reproduces every finite value exactly.
    """
    if row_type is None:
        if not rows:
            raise ValueError("row_type is required for an empty row list")
        row_type = type(rows[0])
    names = field_names(row_type)
    for row in rows:
        if type(row) is not row_type:
            raise ValueError(f"rows must all be {row_type.__name__}, got {type(row).__name__}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(names)
        for row in rows:
            writer.writerow([_format_cell(getattr(row, name)) for name in names])


_PARSERS = {
    str: str,
    int: int,
    float: float,
    int | None: lambda s: int(s) if s else None,
    float | None: lambda s: float(s) if s else None,
}


def read_csv(path, row_type) -> list:
    """Parse a CSV written by write_csv back into typed rows.

    An empty file, a foreign header or a record whose cell count differs
    from the header's raises ValueError naming the path and line.
    """
    names = field_names(row_type)
    parsers = [_PARSERS[f.type] for f in fields(row_type)]
    out = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != names:
            raise ValueError(f"{path}:1: expected header {names}, got {header}")
        for record in reader:
            if len(record) != len(names):
                raise ValueError(
                    f"{path}:{reader.line_num}: {len(record)} cells, the header has {len(names)}"
                )
            out.append(row_type(*(parse(cell) for parse, cell in zip(parsers, record))))
    return out


def mean_std(values) -> tuple[float, float]:
    """Arithmetic mean and sample (n-1) standard deviation; std 0 when n = 1."""
    vals = list(values)
    if not vals:
        raise ValueError("cannot aggregate an empty group")
    n = len(vals)
    mean = sum(vals) / n
    if n == 1:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in vals) / (n - 1)
    return mean, math.sqrt(var)


def _summarize(agent, episode, metric, values) -> SummaryRow:
    mean, std = mean_std(values)
    return SummaryRow(agent, episode, metric, mean, std, min(values), max(values), len(values))


def aggregate_episodes(rows) -> list[SummaryRow]:
    """Per-agent, per-episode stats of every episode metric across runs."""
    if not rows:
        raise ValueError("cannot aggregate an empty group")
    groups: dict[tuple, list] = {}
    for row in rows:
        groups.setdefault((row.agent, row.episode), []).append(row)
    out = []
    for agent, episode in sorted(groups):
        members = groups[(agent, episode)]
        for metric in EPISODE_METRICS:
            out.append(_summarize(agent, episode, metric, [getattr(m, metric) for m in members]))
    return out


def aggregate_probes(rows) -> list[SummaryRow]:
    """Per-agent stats of every probe metric, skipping absent fields."""
    if not rows:
        raise ValueError("cannot aggregate an empty group")
    groups: dict[str, list] = {}
    for row in rows:
        groups.setdefault(row.agent, []).append(row)
    out = []
    for agent in sorted(groups):
        members = groups[agent]
        for metric in PROBE_METRICS:
            values = [getattr(m, metric) for m in members if getattr(m, metric) is not None]
            if values:
                out.append(_summarize(agent, None, metric, values))
    return out
