"""Metric records, the text codec of typed values, CSV files and repetition aggregation."""

import csv
import io
import math
import os
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


def write_atomic(path, data: bytes) -> None:
    """Replace ``path`` with ``data`` in one step.

    The bytes go to a temporary file beside ``path`` that os.replace moves
    over it, so a process that dies midway never leaves a truncated file.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def format_value(value) -> str:
    """``value`` as a CSV cell or a manifest value; its type's entry in PARSERS reads it back."""
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    text = str(value)
    # the CSV writer leaves it unquoted and the config reader ends a value there
    if "\r" in text:
        raise ValueError(f"a value cannot hold a carriage return: {text!r}")
    return text


def _parse_widths(text: str) -> tuple:
    try:
        return tuple(int(part.strip(), 10) for part in text.split(",") if part.strip())
    except ValueError:
        raise ValueError(f"expected comma-separated layer widths, got {text!r}")


# field type -> parser of the text format_value writes
PARSERS = {
    str: str,
    int: int,
    float: float,
    tuple: _parse_widths,
    int | None: lambda s: int(s) if s else None,
    float | None: lambda s: float(s) if s else None,
}


def write_csv(rows, path, row_type) -> None:
    """UTF-8 CSV of ``row_type`` rows with a header, written atomically.

    Every line ends with a newline and every cell is format_value's text, so
    read_csv reproduces every finite value exactly. A carriage return in a
    cell raises ValueError.
    """
    names = field_names(row_type)
    for row in rows:
        if type(row) is not row_type:
            raise ValueError(f"rows must all be {row_type.__name__}, got {type(row).__name__}")
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(names)
    for row in rows:
        writer.writerow([format_value(getattr(row, name)) for name in names])
    write_atomic(path, text.getvalue().encode("utf-8"))


def read_csv(path, row_type) -> list:
    """Parse a CSV written by write_csv back into typed rows.

    An empty file, a foreign header, a record whose cell count differs from
    the header's, a line the csv module cannot split (such as a cell past
    its field size limit) or a last line without its newline (a file cut
    short) raises ValueError naming the path and line; a file that is not
    UTF-8 raises one naming the path.
    """
    names = field_names(row_type)
    parsers = [PARSERS[f.type] for f in fields(row_type)]
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader, None)
        if header != names:
            raise ValueError(f"{path}:1: expected header {names}, got {header}")
        records = []
        for record in reader:
            if len(record) != len(names):
                raise ValueError(
                    f"{path}:{reader.line_num}: {len(record)} cells, the header has {len(names)}"
                )
            records.append(record)
    except csv.Error as exc:
        raise ValueError(f"{path}:{reader.line_num}: {exc}") from exc
    # write_csv ends every line with a newline; without one, a cut cell may still parse
    if not text.endswith("\n"):
        raise ValueError(f"{path}:{reader.line_num}: cut short, the last line has no newline")
    return [row_type(*(parse(cell) for parse, cell in zip(parsers, record)))
            for record in records]


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


def _aggregate(rows, key, metrics) -> list[SummaryRow]:
    """Stats of each metric over the rows that share ``key(row)``, an (agent, episode) pair.

    Groups come out sorted by (agent, episode), each with its metrics in
    ``metrics`` order. None values are skipped; a metric with none left
    gets no row.
    """
    if not rows:
        raise ValueError("cannot aggregate an empty group")
    groups: dict[tuple, list] = {}
    for row in rows:
        groups.setdefault(key(row), []).append(row)
    out = []
    for agent, episode in sorted(groups):
        for metric in metrics:
            values = [v for m in groups[(agent, episode)] if (v := getattr(m, metric)) is not None]
            if values:
                out.append(_summarize(agent, episode, metric, values))
    return out


def aggregate_episodes(rows) -> list[SummaryRow]:
    """Per-agent, per-episode stats of every episode metric across runs."""
    return _aggregate(rows, lambda row: (row.agent, row.episode), EPISODE_METRICS)


def aggregate_probes(rows) -> list[SummaryRow]:
    """Per-agent stats of every probe metric, skipping absent fields."""
    return _aggregate(rows, lambda row: (row.agent, None), PROBE_METRICS)
