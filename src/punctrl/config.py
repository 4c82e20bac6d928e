"""Sectioned key-value run configuration and manifest echoing.

Every key has a built-in default matching the reference training setup, so
an absent or empty config file reproduces that run exactly, and the
manifest written next to each run's outputs is itself a valid config that
reproduces the run bit-for-bit.

A config file is read in one pass, in the grammar of Python's configparser:
lines end at "\\n" only; blank lines and lines starting with "#" or ";" hold
nothing; a header is "[name]", and anything after its last "]" is ignored; a
key ends at its first "=" or ":" and is lower-cased; a line indented deeper
than its key's line continues that key's value, which keeps its inner blank
lines and drops trailing ones. An unknown or repeated section or key is an
error, and each error in a file names its line.

The keys and their defaults are the fields of ``SimConfig`` ([sim]),
``AgentSpec`` ([agent]) and ``TrainConfig`` ([train]), plus the run fields
of ``CliConfig`` ([run]); this module restates none of them, nor the text
of their values, which the codec in ``metrics`` writes and parses.
"""

import io
import re
from dataclasses import dataclass, fields

from .agents import AgentSpec
from .metrics import PARSERS, format_value, write_atomic
from .seeding import U64_MAX
from .sim import SimConfig
from .train import TrainConfig
from .validation import check_count


class ConfigError(Exception):
    """Configuration problem, anchored to a file line when one is known."""

    def __init__(self, message: str, path=None, line=None):
        if path is not None:
            message = f"{path}:{line}: {message}" if line is not None else f"{path}: {message}"
        super().__init__(message)


@dataclass
class CliConfig(TrainConfig):
    """Fully resolved settings of one command invocation."""

    reps: int = 1
    jobs: int = 1
    out_dir: str = "runs"

    def validate(self) -> "CliConfig":
        super().validate()
        check_count("reps", self.reps, minimum=1)
        check_count("jobs", self.jobs, minimum=1)
        if self.seed + self.reps - 1 > U64_MAX:
            raise ValueError(f"reps {self.reps} from seed {self.seed} run past the largest seed "
                             "2**64 - 1")
        # the manifest's reader strips each value and ends it at a line break
        out_dir = self.out_dir
        if not out_dir or out_dir != out_dir.strip() or "\n" in out_dir or "\r" in out_dir:
            raise ValueError(f"out_dir must name a directory with no whitespace at either end "
                             f"and no line break, so its manifest reads it back; got {out_dir!r}")
        # an undecodable byte on the command line arrives as a lone surrogate,
        # which the UTF-8 manifest cannot hold
        try:
            out_dir.encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError(f"out_dir must be writable as UTF-8, as its manifest is; "
                             f"got {out_dir!r}") from None
        return self


# [run] keys; seed is a TrainConfig field but is set per invocation
RUN_FIELDS = ("seed", "reps", "jobs", "out_dir")


# fields of types the codec does not parse (the agent and sim holders,
# checkpoint_dir) are not config keys
def _keys(cls) -> dict:
    return {f.name: PARSERS[f.type] for f in fields(cls) if f.type in PARSERS}


# section -> key -> parser; order defines the manifest layout
SCHEMA = {
    "sim": _keys(SimConfig),
    "agent": _keys(AgentSpec),
    "train": {k: p for k, p in _keys(CliConfig).items() if k not in RUN_FIELDS},
    "run": {k: _keys(CliConfig)[k] for k in RUN_FIELDS},
}


def _holder(cfg: CliConfig, section: str):
    """The object whose attributes are the keys of ``section``."""
    return getattr(cfg, section) if section in ("sim", "agent") else cfg


def load_config(path: str | None) -> CliConfig:
    """Resolve a config file over the built-in defaults; None means defaults."""
    cfg = CliConfig()
    if path is None:
        check_config(cfg)
        return cfg
    try:
        # utf-8-sig drops a leading byte-order mark and reads all else as utf-8
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}", path=path)
    values = {}  # (section, key) -> the lines of its value, in file order
    lines = {}  # key -> its line; no key is in two sections
    sections = set()
    section, value, indent = None, None, 0
    for lineno, line in enumerate(text.split("\n"), start=1):
        stripped = line.strip()
        if stripped.startswith(("#", ";")) or not (stripped or value):
            continue
        depth = len(line) - len(line.lstrip())
        if value and (depth > indent or not stripped):
            value.append(stripped)
            continue
        indent = depth
        close = stripped.rfind("]")
        if stripped.startswith("[") and close > 1:
            section, value = stripped[1:close], None
            if section in sections or section not in SCHEMA:
                problem = "repeated" if section in sections else "unknown"
                raise ConfigError(f"{problem} section [{section}]", path=path, line=lineno)
            sections.add(section)
            continue
        cut = next((i for i, char in enumerate(stripped) if char in "=:"), None)
        if section is None or not cut:
            expected = "a [section] header" if section is None else "key = value"
            raise ConfigError(f"expected {expected}, got {stripped!r}", path=path, line=lineno)
        key = stripped[:cut].rstrip().lower()
        if key not in SCHEMA[section] or key in lines:
            problem = "repeated" if key in lines else "unknown"
            raise ConfigError(f"{problem} key {key!r} in section [{section}]", path=path,
                              line=lineno)
        value = values[section, key] = [stripped[cut + 1:].strip()]
        lines[key] = lineno
    for (section, key), parts in values.items():
        try:
            parsed = SCHEMA[section][key]("\n".join(parts).rstrip())
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {exc}", path=path, line=lines[key])
        setattr(_holder(cfg, section), key, parsed)
    check_config(cfg, path, lines)
    return cfg


def check_config(cfg: CliConfig, path=None, lines=None) -> None:
    """Raise ConfigError for settings no run accepts, anchored to ``path`` if given,
    at the line in ``lines`` (key -> line) of the first key the message names."""
    try:
        cfg.validate()
    except ValueError as exc:
        message = str(exc)
        # validators name the fields they check, the failing one first
        named = [word for word in re.findall(r"\w+", message) if word in (lines or {})]
        raise ConfigError(message, path=path, line=lines[named[0]] if named else None)


def as_train_config(cfg: CliConfig, seed: int,
                    checkpoint_dir: str | None = None) -> TrainConfig:
    """The training settings of ``cfg`` for one rep's ``seed``.

    A plain TrainConfig: one rep's seed is validated on its own, not as the
    start of ``cfg.reps`` seeds.
    """
    kept = {f.name: getattr(cfg, f.name) for f in fields(TrainConfig)}
    kept.update(seed=seed, checkpoint_dir=checkpoint_dir)
    return TrainConfig(**kept)


def config_text(cfg: CliConfig) -> str:
    """Canonical config rendering; parsing it back reproduces cfg exactly."""
    out = io.StringIO()
    for section, keys in SCHEMA.items():
        out.write(f"[{section}]\n")
        holder = _holder(cfg, section)
        for key in keys:
            out.write(f"{key} = {format_value(getattr(holder, key))}\n")
        out.write("\n")
    return out.getvalue()


def write_manifest(cfg: CliConfig, path) -> None:
    write_atomic(path, config_text(cfg).encode("utf-8"))
