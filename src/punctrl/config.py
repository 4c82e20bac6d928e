"""Sectioned key-value run configuration and manifest echoing.

Every key has a built-in default matching the reference training setup, so
an absent or empty config file reproduces that run exactly. Unknown
sections or keys are rejected with the offending line number, and the
manifest written next to each run's outputs is itself a valid config that
reproduces the run bit-for-bit.

The keys and their defaults are the fields of ``SimConfig`` ([sim]),
``AgentSpec`` ([agent]) and ``TrainConfig`` ([train]), plus the run fields
of ``CliConfig`` ([run]); this module restates none of them, nor the text
of their values, which the codec in ``metrics`` writes and parses.
"""

import configparser
import io
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
        anchor = ""
        if path is not None:
            anchor = f"{path}:{line}: " if line is not None else f"{path}: "
        super().__init__(anchor + message)


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


def _find_line(text: str, section: str | None, key: str | None) -> int | None:
    in_section = True
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            name = stripped[1:-1].strip()
            if key is None and name == section:
                return lineno
            in_section = True if section is None else name == section
            continue
        if key is not None and in_section:
            # configparser lower-cases the keys it reports
            head = stripped.split("=", 1)[0].split(":", 1)[0].strip()
            if head.lower() == key:
                return lineno
    return None


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
    # no default section: [DEFAULT] is an unknown section like any other
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        line = getattr(exc, "lineno", None)
        raise ConfigError(f"cannot parse config: {exc.message}", path=path, line=line)
    for section in parser.sections():
        if section not in SCHEMA:
            raise ConfigError(
                f"unknown section [{section}]", path=path, line=_find_line(text, section, None)
            )
        for key, raw in parser.items(section):
            if key not in SCHEMA[section]:
                raise ConfigError(
                    f"unknown key {key!r} in section [{section}]",
                    path=path,
                    line=_find_line(text, section, key),
                )
            try:
                value = SCHEMA[section][key](raw)
            except ValueError as exc:
                raise ConfigError(
                    f"bad value for {key}: {exc}", path=path, line=_find_line(text, section, key)
                )
            setattr(_holder(cfg, section), key, value)
    check_config(cfg, path, text)
    return cfg


def check_config(cfg: CliConfig, path=None, text: str = "") -> None:
    """Raise ConfigError for settings no run accepts, anchored to ``path`` if given."""
    try:
        cfg.validate()
    except ValueError as exc:
        message = str(exc)
        line = None
        if path is not None:
            # validators lead with the field name, which matches the config key
            line = _find_line(text, None, message.split(" ", 1)[0])
        raise ConfigError(message, path=path, line=line)


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
