"""Sectioned key-value run configuration and manifest echoing.

Every key has a built-in default matching the reference training setup, so
an absent or empty config file reproduces that run exactly. Unknown
sections or keys are rejected with the offending line number, and the
manifest written next to each run's outputs is itself a valid config that
reproduces the run bit-for-bit.
"""

import configparser
import io
from dataclasses import dataclass, field

from .agents import AGENT_KINDS, SIGN_AS_WRITTEN, SIGN_UNIFORM_PRIOR, AgentSpec
from .sim import SimConfig
from .train import TrainConfig


class ConfigError(Exception):
    """Configuration problem, anchored to a file line when one is known."""

    def __init__(self, message: str, path=None, line=None):
        anchor = ""
        if path is not None:
            anchor = f"{path}:{line}: " if line is not None else f"{path}: "
        super().__init__(anchor + message)
        self.path = path
        self.line = line


@dataclass
class CliConfig:
    """Fully resolved settings of one command invocation."""

    sim: SimConfig = field(default_factory=SimConfig)
    agent: AgentSpec = field(default_factory=AgentSpec)
    episodes: int = 30
    steps_per_episode: int = 3000
    hidden_dims: tuple = (128, 128)
    learning_rate: float = 1e-4
    target_tau: float = 1e-4
    checkpoint_every: int = 0
    seed: int = 0
    reps: int = 1
    jobs: int = 1
    out_dir: str = "runs"


def _parse_int(text: str) -> int:
    return int(text, 10)


def _parse_float(text: str) -> float:
    return float(text)


def _parse_str(text: str) -> str:
    return text.strip()


def _parse_choice(choices):
    def parse(text: str) -> str:
        value = text.strip()
        if value not in choices:
            raise ValueError(f"expected one of {', '.join(choices)}, got {value!r}")
        return value

    return parse


def _parse_dims(text: str) -> tuple:
    try:
        dims = tuple(int(part.strip(), 10) for part in text.split(",") if part.strip())
    except ValueError:
        raise ValueError(f"expected comma-separated layer widths, got {text!r}")
    if not dims:
        raise ValueError("hidden_dims must name at least one layer width")
    return dims


def _fmt_value(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


# section -> key -> (attribute path, parser); order defines the manifest layout
SCHEMA = {
    "sim": {
        "n_resources": ("sim.n_resources", _parse_int),
        "slots_per_subframe": ("sim.slots_per_subframe", _parse_int),
        "p_occupy": ("sim.p_occupy", _parse_float),
        "occupy_len_min": ("sim.occupy_len_min", _parse_int),
        "occupy_len_max": ("sim.occupy_len_max", _parse_int),
        "p_request": ("sim.p_request", _parse_float),
        "p_critical": ("sim.p_critical", _parse_float),
        "rayleigh_sigma": ("sim.rayleigh_sigma", _parse_float),
        "w_capacity": ("sim.w_capacity", _parse_float),
        "w_discard": ("sim.w_discard", _parse_float),
        "w_discard_critical": ("sim.w_discard_critical", _parse_float),
    },
    "agent": {
        "kind": ("agent.kind", _parse_choice(AGENT_KINDS)),
        "epsilon_initial": ("agent.epsilon_initial", _parse_float),
        "epsilon_decay_fraction": ("agent.epsilon_decay_fraction", _parse_float),
        "w_lp": ("agent.w_lp", _parse_float),
        "w_me": ("agent.w_me", _parse_float),
        "softmax_clip_low": ("agent.softmax_clip_low", _parse_float),
        "gamma": ("agent.gamma", _parse_float),
        "me_sign": ("agent.me_sign", _parse_choice((SIGN_UNIFORM_PRIOR, SIGN_AS_WRITTEN))),
    },
    "train": {
        "episodes": ("episodes", _parse_int),
        "steps_per_episode": ("steps_per_episode", _parse_int),
        "hidden_dims": ("hidden_dims", _parse_dims),
        "learning_rate": ("learning_rate", _parse_float),
        "target_tau": ("target_tau", _parse_float),
        "checkpoint_every": ("checkpoint_every", _parse_int),
    },
    "run": {
        "seed": ("seed", _parse_int),
        "reps": ("reps", _parse_int),
        "jobs": ("jobs", _parse_int),
        "out_dir": ("out_dir", _parse_str),
    },
}


def _set_path(cfg: CliConfig, dotted: str, value) -> None:
    if "." in dotted:
        holder_name, attr = dotted.split(".", 1)
        setattr(getattr(cfg, holder_name), attr, value)
    else:
        setattr(cfg, dotted, value)


def _get_path(cfg: CliConfig, dotted: str):
    if "." in dotted:
        holder_name, attr = dotted.split(".", 1)
        return getattr(getattr(cfg, holder_name), attr)
    return getattr(cfg, dotted)


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
            head = stripped.split("=", 1)[0].split(":", 1)[0].strip()
            if head == key:
                return lineno
    return None


def default_config() -> CliConfig:
    return CliConfig()


def load_config(path: str | None) -> CliConfig:
    """Resolve a config file over the built-in defaults; None means defaults."""
    cfg = default_config()
    if path is None:
        check_config(cfg)
        return cfg
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", path=path)
    parser = configparser.ConfigParser(interpolation=None)
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
            dotted, parse = SCHEMA[section][key]
            try:
                value = parse(raw)
            except ValueError as exc:
                raise ConfigError(
                    f"bad value for {key}: {exc}", path=path, line=_find_line(text, section, key)
                )
            _set_path(cfg, dotted, value)
    check_config(cfg, path, text)
    return cfg


def check_config(cfg: CliConfig, path=None, text: str = "") -> None:
    """Raise ConfigError for settings no run accepts, anchored to ``path`` if given."""
    try:
        as_train_config(cfg).validate()
        if cfg.reps < 1:
            raise ValueError("reps must be >= 1")
        if cfg.jobs < 1:
            raise ValueError("jobs must be >= 1")
    except ValueError as exc:
        message = str(exc)
        line = None
        if path is not None:
            # validators lead with the field name, which matches the config key
            line = _find_line(text, None, message.split(" ", 1)[0])
        raise ConfigError(message, path=path, line=line)


def as_train_config(cfg: CliConfig, seed: int | None = None,
                    checkpoint_dir: str | None = None) -> TrainConfig:
    return TrainConfig(
        agent=cfg.agent,
        sim=cfg.sim,
        episodes=cfg.episodes,
        steps_per_episode=cfg.steps_per_episode,
        seed=cfg.seed if seed is None else seed,
        hidden_dims=cfg.hidden_dims,
        learning_rate=cfg.learning_rate,
        target_tau=cfg.target_tau,
        checkpoint_every=cfg.checkpoint_every,
        checkpoint_dir=checkpoint_dir,
    )


def config_text(cfg: CliConfig) -> str:
    """Canonical config rendering; parsing it back reproduces cfg exactly."""
    out = io.StringIO()
    for section, keys in SCHEMA.items():
        out.write(f"[{section}]\n")
        for key, (dotted, _) in keys.items():
            out.write(f"{key} = {_fmt_value(_get_path(cfg, dotted))}\n")
        out.write("\n")
    return out.getvalue()


def write_manifest(cfg: CliConfig, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(config_text(cfg))
