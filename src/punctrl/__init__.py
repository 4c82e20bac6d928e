"""Learned URLLC mini-slot puncturing: simulator, DQN engine, experiments."""

from .agents import (
    AgentSpec,
    Transition,
    epsilon_at,
    loss_eg,
    loss_me,
    loss_vb,
    select_action,
    td_components,
)
from .estimator import DqnScheduler, ManualScheduler
from .metrics import (
    EpisodeRow,
    ProbeRow,
    SummaryRow,
    aggregate_episodes,
    aggregate_probes,
    read_csv,
    write_csv,
)
from .net import (
    Adam,
    ForwardCache,
    NetworkParams,
    TargetPair,
    backward,
    forward,
    forward_cached,
    gaussian_log_density,
    sample_gaussian_head,
)
from .sim import (
    PuncturingSim,
    RequestKind,
    SimConfig,
    sample_channel_gain,
)
from .svgchart import Series, emit_linechart
from .train import (
    RunResult,
    TrainConfig,
    TrainingDiverged,
    load_checkpoint,
    manual_baseline,
    probe_adaptation,
    probe_reaction,
    save_checkpoint,
    train,
)

__version__ = "0.1.0"
