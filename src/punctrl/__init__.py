"""Learned URLLC mini-slot puncturing: simulator, DQN engine, experiments."""

from .estimator import DqnScheduler, ManualScheduler

__version__ = "0.1.0"
