"""Input validation helpers shared by configs and the estimator API."""

import numpy as np


def check_probability(name: str, value: float) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be a probability in [0, 1], got {value}")
    return value


def check_positive(name: str, value: float) -> float:
    value = float(value)
    if not value > 0.0 or not np.isfinite(value):
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return value


def check_count(name: str, value: int, minimum: int) -> int:
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def check_finite(name: str, value: float) -> float:
    value = float(value)
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def check_state_matrix(X, n_features: int) -> np.ndarray:
    """Coerce X to a 2-D float array of state vectors, one row per sample."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(1, -1)
    if X.ndim != 2 or X.shape[1] != n_features:
        raise ValueError(
            f"expected state vectors with {n_features} entries, got array of shape {X.shape}"
        )
    if not np.isfinite(X).all():
        raise ValueError("state vectors must be finite")
    return X
