"""Proportional-fair weight computation and long-term rate tracking."""

from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import DomainError

R_BAR_INIT = 1e-3
R_BAR_FLOOR = 1e-6
# largest fairness exponent whose weight at the floor, R_BAR_FLOOR**-alpha,
# is still a finite float (about 51.4)
ALPHA_MAX = float(np.log(np.finfo(float).max) / -np.log(R_BAR_FLOOR))


@dataclass
class FairnessState:
    """Exponentially smoothed per-MS average rates and fairness knobs."""

    r_bar: np.ndarray
    alpha: float
    beta: float

    def __post_init__(self):
        self.r_bar = np.asarray(self.r_bar, dtype=float)
        # each check is written so that NaN fails it
        if not (isinstance(self.alpha, Real)
                and 0 <= self.alpha <= ALPHA_MAX):
            raise DomainError(f"alpha must be a number in [0, "
                              f"{ALPHA_MAX:.4g}], above which the weights "
                              f"overflow")
        if not 0.0 <= self.beta <= 1.0:
            raise DomainError("beta must lie in [0, 1]")
        if not np.all(np.isfinite(self.r_bar) & (self.r_bar > 0)):
            raise DomainError("average rates must be finite and > 0")


def initial_state(n_ms, alpha, beta):
    return FairnessState(r_bar=np.full(n_ms, R_BAR_INIT),
                         alpha=float(alpha), beta=float(beta))


def weights(state):
    """Per-MS scheduling weights 1 / r_bar^alpha (all ones for alpha = 0)."""
    return state.r_bar ** (-state.alpha)


def update(state, achieved_rates):
    """Fold one slot of achieved rates, one per MS, into the averages (new
    state)."""
    achieved = np.asarray(achieved_rates, dtype=float)
    if achieved.shape != state.r_bar.shape:
        raise DomainError(f"achieved rates must be one per MS, shape "
                          f"{state.r_bar.shape}; got shape {achieved.shape}")
    if not np.all(np.isfinite(achieved) & (achieved >= 0)):
        raise DomainError("achieved rates must be finite and nonnegative")
    r_new = state.beta * state.r_bar + (1.0 - state.beta) * achieved
    r_new = np.maximum(r_new, R_BAR_FLOOR)
    return FairnessState(r_bar=r_new, alpha=state.alpha, beta=state.beta)
