"""What both solvers share: mode names, covariance kernels and the result type.

`check_mode` admits only `MODE_P2P` and `MODE_MT`, `solver_inputs` checks
the weights, capacities and power limits, and every solve returns a
`SolveResult` with its `MMTrace`.  `hermitize` symmetrizes a Hermitian PSD
covariance and `cholesky` factors it, rejecting non-finite or indefinite
input; `LN2` converts natural logs to bits.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NumericalDomainError

MODE_P2P = "point_to_point"
MODE_MT = "multiterminal"
LN2 = np.log(2.0)
# largest true-constraint violation that still counts as feasible
FEASIBILITY_TOL = 1e-7


def check_mode(mode):
    """Raise DomainError unless mode names a compression mode."""
    if mode not in (MODE_P2P, MODE_MT):
        raise DomainError(f"unknown mode {mode!r}")


def hermitize(m):
    """Symmetrize to (M + M^H)/2."""
    m = np.asarray(m, dtype=complex)
    return 0.5 * (m + m.conj().T)


def cholesky(m):
    """Lower Cholesky factor of a positive definite Hermitian matrix.

    A non-finite entry raises: LAPACK passes NaN through into the factor
    instead of failing.  A finite positive definite matrix has a finite
    factor, since |L_ij| <= sqrt(m_ii).
    """
    if not np.isfinite(m).all():
        raise NumericalDomainError("matrix has non-finite entries")
    m = hermitize(m)
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        w = np.linalg.eigvalsh(m)
        raise NumericalDomainError(
            f"matrix is not positive definite (min eigenvalue {w.min():.6e})")


@dataclass
class MMTrace:
    """How a solve went: the objective and constraint violation of each MM
    iterate (downlink only; the uplink runs no MM loop), whether it
    converged, its step count and its warnings."""
    objective: list = field(default_factory=list)
    violation: list = field(default_factory=list)
    converged: bool = False
    iterations: int = 0
    warnings: list = field(default_factory=list)


@dataclass
class SolveResult:
    """A solver's design, the rates it achieves, their weighted sum and the
    solve's MMTrace."""
    design: object
    rates: np.ndarray
    objective: float
    trace: MMTrace


def solver_inputs(channel, weights, caps, power_limits, per_ms=False):
    """The weights, backhaul capacities and power limits as float arrays;
    raises DomainError unless the weights are one per MS of `channel` and
    the capacities one per BS, both finite and >= 0, and the power limits
    are finite and > 0 and one per BS, or, `per_ms`, one per MS or one for
    all MSs."""
    weights, caps, power_limits = (np.asarray(x, dtype=float)
                                   for x in (weights, caps, power_limits))
    ms, bs = (channel.n_ms,), (channel.n_bs,)
    for name, x, shapes, rule in (
            ("weights", weights, [ms], "one per MS"),
            ("backhaul capacities", caps, [bs], "one per BS"),
            ("power limits", power_limits, [(), ms] if per_ms else [bs],
             "one per MS or one for all" if per_ms else "one per BS")):
        if x.shape not in shapes:
            raise DomainError(f"{name} must be {rule} of the channel's "
                              f"{channel.n_ms} MSs and {channel.n_bs} BSs, "
                              f"got shape {x.shape}")
    if not np.all(np.isfinite(weights) & (weights >= 0)):
        raise DomainError("weights must be finite and nonnegative")
    if not np.all(np.isfinite(caps) & (caps >= 0)):
        raise DomainError("backhaul capacities must be finite and nonnegative")
    if not np.all(np.isfinite(power_limits) & (power_limits > 0)):
        raise DomainError("power limits must be finite and positive")
    return weights, caps, power_limits

