"""What both solvers share: mode names, covariance kernels, the result type
and the majorization-minimization (MM) engine of the downlink design.

`check_mode` admits only `MODE_P2P` and `MODE_MT`, and every solve returns
a `SolveResult`.  `hermitize` symmetrizes a Hermitian PSD covariance and
`cholesky` factors it, rejecting non-finite or indefinite input; `LN2`
converts natural logs to bits.

The non-convex log-det (and scalar log) terms of the rate and backhaul
expressions are concave in their matrix (scalar) argument, so their
first-order expansion is a global upper bound that touches at the expansion
point.  Swapping those terms for their tangents yields an inner problem
whose solution can only improve the true objective, which gives the usual
monotone-ascent guarantee of MM/DC schemes.  :func:`mm_solve` drives the
outer MM loop of the joint precoding problem in ``downlink``, which builds
its own tangents; the uplink power solve scores the vertices of its power
box and needs no MM loop, but reports in an :class:`MMTrace` too.

A problem object plugged into :func:`mm_solve` provides:

    objective(x)          true objective value (to maximize)
    violation(x)          max violation of the true constraints (<= 0 if feasible)
    step(x)               one inner ascent from x, returning a candidate

`step` is expected to never decrease its own ascent objective relative to
its starting point and to stay inside the true feasible set; mm_solve
additionally guards acceptance with the true objective and with the true
constraints.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NumericalDomainError

MODE_P2P = "point_to_point"
MODE_MT = "multiterminal"
LN2 = np.log(2.0)
# mm_solve converges at a relative objective change below MM_TOL and stops
# unconverged after MM_MAX_ITER steps
MM_TOL = 1e-4
MM_MAX_ITER = 60
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
    """Per-iteration bookkeeping of one mm_solve run or uplink power solve."""
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


def solver_inputs(weights, caps, power_limits):
    """The weights, backhaul capacities and power limits as float arrays;
    raises DomainError unless the first two are finite and >= 0 and the
    power limits finite and > 0."""
    weights, caps, power_limits = (np.asarray(x, dtype=float)
                                   for x in (weights, caps, power_limits))
    if not np.all(np.isfinite(weights) & (weights >= 0)):
        raise DomainError("weights must be finite and nonnegative")
    if not np.all(np.isfinite(caps) & (caps >= 0)):
        raise DomainError("backhaul capacities must be finite and nonnegative")
    if not np.all(np.isfinite(power_limits) & (power_limits > 0)):
        raise DomainError("power limits must be finite and positive")
    return weights, caps, power_limits


def mm_solve(problem, init):
    """Run the MM loop from a feasible starting point.

    Returns (solution, MMTrace).  Converged means the relative objective
    change dropped below MM_TOL.  A step that fails, leaves the feasible set
    or decreases the objective stops the loop unconverged at the previous
    iterate, as do MM_MAX_ITER accepted steps; none of these raises.
    """
    trace = MMTrace()
    v0 = problem.violation(init)
    # written so that a NaN violation counts as infeasible
    if not v0 <= FEASIBILITY_TOL:
        raise NumericalDomainError(
            f"mm_solve requires a feasible starting point "
            f"(constraint violation {v0:.3e})")
    x = init
    obj = problem.objective(x)
    trace.objective.append(obj)
    trace.violation.append(v0)

    for _ in range(MM_MAX_ITER):
        try:
            candidate = problem.step(x)
        except NumericalDomainError as exc:
            trace.warnings.append(f"inner solve failed: {exc}")
            break

        viol = problem.violation(candidate)
        if not viol <= FEASIBILITY_TOL:
            trace.warnings.append(
                "step left the feasible set; keeping previous iterate")
            break

        new_obj = problem.objective(candidate)
        if new_obj < obj - 1e-12 * max(1.0, abs(obj)):
            trace.warnings.append(
                "surrogate step decreased the objective; stopping at previous iterate")
            break

        rel_change = abs(new_obj - obj) / max(1.0, abs(obj))
        x, obj = candidate, new_obj
        trace.objective.append(obj)
        trace.violation.append(viol)
        trace.iterations += 1
        if rel_change < MM_TOL:
            trace.converged = True
            break
    else:
        trace.warnings.append(f"no convergence within {MM_MAX_ITER} iterations")

    return x, trace
