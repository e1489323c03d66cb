import numpy as np
import pytest

from cransim import scheduler
from cransim.errors import DomainError


def test_weights_sum_rate_when_alpha_zero():
    state = scheduler.initial_state(4, alpha=0.0, beta=0.5)
    assert np.allclose(scheduler.weights(state), 1.0)


def test_weights_reference_values():
    state = scheduler.FairnessState(r_bar=np.array([2.0, 4.0]), alpha=1.0,
                                    beta=0.5)
    assert np.allclose(scheduler.weights(state), [0.5, 0.25])
    state2 = scheduler.FairnessState(r_bar=np.ones(3), alpha=2.0, beta=0.5)
    assert np.allclose(scheduler.weights(state2), 1.0)


def test_update_reference_values():
    state = scheduler.FairnessState(r_bar=np.array([2.0]), alpha=1.0, beta=0.5)
    new = scheduler.update(state, np.array([4.0]))
    assert new.r_bar[0] == pytest.approx(3.0)

    frozen = scheduler.update(
        scheduler.FairnessState(r_bar=np.array([2.0]), alpha=1.0, beta=1.0),
        np.array([7.0]))
    assert frozen.r_bar[0] == pytest.approx(2.0)

    instant = scheduler.update(
        scheduler.FairnessState(r_bar=np.array([2.0]), alpha=1.0, beta=0.0),
        np.array([7.0]))
    assert instant.r_bar[0] == pytest.approx(7.0)


def test_update_applies_floor():
    state = scheduler.FairnessState(r_bar=np.array([1e-5]), alpha=1.0,
                                    beta=0.0)
    new = scheduler.update(state, np.array([0.0]))
    assert new.r_bar[0] == scheduler.R_BAR_FLOOR


def test_update_rejects_negative_rates():
    state = scheduler.initial_state(2, alpha=1.0, beta=0.5)
    with pytest.raises(DomainError):
        scheduler.update(state, np.array([0.5, -0.1]))


def test_update_rejects_rates_of_another_shape():
    """One rate is not spread over five MSs, nor a scalar over two."""
    for n_ms, rates in ((5, [1.0]), (2, 1.0), (2, [1.0, 1.0, 1.0]),
                        (2, [[1.0, 1.0]])):
        state = scheduler.initial_state(n_ms, 1.0, 0.5)
        with pytest.raises(DomainError, match="one per MS"):
            scheduler.update(state, rates)


def test_state_validation():
    with pytest.raises(DomainError):
        scheduler.FairnessState(r_bar=np.array([1.0]), alpha=-1.0, beta=0.5)
    with pytest.raises(DomainError):
        scheduler.FairnessState(r_bar=np.array([1.0]), alpha=0.0, beta=1.5)
    with pytest.raises(DomainError):
        scheduler.FairnessState(r_bar=np.array([0.0]), alpha=0.0, beta=0.5)


def test_nan_and_inf_refused():
    # each check fails for NaN, which compares False both ways; a NaN rate
    # would otherwise become a NaN average and NaN weights
    state = scheduler.initial_state(3, alpha=1.0, beta=0.5)
    for bad in (np.nan, np.inf):
        with pytest.raises(DomainError, match="achieved rates"):
            scheduler.update(state, [bad, 1.0, 1.0])
        with pytest.raises(DomainError, match="average rates"):
            scheduler.FairnessState(r_bar=np.array([1.0, bad]), alpha=1.0,
                                    beta=0.5)
    for alpha in (np.nan, "1"):
        with pytest.raises(DomainError, match="alpha"):
            scheduler.FairnessState(r_bar=np.ones(2), alpha=alpha, beta=0.5)
    with pytest.raises(DomainError, match="beta"):
        scheduler.FairnessState(r_bar=np.ones(2), alpha=1.0, beta=np.nan)
    assert np.array_equal(scheduler.update(state, [0.0, 1.0, 2.0]).r_bar,
                          [5e-4, 0.5005, 1.0005])


def test_weights_scale_covariance():
    rng = np.random.default_rng(3)
    r = rng.uniform(0.5, 3.0, 5)
    for alpha in (0.0, 0.7, 2.0):
        w1 = scheduler.weights(scheduler.FairnessState(r_bar=r, alpha=alpha,
                                                       beta=0.5))
        w2 = scheduler.weights(scheduler.FairnessState(r_bar=3.0 * r,
                                                       alpha=alpha, beta=0.5))
        assert np.allclose(w2, 3.0 ** (-alpha) * w1)
        assert np.argmax(w1) == np.argmax(w2)


def test_update_is_convex_combination():
    rng = np.random.default_rng(4)
    for _ in range(20):
        r = rng.uniform(0.1, 2.0, 3)
        rates = rng.uniform(0.0, 4.0, 3)
        beta = rng.uniform(0.0, 1.0)
        state = scheduler.FairnessState(r_bar=r, alpha=1.0, beta=beta)
        new = scheduler.update(state, rates)
        low = np.minimum(r, rates) - scheduler.R_BAR_FLOOR
        high = np.maximum(r, rates) + 1e-12
        assert np.all(new.r_bar >= low) and np.all(new.r_bar <= high)
        assert np.all(new.r_bar > 0)


def test_alpha_above_alpha_max_refused():
    """The state refuses a fairness exponent whose weight at R_BAR_FLOOR,
    R_BAR_FLOOR**-alpha, overflows, as the config does; ALPHA_MAX itself
    gives finite weights at the floor."""
    limit = scheduler.ALPHA_MAX
    floor = np.full(2, scheduler.R_BAR_FLOOR)
    state = scheduler.FairnessState(r_bar=floor, alpha=limit, beta=0.5)
    assert np.isfinite(scheduler.weights(state)).all()
    for alpha in (float(np.nextafter(limit, np.inf)), limit + 1.0, np.inf):
        with pytest.raises(DomainError, match="alpha"):
            scheduler.FairnessState(r_bar=floor, alpha=alpha, beta=0.5)
        with pytest.raises(DomainError, match="alpha"):
            scheduler.initial_state(2, alpha=alpha, beta=0.5)
