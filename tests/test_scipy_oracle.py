"""Frozen Tustin blocks against an external implementation of the bilinear
map, ``scipy.signal.cont2discrete(..., method="bilinear")``.  Test-only:
the package itself depends on numpy alone."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import inbox_p_trajectory, random_lpv_model
from lpvsim.discretize import DiscretizationConfig, tustin_frozen
from lpvsim.fixtures import FIXTURE_NAMES, load_fixture

signal = pytest.importorskip("scipy.signal")


def assert_matches_scipy(model, p, ts, atol):
    ad, bd, cd, dd, _ = signal.cont2discrete(model.matrices_at(p), ts, method="bilinear")
    got = tustin_frozen(model, p, DiscretizationConfig(ts))
    for ours, theirs in ((got.Axi, ad), (got.Bxi, bd), (got.Cxi, cd), (got.Dxi, dd)):
        assert_allclose(ours, theirs, rtol=0, atol=atol * max(1.0, np.max(np.abs(theirs))))


def test_msd_blocks_equal_scipy_exactly():
    assert_matches_scipy(load_fixture("msd"), [2.0], 0.1, atol=0.0)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
@pytest.mark.parametrize("ts", [0.01, 0.05, 0.25])
def test_fixture_blocks_match_scipy(name, ts):
    model = load_fixture(name)
    assert_matches_scipy(model, model.domain.midpoint(), ts, atol=1e-13)


def test_random_model_blocks_match_scipy():
    rng = np.random.default_rng(11)
    for ts in (0.01, 0.1, 0.5):
        for _ in range(6):
            model = random_lpv_model(rng, ts)
            for p in inbox_p_trajectory(rng, model, 3, 1.0):
                assert_matches_scipy(model, p, ts, atol=1e-12)
