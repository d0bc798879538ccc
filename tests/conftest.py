import numpy as np
import pytest

import sngs


@pytest.fixture(scope="session")
def grid_small():
    return sngs.make_grid(20.0, 768)


@pytest.fixture(scope="session")
def grid_mid():
    return sngs.make_grid(28.0, 1536)


def smooth_bumps(grid, rng, n_bumps=3, amp=1.0, max_center=None):
    """Random smooth decaying even profile: a sum of Gaussian bumps."""
    r = grid.nodes
    max_center = max_center if max_center is not None else grid.r_max / 3.0
    vals = np.zeros(grid.n)
    for _ in range(n_bumps):
        c = rng.uniform(0.0, max_center)
        w = rng.uniform(0.5, 2.0)
        a = amp * rng.uniform(0.3, 1.0) * rng.choice([-1.0, 1.0])
        vals += a * np.exp(-((r - c) ** 2) / (2 * w * w)) \
            + a * np.exp(-((r + c) ** 2) / (2 * w * w))   # even in r
    vals[-2:] = 0.0
    return vals


@pytest.fixture(scope="session")
def solved_cache():
    """Session cache of converged states keyed by (lam, a, nu, q, r_max, n)."""
    cache = {}

    def get(lam, a, nu, q, n=1536, rmax=None):
        rmax = rmax if rmax is not None else sngs.auto_rmax(lam)
        key = (lam, a, nu, q, rmax, n)
        if key not in cache:
            params = sngs.ModelParams(lam=lam, a=a, nu=nu, q=q)
            grid = sngs.make_grid(rmax, n)
            cache[key] = sngs.newton_solve(grid, sngs.default_guess(params, grid),
                                           params)
        return cache[key]

    return get
