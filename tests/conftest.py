import numpy as np
import pytest

import sngs
from oracles import physical_solve


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
    """Session cache of converged states keyed by (lam, a, nu, q, n, r_max),
    each solved on its physical domain (`oracles.physical_solve`)."""
    cache = {}

    def get(lam, a, nu, q, n=1536, rmax=None):
        key = (lam, a, nu, q, n, rmax)
        if key not in cache:
            params = sngs.ModelParams(lam=lam, a=a, nu=nu, q=q)
            cache[key] = physical_solve(params, n, rmax)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def origin_blown_state():
    """The accepted Kwong member (1, 0, 1, 2.5) on 1024 nodes with u(0)
    raised to 1.1e88, through `solver.ground_state`: node 0 has no r^2 dr
    weight, so the residual ratio does not see it, while its origin row
    and its identities, which turn NaN, do."""
    st = sngs.solve(sngs.ModelParams(lam=1.0, a=0.0, nu=1.0, q=2.5), 1024)
    assert sngs.acceptance_failures(st) == []
    u = st.u.copy()
    u[0] = 1.1e88
    with np.errstate(over="ignore", invalid="ignore"):
        return sngs.ground_state(st.grid, u, st.params, st.iterations,
                                 sngs.operators.radial_laplacian(st.grid))
