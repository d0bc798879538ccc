"""Uniform radial grids, quadrature, differentiation and interpolation.

The grid covers [0, r_max] with n equally spaced nodes, nodes[0] = 0.  Two
quadrature weight vectors are attached: plain composite trapezoid for the dr
measure, and trapezoid applied to f*r^2 for the r^2 dr measure.  The r^2 dr
weights are normalized by the exact ball volume r_max^3/3 (a relative
adjustment of order h^2/r_max^2, ~3e-8 at n=4096) so that the total measure is
exact; every quadrature, energy and inner product in the package uses this one
weight vector, which is what makes the discrete variational identities close.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import NonPositiveRadius, TooFewNodes

EVEN = "even"   # f'(0) = 0
ODD = "odd"     # f(0) = 0


@dataclass(frozen=True)
class RadialGrid:
    r_max: float
    n: int
    nodes: np.ndarray
    h: float
    weights_dr: np.ndarray
    weights_r2dr: np.ndarray

    def key(self):
        """Hashable identity: grids with the same r_max and n are equal."""
        return (float(self.r_max), int(self.n))

    def __eq__(self, other):
        return isinstance(other, RadialGrid) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())


@dataclass
class RadialField:
    grid: RadialGrid
    values: np.ndarray
    parity: str = EVEN

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n,):
            raise ValueError(f"field length {self.values.shape} != grid n {self.grid.n}")

    def copy(self) -> "RadialField":
        return replace(self, values=self.values.copy())


def make_grid(r_max: float, n: int) -> RadialGrid:
    """Uniform grid on [0, r_max] with trapezoid weights for dr and r^2 dr."""
    if not r_max > 0:
        raise NonPositiveRadius(f"r_max = {r_max}")
    if n < 16:
        raise TooFewNodes(f"n = {n} < 16")
    h = r_max / (n - 1)
    nodes = h * np.arange(n)
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    w2 = w * nodes**2
    # normalize so the ball measure is exact (trapezoid alone carries +h^2 r_max/6)
    w2 *= (r_max**3 / 3.0) / w2.sum()
    return RadialGrid(r_max=r_max, n=n, nodes=nodes, h=h,
                      weights_dr=w, weights_r2dr=w2)


def integrate_radial(f: RadialField, measure: str = "r2dr") -> float:
    """Quadrature of f against dr or r^2 dr over [0, r_max]."""
    if measure == "dr":
        return float(np.dot(f.grid.weights_dr, f.values))
    if measure == "r2dr":
        return float(np.dot(f.grid.weights_r2dr, f.values))
    raise ValueError(f"unknown measure {measure!r}")


def differentiate(f: RadialField) -> RadialField:
    """Second-order first derivative: centered inside, one-sided at both ends.

    Parity flips (even profiles have odd derivatives and vice versa).
    """
    df = np.gradient(f.values, f.grid.h, edge_order=2)
    parity = ODD if f.parity == EVEN else EVEN
    return RadialField(grid=f.grid, values=df, parity=parity)


def _lagrange4(x, xs, ys):
    """Cubic Lagrange through four points per query: xs and ys hold each
    query's stencil along their last axis."""
    total = np.zeros_like(x)
    for i in range(4):
        li = np.ones_like(x)
        for j in range(4):
            if j != i:
                li *= (x - xs[..., j]) / (xs[..., i] - xs[..., j])
        total += ys[..., i] * li
    return total


def interpolate(f: RadialField, target: RadialGrid) -> RadialField:
    """Local cubic (4-point Lagrange) resampling; zero beyond the source r_max.

    Zero extension matches the vanishing-at-infinity far field of the states
    this package manipulates; parity carries over.
    """
    src = f.grid
    x = target.nodes
    out = np.zeros(target.n)
    inside = x <= src.r_max + 1e-12 * src.r_max
    xi = x[inside]
    # stencil start: two nodes left of the query, clipped to the grid
    idx = np.clip(np.floor(xi / src.h).astype(int) - 1, 0, src.n - 4)
    stencil = idx[:, None] + np.arange(4)
    out[inside] = _lagrange4(xi, src.nodes[stencil], f.values[stencil])
    return RadialField(grid=target, values=out, parity=f.parity)


# -- field CSV format ---------------------------------------------------------

def write_table_csv(path, header, rows) -> None:
    """CSV with a header line and CRLF rows at 17 significant digits."""
    np.savetxt(path, rows, fmt="%.17g", delimiter=",", newline="\r\n",
               header=",".join(header), comments="")


def write_field_csv(path, grid: RadialGrid, columns: dict) -> None:
    """Table CSV with header r,<names...>, one row per node."""
    write_table_csv(path, ["r", *columns],
                    np.column_stack([grid.nodes] + [columns[k] for k in columns]))


def read_field_csv(path):
    """Inverse of write_field_csv: returns (r, {name: array})."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = fh.readlines()
    if not any(map(str.strip, rows)):   # spares numpy's empty-input warning
        raise ValueError(f"{path} has no data rows")
    data = np.loadtxt(rows, delimiter=",", ndmin=2)
    return data[:, 0], {name: data[:, j + 1] for j, name in enumerate(header[1:])}
