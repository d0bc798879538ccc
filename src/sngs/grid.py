"""Uniform radial grids, quadrature, differentiation and the CSV format.

The grid covers [0, r_max] with n equally spaced nodes, nodes[0] = 0.  One
quadrature weight vector is attached, for the r^2 dr measure: trapezoid
applied to f*r^2, normalized by the exact ball volume r_max^3/3 (a relative
adjustment of order h^2/r_max^2, ~3e-8 at n=4096) so that the total measure is
exact.  Every quadrature, energy and inner product in the package uses this
one weight vector, a 1/r^2 potential such as the centrifugal term included,
which is what makes the discrete variational identities close.
A field is a plain float array of length n, read on the nodes of its grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveRadius, RadiusOutOfRange, TooFewNodes

EVEN = "even"   # f'(0) = 0
ODD = "odd"     # f(0) = 0


@dataclass(frozen=True)
class RadialGrid:
    r_max: float
    n: int
    nodes: np.ndarray
    h: float
    weights_r2dr: np.ndarray

    def key(self):
        """Hashable identity: grids with the same r_max and n are equal."""
        return (float(self.r_max), int(self.n))

    def __eq__(self, other):
        return isinstance(other, RadialGrid) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())


def make_grid(r_max: float, n: int) -> RadialGrid:
    """Uniform grid on [0, r_max] with trapezoid weights for r^2 dr.

    Raises NonPositiveRadius, TooFewNodes, and RadiusOutOfRange when the ball
    volume r_max^3 / 3 is not a normal finite float."""
    if not r_max > 0:
        raise NonPositiveRadius(f"r_max = {r_max}")
    if n < 16:
        raise TooFewNodes(f"n = {n} < 16")
    try:
        with np.errstate(over="ignore"):   # a numpy r_max overflows to inf
            volume = r_max**3 / 3.0
    except OverflowError:                  # a float r_max raises
        volume = math.inf
    if not np.finfo(float).tiny <= volume < math.inf:
        raise RadiusOutOfRange(f"r_max = {r_max:g}: the ball volume r_max^3/3 "
                               "is not a normal finite float")
    h = r_max / (n - 1)
    nodes = h * np.arange(n)
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    w2 = w * nodes**2
    # normalize so the ball measure is exact (trapezoid alone carries +h^2 r_max/6)
    w2 *= volume / w2.sum()
    return RadialGrid(r_max=r_max, n=n, nodes=nodes, h=h, weights_r2dr=w2)


def differentiate(grid: RadialGrid, f: np.ndarray) -> np.ndarray:
    """Second-order first derivative of the field f on `grid`: centered
    inside, one-sided at both ends."""
    return np.gradient(f, grid.h, edge_order=2)


# -- field CSV format ---------------------------------------------------------

def write_table_csv(path, header, rows) -> None:
    """CSV with a header line and CRLF rows at 17 significant digits.

    `rows` is a 2-D table of numbers, each written as `%.17g` of its float.
    The row template is built once and the whole body formatted by one `%`,
    byte for byte what `np.savetxt(fmt="%.17g", delimiter=",",
    newline="\\r\\n")` writes row by row."""
    table = np.asarray(rows, dtype=float)
    n_rows, n_cols = table.shape
    row = ",".join(["%.17g"] * n_cols) + "\r\n"
    body = (row * n_rows) % tuple(table.ravel().tolist())
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n" + body)


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
