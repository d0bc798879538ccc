"""A fixed yardstick task that never touches sngs: its wall time measures how
fast the shared machine runs at the moment.

    python3 bench/calibrate.py

It does what a CLI job does, on a fixed small problem: start a fresh
interpreter, import numpy and scipy.sparse.linalg, assemble a banded sparse
matrix, factor it and solve.  run.py runs it after every timed job and set-up
probe, and scales the run's times by CAL_REF_S / (this task's mean wall time
over the run), so a run made while the machine runs slow does not read as a
slower program.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

N = 20000

main = np.full(N, 2.0)
off = np.full(N - 1, -1.0)
A = sp.diags([off, main, off], [-1, 0, 1], format="csc")
b = np.sin(np.linspace(0.0, 1.0, N))
lu = spla.splu(A)
x = b
for _ in range(20):
    x = lu.solve(x / np.linalg.norm(x))
if not np.isfinite(x).all():
    raise SystemExit("calibrate: non-finite solve")
