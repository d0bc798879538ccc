"""The domain property: every point (q, lambda, n) of the paper's range,
q in (2,3) u (3,6) and lambda over 600 decades, ends in exit code 0 or 2,
with no warning and strict JSON, every solve that exits 0 passes `check`,
every spectrum that exits 0 certifies an accepted state, and every run that
exits 2 leaves a JSON that records why: an error, or a refused state."""

import json
import os
import warnings

from hypothesis import example, given, settings
from hypothesis import strategies as st

from sngs import cli


def _refuse(constant):
    raise ValueError(f"non-strict JSON constant {constant}")


def strict_json(path):
    with open(path) as fh:
        return json.load(fh, parse_constant=_refuse)


def records_a_refusal(path):
    """The JSON at `path` holds an error or a state the rule refuses."""
    man = strict_json(path)
    if man.get("summary", {}).get("error"):
        return True
    record = man.get("state", man)   # spectrum's state, or a solve's body
    return bool(record["summary"]["identity_failures"])


def open_interval(lo, hi):
    return st.floats(lo, hi, exclude_min=True, exclude_max=True)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(q=st.one_of(open_interval(2.0, 3.0), open_interval(3.0, 6.0)),
       log_lam=st.floats(-300.0, 300.0), n=st.integers(16, 1024))
@example(q=2.5, log_lam=100.0, n=1024)   # s u~ overflows the r^2 dr norms
@example(q=2.05, log_lam=-100.0, n=64)   # s = lam^20 underflows to 0
@example(q=2.0001, log_lam=300.0, n=16)  # within 1e-4 of each end of q's
@example(q=2.9999, log_lam=-300.0, n=17)
@example(q=3.0001, log_lam=-1.0, n=1024)
@example(q=5.9999, log_lam=100.0, n=257)
@example(q=2.0001, log_lam=100.0, n=257)   # exp(-r^2/4) on h = 54: a spike
@example(q=2.0001, log_lam=200.0, n=257)   # at node 0 over a denormal field
@example(q=2.0 + 1e-9, log_lam=-1.0, n=1024)   # the member domain grows as
@example(q=2.0001, log_lam=-1.0, n=1024)       # 2 ln 2 / (q - 2) toward
@example(q=2.001, log_lam=-1.0, n=1024)        # q = 2: these end in exit 2
@example(q=2.01, log_lam=-1.0, n=1024)
def test_every_point_ends_in_a_state_or_exit_2(tmp_path_factory, q, log_lam,
                                              n):
    out = str(tmp_path_factory.mktemp("point") / "x")
    point = ["--q", repr(q), "--lambda", repr(10.0 ** log_lam),
             "--n", str(n)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        solved = cli.main(["sngs", "solve", *point, "--out", out])
        checked = (cli.main(["sngs", "check", "--out", out])
                   if os.path.exists(out + ".csv") else None)
        spectrum = cli.main(["sngs", "spectrum", *point, "--out", out + "s"])
    assert [str(w.message) for w in caught] == []
    assert solved in (0, 2) and spectrum in (0, 2)
    assert checked in (None, 0, 2)
    if solved == 0:
        assert checked == 0
    for code, path in ((solved, out + ".json"), (spectrum, out + "s.json")):
        strict_json(path)
        if code == 2:
            assert records_a_refusal(path), path
    if spectrum == 0:
        state = strict_json(out + "s.json")["state"]
        assert state["summary"]["identity_failures"] == []

