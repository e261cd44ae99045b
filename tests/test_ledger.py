"""The ledger of known silent wrong answers, each against the 120-digit oracle.

A request passes when it raises a typed error (a ``ValueError`` or a
:class:`~lincontrol.NumericsError`, which the CLI turns into exit 2), or when
its cost and every cost part lie within :data:`TOL` relative of
``order_n_parts_mp(n, lam, T, dps=120)``.  Every entry below exits 0 with a
cost or a part further off than that today, so each is a strict ``xfail``
whose reason is its measured error; the change that mends an entry removes
its marker.  An exponential family of rate ``k`` is the first-order optimum
at ``lam = k^-2``: its cost is the bare ``state + derivative`` of that
optimum and its control part is 0.
"""

import math

import pytest

from lincontrol import NumericsError
from lincontrol.oct import build_lq, regular_order1_analytic, solve_regular
from lincontrol.sta import build_exponential, solve_sta
from oracles import order_n_parts_mp

#: relative distance from the oracle of a right cost and of each right part
TOL = 1e-9


def ledger_entry(key, solve, args, reason, bare=False):
    """One request: its solver call, the oracle's ``(n, lam, T)`` and its measured error.

    Only a failed assertion is the known wrong answer; any other exception fails the test.
    """
    mark = pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)
    return pytest.param(solve, args, bare, id=key, marks=mark)


LEDGER = [
    ledger_entry("order1-0.99999-T3", lambda: regular_order1_analytic(0.99999, 3.0), (1, 0.99999, 3.0),
                 "measured: state -11.4 %, derivative +29 %, total 1.2e-5"),
    ledger_entry("order1-1.0001-T1", lambda: regular_order1_analytic(1.0001, 1.0), (1, 1.0001, 1.0),
                 "measured: state -8.9 %, derivative +2.7 %, total 2.1e-7"),
    ledger_entry("sta-exp-1.0001-T1", lambda: solve_sta(build_exponential(1.0001, 1.0)), (1, 1.0001**-2, 1.0),
                 "measured: bare parts +1.2e-3 and -3.8e-4 against the optimum at lam = k^-2, cost 7.6e-7",
                 bare=True),
    ledger_entry("n5-1e-4-T1", lambda: solve_regular(build_lq(5, 1e-4, 1.0)), (5, 1e-4, 1.0),
                 "measured: state 1.0e-4, derivative 9.9e-5, total 1.7e-8"),
    ledger_entry("n8-1e-3-T5", lambda: solve_regular(build_lq(8, 1e-3, 5.0)), (8, 1e-3, 5.0),
                 "measured: derivative 1.4e-7, total 5.8e-9"),
]


@pytest.mark.parametrize("solve,args,bare", LEDGER)
def test_a_typed_error_or_the_oracle(solve, args, bare):
    try:
        sol = solve()
    except (ValueError, NumericsError):
        return
    state, derivative, control_energy = order_n_parts_mp(*args, dps=120)
    if bare:
        control_energy = 0.0
    parts = sol.cost_breakdown
    got = {"cost": sol.cost, "state": parts.state, "derivative": parts.derivative,
           "control_energy": parts.control_energy}
    want = {"cost": state + derivative + control_energy, "state": state, "derivative": derivative,
            "control_energy": control_energy}
    assert {name: got[name] for name in got if not math.isclose(got[name], want[name], rel_tol=TOL)} == {}
