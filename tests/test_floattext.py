"""The numpy ``'%.17g'`` kernel against Python's ``%``, cell by cell."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lincontrol import floattext
from check_floattext import check

SRC = str(Path(__file__).resolve().parent.parent / "src")


def text(values):
    """The kernel's text of each of ``values``."""
    return [bytes(row[row != 0]).decode() for row in floattext.cells(values)]


def reference(values):
    return ["%.17g" % v for v in np.ravel(values).tolist()]


def ties():
    """Doubles halfway between two 17-digit decimals: ``(D + 1/2) 10^(E-16)``.

    With ``j = 16 - E``, that is ``w / 2^(j+1)`` for an odd ``w = (2D + 1) / 5^j``,
    a double when ``w < 2^53``; both parities of ``D`` occur.
    """
    values = []
    for j in range(1, 24):
        lo, hi = -(-2 * 10**16 // 5**j), min(2 * 10**17 // 5**j, 2**53)
        for w in (lo, lo + 1, lo + 2, lo + 3, (lo + hi) // 2, (lo + hi) // 2 + 1, hi - 2, hi - 1):
            if w % 2:
                values.append(w / 2 ** (j + 1))
    return np.array(values)


def edge_values():
    """Every power of two, each power of ten with its neighbours, ties, decade
    round-ups, signed zeros, subnormals and the non-finite values, with both signs."""
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    below = tens.copy()
    near_tens = [tens]
    for _ in range(4):
        below = np.nextafter(below, 0.0)
        near_tens.append(below)
    near_tens.append(np.nextafter(tens, np.inf))
    # 17 nines round up to the next decade; 16 nines and an 8 do not
    decades = np.array([float(f"{m}e{k}") for m in ("9.99999999999999999", "9.9999999999999998") for k in range(-300, 300, 7)])
    specials = np.array([0.0, np.inf, np.nan, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 1.7976931348623157e308])
    short = np.array([0.1, 0.5, 1.0, 2.5, 10.0, 100.0, 1e16, 1e17, 123456789.0, 1.5e-5, 1e-4, 9.9999e-5, 1e21, 0.3])
    values = np.concatenate([twos, *near_tens, ties(), decades, specials, short])
    return np.concatenate([values, -values])


def fallback_band(values):
    """``(required, allowed)``: the cells that must go to ``%`` and the cells that may.

    A cell must when it is zero, subnormal or not finite, when the exact
    scaled value ``s = |x| 10^(16-E)`` (``E`` the kernel's ``np.log10``
    estimate) has a fraction within :data:`~lincontrol.floattext.TIE_BAND` of
    one half, or when ``floor(s)`` is outside ``[10^16, 10^17)``.  It may
    when that holds within the kernel's error, 1e-12.
    """
    required, allowed = [], []
    slack = Fraction(1, 10**12)
    band = Fraction(floattext.TIE_BAND)
    for x in np.ravel(values).tolist():
        a = abs(x)
        if not (math.isfinite(a) and a >= 2.2250738585072014e-308):
            required.append(True)
            allowed.append(True)
            continue
        E = int(np.floor(np.log10(a)))
        s = Fraction(a) * Fraction(10) ** (16 - E)
        half = abs(s - math.floor(s) - Fraction(1, 2))
        low, high = 10**16, 10**17
        required.append(half < band - slack or s < low - slack or s >= high + slack)
        allowed.append(half < band + slack or s < low + slack or s >= high - slack)
    return np.array(required), np.array(allowed)


class TestEdgeValues:
    def test_every_edge_value_prints_as_percent(self):
        values = edge_values()
        got, want = text(values), reference(values)
        assert [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w] == []

    def test_fallback_is_only_the_named_classes(self):
        values = edge_values()
        _, slow = floattext.fast_cells(values)
        required, allowed = fallback_band(values)
        assert not np.any(required & ~slow), values[required & ~slow]
        assert not np.any(slow & ~allowed), values[slow & ~allowed]

    def test_ties_fall_back(self):
        values = ties()
        _, slow = floattext.fast_cells(values)
        assert slow.all()
        parities = set()
        for x in values.tolist():
            E = math.floor(math.log10(x))
            E += (Fraction(10) ** (E + 1) <= x) - (Fraction(10) ** E > x)
            s = Fraction(x) * Fraction(10) ** (16 - E)
            assert s - math.floor(s) == Fraction(1, 2), x
            parities.add(math.floor(s) % 2)
        # ties that round down and ties that round up, half-even
        assert parities == {0, 1}

    def test_a_round_up_to_the_next_decade_carries(self):
        # each of these doubles lies within 5e-18 below 10^k and prints as 1e+k;
        # the log10 estimate reads k, so the kernel leaves them to %, but from
        # the estimate k - 1 their 17 digits round up to 10^17
        ks = np.array([-305, -243, -176, -175, -174, -79, -78, -73, -70, -14, 98, 129, 153, 220])
        values = np.array([float(f"1e{k}") for k in ks.tolist()])
        assert all(Fraction(x) < Fraction(10) ** k for x, k in zip(values.tolist(), ks.tolist()))
        assert text(values) == reference(values) == [f"1e{k:+03d}" for k in ks.tolist()]
        assert floattext.fast_cells(values)[1].all()
        D, E, slow = floattext._digits(values, ks - 1)
        assert (D == 10**16).all() and (E == ks).all() and not slow.any()

    def test_specials_fall_back(self):
        values = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.2250738585072009e-308])
        _, slow = floattext.fast_cells(values)
        assert slow.all()
        assert text(values) == ["0", "-0", "inf", "-inf", "nan", "4.9406564584124654e-324",
                                "-2.2250738585072009e-308"]

    def test_rows_leave_the_last_bytes_free(self):
        rows = floattext.cells(edge_values())
        assert rows.shape[1] == floattext.WIDTH
        assert not rows[:, -3:].any()

    def test_any_shape_and_stride_is_read_flat(self):
        table = np.arange(24.0).reshape(4, 6) / 7
        assert text(table[:, ::2]) == reference(table[:, ::2])
        assert text(3.25) == ["3.25"]
        assert floattext.cells(np.array([])).shape == (0, floattext.WIDTH)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_raw_bit_patterns(bits):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    assert text(values) == reference(values)


def test_the_check_script_passes():
    assert check(cells=20000, seed=3, chunk=7000) == (20000, 0)


def test_powers_are_built_per_exponent_on_first_use():
    powers = floattext._Powers()
    slots = np.zeros(powers.known.size, dtype=bool)
    slots[[0, 300, -1]] = True
    powers.fill(slots)
    assert np.array_equal(powers.known, slots)
    for slot in np.flatnonzero(slots).tolist():
        E = slot + floattext._E_MIN
        exact = Fraction(10) ** (16 - E)
        held = (Fraction(powers.hi[slot]) + Fraction(powers.lo[slot])) * Fraction(powers.up[slot]) * Fraction(powers.down[slot])
        assert abs(held / exact - 1) < Fraction(1, 2**105)
        assert powers.hi_hi[slot] + powers.hi_lo[slot] == powers.hi[slot]


def test_importing_the_package_leaves_the_kernel_unloaded():
    code = "import sys, lincontrol.cli; print('lincontrol.floattext' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": SRC},
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"
