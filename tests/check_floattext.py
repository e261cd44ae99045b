"""Check the numpy ``'%.17g'`` kernel against Python's ``%`` on raw bit patterns.

Usage, from the root of a checkout::

    PYTHONPATH=src python tests/check_floattext.py --cells 2000000 --seed 0

Every 64-bit pattern is equally likely, so about one cell in a thousand is
a NaN, an infinity, a zero or a subnormal, and nearly as many are exact
ties between two 17-digit decimals (values from about 1e13 to 1e16, whose
few fraction bits often make the 18th digit a 5 and the rest 0); all of
them go to ``%``.  The script prints the number of cells checked, how many
went to ``%`` and how many differ, and exits 1 on any difference, naming
the first few.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from lincontrol import floattext


def check(cells, seed, chunk=100_000, report=None):
    """``(checked, mismatches)`` over ``cells`` raw patterns drawn from ``seed``, ``chunk`` at a time."""
    rng = np.random.default_rng(seed)
    checked = mismatches = fallback = 0
    while checked < cells:
        values = rng.integers(0, 2**64, size=min(chunk, cells - checked), dtype=np.uint64).view(np.float64)
        rows = floattext.cells(values)
        rows[:, -1] = ord("\n")
        want = "".join("%.17g\n" % v for v in values.tolist()).encode()
        if rows.tobytes().translate(None, b"\0") != want:
            got = [bytes(row[row != 0]).decode() for row in rows[:, :-1]]
            bad = [(v, g, "%.17g" % v) for v, g in zip(values.tolist(), got) if g != "%.17g" % v]
            mismatches += len(bad)
            if report:
                for v, g, w in bad[:5]:
                    print(f"mismatch: {float(v).hex()} kernel {g!r} %.17g {w!r}", file=report)
        fallback += int(np.count_nonzero(floattext.fast_cells(values)[1]))
        checked += values.size
    if report:
        print(f"checked {checked} cells from seed {seed}: {fallback} left to %, {mismatches} differ", file=report)
    return checked, mismatches


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cells", type=int, default=2_000_000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    _, mismatches = check(args.cells, args.seed, report=sys.stdout)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
