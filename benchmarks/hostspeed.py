"""Host speed probe, used to put wall times on a steady scale.

On a shared host the same code runs at two or more speeds: in a 100 s
test on a 2-core host, a fixed loop switched every few seconds between
two speeds about 1.6x apart. A fixed workload tracked it (correlation
0.8), and whole minutes could stay in the slow state. No in-run statistic removes a
slowdown that lasts a whole run. So every wall time the benchmark reports
is scaled by ``REFERENCE_S / probe``, where ``probe`` is the time of the
fixed loop below measured right before and after the timed work. On an
unloaded host the factor is about 1 and the figures are plain wall times.
When a co-tenant slows the host, the work and the probe slow together and
the figure stays put. A whole fresh process slows less than the probe, so
its factor is damped by ``PROCESS_EXPONENT``. The unscaled wall times are
reported as well.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

#: probe time of the unloaded shared 2-core x86-64 host the baseline was recorded on (seconds)
REFERENCE_S = 0.65e-3


def _kernel():
    """Interpreter arithmetic, small complex-array numpy calls, float formatting."""
    s = 0.0
    for i in range(3000):
        s += (i % 7) * 0.5
    z = np.arange(6.0) * (0.1 + 0.05j)
    for _ in range(60):
        z = np.exp(z * 0.5) - 1.0
        s += float(np.real(z).sum())
    text = ",".join(format(s * k, ".17g") for k in range(300))
    return len(text)


def probe():
    """Best of three runs of a fixed kernel, in seconds.

    The kernel mixes what the package spends its time on: Python-level
    loops, small complex numpy expressions (as in ``ExpSum.value``) and
    17-digit float formatting (as in ``csv_text``).
    """
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        _kernel()
        best = min(best, perf_counter() - t0)
    return best


#: How closely a fresh process (interpreter start, imports, one op) follows the probe.  In
#: slow spells the probe slowed about 1.7x and such a process only about 1.5x, so full scaling
#: read it about 12 % faster in slow spells than in fast ones.  Fitted on 600 setup spawns
#: over 10 minutes on the host of ``REFERENCE_S``: with this exponent both spells agree.
PROCESS_EXPONENT = 0.75


def scale(before, after, exponent=1.0):
    """Factor that turns a wall time measured between two probes into reference seconds.

    ``exponent`` is 1 for in-process work and ``PROCESS_EXPONENT`` for a whole fresh process.
    """
    return (REFERENCE_S / (0.5 * (before + after))) ** exponent
