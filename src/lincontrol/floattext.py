"""The exact ``'%.17g'`` text of float64 cells, computed in numpy.

:func:`cells` returns, for each cell, the bytes that ``'%.17g' % value``
prints, laid out in a fixed-width row with NUL holes, so that deleting
every NUL leaves the text.  It is the fast path of
:func:`lincontrol.model.csv_text`; Python's ``%`` stays the fallback and the
test reference.

**Digits.**  A finite normal ``|x|`` with ``E = floor(log10 |x|)`` has the
17 significant digits ``D = round(s)``, ``s = |x| 10^(16-E)``.  For each
``E`` the constant ``10^(16-E)`` is held as a double-double ``(ch + cl)
2^b``, rounded from Python integers, so within ``2^-106`` of exact; ``|x|``
is first scaled, exactly, by a power of two that brings it into ``[0.9, 32)``.  The
product with ``ch`` is exact by Dekker's split at ``2^27 + 1``; the product
with ``cl`` and the sum of the low parts add one rounding each, of about
``2^-106`` relative.  So ``s`` is known to better than ``2^-102``
relative, under ``1e-13`` absolute for ``s < 10^17``, and rounding it to
nearest gives ``D`` whenever its fraction is not within ``1e-13`` of one
half.

**Rounding and fallback.**  ``%`` rounds the exact binary value half-even.
``%`` itself formats every cell that is zero, subnormal or not finite,
whose fraction lies within :data:`TIE_BAND` of one half (every tie
included), or whose estimate of ``E`` (``np.log10``, off by one only
within about an ulp of a power of ten) left ``floor(s)`` outside ``[10^16,
10^17)``.  Every other cell rounds to nearest, and ``D = 10^17`` becomes
``10^16`` at ``E + 1``.  So each cell's bytes equal ``'%.17g' % value`` by
construction.

**Layout.**  ``%g`` prints fixed notation when ``-4 <= E < 17`` and
``d.ddde±XX`` otherwise, without trailing fractional zeros, a bare ``.``
or a ``+`` sign.  A row is :data:`WIDTH` bytes: the sign, the ``0.000``
prefix of ``-4 <= E < 0``, the 17 digits each followed by a slot that holds
the point after digit ``E`` (``0`` in exponential notation), and the
exponent.  Every dropped character is a NUL hole.  The digits come four at
a time from a ``(10000, 8)`` table of digit-and-slot pairs read as one
``uint64`` per entry, which needs no assumption on byte order; a second
half of the table holds each group with its trailing zeros as holes, used
for the groups after the last non-zero one.

The tables are built by vectorised numpy calls when the module is imported,
which :func:`lincontrol.model.csv_text` does on its first call, and the
powers of ten one exponent at a time as cells need them.  ``np.longdouble`` is not
used: its width differs by platform.
"""

from __future__ import annotations

import numpy as np

#: bytes per cell row; the last three are always NUL, free for a separator
WIDTH = 48

#: cells whose scaled value has a fraction within this of one half are left to ``%``
TIE_BAND = 1e-7

_SPLIT = 134217729.0  # 2^27 + 1
_MIN_NORMAL = 2.2250738585072014e-308
#: the decimal exponents of the normal doubles, -308..308, with a margin
_E_MIN, _E_MAX = -310, 310
#: the row column of the first digit; digit j is at _DIGIT + 2 j, its slot after it
_DIGIT = 6


def _digit_words():
    """``(20000,)`` uint64: the bytes ``d0 _ d1 _ d2 _ d3 _`` (``_`` a NUL slot)
    of each of 0..9999, then the same with the trailing zero digits as NULs."""
    # (10000, 4): the ASCII digits of each of 0..9999, most significant first
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, 10000).T + np.uint8(ord("0"))
    trailing = np.logical_and.accumulate(digits[:, ::-1] == ord("0"), axis=1)[:, ::-1]
    pairs = np.zeros((2, 10000, 8), dtype=np.uint8)
    pairs[0, :, ::2] = digits
    pairs[1, :, ::2] = np.where(trailing, 0, digits)
    pairs.setflags(write=False)  # and so the view returned
    return pairs.reshape(20000, 8).view(np.uint64).ravel()


def _layouts():
    """``(first, last, whole, point)`` per decimal exponent ``E = _E_MIN .. _E_MAX``.

    ``first`` and ``last`` are the first and last word of a row, sign and
    first digit left NUL: the ``0.000`` prefix of ``-4 <= E < 0`` and the
    ``e±XX`` of exponential notation.  ``whole`` is the column of the last
    integer digit of fixed notation (digit 0 otherwise), and ``point`` the
    column of the slot that takes the point (one that stays NUL when there
    is none).
    """
    E = np.arange(_E_MIN, _E_MAX + 1)
    fixed = (E >= -4) & (E < 17)
    scientific = ~fixed
    ends = np.zeros((E.size, 2, 8), dtype=np.uint8)
    prefix = fixed & (E < 0)
    ends[:, 0, 1] = prefix * np.uint8(ord("0"))
    ends[:, 0, 2] = prefix * np.uint8(ord("."))
    ends[:, 0, 3:6] = (np.arange(3) < np.where(prefix, -1 - E, 0)[:, None]) * np.uint8(ord("0"))
    magnitude = np.abs(E)
    ends[:, 1, 0] = ord("e")
    ends[:, 1, 1] = np.where(E < 0, ord("-"), ord("+"))
    ends[:, 1, 2] = np.where(magnitude >= 100, magnitude // 100 + ord("0"), 0)
    ends[:, 1, 3] = magnitude // 10 % 10 + ord("0")
    ends[:, 1, 4] = magnitude % 10 + ord("0")
    ends[:, 1] *= scientific[:, None]
    first, last = ends.view(np.uint64).reshape(E.size, 2).T
    whole = np.where(fixed & (E > 0), _DIGIT + 2 * E, _DIGIT)
    point = np.where(scientific, _DIGIT + 1, np.where((E >= 0) & (E < 16), _DIGIT + 1 + 2 * E, WIDTH - 2))
    tables = first.copy(), last.copy(), whole, point
    for a in tables:
        a.setflags(write=False)
    return tables


#: the tables of :func:`_digit_words` and :func:`_layouts`, shared read-only
_DIGIT_WORDS = _digit_words()
_FIRST, _LAST, _WHOLE, _POINT = _layouts()


class _Powers:
    """``10^(16-E)`` for each decimal exponent ``E``, filled as cells need it.

    ``down = 2^-c`` brings ``10^E`` near 1; ``hi`` (also kept as Dekker
    halves ``hi_hi + hi_lo``) is the integer in ``[2^52, 2^53]`` nearest
    ``10^(16-E) / 2^b``, ``lo`` the remainder rounded to a double, and ``up
    = 2^(b + c)``, so that ``|x| 10^(16-E) = (|x| down)(hi + lo) up``.
    """

    def __init__(self):
        size = _E_MAX - _E_MIN + 1
        self.known = np.zeros(size, dtype=bool)
        self.down, self.hi, self.hi_hi, self.hi_lo, self.lo, self.up = (np.ones(size) for _ in range(6))

    def fill(self, slots):
        """Compute the constants of the exponent slots in the mask ``slots`` not yet known."""
        for slot in np.flatnonzero(slots & ~self.known).tolist():
            E = slot + _E_MIN
            num, den = (10 ** (16 - E), 1) if E <= 16 else (1, 10 ** (E - 16))
            # b with num / den / 2^b in [2^52, 2^53)
            b = num.bit_length() - den.bit_length() - 52
            num, den = (num, den << b) if b >= 0 else (num << -b, den)
            if num >= den << 53:
                den, b = den << 1, b + 1
            q = (2 * num + den) // (2 * den)
            hi = float(q)
            t = hi * _SPLIT
            hi_hi = t - (t - hi)
            # 2^c near 10^E, inside the exponent range of a double
            c = max(-1022, min(1023, (E * 3402) // 1024))
            self.down[slot], self.up[slot] = 2.0**-c, 2.0 ** (b + c)
            self.hi[slot], self.hi_hi[slot], self.hi_lo[slot] = hi, hi_hi, hi - hi_hi
            self.lo[slot] = (num - q * den) / den
            self.known[slot] = True


#: the powers of ten of the exponents met so far, filled in place by every call
_POWERS = _Powers()


def _digits(a, E):
    """``(D, E, slow)``: the 17 digits ``D`` of each normal ``a > 0`` and its
    decimal exponent, from the estimate ``E`` of ``floor(log10 a)``, and the
    mask of the cells left to ``%``: in the tie band, or whose estimate left
    ``floor(s)`` outside ``[10^16, 10^17)``."""
    slot = E - _E_MIN
    present = np.zeros(_POWERS.known.size, dtype=bool)
    present[slot] = True
    _POWERS.fill(present)
    # s = a 10^(16-E) = (a down)(hi + lo) up, with (a down) hi exact as p + low by Dekker's product
    a = a * _POWERS.down[slot]
    hh, hl = _POWERS.hi_hi[slot], _POWERS.hi_lo[slot]
    p = a * _POWERS.hi[slot]
    t = a * _SPLIT
    ah = t - (t - a)
    al = a - ah
    low = al * hl - (((p - ah * hh) - al * hh) - ah * hl)
    low += a * _POWERS.lo[slot]
    up = _POWERS.up[slot]
    p *= up
    low *= up
    below = np.floor(low)
    fraction = low - below
    D = p.astype(np.int64) + below.astype(np.int64)
    slow = (np.abs(fraction - 0.5) < TIE_BAND) | (D < 10**16) | (D >= 10**17)
    D += fraction > 0.5
    carry = D == 10**17
    D[carry] = 10**16
    return D, E + carry, slow


def fast_cells(values):
    """``(rows, slow)``: the ``'%.17g'`` row of each of ``values`` (read flat)
    and the mask of the cells left to ``%``, whose rows hold nothing meaningful.

    ``rows`` is ``(size, WIDTH)`` uint8 with NUL holes.
    """
    x = np.ascontiguousarray(values, dtype=np.float64).ravel()
    n = x.size
    a = np.abs(x)
    special = ~(a >= _MIN_NORMAL) | (a == np.inf)
    a[special] = 1.0
    D, E, slow = _digits(a, np.floor(np.log10(a)).astype(np.int64))
    slow |= special

    layout = E - _E_MIN
    rows = np.zeros((n, WIDTH), dtype=np.uint8)
    words = rows.view(np.uint64)
    words[:, 0] = _FIRST[layout]
    words[:, -1] = _LAST[layout]
    rows[:, 0] = np.signbit(x) * np.uint8(ord("-"))
    # D = lead 10^16 + g1 10^12 + g2 10^8 + g3 10^4 + g4
    head = D // 10**8
    tail = D - head * 10**8
    lead = head // 10**8
    head -= lead * 10**8
    rows[:, _DIGIT] = lead + ord("0")
    g1 = head // 10**4
    g3 = tail // 10**4
    g2 = head - g1 * 10**4
    g4 = tail - g3 * 10**4
    # a group is read from the stripped half of the table when every group after it is 0
    words[:, 1] = _DIGIT_WORDS[g1 + 10000 * ((g2 == 0) & (tail == 0))]
    words[:, 2] = _DIGIT_WORDS[g2 + 10000 * (tail == 0)]
    words[:, 3] = _DIGIT_WORDS[g3 + 10000 * (g4 == 0)]
    words[:, 4] = _DIGIT_WORDS[g4 + 10000]

    flat = rows.ravel()
    base = np.arange(0, n * WIDTH, WIDTH)
    # in fixed notation the digits up to E are integer digits: restore the zeros stripped among them
    short = np.flatnonzero(flat[base + _WHOLE[layout]] == 0)
    if short.size:
        digits = rows[short, _DIGIT : _DIGIT + 34 : 2]
        digits[(digits == 0) & (np.arange(17) <= E[short, None])] = ord("0")
        rows[short, _DIGIT : _DIGIT + 34 : 2] = digits
    # the point, when a digit follows it
    at = base + _POINT[layout]
    flat[at] = (flat[at + 1] != 0) * np.uint8(ord("."))
    return rows, slow


def cells(values):
    """The ``'%.17g'`` bytes of each of ``values`` (read flat): ``(size, WIDTH)``
    uint8 rows whose non-NUL bytes, in order, are the text; the last three
    bytes of every row are NUL."""
    rows, slow = fast_cells(values)
    index = np.flatnonzero(slow)
    if index.size:
        text = b"".join(("%.17g" % v).encode().ljust(WIDTH, b"\0") for v in np.ravel(values)[index].tolist())
        rows[index] = np.frombuffer(text, dtype=np.uint8).reshape(-1, WIDTH)
    return rows
