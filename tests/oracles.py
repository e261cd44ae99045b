"""Independent closed forms that the tests compare the package against."""

import numpy as np

from lincontrol.sta import DegenerateBasis


def exponential_cofactors(k):
    """Exponential-family boundary coefficients ``(a, b, c_scaled, d)`` at T = 1.

    Closed-form cofactor expressions of the 4x4 boundary matrix with the
    common ``e^k`` factor divided out of numerator and denominator, so every
    intermediate stays bounded for large ``k``.  The package computes the
    same coefficients by a linear solve.
    """
    e = np.e
    terms = (
        -((1 - k) ** 2) * np.exp(-1.0 - 2.0 * k),
        -((1 - k) ** 2) * e,
        (1 + k) ** 2 / e,
        (1 + k) ** 2 * np.exp(1.0 - 2.0 * k),
        -8.0 * k * np.exp(-k),
    )
    det_scaled = sum(terms)
    scale = max(abs(t) for t in terms)
    if abs(det_scaled) < 1e-12 * scale:
        raise DegenerateBasis(f"boundary matrix is singular at k={k}")
    a_num = -2.0 * np.exp(-1.0 - k) + (1 + k) * np.exp(-2.0 * k) + (1 - k)
    b_num = -2.0 * np.exp(1.0 - k) + (1 - k) * np.exp(-2.0 * k) + (1 + k)
    c_num = ((1 + 1 / k) / e + (1 - 1 / k) * e) - 2.0 * np.exp(-k)
    d_num = ((1 - 1 / k) / e + (1 + 1 / k) * e) * np.exp(-k) - 2.0
    a = k * a_num / det_scaled
    b = k * b_num / det_scaled
    c_scaled = k * c_num / det_scaled
    d = k * d_num / det_scaled
    return a, b, c_scaled, d
