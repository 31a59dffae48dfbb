"""Scalar search primitives shared across the package.

Every optimization in this package is either a 1-D unimodal maximization
on a known bracket or a monotone root find, so the loops are kept
explicit: tolerance semantics (bracket width, residual) stay auditable
and there are no hidden stopping heuristics.
"""

import math

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0
# Both bisections stop after this many halvings even if the bracket is
# still wider than their tolerance.
MAX_BISECTIONS = 200


def golden_max(f, lo, hi, tol=1e-10, f_lo=None, f_hi=None):
    """Maximize a unimodal function on [lo, hi] by golden-section search.

    Returns (x, f(x)). Both endpoints are evaluated and participate in
    the final argmax, so an optimum pinned at the bracket edge (a tilt
    parameter at exactly 0, say) is returned exactly, not approximately.
    ``f_lo`` and ``f_hi``, when given, are taken as f(lo) and f(hi)
    instead of evaluating f there.
    """
    if hi < lo:
        raise ValueError(f"empty bracket [{lo}, {hi}]")
    if f_lo is None:
        f_lo = f(lo)
    if f_hi is None:
        f_hi = f(hi)
    if hi - lo <= tol:
        return (lo, f_lo) if f_lo >= f_hi else (hi, f_hi)
    a, b = lo, hi
    h = b - a
    c = a + _INVPHI2 * h
    d = a + _INVPHI * h
    fc, fd = f(c), f(d)
    while h > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            h = b - a
            c = a + _INVPHI2 * h
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + _INVPHI * h
            fd = f(d)
    candidates = [(lo, f_lo), (hi, f_hi), (c, fc), (d, fd)]
    return max(candidates, key=lambda p: p[1])


def scan_then_golden_max(f, lo, hi, scan_points=17, tol=1e-10):
    """Coarse grid scan followed by golden refinement of the best bracket.

    The scan guards against accidental multimodality: golden section is
    only trusted inside the grid cell pair surrounding the best sample.
    """
    if hi <= lo:
        return lo, f(lo)
    xs = [lo + (hi - lo) * i / (scan_points - 1) for i in range(scan_points)]
    vals = [f(x) for x in xs]
    k = max(range(scan_points), key=lambda i: vals[i])
    i, j = max(k - 1, 0), min(k + 1, scan_points - 1)
    return golden_max(f, xs[i], xs[j], tol=tol, f_lo=vals[i], f_hi=vals[j])


def golden_min(f, lo, hi, tol=1e-10):
    x, v = golden_max(lambda t: -f(t), lo, hi, tol=tol)
    return x, -v


def bisect_root(f, lo, hi, tol=1e-15):
    """Root of a continuous function with a sign change on [lo, hi].

    Runs until the bracket is narrower than ``tol`` or the midpoint
    evaluates to exactly zero; returns (root, residual).
    """
    f_lo = f(lo)
    f_hi = f(hi)
    if f_lo == 0.0:
        return lo, 0.0
    if f_hi == 0.0:
        return hi, 0.0
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise ValueError(f"no sign change on [{lo}, {hi}]: f(lo)={f_lo}, f(hi)={f_hi}")
    a, b = lo, hi
    fa = f_lo
    mid, f_mid = a, fa
    for _ in range(MAX_BISECTIONS):
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            break
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid, 0.0
        if (f_mid > 0.0) == (fa > 0.0):
            a, fa = mid, f_mid
        else:
            b = mid
        if b - a <= tol:
            break
    mid = 0.5 * (a + b)
    return mid, f(mid)


def bisect_boundary(predicate, lo, hi, tol=1e-9):
    """Smallest x in [lo, hi] where a monotone predicate flips to True.

    Requires predicate(lo) False and predicate(hi) True.
    """
    if predicate(lo):
        return lo
    if not predicate(hi):
        return hi
    a, b = lo, hi
    for _ in range(MAX_BISECTIONS):
        mid = 0.5 * (a + b)
        if predicate(mid):
            b = mid
        else:
            a = mid
        if b - a <= tol:
            break
    return b
