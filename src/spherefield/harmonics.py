"""Special functions for analysis on the unit d-sphere.

Conventions used throughout the package:

* ``S^d`` is the unit sphere embedded in ``R^{d+1}``; points are unit
  vectors (Euclidean norm 1 within ``UNIT_NORM_TOL``).
* The Gegenbauer order tied to dimension ``d`` is ``lam = (d - 1) / 2``.
* ``d = 1`` is degenerate for Gegenbauer polynomials (``lam = 0``); we use
  the Chebyshev limit ``C_l^0(t) := cos(l * arccos t)`` together with
  eigenspace dimensions ``h(0) = 1``, ``h(l) = 2`` for ``l >= 1``, which is
  the Fourier structure of the circle and keeps the addition identity
  intact.
* Real spherical harmonics are orthonormal with respect to the (unnormalized)
  surface measure: ``int Y_{l,m} Y_{l,m'} dsigma = delta_{mm'}``.  Under this
  normalization the addition identity reads

      sum_m Y_{l,m}(x) Y_{l,m}(y) = addition_constant(d, l) * C_l^lam(x . y)

  with ``addition_constant(d, l) = h(l) / (omega_d * C_l^lam(1))``.

Within a degree ``l`` the real harmonics are ordered (1-based index ``m``):

* ``d = 1``: ``m = 1 -> cos(l phi)/sqrt(pi)``, ``m = 2 -> sin(l phi)/sqrt(pi)``
  (degree 0 has the single constant ``1/sqrt(2 pi)``).
* ``d = 2``: ``m = 1`` is the zonal harmonic (azimuthal order 0); for
  azimuthal order ``k >= 1``, ``m = 2k`` is the cosine harmonic and
  ``m = 2k + 1`` the sine harmonic.
"""

from __future__ import annotations

import math

import numpy as np

from ._memory import require_fit

UNIT_NORM_TOL = 1e-12

# |t| may exceed 1 by at most this much (dot products of unit vectors carry
# rounding dust); larger excursions are rejected.
_T_CLAMP = 1e-12


def gegenbauer_order(d: int) -> float:
    """Gegenbauer order ``lam = (d - 1) / 2`` for the sphere ``S^d``."""
    if d < 1:
        raise ValueError(f"sphere dimension must be >= 1, got {d}")
    return (d - 1) / 2.0


def h_dim(d: int, l: int) -> int:
    """Dimension of the degree-``l`` spherical-harmonic eigenspace on S^d.

    Computed as ``(2l + d - 1) (l + d - 2)! / (l! (d - 1)!)`` in exact
    integer arithmetic (Python integers do not overflow).  For ``d = 1`` the
    circle convention ``h(0) = 1``, ``h(l) = 2`` applies.
    """
    if d < 1:
        raise ValueError(f"sphere dimension must be >= 1, got {d}")
    if l < 0:
        raise ValueError(f"degree must be >= 0, got {l}")
    if l == 0:
        return 1
    if d == 1:
        return 2
    # (l + d - 2)! / (l! (d - 2)!) = binom(l + d - 2, l), exact.
    return (2 * l + d - 1) * math.comb(l + d - 2, l) // (d - 1)


def surface_measure(d: int) -> float:
    """Total surface measure ``omega_d = 2 pi^{(d+1)/2} / Gamma((d+1)/2)``.

    The direct expression overflows from d = 343 on, although omega_d itself
    only shrinks (omega_343 is about 5e-224); there it is taken in log-Gamma
    form, which gives 0 once omega_d is below the float64 range (from
    d = 455 on).
    """
    if d < 1:
        raise ValueError(f"sphere dimension must be >= 1, got {d}")
    s = (d + 1) / 2.0
    try:
        return 2.0 * math.pi ** s / math.gamma(s)
    except OverflowError:
        pass
    try:
        return 2.0 * math.exp(s * math.log(math.pi) - math.lgamma(s))
    except OverflowError:   # log Gamma(s) itself is beyond float64
        return 0.0


def _check_t(t):
    t = np.asarray(t, dtype=float)
    if np.any(np.abs(t) > 1.0 + _T_CLAMP):
        raise ValueError("argument t must lie in [-1, 1] (within 1e-12)")
    return np.clip(t, -1.0, 1.0)


def gegenbauer_all(lam: float, l_max: int, t) -> np.ndarray:
    """Evaluate ``C_l^lam(t)`` for all degrees ``l = 0 .. l_max`` at once.

    Uses the ascending three-term recurrence

        l C_l = 2 (l + lam - 1) t C_{l-1} - (l + 2 lam - 2) C_{l-2},

    which is forward-stable on [-1, 1].  For ``lam = 0`` returns the
    Chebyshev limit ``cos(l * arccos t)``.

    Returns an array of shape ``(l_max + 1,) + shape(t)``.
    """
    if lam < 0:
        raise ValueError(f"Gegenbauer order must be >= 0, got {lam}")
    if l_max < 0:
        raise ValueError(f"degree must be >= 0, got {l_max}")
    t = _check_t(t)
    out = np.empty((l_max + 1,) + t.shape, dtype=float)
    if lam == 0.0:
        theta = np.arccos(t)
        for l in range(l_max + 1):
            out[l] = np.cos(l * theta)
        return out
    out[0] = 1.0
    if l_max >= 1:
        out[1] = 2.0 * lam * t
    for l in range(2, l_max + 1):
        out[l] = (2.0 * (l + lam - 1.0) * t * out[l - 1]
                  - (l + 2.0 * lam - 2.0) * out[l - 2]) / l
    return out


def _binomial_top(lam: float) -> int:
    """``2 lam`` as an integer: the order of every caller is ``(d - 1) / 2``."""
    if lam < 0 or 2 * lam != int(2 * lam):
        raise ValueError(f"Gegenbauer order must be a half-integer >= 0, got {lam}")
    return int(2 * lam)


def gegenbauer_at_one(lam: float, l: int) -> float:
    """Normalization value ``C_l^lam(1) = binom(l + 2 lam - 1, l)``.

    Exact in integer arithmetic and rounded once; ``inf`` where the integer
    is beyond float64.  The Chebyshev limit ``lam = 0`` gives 1 for every
    degree.  ``lam`` must be a half-integer ``(d - 1) / 2``.
    """
    n = _binomial_top(lam)
    if l < 0:
        raise ValueError(f"degree must be >= 0, got {l}")
    if n == 0:
        return 1.0
    try:
        return float(math.comb(l + n - 1, l))
    except OverflowError:
        return math.inf


def gegenbauer_at_one_all(lam: float, l_max: int) -> np.ndarray:
    """:func:`gegenbauer_at_one` for ``l = 0 .. l_max``.

    Walks ``C_l = C_{l-1} (l + 2 lam - 1) / l`` on Python integers.  For
    ``2 lam >= 1`` the values do not decrease in l, so every degree from the
    first one beyond float64 on is ``inf``.
    """
    n = _binomial_top(lam)
    if n == 0:
        return np.ones(l_max + 1)
    out = np.full(l_max + 1, math.inf)
    c = 1
    for l in range(l_max + 1):
        if l:
            c = c * (l + n - 1) // l
        try:
            out[l] = float(c)
        except OverflowError:
            break
    return out


def addition_constant(d: int, l: int) -> float:
    """Proportionality constant ``h(l) / (omega_d C_l^lam(1))`` in the
    addition identity for orthonormal real harmonics."""
    lam = gegenbauer_order(d)
    return h_dim(d, l) / (surface_measure(d) * gegenbauer_at_one(lam, l))


def check_points(d: int, points) -> np.ndarray:
    """Validate an ``(n, d+1)`` array of unit vectors on S^d."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != d + 1:
        raise ValueError(
            f"points on S^{d} must have {d + 1} coordinates, got {pts.shape[1]}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("point coordinates must be finite numbers")
    norms = np.linalg.norm(pts, axis=1)
    if np.any(np.abs(norms - 1.0) > UNIT_NORM_TOL):
        worst = float(np.max(np.abs(norms - 1.0)))
        raise ValueError(
            f"points must be unit vectors within {UNIT_NORM_TOL:g} "
            f"(worst deviation {worst:.3e})")
    return pts


def require_synthesis_dim(d: int) -> None:
    """The one check that real harmonics, and so sampling, exist on S^d."""
    if d not in (1, 2):
        raise ValueError(
            f"real harmonic evaluation and field synthesis are restricted to "
            f"d in {{1, 2}}; got d = {d}.  Coefficient and equivalence "
            f"calculus remain available for general d.")


def harmonic_count(d: int, l_max: int) -> int:
    """Total number of harmonics of degree <= l_max."""
    return sum(h_dim(d, l) for l in range(l_max + 1))


def degree_slices(d: int, l_max: int) -> list[slice]:
    """Column slices of :func:`harmonic_basis` per degree ``l = 0 .. l_max``."""
    slices = []
    off = 0
    for l in range(l_max + 1):
        h = h_dim(d, l)
        slices.append(slice(off, off + h))
        off += h
    return slices


def harmonic_basis(d: int, l_max: int, points) -> np.ndarray:
    """Evaluate all orthonormal real harmonics of degree <= l_max.

    Parameters
    ----------
    d : sphere dimension, 1 or 2.
    l_max : maximum degree.
    points : array (n, d+1) of unit vectors.

    Returns
    -------
    array (n, harmonic_count(d, l_max)), columns ordered degree-major with
    the within-degree ordering documented in the module docstring.  The
    degree-l columns are the blocks of :func:`iter_degree_blocks`.
    """
    require_synthesis_dim(d)
    pts = check_points(d, points)
    out = np.empty((pts.shape[0], harmonic_count(d, l_max)), dtype=float)
    off = 0
    for block in iter_degree_blocks(d, l_max, pts):
        h = block.shape[1]
        out[:, off:off + h] = block
        off += h
    return out


def iter_degree_blocks(d: int, l_max: int, points):
    """Iterate over the degrees ``l = 0 .. l_max`` of the harmonic basis.

    Yields, for each degree in turn, a read-only C-contiguous
    ``(n, h(l))`` array of the degree-l harmonics at the points: the
    degree-l columns of :func:`harmonic_basis`, bit for bit.  Every item is
    a view of one buffer that the next step overwrites; copy an item to
    keep it.  On S^2 the recurrence keeps ``(8 l_max + 6) * n * 8`` bytes of
    state, so the ``(n, harmonic_count)`` basis never exists.  Arguments are
    checked when this is called, not when iteration starts.

    The items are C-contiguous because BLAS rounds ``block @ a`` for a
    transposed (F-ordered) block differently when ``a`` has few columns.
    """
    require_synthesis_dim(d)
    pts = check_points(d, points)
    if d == 1:
        return _circle_blocks(l_max, pts)
    require_fit((8 * l_max + 6) * pts.shape[0] * 8,
                f"the degree-{l_max} harmonic recurrence at {pts.shape[0]} points")
    return _sphere_blocks(l_max, pts)


def _readonly(a: np.ndarray) -> np.ndarray:
    view = a.view()
    view.flags.writeable = False
    return view


def _circle_blocks(l_max: int, pts: np.ndarray):
    phi = np.arctan2(pts[:, 1], pts[:, 0])
    inv_sqrt_pi = 1.0 / math.sqrt(math.pi)
    n = pts.shape[0]
    out_buf = np.empty(2 * n)
    out = out_buf.reshape(n, 2)
    for l in range(l_max + 1):
        if l == 0:
            out_buf[:n] = 1.0 / math.sqrt(2.0 * math.pi)
            yield _readonly(out_buf[:n].reshape(n, 1))
        else:
            out[:, 0] = np.cos(l * phi) * inv_sqrt_pi
            out[:, 1] = np.sin(l * phi) * inv_sqrt_pi
            yield _readonly(out)


def _sphere_blocks(l_max: int, pts: np.ndarray):
    # Fully normalized associated Legendre values P_{l,m}, with the
    # normalization carried inside the recurrence so no factorials overflow.
    # All orders advance together, one vector step per degree l:
    #   m = l      sectoral step  P_{l,l}   = -sqrt((2l+1)/(2l)) s P_{l-1,l-1}
    #   m = l - 1  first step     P_{l,l-1} = sqrt(2l+1) u P_{l-1,l-1}
    #   m < l - 1  ascent in l    P_{l,m}   = a u P_{l-1,m} - b P_{l-2,m}
    # Each entry sees the same scalar operations, in the same order, as the
    # per-(l, m) form of this recurrence, so the values are bit-identical to
    # it (tests keep that form as the reference).
    n = pts.shape[0]
    u = pts[:, 2]
    s = np.hypot(pts[:, 0], pts[:, 1])
    phi = np.arctan2(pts[:, 1], pts[:, 0])
    sqrt2 = math.sqrt(2.0)

    cos_m = np.empty((l_max + 1, n))
    sin_m = np.empty((l_max + 1, n))
    for m in range(1, l_max + 1):
        cos_m[m] = np.cos(m * phi)
        sin_m[m] = np.sin(m * phi)

    # Row m of p_prev holds P_{l-1,m}; p holds P_{l-2,m} on entry to degree
    # l and P_{l,m} on exit.  A degree's 2l + 1 harmonics are assembled as
    # rows of a contiguous block and stored in out_buf with one transposed
    # copy, which is much faster than scattering them column by column.
    p_prev, p = np.empty((2, l_max + 1, n))
    block = np.empty((2 * l_max + 1, n))
    out_buf = np.empty(n * (2 * l_max + 1))
    for l in range(l_max + 1):
        if l == 0:
            p[0] = 1.0 / math.sqrt(4.0 * math.pi)
        else:
            if l >= 2:
                m = np.arange(l - 1)
                a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
                b = np.sqrt((2.0 * l + 1.0) * ((l - 1.0) ** 2 - m * m)
                            / ((2.0 * l - 3.0) * (l * l - m * m)))
                a_term = block[:l - 1]           # scratch until the block fill
                np.multiply(a[:, None], u, out=a_term)
                np.multiply(a_term, p_prev[:l - 1], out=a_term)
                np.multiply(b[:, None], p[:l - 1], out=p[:l - 1])
                np.subtract(a_term, p[:l - 1], out=p[:l - 1])
            np.multiply(math.sqrt(2.0 * (l - 1) + 3.0), u, out=p[l - 1])
            np.multiply(p[l - 1], p_prev[l - 1], out=p[l - 1])
            np.multiply(-math.sqrt((2.0 * l + 1.0) / (2.0 * l)), s, out=p[l])
            np.multiply(p[l], p_prev[l - 1], out=p[l])

        # within-degree order: zonal, then (cos, sin) for m = 1 .. l
        block[0] = p[0]
        for trig, first in ((cos_m, 1), (sin_m, 2)):
            rows = block[first:2 * l + 1:2]
            np.multiply(sqrt2, p[1:l + 1], out=rows)
            np.multiply(rows, trig[1:l + 1], out=rows)
        out = out_buf[:n * (2 * l + 1)].reshape(n, 2 * l + 1)
        out.T[...] = block[:2 * l + 1]
        yield _readonly(out)
        p_prev, p = p, p_prev
