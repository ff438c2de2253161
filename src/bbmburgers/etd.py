"""The exponential time-differencing Runge-Kutta step (ETD-RK4, Cox and
Matthews, J. Comput. Phys. 176, 2002) that solver's flows march.

A step advances uhat_t = lin uhat + N(uhat, t) with the linear part exact
through exp(h lin) and four evaluations of the stage N.  One tableau row is
the coefficients of one step size h; a two-row tableau advances two states, one
per row, with every transform of a stage shared between them (numpy transforms
the rows of a two-row array in one call, each with the bits of a one-row call).
"""

import math
from collections import namedtuple

import numpy as np

_PHI_SMALL = 1e-2  # below this |z|, closed forms cancel; switch to Taylor
_PHI_TERMS = 13
# row j - 1, column n: 1 / (n + j)!, the Taylor coefficients of phi_1..3
_PHI_SERIES = 1.0 / np.array([[math.factorial(n + j) for n in range(_PHI_TERMS)]
                              for j in (1, 2, 3)])


def _phi(z, ez, scratch):
    """phi_1, phi_2, phi_3 at z, phi_j(z) = sum_{n>=0} z^n / (n+j)!, from
    ez = exp(z), as views into scratch, four arrays shaped like z.  The closed
    forms run on all of z, one ez - 1 and one z**2 serving all three; where |z|
    is small they cancel (z = 0 divides by zero), and one Horner loop writes
    the series of all three there instead."""
    em1, p1, z2, p2 = scratch
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(np.subtract(ez, 1.0, out=em1), z, out=p1)
        em1 -= z
        np.divide(em1, np.square(z, out=z2), out=p2)
        em1 -= np.multiply(0.5, z2, out=z2)
        p3 = np.divide(em1, np.power(z, 3, out=z2), out=em1)
    small = np.abs(z) < _PHI_SMALL
    zs = z[small]
    acc = np.empty((3, zs.size), dtype=z.dtype)
    acc[...] = _PHI_SERIES[:, -1:]
    for n in range(_PHI_TERMS - 2, -1, -1):
        acc = acc * zs + _PHI_SERIES[:, n : n + 1]
    for p, series in zip((p1, p2, p3), acc):
        p[small] = series
    return p1, p2, p3


# ETD-RK4 tableaux, one row per step h: E2 = exp(z/2), E = exp(z),
# Q = (h/2) phi_1(z/2) and the weights of phi_1..3(z), z = h lin.  f2 is twice
# the Cox-Matthews weight: it multiplies Na + Nb.  dt is row 0's step.  work
# holds a march's arrays, each shaped like the tableau: its state, the stages
# Nu, a, Na, b of a step and a scratch (see step).
EtdCoeffs = namedtuple("EtdCoeffs", "dt E E2 Q f1 f2 f3 work")


def tableaux(lin, dt: float, coarse: bool) -> EtdCoeffs:
    """The tableau at dt, and if coarse the tableau at 2 dt as row 1, with the
    march's arrays, whose stages hold z and the phi scratch meanwhile.  The
    rows of w are exp(z/2), exp(z) and, if coarse, exp(2z),
    z = dt lin, so E2 = w[:-1] and E = w[1:]: the coarse E2 is the fine E.
    Scaling by 2 is exact, so each row has the bits of a tableau built apart
    at its own step, by the same expressions; the coarse Q, (2 dt / 2)
    phi_1(2z / 2), is dt times the fine row's phi_1(z)."""
    steps = (dt, 2.0 * dt) if coarse else (dt,)
    r = len(steps)
    w = np.empty((r + 1, lin.size), dtype=np.complex128)
    Q, f1, f2, f3, *work = (np.empty_like(w[1:]) for _ in range(10))
    z, scratch = work[1], work[2:]
    half = 0.5 * (dt * lin)
    Q[0] = dt * 0.5 * _phi(half, np.exp(half, out=w[0]), [s[0] for s in scratch])[0]
    z[0] = dt * lin
    if coarse:
        z[1] = z[0] * 2.0
    p1, p2, p3 = _phi(z, np.exp(z, out=w[1:]), scratch)
    if coarse:
        Q[1] = dt * p1[0]
    for i, h in enumerate(steps):
        f1[i] = h * (p1[i] - 3.0 * p2[i] + 4.0 * p3[i])
        f2[i] = 2.0 * (h * (p2[i] - 2.0 * p3[i]))
        f3[i] = h * (-p2[i] + 4.0 * p3[i])
    return EtdCoeffs(dt, w[1:], w[:-1], Q, f1, f2, f3, work)


def step(uhat, t, t_half, t_end, co: EtdCoeffs, nl, Nu=None):
    """One ETD-RK4 step of uhat in place, one row per tableau row, at stage
    times t, t_half, t_end, each a tuple with one time per row; the first stage
    nl(uhat, t) is evaluated unless given as Nu (one row broadcasts over two).
    The stages live in co.work, each product in the formula's operand order
    (complex products do not commute bit for bit).  Returns uhat."""
    _, nu, a, Na, b, tmp = co.work
    values = tmp.view(np.float64)[:, : 2 * tmp.shape[-1] - 2]  # the grid values
    if Nu is None:
        Nu = nl(uhat, t, nu, values)
    np.multiply(co.E2, uhat, out=a)
    a += np.multiply(co.Q, Nu, out=b)
    nl(a, t_half, Na, values)
    np.multiply(co.E2, uhat, out=b)
    b += np.multiply(co.Q, Na, out=tmp)
    Nb = nl(b, t_half, b, values)
    Na += Nb
    c = np.subtract(np.multiply(2.0, Nb, out=Nb), Nu, out=Nb)
    c = np.add(np.multiply(co.E2, a, out=a), np.multiply(co.Q, c, out=c), out=a)
    out = np.multiply(co.E, uhat, out=uhat)
    out += np.multiply(co.f1, Nu, out=b)
    out += np.multiply(co.f2, Na, out=Na)
    Nc = nl(c, t_end, c, values)
    out += np.multiply(co.f3, Nc, out=Nc)
    return out
