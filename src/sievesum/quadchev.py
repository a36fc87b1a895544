"""Gauss-Legendre and Chebyshev building blocks used by the solvers.

Everything here works on plain numpy arrays.  Nodes and weights, and the
DCT-I matrix of the Lobatto-to-Chebyshev transform, are cached per size so
repeated panel integrations reuse the same arrays.
"""

import numpy as np

_GL_CACHE = {}
_DCT_CACHE = {}


def gauss_legendre(n):
    """Nodes and weights on [-1, 1], cached by n."""
    pair = _GL_CACHE.get(n)
    if pair is None:
        x, w = np.polynomial.legendre.leggauss(n)
        pair = (x, w)
        _GL_CACHE[n] = pair
    return pair


def cheb_lobatto(a, b, n):
    """n Chebyshev-Lobatto points on [a, b], ascending, endpoints included."""
    if n < 2:
        raise ValueError("need at least 2 points")
    k = np.arange(n)
    x = np.cos(np.pi * k / (n - 1))[::-1]
    return 0.5 * (a + b) + 0.5 * (b - a) * x


def lobatto_bary_weights(n):
    """Barycentric weights for n Chebyshev-Lobatto points (ascending order)."""
    w = np.ones(n)
    w[1::2] = -1.0
    w[0] *= 0.5
    w[-1] *= 0.5
    # ascending order flips the sign pattern; an overall constant is irrelevant
    return w


def bary_matrix(nodes, weights, q, out=None):
    """Row matrix B with B @ values = interpolant of (nodes, values) at q.

    q is 1-D; rows hitting a node exactly become one-hot rows.  B is built
    column-major and returned as its transposed (len(q), len(nodes)) view,
    in the first len(nodes) * len(q) entries of the flat float array out
    when one is given: a caller that builds many B reuses its memory.
    """
    q = np.asarray(q, dtype=float)
    shape = (len(nodes), len(q))
    Bt = np.subtract(nodes[:, None], q[None, :],
                     out=None if out is None else out[: shape[0] * shape[1]].reshape(shape))
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(weights[:, None], Bt, out=Bt)
        total = Bt.sum(axis=0)
        Bt *= 1.0 / total
    hit = np.isinf(total)  # w/0 at the node that q hits
    if hit.any():
        Bt[:, hit] = nodes[:, None] == q[None, hit]
    return Bt.T


def lobatto_to_cheb_coeffs(values):
    """Chebyshev coefficients of the interpolant through Lobatto values.

    values are taken at cheb_lobatto(a, b, n) in ascending order; the
    coefficients refer to the variable mapped to [-1, 1].  Uses the DCT-I
    relation c_j = (2/N) * sum'' v(x_i) T_j(x_i) with halved end terms.
    """
    v = np.asarray(values, dtype=float)
    n = v.shape[0]
    N = n - 1
    # ascending nodes correspond to angles pi..0; flip to standard order
    vd = v[::-1]
    cosmat = _DCT_CACHE.get(n)
    if cosmat is None:  # the DCT-I matrix, cached by n
        j = np.arange(n)
        cosmat = _DCT_CACHE[n] = np.cos(np.pi * np.outer(j, j) / N)
    scale = np.ones(n)
    scale[0] = 0.5
    scale[-1] = 0.5
    c = (2.0 / N) * (cosmat @ (vd * scale))
    c[0] *= 0.5
    c[-1] *= 0.5
    return c


def cheb_eval(coeffs, a, b, u):
    """Evaluate a Chebyshev series with coefficients on [a, b] at u."""
    s = np.asarray(u, dtype=float)
    x = (2.0 * s - (a + b)) / (b - a)
    return np.polynomial.chebyshev.chebval(x, coeffs)
