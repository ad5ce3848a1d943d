"""Brute-force references for small instances, written independently of the
library: no shared helper, no dispatch, just the definition of each value."""

import itertools
import math
from fractions import Fraction

import numpy as np


def lp_norm(y, p):
    """sum_i |y_i|^p to the 1/p; max_i |y_i| for p = inf."""
    a = [abs(v) for v in y]
    if math.isinf(p):
        return max(a)
    return sum(v**p for v in a) ** (1.0 / p)


def conjugate(p):
    """Hölder conjugate p' of p >= 1."""
    return 1.0 if math.isinf(p) else (math.inf if p == 1.0 else p / (p - 1.0))


def sign_vectors(d):
    """All 2^d vectors of {-1, 1}^d."""
    return [np.array(s) for s in itertools.product((-1.0, 1.0), repeat=d)]


def norm_to_l1(A, p):
    """||A: l_p -> l_1|| of a real matrix, p >= 1: max ||A^T s||_p' over every
    sign vector s, since ||y||_1 = max_s s^T y."""
    return max(lp_norm(A.T @ s, conjugate(p)) for s in sign_vectors(A.shape[0]))


def norm_from_linf(A, q):
    """||A: l_inf -> l_q|| of a real matrix, q >= 1: max ||A s||_q over every
    vertex s of the cube, where the convex x -> ||Ax||_q peaks."""
    return max(lp_norm(A @ s, q) for s in sign_vectors(A.shape[1]))


def _rref(rows):
    """Reduced row echelon form of a list of Fraction rows, in place; returns
    the pivot columns."""
    pivots, r = [], 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [v / rows[r][col] for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    return pivots


def _exact_span(x, B):
    """x and a column basis of span B, as Fractions equal to the floats: the
    columns of B that row reduction picks as pivots."""
    cols = _rref([[Fraction(float(v)) for v in row] for row in B])
    return ([Fraction(float(v)) for v in x],
            [[Fraction(float(B[i, j])) for j in cols] for i in range(B.shape[0])])


def dist_l1_exact(x, B):
    """min_c ||x - B c||_1 over real c, in rational arithmetic.  The
    objective is linear on each cell of the arrangement {x_i = (Bc)_i}, and
    with r independent columns every cell is pointed, so the minimum is at a
    vertex: a point where r rows with an invertible r x r block vanish."""
    x, A = _exact_span(x, B)
    r = len(A[0]) if A else 0
    best = sum(abs(v) for v in x)
    for rows in itertools.combinations(range(len(x)), r):
        aug = [A[i][:] + [x[i]] for i in rows]
        if _rref(aug) != list(range(r)):
            continue
        c = [row[r] for row in aug]
        best = min(best, sum(abs(x[i] - sum(a * cj for a, cj in zip(A[i], c)))
                             for i in range(len(x))))
    return best


def dist_linf_exact(x, B):
    """min_c ||x - B c||_inf over real c, in rational arithmetic: by duality
    the maximum of |y^T x| / ||y||_1 over y orthogonal to span B.  That
    polytope's vertices are the y whose support S has a one-dimensional
    space of such vectors, so |S| <= r + 1; every subset of at most r + 1
    rows with that property is taken."""
    x, A = _exact_span(x, B)
    r = len(A[0]) if A else 0
    best = Fraction(0)
    for size in range(1, r + 2):
        for rows in itertools.combinations(range(len(x)), size):
            eqs = [[A[i][j] for i in rows] for j in range(r)]
            pivots = _rref(eqs)
            free = [k for k in range(size) if k not in pivots]
            if len(free) != 1:
                continue
            y = [Fraction(0)] * size
            y[free[0]] = Fraction(1)
            for row, k in zip(eqs, pivots):
                y[k] = -row[free[0]]
            best = max(best, abs(sum(a * x[i] for a, i in zip(y, rows)))
                       / sum(abs(a) for a in y))
    return best


def residual_norm_from_l1_exact(M, A, B, q):
    """||M - A B: l_1 -> l_q|| of real matrices, q in {1, inf}, in rational
    arithmetic on the floats' exact values: the product is not rounded.  An
    extreme point of the l_1 ball is +-e_j, so the norm is the largest
    column's l_q norm: its l_1 norm at q = 1, its largest modulus at q = inf."""
    R = [[Fraction(float(M[i, j])) - sum(Fraction(float(A[i, l])) * Fraction(float(B[l, j]))
                                         for l in range(A.shape[1]))
          for j in range(M.shape[1])] for i in range(M.shape[0])]
    if q == 1.0:
        return max(sum(abs(row[j]) for row in R) for j in range(M.shape[1]))
    return max(abs(v) for row in R for v in row)


def _lp(y, p):
    """l_p (quasi-)norm of a vector, taken of y over its largest modulus and
    multiplied back, so that no power overflows."""
    a = np.abs(y)
    top = a.max()
    if top == 0.0 or math.isinf(p):
        return top
    return top * ((a / top) ** p).sum() ** (1.0 / p)


def norm_lower(A, p, q, starts=6, seed=0):
    """A lower reference for ||A: l_p -> l_q||, real or complex, any
    0 < p, q <= inf: the best ratio ||A x||_q / ||x||_p that seeded
    multi-start Nelder-Mead finds.  Its starts are the best unit vector, the
    top right singular vector and random Gaussian vectors.  A is divided by
    a power of two first and the value multiplied back, so entries near the
    float maximum neither overflow nor change the value."""
    from scipy.optimize import minimize

    top = float(np.abs(A).max())
    if top == 0.0:
        return 0.0
    s = math.ldexp(1.0, math.frexp(top)[1])
    A = A / s
    m, n = A.shape
    cplx = np.iscomplexobj(A)

    def vec(z):
        return z[:n] + 1j * z[n:] if cplx else z

    def ratio(z):
        x = vec(z)
        nx = _lp(x, p)
        return float(_lp(A @ x, q) / nx) if nx > 0 else 0.0

    def flat(x):
        return np.concatenate([x.real, x.imag]) if cplx else x.real

    rng = np.random.default_rng(seed)
    eye = np.eye(n)
    best_unit = max(range(n), key=lambda j: ratio(flat(eye[j] + 0j)))
    x0s = [eye[best_unit] + 0j, np.linalg.svd(A)[2][0].conj()]
    x0s += [rng.standard_normal(n) + (1j * rng.standard_normal(n) if cplx else 0j)
            for _ in range(starts - 2)]
    best = 0.0
    for x0 in x0s:
        z0 = flat(x0)
        res = minimize(lambda z: -ratio(z), z0, method="Nelder-Mead",
                       options={"maxfev": 150 * z0.size, "xatol": 1e-12, "fatol": 1e-15})
        best = max(best, ratio(z0), -float(res.fun))
    return best * s


def vertex_min_one_solve_each(x, B, q, norm, limit):
    """The best residual norm over the vertices of {x_i = (Bc)_i}, one
    ``np.linalg.solve`` per choice of m = B.shape[1] rows, for the first
    ``limit`` choices in lexicographic order.  A singular subsystem is
    skipped, and the solved rows of a residual count as 0.  ``norm`` is
    passed in, so that a comparison with the library's stacked kernel tests
    its solves and residuals, bit for bit.  Returns (value, residual), or
    (inf, None) when every subsystem is singular."""
    best, best_r = math.inf, None
    for rows in itertools.islice(itertools.combinations(range(B.shape[0]), B.shape[1]), limit):
        rows = list(rows)
        try:
            c = np.linalg.solve(B[rows], x[rows])
        except np.linalg.LinAlgError:
            continue
        r = x - B @ c
        r[rows] = 0.0
        value = norm(r, q)
        if value < best:
            best, best_r = value, r
    return best, best_r
