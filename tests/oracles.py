"""Brute-force references for small instances, written independently of the
library: no shared helper, no dispatch, just the definition of each value."""

import itertools
import math

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
