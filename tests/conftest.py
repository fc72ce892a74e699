import random

import pytest

from weavesafe.gf2m import CANONICAL_POLYS, Field
from weavesafe.linalg import Matrix
from weavesafe.pm_mbr import params_new
from weavesafe.weaksec import make_codec


def gf_mul_bruteforce(a: int, b: int, m: int) -> int:
    """Independent multiply oracle: carry-less product, then long division
    by the canonical reduction polynomial."""
    prod = 0
    for i in range(m):
        if (b >> i) & 1:
            prod ^= a << i
    poly = CANONICAL_POLYS[m]
    for bit in range(2 * m - 2, m - 1, -1):
        if (prod >> bit) & 1:
            prod ^= poly << (bit - m)
    return prod


def gf_inv_bruteforce(a: int, m: int) -> int:
    """Independent inverse oracle: exhaustive search for the unit partner."""
    for b in range(1, 1 << m):
        if gf_mul_bruteforce(a, b, m) == 1:
            return b
    raise AssertionError(f"no inverse for {a} in GF(2^{m})")


def minimal_degree(n: int, d: int) -> int:
    for m in range(3, 17):
        if (1 << m) >= n + 2 * d:
            return m
    raise AssertionError(f"n + 2d = {n + 2 * d} does not fit any supported field")


def grid_params(k: int, d: int, n: int | None = None):
    """Smallest valid parameter set for a (k, d) pair."""
    n = d + 1 if n is None else n
    return params_new(n, k, d, minimal_degree(n, d))


def random_matrix(field, rows, cols, rng: random.Random) -> Matrix:
    return Matrix(field, [[rng.randrange(field.order) for _ in range(cols)] for _ in range(rows)])


def random_nonsingular(field, n, rng: random.Random) -> Matrix:
    from weavesafe.linalg import rank

    while True:
        cand = random_matrix(field, n, n, rng)
        if rank(cand) == n:
            return cand


@pytest.fixture(scope="session")
def codec534():
    """The running example: n=5, k=3, d=4 over GF(16)."""
    return make_codec(params_new(5, 3, 4, 4))


@pytest.fixture(scope="session")
def codec322():
    """Tiny parameters where exhaustive enumeration over all codewords is feasible."""
    return make_codec(params_new(3, 2, 2, 3))


@pytest.fixture(scope="session")
def gf16():
    return Field(4)


@pytest.fixture(scope="session")
def gf8():
    return Field(3)
