"""`packed_mul` against a reference written here: a double loop over the
coefficient vectors, each vector product reduced by long division by Phi_m
(`polydivmod_monic`), not by the `reduce_cyclotomic` fold `packed_mul` uses."""

import random

import pytest

from iwlab._intpoly import cyclotomic_poly, euler_phi, packed_mul, polydivmod_monic


def _vector_product(u, v, m):
    prod = [0] * (len(u) + len(v) - 1)
    for i, x in enumerate(u):
        for j, y in enumerate(v):
            prod[i + j] += x * y
    _, rem = polydivmod_monic(prod, list(cyclotomic_poly(m)))
    return rem + [0] * (euler_phi(m) - len(rem))


def _reference(a, b, m, pmod):
    phi = euler_phi(m)
    out = [[0] * phi for _ in range(len(a) + len(b) - 1)]
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            for t, c in enumerate(_vector_product(u, v, m)):
                out[i + j][t] += c
    return [tuple(c % pmod for c in vec) for vec in out]


@pytest.mark.parametrize("m", [1, 2, 3, 4, 9, 12, 25])
@pytest.mark.parametrize("negative", [False, True], ids=["residues", "signed"])
def test_packed_mul_matches_reference(m, negative):
    rng = random.Random(f"packed:{m}:{negative}")
    phi = euler_phi(m)
    for pmod in (2**7, 3**5, 5**4):
        for _ in range(6):
            lo = -pmod if negative else 0

            def poly(length):
                # some zero vectors, so sparse slots are covered too
                return [
                    tuple(rng.randrange(lo, pmod) for _ in range(phi)) if rng.random() < 0.8 else (0,) * phi
                    for _ in range(length)
                ]

            a, b = poly(rng.randint(1, 12)), poly(rng.randint(1, 12))
            full = _reference(a, b, m, pmod)
            n = len(full)
            for count in (max(n - 3, 0), n, n + 2):
                want = (full + [(0,) * phi] * 2)[:count]
                assert packed_mul(a, b, m, count, pmod) == want, (m, pmod, len(a), len(b), count)
