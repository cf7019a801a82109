"""Omega-constacyclic codes over GF(4): the family's lane and the code dispatch.

A length-n code is omega-constacyclic when (w*a_{n-1}, a_0, ..., a_{n-2})
lies in the code whenever (a_0, ..., a_{n-1}) does, with w a primitive cube
root of unity.  Such a code is an ideal in GF(4)[x]/(x^n - w) and is pinned
down by the set of exponents i with g(delta^i) = 0, where delta is a fixed
3n-th root of unity with delta^n = w.  Those exponents all sit in the
residue class 1 mod 3 inside Z/3nZ and form a union of 4-cyclotomic cosets.

The codes themselves are ``cyclic.CyclicCode`` objects of the constacyclic
``SetFamily``, built by ``build_constacyclic``; ``build_code`` dispatches
between the two families.
"""

from .cosets import SetFamily, set_family
from .cyclic import build_constacyclic, build_cyclic


def lane_cosets(n: int) -> list[tuple[int, ...]]:
    """The 4-cyclotomic cosets mod 3n lying in the residue class 1 mod 3."""
    return list(set_family("constacyclic", n, 4).cosets)


def build_code(fam: SetFamily, A):
    """The cyclic or constacyclic code of family ``fam`` on defining set A."""
    if fam.family == "cyclic":
        return build_cyclic(fam.n, fam.q, A)
    return build_constacyclic(fam.n, A)
