"""Omega-constacyclic codes over GF(4) and their equivalence criteria.

A length-n code is omega-constacyclic when (w*a_{n-1}, a_0, ..., a_{n-2})
lies in the code whenever (a_0, ..., a_{n-1}) does, with w a primitive cube
root of unity.  Such a code is an ideal in GF(4)[x]/(x^n - w) and is pinned
down by the set of exponents i with g(delta^i) = 0, where delta is a fixed
3n-th root of unity with delta^n = w.  Those exponents all sit in the
residue class 1 mod 3 inside Z/3nZ and form a union of 4-cyclotomic cosets.
"""

from dataclasses import dataclass, field

from .cosets import (
    DefiningSet,
    SetFamily,
    apply_map,
    enumerate_affine_witnesses,
    multiplier,
    set_family,
)
from .cyclic import (
    CyclicCertificate,
    CyclicCode,
    RootContext,
    build_cyclic,
    canonical_root,
    generator_code,
)
from .fields import GF4_OMEGA, gf4, poly_divmod
from .linear import (
    GF4_CONJ,
    LinearCode,
    MonomialTransform,
    apply_monomial,
    weight_distributions_equal,
)


@dataclass(frozen=True)
class ConstacyclicCode:
    """A constacyclic code over GF(4) with shift constant w or w^2."""

    n: int
    shift_constant: int
    defining_set: DefiningSet
    generator_poly: tuple[int, ...]
    base: LinearCode = field(compare=False)
    root: RootContext = field(compare=False, repr=False)

    @property
    def k(self) -> int:
        return self.n - len(self.defining_set.elements)

    @property
    def lane(self) -> int:
        """Residue class mod 3 of the defining-set exponents (1 or 2)."""
        return 1 if self.shift_constant == GF4_OMEGA else 2

    def __repr__(self) -> str:
        eta = "w" if self.shift_constant == GF4_OMEGA else "w^2"
        return (f"ConstacyclicCode(n={self.n}, k={self.k}, eta={eta}, "
                f"A={list(self.defining_set.elements)})")


def lane_cosets(n: int) -> list[tuple[int, ...]]:
    """The 4-cyclotomic cosets mod 3n lying in the residue class 1 mod 3."""
    return list(set_family("constacyclic", n, 4).cosets)


def all_lane_defining_sets(n: int):
    """Yield every omega-constacyclic defining set at length n, sorted."""
    return set_family("constacyclic", n, 4).unions()


def build_constacyclic(n: int, A) -> ConstacyclicCode:
    """Construct the omega-constacyclic code with defining set A.

    A lives in Z/3nZ, inside the residue class 1 mod 3, and must be a
    union of 4-cyclotomic cosets.  The generator polynomial is the product
    of (x - delta^i) over i in A, with delta the canonical 3n-th root of
    unity satisfying delta^n = w.
    """
    fam = set_family("constacyclic", n, 4)
    A = fam.defining_set(A)
    ctx = canonical_root(fam.modulus, fam.q)
    gen, base = generator_code(ctx, n, A.elements, GF4_OMEGA)
    return ConstacyclicCode(n=n, shift_constant=GF4_OMEGA, defining_set=A,
                            generator_poly=gen, base=base, root=ctx)


def build_code(fam: SetFamily, A):
    """The cyclic or constacyclic code of family ``fam`` on defining set A."""
    if fam.family == "cyclic":
        return build_cyclic(fam.n, fam.q, A)
    return build_constacyclic(fam.n, A)


# ---------------------------------------------------------------------------
# conjugation


def conjugate_code(C: ConstacyclicCode) -> ConstacyclicCode:
    """Entrywise squaring: swaps the shift constant w <-> w^2.

    Roots get squared along with the coefficients, so the defining set of
    the image is 2A mod 3n, living in the opposite residue class mod 3.
    """
    n = C.n
    m = C.defining_set.n
    new_els = tuple(sorted(2 * a % m for a in C.defining_set.elements))
    new_set = DefiningSet(m, 4, new_els)
    new_gen = tuple(GF4_CONJ[list(C.generator_poly)].tolist())
    new_eta = int(GF4_CONJ[C.shift_constant])
    _, rem = poly_divmod(gf4(), [new_eta] + [0] * (n - 1) + [1], new_gen)
    assert rem == [0], "conjugated generator does not divide its length polynomial"
    return ConstacyclicCode(n=n, shift_constant=new_eta, defining_set=new_set,
                            generator_poly=new_gen, base=C.base.conjugate(),
                            root=C.root)


# ---------------------------------------------------------------------------
# the substitution x -> x^e


def power_substitution_transform(n: int, e: int) -> MonomialTransform:
    """Coordinate action of f(x) -> f(x^e) mod (x^n - w).

    x^(e*i) reduces to w^s * x^r with e*i = s*n + r, so position i moves to
    position e*i mod n and picks up the cube-root factor w^(s mod 3).
    """
    perm = tuple(e * i % n for i in range(n))
    diag = [1] * n
    for i in range(n):
        s, r = divmod(e * i, n)
        diag[r] = gf4().pow(GF4_OMEGA, s % 3)
    return MonomialTransform(perm=perm, diagonal=tuple(diag))


def power_substitution(C: ConstacyclicCode, e: int) -> ConstacyclicCode:
    """The monomially equivalent code f(x) -> f(x^e) mod (x^n - w).

    Requires e = 1 mod 3 and gcd(3n, e) = 1.  The image defining set is
    the multiplier image of A by e^-1 mod 3n; for n <= 9 the derived
    coordinate map is re-validated against the codes themselves.
    """
    if C.shift_constant != GF4_OMEGA:
        raise ValueError("apply conjugate_code first: substitution is set up "
                         "for shift constant w")
    fam = set_family("constacyclic", C.n, 4)
    m = fam.modulus
    if e % m not in fam.multipliers:
        raise ValueError(f"substitution exponent must be a unit mod {m} "
                         f"that keeps the lane, got {e}")
    inv_e = pow(e, -1, m)
    image_els = apply_map(multiplier(m, inv_e), C.defining_set)
    image = build_constacyclic(C.n, image_els)
    if C.n <= 9:
        T = power_substitution_transform(C.n, e)
        assert apply_monomial(C.base, T) == image.base, (
            "derived substitution map disagrees with the codes")
    return image


# ---------------------------------------------------------------------------
# same-parameters certificates (not equivalences)


def _wd_note(C1: ConstacyclicCode, C2: ConstacyclicCode) -> str:
    same = weight_distributions_equal(C1.base, C2.base)
    if same is None:
        return "parameters asserted by the shift divisibility rule"
    assert same, "same-parameters certificate with unequal weights"
    return "weight distributions compared equal"


def shift_same_parameters(C1: ConstacyclicCode, C2: ConstacyclicCode,
                          j: int) -> CyclicCertificate | None:
    """Certificate that C1 and C2 share [n,k,d] via the shift by 3j.

    Valid when adding 3j mod 3n carries the defining set of C1 onto that
    of C2 and n divides 3j*|A1|.  This certifies equal parameters only;
    the codes need not be equivalent.
    """
    n = C1.n
    if not 1 <= j <= n:
        raise ValueError(f"shift index must satisfy 1 <= j <= {n}, got {j}")
    if C2.n != n or C2.shift_constant != C1.shift_constant:
        return None
    fam = set_family("constacyclic", n, 4)
    m = fam.modulus
    b = fam.stride * j % m
    A1 = C1.defining_set.elements
    if not fam.admits_shift(len(A1), b):
        return None
    image = tuple(sorted((a + b) % m for a in A1))
    if image != C2.defining_set.elements:
        return None
    return CyclicCertificate(
        kind="same_parameters", params=("shift", b), source=A1,
        target=C2.defining_set.elements, verified=True, transform=None,
        note=_wd_note(C1, C2))


def affine_same_parameters(C1: ConstacyclicCode,
                           C2: ConstacyclicCode) -> list[CyclicCertificate]:
    """All affine maps x -> ex + 3j certifying equal parameters.

    Side conditions: e = 1 mod 3, gcd(3n, e) = 1, and n | 3j*|A1|.
    """
    if C2.n != C1.n or C2.shift_constant != C1.shift_constant:
        return []
    witnesses = enumerate_affine_witnesses(C1.defining_set, C2.defining_set,
                                           mode="constacyclic")
    if not witnesses:
        return []
    note = _wd_note(C1, C2)
    out = []
    for w in witnesses:
        e, b = w.params
        out.append(CyclicCertificate(
            kind="same_parameters", params=("affine", e, b),
            source=C1.defining_set.elements,
            target=C2.defining_set.elements,
            verified=True, transform=None, note=note))
    return out


def affine_partner_sets(C: ConstacyclicCode) -> dict[tuple[int, ...],
                                                     list[tuple[int, int]]]:
    """All coset-closed defining sets reachable from C by a qualifying affine map.

    Keys are the image element tuples (the code's own set appears under the
    identity); values list the (e, b) pairs realizing each image.
    """
    fam = set_family("constacyclic", C.n, 4)
    m = fam.modulus
    A = C.defining_set.elements
    out: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for e, b in fam.affine_maps(len(A)):
        image = tuple(sorted((e * a + b) % m for a in A))
        if fam.table.is_union(image):
            out.setdefault(image, []).append((e, b))
    return out


# ---------------------------------------------------------------------------
# the length-3n cyclic container


def embed_as_cyclic(C: ConstacyclicCode) -> CyclicCode:
    """The cyclic code of length 3n with the same defining set.

    x^n - eta divides x^3n - 1, so A also cuts out a cyclic code; its
    parity rows at exponent a factor into the three blocks
    [H1 | w^a H1 | w^2a H1] over the constacyclic parity rows H1.
    """
    return build_cyclic(C.defining_set.n, 4, C.defining_set)
