"""Cyclic and omega-constacyclic codes from defining sets, plus the
equivalence certificates between cyclic codes.

A code of either family is pinned down by its defining set A, a union of
cosets in the lane of its ``SetFamily``: the exponents of the roots of its
generator polynomial at a fixed root of unity alpha whose order is the
family's modulus.  A length-n cyclic code over GF(q), gcd(n, q) = 1, reads
A in Z/nZ and its generator divides x^n - 1.  An omega-constacyclic code
over GF(4) reads A in the lane 1 + 3Z of Z/3nZ, where alpha^n = omega, and
its generator divides x^n - omega.  ``CyclicCode`` holds a code of either
family; ``build_cyclic`` and ``build_constacyclic`` build them, and
``multiplier_transform`` is the coordinate map of a multiplier in both.

All codes at one modulus share a single cached alpha, chosen
deterministically; when q = 4 and 3 divides the modulus the root is
anchored so that alpha^(m/3) equals the GF(4) generator omega, which the
constacyclic codes and the triple-step machinery below depend on.

Besides multiplier/affine certificates this module carries three monomial
transform families acting on specially shaped defining sets: a signed
half-twist, an unsigned odd-step permutation and a triple-step permutation
for GF(4).  ``SET_TRANSFORMS`` states each family once: its coordinate
map, where that map is tried, and its set rule with the (n, q) where the
rule is a theorem.  Each constructed certificate is machine-verified
before it is returned.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from codeq.cosets import (
    DefiningSet,
    SetFamily,
    all_defining_sets,
    apply_map,
    coset_table,
    enumerate_affine_witnesses,
    generalized_multipliers,
    multiplier,
    progression_set,
    set_family,
    units,
)
from codeq.fields import (
    GF4_OMEGA,
    GF4_OMEGA2,
    GaloisField,
    anchored_root,
    build_field,
    embed_subfield,
    poly_mul,
    prime_power_split,
    primitive_nth_root,
    splitting_field,
)
from codeq.linear import (
    LinearCode,
    MonomialTransform,
    apply_monomial,
    brute_force_equivalence,
    weight_distributions_equal,
)


# ---------------------------------------------------------------------------
# shared root contexts

@dataclass(frozen=True)
class RootContext:
    """The splitting field of x^n - 1 over GF(q) with a fixed n-th root."""

    n: int
    q: int
    base: GaloisField
    ext: GaloisField
    alpha: int
    fwd: tuple[int, ...]          # base field encoding -> extension encoding

    def alpha_pow(self, e: int) -> int:
        return self.ext.pow(self.alpha, e % self.n)

    def pull_back(self, value: int) -> int:
        """Extension element back to the base field; error if outside it."""
        try:
            return self.fwd.index(value)
        except ValueError:
            raise ValueError("element does not lie in the base field") from None


@lru_cache(maxsize=None)
def canonical_root(n: int, q: int) -> RootContext:
    """Deterministic shared n-th root of unity for all codes at (n, q).

    For q = 4 with 3 | n the root is anchored so alpha^(n/3) is the GF(4)
    generator; otherwise it is the smallest-exponent primitive n-th root.
    """
    if math.gcd(n, q) != 1:
        raise ValueError(f"need gcd(n, q) = 1, got n={n}, q={q}")
    p, e = prime_power_split(q)
    base = build_field(p, e)
    ext = splitting_field(q, n)
    if ext.key == base.key:
        fwd = tuple(range(q))
    else:
        fwd, _ = embed_subfield(base, ext)
    if q == 4 and n % 3 == 0:
        root = anchored_root(ext, n, n // 3, fwd[GF4_OMEGA])
    else:
        root = primitive_nth_root(ext, n)
    return RootContext(n, q, base, ext, root.value, fwd)


# ---------------------------------------------------------------------------
# cyclic and omega-constacyclic codes

@dataclass(frozen=True)
class CyclicCode:
    """A cyclic or omega-constacyclic code, held by its defining set.

    ``family`` is the ``SetFamily`` that ``defining_set`` lives in, ``base``
    the code itself and ``root`` the shared root context at the family's
    modulus.  Codes are equal when family, n, q and defining set agree, so
    a length-3n cyclic code never equals an omega-constacyclic code of
    length n on the same elements.
    """

    family: SetFamily
    defining_set: DefiningSet
    generator_poly: tuple[int, ...]
    base: LinearCode
    root: RootContext

    @property
    def n(self) -> int:
        return self.family.n

    @property
    def q(self) -> int:
        return self.family.q

    @property
    def k(self) -> int:
        return self.base.k

    def _key(self) -> tuple:
        return (self.family.family, self.n, self.q,
                self.defining_set.elements)

    def __repr__(self) -> str:
        leaders = self.family.leaders(self.defining_set.elements)
        return (f"CyclicCode({self.family.family} [{self.n},{self.k}] over "
                f"GF({self.q}), leaders {list(leaders)})")

    def __eq__(self, other) -> bool:
        return isinstance(other, CyclicCode) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def hermitian_dual(self) -> "CyclicCode":
        """The Hermitian dual over GF(4), built on the family's set rule."""
        return _build(self.family,
                      self.family.hermitian_dual(self.defining_set))


def dual_defining_set(A: DefiningSet) -> DefiningSet:
    """Defining set of the Euclidean dual: complement of the negated set."""
    neg = {(-a) % A.n for a in A.elements}
    return DefiningSet(A.n, A.q, tuple(x for x in range(A.n) if x not in neg))


@lru_cache(maxsize=None)
def _coset_poly(fam: SetFamily, leader: int) -> tuple[int, ...]:
    """The product of the (x - alpha^a) over the coset of ``leader``, a
    polynomial over GF(q) (coefficients from lowest degree).

    Each root must satisfy (alpha^a)^n = eta, with eta = 1 for cyclic codes
    and omega for constacyclic ones, so that a product of distinct cosets'
    polynomials divides x^n - eta."""
    ctx = canonical_root(fam.modulus, fam.q)
    K = ctx.ext
    eta = ctx.fwd[1 if fam.family == "cyclic" else GF4_OMEGA]
    g = [1]
    for a in fam.table.coset_of(leader):
        root = K.pow(ctx.alpha, a)
        if K.pow(root, fam.n) != eta:
            raise AssertionError(
                f"alpha^{a} is not a root of x^{fam.n} - eta")
        g = poly_mul(K, g, [K.neg(root), 1])
    return tuple(ctx.pull_back(c) for c in g)


def _build(fam: SetFamily, A) -> CyclicCode:
    """The code of family ``fam`` whose generator has roots alpha^a, a in A.

    A is a union of cosets, so the generator is the product over GF(q) of
    their polynomials (_coset_poly), which divides x^n - eta; its n - |A|
    shifts are the rows.
    """
    A = fam.defining_set(A)
    n, ctx = fam.n, canonical_root(fam.modulus, fam.q)
    F = ctx.base
    g = [1]
    for leader in fam.leaders(A.elements):
        g = poly_mul(F, g, _coset_poly(fam, leader))
    g = tuple(g)
    k = n - len(g) + 1
    rows = np.zeros((k, n), dtype=np.uint8)
    for i in range(k):
        rows[i, i:i + len(g)] = g
    base = LinearCode.from_rows(F, rows, n)
    if base.k != k:
        raise AssertionError("generator rows are not independent")
    return CyclicCode(fam, A, g, base, ctx)


def build_cyclic(n: int, q: int, A) -> CyclicCode:
    """Cyclic code whose generator polynomial has roots alpha^a for a in A."""
    return _build(set_family("cyclic", n, q), A)


def build_constacyclic(n: int, A) -> CyclicCode:
    """The omega-constacyclic code of length n over GF(4) on defining set A.

    A lives in Z/3nZ, inside the lane 1 + 3Z, and must be a union of
    4-cyclotomic cosets; the roots are read at the canonical 3n-th root of
    unity delta, with delta^n = omega.
    """
    return _build(set_family("constacyclic", n, 4), A)


# ---------------------------------------------------------------------------
# the three transform families

def half_twist_transform(n: int, field: GaloisField) -> MonomialTransform:
    """Signed permutation: i fixed for i = 0,1 (mod 4), else i + n/2;
    target coordinates 1, 2 (mod 4) get a -1.  Needs 8 | n and odd
    characteristic."""
    if n % 8:
        raise ValueError(f"length must be a multiple of 8, got {n}")
    if field.p == 2:
        raise ValueError("signs need odd characteristic")
    perm = []
    for i in range(n):
        perm.append(i if i % 4 in (0, 1) else (i + n // 2) % n)
    minus = field.neg(1)
    diag = tuple(minus if j % 4 in (1, 2) else 1 for j in range(n))
    return MonomialTransform(tuple(perm), diag)


def odd_step_transform(n: int) -> MonomialTransform:
    """Permutation fixing even indices and stepping odd ones down by 2."""
    if n % 8:
        raise ValueError(f"length must be a multiple of 8, got {n}")
    perm = tuple(i if i % 2 == 0 else (i - 2) % n for i in range(n))
    return MonomialTransform.permutation(perm)


def triple_step_transform(n: int) -> MonomialTransform:
    """Permutation moving i by +-3 according to i mod 9; fixes 1,2,6 mod 9."""
    if n % 27 or n % 2 == 0:
        raise ValueError(f"length must be an odd multiple of 27, got {n}")
    perm = []
    for i in range(n):
        r = i % 9
        if r in (0, 4, 5):
            perm.append((i + 3) % n)
        elif r in (3, 7, 8):
            perm.append((i - 3) % n)
        else:
            perm.append(i)
    return MonomialTransform.permutation(tuple(perm))


def block_half_twist_transform(n: int, field: GaloisField) -> MonomialTransform:
    """Literal block-diagonal layout: the length-8 half twist repeated on
    each aligned block of 8 coordinates."""
    if n % 8:
        raise ValueError(f"length must be a multiple of 8, got {n}")
    if field.p == 2:
        raise ValueError("signs need odd characteristic")
    base = half_twist_transform(8, field)
    perm = []
    diag = []
    for i in range(n):
        b, r = divmod(i, 8)
        perm.append(8 * b + base.perm[r])
        diag.append(base.diagonal[r])
    return MonomialTransform(tuple(perm), tuple(diag))


# ---------------------------------------------------------------------------
# the set rules: the defining set a transform carries T onto, or None when T
# does not have the rule's shape; each rule is an involution

def _half_twist_partner(T: frozenset, n: int, q: int) -> frozenset | None:
    quarter, half = n // 4, n // 2
    corners = {quarter, 3 * quarter}
    anchors = {0, half}
    for have, give in ((corners, anchors), (anchors, corners)):
        if have <= T:
            core = T - have
            if all(a % 2 for a in core):
                return frozenset((a + half) % n for a in core) | give
    return None


def _odd_step_partner(T: frozenset, n: int, q: int) -> frozenset | None:
    quarter, half = n // 4, n // 2
    for mark, other in ((quarter, 3 * quarter), (3 * quarter, quarter)):
        if mark in T and other not in T:
            core = T - {mark}
            if all(a in (0, half) or (a + half) % n in core for a in core):
                return core | {other}
    return None


def _triple_step_partner(T: frozenset, n: int, q: int) -> frozenset | None:
    if n % 27:
        return None
    k = n
    while k % 3 == 0:
        k //= 3
    table = coset_table(n, q)
    special = {0, n // 3, 2 * n // 3}
    for src, dst in ((n // 9, 2 * n // 9), (2 * n // 9, n // 9)):
        zsrc = frozenset(table.coset_of(src))
        if not zsrc <= T:
            continue
        rest = T - zsrc
        # outside the special points, rest is whole classes mod 3k
        if all(x in special or frozenset(range(x % (3 * k), n, 3 * k)) <= rest
               for x in rest):
            return rest | frozenset(table.coset_of(dst))
    return None


@dataclass(frozen=True)
class SetTransform:
    """One transform family: a coordinate map and, for most, a set rule.

    ``matrix(n, field)`` is the coordinate map; ``certify_equivalence``
    tries it by code equality where ``matrix_at(n, q)`` holds.  Where
    ``rule_at(n, q)`` holds, ``partner(T, n, q)`` is a theorem: the code
    on T maps onto the code on the partner set, so the orbit search joins
    the two sets without building either code.  A family without a rule
    has a ``rule_at`` that never holds.  ``requires`` states the rule
    condition for error messages.
    """

    kind: str
    matrix_at: Callable[[int, int], bool]
    matrix: Callable[[int, GaloisField], MonomialTransform]
    rule_at: Callable[[int, int], bool] = lambda n, q: False
    partner: Callable[[frozenset, int, int], frozenset | None] | None = None
    requires: str = ""


def _half_twist_at(n: int, q: int) -> bool:
    return n % 8 == 0 and q % 2 == 1


def _triple_step_at(n: int, q: int) -> bool:
    return q == 4 and n % 2 == 1 and n % 27 == 0


# Rows in certificate order.  The odd-step map is tried at every 8 | n,
# but its set rule is only proved for q = 1 (mod 4): at (16, 3) the map
# applied twice certifies pairs that no rule joins.
SET_TRANSFORMS: dict[str, SetTransform] = {t.kind: t for t in (
    SetTransform("half_twist", _half_twist_at, half_twist_transform,
                 _half_twist_at, _half_twist_partner,
                 "8 | n and odd characteristic"),
    SetTransform("block_half_twist",
                 lambda n, q: n > 8 and _half_twist_at(n, q),
                 block_half_twist_transform),
    SetTransform("odd_step", lambda n, q: n % 8 == 0,
                 lambda n, field: odd_step_transform(n),
                 lambda n, q: n % 8 == 0 and q % 4 == 1, _odd_step_partner,
                 "8 | n and q = 1 (mod 4)"),
    SetTransform("triple_step", _triple_step_at,
                 lambda n, field: triple_step_transform(n),
                 _triple_step_at, _triple_step_partner,
                 "q = 4 and n an odd multiple of 27"),
)}

# the certificate kinds a cyclic orbit search may join sets by: the index
# maps and every set transform with a rule
CYCLIC_KINDS = ("multiplier", "affine",
                *(k for k, t in SET_TRANSFORMS.items() if t.partner),
                "generalized_multiplier")


# ---------------------------------------------------------------------------
# certificates

@dataclass(frozen=True)
class CyclicCertificate:
    kind: str
    params: tuple
    source: tuple[int, ...]
    target: tuple[int, ...]
    verified: bool
    transform: MonomialTransform | None = None
    note: str = ""

    def to_dict(self) -> dict:
        return {"kind": self.kind, "params": list(self.params),
                "source": list(self.source), "target": list(self.target),
                "verified": self.verified, "note": self.note}


def multiplier_transform(fam: SetFamily, c: int) -> MonomialTransform:
    """Coordinate map carrying the code on A to the code on c*A.

    c is one of ``fam.multipliers``.  With e = c^-1 mod the modulus the map
    is the substitution f(x) -> f(x^e): position i moves to e*i mod n and
    its entry is scaled by eta^floor(e*i / n), where eta is 1 for cyclic
    codes and omega for omega-constacyclic ones.
    """
    if c not in fam.multipliers:
        raise ValueError(f"multiplier {c} is not a lane-keeping unit "
                         f"mod {fam.modulus}")
    n = fam.n
    e = pow(c, -1, fam.modulus)
    # eta^s by s mod 3
    eta_pow = ((1, 1, 1) if fam.family == "cyclic"
               else (1, GF4_OMEGA, GF4_OMEGA2))
    diag = [1] * n
    for i in range(n):
        s, r = divmod(e * i, n)
        diag[r] = eta_pow[s % 3]
    return MonomialTransform(tuple(e * i % n for i in range(n)), tuple(diag))


def _rule_row(kind: str, n: int, q: int) -> SetTransform:
    row = SET_TRANSFORMS[kind]
    if not row.rule_at(n, q):
        raise ValueError(f"{kind} pairs need {row.requires}, "
                         f"got n={n}, q={q}")
    return row


def _verified_pair(row: SetTransform, A1: DefiningSet, elements2,
                   note: str) -> tuple[CyclicCode, CyclicCode,
                                       CyclicCertificate]:
    """Codes on A1 and on ``elements2``, with the certificate that the
    row's coordinate map carries the first onto the second."""
    n, q = A1.n, A1.q
    A2 = DefiningSet(n, q, tuple(elements2))
    C1 = build_cyclic(n, q, A1)
    C2 = build_cyclic(n, q, A2)
    M = row.matrix(n, C1.base.field)
    if apply_monomial(C1.base, M) != C2.base:
        raise AssertionError(f"{row.kind} certificate failed verification")
    return C1, C2, CyclicCertificate(row.kind, (), A1.elements, A2.elements,
                                     True, M, note)


def half_twist_pair(n: int, q: int, A) -> tuple[CyclicCode, CyclicCode,
                                                CyclicCertificate]:
    """Codes on A + {n/4, 3n/4} and on (A + n/2) + {0, n/2}, equivalent
    under the signed half twist.  A must be a union of cosets with every
    element odd; characteristic must be odd; 8 | n."""
    A = set_family("cyclic", n, q).defining_set(A)
    row = _rule_row("half_twist", n, q)
    if any(a % 2 == 0 for a in A.elements):
        raise ValueError("all elements of the core set must be odd")
    A1 = A.union(DefiningSet(n, q, (n // 4, 3 * n // 4)))
    return _verified_pair(row, A1, row.partner(frozenset(A1.elements), n, q),
                          "signed half-twist monomial map")


def odd_step_pair(n: int, q: int, A) -> tuple[CyclicCode, CyclicCode,
                                              CyclicCertificate]:
    """Codes on A + {n/4} and A + {3n/4}, permutation equivalent under the
    odd-step map.  Needs 8 | n, q = 1 mod 4, and A symmetric under adding
    n/2 apart from possible members 0 and n/2."""
    A = set_family("cyclic", n, q).defining_set(A)
    row = _rule_row("odd_step", n, q)
    half = n // 2
    if n // 4 in A or 3 * n // 4 in A:
        raise ValueError("core set may not contain the quarter points")
    for a in A.elements:
        if a not in (0, half) and (a + half) % n not in A:
            raise ValueError(f"set is not symmetric under +n/2: {a}")
    A1 = A.union(DefiningSet(n, q, (n // 4,)))
    return _verified_pair(row, A1, row.partner(frozenset(A1.elements), n, q),
                          "odd-step coordinate permutation")


def triple_step_pair(n: int, thirds, e_list) -> tuple[CyclicCode, CyclicCode,
                                                      CyclicCertificate]:
    """GF(4) codes on Z(n/9)+B+progressions vs Z(2n/9)+B+progressions,
    equivalent under the triple-step permutation.  B picks from
    {0, n/3, 2n/3}; n must be an odd multiple of 27."""
    q = 4
    row = _rule_row("triple_step", n, q)
    allowed = {0, n // 3, 2 * n // 3}
    B = set(int(b) for b in thirds)
    if not B <= allowed:
        raise ValueError(f"corner set must lie inside {sorted(allowed)}")
    table = coset_table(n, q)
    extra = set(table.closure(B))
    for e in e_list:
        extra.update(progression_set(n, int(e)).elements)
    T1 = DefiningSet(n, q, tuple(set(table.coset_of(n // 9)) | extra))
    return _verified_pair(row, T1, set(table.coset_of(2 * n // 9)) | extra,
                          "triple-step coordinate permutation")


# ---------------------------------------------------------------------------
# certificate search between two cyclic codes

# certify_equivalence composes only under COMPOSITION_CAP candidate pairs and
# searches for an explicit map only in codes of at most UPGRADE_BUDGET words
COMPOSITION_CAP = 2500
UPGRADE_BUDGET = 1 << 18


def certify_equivalence(C1: CyclicCode, C2: CyclicCode
                        ) -> list[CyclicCertificate]:
    """Ordered list of verified equivalence certificates from C1 to C2.

    Search order: multipliers, generalized multipliers (prime-power
    length), affine/shift isometries, the three transform families,
    two-step compositions (matrix pairs and affine/matrix mixtures), then
    a budgeted brute-force monomial search when nothing cheaper worked.
    Matrix-backed kinds are verified by code equality; affine kinds by
    the divisibility side condition plus weight-distribution equality
    when that is affordable.
    """
    fam = C1.family
    if fam.family != "cyclic" or C2.family.family != "cyclic":
        raise ValueError("certificates are searched between cyclic codes")
    if fam != C2.family:
        raise ValueError("codes live at different (n, q)")
    n, q = C1.n, C1.q
    A1, A2 = C1.defining_set, C2.defining_set
    out: list[CyclicCertificate] = []
    if len(A1) != len(A2):
        return out

    def add(kind, params, verified, transform=None, note=""):
        out.append(CyclicCertificate(kind, tuple(params), A1.elements,
                                     A2.elements, verified, transform, note))

    # multipliers
    for c in units(n):
        if apply_map(multiplier(n, c), A1) == A2.elements:
            M = multiplier_transform(fam, c)
            ok = apply_monomial(C1.base, M) == C2.base
            add("multiplier", (c,), ok, M,
                "identity multiplier" if c == 1 else "")

    # generalized multipliers composed with multipliers (prime-power n);
    # the permutation search that upgrades a match reads neither the map
    # nor its parameters, so it runs at most once
    upgrade = None
    for gmul in generalized_multipliers(n):
        d, k_cut = gmul.params[:2]
        for a in units(n):
            if apply_map(gmul, apply_map(multiplier(n, a), A1)) != A2.elements:
                continue
            verified = False
            transform = None
            note = "combinatorial match; no explicit matrix"
            if q ** C1.k <= UPGRADE_BUDGET:
                if upgrade is None:
                    upgrade = brute_force_equivalence(
                        C1.base, C2.base, mode="permutation",
                        budget=UPGRADE_BUDGET)
                if upgrade.status == "equivalent":
                    verified = True
                    transform = upgrade.witness
                    note = "verified via explicit permutation search"
            add("generalized_multiplier", (d, k_cut, a), verified, transform,
                note)

    # affine isometries (shift when the scale is 1)
    wd_ok = None
    for w in enumerate_affine_witnesses(A1, A2, mode="cyclic"):
        e, b = w.params
        if wd_ok is None:
            wd_ok = weight_distributions_equal(C1.base, C2.base)
        kind = "shift" if e == 1 % n else "affine"
        if wd_ok is True:
            add(kind, (e, b), True, None,
                "isometric: divisibility condition and equal weight distributions")
        elif wd_ok is None:
            add(kind, (e, b), False, None,
                "divisibility condition holds; weight distribution not checked")
        # wd_ok False cannot happen for a genuine witness; skip silently

    # fixed transform matrices, alone and composed in pairs
    F = C1.base.field
    matrices = [(t.kind, t.matrix(n, F)) for t in SET_TRANSFORMS.values()
                if t.matrix_at(n, q)]
    fwd1 = [apply_monomial(C1.base, M) for _, M in matrices]
    for (name, M), img in zip(matrices, fwd1):
        if img == C2.base:
            add(name, (), True, M, "direct matrix certificate")
    if matrices:
        inverses = [M.inverse(F) for _, M in matrices]
        inv2 = [apply_monomial(C2.base, Mi) for Mi in inverses]
        mults = [(f"multiplier({c})", multiplier_transform(fam, c))
                 for c in units(n)]
        steps = matrices + mults
        if len(steps) ** 2 <= COMPOSITION_CAP:
            # M2(M1(C1)) = C2 exactly when M1(C1) = M2^-1(C2)
            starts = fwd1 + [apply_monomial(C1.base, M) for _, M in mults]
            ends = inv2 + [apply_monomial(C2.base, M.inverse(F))
                           for _, M in mults]
            for (n1, M1), img1 in zip(steps, starts):
                for (n2, M2), img2 in zip(steps, ends):
                    if img1 == img2:
                        add("composition", (n1, n2), True,
                            M1.compose(F, M2), "two-step matrix composition")
        # mixed chains: an affine isometry on one side of a matrix step on
        # the other.  The affine leg carries the divisibility condition by
        # construction; the matrix leg is re-verified by code equality with
        # M(C1) or M^-1(C2) for step M, and with the two swapped for M^-1.
        if n * len(units(n)) <= COMPOSITION_CAP:
            table = coset_table(n, q)
            from_c1, to_c2 = [], []
            for (name, M), Mi, img1, img2 in zip(matrices, inverses, fwd1,
                                                 inv2):
                from_c1 += [(name, img1),
                            (f"{name}^-1", apply_monomial(C1.base, Mi))]
                to_c2 += [(name, img2),
                          (f"{name}^-1", apply_monomial(C2.base, M))]

            def matrix_leg(C: CyclicCode, legs) -> str | None:
                return next((leg for leg, img in legs if img == C.base), None)

            s1 = frozenset(A1.elements)
            size = len(A1)
            seen_mid: set[frozenset] = set()
            for e, b in fam.affine_maps(size):
                img = frozenset((e * x + b) % n for x in s1)
                if img in seen_mid:
                    continue
                seen_mid.add(img)
                if img == s1 or not table.is_union(img):
                    continue
                Cmid = _intermediate(n, q, tuple(sorted(img)))
                leg = matrix_leg(Cmid, to_c2)
                if leg is not None and weight_distributions_equal(
                        C1.base, Cmid.base) is not False:
                    add("composition", (f"affine({e},{b})", leg), True,
                        None, "affine isometry then matrix step")
            # matrix step first, then affine: candidate intermediates are
            # the structural partner sets of A1 (and, at small coset
            # counts, every same-size defining set)
            pool = [t.partner(s1, n, q) for t in SET_TRANSFORMS.values()
                    if t.rule_at(n, q)]
            if len(table.cosets) <= 10:
                pool += (frozenset(els) for els in all_defining_sets(n, q)
                         if len(els) == size)
            for cand in dict.fromkeys(pool):
                if cand is None or cand == s1 or not table.is_union(cand):
                    continue
                Cmid = _intermediate(n, q, tuple(sorted(cand)))
                leg = matrix_leg(Cmid, from_c1)
                if leg is None:
                    continue
                wits = enumerate_affine_witnesses(Cmid.defining_set, A2,
                                                  mode="cyclic")
                if wits and weight_distributions_equal(
                        Cmid.base, C2.base) is not False:
                    e, b = wits[0].params
                    add("composition", (leg, f"affine({e},{b})"), True,
                        None, "matrix step then affine isometry")
    if not out and q ** C1.k <= UPGRADE_BUDGET:
        res = brute_force_equivalence(C1.base, C2.base, mode="monomial",
                                      budget=UPGRADE_BUDGET)
        if res.status == "equivalent":
            add("explicit", (), True, res.witness,
                "found by budgeted brute-force search")
    # dedupe identical (kind, params)
    seen = set()
    unique = []
    for cert in out:
        key = (cert.kind, cert.params)
        if key not in seen:
            seen.add(key)
            unique.append(cert)
    return unique


@lru_cache(maxsize=256)
def _intermediate(n: int, q: int, elements: tuple[int, ...]) -> CyclicCode:
    """build_cyclic at a sorted defining set, kept for the intermediate
    codes of the pairs certified last."""
    return build_cyclic(n, q, DefiningSet(n, q, elements))
