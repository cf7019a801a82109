"""Field construction, axioms, the polynomial layer, roots of unity, and
subfield embeddings."""

import itertools
import math
import random

import pytest

from codeq.fields import (
    GF4_OMEGA,
    GF4_OMEGA2,
    GaloisField,
    _is_irreducible,
    anchored_root,
    build_field,
    embed_subfield,
    gf4,
    multiplicative_order,
    poly_divmod,
    poly_gcd,
    poly_mul,
    poly_powmod,
    poly_trim,
    primitive_nth_root,
    splitting_field,
)


SMALL_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1),
                (2, 2), (3, 2), (2, 4), (5, 2), (7, 2), (2, 8), (3, 4)]


@pytest.mark.parametrize("p,m", SMALL_FIELDS)
def test_field_axioms_exhaustive(p, m):
    """Associativity, commutativity, distributivity, identities, inverses."""
    F = build_field(p, m)
    if F.order > 256:
        pytest.skip("exhaustive triple check limited to 256 elements")
    els = list(range(F.order))
    for a in els:
        assert F.add(a, 0) == a
        assert F.mul(a, 1) == a
        assert F.add(a, F.neg(a)) == 0
        if a != 0:
            assert F.mul(a, F.inv(a)) == 1
    for a in els:
        for b in els:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
    # triples on a subsampled grid to keep the 256-element case quick
    stride = 1 if F.order <= 32 else 5
    sub = els[::stride]
    for a in sub:
        for b in sub:
            for c in sub:
                assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
                assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


def test_gf4_structure():
    F = gf4()
    assert F.modulus == (1, 1, 1)
    w = GF4_OMEGA
    assert F.mul(w, w) == F.add(w, 1) == GF4_OMEGA2
    assert F.mul(w, GF4_OMEGA2) == 1
    assert F.add(w, w) == 0


def test_gf9_multiplicative_group():
    """Every nonzero element has order dividing 8; a generator exists."""
    F = build_field(3, 2)
    orders = [F.element_order(a) for a in range(1, 9)]
    assert max(orders) == 8
    assert all(8 % o == 0 for o in orders)
    g = F.primitive_element
    seen = set()
    x = 1
    for _ in range(8):
        x = F.mul(x, g)
        seen.add(x)
    assert seen == set(range(1, 9))


def test_modulus_choice_is_lowest_encoding():
    # scan oracle: no monic irreducible of the degree sits below the chosen one
    for p, m in [(2, 2), (3, 2), (2, 4), (5, 2)]:
        F = build_field(p, m)
        enc = sum(c * p ** i for i, c in enumerate(F.modulus[:-1]))
        for lower in range(enc):
            digs = []
            v = lower
            for _ in range(m):
                digs.append(v % p)
                v //= p
            assert not _is_irreducible(tuple(digs) + (1,), p)


def _monic(p, degree):
    """Every monic polynomial of the degree over GF(p), lowest term first."""
    for low in itertools.product(range(p), repeat=degree):
        yield low + (1,)


def _convolve(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return tuple(out)


@pytest.mark.parametrize("p,degrees", [(2, range(2, 7)), (3, range(2, 5)),
                                       (5, range(2, 5))])
def test_irreducibility_matches_factor_products(p, degrees):
    """Oracle: the reducible monics are the products of two monic factors.
    p = 2 runs the bit-packed test, odd p the polynomial layer."""
    for d in degrees:
        reducible = {_convolve(f, g, p) for i in range(1, d // 2 + 1)
                     for f in _monic(p, i) for g in _monic(p, d - i)}
        for poly in _monic(p, d):
            assert _is_irreducible(poly, p) == (poly not in reducible), poly


def _poly_add(F, a, b):
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = F.add(out[i], c)
    return poly_trim(out)


@pytest.mark.parametrize("p,m", [(2, 2), (7, 1), (2, 3), (3, 2)])
def test_polynomial_layer_on_random_inputs(p, m):
    F = build_field(p, m)
    rng = random.Random(1000 * p + m)

    def random_poly(degree):
        return [rng.randrange(F.order) for _ in range(degree)] + \
               [rng.randrange(1, F.order)]

    for _ in range(40):
        a = random_poly(rng.randrange(9))
        b = random_poly(rng.randrange(6))
        quot, rem = poly_divmod(F, a, b)
        assert _poly_add(F, poly_mul(F, quot, b), rem) == a
        assert rem == [0] or len(rem) < len(b)
        # a common factor makes the gcd non-trivial
        c = random_poly(rng.randrange(4))
        a, b = poly_mul(F, a, c), poly_mul(F, b, c)
        g = poly_gcd(F, a, b)
        assert g[-1] == 1
        for f in (a, b):
            assert poly_divmod(F, f, g)[1] == [0]
        assert poly_divmod(F, g, c)[1] == [0]
    # x^(p^m) = x modulo the modulus of GF(p^m), computed over GF(p)
    Fp, f = build_field(p, 1), list(F.modulus)
    assert poly_powmod(Fp, [0, 1], F.order, f) == poly_divmod(Fp, [0, 1], f)[1]


def test_construction_is_deterministic():
    a = GaloisField(3, 2)
    b = GaloisField(3, 2)
    assert a.modulus == b.modulus
    assert a.primitive_element == b.primitive_element
    assert [a.mul(x, y) for x in range(9) for y in range(9)] == \
           [b.mul(x, y) for x in range(9) for y in range(9)]


@pytest.mark.parametrize("q,n,m", [
    (3, 8, 2),     # 3^2 = 9 = 1 mod 8
    (4, 51, 4),    # 4^4 = 256 = 1 mod 51
    (4, 27, 9),
    (4, 3, 1),
    (2, 9, 6),
    (13, 16, 4),
])
def test_splitting_field_degree(q, n, m):
    # oracle: order of q mod n by direct modular exponentiation
    t, k = q % n, 1
    while t != 1:
        t = (t * q) % n
        k += 1
    assert k == m
    K = splitting_field(q, n)
    assert K.order == q ** m
    assert (K.order - 1) % n == 0
    # minimality: no proper subfield of K contains an n-th root of unity
    for mp in range(1, m):
        if m % mp == 0:
            assert (q ** mp - 1) % n != 0


def test_splitting_field_rejects_shared_factor():
    with pytest.raises(ValueError):
        splitting_field(3, 9)
    with pytest.raises(ValueError):
        splitting_field(4, 6)


def test_primitive_nth_root_order():
    K = splitting_field(3, 8)
    r = primitive_nth_root(K, 8)
    for k in range(16):
        assert (K.pow(r.value, k) == 1) == (k % 8 == 0)


def test_primitive_nth_root_missing():
    F = build_field(3, 2)
    with pytest.raises(ValueError):
        primitive_nth_root(F, 5)


def test_anchored_root_small_scan_oracle():
    """delta^5 = omega for the primitive 15th root in GF(16)."""
    F4 = gf4()
    K = splitting_field(4, 15)
    assert K.order == 16
    fwd, _ = embed_subfield(F4, K)
    omega = fwd[GF4_OMEGA]
    d = anchored_root(K, 15, 5, omega)
    assert K.pow(d.value, 5) == omega
    assert K.element_order(d.value) == 15
    # oracle: collect every valid candidate by brute scan and check the
    # function picked the one with the smallest primitive-element exponent
    g = K.primitive_element
    step = (K.order - 1) // 15
    valid = [t for t in range(1, 16)
             if math.gcd(t, 15) == 1 and K.pow(K.pow(g, step * t), 5) == omega]
    assert valid
    assert d.value == K.pow(g, step * valid[0])


def test_anchored_root_in_splitting_field_of_27():
    F4 = gf4()
    K = splitting_field(4, 27)
    fwd, _ = embed_subfield(F4, K)
    omega = fwd[GF4_OMEGA]
    a = anchored_root(K, 27, 9, omega)
    assert K.pow(a.value, 9) == omega
    assert K.element_order(a.value) == 27


def test_anchored_root_unsatisfiable():
    """GF(4^3) has 63 nonzero elements, so it has no 27th root of unity."""
    F4 = gf4()
    K = build_field(2, 6)
    assert (K.order - 1) % 27 != 0
    fwd, _ = embed_subfield(F4, K)
    with pytest.raises(ValueError):
        anchored_root(K, 27, 9, fwd[GF4_OMEGA])


def test_embedding_is_field_homomorphism():
    F4 = gf4()
    K = splitting_field(4, 51)
    fwd, inv = embed_subfield(F4, K)
    for a in range(4):
        for b in range(4):
            assert fwd[F4.add(a, b)] == K.add(fwd[a], fwd[b])
            assert fwd[F4.mul(a, b)] == K.mul(fwd[a], fwd[b])
    assert fwd[0] == 0 and fwd[1] == 1
    assert inv[fwd[GF4_OMEGA]] == GF4_OMEGA
    # image is the order-4 subfield
    assert K.element_order(fwd[GF4_OMEGA]) == 3


@pytest.mark.parametrize("sub,sup", [((3, 1), (3, 4)), ((3, 2), (3, 4)),
                                     ((5, 2), (5, 4))])
def test_embedding_is_homomorphism_in_odd_characteristic(sub, sup):
    F, K = build_field(*sub), build_field(*sup)
    fwd, inv = embed_subfield(F, K)
    assert fwd[0] == 0 and fwd[1] == 1
    assert len(set(fwd)) == F.order
    assert all(inv[fwd[a]] == a for a in range(F.order))
    for a in range(F.order):
        # the image is the subfield: roots of x^|F| - x
        assert K.pow(fwd[a], F.order) == fwd[a]
        for b in range(F.order):
            assert fwd[F.add(a, b)] == K.add(fwd[a], fwd[b])
            assert fwd[F.mul(a, b)] == K.mul(fwd[a], fwd[b])


def test_embedding_deterministic_across_rebuilds():
    F4a = GaloisField(2, 2)
    F4b = GaloisField(2, 2)
    K = GaloisField(2, 8)
    fa, _ = embed_subfield(F4a, K)
    fb, _ = embed_subfield(F4b, K)
    assert fa == fb


def test_multiplicative_order_helper():
    assert multiplicative_order(3, 8) == 2
    assert multiplicative_order(4, 51) == 4
    assert multiplicative_order(4, 333) == 18
    with pytest.raises(ValueError):
        multiplicative_order(3, 9)


def test_build_field_validation():
    with pytest.raises(ValueError):
        build_field(4, 1)
    with pytest.raises(ValueError):
        build_field(2, 0)
    with pytest.raises(ValueError):
        GaloisField(2, 2, modulus=(0, 0, 1))  # x^2 is reducible
    with pytest.raises(ValueError):
        GaloisField(3, 2, modulus=(4, 0, 1))  # coefficients lie in [0, 3)
