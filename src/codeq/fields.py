"""Finite fields GF(p^m) with deterministic construction.

Elements are encoded as integers in [0, p^m): the base-p digits of the
integer, least significant digit first, are the coefficients of the residue
polynomial in the polynomial basis. The modulus is chosen as the monic
irreducible degree-m polynomial whose constant-through-(m-1) coefficient
vector has the lowest integer encoding, so two runs always build the same
field and the same element ordering.

Fields with at most 2^16 elements carry exp/log tables for multiplication.
Larger fields (needed only as splitting fields of characteristic 2 at desk
scale) fall back to polynomial arithmetic, bit-packed when p = 2.

The ``poly_*`` routines are the one polynomial layer over a GaloisField,
shared by the modulus search, subfield embeddings and generator polynomials.
Element multiplication and the p = 2 irreducibility test keep integer forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

_TABLE_LIMIT = 1 << 16


# ---------------------------------------------------------------------------
# integer helpers

def is_prime(x: int) -> bool:
    if x < 2:
        return False
    if x < 4:
        return True
    if x % 2 == 0:
        return False
    f = 3
    while f * f <= x:
        if x % f == 0:
            return False
        f += 2
    return True


def factorize(x: int) -> dict[int, int]:
    """Prime factorization by trial division. Fine for the sizes we meet."""
    fac: dict[int, int] = {}
    d = 2
    while d * d <= x:
        while x % d == 0:
            fac[d] = fac.get(d, 0) + 1
            x //= d
        d += 1 if d == 2 else 2
    if x > 1:
        fac[x] = fac.get(x, 0) + 1
    return fac


def prime_power_split(q: int) -> tuple[int, int]:
    """Return (p, e) with q = p^e, or raise ValueError."""
    if q < 2:
        raise ValueError(f"not a prime power: {q}")
    fac = factorize(q)
    if len(fac) != 1:
        raise ValueError(f"not a prime power: {q}")
    (p, e), = fac.items()
    return p, e


def multiplicative_order(q: int, n: int) -> int:
    """Order of q modulo n. Requires gcd(q, n) = 1."""
    if n <= 0:
        raise ValueError("modulus must be positive")
    if math.gcd(q, n) != 1:
        raise ValueError(f"gcd({q}, {n}) != 1")
    if n == 1:
        return 1
    t = q % n
    k = 1
    while t != 1:
        t = (t * q) % n
        k += 1
    return k


# ---------------------------------------------------------------------------
# polynomials over a GaloisField: coefficient lists ascending by degree, with
# [0] for the zero polynomial

def poly_trim(coeffs: list[int]) -> list[int]:
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def poly_mul(F: GaloisField, a, b) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            if bj:
                out[i + j] = F.add(out[i + j], F.mul(ai, bj))
    return poly_trim(out)


def poly_divmod(F: GaloisField, a, b) -> tuple[list[int], list[int]]:
    a = list(a)
    b = poly_trim(list(b))
    if b == [0]:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead = F.inv(b[-1])
    quot = [0] * max(len(a) - len(b) + 1, 1)
    while len(poly_trim(a)) >= len(b) and any(a):
        a = poly_trim(a)
        if len(a) < len(b):
            break
        shift = len(a) - len(b)
        factor = F.mul(a[-1], inv_lead)
        quot[shift] = factor
        for i, bi in enumerate(b):
            a[shift + i] = F.sub(a[shift + i], F.mul(factor, bi))
    return poly_trim(quot), poly_trim(a)


def poly_eval(F: GaloisField, coeffs, x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = F.add(F.mul(acc, x), c)
    return acc


def poly_powmod(F: GaloisField, base, e: int, mod) -> list[int]:
    """base^e mod ``mod``."""
    r = [1]
    b = poly_divmod(F, base, mod)[1]
    while e:
        if e & 1:
            r = poly_divmod(F, poly_mul(F, r, b), mod)[1]
        b = poly_divmod(F, poly_mul(F, b, b), mod)[1]
        e >>= 1
    return r


def poly_gcd(F: GaloisField, a, b) -> list[int]:
    """Monic greatest common divisor; [0] when both inputs are zero."""
    a, b = poly_trim(list(a)), poly_trim(list(b))
    while b != [0]:
        a, b = b, poly_divmod(F, a, b)[1]
    if a == [0]:
        return a
    inv = F.inv(a[-1])
    return [F.mul(inv, c) for c in a]


# bit-packed polynomials over GF(2), for the p = 2 modulus scan

def _gf2_mulmod_int(a: int, b: int, mod: int, m: int) -> int:
    top = 1 << m
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a & top:
            a ^= mod
    return r


def _gf2_powmod_int(base: int, e: int, mod: int, m: int) -> int:
    r = 1
    b = base
    while e:
        if e & 1:
            r = _gf2_mulmod_int(r, b, mod, m)
        b = _gf2_mulmod_int(b, b, mod, m)
        e >>= 1
    return r


def _gf2_gcd_int(a: int, b: int) -> int:
    while b:
        while a and a.bit_length() >= b.bit_length():
            a ^= b << (a.bit_length() - b.bit_length())
        a, b = b, a
    return a


def _is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    """Rabin irreducibility test for a monic polynomial over GF(p)."""
    m = len(poly) - 1
    if m <= 0:
        return False
    if m == 1:
        return True
    if p == 2:
        mask = sum(1 << i for i, c in enumerate(poly) if c)
        x = 2
        for r in factorize(m):
            h = _gf2_powmod_int(x, 1 << (m // r), mask, m)
            if _gf2_gcd_int(h ^ x, mask) != 1:
                return False
        return _gf2_powmod_int(x, 1 << m, mask, m) == x
    F = build_field(p, 1)
    x = [0, 1]
    for r in factorize(m):
        h = poly_powmod(F, x, p ** (m // r), poly) + [0]
        h[1] = F.sub(h[1], 1)  # h - x
        if len(poly_gcd(F, h, poly)) > 1:
            return False
    return poly_powmod(F, x, p ** m, poly) == x


def _lowest_irreducible(p: int, m: int) -> tuple[int, ...]:
    """Monic irreducible of degree m with the lowest-encoded low coefficients."""
    for enc in range(p ** m):
        low = []
        v = enc
        for _ in range(m):
            low.append(v % p)
            v //= p
        poly = tuple(low) + (1,)
        if _is_irreducible(poly, p):
            return poly
    raise RuntimeError("no irreducible polynomial found")  # pragma: no cover


# ---------------------------------------------------------------------------

class GaloisField:
    """GF(p^m) with integer-coded elements.

    The public surface sticks to plain ints: 0 is the additive and 1 the
    multiplicative identity, and arithmetic goes through add/sub/mul/inv/pow.
    """

    def __init__(self, p: int, m: int, modulus: tuple[int, ...] | None = None):
        if not is_prime(p):
            raise ValueError(f"characteristic must be prime, got {p}")
        if m < 1:
            raise ValueError(f"degree must be positive, got {m}")
        self.p = p
        self.m = m
        self.order = p ** m
        if modulus is None:
            modulus = _lowest_irreducible(p, m)
        else:
            modulus = tuple(poly_trim(list(modulus)))
            if (len(modulus) - 1 != m or modulus[-1] != 1
                    or not all(0 <= c < p for c in modulus)):
                raise ValueError("modulus must be monic of the field degree "
                                 "with coefficients in [0, p)")
            if m > 1 and not _is_irreducible(modulus, p):
                raise ValueError("modulus is reducible")
        self.modulus = modulus
        # bit-packed modulus for the p = 2 arithmetic
        self._mod_int = sum(1 << i for i, c in enumerate(modulus) if c)
        # reduction rows: digits of x^(m+i) mod modulus, i = 0..m-2
        self._red: list[tuple[int, ...]] = []
        if p != 2 and m > 1:
            Fp = build_field(p, 1)
            row = [0] * m + [1]
            for _ in range(m - 1):
                row = poly_divmod(Fp, row, modulus)[1]
                self._red.append(tuple(row + [0] * (m - len(row))))
                row = [0] + row
        self._exp: list[int] | None = None
        self._log: dict[int, int] | None = None
        self._primitive: int | None = None
        self._group_factors: dict[int, int] | None = None

    # -- encoding -----------------------------------------------------------

    def digits(self, a: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.m):
            out.append(a % self.p)
            a //= self.p
        return tuple(out)

    def undigits(self, digs) -> int:
        a = 0
        for d in reversed(digs):
            a = a * self.p + d
        return a

    # -- ring ops -----------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.m == 1:
            return (a + b) % self.p
        p = self.p
        out = 0
        mul = 1
        for _ in range(self.m):
            out += ((a + b) % p) * mul
            a //= p
            b //= p
            mul *= p
        return out

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        if self.m == 1:
            return (-a) % self.p
        p = self.p
        out = 0
        mul = 1
        for _ in range(self.m):
            out += ((-a) % p) * mul
            a //= p
            mul *= p
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def _mul_generic(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a * b) % self.p
        if self.p == 2:
            return _gf2_mulmod_int(a, b, self._mod_int, self.m)
        da, db = self.digits(a), self.digits(b)
        m, p = self.m, self.p
        conv = [0] * (2 * m - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    conv[i + j] = (conv[i + j] + x * y) % p
        out = conv[:m]
        for i in range(m - 1):
            c = conv[m + i]
            if c:
                row = self._red[i]
                for j in range(m):
                    out[j] = (out[j] + c * row[j]) % p
        return self.undigits(out)

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self.order <= _TABLE_LIMIT:
            if self._exp is None:
                self._build_tables()
            return self._exp[(self._log[a] + self._log[b]) % (self.order - 1)]
        return self._mul_generic(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self.order <= _TABLE_LIMIT:
            if self._exp is None:
                self._build_tables()
            return self._exp[(-self._log[a]) % (self.order - 1)]
        return self.pow(a, self.order - 2)

    def _pow_generic(self, a: int, e: int) -> int:
        r, b = 1, a
        while e:
            if e & 1:
                r = self._mul_generic(r, b)
            b = self._mul_generic(b, b)
            e >>= 1
        return r

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        if a == 0:
            return 0 if e else 1
        if self.order <= _TABLE_LIMIT:
            if self._exp is None:
                self._build_tables()
            return self._exp[(self._log[a] * e) % (self.order - 1)]
        return self._pow_generic(a, e)

    # -- multiplicative structure --------------------------------------------

    def _factors(self) -> dict[int, int]:
        if self._group_factors is None:
            self._group_factors = factorize(self.order - 1)
        return self._group_factors

    def element_order(self, a: int) -> int:
        if a == 0:
            raise ValueError("zero has no multiplicative order")
        t = self.order - 1
        for r in self._factors():
            while t % r == 0 and self.pow(a, t // r) == 1:
                t //= r
        return t

    @property
    def primitive_element(self) -> int:
        """Smallest element (in the integer encoding) generating the group."""
        if self._primitive is None:
            target = self.order - 1
            for a in range(1, self.order):
                ok = True
                for r in self._factors():
                    if self._pow_generic(a, target // r) == 1:
                        ok = False
                        break
                if ok:
                    self._primitive = a
                    break
            else:  # pragma: no cover
                raise RuntimeError("no primitive element found")
        return self._primitive

    def _build_tables(self):
        g = self.primitive_element
        exp = [1] * (self.order - 1)
        for i in range(1, self.order - 1):
            exp[i] = self._mul_generic(exp[i - 1], g)
        self._exp = exp
        self._log = {v: i for i, v in enumerate(exp)}

    # -- plumbing -------------------------------------------------------------

    @property
    def key(self) -> tuple:
        return (self.p, self.m, self.modulus)

    def __eq__(self, other):
        return isinstance(other, GaloisField) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        if self.m == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.m})"


@lru_cache(maxsize=None)
def build_field(p: int, m: int) -> GaloisField:
    return GaloisField(p, m)


def splitting_field(q: int, n: int) -> GaloisField:
    """Smallest GF(q^m) containing a primitive n-th root of unity."""
    p, e = prime_power_split(q)
    if math.gcd(n, q) != 1:
        raise ValueError(f"gcd(n={n}, q={q}) != 1")
    m = multiplicative_order(q, n)
    return build_field(p, e * m)


# ---------------------------------------------------------------------------
# roots of unity

@dataclass(frozen=True)
class RootOfUnity:
    """A primitive n-th root of unity inside a concrete field."""

    field: GaloisField
    value: int
    order: int


def primitive_nth_root(field: GaloisField, n: int) -> RootOfUnity:
    """Deterministic primitive n-th root: g^((|F|-1)/n) for canonical g."""
    size = field.order - 1
    if n <= 0 or size % n != 0:
        raise ValueError(f"no primitive {n}-th root in {field}")
    g = field.primitive_element
    return RootOfUnity(field, field.pow(g, size // n), n)


def anchored_root(field: GaloisField, n: int, anchor_power: int,
                  anchor_value: int) -> RootOfUnity:
    """Primitive n-th root r with r^anchor_power equal to a required value.

    Scans candidates g^(t * (|F|-1)/n) by ascending exponent and returns the
    first match, so the choice is deterministic. Raises ValueError when no
    primitive n-th root satisfies the anchor.
    """
    size = field.order - 1
    if n <= 0 or size % n != 0:
        raise ValueError(f"no primitive {n}-th root in {field}")
    g = field.primitive_element
    step = size // n
    for t in range(1, n + 1):
        if math.gcd(t, n) != 1:
            continue
        r = field.pow(g, step * t)
        if field.pow(r, anchor_power) == anchor_value:
            return RootOfUnity(field, r, n)
    raise ValueError(
        f"no primitive {n}-th root with anchor r^{anchor_power} = {anchor_value}")


# ---------------------------------------------------------------------------
# subfield embeddings

@lru_cache(maxsize=None)
def embed_subfield(sub: GaloisField, sup: GaloisField):
    """Embedding of `sub` into `sup` as (forward table, inverse dict).

    The image of sub's polynomial generator is the lowest-encoded root of
    sub's modulus among the subfield elements of `sup`, which makes the
    embedding deterministic.
    """
    if sub.p != sup.p or sup.m % sub.m != 0:
        raise ValueError(f"{sub} does not embed in {sup}")
    if sub.key == sup.key:
        return tuple(range(sub.order)), {a: a for a in range(sub.order)}
    step = (sup.order - 1) // (sub.order - 1)
    g = sup.primitive_element
    members = [0] + [sup.pow(g, step * j) for j in range(sub.order - 1)]
    roots = [c for c in members if poly_eval(sup, sub.modulus, c) == 0]
    if not roots:  # pragma: no cover
        raise RuntimeError("subfield root not found")
    beta = min(roots)
    fwd = tuple(poly_eval(sup, sub.digits(a), beta) for a in range(sub.order))
    inv = {v: i for i, v in enumerate(fwd)}
    if len(inv) != sub.order:  # pragma: no cover
        raise RuntimeError("embedding not injective")
    return fwd, inv


# GF(4) conveniences. The encoding puts w = x at 2 and w^2 = x + 1 at 3.
GF4_OMEGA = 2
GF4_OMEGA2 = 3


def gf4() -> GaloisField:
    return build_field(2, 2)
