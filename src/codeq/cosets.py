"""Cyclotomic cosets modulo n and the index maps that act on defining sets.

A subset of Z/nZ closed under multiplication by q is the exponent set of a
divisor of x^n - 1 with coefficients in GF(q); the orbits of that closure are
the q-cyclotomic cosets.  Defining sets (coset-closed subsets) carry the
combinatorial side of all cyclic-code work in this package, and the index
maps here -- multipliers, shifts, affine maps, and generalized multipliers
that rescale only the low digit of a prime-power modulus -- are bijections of
Z/nZ whose action on defining sets witnesses code equivalences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from codeq.fields import prime_power_split


def units(n: int) -> tuple[int, ...]:
    """Residues in [1, n) coprime to n."""
    return tuple(e for e in range(1, n) if math.gcd(e, n) == 1)


@dataclass(frozen=True)
class CosetTable:
    """Partition of Z/nZ into q-cyclotomic cosets, listed by ascending leader.

    ``index`` maps each residue to the position of its coset in ``cosets``;
    ``leaders[index[x]]`` is the smallest member of the coset containing x.
    """

    n: int
    q: int
    cosets: tuple[tuple[int, ...], ...]
    leaders: tuple[int, ...]
    index: tuple[int, ...]

    def coset_of(self, x: int) -> tuple[int, ...]:
        return self.cosets[self.index[x % self.n]]

    def leader_of(self, x: int) -> int:
        return self.leaders[self.index[x % self.n]]

    def is_union(self, elements) -> bool:
        got = set(elements)
        return all(set(self.coset_of(x)) <= got for x in got)

    def closure(self, elements) -> tuple[int, ...]:
        out: set[int] = set()
        for x in elements:
            out.update(self.coset_of(x))
        return tuple(sorted(out))


@lru_cache(maxsize=None)
def coset_table(n: int, q: int) -> CosetTable:
    """All q-cyclotomic cosets mod n; requires gcd(n, q) = 1."""
    if n < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    if math.gcd(n, q) != 1:
        raise ValueError(f"need gcd(n, q) = 1, got n={n}, q={q}")
    index = [-1] * n
    cosets = []
    leaders = []
    for a in range(n):
        if index[a] >= 0:
            continue
        orbit = []
        x = a
        while index[x] < 0:
            index[x] = len(cosets)
            orbit.append(x)
            x = (x * q) % n
        cosets.append(tuple(sorted(orbit)))
        leaders.append(a)
    return CosetTable(n, q, tuple(cosets), tuple(leaders), tuple(index))


@dataclass(frozen=True)
class DefiningSet:
    """A union of q-cyclotomic cosets mod n, stored as a sorted tuple.

    The constructor rejects subsets that are not coset-closed instead of
    closing them, so a caller that produced a stray element finds out here.
    """

    n: int
    q: int
    elements: tuple[int, ...]

    def __post_init__(self):
        els = tuple(sorted(set(int(x) for x in self.elements)))
        if els and not (0 <= els[0] and els[-1] < self.n):
            raise ValueError(f"elements out of range for modulus {self.n}")
        object.__setattr__(self, "elements", els)
        table = coset_table(self.n, self.q)
        got = set(els)
        for x in els:
            coset = set(table.coset_of(x))
            if not coset <= got:
                missing = sorted(coset - got)
                raise ValueError(
                    f"not closed under multiplication by {self.q}: "
                    f"{x} present but {missing} absent")

    @classmethod
    def from_leaders(cls, n: int, q: int, leaders) -> "DefiningSet":
        table = coset_table(n, q)
        return cls(n, q, table.closure(int(x) % n for x in leaders))

    @classmethod
    def parse(cls, n: int, q: int, text: str) -> "DefiningSet":
        """Parse '0,2,7' (coset leaders) or 'full:0,1,3,9' (every element)."""
        text = text.strip()
        if text.startswith("full:"):
            body = text[len("full:"):]
            items = [int(t) for t in body.split(",") if t.strip() != ""]
            return cls(n, q, tuple(items))
        items = [int(t) for t in text.split(",") if t.strip() != ""]
        return cls.from_leaders(n, q, items)

    def leaders(self) -> tuple[int, ...]:
        table = coset_table(self.n, self.q)
        return tuple(sorted({table.leader_of(x) for x in self.elements}))

    def to_string(self, full: bool = False) -> str:
        if full:
            return "full:" + ",".join(str(x) for x in self.elements)
        return ",".join(str(x) for x in self.leaders())

    def complement(self) -> "DefiningSet":
        got = set(self.elements)
        return DefiningSet(self.n, self.q,
                           tuple(x for x in range(self.n) if x not in got))

    def union(self, other: "DefiningSet") -> "DefiningSet":
        self._check_context(other)
        return DefiningSet(self.n, self.q,
                           tuple(set(self.elements) | set(other.elements)))

    def intersection(self, other: "DefiningSet") -> "DefiningSet":
        self._check_context(other)
        return DefiningSet(self.n, self.q,
                           tuple(set(self.elements) & set(other.elements)))

    def _check_context(self, other: "DefiningSet") -> None:
        if (self.n, self.q) != (other.n, other.q):
            raise ValueError(
                f"defining sets live in different contexts: "
                f"({self.n},{self.q}) vs ({other.n},{other.q})")

    def __contains__(self, x) -> bool:
        return int(x) % self.n in set(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class IndexMap:
    """A bijection of Z/nZ used to transport defining sets.

    Kinds: ``multiplier`` (a,) for x -> ax; ``shift`` (b,) for x -> x+b;
    ``affine`` (e, b) for x -> ex+b; ``generalized_multiplier`` (d, k, p, m)
    for the map on Z/p^m Z that multiplies the residue mod p^k by d and
    leaves the upper digits alone.
    """

    kind: str
    modulus: int
    params: tuple[int, ...]

    def __call__(self, x: int) -> int:
        n = self.modulus
        x = x % n
        if self.kind == "multiplier":
            return (self.params[0] * x) % n
        if self.kind == "shift":
            return (x + self.params[0]) % n
        if self.kind == "affine":
            e, b = self.params
            return (e * x + b) % n
        if self.kind == "generalized_multiplier":
            d, k, p, _m = self.params
            pk = p ** k
            return (x % pk) * d % pk + (x // pk) * pk
        raise ValueError(f"unknown index map kind {self.kind!r}")

    def inverse(self) -> "IndexMap":
        n = self.modulus
        if self.kind == "multiplier":
            return multiplier(n, pow(self.params[0], -1, n))
        if self.kind == "shift":
            return shift_map(n, -self.params[0] % n)
        if self.kind == "affine":
            e, b = self.params
            einv = pow(e, -1, n)
            return affine_map(n, einv, -einv * b % n)
        if self.kind == "generalized_multiplier":
            d, k, p, _m = self.params
            return generalized_multiplier(n, pow(d, -1, p ** k), k)
        raise ValueError(f"unknown index map kind {self.kind!r}")

    def describe(self) -> str:
        inner = ",".join(str(v) for v in self.params)
        return f"{self.kind}({inner}) mod {self.modulus}"


def multiplier(n: int, a: int) -> IndexMap:
    a %= n
    if math.gcd(a, n) != 1:
        raise ValueError(f"multiplier {a} is not a unit mod {n}")
    return IndexMap("multiplier", n, (a,))


def shift_map(n: int, b: int) -> IndexMap:
    return IndexMap("shift", n, (b % n,))


def affine_map(n: int, e: int, b: int) -> IndexMap:
    e %= n
    if math.gcd(e, n) != 1:
        raise ValueError(f"affine scale {e} is not a unit mod {n}")
    return IndexMap("affine", n, (e, b % n))


def generalized_multiplier(n: int, d: int, k: int) -> IndexMap:
    p, m = prime_power_split(n)
    if p == 2:
        raise ValueError("generalized multipliers need an odd prime-power modulus")
    if not 1 <= k <= m:
        raise ValueError(f"digit cut {k} out of range for modulus {n} = {p}^{m}")
    pk = p ** k
    if not 1 <= d < pk or math.gcd(d, p) != 1:
        raise ValueError(f"low-digit factor {d} is not a unit mod {pk}")
    return IndexMap("generalized_multiplier", n, (d, k, p, m))


def apply_map(imap: IndexMap, subset) -> tuple[int, ...]:
    """Image of a defining set (or plain iterable) under an index map.

    Returns a sorted tuple; the image of a defining set need not be
    coset-closed, so the caller decides whether to rewrap it.
    """
    if isinstance(subset, DefiningSet):
        if subset.n != imap.modulus:
            raise ValueError(
                f"map modulus {imap.modulus} != set modulus {subset.n}")
        items = subset.elements
    else:
        items = tuple(int(x) for x in subset)
    return tuple(sorted(imap(x) for x in items))


def shift_divisibility_cyclic(n: int, q: int, setsize: int, b: int) -> bool:
    """Whether n divides setsize*(q-1)*b, the cyclic shift-map side condition."""
    return setsize * (q - 1) * b % n == 0


def shift_divisibility_constacyclic(n: int, setsize: int, b: int) -> bool:
    """Whether 3 | b and n | setsize*b, the constacyclic shift side condition."""
    return b % 3 == 0 and setsize * b % n == 0


def progression_set(n: int, e: int) -> DefiningSet:
    """Arithmetic-progression defining set over GF(4) for n = 3^t * k, t >= 3.

    The set is the full residue class of e*k modulo 3k inside Z/nZ (3^(t-1)
    terms stepping by 3k); it is always a union of 4-cyclotomic cosets.
    """
    if n % 2 == 0:
        raise ValueError(f"length must be odd, got {n}")
    t, k = 0, n
    while k % 3 == 0:
        k //= 3
        t += 1
    if t < 3:
        raise ValueError(f"length must be divisible by 27, got {n}")
    if not 1 <= e <= n - 1:
        raise ValueError(f"index e must lie in [1, {n - 1}], got {e}")
    step = n // 3 ** (t - 1)
    els = tuple((e * k + i * step) % n for i in range(3 ** (t - 1)))
    return DefiningSet(n, 4, els)


def enumerate_affine_witnesses(A: DefiningSet, B: DefiningSet,
                               mode: str = "cyclic") -> list[IndexMap]:
    """All affine maps x -> ex+b sending A onto B under the side conditions.

    Cyclic mode requires gcd(e, n) = 1 and n | b*|A|*(q-1).  Constacyclic
    mode works mod 3n and requires e = 1 mod 3, 3 | b, and n | b*|A|.
    Results are ordered by (e, b).
    """
    A._check_context(B)
    n = A.n
    size = len(A.elements)
    out: list[IndexMap] = []
    if size != len(B.elements):
        return out
    target = set(B.elements)
    if mode == "cyclic":
        for e in units(n):
            for b in range(n):
                if size * (A.q - 1) * b % n:
                    continue
                if {(e * x + b) % n for x in A.elements} == target:
                    out.append(affine_map(n, e, b))
    elif mode == "constacyclic":
        if n % 3:
            raise ValueError("constacyclic witnesses need a modulus divisible by 3")
        base = n // 3
        for e in units(n):
            if e % 3 != 1:
                continue
            for b in range(0, n, 3):
                if size * b % base:
                    continue
                if {(e * x + b) % n for x in A.elements} == target:
                    out.append(affine_map(n, e, b))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return out


def union_of_cosets(cosets, mask: int) -> tuple[int, ...]:
    """Sorted union of the cosets whose bits are set in ``mask``."""
    return tuple(sorted(x for i, c in enumerate(cosets) if mask >> i & 1
                        for x in c))


def coset_unions(cosets):
    """Yield the union of every subset of ``cosets`` as a sorted tuple.

    Subsets are visited in mask order: bit i selects ``cosets[i]``.
    """
    for mask in range(1 << len(cosets)):
        yield union_of_cosets(cosets, mask)


def all_defining_sets(n: int, q: int):
    """Yield every union of q-cyclotomic cosets mod n as a sorted tuple.

    There are 2^(number of cosets) of them, so keep n small or break early.
    """
    return coset_unions(coset_table(n, q).cosets)
