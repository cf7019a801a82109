"""Cyclotomic cosets modulo n and the index maps that act on defining sets.

A subset of Z/nZ closed under multiplication by q is the exponent set of a
divisor of x^n - 1 with coefficients in GF(q); the orbits of that closure are
the q-cyclotomic cosets.  Defining sets (coset-closed subsets) carry the
combinatorial side of all cyclic-code work in this package, and the index
maps here -- multipliers, shifts, affine maps, and generalized multipliers
that rescale only the low digit of a prime-power modulus -- are bijections of
Z/nZ whose action on defining sets witnesses code equivalences.

``SetFamily`` (built by ``set_family``) is the one place that knows how a
code family reads its defining sets: modulus n for cyclic codes, 3n with
the lane 1 + 3Z for omega-constacyclic codes over GF(4).  Leader parsing,
coset-union enumeration, the admissible affine maps and the Hermitian-dual
set rule all go through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from codeq.fields import prime_power_split


def units(n: int) -> tuple[int, ...]:
    """The units mod n, ascending from the identity 1 (at n = 1 the only
    residue is 0 = 1, listed as 1)."""
    return tuple(e for e in range(1, max(n, 2)) if math.gcd(e, n) == 1)


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
        """Close ``leaders`` (any residues mod n); unlike SetFamily.parse,
        nothing is checked."""
        table = coset_table(n, q)
        return cls(n, q, table.closure(int(x) % n for x in leaders))

    def leaders(self) -> tuple[int, ...]:
        return set_family("cyclic", self.n, self.q).leaders(self.elements)

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


# the lane of each family is 1 + stride*Z inside Z/(stride*n)Z
_STRIDES = {"cyclic": 1, "constacyclic": 3}
# at most 2^_MASK_CAP coset unions are enumerated
_MASK_CAP = 20


@dataclass(frozen=True)
class SetFamily:
    """Where the defining sets of one code family at length n over GF(q) live.

    A cyclic code's defining set is a union of q-cyclotomic cosets of Z/nZ.
    An omega-constacyclic code over GF(4) reads its roots at a 3n-th root
    of unity, so its defining set lies in Z/3nZ, inside the lane 1 + 3Z, and
    its criteria are the cyclic ones at modulus 3n restricted to that lane.
    Everything that depends on the family -- modulus, lane, cosets, leader
    parsing, admissible affine maps -- is decided here.  Build one with the
    cached ``set_family``.

    The constructor validates (n, q) and sets ``modulus`` (n or 3n);
    ``stride`` (the lane is 1 + stride*Z); ``table``, the q-cosets mod
    ``modulus``; ``cosets``, those inside the lane by ascending leader;
    ``multipliers`` and ``shifts``, the units and shifts that keep the lane,
    ascending; ``shifts_are_isometries``: an admissible cyclic shift is
    an isometry, a constacyclic one only preserves the parameters; and
    ``bit_of``, each lane element's coset position.  A defining set's mask
    has bit i set when it holds ``cosets[i]``; ``mask_of``, ``union_of``
    and ``leaders_of`` convert between masks, elements and leaders.
    """

    family: str
    n: int
    q: int

    def __post_init__(self):
        stride = _STRIDES.get(self.family)
        if stride is None:
            raise ValueError(f"unknown family {self.family!r}")
        if self.n < 1:
            raise ValueError(f"length must be positive, got {self.n}")
        if self.family == "constacyclic":
            if self.q != 4:
                raise ValueError(
                    f"constacyclic codes need q = 4, got q={self.q}")
            if self.n % 2 == 0:
                raise ValueError(
                    f"constacyclic codes need an odd length, got n={self.n}")
        if math.gcd(self.n, self.q) != 1:
            raise ValueError(f"need gcd(n, q) = 1, got n={self.n}, q={self.q}")
        m = stride * self.n
        object.__setattr__(self, "stride", stride)
        table = coset_table(m, self.q)
        cosets = tuple(c for c in table.cosets if self._in_lane(c[0]))
        for name, value in (
                ("modulus", m), ("table", table), ("cosets", cosets),
                ("bit_of", {x: i for i, c in enumerate(cosets) for x in c}),
                ("multipliers", tuple(e for e in units(m)
                                      if self._in_lane(e))),
                ("shifts", range(0, m, stride)),
                ("shifts_are_isometries", stride == 1)):
            object.__setattr__(self, name, value)

    def _in_lane(self, x: int) -> bool:
        return x % self.stride == 1 % self.stride

    def _lane_values(self, values, leaders: bool) -> list[int]:
        values = [int(x) for x in values]
        bad = sorted({x for x in values
                      if not (0 <= x < self.modulus and self._in_lane(x))})
        if bad:
            raise ValueError(f"values outside the {self.family} lane of "
                             f"[0, {self.modulus}): {bad}")
        if leaders:
            bad = sorted({x for x in values if self.table.leader_of(x) != x})
            if bad:
                raise ValueError(
                    f"not coset leaders mod {self.modulus}: {bad}")
        return values

    def defining_set(self, elements) -> DefiningSet:
        """``elements`` as a defining set: each in the lane, coset-closed."""
        if isinstance(elements, DefiningSet):
            if (elements.n, elements.q) != (self.modulus, self.q):
                raise ValueError(
                    f"defining set must live in Z/{self.modulus}Z with "
                    f"q={self.q}, got Z/{elements.n}Z with q={elements.q}")
            elements = elements.elements
        return DefiningSet(self.modulus, self.q,
                           tuple(self._lane_values(elements, False)))

    def expand(self, leaders) -> frozenset:
        """The union of the cosets led by ``leaders``.

        Raises ValueError unless every value is the least element of a
        coset in the lane.
        """
        return frozenset(self.table.closure(self._lane_values(leaders, True)))

    def leaders(self, elements) -> tuple[int, ...]:
        """Sorted leaders of the cosets that meet ``elements``."""
        return tuple(sorted({self.table.leader_of(x) for x in elements}))

    def parse(self, text: str) -> DefiningSet:
        """Read 'a,b,...' (coset leaders) or 'full:x,y,...' (every element).

        Every value must lie in [0, modulus) and in the lane; leaders must
        be coset leaders and a full set must be coset-closed.  Anything
        else raises ValueError.
        """
        text = text.strip()
        full = text.startswith("full:")
        values = [int(t) for t in text[5 if full else 0:].split(",")
                  if t.strip()]
        return self.defining_set(values if full else self.expand(values))

    def masks(self) -> range:
        """Coset-union masks, bit i selecting ``cosets[i]``, under the cap."""
        if len(self.cosets) > _MASK_CAP:
            raise ValueError(f"too many cosets ({len(self.cosets)}) "
                             f"to enumerate all defining sets")
        return range(1 << len(self.cosets))

    def mask_of(self, elements) -> int:
        """Mask of the cosets that meet ``elements`` (lane elements only)."""
        return sum(1 << i for i in {self.bit_of[x] for x in elements})

    def union_of(self, mask: int) -> tuple[int, ...]:
        """The elements of the cosets in ``mask``, sorted."""
        return tuple(sorted(x for i, c in enumerate(self.cosets)
                            if mask >> i & 1 for x in c))

    def leaders_of(self, mask: int) -> tuple[int, ...]:
        """The leaders of the cosets in ``mask``, ascending."""
        return tuple(c[0] for i, c in enumerate(self.cosets) if mask >> i & 1)

    def unions(self):
        """Yield every union of lane cosets as a sorted tuple, in mask order."""
        return (self.union_of(mask) for mask in self.masks())

    def hermitian_dual(self, A) -> DefiningSet:
        """Defining set of the Hermitian dual over GF(4): the lane minus -2A.

        -2 keeps both lanes, so one rule serves cyclic and constacyclic
        codes.
        """
        if self.q != 4:
            raise ValueError("Hermitian duals live over GF(4)")
        neg = {-2 * a % self.modulus for a in self.defining_set(A)}
        return self.defining_set(x for x in range(self.modulus)
                                 if self._in_lane(x) and x not in neg)

    def bch_floor(self, A) -> tuple[int, int, int]:
        """(length, start, step): the longest run start + step*i, i < length,
        of defining-set indices mod n over the unit steps; on ties the
        least step, then the least start; (n, 0, 1) when A is the whole
        lane and (0, 0, 1) when it is empty.

        The index of a lane element a is (a - 1)/3 mod n for constacyclic
        codes (c(x) -> c(beta x) with beta^n = omega keeps every weight
        and sends the root exponent a to that index at an n-th root of
        unity) and a itself for cyclic ones.  By the BCH bound every
        nonzero word of the code then weighs at least length + 1.  Only
        the least step of each class under multiplication by q is walked:
        A is closed under a -> qa, which acts on indices as j -> qj + c,
        so a run of step s has the image a run of step qs.
        """
        n = self.n
        index = {a // self.stride for a in self.defining_set(A)}
        if len(index) == n:
            return n, 0, 1
        starts = sorted(index)
        table = coset_table(n, self.q)
        best = (0, 0, 1)
        for s in units(n):
            if table.leader_of(s) != s:
                continue
            for x in starts:
                if (x - s) % n in index:
                    continue
                length, y = 1, (x + s) % n
                while y in index:
                    length, y = length + 1, (y + s) % n
                if length > best[0]:
                    best = (length, x, s)
        return best

    def admits_shift(self, size, b):
        """Whether x -> x+b keeps the lane and m | size*(q-1)*b.

        ``size`` is a set size or a NumPy array of them.
        """
        return ((b % self.stride == 0)
                & (size * (self.q - 1) * b % self.modulus == 0))

    def affine_maps(self, size: int):
        """Yield the lane-keeping (e, b) in (e, b) order whose shift is
        admissible for sets of ``size`` elements."""
        shifts = [b for b in self.shifts if self.admits_shift(size, b)]
        return ((e, b) for e in self.multipliers for b in shifts)


@lru_cache(maxsize=None)
def set_family(family: str, n: int, q: int) -> SetFamily:
    """The family context at (n, q), built once; ValueError if there is none."""
    return SetFamily(family, n, q)


def family_of(family: str, A: DefiningSet) -> SetFamily:
    """The family whose defining sets live where A does."""
    fam = set_family(family, A.n // _STRIDES.get(family, 1), A.q)
    if fam.modulus != A.n:
        raise ValueError(f"{family} defining sets need a modulus divisible "
                         f"by {fam.stride}, got {A.n}")
    return fam


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


def generalized_multipliers(n: int) -> list[IndexMap]:
    """Every generalized multiplier other than the identity, by (k, d);
    none unless n is a power of an odd prime."""
    try:
        p, m = prime_power_split(n)
    except ValueError:
        return []
    if p == 2:
        return []
    return [generalized_multiplier(n, d, k) for k in range(1, m + 1)
            for d in range(2, p ** k) if d % p]


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


def shift_divisibility_constacyclic(n: int, setsize: int, b: int) -> bool:
    """Whether 3 | b and n | setsize*b, the constacyclic shift side condition."""
    return bool(set_family("constacyclic", n, 4).admits_shift(setsize, b))


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

    ``mode`` names the family A and B belong to; the maps are its
    ``affine_maps(|A|)``: gcd(e, n) = 1 and n | b*|A|*(q-1) for cyclic
    sets, and additionally e = 1 mod 3 and 3 | b at modulus 3n for
    constacyclic ones.  Results are ordered by (e, b).
    """
    A._check_context(B)
    if len(A) != len(B):
        return []
    fam = family_of(mode, A)
    m = fam.modulus
    target = set(B.elements)
    return [affine_map(m, e, b) for e, b in fam.affine_maps(len(A))
            if {(e * x + b) % m for x in A.elements} == target]


def all_defining_sets(n: int, q: int):
    """Yield every union of q-cyclotomic cosets mod n as a sorted tuple."""
    return set_family("cyclic", n, q).unions()
