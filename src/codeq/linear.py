"""Linear codes over small Galois fields with numpy-backed arithmetic.

Vectors and matrices hold integer field encodings (see codeq.fields) in
uint8 arrays; arithmetic is elementwise table lookup, so everything here
works for any field of order <= 256.  Generator matrices are kept in
reduced row-echelon form, which is unique per row space, so two codes are
equal exactly when their generator arrays are equal.

Minimum-distance work has one exact engine, a Brouwer-Zimmermann
enumeration of short messages in disjoint systematic forms (strategy
"exhaustive"; reading all q^k codewords is its one-form case), and for
codes too large for it a meet-in-the-middle ladder that certifies lower
bounds plus a seeded information-set search for upper bounds.  The
engines share one arithmetic layer.  Field elements add by one add
(FieldTables.plus): XOR in characteristic 2, else one gather from the
flattened addition table.  Rows are bit planes in characteristic 2 and
bytes otherwise, with one add, weigh, pack and unpack per field
(_row_ops).  Codewords come from one chunked enumerator
(_codewords) in message order, base-q digits with digit 0 fastest.
The ladder packs column syndromes into integers that add by XOR.
Each engine returns (lb, ub, witness, work, note) after filtering a
subcode with one shared test.  The enumeration and the information-set
scan keep the first lightest word outside the subcode by one rule
(_lightest): weight levels are walked upwards, and only the rows of the
level being read are unpacked and tested.

One dispatcher (_distance_engine) decides whether the meet-in-the-middle
ladder climbs before the engine it picked, and how far: to weight 6 before
the information-set search, before an enumeration that automatic dispatch
picked for a code with few syndromes until a rung passes MITM_SIDE_CAP or
the budget, and not otherwise.  A word the ladder finds is the exact
minimum; else the engine finishes on the budget left, and its result
keeps the ladder's floor, work and note.  A caller may pass a floor it has
proved, such as the BCH bound that the search reads off a defining set.
Then the ladder starts at that rung and is skipped before the
information-set search when the floor is above weight 6, lb is at least
the floor, and the finishing engine stops at a word of that weight, or of
the ladder's floor when that is higher.

Short messages of a systematic form have one reader (_messages): blocks
of at most ROW_BLOCK words, each built by one flat gather of multiples
and one broadcast add per position, as the ladder builds its keys.  The
enumeration reads greedy disjoint forms by weight through it and stops
once its lightest word is no heavier than a word it has not read can be
(_brouwer_zimmermann).

The meet-in-the-middle ladder (Stern 1988; over GF(q) after Peters 2010)
splits rung t into an A side of w positions and a B side of the other
t - w (_rung_plan), both with the first scalar pinned to 1, so a word of
weight t is a + beta b for entries a and b with syn(a) = beta syn(b).  A
side is one sorted uint64 array of keys h(form) << IDX_BITS | index, form
being the syndrome scaled to lowest nonzero base-q digit 1 (_canonical),
one for all its GF(q)* multiples, and h a hash where forms do not fit
above the index bits.  Each side is built once per position count.  A
two-sided rung binary-searches one side's hashes in the other; an
unwindowed even rung joins its one side with itself.  Pairs are expanded
in order, in chunks that double from FIRST_BLOCK, so a witness near the
front costs only the pairs before it, and each pair's beta comes from its
exact syndromes, which also drop hash collisions.  A rung runs only when
its side entries, its work, fit under MITM_SIDE_CAP and the budget left.

Cyclic and constacyclic codes get windowed rungs, all two-sided.  When
one verified shift keeps the code and its subcode (_shift_constant), a
word of weight t has a shifted, scaled copy with c_0 = 1 and w - 1 more
positions in a window [1, width), so rung t meets that window side with
an outer side of t - w positions of [1, n) (see _mitm_ladder).  At n = 43
over GF(4) that is 3,807 entries for weight 5 against 113,778.

The information-set search draws all its column permutations first and
takes every iteration's systematic form from one stacked elimination of
copies of the generator (_stacked_rref); rref serves single matrices.  It
reads each form's messages of weight 1, 2 and 3 through _messages, as
the enumeration reads its forms, but it stops at weight 3 and proves no
lower bound.  In characteristic 2 a row is held as m bit planes of
ceil(n / 64) uint64 words each: rows add by XOR, a row's weight is the
popcount of the OR of its planes, and only the rows at the least weight
below the best so far go back to bytes, one level at a time, for the
subcode filter and the witness.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from codeq.fields import GaloisField

_TABLE_CAP = 256
EXHAUSTIVE_CAP = 1 << 22
EXHAUSTIVE_CEILING = 1 << 28
# the most syndromes, q^(n-k), of a code that _auto_engine enumerates
SYNDROME_CAP_CHAR2 = 1 << 24
SYNDROME_CAP_ODD = 1 << 18
MITM_SIDE_CAP = 1 << 23
# a ladder side's sort key: its index in the low IDX_BITS bits, a hash of
# its syndrome above them
IDX_BITS = (MITM_SIDE_CAP - 1).bit_length()
_IDX_MASK = np.uint64((1 << IDX_BITS) - 1)
_HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)  # odd: 2^64 / golden ratio
MITM_CHUNK = 1 << 20
WORD_BLOCK = 1 << 12
# the first pair chunk and word block of a rung; each next one doubles
FIRST_BLOCK = 1 << 6
ROW_BLOCK = 1 << 16
INFOSET_ITERS = 8
WD_COMPARE_CAP = 1 << 16
GF4_CONJ = np.array([0, 1, 3, 2], dtype=np.uint8)


class FieldTables:
    """Dense numpy operation tables for one field of order <= 256."""

    __slots__ = ("field", "order", "add", "mul", "neg", "inv", "plus")

    def __init__(self, F: GaloisField):
        if F.order > _TABLE_CAP:
            raise ValueError(f"field order {F.order} too large for table arithmetic")
        o = F.order
        self.field = F
        self.order = o
        add = np.zeros((o, o), dtype=np.uint8)
        mul = np.zeros((o, o), dtype=np.uint8)
        for a in range(o):
            for b in range(o):
                add[a, b] = F.add(a, b)
                mul[a, b] = F.mul(a, b)
        self.add = add
        self.mul = mul
        self.neg = np.array([F.neg(a) for a in range(o)], dtype=np.uint8)
        self.inv = np.array([0] + [F.inv(a) for a in range(1, o)], dtype=np.uint8)
        # the one elementwise add of arrays, broadcast like a ufunc
        self.plus = (np.bitwise_xor if F.p == 2 else partial(
            _table_add, add.ravel(), o, np.uint8 if o <= 16 else np.uint16))


def _table_add(flat: np.ndarray, q: int, dtype, a, b) -> np.ndarray:
    """a + b over an odd field: one gather from the flattened addition
    table at a * q + b, whose indices fit dtype (uint8 while q <= 16)."""
    return np.take(flat, np.add(np.multiply(a, q, dtype=dtype), b,
                                dtype=dtype))


_TABLES: dict[tuple, FieldTables] = {}


def tables(F: GaloisField) -> FieldTables:
    t = _TABLES.get(F.key)
    if t is None:
        t = FieldTables(F)
        _TABLES[F.key] = t
    return t


def as_matrix(F: GaloisField, rows, n: int | None = None) -> np.ndarray:
    a = np.asarray(rows, dtype=np.uint8)
    if a.ndim == 1:
        a = a.reshape(1, -1) if a.size else a.reshape(0, 0 if n is None else n)
    if a.ndim != 2:
        raise ValueError("expected a 2-d array of field elements")
    if n is not None and a.shape[1] != n:
        if a.shape[0] == 0:
            a = a.reshape(0, n)
        else:
            raise ValueError(f"expected {n} columns, got {a.shape[1]}")
    if a.size and int(a.max()) >= F.order:
        raise ValueError(f"entry {int(a.max())} is not an element of GF({F.order})")
    return a


def rref(F: GaloisField, mat) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row-echelon form and pivot columns over F."""
    T = tables(F)
    A = as_matrix(F, mat).copy()
    rows, cols = A.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(A[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            A[[r, i]] = A[[i, r]]
        piv = int(A[r, c])
        if piv != 1:
            A[r] = T.mul[T.inv[piv], A[r]]
        col = A[:, c].copy()
        col[r] = 0
        hit = np.nonzero(col)[0]
        if hit.size:
            A[hit] = T.plus(A[hit], T.mul[T.neg[col[hit]][:, None], A[r]])
        pivots.append(c)
        r += 1
    return A[:r], tuple(pivots)


def _stacked_rref(F: GaloisField, G: np.ndarray,
                  perms: np.ndarray) -> np.ndarray:
    """rref(F, G[:, perm])[0][:, np.argsort(perm)] for every row perm of
    the (s, n) array perms, as one (s, r, n) stack for G of rank r.

    All s copies of G are eliminated together on G's own columns.  At step
    r each copy's pivot is the first column, in its permutation's order,
    with a nonzero entry in rows r and below; the columns before it in that
    order are already zero there, so it comes after the previous pivot.
    The first row holding that entry is swapped up and scaled to 1, and
    the column is cleared in every other row by one gather of the pivot
    row's multiples and one add.
    """
    T = tables(F)
    s, n = perms.shape
    A = np.repeat(G[None], s, axis=0)
    at = np.arange(s)
    order = np.empty_like(perms)  # where column c comes in perms[i]
    order[at[:, None], perms] = np.arange(n)
    r = 0
    while r < A.shape[1]:
        live = A[:, r:].any(axis=1)
        if not live.any():
            break
        c = np.where(live, order, n).argmin(axis=1)
        i = r + (A[at, r:, c] != 0).argmax(axis=1)
        top = A[at, i]
        A[at, i] = A[at, r]
        top = T.mul[T.inv[top[at, c]][:, None], top]
        A[at, r] = top
        col = A[at, :, c]
        col[:, r] = 0
        # row j of copy i takes -col[i, j] times its pivot row
        A = T.plus(A, T.mul[:, top][T.neg[col], at[:, None]])
        r += 1
    return A[:, :r]


def gf_matmul(F: GaloisField, A, B) -> np.ndarray:
    """Matrix product over F: for each l, gather the multiples of row B[l]
    by column A[:, l] and add them up."""
    T = tables(F)
    A = as_matrix(F, A)
    B = as_matrix(F, B)
    if A.shape[1] != B.shape[0]:
        raise ValueError(f"shape mismatch {A.shape} x {B.shape}")
    out = np.zeros((A.shape[0], B.shape[1]), dtype=np.uint8)
    for l in range(A.shape[1]):
        out = T.plus(out, T.mul[:, B[l]][A[:, l]])
    return out


class LinearCode:
    """A k-dimensional length-n code over a small field, stored as RREF rows."""

    __slots__ = ("field", "n", "generator", "k", "pivots")

    def __init__(self, field: GaloisField, generator: np.ndarray,
                 pivots: tuple[int, ...]):
        self.field = field
        self.generator = generator
        self.n = generator.shape[1]
        self.k = generator.shape[0]
        self.pivots = pivots

    @classmethod
    def from_rows(cls, field: GaloisField, rows, n: int | None = None) -> "LinearCode":
        A = as_matrix(field, rows, n)
        R, pivots = rref(field, A)
        R.setflags(write=False)
        return cls(field, R, pivots)

    @classmethod
    def zero(cls, field: GaloisField, n: int) -> "LinearCode":
        return cls.from_rows(field, np.zeros((0, n), dtype=np.uint8))

    @classmethod
    def full(cls, field: GaloisField, n: int) -> "LinearCode":
        return cls.from_rows(field, np.eye(n, dtype=np.uint8))

    def __repr__(self) -> str:
        return f"LinearCode[{self.n},{self.k}] over GF({self.field.order})"

    def __eq__(self, other) -> bool:
        return (isinstance(other, LinearCode)
                and self.field.key == other.field.key
                and self.n == other.n and self.k == other.k
                and np.array_equal(self.generator, other.generator))

    def __hash__(self) -> int:
        return hash((self.field.key, self.n, self.k, self.generator.tobytes()))

    def parity_check(self) -> np.ndarray:
        """(n-k) x n matrix H with H @ c = 0 exactly for codewords c: the
        identity in the free columns, -G[:, free]^T in the pivot columns."""
        free = np.ones(self.n, dtype=bool)
        free[list(self.pivots)] = False
        H = np.zeros((self.n - self.k, self.n), dtype=np.uint8)
        H[:, free] = np.eye(self.n - self.k, dtype=np.uint8)
        H[:, ~free] = tables(self.field).neg[self.generator[:, free]].T
        return H

    def euclidean_dual(self) -> "LinearCode":
        return LinearCode.from_rows(self.field, self.parity_check(), self.n)

    def conjugate(self) -> "LinearCode":
        """Entrywise a -> a^2 over GF(4)."""
        if self.field.order != 4:
            raise ValueError("conjugation table is specific to GF(4)")
        # conjugation fixes 0 and 1, so the conjugated RREF rows are the
        # RREF of the conjugate code, with the same pivots
        G = GF4_CONJ[self.generator]
        G.setflags(write=False)
        return LinearCode(self.field, G, self.pivots)

    def hermitian_dual(self) -> "LinearCode":
        if self.field.order != 4:
            raise ValueError("Hermitian duals are defined here over GF(4) only")
        return self.conjugate().euclidean_dual()

    def contains(self, vec) -> bool:
        v = np.asarray(vec, dtype=np.uint8).reshape(1, -1)
        if v.shape[1] != self.n:
            raise ValueError(f"vector length {v.shape[1]} != {self.n}")
        return not _outside_test(self, self)(v)[0]

    def contains_code(self, other: "LinearCode") -> bool:
        return not _outside_test(self, self)(other.generator).any()

    def sum_code(self, other: "LinearCode") -> "LinearCode":
        self._check_context(other)
        stacked = np.vstack([self.generator, other.generator])
        return LinearCode.from_rows(self.field, stacked, self.n)

    def intersection(self, other: "LinearCode") -> "LinearCode":
        self._check_context(other)
        dual_sum = self.euclidean_dual().sum_code(other.euclidean_dual())
        return dual_sum.euclidean_dual()

    def codewords(self, cap: int = EXHAUSTIVE_CAP) -> np.ndarray:
        """All q^k codewords as a (q^k, n) array in message order; guarded
        by cap."""
        total = self.field.order ** self.k
        if total > cap:
            raise ValueError(f"too large: {total} codewords exceeds cap {cap}")
        unpack = _row_ops(self.field, self.n)[3]
        return np.concatenate([unpack(b) for b in _codewords(self)])

    def _check_context(self, other: "LinearCode") -> None:
        if self.field.key != other.field.key or self.n != other.n:
            raise ValueError("codes live in different ambient spaces")


@dataclass(frozen=True)
class WeightDistribution:
    n: int
    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.counts) != self.n + 1:
            raise ValueError("counts must have length n+1")


def weight_distribution(code: LinearCode) -> WeightDistribution:
    """Exact weight enumerator by message-space enumeration of at most
    EXHAUSTIVE_CEILING codewords."""
    total = code.field.order ** code.k
    if total > EXHAUSTIVE_CEILING:
        raise ValueError(f"too large: q^k = {total} exceeds cap "
                         f"{EXHAUSTIVE_CEILING}")
    weigh = _row_ops(code.field, code.n)[1]
    counts = sum(np.bincount(weigh(block), minlength=code.n + 1)
                 for block in _codewords(code))
    return WeightDistribution(code.n, tuple(int(c) for c in counts))


def _codewords(code: LinearCode):
    """All q^k codewords in message order, at most ROW_BLOCK at a time, as
    _row_ops rows (bit planes in characteristic 2, bytes otherwise).

    A codeword is the sum of one multiple of each generator row.  The
    words of the low message digits, at most ROW_BLOCK of them, form a
    table in message order with digit 0 fastest; block h is that table
    plus the word of high-digit value h.
    """
    F, k = code.field, code.k
    q = F.order
    add, _, pack, _ = _row_ops(F, code.n)
    rows = pack(tables(F).mul[:, code.generator].reshape(q * k, code.n))
    shape = rows.shape[1:]
    multiples = rows.reshape(q, k, *shape)
    block = np.zeros((1, *shape), dtype=rows.dtype)
    low = 0
    while low < k and q ** (low + 1) <= ROW_BLOCK:
        block = add(multiples[:, low, None], block[None]).reshape(-1, *shape)
        low += 1
    h = np.arange(q ** (k - low))
    high = np.zeros((h.size, *shape), dtype=rows.dtype)
    for i in range(low, k):
        high = add(high, multiples[h // q ** (i - low) % q, i])
    for word in high:
        yield add(block, word)


def weight_distributions_equal(c1: LinearCode, c2: LinearCode) -> bool | None:
    """Whether two codes share a weight distribution; None, uncompared,
    when either has more than WD_COMPARE_CAP codewords."""
    q = c1.field.order
    if q ** c1.k > WD_COMPARE_CAP or q ** c2.k > WD_COMPARE_CAP:
        return None
    return _weight_counts(c1) == _weight_counts(c2)


@lru_cache(maxsize=256)
def _weight_counts(code: LinearCode) -> tuple[int, ...]:
    """weight_distribution(code).counts, kept for the codes compared last."""
    return weight_distribution(code).counts


@dataclass(frozen=True)
class MonomialTransform:
    """Coordinate permutation plus nonzero column scalings.

    Acting on v gives v' with v'[i] = diagonal[i] * v[perm_inverse(i)];
    perm maps source index to target index.
    """

    perm: tuple[int, ...]
    diagonal: tuple[int, ...]

    def __post_init__(self):
        n = len(self.perm)
        if sorted(self.perm) != list(range(n)):
            raise ValueError("perm is not a permutation")
        if len(self.diagonal) != n or any(d == 0 for d in self.diagonal):
            raise ValueError("diagonal must have n nonzero entries")

    @property
    def n(self) -> int:
        return len(self.perm)

    @classmethod
    def identity(cls, n: int) -> "MonomialTransform":
        return cls(tuple(range(n)), (1,) * n)

    @classmethod
    def permutation(cls, perm) -> "MonomialTransform":
        perm = tuple(int(x) for x in perm)
        return cls(perm, (1,) * len(perm))

    def is_permutation(self) -> bool:
        return all(d == 1 for d in self.diagonal)

    def inverse_perm(self) -> tuple[int, ...]:
        inv = [0] * self.n
        for i, j in enumerate(self.perm):
            inv[j] = i
        return tuple(inv)

    def apply_vector(self, F: GaloisField, vec) -> np.ndarray:
        T = tables(F)
        v = np.asarray(vec, dtype=np.uint8)
        inv = np.array(self.inverse_perm())
        d = np.array(self.diagonal, dtype=np.uint8)
        return T.mul[d, v[inv]]

    def compose(self, F: GaloisField, second: "MonomialTransform") -> "MonomialTransform":
        """Transform equal to applying self first, then second."""
        if self.n != second.n:
            raise ValueError("length mismatch")
        perm = tuple(second.perm[self.perm[i]] for i in range(self.n))
        inv2 = second.inverse_perm()
        diag = tuple(F.mul(second.diagonal[j], self.diagonal[inv2[j]])
                     for j in range(self.n))
        return MonomialTransform(perm, diag)

    def inverse(self, F: GaloisField) -> "MonomialTransform":
        inv = self.inverse_perm()
        diag = tuple(F.inv(self.diagonal[self.perm[i]]) for i in range(self.n))
        return MonomialTransform(inv, diag)


def apply_monomial(code: LinearCode, M: MonomialTransform) -> LinearCode:
    if M.n != code.n:
        raise ValueError("transform length mismatch")
    T = tables(code.field)
    inv = np.array(M.inverse_perm())
    d = np.array(M.diagonal, dtype=np.uint8)
    moved = code.generator[:, inv]
    return LinearCode.from_rows(code.field, T.mul[d[None, :], moved], code.n)


@dataclass
class DistanceResult:
    lb: int
    ub: int
    strategy: str
    seed: int | None
    elapsed: float
    work: int
    witness: tuple[int, ...] | None = None
    note: str = ""

    @property
    def complete(self) -> bool:
        return self.lb == self.ub

    def to_dict(self) -> dict:
        return {"lb": self.lb, "ub": self.ub, "strategy": self.strategy,
                "seed": self.seed, "elapsed": round(self.elapsed, 6),
                "work": self.work, "complete": self.complete,
                "witness": list(self.witness) if self.witness else None,
                "note": self.note}


def _sentinel(code: LinearCode, strategy: str, t0: float) -> DistanceResult:
    s = code.n + 1
    return DistanceResult(s, s, strategy, None, time.perf_counter() - t0, 0,
                          note="zero-dimensional: sentinel n+1")


# Every engine takes (code, outside, budget, seed, floor, shift): the
# subcode filter, the budget the ladder left, a proved weight at which it
# may stop and the _shift_constant; it returns (lb, ub, witness, work, note).
_Bounds = tuple[int, int, "tuple[int, ...] | None", int, str]


def _outside_test(code: LinearCode, exclude: LinearCode | None):
    """The subcode filter every engine shares: None when there is no subcode,
    else a map from an (N, n) word array to a mask of rows outside it, the
    rows with a nonzero syndrome.  Membership tests read it with the code
    as its own subcode."""
    if exclude is None:
        return None
    Hx = exclude.parity_check().T
    return lambda words: gf_matmul(code.field, words, Hx).any(axis=1)


def _lightest(block: np.ndarray, w: np.ndarray, best: int, outside,
              unpack) -> tuple[int, tuple[int, ...]] | None:
    """(weight, word) of the first row of least weight among rows with
    0 < w < best outside the subcode; None when there is none.

    Weight levels are walked upwards: only the rows at the current level
    go through unpack (to (N, n) bytes) and the subcode test, and the next
    level is read only when the test rejects every row of this one.
    """
    live = (w > 0) & (w < best)
    while live.any():
        level = w[live].min()
        rows = np.flatnonzero(live & (w == level))
        if outside is None:
            rows = rows[:1]
        words = unpack(np.take(block, rows, axis=0))
        if outside is not None:
            words = words[outside(words)]
        if words.shape[0]:
            return int(level), tuple(int(x) for x in words[0])
        live &= w > level
    return None


def _row_ops(F: GaloisField, n: int):
    """(add, weigh, pack, unpack) for rows over F: bit planes in
    characteristic 2, bytes otherwise, added by the field's one add."""
    add = tables(F).plus
    if F.p == 2:
        return (add, _plane_weights, partial(_pack_planes, m=F.m),
                partial(_unpack_planes, n=n))
    return add, _byte_weights, np.asarray, np.asarray


def _brouwer_zimmermann(code: LinearCode, outside, budget: int | None,
                        seed: int, floor: int = 1,
                        shift: int | None = None) -> _Bounds:
    """Exact min weight by enumerating short messages in disjoint
    systematic forms (Brouwer-Zimmermann: Zimmermann 1996, Grassl 2006).

    Form j is the generator row-reduced on the columns no earlier form
    pivots on, so its r_j pivots I_j hold [I; 0].  Once form j has read
    every message of weight at most w_j, a word not seen weighs more than
    w_j - (k - r_j) on I_j, and at least bound = sum_j max(0, w_j + 1 -
    (k - r_j)) in all.  Levels w = 1, 2, ... are read form by form, each
    form from its level 1 once it counts (r_j >= k - w); forms are built
    when first needed, and as ranks never rise the first form that does
    not count ends the level.  With shift, the _shift_constant of the
    code and the subcode, every shift of a least word outside the subcode
    is one too, and the n shifts of its support meet I_1 d * k times, so
    unless a multiple of one was read in the first form, d >= ceil(n(w_1
    + 1) / k) (Chen).  As sum_j r_j <= n, no form sum at the same weight
    beats that, so only the first form is read.

    Messages carry 1 at their first nonzero position, and each block
    (_messages) keeps its first lightest word outside the subcode
    (_lightest), of weight best.  The search is exact once best <=
    max(bound, floor), floor being a weight the caller proved no word
    falls below, or once the first form has read all q^k codewords.  Each
    message is one work unit: after budget messages, or EXHAUSTIVE_CEILING
    without a budget, the bounds [min(best, bound), best] stay open.
    """
    F, n, k = code.field, code.n, code.k
    add, weigh, pack, unpack = _row_ops(F, n)
    limit = EXHAUSTIVE_CEILING if budget is None else budget
    free = np.ones(n, dtype=bool)  # the columns no form pivots on
    forms: list[list] = []  # [r_j, the form's multiples as rows, w_j]
    best, witness, work, bound = n + 1, None, 0, 1

    def result(lb: int, why: str) -> _Bounds:
        return (lb, best, witness, work, f"{why}: Brouwer-Zimmermann "
                f"enumeration to message weight {max(f[2] for f in forms)} "
                f"(forms of rank {', '.join(str(f[0]) for f in forms)})")

    for w in range(1, k + 1):
        for j in itertools.count():
            if j == len(forms):
                if forms and (shift is not None or not free.any()):
                    break
                cols = np.flatnonzero(free)
                order = np.concatenate([cols, np.flatnonzero(~free)])
                R, pivots = (rref(F, code.generator[:, order]) if forms
                             else (code.generator, code.pivots))
                pivots = order[list(pivots)][:np.searchsorted(
                    pivots, cols.size)]
                free[pivots if pivots.size else cols] = False
                if not pivots.size:
                    break
                rows = pack(tables(F).mul[:, R[:, np.argsort(order)]]
                            .reshape(-1, n))
                forms.append([pivots.size,
                              rows.reshape(F.order, k, *rows.shape[1:]), 0])
            if forms[j][0] < k - w:
                break
            for level in range(forms[j][2] + 1, w + 1):
                for block in _messages(forms[j][1], add, level):
                    cut = block.shape[0] > limit - work
                    block = block[:limit - work]
                    work += block.shape[0]
                    found = _lightest(block, weigh(block), best, outside,
                                      unpack)
                    if found is not None:
                        best, witness = found
                    if best <= max(bound, floor):
                        return result(best, "exact")
                    if cut:
                        return result(min(best, bound), (
                            f"budget {budget} ran out" if budget is not None
                            else f"ceiling of {limit} messages reached"))
                forms[j][2] = level
                bound = (-(-n * (level + 1) // k) if shift is not None else
                         sum(max(0, v + 1 - k + r) for r, _, v in forms))
                if best <= max(bound, floor) or forms[0][2] == k:
                    return result(best, "exact")
    raise AssertionError("the first form reads all q^k codewords")


def _messages(rows: np.ndarray, add, w: int, start: int = 0, head=None):
    """The codewords of one form's weight-w messages, 1 at their first
    nonzero position, in blocks of at most ROW_BLOCK rows: the one reader
    of short messages, for the enumeration and the information-set scan.

    rows holds the form's multiples, c times row i at [c, i], as _row_ops
    rows.  A block holds the messages on the w-subsets of range(start, k)
    in lexicographic order, the first position's scalar pinned to 1 unless
    head, the word of the positions chosen before start, is given.  Each
    other position takes its q - 1 multiples, one flat gather of rows
    c * k + position, on an axis of its own added in front, so the last
    position's scalar varies slowest and the subset fastest.  Where a block
    would pass ROW_BLOCK, the first position a and its scalar c are chosen
    here, in that order, and the messages after them read recursively with
    head c R_a, or head + c R_a.
    """
    q, k = rows.shape[:2]
    pinned = head is None
    scalars = (q - 1) ** (w - pinned)
    if w and math.comb(k - start, w) * scalars > ROW_BLOCK:
        for a in range(start, k - w + 1):
            for c in range(1, 2 if pinned else q):
                yield from _messages(rows, add, w - 1, a + 1, rows[c, a]
                                     if pinned else add(head, rows[c, a]))
        return
    S = _message_subsets(k, w, scalars, ROW_BLOCK)
    S = S[S.shape[0] - math.comb(k - start, w):]
    flat = rows.reshape(q * k, -1)
    at = k * np.arange(1, q)  # the first row of each nonzero multiple
    block = (np.take(flat, S[:, 0] + at[0], axis=0) if pinned
             else head.reshape(-1))
    for slot in range(pinned, w):
        axis = (q - 1,) + (1,) * (slot - pinned + 1)
        block = add(np.take(flat, S[:, slot] + at.reshape(axis), axis=0),
                    block)
    yield block.reshape(-1, *rows.shape[2:])


@lru_cache(maxsize=32)
def _message_subsets(k: int, w: int, scalars: int, cap: int) -> np.ndarray:
    """_subsets(k, w, s) for the least s whose C(k - s, w) subsets times
    scalars fit in cap.  _messages reads every later start's subsets as a
    suffix of it, so the forms of a code share one table per weight, and
    no table is larger than the first block it serves."""
    s = 0
    while math.comb(k - s, w) * scalars > cap:
        s += 1
    return _subsets(k, w, s)


def _column_syndromes(code: LinearCode) -> np.ndarray:
    """(q, n) int64 array: entry [c, j] packs c * H[:, j] as base-q digits,
    row 0 lowest, for H = parity_check(); in characteristic 2 two packed
    syndromes add by XOR.  Callers make sure q^(n-k) fits."""
    q = code.field.order
    H = code.parity_check()
    place = np.int64(q) ** np.arange(H.shape[0], dtype=np.int64)
    digits = tables(code.field).mul[:, H].astype(np.int64)
    return (digits * place[None, :, None]).sum(axis=1)


def _rung_plan(n: int, q: int, t: int,
               windowed: bool) -> tuple[int, int, int, int]:
    """(w, width, na, nb): how rung t splits a word of weight t into an A
    side of w positions of [0, width) and a B side of the other t - w.
    Both pin their first scalar to 1, so a side of s positions on p places
    has C(p, s) (q-1)^max(s-1, 0) entries; na and nb count them.

    Unwindowed, w = t // 2 and both sides range over [0, n) (width = n),
    so an even rung's two sides are one side, counted twice.  Windowed (on
    a shift-invariant code, see _mitm_ladder), the A side is {0} and w - 1
    positions of [1, width) for width = n(w - 1) // t + 1, with na =
    C(width - 1, w - 1) (q-1)^(w-1), and the B side ranges over [1, n); w
    is the one of the fewest entries, the least on ties.
    """
    def entries(places: int, s: int) -> int:
        return math.comb(places, s) * (q - 1) ** max(s - 1, 0)

    if not windowed:
        return t // 2, n, entries(n, t // 2), entries(n, t - t // 2)

    def split(w: int) -> tuple[int, int, int, int]:
        width = n * (w - 1) // t + 1
        return (w, width, math.comb(width - 1, w - 1) * (q - 1) ** (w - 1),
                entries(n - 1, t - w))
    return min((split(w) for w in range(1, t + 1)),
               key=lambda s: s[2] + s[3])


def _shift_constant(code: LinearCode, exclude: LinearCode | None
                    ) -> int | None:
    """The least eta in GF(q)* for which the shift sigma(c) = (eta c_{n-1},
    c_0, ..., c_{n-2}) maps the code into itself, and the subcode too when
    there is one; None when no eta does.  sigma is injective, so it then
    maps each onto itself, and a word outside the subcode stays outside.

    Checked on the generator rows g: the syndrome eta g_{n-1} H[:, 0] +
    sum_j g_j H[:, j+1] of a shifted row must be 0, and the sum does not
    depend on eta, so one product per code serves every eta.
    """
    F = code.field
    T = tables(F)
    etas = range(1, F.order)
    for C in (code,) if exclude is None else (code, exclude):
        G, Ht = C.generator, C.parity_check().T
        rest = T.neg[gf_matmul(F, G[:, :-1], Ht[1:])]
        wrap = T.mul[G[:, -1:], Ht[:1]]
        etas = [eta for eta in etas if np.array_equal(T.mul[eta, wrap], rest)]
        if not etas:
            return None
    return etas[0]


def _ladder_runs(code: LinearCode) -> bool:
    """Whether the ladder can climb: characteristic 2, with syndromes that
    pack into at most 63 bits."""
    return code.field.p == 2 and (code.n - code.k) * code.field.m <= 63


def _mitm_ladder(code: LinearCode, wmax: int, outside,
                 budget: int | None = None, shift: int | None = None,
                 first: int = 1
                 ) -> tuple[int, int | None, tuple[int, ...] | None, int]:
    """Prove lower bounds by meet-in-the-middle over split supports.

    Returns (proved_lb, exact_weight_or_None, witness, work).  Rungs t =
    first, first + 1, ... run in turn where _ladder_runs holds (the caller
    has proved no word below first), and the first with a verified word
    (outside the subcode if given) gives the exact minimum.  Rung t costs
    its na + nb side entries in work; a rung past MITM_SIDE_CAP or past
    the budget is not run, and the ladder returns proved_lb = t.

    Rung t joins the sides of its _rung_plan (_mitm_side).  A word of
    weight t, scaled to first scalar 1 on its A half, is a + beta b with
    b's first scalar 1 and syn(a) = beta syn(b), so a and b share a key;
    _mitm_first finds beta.  Candidates are the pairs of equal keys, A
    entry ascending, then B entries in index order.  Unwindowed, rung 2j-1
    joins the sides of j-1 and j positions (_collisions), rung 2j the side
    of j with itself (_mitm_runs: pair (b, a) would give a multiple of the
    word of (a, b)) and rung 2j+1 reuses it as its A side.

    shift is the _shift_constant eta of the code and of the subcode that
    outside tests, which the caller has verified; it windows the rungs.
    Any verified eta serves, as the argument below uses only that sigma
    rotates supports and keeps both codes.  Let w <= t and width =
    n(w - 1) // t + 1.  The n cyclic windows of width positions hold
    t * width > n(w - 1) support hits of a weight-t word, so one of them
    holds w; sliding it to start at its first support position keeps them.
    Shifting that position to 0 and scaling to c_0 = 1 keeps the word in
    the code and outside the subcode.  So rung t's A side is the window
    side, {0} and w - 1 positions of [1, width), and its B side the t - w
    positions of [1, n); every windowed rung is two-sided.
    """
    F, n = code.field, code.n
    if not _ladder_runs(code):
        return 1, None, None, 0
    T = tables(F)
    packed = _column_syndromes(code).view(np.uint64)
    windowed = shift is not None
    start = int(windowed)  # windowed, position 0 is the window side's
    work, sides = 0, {}
    for t in range(first, wmax + 1):
        w, width, na, nb = _rung_plan(n, F.order, t, windowed)
        if na + nb > MITM_SIDE_CAP or (budget is not None
                                       and work + na + nb > budget):
            return t, None, None, work
        counts = (t - w,) if windowed else (w, t - w)
        # sides that no rung reads again are dropped before this one's are
        # built, so the two never share the peak memory
        side_a = side_b = None
        sides = {c: sides[c] for c in counts if c in sides}
        for c in counts:
            sides[c] = sides.get(c) or _mitm_side(
                packed, _subsets(n, c, start), T)
        side_a, side_b = sides.get(w), sides[t - w]
        if windowed:  # position 0, then w - 1 positions of [1, width)
            sub_a = _subsets(width, w - 1, 1)
            side_a = _mitm_side(packed, np.hstack(
                [np.zeros((len(sub_a), 1), sub_a.dtype), sub_a]), T)
        hit, lo, hi = (_mitm_runs(side_b[0]) if side_a is side_b
                       else _collisions(side_a[0], side_b[0]))
        ia = (side_a[0][hit] & _IDX_MASK).astype(np.intp)
        order = np.argsort(ia)
        work += na + nb
        word = _mitm_first(n, ia[order], lo[order], hi[order], side_b[0],
                           side_a[1:], side_b[1:], outside, packed, T)
        if word is not None:
            return t, t, word, work
    return wmax + 1, None, None, work


def _key_hash(packed: np.ndarray):
    """The map h of the sort keys of packed syndromes: None, the identity,
    when every syndrome fits in the key's top 64 - IDX_BITS bits (r*m +
    IDX_BITS <= 64, so every code with at most 2^24 syndromes), else
    _multiplicative_hash.  Low bits are not simply dropped: the unit
    columns of the parity check make sparse syndromes that agree in their
    high bits by the thousand."""
    if int(packed.max()) >> (64 - IDX_BITS) == 0:
        return None
    return _multiplicative_hash


def _multiplicative_hash(syn: np.ndarray) -> None:
    """syn -> h(syn) << IDX_BITS in place on uint64: the top 64 - IDX_BITS
    bits of syn times an odd constant, modulo 2^64."""
    syn *= _HASH_MULTIPLIER
    syn &= ~_IDX_MASK


def _mitm_side(packed: np.ndarray, subsets: np.ndarray, T: FieldTables
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sorted keys of the given (C, t) position subsets, first scalar 1.

    Returns (key, subsets, scalars): the subsets as given (from _subsets),
    the (S, t) scalar tuples in product order, each starting with 1, and
    one sorted uint64 array of h(_canonical(syn)) << IDX_BITS | e for each
    entry e, where entry s*C + i is subsets[i] carrying scalars[s], syn is
    its syndrome and h is _key_hash(packed): all GF(q)* multiples of syn
    have one key, and equal keys come in index order.  For t = 0 the side
    is one empty entry with syndrome 0.
    """
    q = packed.shape[0]
    count, t = subsets.shape
    free = max(t - 1, 0)
    scalars = np.array([(1,) * min(t, 1) + s for s in itertools.product(
        range(1, q), repeat=free)], dtype=np.uint8)
    cols = packed.view(np.uint64)
    key = np.zeros(scalars.shape[0] * count, dtype=np.uint64)
    # key viewed as (q-1,) * free + (count,): a free slot's axis runs over
    # its scalar, so each slot adds its multiples by one broadcast XOR
    grid = key.reshape((q - 1,) * free + (count,))
    for slot in range(t):
        shape = [1] * free + [count]
        if slot:
            shape[slot - 1] = q - 1
        # row 1 alone for the pinned first slot, rows 1 .. q-1 otherwise
        grid ^= cols[1:q if slot else 2, subsets[:, slot]].reshape(shape)
    _canonical(key, T)
    h = _key_hash(packed)
    if h is None:
        key <<= IDX_BITS
    else:
        h(key)
    index = np.arange(count, dtype=np.uint64)
    for row in key.reshape(-1, count):
        row |= index
        index += np.uint64(count)
    key.sort()
    return key, subsets, scalars


def _canonical(syn: np.ndarray, T: FieldTables) -> np.ndarray:
    """Scale each packed syndrome of syn (uint64, in place) by the inverse
    of its lowest nonzero base-q digit, q = 2^m, so that all GF(q)*
    multiples of a syndrome take one form, and return those digits as
    uint8 (0 for syndrome 0, which stays 0).  A digit x times g is the XOR
    of g x^i over the bits i of x, so each bit plane of syn, moved to bit 0
    of every digit, is multiplied as an integer by g x^i < 2^m, which
    carries into no other digit.  Chunks of ROW_BLOCK entries reuse scratch
    arrays made once; over GF(2) every syndrome is already in form."""
    if T.order == 2:
        return (syn != 0).view(np.uint8)
    m = T.field.m
    ones = np.uint64(sum(1 << j for j in range(0, 64, m)))
    # scale[i, d] = x^i / d, and 0 for d = 0
    scale = T.mul[T.inv[:, None], 1 << np.arange(m)].T.astype(np.uint64)
    low = np.empty(syn.size, dtype=np.uint8)
    span = min(syn.size, ROW_BLOCK) or 1
    scratch = [np.empty(span, dt) for dt in (np.uint64,) * 3 + (np.intp,)]
    for a in range(0, syn.size, span):
        s, d = syn[a:a + span], low[a:a + span]
        b, p, acc, e = (x[:s.size] for x in scratch)
        # bit 0 of every nonzero digit, then the bits below the lowest one
        b[...] = s
        for i in range(1, m):
            np.right_shift(s, np.uint64(i), out=p)
            b |= p
        b &= ones
        np.negative(b, out=p)
        b &= p
        b -= np.uint64(1)
        np.bitwise_count(b, out=p, casting="unsafe")
        np.right_shift(s, p, out=b)
        np.bitwise_and(b, np.uint64(T.order - 1), out=e, casting="unsafe")
        d[...] = e
        acc.fill(0)
        for i in range(m):
            np.take(scale[i], e, out=b)
            np.right_shift(s, np.uint64(i), out=p)
            p &= ones
            p *= b
            acc ^= p
        s[...] = acc
    return low


@lru_cache(maxsize=32)
def _subsets(n: int, t: int, start: int = 0) -> np.ndarray:
    """The t-subsets of range(start, n) in lexicographic order, as a
    read-only (C, t) array of the smallest unsigned dtype that holds n - 1;
    the ladders of one search ask for the same few tables again and again.

    Built one slot at a time: each subset so far is repeated once for every
    value that may follow its last element, leaving room for the slots
    after it, and those values are appended in ascending order.
    """
    dtype = np.min_scalar_type(max(n - 1, 0))
    out = np.zeros((1, 0), dtype=dtype)
    last = np.full(1, start - 1, dtype=np.intp)
    for slot in range(t):
        # the next value runs over last + 1 .. n - t + slot
        count = np.maximum(n - t + slot - last, 0)
        offset = np.cumsum(count) - count
        last = np.repeat(last + 1 - offset, count) + np.arange(int(count.sum()))
        out = np.hstack([np.repeat(out, count, axis=0),
                         last.astype(dtype)[:, None]])
    out.setflags(write=False)
    return out


def _collisions(key_a: np.ndarray, key_b: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(hit, lo, hi): the ascending positions in sorted key_a of the
    entries whose hash some entry of sorted key_b shares, and the bounds
    [lo, hi) of the run of that hash in key_b.

    The smaller side's hashes, with adjacent repeats dropped, are
    binary-searched in the larger side once; the A runs of the hashes met
    are then expanded entry by entry.
    """
    swap = key_b.size < key_a.size
    small, large = (key_b, key_a) if swap else (key_a, key_b)
    if not small.size:
        return (np.zeros(0, dtype=np.intp),) * 3
    h = small & ~_IDX_MASK
    start = np.flatnonzero(np.append(True, h[1:] != h[:-1]))
    end = np.append(start[1:], h.size)
    lo = np.searchsorted(large, h[start], side="left")
    hi = np.searchsorted(large, h[start] | _IDX_MASK, side="right")
    runs = ((lo, hi), (start, end))
    (a_lo, a_hi), (b_lo, b_hi) = runs if swap else runs[::-1]
    met = hi > lo
    a_lo, count = a_lo[met], (a_hi - a_lo)[met]
    hit = (np.repeat(a_lo - (np.cumsum(count) - count), count)
           + np.arange(int(count.sum())))
    return hit, np.repeat(b_lo[met], count), np.repeat(b_hi[met], count)


def _mitm_runs(key: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(pos, lo, hi): the positions in the sorted key of the entries that
    share their hash with a later entry, and the bounds [lo, hi) = [pos +
    1, end of run) of those later entries, read off the flags that join
    neighbours of equal hash in the runs of two or more entries."""
    joined = np.zeros(key.size + 1, dtype=bool)  # entries i-1, i hash alike
    for i in range(1, key.size, MITM_CHUNK):
        j = min(i + MITM_CHUNK, key.size)
        np.less_equal(key[i:j] ^ key[i - 1:j - 1], _IDX_MASK, out=joined[i:j])
    pos = np.flatnonzero(joined[:-1] | joined[1:])
    later = joined[pos + 1]
    run = np.cumsum(~joined[pos]) - 1
    pos, hi = pos[later], (pos[~later] + 1)[run[later]]
    return pos, pos + 1, hi


def _mitm_first(n: int, hit: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                key_b: np.ndarray, side_a, side_b, outside,
                packed: np.ndarray, T: FieldTables) -> tuple[int, ...] | None:
    """First colliding pair whose supports are disjoint and whose word is
    outside the subcode, as a word; None when there is none.

    A entry hit[h], with hit ascending, collides with the B entries at
    positions lo[h]:hi[h] of key_b, whose low IDX_BITS bits are their
    indices.  Pairs are expanded in that order, in chunks that grow from
    FIRST_BLOCK up to MITM_CHUNK (_growing), and pairs of overlapping
    supports (weight below t) are dropped.  Both halves' syndromes are
    put in form (_canonical): forms that differ met on a hash collision,
    and equal ones give syn_a = beta syn_b, beta the ratio of the lowest
    digits, and the word a + beta b.  When both syndromes are 0, beta = 1:
    an empty half is the zero word, or both halves are codewords lighter
    than t, in the subcode once the rungs below t (or the caller's floor)
    are proved, and so is their sum.  The words meet the subcode test in
    blocks that grow from FIRST_BLOCK up to WORD_BLOCK, and the first word
    outside it ends the search; chunks and blocks keep the candidate
    order, so the word is the same for any sizes.
    """
    (sub_a, scal_a), (sub_b, scal_b) = side_a, side_b
    ca, cb = sub_a.shape[0], sub_b.shape[0]
    count = hi - lo
    ends = np.cumsum(count)
    total = int(ends[-1]) if ends.size else 0
    for p0, p1 in _growing(total, MITM_CHUNK):
        # hits h0 .. h1-1 hold pairs p0 .. p1-1; trim the first and last
        h0 = int(np.searchsorted(ends, p0, side="right"))
        h1 = int(np.searchsorted(ends, p1 - 1, side="right")) + 1
        first, last = lo[h0:h1].copy(), hi[h0:h1].copy()
        first[0] += p0 - (ends[h0] - count[h0])
        last[-1] -= ends[h1 - 1] - p1
        lens = last - first
        ia = np.repeat(hit[h0:h1], lens)
        ib = (key_b[np.repeat(first - (np.cumsum(lens) - lens), lens)
                    + np.arange(p1 - p0)] & _IDX_MASK).astype(np.intp)
        pos_a, pos_b = sub_a[ia % ca], sub_b[ib % cb]
        val_a, val_b = scal_a[ia // ca], scal_b[ib // cb]
        keep = ~(pos_a[:, :, None] == pos_b[:, None, :]).any(axis=(1, 2))
        syn = np.zeros((2, keep.size), dtype=np.uint64)
        for s, pos, val in ((syn[0], pos_a, val_a), (syn[1], pos_b, val_b)):
            for slot in range(pos.shape[1]):
                s ^= packed[val[:, slot], pos[:, slot]]
        digits = _canonical(syn.reshape(-1), T).reshape(2, -1)
        keep &= syn[0] == syn[1]
        beta = np.maximum(T.mul[digits[0], T.inv[digits[1]]], 1)
        rows = np.nonzero(keep)[0]
        if outside is None:
            rows = rows[:1]
        for b0, b1 in _growing(rows.size, WORD_BLOCK):
            block = rows[b0:b1]
            words = np.zeros((block.size, n), dtype=np.uint8)
            at = np.arange(block.size)[:, None]
            words[at, pos_a[block]] = val_a[block]
            words[at, pos_b[block]] = T.mul[beta[block, None], val_b[block]]
            if outside is not None:
                words = words[outside(words)]
            if words.shape[0]:
                return tuple(int(x) for x in words[0])
    return None


def _growing(total: int, cap: int):
    """(start, stop) spans that cover range(total) in order: the first
    FIRST_BLOCK long, each next one twice the last, none longer than cap."""
    start, size = 0, min(FIRST_BLOCK, cap)
    while start < total:
        stop = min(start + size, total)
        yield start, stop
        start, size = stop, min(2 * size, cap)


def _pack_planes(words: np.ndarray, m: int) -> np.ndarray:
    """(N, n) words over GF(2^m) as (N, m, W) uint64 bit planes, W =
    ceil(n / 64): bit j % 8 of byte j // 8 of plane b holds bit b of
    coordinate j (bit j % 64 of word j // 64 on little-endian hosts), and
    the bits past n are 0."""
    N, n = words.shape
    bits = np.unpackbits(words[:, None, :], axis=1, count=m, bitorder="little")
    planes = np.zeros((N, m, -(-n // 64) * 8), dtype=np.uint8)
    planes[:, :, :-(-n // 8)] = np.packbits(bits, axis=-1, bitorder="little")
    return planes.view(np.uint64)


def _unpack_planes(planes: np.ndarray, n: int) -> np.ndarray:
    """The (N, n) uint8 words of _pack_planes' (N, m, W) bit planes."""
    bits = np.unpackbits(planes.view(np.uint8), axis=-1, count=n,
                         bitorder="little")
    return np.packbits(bits, axis=1, bitorder="little")[:, 0]


def _plane_weights(planes: np.ndarray) -> np.ndarray:
    """Weights of (N, m, W) bit-plane rows: a coordinate is nonzero where
    any plane has its bit set, so the popcount of the planes' OR, summed
    over the W words.  Each step reads one word of every row, as numpy is
    slow on inner loops of m or W elements."""
    rows, m, width = planes.shape
    w = np.zeros(rows, dtype=np.intp)
    for i in range(width):
        support = planes[:, 0, i]
        for b in range(1, m):
            support = support | planes[:, b, i]
        w += np.bitwise_count(support)
    return w


def _byte_weights(words: np.ndarray) -> np.ndarray:
    """Weights of (N, n) rows of field bytes."""
    return np.count_nonzero(words, axis=1)


def _infoset_upper(code: LinearCode, iters: int, seed: int, outside,
                   floor: int = 1) -> tuple[int, tuple[int, ...] | None, int]:
    """Seeded information-set search for low-weight codewords (Lee and
    Brickell 1988).

    Each iteration has its own systematic form, the RREF after a random
    column permutation moved back to code coordinates.  The permutations
    are drawn first, and one stacked elimination (_stacked_rref) gives all
    the forms.  Form by form, the scan reads every message of weight 1, 2
    and 3 with first nonzero scalar 1 through _messages, one weight after
    the other, and each block keeps its first lightest word outside the
    subcode (_lightest).  So the first lightest word in that order wins,
    whatever ROW_BLOCK is.  The scan stops at the first block with a word
    of weight floor, a weight that the caller has proved no word falls
    below: no later row can beat it.
    """
    F = code.field
    rng = np.random.default_rng(seed)
    n, k, q = code.n, code.k, F.order
    add, weigh, pack, unpack = _row_ops(F, n)
    perms = np.array([rng.permutation(n) for _ in range(iters)],
                     dtype=np.intp).reshape(iters, n)
    best, witness, work = n + 1, None, 0
    for form in _stacked_rref(F, code.generator, perms):
        rows = pack(tables(F).mul[:, form].reshape(q * k, n))
        rows = rows.reshape(q, k, *rows.shape[1:])
        for block in itertools.chain.from_iterable(
                _messages(rows, add, w) for w in (1, 2, 3)):
            work += block.shape[0]
            found = _lightest(block, weigh(block), best, outside, unpack)
            del block  # freed before _messages builds the next one
            if found is not None:
                best, witness = found
                if best <= floor:
                    return best, witness, work
    return best, witness, work


def _information_set(code: LinearCode, outside, budget: int | None,
                     seed: int, floor: int = 1,
                     shift: int | None = None) -> _Bounds:
    """ub by seeded information-set enumeration: INFOSET_ITERS iterations,
    or as many as the budget pays for, stopping at a word of weight floor;
    lb is 1, and the ladder's climb before it or the caller's floor
    proves more.  The scan reads no shift."""
    runs, note = INFOSET_ITERS, ""
    if budget is not None:
        # an iteration runs only if all the rows it reads fit
        q, k = code.field.order, code.k
        rows = k + (q - 1) * math.comb(k, 2) + (q - 1) ** 2 * math.comb(k, 3)
        runs = min(INFOSET_ITERS, budget // rows)
        if runs < INFOSET_ITERS:
            note = (f"budget {budget} paid for {runs} of {INFOSET_ITERS} "
                    f"information-set iterations")
    ub, witness, work = _infoset_upper(code, runs, seed, outside, floor)
    return 1, ub, witness, work, note


_ENGINES = {"exhaustive": _brouwer_zimmermann,
            "information_set": _information_set}

# the ladder's top rung before the information-set search
INFOSET_LADDER_REACH = 6


def _auto_engine(code: LinearCode) -> tuple[str, int]:
    """(engine, reach): the engine automatic dispatch picks and the top
    rung of the ladder before it.  A code of at most SYNDROME_CAP_*
    syndromes and fewer syndromes than codewords, or more codewords than
    EXHAUSTIVE_CAP, is enumerated after a climb of its length (the ladder
    stops at MITM_SIDE_CAP or the budget); else a code of at most
    EXHAUSTIVE_CAP codewords with no climb, and any other after rungs up to
    INFOSET_LADDER_REACH by the information-set search."""
    F = code.field
    q, r = F.order, code.n - code.k
    few = q ** r <= (SYNDROME_CAP_CHAR2 if F.p == 2 else SYNDROME_CAP_ODD)
    small = q ** code.k <= EXHAUSTIVE_CAP
    if few and (r < code.k or not small):
        return "exhaustive", code.n
    if small:
        return "exhaustive", 0
    return "information_set", INFOSET_LADDER_REACH


def min_distance(code: LinearCode, strategy: str = "auto",
                 budget: int | None = None, seed: int = 1,
                 floor: tuple[int, str] | None = None) -> DistanceResult:
    """Certified (lb, ub) bounds on the minimum distance; equal means exact.

    floor is (d, proof): the caller's proof, as text for the note, that no
    nonzero word weighs less than d, such as a BCH bound read off a
    defining set.  The engines start from it (see _distance_engine), and a
    witness lighter than d raises RuntimeError.
    """
    return _distance_engine(code, None, strategy, budget, seed, floor)


def min_weight_outside(code: LinearCode, subcode: LinearCode,
                       strategy: str = "auto", budget: int | None = None,
                       seed: int = 1) -> DistanceResult:
    """Bounds on the minimum weight over codewords of `code` not in `subcode`."""
    if not code.contains_code(subcode):
        raise ValueError("subcode is not contained in the code")
    if subcode.k == code.k:
        return _sentinel(code, "trivial", time.perf_counter())
    return _distance_engine(code, subcode, strategy, budget, seed)


def _distance_engine(code: LinearCode, exclude: LinearCode | None, strategy: str,
                     budget: int | None, seed: int,
                     floor: tuple[int, str] | None = None) -> DistanceResult:
    """Pick the engine, climb the ladder before it on the routes that
    climb, and finish on the budget the climb left (see the module
    docstring).

    A caller's floor (d, proof) only removes work.  The ladder starts at
    rung d; before the information-set search it is not climbed at all,
    nor the shift sought, when d > INFOSET_LADDER_REACH.  The finishing
    engine stops at its first word of weight d, or of the ladder's floor
    when that is higher.  lb is the greatest of the engine's, the
    ladder's and d, and the note names the proof; a witness lighter than
    d raises, as any lb > ub does.
    """
    t0 = time.perf_counter()
    if code.k == 0:
        return _sentinel(code, "trivial", t0)
    if strategy == "auto":
        name, reach = _auto_engine(code)
    elif strategy in _ENGINES:
        name = strategy
        reach = INFOSET_LADDER_REACH if name == "information_set" else 0
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    given, proof = (1, "") if floor is None else floor
    outside = _outside_test(code, exclude)
    climbs = _ladder_runs(code) and reach >= given
    # the ladder and the enumeration are the readers of the shift
    shift = (_shift_constant(code, exclude)
             if climbs or name == "exhaustive" else None)
    ladder_lb, exact_w, word, climb = 1, None, None, 0
    if climbs:
        ladder_lb, exact_w, word, climb = _mitm_ladder(
            code, reach, outside, budget, shift=shift, first=given)
    if exact_w is not None:
        name = "information_set"
        lb = ub = exact_w
        witness, work, note = word, climb, "exact: meet-in-the-middle ladder"
    else:
        left = None if budget is None else budget - climb
        lb, ub, witness, work, note = _ENGINES[name](
            code, outside, left, seed, max(given, ladder_lb), shift)
        lb, work = max(lb, ladder_lb), work + climb
        # the note names the ladder only where one of its rungs ran
        if climb and name == "information_set":
            note = "; ".join(filter(None, (
                f"lb by meet-in-the-middle ladder to weight {ladder_lb - 1}",
                note)))
        elif climb:
            note += f"; ladder to weight {ladder_lb - 1} first"
    if given > 1:
        lb = max(lb, given)
        note = "; ".join(filter(None, (f"floor {given} by {proof}", note)))
    if lb > ub:
        raise RuntimeError(f"{name}: lower bound {lb} exceeds the weight {ub} "
                           f"of a witness")
    return DistanceResult(lb, ub, name,
                          seed if name == "information_set" else None,
                          time.perf_counter() - t0, work, witness, note)


@dataclass
class EquivalenceResult:
    status: str                 # "equivalent" | "not_equivalent" | "unknown"
    witness: MonomialTransform | None
    reason: str
    work: int


def _column_profiles(code: LinearCode, words: np.ndarray) -> list[bytes]:
    """Per-column invariant: weight histogram of codewords nonzero there."""
    n = code.n
    weights = np.count_nonzero(words, axis=1)
    profiles = []
    for j in range(n):
        nz = words[:, j] != 0
        hist = np.bincount(weights[nz], minlength=n + 1)
        profiles.append(hist.tobytes())
    return profiles


def brute_force_equivalence(code1: LinearCode, code2: LinearCode,
                            mode: str = "monomial",
                            budget: int = 1 << 22) -> EquivalenceResult:
    """Search for a monomial (or pure permutation) map sending code1 to code2.

    Code 2's pivot columns P are an information set, so the sources s of P
    force the rest of a map (Leon's partition backtrack): with Y =
    G1[:, s]^-1 G1 and D the scalars on P, the other columns pair up as
    d_j Y[:, u] = D G2[:, j].  The sorted base-q packings of D G2's other
    columns, each scaled to a leading 1 under monomial maps, key a table
    built once over every D with D_0 = 1 (scaling all coordinates keeps a
    code), or D = 1 for permutations.  A leaf is an ordered choice s of
    sources whose column profiles match P's; it is a hit when Y's other
    columns, packed the same way, are a key, and the witness pairs equal
    packings in stable order, its scalars read off the leading entries.
    When a shift with constant eta (eta = 1 for permutations) keeps code1,
    composing with its powers moves the source of P_0 to column 0, so only
    that source is tried.  Exhausting the leaves certifies non-equivalence;
    budget caps both q^k and the leaves tried.

    When k > n - k the search runs on the Euclidean duals instead, which
    have fewer codewords and sources to choose: PD takes code1 to code2
    exactly when PD^-1 takes code1's dual to code2's, so a dual witness
    keeps its permutation, has its scalars inverted and is re-verified on
    the codes given.
    """
    if mode not in ("monomial", "permutation"):
        raise ValueError(f"unknown mode {mode!r}")
    F = code1.field
    if code1.field.key != code2.field.key or code1.n != code2.n:
        return EquivalenceResult("not_equivalent", None, "different ambient spaces", 0)
    if code1.k != code2.k:
        return EquivalenceResult("not_equivalent", None, "different dimensions", 0)
    n, k = code1.n, code1.k
    if code1 == code2:
        return EquivalenceResult("equivalent", MonomialTransform.identity(n),
                                 "identical generators", 0)
    if k == 0 or k == n:
        return EquivalenceResult("equivalent", MonomialTransform.identity(n),
                                 "degenerate dimension", 0)
    if 2 * k > n:
        res = brute_force_equivalence(code1.euclidean_dual(),
                                      code2.euclidean_dual(), mode, budget)
        if res.witness is not None:
            res.witness = MonomialTransform(res.witness.perm, tuple(
                F.inv(d) for d in res.witness.diagonal))
            if apply_monomial(code1, res.witness) != code2:
                raise RuntimeError("a dual witness failed re-verification")
        return res
    q = F.order
    if q ** k > budget:
        return EquivalenceResult("unknown", None,
                                 f"codeword space q^k = {q ** k} exceeds budget", 0)
    words1 = code1.codewords(budget)
    words2 = code2.codewords(budget)
    work = words1.shape[0] + words2.shape[0]
    wd1 = np.bincount(np.count_nonzero(words1, axis=1), minlength=n + 1)
    wd2 = np.bincount(np.count_nonzero(words2, axis=1), minlength=n + 1)
    if not np.array_equal(wd1, wd2):
        return EquivalenceResult("not_equivalent", None,
                                 "weight distributions differ", work)
    prof1 = _column_profiles(code1, words1)
    prof2 = _column_profiles(code2, words2)
    if sorted(prof1) != sorted(prof2):
        return EquivalenceResult("not_equivalent", None,
                                 "column weight profiles differ", work)

    T = tables(F)
    P = code2.pivots
    rest2 = [j for j in range(n) if j not in P]
    place = q ** np.arange(k, dtype=np.int64)

    def pack(cols: np.ndarray) -> np.ndarray:
        """The columns of a (..., k, m) array as base-q numbers, each
        scaled to a leading 1 under monomial maps."""
        if mode == "monomial":
            first = (cols != 0).argmax(axis=-2)[..., None, :]
            cols = T.mul[T.inv[np.take_along_axis(cols, first, axis=-2)], cols]
        return place @ cols

    scalings = np.array([(1, *d) for d in itertools.product(
        range(1, q) if mode == "monomial" else (1,), repeat=k - 1)],
        dtype=np.uint8)
    images = T.mul[scalings[:, :, None], code2.generator[None]]
    table: dict[bytes, np.ndarray] = {}
    for key, image in zip(np.sort(pack(images[:, :, rest2]), axis=1), images):
        table.setdefault(key.tobytes(), image)

    # candidates[i] = source columns allowed to map onto pivot target P[i]
    candidates = [[s for s in range(n) if prof1[s] == prof2[p]] for p in P]
    eta = _shift_constant(code1, None)
    if eta is not None and (mode == "monomial" or eta == 1):
        candidates[0] = [s for s in candidates[0] if s == 0]

    def choices(i: int, chosen: list[int]):
        if i == k:
            yield chosen
            return
        for s in candidates[i]:
            if s not in chosen:
                yield from choices(i + 1, chosen + [s])

    leaves = 0
    for s in choices(0, []):
        leaves += 1
        if leaves > budget:
            return EquivalenceResult("unknown", None, "search budget exhausted",
                                     work + leaves)
        rest1 = [u for u in range(n) if u not in s]
        R, pivots = rref(F, code1.generator[:, s + rest1])
        if pivots != tuple(range(k)):
            continue
        Y = R[:, k:]
        packed = pack(Y)
        image = table.get(np.sort(packed).tobytes())
        if image is None:
            continue
        perm, diag = [0] * n, [1] * n
        for i, (u, j) in enumerate(zip(s, P)):
            perm[u], diag[j] = j, int(image[i, j])
        for a, b in zip(np.argsort(packed, kind="stable"),
                        np.argsort(pack(image[:, rest2]), kind="stable")):
            u, j = rest1[a], rest2[b]
            r = int((Y[:, a] != 0).argmax())
            # a zero column's ratio reads 0; it takes scalar 1
            perm[u], diag[j] = j, int(T.mul[image[r, j], T.inv[Y[r, a]]]) or 1
        M = MonomialTransform(tuple(perm), tuple(diag))
        if apply_monomial(code1, M) != code2:
            raise RuntimeError("a forced completion failed re-verification")
        return EquivalenceResult("equivalent", M, "witness found and re-verified",
                                 work + leaves)
    return EquivalenceResult("not_equivalent", None,
                             "all class-consistent pivot sources exhausted",
                             work + leaves)
