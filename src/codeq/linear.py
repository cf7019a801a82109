"""Linear codes over small Galois fields with numpy-backed arithmetic.

Vectors and matrices hold integer field encodings (see codeq.fields) in
uint8 arrays; arithmetic is elementwise table lookup, so everything here
works for any field of order <= 256.  Generator matrices are kept in
reduced row-echelon form, which is unique per row space, so two codes are
equal exactly when their generator arrays are equal.

Minimum-distance work picks between three engines: full codeword
enumeration when q^k is small, a syndrome-space dynamic program when
q^(n-k) fits in memory (exact distances for things like [54,43] over
GF(4)), and for the rest a meet-in-the-middle ladder that certifies lower
bounds plus a seeded information-set search for upper bounds.

The dynamic program keeps one uint8 table of least weights per syndrome
and builds no index array of table size.  It starts in closed form from
the unit columns of the parity check (a syndrome's count of nonzero
digits) and then adds the pivot columns.  In characteristic 2 the
multiples of a column span an F2-subspace, so each column costs m
butterflies min(t[x], t[x ^ s]) over XOR views of the table; in odd
characteristic each multiple is a shift by digit arithmetic, one take per
nonzero digit along that digit's axis.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from codeq.fields import GaloisField

_TABLE_CAP = 256
EXHAUSTIVE_CAP = 1 << 22
EXHAUSTIVE_CEILING = 1 << 28
DP_CAP_CHAR2 = 1 << 24
DP_CAP_ODD = 1 << 18
MITM_SIDE_CAP = 1 << 23
INFOSET_DEFAULT_ITERS = 8
GF4_CONJ = np.array([0, 1, 3, 2], dtype=np.uint8)


class FieldTables:
    """Dense numpy operation tables for one field of order <= 256."""

    __slots__ = ("field", "order", "add", "mul", "neg", "inv")

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
            scaled = T.mul[T.neg[col[hit]][:, None], A[r][None, :]]
            A[hit] = T.add[A[hit], scaled]
        pivots.append(c)
        r += 1
    return A[:r], tuple(pivots)


def gf_matmul(F: GaloisField, A, B) -> np.ndarray:
    """Matrix product over F via accumulated table lookups."""
    T = tables(F)
    A = as_matrix(F, A)
    B = as_matrix(F, B)
    if A.shape[1] != B.shape[0]:
        raise ValueError(f"shape mismatch {A.shape} x {B.shape}")
    out = np.zeros((A.shape[0], B.shape[1]), dtype=np.uint8)
    for l in range(A.shape[1]):
        out = T.add[out, T.mul[A[:, l][:, None], B[l][None, :]]]
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
        """(n-k) x n matrix H with H @ c = 0 exactly for codewords c."""
        T = tables(self.field)
        free = [c for c in range(self.n) if c not in set(self.pivots)]
        H = np.zeros((len(free), self.n), dtype=np.uint8)
        for row, f in enumerate(free):
            H[row, f] = 1
            for i, p in enumerate(self.pivots):
                H[row, p] = T.neg[self.generator[i, f]]
        return H

    def euclidean_dual(self) -> "LinearCode":
        return LinearCode.from_rows(self.field, self.parity_check(), self.n)

    def conjugate(self) -> "LinearCode":
        """Entrywise a -> a^2 over GF(4)."""
        if self.field.order != 4:
            raise ValueError("conjugation table is specific to GF(4)")
        return LinearCode.from_rows(self.field, GF4_CONJ[self.generator], self.n)

    def hermitian_dual(self) -> "LinearCode":
        if self.field.order != 4:
            raise ValueError("Hermitian duals are defined here over GF(4) only")
        return self.conjugate().euclidean_dual()

    def contains(self, vec) -> bool:
        T = tables(self.field)
        v = np.array(vec, dtype=np.uint8).reshape(-1).copy()
        if v.shape[0] != self.n:
            raise ValueError(f"vector length {v.shape[0]} != {self.n}")
        for i, p in enumerate(self.pivots):
            c = int(v[p])
            if c:
                v = T.add[v, T.mul[T.neg[c], self.generator[i]]]
        return not v.any()

    def contains_code(self, other: "LinearCode") -> bool:
        return all(self.contains(row) for row in other.generator)

    def sum_code(self, other: "LinearCode") -> "LinearCode":
        self._check_context(other)
        stacked = np.vstack([self.generator, other.generator])
        return LinearCode.from_rows(self.field, stacked, self.n)

    def intersection(self, other: "LinearCode") -> "LinearCode":
        self._check_context(other)
        dual_sum = self.euclidean_dual().sum_code(other.euclidean_dual())
        return dual_sum.euclidean_dual()

    def hull_dim_hermitian(self) -> int:
        return self.intersection(self.hermitian_dual()).k

    def codewords(self, cap: int = EXHAUSTIVE_CAP) -> np.ndarray:
        """All q^k codewords as a (q^k, n) array; guarded by cap."""
        q = self.field.order
        total = q ** self.k
        if total > cap:
            raise ValueError(f"too large: {total} codewords exceeds cap {cap}")
        msgs = _messages(q, self.k, 0, total)
        return gf_matmul(self.field, msgs, self.generator)

    def _check_context(self, other: "LinearCode") -> None:
        if self.field.key != other.field.key or self.n != other.n:
            raise ValueError("codes live in different ambient spaces")


def _messages(q: int, k: int, start: int, stop: int) -> np.ndarray:
    idx = np.arange(start, stop, dtype=np.int64)
    out = np.empty((idx.size, k), dtype=np.uint8)
    for i in range(k):
        out[:, i] = (idx // q ** i) % q
    return out


@dataclass(frozen=True)
class WeightDistribution:
    n: int
    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.counts) != self.n + 1:
            raise ValueError("counts must have length n+1")


def weight_distribution(code: LinearCode, budget: int = 1 << 28) -> WeightDistribution:
    """Exact weight enumerator by message-space enumeration."""
    q = code.field.order
    total = q ** code.k
    if total > budget:
        raise ValueError(f"too large: q^k = {total} exceeds budget {budget}")
    counts = np.zeros(code.n + 1, dtype=np.int64)
    chunk = 1 << 16
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        words = gf_matmul(code.field, _messages(q, code.k, start, stop),
                          code.generator)
        w = np.count_nonzero(words, axis=1)
        counts += np.bincount(w, minlength=code.n + 1)
    return WeightDistribution(code.n, tuple(int(c) for c in counts))


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
    complete: bool
    witness: tuple[int, ...] | None = None
    note: str = ""

    @property
    def exact(self) -> bool:
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
                          True, None, "zero-dimensional: sentinel n+1")


def _exhaustive_min(code: LinearCode, exclude: LinearCode | None,
                    budget: int | None
                    ) -> tuple[int, tuple[int, ...] | None, int, bool]:
    """Min weight over code (minus exclude) by codeword enumeration.

    Returns (weight, witness, work, complete).  With a budget below q^k only
    the first `budget` codewords are read and complete is False; the weight
    is then the lowest seen (n+1 when none qualified), an upper bound only.
    """
    q = code.field.order
    total = q ** code.k
    if budget is None and total > EXHAUSTIVE_CEILING:
        raise ValueError(f"too large: {total} codewords exceeds cap "
                         f"{EXHAUSTIVE_CEILING}")
    stop_at = total if budget is None else min(total, budget)
    Hx = exclude.parity_check().T if exclude is not None else None
    best, witness, work = code.n + 1, None, 0
    chunk = 1 << 16
    for start in range(0, stop_at, chunk):
        stop = min(start + chunk, stop_at)
        words = gf_matmul(code.field, _messages(q, code.k, start, stop),
                          code.generator)
        work += words.shape[0]
        w = np.count_nonzero(words, axis=1).astype(np.int64)
        w[w == 0] = code.n + 2
        if Hx is not None:
            syn = gf_matmul(code.field, words, Hx)
            inside = ~syn.any(axis=1)
            w[inside] = code.n + 2
        i = int(np.argmin(w))
        if int(w[i]) < best:
            best = int(w[i])
            witness = tuple(int(x) for x in words[i])
    return best, witness, work, stop_at == total


class _SyndromeSpace:
    """Indexing of GF(q)^r syndromes plus vector-add as an index op."""

    def __init__(self, F: GaloisField, r: int):
        self.F = F
        self.r = r
        self.q = F.order
        self.size = self.q ** r
        self.char2 = F.p == 2
        self.T = tables(F)

    def pack(self, vec) -> int:
        """Index of one syndrome vector: its base-q digits, row 0 lowest.

        In characteristic 2 digit i sits in bits [i*m, (i+1)*m) and adding
        syndromes is XOR of indices.
        """
        s = 0
        for i, v in enumerate(vec):
            s += int(v) * self.q ** i
        return s

    def add_index(self, idx: int, vec_idx: int) -> int:
        """Index of syndrome(idx) + syndrome(vec_idx), scalar version."""
        if self.char2:
            return idx ^ vec_idx
        F = self.F
        out = 0
        for i in range(self.r):
            a = (idx // self.q ** i) % self.q
            b = (vec_idx // self.q ** i) % self.q
            out += F.add(int(a), int(b)) * self.q ** i
        return out

    def neg_index(self, idx: int) -> int:
        if self.char2:
            return idx
        F = self.F
        out = 0
        for i in range(self.r):
            a = (idx // self.q ** i) % self.q
            out += F.neg(int(a)) * self.q ** i
        return out

    def shifted_gather(self, dist: np.ndarray, vec_idx: int) -> np.ndarray:
        """dist re-indexed so entry t reads dist[t - syndrome(vec_idx)].

        Odd characteristic only (characteristic 2 uses _XorBlocks): one take
        along each nonzero digit's axis of the (q,)*r view, indexed by the
        field's addition table.
        """
        q, r = self.q, self.r
        out = dist.reshape((q,) * r)
        neg = self.neg_index(vec_idx)
        for i in range(r):
            v = neg // q ** i % q
            if v:
                out = np.take(out, self.T.add[:, v], axis=r - 1 - i)
        return out.reshape(-1)


class _XorBlocks:
    """Butterflies out[x] = min(src[x], src[x ^ s]) over a 2^bits uint8 table.

    Tables are viewed as (2,)*(bits-8) + (256,): XOR by the low byte of s
    is one take along the 256-cell block axis, XOR by the rest reverses the
    leading axes of its set bits, so no index array of table size is built.
    """

    def __init__(self, bits: int):
        low = min(bits, 8)
        self.low = low
        self.lead = bits - low
        self.shape = (2,) * self.lead + (1 << low,)
        self.cells = np.arange(1 << low, dtype=np.intp)
        self.tmp = np.empty(self.shape, dtype=np.uint8)

    def butterfly(self, src: np.ndarray, s: int, out: np.ndarray) -> None:
        """Write min(src[x], src[x ^ s]) into out; out must not alias src."""
        other = src
        lo = s & ((1 << self.low) - 1)
        if lo:
            np.take(src, self.cells ^ lo, axis=-1, out=self.tmp, mode="clip")
            other = self.tmp
        hi = s >> self.low
        flip = tuple(slice(None, None, -1) if hi >> (self.lead - 1 - a) & 1
                     else slice(None) for a in range(self.lead))
        np.minimum(src, other[flip], out=out)


def _dp_tables(code: LinearCode):
    """Column-by-column syndrome DP; returns (d, dist, space, packed_cols).

    The free columns of parity_check() are the unit vectors e_0..e_{r-1},
    so after them a syndrome's distance is its number of nonzero digits;
    the loop then adds the pivot columns one at a time.  Every nonzero
    codeword has a pivot in its support, so d is read at its last pivot.
    """
    F = code.field
    q = F.order
    H = code.parity_check()
    r, n = H.shape
    space = _SyndromeSpace(F, r)
    packed = [[0] * q for _ in range(n)]
    for j in range(n):
        col = H[:, j]
        for c in range(1, q):
            packed[j][c] = space.pack([F.mul(c, int(x)) for x in col])
    dist = np.zeros(1, dtype=np.uint8)
    nonzero = (np.arange(q) != 0).astype(np.uint8)
    for _ in range(r):
        dist = np.add.outer(nonzero, dist).reshape(-1)
    if space.char2:
        xor = _XorBlocks(r * F.m)
        dist = dist.reshape(xor.shape)
        pair = (np.empty_like(dist), np.empty_like(dist))
    flat = dist.reshape(-1)
    best = code.n + 1
    for j in code.pivots:
        best = min(best, 1 + min(int(flat[packed[j][c]]) for c in range(1, q)))
        if not packed[j][1]:
            continue  # a zero column reaches no new syndrome
        if space.char2:
            # {c * h_j : c != 0} is the nonzero part of the F2-span of
            # the m packed basis multiples, one butterfly each
            src = dist
            for i in range(F.m):
                out = pair[i & 1]
                xor.butterfly(src, packed[j][1 << i], out)
                src = out
            shifted = src
        else:
            shifted = None
            for c in range(1, q):
                arr = space.shifted_gather(flat, packed[j][c])
                shifted = arr if shifted is None else np.minimum(shifted, arr)
        np.add(shifted, 1, out=shifted)
        np.minimum(dist, shifted, out=dist)
    return best, flat, space, packed


def _dp_enumerate(code: LinearCode, t: int, dist, space, packed,
                  accept, node_cap: int) -> tuple[tuple[int, ...] | None, bool]:
    """DFS for a weight-t codeword passing accept(); returns (word, complete)."""
    F = code.field
    n = code.n
    q = F.order
    nodes = 0

    def rec(start: int, sidx: int, chosen: list) -> tuple | None:
        nonlocal nodes
        nodes += 1
        if nodes > node_cap:
            raise _NodeBudget
        u = len(chosen)
        if u == t:
            if sidx == 0:
                word = [0] * n
                for j, c in chosen:
                    word[j] = c
                if accept(word):
                    return tuple(word)
            return None
        need = t - u
        if int(dist[space.neg_index(sidx)]) > need:
            return None
        for j in range(start, n - need + 1):
            for c in range(1, q):
                got = rec(j + 1, space.add_index(sidx, packed[j][c]),
                          chosen + [(j, c)])
                if got is not None:
                    return got
        return None

    try:
        return rec(0, 0, []), True
    except _NodeBudget:
        return None, False


class _NodeBudget(Exception):
    pass


def _pack_columns_u64(F: GaloisField, H: np.ndarray) -> np.ndarray | None:
    """(q, n) uint64 with packed syndromes of c * column j; None if unpackable."""
    if F.p != 2:
        return None
    r, n = H.shape
    if r * F.m > 63:
        return None
    out = np.zeros((F.order, n), dtype=np.uint64)
    for j in range(n):
        for c in range(1, F.order):
            s = 0
            for i in range(r):
                s |= F.mul(c, int(H[i, j])) << (i * F.m)
            out[c, j] = s
    return out


def _mitm_ladder(code: LinearCode, wmax: int, exclude: LinearCode | None,
                 side_cap: int = MITM_SIDE_CAP) -> tuple[int, int | None,
                                                         tuple[int, ...] | None, int]:
    """Prove lower bounds by meet-in-the-middle over split supports.

    Returns (proved_lb, exact_weight_or_None, witness, work).  Weights are
    tried in ascending order; the first weight with a verified codeword
    (outside `exclude` if given) is the exact minimum of that filtered set.
    """
    F = code.field
    H = code.parity_check()
    packed = _pack_columns_u64(F, H)
    if packed is None:
        return 1, None, None, 0
    n = code.n
    q = F.order
    work = 0
    scalars = list(range(1, q))
    for t in range(1, wmax + 1):
        ta = t // 2
        tb = t - ta
        nb = math.comb(n, tb) * (q - 1) ** tb
        na = math.comb(n, ta) * (q - 1) ** max(ta - 1, 0)
        if na + nb > side_cap:
            return t, None, None, work
        syn_b, meta_b = _mitm_side(packed, n, tb, normalize_first=False)
        order = np.argsort(syn_b, kind="stable")
        syn_b = syn_b[order]
        meta_b = meta_b[order]
        if ta == 0:
            hits = np.nonzero(syn_b == 0)[0]
            cand = [(np.zeros(0, dtype=np.int64), meta_b[h]) for h in hits]
        else:
            syn_a, meta_a = _mitm_side(packed, n, ta, normalize_first=True)
            lo = np.searchsorted(syn_b, syn_a, side="left")
            hi = np.searchsorted(syn_b, syn_a, side="right")
            cand = []
            for ia in np.nonzero(hi > lo)[0]:
                for ib in range(int(lo[ia]), int(hi[ia])):
                    cand.append((meta_a[ia], meta_b[ib]))
        work += int(na + nb)
        for ma, mb in cand:
            word = _mitm_reconstruct(F, n, ma, mb)
            wt = sum(1 for x in word if x)
            if wt == 0:
                continue
            if wt < t:
                continue
            if exclude is not None and exclude.contains(word):
                continue
            return t, t, tuple(word), work
    return wmax + 1, None, None, work


def _mitm_side(packed: np.ndarray, n: int, t: int,
               normalize_first: bool) -> tuple[np.ndarray, np.ndarray]:
    """Syndromes of all t-subsets with nonzero scalars, one row of metadata each.

    Metadata rows hold (j_0, c_0, ..., j_{t-1}, c_{t-1}).  When
    normalize_first is set the scalar at the subset's smallest position is
    pinned to 1, cutting the scalar space by q-1.
    """
    q = packed.shape[0]
    combos = np.array(list(itertools.combinations(range(n), t)), dtype=np.int64)
    if combos.size == 0:
        combos = combos.reshape(0, t)
    free = t - 1 if normalize_first else t
    scalar_sets = list(itertools.product(range(1, q), repeat=free))
    syn_parts = []
    meta_parts = []
    for combo_scalars in scalar_sets:
        cs = ((1,) + combo_scalars) if normalize_first else combo_scalars
        syn = np.zeros(combos.shape[0], dtype=np.uint64)
        for slot in range(t):
            syn ^= packed[cs[slot]][combos[:, slot]]
        meta = np.empty((combos.shape[0], 2 * t), dtype=np.int64)
        for slot in range(t):
            meta[:, 2 * slot] = combos[:, slot]
            meta[:, 2 * slot + 1] = cs[slot]
        syn_parts.append(syn)
        meta_parts.append(meta)
    if not syn_parts:
        return (np.zeros(0, dtype=np.uint64), np.zeros((0, 0), dtype=np.int64))
    return np.concatenate(syn_parts), np.vstack(meta_parts)


def _mitm_reconstruct(F: GaloisField, n: int, ma, mb) -> list[int]:
    word = [0] * n
    for m in (ma, mb):
        flat = np.asarray(m).reshape(-1)
        for s in range(0, flat.size, 2):
            j = int(flat[s])
            c = int(flat[s + 1])
            word[j] = F.add(word[j], c)
    return word


def _bitplanes(F: GaloisField, rows: np.ndarray) -> np.ndarray:
    """(rows, 2, W) uint64 planes for GF(4) vectors: low bit, high bit."""
    k, n = rows.shape
    W = (n + 63) // 64
    out = np.zeros((k, 2, W), dtype=np.uint64)
    for i in range(k):
        for j in range(n):
            v = int(rows[i, j])
            if v & 1:
                out[i, 0, j >> 6] |= np.uint64(1 << (j & 63))
            if v & 2:
                out[i, 1, j >> 6] |= np.uint64(1 << (j & 63))
    return out


def _plane_weights(planes: np.ndarray) -> np.ndarray:
    return np.bitwise_count(planes[:, 0, :] | planes[:, 1, :]).sum(axis=1)


def _infoset_upper(code: LinearCode, iters: int, seed: int,
                   exclude: LinearCode | None) -> tuple[int, tuple[int, ...] | None, int]:
    """Seeded information-set search for low-weight codewords.

    Enumerates all combinations of up to three generator rows of each
    re-drawn systematic form.  GF(4) runs on packed bitplanes; other small
    fields fall back to direct table arithmetic (fine at small k).
    """
    F = code.field
    rng = np.random.default_rng(seed)
    T = tables(F)
    n, k = code.n, code.k
    best, witness, work = n + 1, None, 0
    if k == 0:
        return best, witness, work

    def consider(word_row: np.ndarray, wt: int) -> None:
        nonlocal best, witness
        if wt == 0 or wt >= best:
            return
        if exclude is not None and exclude.contains(word_row):
            return
        best = wt
        witness = tuple(int(x) for x in word_row)

    for _ in range(iters):
        perm = rng.permutation(n)
        R, _ = rref(F, code.generator[:, perm])
        inv = np.empty(n, dtype=np.int64)
        inv[perm] = np.arange(n)

        def unpermute(row: np.ndarray) -> np.ndarray:
            return row[inv]

        if F.order == 4:
            planes = {c: _bitplanes(F, T.mul[np.uint8(c), R]) for c in (1, 2, 3)}
            w1 = _plane_weights(planes[1])
            work += k
            for i in np.nonzero(w1 < best)[0]:
                consider(unpermute(R[int(i)]), int(w1[int(i)]))
            if k >= 2:
                ii, jj = np.triu_indices(k, 1)
                blocks = np.argsort(jj, kind="stable")
                ii, jj = ii[blocks], jj[blocks]
                prefix = np.cumsum(np.bincount(jj, minlength=k + 1))
                for b in (1, 2, 3):
                    P = planes[1][ii] ^ planes[b][jj]
                    wp = _plane_weights(P)
                    work += wp.size
                    for x in np.nonzero(wp < best)[0]:
                        row = T.add[R[int(ii[x])], T.mul[np.uint8(b), R[int(jj[x])]]]
                        consider(unpermute(row), int(wp[int(x)]))
                    if k >= 3:
                        for l in range(2, k):
                            stop = int(prefix[l])
                            if stop == 0:
                                continue
                            for c in (1, 2, 3):
                                Y = P[:stop] ^ planes[c][l]
                                wy = _plane_weights(Y)
                                work += wy.size
                                for x in np.nonzero(wy < best)[0]:
                                    row = T.add[T.add[R[int(ii[x])],
                                                      T.mul[np.uint8(b), R[int(jj[x])]]],
                                                T.mul[np.uint8(c), R[l]]]
                                    consider(unpermute(row), int(wy[int(x)]))
        else:
            scal = list(range(1, F.order))
            w1 = np.count_nonzero(R, axis=1)
            work += k
            for i in np.nonzero(w1 < best)[0]:
                consider(unpermute(R[int(i)]), int(w1[int(i)]))
            for i, j in itertools.combinations(range(k), 2):
                for b in scal:
                    row = T.add[R[i], T.mul[np.uint8(b), R[j]]]
                    wt = int(np.count_nonzero(row))
                    work += 1
                    consider(unpermute(row), wt)
            for i, j, l in itertools.combinations(range(k), 3):
                for b in scal:
                    rb = T.add[R[i], T.mul[np.uint8(b), R[j]]]
                    for c in scal:
                        row = T.add[rb, T.mul[np.uint8(c), R[l]]]
                        wt = int(np.count_nonzero(row))
                        work += 1
                        consider(unpermute(row), wt)
    return best, witness, work


def min_distance(code: LinearCode, strategy: str = "auto",
                 budget: int | None = None, seed: int = 1,
                 iters: int = INFOSET_DEFAULT_ITERS) -> DistanceResult:
    """Certified (lb, ub) bounds on the minimum distance; equal means exact."""
    return _distance_engine(code, None, strategy, budget, seed, iters)


def min_weight_outside(code: LinearCode, subcode: LinearCode,
                       strategy: str = "auto", budget: int | None = None,
                       seed: int = 1,
                       iters: int = INFOSET_DEFAULT_ITERS) -> DistanceResult:
    """Bounds on the minimum weight over codewords of `code` not in `subcode`."""
    if not code.contains_code(subcode):
        raise ValueError("subcode is not contained in the code")
    if subcode.k == code.k:
        t0 = time.perf_counter()
        return _sentinel(code, "trivial", t0)
    return _distance_engine(code, subcode, strategy, budget, seed, iters)


def _distance_engine(code: LinearCode, exclude: LinearCode | None, strategy: str,
                     budget: int | None, seed: int, iters: int) -> DistanceResult:
    t0 = time.perf_counter()
    F = code.field
    q = F.order
    n, k = code.n, code.k
    if k == 0:
        return _sentinel(code, "trivial", t0)
    r = n - k
    if strategy not in ("auto", "exhaustive", "information_set"):
        raise ValueError(f"unknown strategy {strategy!r}")

    if strategy == "exhaustive" or (strategy == "auto" and q ** k <= EXHAUSTIVE_CAP):
        ub, witness, work, done = _exhaustive_min(code, exclude, budget)
        lb = ub if done else 1
        return DistanceResult(lb, ub, "exhaustive", None,
                              time.perf_counter() - t0, work, lb == ub, witness,
                              "" if done else f"budget ran out after {work} "
                                              f"of {q ** k} codewords")

    dp_cap = DP_CAP_CHAR2 if F.p == 2 else DP_CAP_ODD
    if strategy == "auto" and q ** r <= dp_cap:
        d0, dist, space, packed = _dp_tables(code)
        work = n * (q - 1) * space.size
        if exclude is None:
            word, _ = _dp_enumerate(code, d0, dist, space, packed,
                                    lambda w: True, 1 << 22)
            return DistanceResult(d0, d0, "syndrome_dp", None,
                                  time.perf_counter() - t0, work, True,
                                  word, "exact by syndrome dynamic program")
        node_cap = budget if budget is not None else 1 << 22
        for t in range(d0, n + 1):
            word, complete = _dp_enumerate(code, t, dist, space, packed,
                                           lambda w: not exclude.contains(w),
                                           node_cap)
            if word is not None:
                return DistanceResult(t, t, "syndrome_dp", None,
                                      time.perf_counter() - t0, work, True,
                                      word, "exact by syndrome dynamic program")
            if not complete:
                return DistanceResult(t, n + 1, "syndrome_dp", None,
                                      time.perf_counter() - t0, work, False,
                                      None, "node budget hit while filtering")
        return _sentinel(code, "syndrome_dp", t0)

    # information-set territory: certified lb by meet-in-the-middle ladder,
    # ub by seeded information-set enumeration
    ladder_max = 6
    lb, exact_w, word, work = _mitm_ladder(code, ladder_max, exclude)
    if exact_w is not None:
        return DistanceResult(exact_w, exact_w, "information_set", seed,
                              time.perf_counter() - t0, work, True, word,
                              "exact: meet-in-the-middle ladder")
    ub, witness, iwork = _infoset_upper(code, iters, seed, exclude)
    work += iwork
    complete = lb >= ub
    if complete:
        lb = ub
    return DistanceResult(lb, ub, "information_set", seed,
                          time.perf_counter() - t0, work, complete, witness,
                          f"lb by meet-in-the-middle ladder to weight {lb - 1}")


@dataclass
class EquivalenceResult:
    status: str                 # "equivalent" | "not_equivalent" | "unknown"
    witness: MonomialTransform | None
    reason: str
    work: int

    @property
    def equivalent(self) -> bool | None:
        if self.status == "equivalent":
            return True
        if self.status == "not_equivalent":
            return False
        return None


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

    Permutations are explored in lexicographic order, restricted to
    column-class-consistent assignments; the diagonal is then solved as a
    linear system instead of scanned.  Exhausting all class-consistent
    permutations certifies non-equivalence.
    """
    if mode not in ("monomial", "permutation"):
        raise ValueError(f"unknown mode {mode!r}")
    F = code1.field
    work = 0
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
    q = F.order
    if q ** k > budget:
        return EquivalenceResult("unknown", None,
                                 f"codeword space q^k = {q ** k} exceeds budget", 0)
    words1 = code1.codewords(budget)
    words2 = code2.codewords(budget)
    work += words1.shape[0] + words2.shape[0]
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

    # candidates[j] = source columns allowed to map onto target column j
    candidates = [[s for s in range(n) if prof1[s] == prof2[j]] for j in range(n)]
    H2 = code2.parity_check()
    G1 = code1.generator
    status = {"work": work, "nodes": 0, "skipped_diagonal": False}

    def finish(perm_inv: list[int]) -> MonomialTransform | None:
        """perm_inv[j] = source column for target j; solve the diagonal."""
        if mode == "permutation":
            diag = [1] * n
            M = MonomialTransform(tuple(_invert(perm_inv)), tuple(diag))
            return M if apply_monomial(code1, M) == code2 else None
        rows = []
        for i in range(k):
            for l in range(H2.shape[0]):
                rows.append([F.mul(int(H2[l, j]), int(G1[i, perm_inv[j]]))
                             for j in range(n)])
        # diagonals d with rows @ d = 0: the dual of the rows' span
        basis = LinearCode.from_rows(F, np.array(rows, dtype=np.uint8),
                                     n).parity_check()
        t = basis.shape[0]
        if q ** t > 1 << 16:
            status["skipped_diagonal"] = True
            return None
        T = tables(F)
        for sel in range(1, q ** t):
            coeffs = [(sel // q ** i) % q for i in range(t)]
            d = np.zeros(n, dtype=np.uint8)
            for i, c in enumerate(coeffs):
                if c:
                    d = T.add[d, T.mul[np.uint8(c), basis[i]]]
            if np.all(d != 0):
                M = MonomialTransform(tuple(_invert(perm_inv)),
                                      tuple(int(x) for x in d))
                if apply_monomial(code1, M) == code2:
                    return M
        return None

    def backtrack(j: int, perm_inv: list[int], used: set) -> MonomialTransform | None:
        status["nodes"] += 1
        if status["nodes"] > budget:
            raise _NodeBudget
        if j == n:
            return finish(perm_inv)
        for s in candidates[j]:
            if s in used:
                continue
            perm_inv.append(s)
            used.add(s)
            got = backtrack(j + 1, perm_inv, used)
            if got is not None:
                return got
            perm_inv.pop()
            used.remove(s)
        return None

    try:
        M = backtrack(0, [], set())
    except _NodeBudget:
        return EquivalenceResult("unknown", None, "search budget exhausted",
                                 work + status["nodes"])
    work += status["nodes"]
    if M is not None:
        return EquivalenceResult("equivalent", M, "witness found and re-verified", work)
    if status["skipped_diagonal"]:
        return EquivalenceResult("unknown", None,
                                 "diagonal solution space too large to scan", work)
    return EquivalenceResult("not_equivalent", None,
                             "all class-consistent permutations exhausted", work)


def _invert(perm_inv: list[int]) -> list[int]:
    perm = [0] * len(perm_inv)
    for j, s in enumerate(perm_inv):
        perm[s] = j
    return perm
