"""Binary quantum codes from quaternary linear codes.

Two constructions: the dual-containing route (a Hermitian dual-containing
[n,k] code over GF(4) yields an [[n, 2k-n]] quantum code whose distance is
the minimum weight outside the dual), and the nearly-self-orthogonal route
(any [n,k] code over GF(4) is padded with e = n - k - dim(hull) extra
coordinates to make it dual-containing, yielding [[n+e, 2k-n+e]]).
"""

from dataclasses import dataclass, field

import numpy as np

from .fields import GF4_OMEGA, GF4_OMEGA2
from .linear import (
    GF4_CONJ,
    DistanceResult,
    LinearCode,
    min_distance,
    min_weight_outside,
    rref,
    tables,
)


@dataclass(frozen=True)
class QuantumParameters:
    """Parameters [[n_q, k_q, d]] with certified distance bounds."""

    n_q: int
    k_q: int
    d_lb: int
    d_ub: int
    source: LinearCode = field(compare=False)
    e: int
    construction: str
    note: str = ""

    @property
    def exact(self) -> bool:
        return self.d_lb == self.d_ub

    def to_dict(self) -> dict:
        return {"n_q": self.n_q, "k_q": self.k_q, "e": self.e,
                "d_lb": self.d_lb, "d_ub": self.d_ub,
                "construction": self.construction, "note": self.note}


def hermitian_hull(C: LinearCode) -> LinearCode:
    """The intersection of C with its Hermitian dual."""
    return C.intersection(C.hermitian_dual())


def _hermitian_inner(T, u, v) -> int:
    # <u, v> = sum u_i * v_i^2; addition over GF(4) is bitwise xor
    return int(np.bitwise_xor.reduce(T.mul[u, GF4_CONJ[v]]))


def _orthonormal_complement(C: LinearCode, dual: LinearCode,
                            hull: LinearCode) -> np.ndarray:
    """A Hermitian-orthonormal basis of a complement of the hull in C^perp_h.

    The Hermitian form restricted to any complement of the hull inside the
    dual is nondegenerate, and nondegenerate Hermitian spaces over GF(4)
    always carry an orthonormal basis: norms land in {0,1}, and when every
    remaining vector is isotropic some pair u, w has <u,w> != 0, making one
    of u + lam*w anisotropic.
    """
    F = C.field
    T = tables(F)
    e = dual.k - hull.k
    if e == 0:
        return np.zeros((0, C.n), dtype=np.uint8)
    picked: list[np.ndarray] = []
    for r in dual.generator:
        stack = np.vstack([hull.generator] + [p[None, :] for p in picked]
                          + [r[None, :]])
        if len(rref(F, stack)[1]) > hull.k + len(picked):
            picked.append(r.copy())
        if len(picked) == e:
            break
    assert len(picked) == e, "complement extraction fell short"

    done: list[np.ndarray] = []
    cand = picked
    while cand:
        idx = next((i for i, v in enumerate(cand)
                    if _hermitian_inner(T, v, v) == 1), None)
        if idx is None:
            u = cand[0]
            j = next(i for i in range(1, len(cand))
                     if _hermitian_inner(T, u, cand[i]) != 0)
            w = cand[j]
            fixed = None
            for lam in (1, GF4_OMEGA, GF4_OMEGA2):
                v = np.bitwise_xor(u, T.mul[np.uint8(lam), w])
                if _hermitian_inner(T, v, v) == 1:
                    fixed = v
                    break
            assert fixed is not None, "no anisotropic combination found"
            cand[0] = fixed
            idx = 0
        y = cand.pop(idx)
        cand = [np.bitwise_xor(v, T.mul[np.uint8(_hermitian_inner(T, v, y)), y])
                for v in cand]
        done.append(y)
    basis = np.vstack(done)
    gram = [[_hermitian_inner(T, a, b) for b in done] for a in done]
    assert gram == [[int(i == j) for j in range(e)] for i in range(e)], \
        "orthonormalization failed"
    return basis


def _quantum_distance(E: LinearCode, Edual: LinearCode, budget: int | None,
                      seed: int) -> DistanceResult:
    if Edual.k == E.k:
        # self-dual: the quantum distance is the classical distance
        return min_distance(E, budget=budget, seed=seed)
    return min_weight_outside(E, Edual, budget=budget, seed=seed)


def crss(C: LinearCode, budget: int | None = None,
         seed: int = 1) -> QuantumParameters:
    """[[n, 2k-n]] quantum parameters from a Hermitian dual-containing code.

    The distance is the minimum weight over codewords of C outside C's
    Hermitian dual (equal to d(C) when C is Hermitian self-dual).
    """
    dual = C.hermitian_dual()
    if not C.contains_code(dual):
        raise ValueError("code does not contain its Hermitian dual")
    res = _quantum_distance(C, dual, budget, seed)
    return QuantumParameters(
        n_q=C.n, k_q=2 * C.k - C.n, d_lb=res.lb, d_ub=res.ub, source=C,
        e=0, construction="crss", note=f"distance by {res.strategy}")


def nearly_self_orthogonal(C: LinearCode, budget: int | None = None,
                           seed: int = 1
                           ) -> tuple[LinearCode, QuantumParameters]:
    """Extend C by e = n - k - dim(hull) coordinates into a dual-containing code.

    The extension appends, for each basis vector of a Hermitian-orthonormal
    complement of the hull inside C's dual, one new coordinate carrying a
    unit entry; the result E is an [n+e, k+e] code with E^perp_h inside E
    (checked unconditionally), giving [[n+e, 2k-n+e]] quantum parameters.

    The distance lower bound is strengthened by the floor
    min{d(C), d(C + C^perp_h) + 1}, which every nonzero word of E obeys:
    words with empty padding lie in C, and any other word restricted to the
    first n coordinates is a nonzero vector of C + C^perp_h.
    """
    dual = C.hermitian_dual()
    hull = C.intersection(dual)
    S = C.sum_code(dual)
    e = C.n - C.k - hull.k
    assert e == S.k - C.k, "extension amount formulas disagree"

    if e == 0:
        E = C
    else:
        ortho = _orthonormal_complement(C, dual, hull)
        left = np.hstack([C.generator,
                          np.zeros((C.k, e), dtype=np.uint8)])
        extra = np.hstack([ortho, np.eye(e, dtype=np.uint8)])
        E = LinearCode.from_rows(C.field, np.vstack([left, extra]), C.n + e)
    assert E.k == C.k + e, "extended code has the wrong dimension"
    Edual = E.hermitian_dual()
    assert E.contains_code(Edual), "extension is not dual-containing"

    res = _quantum_distance(E, Edual, budget, seed)
    d_lb, d_ub = res.lb, res.ub
    note = f"distance by {res.strategy}"
    dC = min_distance(C, budget=budget, seed=seed)
    dS = min_distance(S, budget=budget, seed=seed)
    lo = min(dC.lb, dS.lb + 1)
    if lo > d_lb:
        d_lb = lo
        note += f"; floor min({dC.lb}, {dS.lb}+1) = {lo}"
    if d_lb > d_ub:
        raise RuntimeError(f"unsound distance bounds: floor {d_lb} exceeds "
                           f"the witness weight {d_ub} ({note})")
    qp = QuantumParameters(
        n_q=E.n, k_q=2 * C.k - C.n + e, d_lb=d_lb, d_ub=d_ub,
        source=C, e=e, construction="nearly_self_orthogonal", note=note)
    assert qp.k_q == 2 * E.k - E.n, "logical dimension arithmetic broke"
    return E, qp
