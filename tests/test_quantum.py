"""Tests for the quantum-code constructions."""

import numpy as np
import pytest

from codeq import linear
from codeq.cosets import DefiningSet
from codeq.cyclic import build_cyclic
from codeq.fields import GF4_OMEGA, gf4
from codeq.linear import (
    GF4_CONJ,
    DistanceResult,
    LinearCode,
    min_distance,
    min_weight_outside,
    tables,
)
from codeq.quantum import (
    QuantumParameters,
    _hermitian_inner,
    _orthonormal_complement,
    _quantum_distance,
    crss,
    hermitian_hull,
    nearly_self_orthogonal,
)


def cyclic_base(n, leaders):
    A = DefiningSet.from_leaders(n, 4, leaders)
    return build_cyclic(n, 4, A).base


def test_crss_full_space():
    C = LinearCode.from_rows(gf4(), np.eye(5, dtype=np.uint8))
    qp = crss(C)
    assert (qp.n_q, qp.k_q, qp.e) == (5, 5, 0)
    assert qp.d_lb == qp.d_ub == 1
    assert qp.exact


def test_crss_self_dual_two_qubit():
    # <(1,1),(1,1)> = 1 + 1 = 0, so the repetition code is Hermitian self-dual
    C = LinearCode.from_rows(gf4(), [[1, 1]])
    qp = crss(C)
    assert (qp.n_q, qp.k_q) == (2, 0)
    assert qp.d_lb == qp.d_ub == 2


def test_crss_rejects_non_dual_containing():
    C = cyclic_base(51, [0, 2, 7, 17, 34])
    with pytest.raises(ValueError):
        crss(C)


def test_hermitian_hull_is_self_orthogonal_part():
    C = cyclic_base(15, [1, 3])
    hull = hermitian_hull(C)
    assert C.contains_code(hull)
    assert C.hermitian_dual().contains_code(hull)
    T = tables(gf4())
    for u in hull.generator:
        for v in C.generator:
            assert _hermitian_inner(T, u, v) == 0


def test_orthonormal_complement_gram_identity():
    for leaders in ([1], [1, 3], [0, 1], [1, 5], [0, 3, 5]):
        C = cyclic_base(15, leaders)
        dual = C.hermitian_dual()
        hull = C.intersection(dual)
        e = dual.k - hull.k
        basis = _orthonormal_complement(C, dual, hull)
        assert basis.shape == (e, C.n)
        T = tables(gf4())
        for i in range(e):
            for j in range(e):
                want = 1 if i == j else 0
                assert _hermitian_inner(T, basis[i], basis[j]) == want
        if e:
            # hull plus the complement spans the dual
            span = LinearCode.from_rows(gf4(),
                                        np.vstack([hull.generator, basis]))
            assert span.k == dual.k
            assert dual.contains_code(span)


def test_extension_amount_and_dimensions():
    C = cyclic_base(51, [0, 2, 7, 17, 34])
    hull = hermitian_hull(C)
    assert hull.k == 8
    E, qp = nearly_self_orthogonal(C)
    assert qp.e == C.n - C.k - hull.k == 3
    assert (E.n, E.k) == (54, 43)
    assert (qp.n_q, qp.k_q) == (54, 32)
    assert E.contains_code(E.hermitian_dual())
    # the original code sits inside the extension, padded with zeros
    padded = np.hstack([C.generator, np.zeros((C.k, qp.e), dtype=np.uint8)])
    for row in padded:
        assert E.contains(row)


def test_fifty_one_chain_distances():
    C = cyclic_base(51, [0, 2, 7, 17, 34])
    E, qp = nearly_self_orthogonal(C)
    dC = min_distance(C)
    dS = min_distance(C.sum_code(C.hermitian_dual()))
    assert dC.complete and dC.lb == 6
    assert dS.complete and dS.lb == 3
    assert min(dC.lb, dS.lb + 1) == 4
    assert qp.d_lb == qp.d_ub == 6
    assert qp.exact
    assert qp.construction == "nearly_self_orthogonal"


def test_e_search_stops_at_the_first_word_block(monkeypatch):
    # the [[54,32,6]] derivation's E = [54,43] search finds its witness
    # among the first words of rung 6, so the subcode filter never tests
    # more than the first word block; with the first scalar pinned on both
    # sides, rungs 5 and 6 read one side of C(54,3) 3^2 = 223,236 entries
    C = cyclic_base(51, [0, 2, 7, 17, 34])
    E, _ = nearly_self_orthogonal(C)
    Edual = E.hermitian_dual()
    tested = []
    outside_test = linear._outside_test

    def spy(code, exclude):
        outside = outside_test(code, exclude)

        def counted(words):
            tested.append(words.shape[0])
            return outside(words)
        return counted

    monkeypatch.setattr(linear, "_outside_test", spy)
    res = min_weight_outside(E, Edual)
    assert (res.lb, res.ub, res.work) == (6, 6, 687097)
    assert res.note == "exact: meet-in-the-middle ladder"
    assert {i: x for i, x in enumerate(res.witness) if x} == {
        0: 1, 1: 1, 4: 1, 16: 3, 39: 1, 40: 3}
    assert tested and max(tested) <= linear.FIRST_BLOCK


def test_already_dual_containing_is_untouched():
    C = cyclic_base(51, [0, 2, 7, 17, 34])
    E, _ = nearly_self_orthogonal(C)
    E2, qp2 = nearly_self_orthogonal(E)
    assert qp2.e == 0
    assert (E2.n, E2.k) == (E.n, E.k)
    assert E2.contains_code(E) and E.contains_code(E2)
    qp_direct = crss(E)
    assert (qp_direct.d_lb, qp_direct.d_ub) == (qp2.d_lb, qp2.d_ub)


def test_logical_dimension_arithmetic():
    for leaders in ([1], [0], [1, 3], [0, 1, 5], [3], [1, 7]):
        C = cyclic_base(15, leaders)
        E, qp = nearly_self_orthogonal(C)
        assert qp.k_q == 2 * C.k - C.n + qp.e
        assert qp.k_q == 2 * E.k - E.n
        assert qp.n_q == C.n + qp.e


def test_distance_bounds_sound_on_small_codes():
    for leaders in ([1], [1, 3], [0, 1], [5, 7]):
        C = cyclic_base(15, leaders)
        E, qp = nearly_self_orthogonal(C)
        Edual = E.hermitian_dual()
        if Edual.k == E.k:
            truth = min_distance(E)
        else:
            truth = min_weight_outside(E, Edual)
        assert truth.complete
        assert qp.d_lb <= truth.lb
        assert qp.d_ub >= truth.ub


def test_floor_lifts_lb_only():
    # the floor min(d(C), d(C + C^perp_h) + 1) may lift the lower bound of
    # the extension's own distance run, and then says so in the note; the
    # witness weight stays
    C = cyclic_base(15, [0, 1])
    E, qp = nearly_self_orthogonal(C)
    own = _quantum_distance(E, E.hermitian_dual(), None, 1)
    assert qp.d_lb >= own.lb and qp.d_ub == own.ub
    assert ("; floor min(" in qp.note) == (qp.d_lb > own.lb)


def test_floor_above_witness_weight_raises(monkeypatch):
    # a floor no word of the code can meet must surface, not be clamped
    def impossible(code, **kwargs):
        return DistanceResult(10 ** 6, 10 ** 6, "fake", None, 0.0, 0)

    monkeypatch.setattr("codeq.quantum.min_distance", impossible)
    C = cyclic_base(15, [0, 1])
    with pytest.raises(RuntimeError, match="unsound distance bounds"):
        nearly_self_orthogonal(C)


def test_parameters_to_dict_and_exactness():
    qp = QuantumParameters(n_q=54, k_q=32, d_lb=4, d_ub=6,
                           source=LinearCode.zero(gf4(), 2), e=3,
                           construction="nearly_self_orthogonal")
    d = qp.to_dict()
    assert d["n_q"] == 54 and d["k_q"] == 32 and d["e"] == 3
    assert d["d_lb"] == 4 and d["d_ub"] == 6
    assert not qp.exact


def test_crss_on_dual_containing_cyclic_codes():
    # [15, 13] with defining set {1, 4}: -2A mod 15 = {7, 13} stays disjoint
    # from A, so the Hermitian dual's defining set contains A and the code
    # contains its dual.
    C = cyclic_base(15, [1])
    dual = C.hermitian_dual()
    assert C.contains_code(dual)
    qp = crss(C)
    assert (qp.n_q, qp.k_q) == (15, 11)
    assert qp.exact
    truth = min_weight_outside(C, dual)
    assert truth.complete
    assert (qp.d_lb, qp.d_ub) == (truth.lb, truth.ub)
