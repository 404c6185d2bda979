"""Determinantal masses: closed formula, polygon oracle, compositions,
kink masses."""

import math

import numpy as np
import pytest

from kinkbound import detmass
from kinkbound.detmass import AngularMeasure, ConvexPolygon
from kinkbound.kernel import spacetime_wedges, wedge_norms

from oracles import (inorder_norm, kink_product_mass, lift,
                     random_balanced_measure, support_jump)

SQ3 = math.sqrt(3.0)


def _axes(c=1.0):
    return AngularMeasure(np.arange(4) * (np.pi / 2), np.full(4, float(c)))


def _tripod():
    return AngularMeasure(np.array([0.0, 2 * np.pi / 3, 4 * np.pi / 3]),
                          np.ones(3))


# -- measures and balance -----------------------------------------------------


def test_measure_validation():
    with pytest.raises(ValueError):
        AngularMeasure(np.array([0.0]), np.array([0.0]))     # weight not > 0
    with pytest.raises(ValueError):
        AngularMeasure(np.array([0.0, 0.0]), np.ones(2))     # duplicate angle
    with pytest.raises(ValueError):
        AngularMeasure(np.array([0.0, 2 * np.pi]), np.ones(2))  # same mod 2pi
    with pytest.raises(ValueError):
        AngularMeasure(np.array([]), np.array([]))
    mu = AngularMeasure(np.array([-np.pi / 2, 0.0]), np.ones(2))
    assert mu.angles[0] == pytest.approx(3 * np.pi / 2)  # normalized


def test_check_balance_examples():
    np.testing.assert_allclose(
        detmass.check_balance(AngularMeasure(np.array([0.0, np.pi]), np.ones(2))),
        [0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(detmass.check_balance(_tripod()),
                               [0.0, 0.0], atol=1e-15)
    res = detmass.check_balance(AngularMeasure(np.array([0.0]), np.ones(1)))
    np.testing.assert_allclose(res, [1.0, 0.0])
    assert not detmass.is_balanced(AngularMeasure(np.array([0.0]), np.ones(1)))


# -- closed formula -----------------------------------------------------------


def test_dm_closed_examples():
    assert detmass.dm_closed_formula(_axes(2.0)) == pytest.approx(2.0, rel=1e-14)
    assert detmass.dm_closed_formula(_tripod()) == pytest.approx(
        SQ3 / 8, rel=1e-14)
    seg = AngularMeasure(np.array([0.0, np.pi]), np.ones(2))
    assert detmass.dm_closed_formula(seg) == pytest.approx(0.0, abs=1e-15)


def test_dm_closed_rejects_unbalanced():
    with pytest.raises(ValueError):
        detmass.dm_closed_formula(AngularMeasure(np.array([0.0]), np.ones(1)))


# -- polygon oracle -----------------------------------------------------------


def test_polygon_square_from_axes():
    P = detmass.polygon_from_measure(_axes(2.0))
    assert P.vertices.shape == (4, 2)
    assert detmass.enclosed_area(P) == pytest.approx(4.0, rel=1e-14)
    e = np.roll(P.vertices, -1, axis=0) - P.vertices
    np.testing.assert_allclose(np.linalg.norm(e, axis=1), 2.0, rtol=1e-14)
    np.testing.assert_allclose(P.vertices.mean(axis=0), [0.0, 0.0], atol=1e-14)


def test_polygon_equilateral_triangle():
    P = detmass.polygon_from_measure(_tripod())
    assert detmass.enclosed_area(P) == pytest.approx(SQ3 / 4, rel=1e-13)
    e = np.roll(P.vertices, -1, axis=0) - P.vertices
    np.testing.assert_allclose(np.linalg.norm(e, axis=1), 1.0, rtol=1e-13)


def test_polygon_3_4_5_right_triangle():
    # outward normals of the triangle (0,0),(4,0),(0,3): edge of length 4
    # faces down, the hypotenuse (length 5) faces (3,4)/5, the leg of
    # length 3 faces left
    mu = AngularMeasure(
        np.array([3 * np.pi / 2, math.atan2(4.0, 3.0), np.pi]),
        np.array([4.0, 5.0, 3.0]))
    P = detmass.polygon_from_measure(mu)
    assert detmass.enclosed_area(P) == pytest.approx(6.0, rel=1e-13)
    e = np.roll(P.vertices, -1, axis=0) - P.vertices
    np.testing.assert_allclose(sorted(np.linalg.norm(e, axis=1)),
                               [3.0, 4.0, 5.0], rtol=1e-13)


def test_polygon_rejections():
    with pytest.raises(ValueError):   # unbalanced
        detmass.polygon_from_measure(AngularMeasure(np.array([0.0]), np.ones(1)))
    with pytest.raises(ValueError):   # only 2 atoms
        detmass.polygon_from_measure(
            AngularMeasure(np.array([0.0, np.pi]), np.ones(2)))
    with pytest.raises(ValueError):   # flat body: all atoms on one diameter
        detmass.polygon_from_measure(
            AngularMeasure(np.array([np.pi / 4, np.pi / 4 + np.pi]),
                           np.array([2.0, 2.0])))


def test_polygon_closure_iff_balanced():
    rng = np.random.default_rng(7)
    for _ in range(25):
        mu = random_balanced_measure(rng, int(rng.integers(3, 10)))
        P = detmass.polygon_from_measure(mu)
        e = np.roll(P.vertices, -1, axis=0) - P.vertices
        assert np.linalg.norm(e.sum(axis=0)) <= 1e-12 * mu.total
        # perturb one weight: unbalanced, constructor refuses
        w = mu.weights.copy()
        w[0] *= 1.5
        with pytest.raises(ValueError):
            detmass.polygon_from_measure(AngularMeasure(mu.angles, w))


def test_convex_polygon_validation():
    with pytest.raises(ValueError):
        ConvexPolygon(np.array([[0.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):  # negative orientation
        ConvexPolygon(np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):  # reflex corner
        ConvexPolygon(np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0],
                                [1.0, 0.5], [0.0, 2.0]]))


def test_enclosed_area_simple_shapes():
    unit_sq = ConvexPolygon(np.array([[0.0, 0], [1.0, 0], [1.0, 1], [0.0, 1]]))
    assert detmass.enclosed_area(unit_sq) == 1.0
    tri = ConvexPolygon(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    assert detmass.enclosed_area(tri) == 0.5
    assert detmass.enclosed_area(
        detmass.polygon_from_measure(_axes(2.0))) == pytest.approx(4.0)


# -- support function ---------------------------------------------------------


def test_support_function_square():
    sq = ConvexPolygon(np.array([[1.0, -1], [1.0, 1], [-1.0, 1], [-1.0, -1]]))
    assert detmass.support_function(sq, 0.0) == pytest.approx(1.0)
    assert detmass.support_function(sq, np.pi / 4) == pytest.approx(
        math.sqrt(2.0), rel=1e-14)


def test_support_function_triangle_inradius():
    P = detmass.polygon_from_measure(_tripod())
    assert detmass.support_function(P, 0.0) == pytest.approx(
        1.0 / (2 * SQ3), rel=1e-12)


def test_support_jumps_recover_weights():
    rng = np.random.default_rng(11)
    for _ in range(10):
        mu = random_balanced_measure(rng, int(rng.integers(3, 8)))
        P = detmass.polygon_from_measure(mu)
        for s, w in zip(mu.angles, mu.weights):
            assert support_jump(P, float(s)) == pytest.approx(w, abs=1e-8)
        # midway between atoms the support function is smooth
        srt = np.sort(mu.angles)
        mid = 0.5 * (srt[0] + srt[1])
        assert support_jump(P, float(mid)) == pytest.approx(0.0, abs=1e-8)


# -- invariance properties ----------------------------------------------------


def test_area_is_twice_closed_formula():
    rng = np.random.default_rng(13)
    for _ in range(100):
        mu = random_balanced_measure(rng, int(rng.integers(3, 13)))
        area = detmass.enclosed_area(detmass.polygon_from_measure(mu))
        dm = detmass.dm_closed_formula(mu)
        assert area == pytest.approx(2.0 * dm, rel=1e-10)


def test_rotation_invariance():
    rng = np.random.default_rng(17)
    for _ in range(20):
        mu = random_balanced_measure(rng, int(rng.integers(3, 9)))
        theta = float(rng.uniform(0, 2 * np.pi))
        rot = AngularMeasure(mu.angles + theta, mu.weights)
        assert detmass.dm_closed_formula(rot) == pytest.approx(
            detmass.dm_closed_formula(mu), rel=1e-10)
        assert detmass.enclosed_area(detmass.polygon_from_measure(rot)) == \
            pytest.approx(
                detmass.enclosed_area(detmass.polygon_from_measure(mu)),
                rel=1e-10)


def test_weight_homogeneity_degree_two():
    rng = np.random.default_rng(19)
    mu = random_balanced_measure(rng, 6)
    for c in (0.25, 3.0, 17.5):
        scaled = AngularMeasure(mu.angles, c * mu.weights)
        assert detmass.dm_closed_formula(scaled) == pytest.approx(
            c * c * detmass.dm_closed_formula(mu), rel=1e-12)
        assert detmass.enclosed_area(detmass.polygon_from_measure(scaled)) == \
            pytest.approx(
                c * c * detmass.enclosed_area(detmass.polygon_from_measure(mu)),
                rel=1e-12)


# -- triples ------------------------------------------------------------------


def test_dm_triple_examples():
    V = np.array([1.0, 0.0])
    W = np.array([-0.5, SQ3 / 2])
    Z = np.array([-0.5, -SQ3 / 2])
    assert detmass.dm_triple(V, W, Z) == pytest.approx(SQ3 / 8, rel=1e-14)
    assert detmass.dm_triple([1.0, 0], [0.0, 1], [-1.0, -1]) == 0.25
    assert detmass.dm_triple([2.0, 0], [-1.0, 0], [-1.0, 0]) == 0.0


def test_dm_triple_symmetric_in_arguments():
    # dyadic inputs: all six orders agree bitwise
    V, W = np.array([1.5, 0.25]), np.array([-0.75, 0.5])
    Z = -(V + W)
    vals = {detmass.dm_triple(*args) for args in (
        (V, W, Z), (V, Z, W), (W, V, Z), (W, Z, V), (Z, V, W), (Z, W, V))}
    assert len(vals) == 1
    rng = np.random.default_rng(23)
    for _ in range(20):
        V = rng.normal(size=2)
        W = rng.normal(size=2)
        Z = -(V + W)
        base = detmass.dm_triple(V, W, Z)
        for args in ((W, Z, V), (Z, V, W), (V, Z, W)):
            assert detmass.dm_triple(*args) == pytest.approx(base, rel=1e-12)


def test_dm_triple_validation():
    with pytest.raises(ValueError):   # unbalanced
        detmass.dm_triple([1.0, 0], [0.0, 1], [0.0, 0 - 0.5])
    with pytest.raises(ValueError):   # zero vectors
        detmass.dm_triple([0.0, 0], [0.0, 0], [0.0, 0])
    with pytest.raises(ValueError):   # wrong shape
        detmass.dm_triple([1.0, 0, 0], [0.0, 1, 0], [-1.0, -1, 0])


# -- direct sums and crosses --------------------------------------------------


def test_dm_direct_sum_examples():
    dm, am, ap = detmass.dm_direct_sum(8.0, 2, 8.0, 2)
    assert dm == pytest.approx(4.0, rel=1e-14)
    assert am == pytest.approx(0.5, rel=1e-14)
    assert ap == pytest.approx(0.5, rel=1e-14)
    for p, q in ((2, 2), (3, 2), (4, 5)):
        assert detmass.dm_direct_sum(1.0, p, 1.0, q) == (1.0, 1.0, 1.0)
    dm, _, _ = detmass.dm_direct_sum(4.0, 2, 4.0, 2)
    assert dm == pytest.approx(16.0 ** (1.0 / 3.0), rel=1e-14)


def test_dm_direct_sum_factor_homogeneity():
    rng = np.random.default_rng(29)
    for _ in range(20):
        m1, m2 = rng.uniform(0.1, 10.0, size=2)
        p, q = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        c = float(rng.uniform(0.5, 4.0))
        d1 = p + q - 1
        base = detmass.dm_direct_sum(m1, p, m2, q)[0]
        scaled = detmass.dm_direct_sum(c * m1, p, m2, q)[0]
        assert scaled == pytest.approx(c ** ((p - 1) / d1) * base, rel=1e-12)


def test_dm_direct_sum_validation():
    with pytest.raises(ValueError):
        detmass.dm_direct_sum(0.0, 2, 1.0, 2)
    with pytest.raises(ValueError):
        detmass.dm_direct_sum(1.0, 2, -3.0, 2)
    with pytest.raises(ValueError):
        detmass.dm_direct_sum(1.0, 1, 1.0, 2)
    with pytest.raises(ValueError):
        detmass.dm_direct_sum(1.0, 3, 1.0, 1)


def test_dm_cross_examples():
    assert detmass.dm_cross(2, 2.0) == pytest.approx(4.0, rel=1e-14)
    assert detmass.dm_cross(2, 1.0) == 1.0
    assert detmass.dm_cross(3, 2.0) == pytest.approx(2.0 ** 1.5, rel=1e-14)
    with pytest.raises(ValueError):
        detmass.dm_cross(1, 1.0)
    with pytest.raises(ValueError):
        detmass.dm_cross(2, 0.0)
    with pytest.raises(ValueError):
        detmass.dm_cross(2.5, 1.0)


def test_dm_cross_matches_polygon_oracle_at_d2():
    rng = np.random.default_rng(31)
    for c in rng.uniform(0.2, 5.0, size=10):
        area = detmass.enclosed_area(
            detmass.polygon_from_measure(_axes(float(c))))
        assert detmass.dm_cross(2, float(c)) == pytest.approx(area, rel=1e-12)


# -- kink masses --------------------------------------------------------------


def test_dm_kink_examples():
    V = np.array([1.0, 0.0, 0.0, 0.0])       # lifted rest velocity, n=3
    V2 = np.array([1.0, 1.0, 0.0, 0.0])
    assert spacetime_wedges(V[1:], V2[1:]) == pytest.approx(1.0)
    assert detmass.dm_kink(V, V2, 1.0) == pytest.approx(
        0.25 ** (1.0 / 3.0), rel=1e-14)
    V = np.array([1.0, 0.0, 0.0])             # n=2
    V2 = np.array([1.0, 1.0, 0.0])
    assert detmass.dm_kink(V, V2, 4.0, convention="area") == pytest.approx(
        math.sqrt(2.0), rel=1e-14)
    # vanishing segment weight pinches the prism flat
    assert detmass.dm_kink(V, V2, 1e-30) < 1e-14
    with pytest.raises(ValueError):
        detmass.dm_kink(V, V2, 0.0)


def test_dm_kink_validation():
    V = np.array([1.0, 1.0, 0.0])
    with pytest.raises(ValueError):
        detmass.dm_kink(V, 2.0 * V, 1.0)          # parallel
    with pytest.raises(ValueError):
        detmass.dm_kink(np.array([1.0, 2.0]), np.array([1.0, 3.0]), 1.0)
    with pytest.raises(ValueError):
        detmass.dm_kink(V, np.array([1.0, 0.0, 0.0]), 1.0, convention="other")


def test_dm_kink_exponents():
    rng = np.random.default_rng(37)
    for n in (2, 3, 4):
        v = rng.normal(size=n)
        v2 = rng.normal(size=n)
        V, V2 = lift(v), lift(v2)
        base = detmass.dm_kink(V, V2, 1.0)
        for c in (0.5, 2.0, 9.0):
            assert detmass.dm_kink(V, V2, c) == pytest.approx(
                base * c ** ((n - 1.0) / n), rel=1e-12)
        ratio = detmass.dm_kink(V, V2, 1.0, convention="area") / base
        assert ratio == pytest.approx(2.0 ** (1.0 / n), rel=1e-12)


def test_dm_kink_matches_product_body_oracle():
    rng = np.random.default_rng(41)
    for n in (2, 3, 4, 6):
        for _ in range(5):
            V = lift(rng.normal(size=n))
            V2 = lift(rng.normal(size=n))
            b = float(rng.uniform(0.1, 5.0))
            for conv in ("paper", "area"):
                want = kink_product_mass(V, V2, b, convention=conv)
                assert detmass.dm_kink(V, V2, b, convention=conv) == \
                    pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_dm_kink_bits_match_wedge_formula(n):
    """dm_kink's one pass over its two vectors gives the bits of
    (kappa |V ^ V2|)^(1/n) b^((n-1)/n) taken with kernel.wedge_norms and
    in-order norms, and rejects the same nearly parallel pairs; a strided
    vector gives what its contiguous copy gives."""
    rng = np.random.default_rng(300 + n)
    outcomes = set()
    for k in range(400):
        V = lift(rng.normal(size=n) * rng.uniform(0.01, 100.0))
        if k % 2:
            V2 = lift(rng.normal(size=n) * rng.uniform(0.01, 100.0))
        else:  # straddle the parallel threshold 1e-14 |V| |V2|
            V2 = V * rng.uniform(0.5, 2.0) + rng.normal(size=n + 1) * (
                10.0 ** rng.uniform(-17.0, -11.0) * np.linalg.norm(V))
        b = float(rng.uniform(0.1, 10.0))
        conv, kappa = (("paper", 0.25), ("area", 0.5))[k % 3 % 2]
        wedge = float(wedge_norms(V, V2))
        if wedge <= 1e-14 * float(inorder_norm(V) * inorder_norm(V2)):
            outcomes.add("parallel")
            with pytest.raises(ValueError, match="parallel"):
                detmass.dm_kink(V, V2, b, convention=conv)
            continue
        outcomes.add("mass")
        want = (kappa * wedge) ** (1.0 / n) * b ** ((n - 1.0) / n)
        assert detmass.dm_kink(V, V2, b, convention=conv) == want
        strided = np.stack((V, V2), axis=1)
        assert detmass.dm_kink(strided[:, 0], strided[:, 1], b,
                               convention=conv) == want
    assert outcomes == {"parallel", "mass"}


# -- CLI-facing helpers -------------------------------------------------------


def test_measure_from_dict_round_trip():
    doc = {"atoms": [{"angle": 0.0, "weight": 2.0},
                     {"angle": np.pi / 2, "weight": 2.0},
                     {"angle": np.pi, "weight": 2.0},
                     {"angle": 3 * np.pi / 2, "weight": 2.0}]}
    mu = detmass.measure_from_dict(doc)
    assert detmass.is_balanced(mu)
    rep = detmass.measure_report(mu)
    assert rep["balanced"]
    assert rep["dm_closed"] == pytest.approx(2.0)
    assert rep["area"] == pytest.approx(4.0)
    assert rep["ratio"] == pytest.approx(2.0, rel=1e-12)
    with pytest.raises(ValueError):
        detmass.measure_from_dict({"atoms": []})
    with pytest.raises(ValueError):
        detmass.measure_from_dict({})


def test_measure_report_degenerate_cases():
    rep = detmass.measure_report(AngularMeasure(np.array([0.0]), np.ones(1)))
    assert rep == {"balanced": False, "dm_closed": None, "area": None,
                   "ratio": None}
    seg = detmass.measure_report(
        AngularMeasure(np.array([0.0, np.pi]), np.ones(2)))
    assert seg["balanced"] and seg["dm_closed"] == pytest.approx(0.0)
    assert seg["area"] is None and seg["ratio"] is None
