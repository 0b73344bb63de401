"""Frozen oracles and invariants for coefficient fields, the anisotropic
squared distance, frames and d1."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anisoplate import (
    CoefficientField,
    GreensColumn,
    assemble_operator,
    build_domain,
    build_frame,
    d1_quadrature,
    diag_field,
    identity_field,
    invert_spd2,
    m0_matrix,
    make_field,
    node_near,
    parse_shape,
    poly_field,
    rect_shape,
    rot_field,
)

# frozen oracle values, computed by hand before the implementation existed
_D1_ISO = 12.566370614359172        # 4*pi
_D1_DIAG21 = 17.771531752633464     # 4*pi*sqrt(2)
_D1_DIAG49 = 75.39822368615503      # 4*pi*sqrt(36) = 24*pi
_SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# coefficient fields


def test_identity_eval_and_bounds():
    f = identity_field()
    assert np.allclose(f.matrix([0.3, -0.7]), np.eye(2))
    pts = np.random.default_rng(0).uniform(-1, 1, size=(5, 2))
    assert f.matrix(pts).shape == (5, 2, 2)
    assert np.array_equal(np.linalg.eigvalsh(f.matrix(pts)), np.ones((5, 2)))


def test_diag_field_rejects_nonpositive():
    with pytest.raises(ValueError):
        diag_field(0.0, 1.0)
    with pytest.raises(ValueError):
        diag_field(2.0, -1.0)


def test_make_field_parses_and_rejects():
    assert make_field("identity").name == "identity"
    assert make_field("diag(2, 1)").matrix([0, 0])[0, 0] == 2.0
    assert make_field("poly(0.5)").matrix([1.0, 0.0])[0, 0] == 1.5
    r = make_field("rot(0.7, 2, 1)")
    evals = np.linalg.eigvalsh(r.matrix([0, 0]))
    assert np.allclose(evals, [1.0, 2.0])
    for bad in ("diag(2)", "poly()", "frob(1)", "diag(a,b)", "rot(1,2)",
                "diag(inf,1)", "poly(nan)", "rot(nan,2,1)"):
        with pytest.raises(ValueError):
            make_field(bad)


def test_one_spec_grammar_for_shapes_and_fields():
    # shapes and fields share one parser: the same spacing rules and the
    # same message for a wrong argument count, whatever the kind
    assert parse_shape(" rect (2, 1) ") == parse_shape("rect(2,1)")
    assert make_field(" diag (2, 1) ").name == "diag(2,1)"
    assert make_field("identity()").name == "identity"
    for build, spec, msg in ((parse_shape, "disk(1,2)", "disk takes 1 "),
                             (parse_shape, "rect(1)", "rect takes 2 "),
                             (make_field, "identity(1)", "identity takes 0 "),
                             (make_field, "rot(1,2)", "rot takes 3 "),
                             (parse_shape, "ellipse(1,2)", "unknown domain shape"),
                             (make_field, "disk(1)", "unknown coefficient field")):
        with pytest.raises(ValueError, match=re.escape(msg)):
            build(spec)


def test_poly_ellipticity_guard():
    with pytest.raises(ValueError):
        poly_field(-1.0, box=1.5)   # 1 - 2.25 < 0
    with pytest.raises(ValueError):
        poly_field(1e308, box=1.5)  # 1 + 2.25e308 overflows


def test_invert_spd2_closed_form_and_guard():
    a = np.array([[2.0, 0.5], [0.5, 1.0]])
    assert np.allclose(invert_spd2(a) @ a, np.eye(2), atol=1e-14)
    with pytest.raises(ValueError):
        invert_spd2(np.array([[1e-8, 0.0], [0.0, 1e-8]]))


# ---------------------------------------------------------------------------
# psi, on the grid of a column with source x


def _psi_grid(field, x, resolution):
    d = build_domain(rect_shape(2.0, 2.0), resolution)
    col = GreensColumn(assemble_operator(field, d), node_near(d, *x),
                       np.asarray(x, dtype=float), None)
    return d, col.psi


def test_psi_frozen_examples():
    # h = 0.5: nodes sit at (1, 0) and (1, 1)
    d, psi = _psi_grid(identity_field(), [0.0, 0.0], 5)
    assert psi[node_near(d, 1, 0)] == pytest.approx(1.0, abs=1e-15)
    d, psi = _psi_grid(diag_field(2.0, 1.0), [0.0, 0.0], 5)
    assert psi[node_near(d, 1, 0)] == pytest.approx(0.5, abs=1e-15)
    assert psi[node_near(d, 1, 1)] == pytest.approx(1.5, abs=1e-15)


def test_psi_positive_definite_in_offset():
    # poly(0.5) has spectrum in [1, 1 + 0.5 * 1.5^2] on the padded grid
    lam, lam_upper = 1.0, 1.0 + 0.5 * 1.5 ** 2
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = rng.uniform(-1, 1, 2)
        d, psi = _psi_grid(poly_field(0.5), x, 17)
        d2 = (d.X - x[0]) ** 2 + (d.Y - x[1]) ** 2
        assert np.all(psi > 0.0)
        # two-sided comparability with the Euclidean distance
        assert np.all(d2 / lam_upper <= psi + 1e-12)
        assert np.all(psi <= d2 / lam + 1e-12)


# ---------------------------------------------------------------------------
# frame


def test_frame_identity_closed_form():
    fr = build_frame(identity_field(), [0.0, 0.0])
    assert np.allclose(fr.a1, np.eye(2) / _SQRT2, atol=1e-14)
    assert np.allclose(fr.a2, np.diag([1.0, -1.0]) / _SQRT2, atol=1e-14)
    assert np.allclose(fr.a3, np.array([[0, 1], [1, 0]]) / _SQRT2, atol=1e-14)


def test_frame_first_member_is_scaled_coefficient():
    for f in (diag_field(2, 1), rot_field(0.3, 4, 9), poly_field(0.5)):
        y = np.array([0.37, -0.21])
        fr = build_frame(f, y)
        assert np.allclose(fr.a1, f.matrix(y) / _SQRT2, atol=1e-13)


def _gram(field, y, frame):
    s = field.inverse(y)
    mats = list(frame)
    return np.array([[np.trace(s @ m @ s @ n) for n in mats] for m in mats])


def test_frame_orthonormal_for_builtin_fields():
    y = np.array([0.4, 0.6])
    for f in (identity_field(), diag_field(2, 1), diag_field(4, 9),
              rot_field(0.7, 2, 1), poly_field(0.5)):
        g = _gram(f, y, build_frame(f, y))
        assert np.allclose(g, np.eye(3), atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(0.2, 5.0),
    b=st.floats(0.2, 5.0),
    c=st.floats(-0.9, 0.9),
    y1=st.floats(-1.0, 1.0),
    y2=st.floats(-1.0, 1.0),
)
def test_frame_orthonormal_property(a, b, c, y1, y2):
    # random constant SPD matrix: diag(a,b) plus bounded shear keeps
    # positive definiteness as long as c^2 < a*b is respected
    off = c * math.sqrt(a * b)
    mat = np.array([[a, off], [off, b]])
    f = CoefficientField("rand", lambda x, m=mat: np.broadcast_to(
        m, np.asarray(x).shape[:-1] + (2, 2)).copy())
    g = _gram(f, np.array([y1, y2]), build_frame(f, [y1, y2]))
    assert np.allclose(g, np.eye(3), atol=1e-9)


def test_frame_traceless_against_inverse():
    # second and third members are g-orthogonal to a1, i.e. have zero trace
    # against the inverse coefficient matrix
    f = poly_field(0.5)
    y = np.array([0.8, -0.3])
    s = f.inverse(y)
    fr = build_frame(f, y)
    assert abs(np.trace(fr.a2 @ s)) < 1e-12
    assert abs(np.trace(fr.a3 @ s)) < 1e-12


def test_m0_is_scaled_inverse_everywhere():
    rng = np.random.default_rng(3)
    for f in (identity_field(), diag_field(2, 1), rot_field(0.7, 4, 9), poly_field(0.5)):
        for _ in range(5):
            y = rng.uniform(-1.0, 1.0, 2)
            m0 = m0_matrix(f, y)
            assert np.allclose(m0, f.inverse(y) / _SQRT2, atol=1e-12)


def test_m0_duality_relations():
    f = poly_field(0.5)
    y = np.array([0.25, 0.5])
    m0 = m0_matrix(f, y)
    mats = list(build_frame(f, y))
    pair = [np.trace(m0 @ m) for m in mats]
    assert pair[0] == pytest.approx(1.0, abs=1e-12)
    assert abs(pair[1]) < 1e-12 and abs(pair[2]) < 1e-12


# ---------------------------------------------------------------------------
# d1


def test_d1_frozen_values():
    assert d1_quadrature(identity_field(), [0, 0]).d1 == pytest.approx(_D1_ISO, abs=1e-10)
    assert d1_quadrature(diag_field(2, 1), [0, 0]).d1 == pytest.approx(_D1_DIAG21, abs=1e-10)
    assert d1_quadrature(diag_field(4, 9), [0, 0]).d1 == pytest.approx(_D1_DIAG49, abs=1e-10)
    c = d1_quadrature(diag_field(2, 1), [0, 0])
    assert c.c1 == pytest.approx(1.0 / _D1_DIAG21, abs=1e-12)


def test_d1_rotation_invariant():
    # conjugating by a rotation preserves the circle average
    base = d1_quadrature(diag_field(2, 1), [0, 0]).d1
    for theta in (0.3, 1.1, 2.0):
        assert d1_quadrature(rot_field(theta, 2, 1), [0, 0]).d1 == pytest.approx(base, abs=1e-10)


def test_d1_pointwise_for_variable_field():
    # only the matrix value at the expansion point enters
    f = poly_field(0.5)
    got = d1_quadrature(f, [0.5, 0.0]).d1
    assert got == pytest.approx(4.0 * math.pi * math.sqrt(1.125), abs=1e-10)


@settings(max_examples=40, deadline=None)
@given(a=st.floats(0.3, 4.0), b=st.floats(0.3, 4.0), scale=st.floats(0.5, 3.0))
def test_d1_scaling_property(a, b, scale):
    # d1(c*A) = c * d1(A) for constant fields
    one = d1_quadrature(diag_field(a, b), [0, 0]).d1
    two = d1_quadrature(diag_field(scale * a, scale * b), [0, 0]).d1
    assert two == pytest.approx(scale * one, rel=1e-10)
