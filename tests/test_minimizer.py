"""Energy minimization: relaxed functional, descent, and state diagnostics."""

import csv
import warnings

import numpy as np
import pytest

from anisoplate import (
    DivergenceError,
    build_domain,
    default_schedule,
    disk_shape,
    linsolve,
    make_field,
    minimize,
    minimizer,
    rect_shape,
    sharp_energy,
    smoothed_energy,
    supersolution_check,
    write_history,
)
from anisoplate.grid import (EXTERIOR, INTERIOR, DiscreteDomain,
                             SparseOperator, assemble_operator)
from anisoplate.minimizer import (
    _precond_solve,
    smoothed_heaviside,
    smoothed_heaviside_prime,
)

SMALL_C = 0.05
LARGE_C = 10.0


def _packed(dom, u):
    """The interior and boundary vectors of a full-grid array."""
    return tuple(u.take(f) for f in dom.flat_index)


def _harmonic(op, trace):
    """The descent's starting state: L u = 0 with the given trace."""
    return op.domain.field(op.solve_dirichlet(0.0, trace), trace)


@pytest.fixture(scope="module")
def iso():
    return make_field("identity")


@pytest.fixture(scope="module")
def dom65():
    return build_domain(disk_shape(1.0), 65)


@pytest.fixture(scope="module")
def op65(iso, dom65):
    return assemble_operator(iso, dom65)


@pytest.fixture(scope="module")
def small65(op65):
    return minimize(op65, SMALL_C)


@pytest.fixture(scope="module")
def large65(op65):
    return minimize(op65, LARGE_C)


# ---------------------------------------------------------------------------
# smoothed indicator and energies


def test_smoothed_heaviside_shape():
    eps = 0.4
    assert smoothed_heaviside(-1.0, eps) == 0.0
    assert smoothed_heaviside(0.0, eps) == 0.0
    assert smoothed_heaviside(eps, eps) == 1.0
    assert smoothed_heaviside(5.0, eps) == 1.0
    assert smoothed_heaviside(0.5 * eps, eps) == pytest.approx(0.5)
    # C1: derivative vanishes at both ends, peaks at eps/2 with 1.5/eps
    assert smoothed_heaviside_prime(0.0, eps) == 0.0
    assert smoothed_heaviside_prime(eps, eps) == 0.0
    assert smoothed_heaviside_prime(0.5 * eps, eps) == pytest.approx(1.5 / eps)
    ts = np.linspace(0.05 * eps, 0.95 * eps, 7)
    d = 1e-7
    fd = (smoothed_heaviside(ts + d, eps) - smoothed_heaviside(ts - d, eps)) / (2 * d)
    assert np.allclose(fd, smoothed_heaviside_prime(ts, eps), atol=1e-5)


def test_smoothed_energy_all_negative_is_zero(op65, dom65):
    u = np.where(dom65.mask != EXTERIOR, -1.0, 0.0)
    e, g, _ = smoothed_energy(op65, *_packed(dom65, u), 0.3)
    assert abs(e) < 1e-20
    assert np.all(g == 0.0)


def test_smoothed_energy_positive_constant_unit_square(iso):
    dom = build_domain(rect_shape(1.0, 1.0), 65)
    op = assemble_operator(iso, dom)
    u = np.where(dom.mask != EXTERIOR, 1.0, 0.0)
    e, g, _ = smoothed_energy(op, *_packed(dom, u), 0.5)
    assert abs(e - 1.0) <= 0.02
    assert np.all(g == 0.0)  # flat above eps, bending zero on constants
    total, bending, measure = sharp_energy(op, *_packed(dom, u),
                                           op.apply_field(u))
    assert bending == 0.0
    assert abs(measure - 1.0) <= 0.02


def test_smoothed_energy_rejects_bad_eps(op65, dom65):
    ui, ub = np.zeros(dom65.n_interior), np.zeros(dom65.n_boundary)
    with pytest.raises(ValueError):
        smoothed_energy(op65, ui, ub, 0.0)
    with pytest.raises(ValueError):
        smoothed_energy(op65, ui, ub, -0.1)


def test_smoothed_energy_gradient_matches_directional_fd(iso):
    dom = build_domain(disk_shape(1.0), 17)
    op = assemble_operator(iso, dom)
    rng = np.random.default_rng(7)
    u = np.zeros(dom.mask.shape)
    u[dom.mask >= 1] = rng.uniform(-1.0, 1.0, (dom.mask >= 1).sum())
    eps = 0.5
    ij = dom.interior_ij
    _, grad, _ = smoothed_energy(op, *_packed(dom, u), eps)
    step = 1e-6
    for _ in range(10):
        d = rng.standard_normal(dom.n_interior)
        d /= np.linalg.norm(d)
        up = u.copy()
        up[ij[:, 0], ij[:, 1]] += step * d
        um = u.copy()
        um[ij[:, 0], ij[:, 1]] -= step * d
        ep = smoothed_energy(op, *_packed(dom, up), eps)[0]
        em = smoothed_energy(op, *_packed(dom, um), eps)[0]
        fd = (ep - em) / (2.0 * step)
        an = float(grad @ d)
        assert abs(fd - an) <= 1e-6 * max(1.0, abs(fd))


# ---------------------------------------------------------------------------
# continuation schedule


def test_default_schedule(dom65):
    sched = default_schedule(dom65, SMALL_C)
    assert all(b < a for a, b in zip(sched, sched[1:]))
    assert sched[0] == pytest.approx(0.25 * SMALL_C)
    floor = max(2.0 * dom65.h ** 2, 1e-4, 6.0 * dom65.h * SMALL_C)
    assert sched[-1] == pytest.approx(floor)
    with pytest.raises(ValueError):
        default_schedule(dom65, 0.0)


# ---------------------------------------------------------------------------
# initialization: the harmonic extension of the trace, solve_dirichlet with
# a zero right-hand side placed on the grid by DiscreteDomain.field


def test_harmonic_extension_constant(dom65, op65):
    u = _harmonic(op65, np.full(dom65.n_boundary, 3.0))
    assert np.abs(u[dom65.mask >= 1] - 3.0).max() < 1e-8


def test_harmonic_extension_linear_trace(dom65, op65):
    u = _harmonic(op65, dom65.trace(lambda x, y: x))
    ij = dom65.interior_ij
    err = np.abs(u[ij[:, 0], ij[:, 1]] - dom65.interior_xy[:, 0]).max()
    assert err <= dom65.h  # boundary-mask error is first order


def test_harmonic_extension_maximum_principle(dom65, op65):
    u = _harmonic(op65, dom65.trace(lambda x, y: 1.0 + 0.5 * y))
    inner = u[dom65.mask == INTERIOR]
    assert inner.min() >= 0.5 - 1e-10
    assert inner.max() <= 1.5 + 1e-10


def test_descent_solve_above_bound_raises(monkeypatch, iso):
    # factors whose solution is scaled by 1 + s leave relative residual s
    # exactly: above the 1e-8 bound the descent solve raises, below it passes
    real_splu = linsolve.splu

    def scaled_splu(s):
        class Scaled:
            def __init__(self, lu):
                self.lu = lu

            def solve(self, b):
                return (1.0 + s) * self.lu.solve(b)

        return lambda m: Scaled(real_splu(m))

    dom = build_domain(disk_shape(1.0), 33)
    rhs = np.ones(dom.n_interior)
    monkeypatch.setattr(linsolve, "splu", scaled_splu(1e-7))
    with pytest.raises(RuntimeError, match="residual 1.000e-07"):
        _precond_solve(assemble_operator(iso, dom), rhs)
    monkeypatch.setattr(linsolve, "splu", scaled_splu(1e-9))
    _precond_solve(assemble_operator(iso, dom), rhs)


# ---------------------------------------------------------------------------
# minimize: scenario with an empty negative set


def test_large_trace_returns_constant(large65, dom65):
    dev = np.abs(large65.u[dom65.mask >= 1] - LARGE_C).max()
    assert dev <= 1e-3
    assert large65.converged
    area = np.pi
    assert abs(large65.energy_sharp - area) <= 0.02 * area
    assert large65.u[dom65.mask >= 1].min() > 0.0
    assert supersolution_check(large65) <= 1e-6


# ---------------------------------------------------------------------------
# minimize: scenario that must open a negative set


def test_small_trace_beats_comparison_paraboloid(small65, dom65, op65):
    # candidate 2c|x|^2 - c sampled at grid coordinates; its exact energy is
    # 64 pi c^2 + pi/2 ~ 2.0735 and the discrete value lands within O(h)
    c = SMALL_C
    cand = 2.0 * c * (dom65.X ** 2 + dom65.Y ** 2) - c
    cand[dom65.mask == EXTERIOR] = 0.0
    e_cand = sharp_energy(op65, *_packed(dom65, cand),
                          op65.apply_field(cand))[0]
    assert abs(e_cand - 2.0735) <= 0.05
    assert small65.energy_sharp <= e_cand
    assert small65.energy_sharp <= 2.2


def test_small_trace_opens_negative_set(small65, dom65):
    assert small65.u[dom65.mask == INTERIOR].min() < 0.0
    assert small65.converged


def test_small_trace_upper_bound_every_scenario(small65, large65):
    area = np.pi
    assert small65.energy_sharp <= 1.02 * area
    assert large65.energy_sharp <= 1.02 * area


def test_trace_pinned_exactly(small65, dom65):
    bj = dom65.boundary_ij
    assert np.all(small65.u[bj[:, 0], bj[:, 1]] == SMALL_C)


def test_bending_energy_consistent_with_v(small65, dom65):
    v = small65.v
    assert v.shape == (dom65.n_interior,)
    recomputed = dom65.h ** 2 * float(v @ v)
    assert abs(recomputed - small65.energy_bending) <= 1e-12 * recomputed


def test_energies_and_gradient_finite_on_a_tiny_disk(iso):
    # on disk(1e-100) L_h u reaches u0/h^2 ~ 1e201, so v.v and L_h^T v
    # would overflow; the energies sum (h v).(h v) and the gradient applies
    # L_h^T to 2 h^2 v, which stay finite, with no overflow warning
    dom = build_domain(disk_shape(1e-100), 33)
    op = assemble_operator(iso, dom)
    trace = np.full(dom.n_boundary, SMALL_C)
    start = op.solve_dirichlet(0.0, trace)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for ui in (start, start - 0.5 * SMALL_C):
            energy, grad, v = smoothed_energy(op, ui, trace, 0.25 * SMALL_C)
            assert np.abs(v).max() > 1e160  # so v.v > 1e320 overflows
            assert np.isfinite(energy) and np.all(np.isfinite(grad))
            assert np.all(np.isfinite(sharp_energy(op, ui, trace, v)))


def test_history_monotone_within_stage(small65):
    by_stage = {}
    for stage, it, e_eps, e_sharp, max_lu in small65.history:
        by_stage.setdefault(stage, []).append(e_eps)
    for vals in by_stage.values():
        for a, b in zip(vals, vals[1:]):
            assert b <= a + 1e-12 * (1.0 + abs(a))


def test_sharp_energy_nonincreasing_across_stages(small65):
    by_stage = {}
    for stage, it, e_eps, e_sharp, max_lu in small65.history:
        by_stage.setdefault(stage, []).append(e_sharp)
    stages = sorted(by_stage)
    for a, b in zip(stages, stages[1:]):
        assert by_stage[b][0] <= by_stage[a][-1] * 1.01


def test_final_relaxed_energy_below_initial(small65, dom65, op65):
    init = _harmonic(op65, np.full(dom65.n_boundary, SMALL_C))
    eps = small65.epsilon
    e_init = smoothed_energy(op65, *_packed(dom65, init), eps)[0]
    e_final = smoothed_energy(op65, *_packed(dom65, small65.u), eps)[0]
    assert e_final <= e_init + 1e-12


def test_positive_collar_near_boundary(small65, dom65):
    pts = np.stack([dom65.X, dom65.Y], axis=-1)
    sd = dom65.shape.sdf(pts)
    collar = (dom65.mask >= 1) & (sd >= -0.1)
    assert small65.u[collar].min() > 0.0


def test_minimize_input_validation(op65, dom65):
    with pytest.raises(ValueError):
        minimize(op65, 0.0)
    with pytest.raises(ValueError):
        minimize(op65, dom65.trace(lambda x, y: x))  # changes sign
    with pytest.raises(ValueError):
        minimize(op65, np.ones(3))  # wrong node count


def test_exhausted_backtracking_aborts_with_history(iso, monkeypatch):
    # no step can meet an Armijo slope this steep, so every halving fails
    monkeypatch.setattr(minimizer, "_armijo_slope", 1e6)
    dom = build_domain(disk_shape(1.0), 17)
    with pytest.raises(DivergenceError) as err:
        minimize(assemble_operator(iso, dom), SMALL_C)
    assert isinstance(err.value.history, tuple)
    assert len(err.value.history) > 0


def test_descent_field_work_does_not_grow_with_iterations(monkeypatch,
                                                          op65):
    # the descent iterates on interior vectors, so grid copies and field
    # applications of L_h happen at set-up and for the returned state only,
    # never once per Armijo trial
    counts = {}
    for cls, name in ((DiscreteDomain, "field"),
                      (SparseOperator, "apply_field")):
        def counting(self, *args, _real=getattr(cls, name), _name=name):
            counts[_name] += 1
            return _real(self, *args)
        monkeypatch.setattr(cls, name, counting)
    runs = []
    for max_outer in (2, 200):
        monkeypatch.setattr(minimizer, "_max_outer", max_outer)
        counts.update(field=0, apply_field=0)
        state = minimize(op65, SMALL_C)
        runs.append((len(state.history), dict(counts)))
    (few, work_few), (many, work_many) = runs
    assert many > 4 * few
    assert work_few == work_many
    assert max(work_many.values()) <= 3


def _stage_energies(state):
    """{stage: [E_eps at iter 0, 1, ...]} from the history."""
    out = {}
    for stage, it, e_eps, _, _ in state.history:
        assert it == len(out.setdefault(stage, []))
        out[stage].append(e_eps)
    return out


def _first_stationary(energies, window, rtol):
    """The first iter at which the drop over the last `window` steps
    averages below `rtol` relative, or None."""
    for it in range(window, len(energies)):
        if energies[it - window] - energies[it] <= \
                window * rtol * (1.0 + abs(energies[it])):
            return it
    return None


def test_intermediate_stages_stop_on_the_short_test(small65):
    # each stage but the last only seeds the next width: it ends at the
    # first step where the 2-step drop averages below 1e-8 relative
    stages = _stage_energies(small65)
    assert len(stages) > 1
    for stage in sorted(stages)[:-1]:
        energies = stages[stage]
        assert _first_stationary(energies, minimizer._stage_window,
                                 minimizer._stage_rtol) \
            == len(energies) - 1 > minimizer._stage_window


def test_last_stage_keeps_the_ten_step_rule(small65):
    stages = _stage_energies(small65)
    energies = stages[max(stages)]
    assert (minimizer._stationary_window, minimizer._stationary_rtol) \
        == (10, 1e-10)
    assert _first_stationary(energies, 10, 1e-10) == len(energies) - 1
    # the short test alone would have stopped it earlier
    assert _first_stationary(energies, minimizer._stage_window,
                             minimizer._stage_rtol) < len(energies) - 1
    assert small65.converged


def test_one_width_schedule_ignores_the_stage_rule(monkeypatch, op65):
    # a one-width schedule has only a last stage: it runs to the ten-step
    # rule, and the intermediate constants cannot reach it
    floor = default_schedule(op65.domain, SMALL_C)[-1]
    monkeypatch.setattr(minimizer, "default_schedule",
                        lambda domain, u0_max: (floor,))
    runs = []
    for window, rtol in ((2, 1e-8), (1, 1.0)):
        monkeypatch.setattr(minimizer, "_stage_window", window)
        monkeypatch.setattr(minimizer, "_stage_rtol", rtol)
        runs.append(minimize(op65, SMALL_C))
    one, loose = runs
    assert one.history == loose.history
    assert np.array_equal(one.u, loose.u)
    energies = _stage_energies(one)[0]
    assert _first_stationary(energies, 10, 1e-10) == len(energies) - 1
    assert one.epsilon == floor and one.converged


def test_minimize_solve_budget(monkeypatch, op65):
    # one solve for the probe bump and two per accepted step (the nested
    # preconditioner); the Armijo search starts at t = 1 and spends none
    calls = []
    real = minimizer.solve_spd

    def counting(matrix, rhs, tol):
        calls.append(tol)
        return real(matrix, rhs, tol)

    monkeypatch.setattr(minimizer, "solve_spd", counting)
    state = minimize(op65, SMALL_C)
    stages = len({row[0] for row in state.history})
    assert len(calls) == 1 + 2 * (len(state.history) - stages)


# ---------------------------------------------------------------------------
# diagnostics on converged states


def test_supersolution_sign(small65):
    assert supersolution_check(small65) <= 1e-6


def test_supersolution_nontrivial_bending(small65):
    assert small65.v.min() < -0.1


def test_inward_bump_raises_energy(small65, dom65, op65):
    # a positive bump supported where u > eps leaves the measure term flat
    # but adds bending: descent would reject it, so energy must increase
    eps = small65.epsilon
    pts = np.stack([dom65.X, dom65.Y], axis=-1)
    sd = dom65.shape.sdf(pts)
    support = (dom65.mask == INTERIOR) & (small65.u > 2 * eps) & (sd <= -0.05)
    assert support.sum() > 0
    bumped = small65.u.copy()
    bumped[support] += 0.3 * eps
    e0 = smoothed_energy(op65, *_packed(dom65, small65.u), eps)[0]
    e1 = smoothed_energy(op65, *_packed(dom65, bumped), eps)[0]
    assert e1 > e0


def test_write_history_roundtrip(small65, tmp_path):
    path = tmp_path / "history.csv"
    write_history(small65.history, str(path))
    with open(path) as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["stage", "iter", "E_eps", "E_sharp", "max_Lu"]
    assert len(rows) - 1 == len(small65.history)
    for row, rec in zip(rows[1:], small65.history):
        assert int(row[0]) == rec[0]
        assert int(row[1]) == rec[1]
        assert float(row[2]) == rec[2]
        assert float(row[3]) == rec[3]
        assert float(row[4]) == rec[4]
