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
    _lbfgs_direction,
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
    floor = max(2.0 * dom65.h ** 2, 6.0 * dom65.h * SMALL_C)
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


def test_lbfgs_direction_base_operator_and_secant_condition(iso):
    # with no pairs the direction is -H0 g, H0 = (2 h^2 M^2)^-1 the inverse
    # bending Hessian, M = S / h^2 the matrix of L_h; with pairs, H maps the
    # newest y to the newest s
    dom = build_domain(disk_shape(1.0), 17)
    op = assemble_operator(iso, dom)
    dense = op.matrix.toarray() / dom.h ** 2
    hess = 2.0 * dom.h ** 2 * dense @ dense
    rng = np.random.default_rng(3)
    g = rng.standard_normal(dom.n_interior)
    d0 = _lbfgs_direction(op, g, [])
    assert np.allclose(d0, -np.linalg.solve(hess, g), rtol=1e-10, atol=0.0)
    pairs = []
    for shift in (0.5, 2.0, 1.0):
        s = rng.standard_normal(dom.n_interior)
        y = hess @ s + shift * s
        pairs.append((s, y, 1.0 / float(s @ y)))
    s_last, y_last, _ = pairs[-1]
    d = _lbfgs_direction(op, y_last, pairs)
    assert np.linalg.norm(d + s_last) <= 1e-10 * np.linalg.norm(s_last)
    # a descent direction for any gradient: H stays positive definite
    assert float(g @ _lbfgs_direction(op, g, pairs)) < 0.0


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
    # S = h^2 L_h^T to 2 v, which stay finite, with no overflow warning
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
    for max_outer in (1, 200):
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


def _traced_minimize(monkeypatch, op):
    """minimize(op, SMALL_C), the number of smoothed_energy calls it made,
    and the gradient norm at each history row (the accepted trial's)."""
    calls = []
    real = minimizer.smoothed_energy

    def recording(op, ui, ub, eps):
        out = real(op, ui, ub, eps)
        calls.append((eps, out[0], float(np.linalg.norm(out[1]))))
        return out

    monkeypatch.setattr(minimizer, "smoothed_energy", recording)
    state = minimize(op, SMALL_C)
    schedule = default_schedule(op.domain, SMALL_C)
    gnorm = {(eps, energy): g for eps, energy, g in calls}
    return state, len(calls), [gnorm[schedule[row[0]], row[2]]
                               for row in state.history]


def _stage_ends(state, gnorms):
    """Check that each stage ends at its first row where the stopping rule
    holds, and return per stage the test that ended it: "settled" when the
    energy drop over the last _window steps averages below _rtol relative,
    "gradient" when the gradient norm is within _tol_grad."""
    window, rtol = minimizer._window, minimizer._rtol
    ends = []
    row = 0
    for stage, energies in sorted(_stage_energies(state).items()):
        tests = []
        for it, energy in enumerate(energies):
            tests.append([])
            if gnorms[row + it] <= minimizer._tol_grad:
                tests[-1].append("gradient")
            if it >= window and energies[it - window] - energy <= \
                    window * rtol * (1.0 + abs(energy)):
                tests[-1].append("settled")
        row += len(energies)
        assert not any(tests[:-1]), stage
        assert tests[-1], stage
        ends.append(tests[-1][0])
    return ends


@pytest.mark.parametrize("spec", ["identity", "rot(0.7,2,1)"])
def test_every_stage_ends_on_the_one_rule(monkeypatch, dom65, spec):
    # intermediate and last stages alike end at the first step where the
    # energy has settled over two steps, or at the gradient floor
    assert (minimizer._window, minimizer._rtol, minimizer._tol_grad) \
        == (2, 1e-11, 1e-7)
    op = assemble_operator(make_field(spec), dom65)
    state, _, gnorms = _traced_minimize(monkeypatch, op)
    assert len(_stage_energies(state)) > 1
    assert set(_stage_ends(state, gnorms)) <= {"settled", "gradient"}
    assert state.converged


def test_builtin_descent_step_budget(monkeypatch, iso):
    # the L-BFGS descent takes 23 steps on the builtin at 129^2, the
    # fixed bending-Newton step took 40
    op = assemble_operator(iso, build_domain(disk_shape(1.0), 129))
    state, _, gnorms = _traced_minimize(monkeypatch, op)
    stages = len(_stage_energies(state))
    assert len(state.history) - stages <= 23
    _stage_ends(state, gnorms)
    assert state.converged


def test_settled_stages_spend_no_halvings(monkeypatch, dom65):
    # a stage ends once its energy has settled, before steps that leave
    # the energy unchanged, each of which spends many Armijo halvings
    op = assemble_operator(make_field("rot(0.7,2,1)"), dom65)
    state, evals, _ = _traced_minimize(monkeypatch, op)
    assert evals <= 40
    assert state.converged


def test_small_disks_open_a_zero_set_and_agree(iso):
    # u_R(x) = R^2 u(x/R) maps disk(R) onto the unit disk, so E/area does
    # not depend on R; a ramp-width floor that does not scale with R would
    # leave disk(0.01) one wide width and no zero set
    per_area = []
    for radius in (0.01, 0.1):
        dom = build_domain(disk_shape(radius), 65)
        state = minimize(assemble_operator(iso, dom), SMALL_C * radius ** 2)
        assert state.u[dom.mask == INTERIOR].min() < 0.0
        assert state.converged
        per_area.append(state.energy_sharp / (np.pi * radius ** 2))
    assert per_area[0] == pytest.approx(per_area[1], rel=1e-5)


def test_minimizer_is_scale_free_on_disks(iso):
    # under u_R(x) = R^2 u(x/R) the discrete problem on disk(R) is the unit
    # disk's: the settle test is relative to |E| and the width floor scales
    # with the domain, so every radius takes the same steps per stage to
    # the same E/area.  The solves see S = h^2 M, whose entries do not
    # depend on R, so no intermediate of the nested solve underflows, down
    # to disk(1e-100)
    def run(radius, resolution):
        dom = build_domain(disk_shape(radius), resolution)
        state = minimize(assemble_operator(iso, dom), SMALL_C * radius ** 2)
        assert state.converged
        steps = (np.bincount([row[0] for row in state.history]) - 1).tolist()
        return steps, state.energy_sharp / (np.pi * radius ** 2)

    runs = [run(radius, 65) for radius in (1e-8, 0.01, 1.0, 4.0)]
    for steps, per_area in runs[1:]:
        assert steps == runs[0][0]
        assert per_area == pytest.approx(runs[0][1], rel=1e-9)
    unit = run(1.0, 33)
    assert unit[0] == [9]
    for radius in (1e-80, 1e-100):
        steps, per_area = run(radius, 33)
        assert steps == [9]
        assert per_area == pytest.approx(unit[1], rel=1e-12)


def test_minimize_solve_budget(monkeypatch, op65):
    # one solve for the probe bump and two per accepted step (the nested
    # preconditioner); the Armijo search starts at t = 1 and spends none
    calls = []
    real = minimizer.solve_spd

    def counting(matrix, rhs):
        calls.append(matrix)
        return real(matrix, rhs)

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
