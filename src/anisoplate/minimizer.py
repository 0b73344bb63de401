"""Free-boundary energy minimization: bending energy plus the measure of
the positivity set, relaxed through a smoothed indicator and driven by
preconditioned descent.

The sharp objective is sum (L_h u)^2 h^2 + |{u > 0}|.  The indicator is
relaxed to a cubic ramp of width eps, the width follows a halving
schedule, and each stage runs descent preconditioned by two nested
L-solves (the bending Hessian is L^T L, so this flattens its h^-4
conditioning) with Armijo backtracking from the unit step, which is the
exact Newton step of the bending part.  Because any positive constant is
a critical point of the relaxed energy once eps < min u, each stage first
tries a deterministic family of downward bumps (scaled solutions of
L B = 1) and keeps a bump only when it strictly lowers the stage
energy."""

from dataclasses import dataclass

import numpy as np

from .grid import ScalarField, write_table
from .linsolve import solve_spd

_minimizer_solve_tol = 1e-8
_armijo_slope = 1e-4
_max_backtracks = 50
_probe_scales = (1.0, 2.0, 4.0)
_schedule_floor_abs = 1e-4
_schedule_floor_cells = 6.0
# a stage stops once the euclidean norm of the energy gradient over
# interior unknowns falls below _tol_grad, or after _max_outer steps
_tol_grad = 1e-7
_max_outer = 200
# A stage also ends, converged, once the energy is stationary: the drop over
# the last _stationary_window accepted steps averages below _stationary_rtol
# relative.  A windowed average is robust to step-to-step oscillation of the
# decrement, and even a full _max_outer budget at that rate moves the energy
# by under 200 * 1e-10 * (1 + E), orders below any quantity read off the
# returned state.
_stationary_rtol = 1e-10
_stationary_window = 10


class DivergenceError(RuntimeError):
    """Descent could not decrease the energy; carries the history so far."""

    def __init__(self, message, history):
        super().__init__(message)
        self.history = tuple(history)


def default_schedule(domain, u0_max):
    """Halving widths from 0.25*max(u0) down to the resolvability floor.

    The floor is max(2h^2, 1e-4, 6 h max(u0)): the last term keeps the
    transition strip a few cells wide so quantities sampled across it
    (measure density, zero-set gradients) stay resolved on the grid.
    """
    if u0_max <= 0:
        raise ValueError("boundary data must be positive")
    floor = max(2.0 * domain.h ** 2, _schedule_floor_abs,
                _schedule_floor_cells * domain.h * u0_max)
    eps = 0.25 * u0_max
    out = []
    while eps > floor * (1.0 + 1e-12):
        out.append(eps)
        eps *= 0.5
    out.append(floor)
    return tuple(out)


@dataclass(frozen=True)
class MinimizerState:
    u: ScalarField
    v: ScalarField            # L_h u on interior nodes
    energy_bending: float
    energy_measure: float     # sharp positivity measure
    epsilon: float
    history: tuple            # rows (stage, iter, E_eps, E_sharp, max_Lu)
    converged: bool

    @property
    def energy_sharp(self):
        return self.energy_bending + self.energy_measure


# ---------------------------------------------------------------------------
# smoothed indicator


def smoothed_heaviside(t, eps):
    """C1 ramp: 0 below 0, cubic smoothstep on (0, eps), 1 above."""
    s = np.clip(np.asarray(t, dtype=float) / eps, 0.0, 1.0)
    return s * s * (3.0 - 2.0 * s)


def smoothed_heaviside_prime(t, eps):
    t = np.asarray(t, dtype=float)
    s = t / eps
    inside = (s > 0.0) & (s < 1.0)
    out = np.zeros_like(t)
    si = s[inside]
    out[inside] = (6.0 * si - 6.0 * si * si) / eps
    return out


# ---------------------------------------------------------------------------
# energies


def smoothed_energy(op, ui, ub, eps):
    """Relaxed energy, its gradient over interior unknowns, and v = L_h u,
    for the state with interior values ui and boundary values ub.

    E_eps = sum (L_h u)^2 h^2 + sum H_eps(u) (cell weights), gradient
    2 h^2 L_h^T (L_h u) + w H_eps'(u).  Returns (E_eps, gradient, v).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    d = op.domain
    h2 = d.h ** 2
    wi, wb = d.measure_weights
    v = op.apply(ui, ub)
    bending = h2 * float(v @ v)
    measure = float(wi @ smoothed_heaviside(ui, eps)) \
        + float(wb @ smoothed_heaviside(ub, eps))
    grad = 2.0 * h2 * (op.matrix @ v) + wi * smoothed_heaviside_prime(ui, eps)
    return bending + measure, grad, v


def sharp_energy(op, ui, ub, v):
    """(total, bending, measure) with the exact positivity indicator, for
    the state with interior values ui, boundary values ub and v = L_h u."""
    d = op.domain
    wi, wb = d.measure_weights
    bending = d.h ** 2 * float(v @ v)
    measure = float(wi @ (ui > 0.0)) + float(wb @ (ub > 0.0))
    return bending + measure, bending, measure


# ---------------------------------------------------------------------------
# initialization


def harmonic_extension(op, u0):
    """Solve L u = 0 with boundary values u0, a scalar or one value per
    boundary node (DiscreteDomain.trace); the canonical starting state.
    A wrong length raises ValueError."""
    domain = op.domain
    trace = np.broadcast_to(np.asarray(u0, dtype=float), (domain.n_boundary,))
    sol = op.solve_dirichlet(np.zeros(domain.n_interior), trace)
    out = ScalarField(domain)
    out.values.put(domain.flat_index[1], trace)
    return out.replace_interior(sol)


# ---------------------------------------------------------------------------
# descent


def _precond_solve(op, rhs):
    """L^-1 rhs by the operator's sparse LU; raises when the relative
    residual exceeds _minimizer_solve_tol."""
    return solve_spd(op.matrix, rhs, tol=_minimizer_solve_tol)[0]


def _direction(op, v, grad_measure_over_weight):
    """d = -L^-1 (v + L^-1 (H'/2)): Newton step on the bending part with
    the measure force folded through the same preconditioner."""
    inner = _precond_solve(op, 0.5 * grad_measure_over_weight)
    return -_precond_solve(op, v + inner)


def minimize(op, u0):
    """Minimize the relaxed energy over fields with the given trace.

    input : assembled operator (it carries the domain and the coefficient
            field), boundary data (a positive scalar or one value per
            boundary node, as DiscreteDomain.trace gives).
    output: MinimizerState at the last width of default_schedule.  The
            trace is pinned exactly at every iterate; per-stage energies
            never increase.
    Each stage first tries downward bumps (scaled solutions of L B = 1)
    from the pre-probe state and keeps the best strict improvement, since
    descent alone never leaves a positive constant; then each step starts
    at t = 1 and halves it until the Armijo condition holds, and running
    out of halvings raises DivergenceError.  The loop works on the
    interior vector beside the pinned trace: each trial evaluates the
    energy once, its L_h u serves the accepted step, and ScalarFields are
    built only for the returned state.
    """
    domain = op.domain
    trace = np.broadcast_to(np.asarray(u0, dtype=float), (domain.n_boundary,))
    if trace.min() <= 0:
        raise ValueError("boundary data must be positive everywhere")
    u0_max = float(trace.max())
    schedule = default_schedule(domain, u0_max)

    u = harmonic_extension(op, trace)
    ui, ub = u.interior(), u.boundary()
    bump = _precond_solve(op, np.ones(domain.n_interior))
    bump /= float(bump.max())

    history = []
    converged = True

    for stage, eps in enumerate(schedule):
        energy, grad, v = smoothed_energy(op, ui, ub, eps)
        start = ui
        for scale in _probe_scales:
            cand = start - scale * u0_max * bump
            trial = smoothed_energy(op, cand, ub, eps)
            if trial[0] < energy - 1e-15:
                ui, (energy, grad, v) = cand, trial
        e_sharp = sharp_energy(op, ui, ub, v)[0]
        history.append((stage, 0, energy, e_sharp, float(v.max())))

        for it in range(1, _max_outer + 1):
            gnorm = float(np.linalg.norm(grad))
            if gnorm <= _tol_grad:
                break
            hp = smoothed_heaviside_prime(ui, eps)
            d_vec = _direction(op, v, hp)
            slope = float(grad @ d_vec)
            if slope >= 0.0:
                d_vec = -grad
                slope = -gnorm ** 2

            t = 1.0
            for _ in range(_max_backtracks):
                cand = ui + t * d_vec
                trial = smoothed_energy(op, cand, ub, eps)
                if trial[0] <= energy + _armijo_slope * t * slope:
                    ui, (energy, grad, v) = cand, trial
                    break
                t *= 0.5
            else:
                raise DivergenceError(
                    "backtracking exhausted %d halvings without descent"
                    % _max_backtracks, history)

            e_sharp = sharp_energy(op, ui, ub, v)[0]
            history.append((stage, it, energy, e_sharp, float(v.max())))
            # descent that can no longer buy measurable energy is stationary
            # at this ramp width even if the gradient norm floor is higher;
            # the window opens at this stage's row it - _stationary_window
            if (it >= _stationary_window and
                    history[-1 - _stationary_window][2] - energy <=
                    _stationary_window * _stationary_rtol *
                    (1.0 + abs(energy))):
                break
        else:
            converged = False

    _, bending, measure = sharp_energy(op, ui, ub, v)
    return MinimizerState(u.replace_interior(ui),
                          ScalarField(domain).replace_interior(v), bending,
                          measure, schedule[-1], tuple(history), converged)


# ---------------------------------------------------------------------------
# diagnostics on converged states


def supersolution_check(state):
    """Max of L_h u over interior nodes; nonpositive up to slack when the
    state satisfies the optimality condition."""
    return float(state.v.interior().max())


def write_history(state, path):
    """Per-iteration CSV: stage,iter,E_eps,E_sharp,max_Lu."""
    write_table(path, "stage,iter,E_eps,E_sharp,max_Lu",
                "%d,%d,%.17g,%.17g,%.17g", list(zip(*state.history)))
