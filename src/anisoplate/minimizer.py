"""Free-boundary energy minimization: bending energy plus the measure of
the positivity set, relaxed through a smoothed indicator and driven by
preconditioned L-BFGS descent.

The sharp objective is sum (L_h u)^2 h^2 + |{u > 0}|.  The indicator is
relaxed to a cubic ramp of width eps, the width follows a halving
schedule, and each stage runs limited-memory BFGS descent (Nocedal 1980)
with Armijo backtracking from the unit step.  Its base operator is the
inverse bending Hessian, two nested S-solves, S = h^2 L (the bending
Hessian is 2 h^2 L^T L, so this flattens its h^-4 conditioning): a
stage's first step is the exact Newton step of the bending part, and
each later step also uses the stage's last few (step, gradient change)
pairs, which carry the curvature of the measure term, at the same two
solves.  Because any positive constant is a critical point of the relaxed
energy once eps < min u, each stage first tries a deterministic family of
downward bumps (scaled solutions of L B = 1) and keeps a bump only when
it strictly lowers the stage energy.  Every stage ends on the same rule:
at the gradient floor, or once its energy has settled over its last two
steps.  Every solve is checked against solve_spd's one residual bound."""

from dataclasses import dataclass

import numpy as np

from .grid import write_table
from .linsolve import solve_spd

_armijo_slope = 1e-4
_max_backtracks = 50
_probe_scales = (1.0, 2.0, 4.0)
_schedule_floor_cells = 6.0
# A stage ends once the euclidean norm of the energy gradient over interior
# unknowns falls below _tol_grad, or once its energy has settled: the drop
# over its last _window accepted steps averages below _rtol relative.  The
# second test also ends a stage whose steps no longer change the energy
# while its gradient norm stalls above _tol_grad.  Both are scale-free: under
# u_R(x) = R^2 u(x/R) on disk(R) E scales like R^2, the gradient not at all.
# On disk(1) at 65^2-513^2 (identity and rot(0.7,2,1)) the last smoothed
# energy stays within 6.4e-13 relative of a ten-step, 1e-10 window's; a
# two-step window at 1e-10 moved the sharp energy by 6.2e-7 at 129^2
# rot(0.7,2,1).  A stage that meets neither test stops after _max_outer
# steps, unconverged.
_tol_grad = 1e-7
_rtol = 1e-11
_window = 2
_max_outer = 200
# Each stage's L-BFGS direction uses its last _memory accepted pairs
# (s, y) = (step, gradient change); the pairs are cleared when the width
# changes.  On disk(1) with identity and rot(0.7,2,1), a memory of 5 took
# the same 23 and 30 descent steps as 3 at 129^2, and 2-6 fewer at 65^2
# and 257^2.
_memory = 3


class DivergenceError(RuntimeError):
    """Descent could not decrease the energy; carries the history so far."""

    def __init__(self, message, history):
        super().__init__(message)
        self.history = tuple(history)


def default_schedule(domain, u0_max):
    """Halving widths from 0.25*max(u0) down to the resolvability floor.

    The floor is max(2h^2, 6 h max(u0) / l), l the domain's bounding
    half-width: the last term keeps the transition strip eps/|grad u| ~
    eps l / max(u0) a few cells wide so quantities sampled across it
    (measure density, zero-set gradients) stay resolved on the grid.
    """
    if u0_max <= 0:
        raise ValueError("boundary data must be positive")
    floor = max(2.0 * domain.h ** 2, _schedule_floor_cells * domain.h * u0_max
                / domain.shape.bbox_halfwidth())
    eps = 0.25 * u0_max
    out = []
    while eps > floor * (1.0 + 1e-12):
        out.append(eps)
        eps *= 0.5
    out.append(floor)
    return tuple(out)


@dataclass(frozen=True)
class MinimizerState:
    u: np.ndarray             # the state on the full grid
    v: np.ndarray             # L_h u, one value per interior node
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
    v grows like u/h^2, so the bending term is summed as (h v).(h v) and
    the gradient applies S = h^2 L_h^T to 2 v: neither overflows where v.v
    or L_h^T v would.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    d = op.domain
    wi, wb = d.measure_weights
    v = op.apply(ui, ub)
    hv = d.h * v
    bending = float(hv @ hv)
    measure = float(wi @ smoothed_heaviside(ui, eps)) \
        + float(wb @ smoothed_heaviside(ub, eps))
    grad = op.matrix @ (2.0 * v) + wi * smoothed_heaviside_prime(ui, eps)
    return bending + measure, grad, v


def sharp_energy(op, ui, ub, v):
    """(total, bending, measure) with the exact positivity indicator, for
    the state with interior values ui, boundary values ub and v = L_h u."""
    d = op.domain
    wi, wb = d.measure_weights
    hv = d.h * v
    bending = float(hv @ hv)
    measure = float(wi @ (ui > 0.0)) + float(wb @ (ub > 0.0))
    return bending + measure, bending, measure


# ---------------------------------------------------------------------------
# descent


def _lbfgs_direction(op, grad, pairs):
    """-H grad by the L-BFGS two-loop recursion (Nocedal 1980) over the
    stored pairs (s, y, 1/(s.y)), oldest first.

    The base operator is the inverse of the bending Hessian 2 h^2 L^T L,
    H0 q = (h^2 / 2) S^-1 (S^-1 q), S = h^2 L: two solves, whatever the
    number of pairs, whose intermediate stays near |q| on any disk.  With
    no pairs the direction is -H0 grad, the Newton step of the bending
    part; with pairs it also satisfies the newest secant condition
    H y = s, so it learns the curvature of the measure term.
    """
    q = grad
    alphas = []
    for s, y, rho in reversed(pairs):
        alphas.append(rho * float(s @ q))
        q = q - alphas[-1] * y
    r = 0.5 * op.domain.h ** 2 * solve_spd(op, solve_spd(op, q)[0])[0]
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        r += (alpha - rho * float(y @ r)) * s
    return -r


def minimize(op, u0):
    """Minimize the relaxed energy over fields with the given trace.

    input : assembled operator (it carries the domain and the coefficient
            field), boundary data (a positive scalar or one value per
            boundary node, as DiscreteDomain.trace gives).
    output: MinimizerState at the last width of default_schedule.  The
            trace is pinned exactly at every iterate; per-stage energies
            never increase.
    The descent starts from the solution of L u = 0 with the trace.  Each
    stage first tries downward bumps (scaled solutions of L B = 1) from the
    pre-probe state and keeps the best that gains over 1e-15 |E|, since descent
    alone never leaves a positive constant.  Each step then takes the
    L-BFGS direction over the stage's last _memory accepted pairs (none at
    a stage's start, and a pair with s.y <= 0 is not kept), falls back to
    -gradient if that is not a descent direction, starts at t = 1 and
    halves t until the Armijo condition holds; running out of halvings
    raises DivergenceError.  The loop works on the interior vector beside
    the pinned trace: each trial evaluates the energy once, its L_h u
    serves the accepted step, and the full-grid u is built only for the
    returned state.
    """
    domain = op.domain
    trace = np.broadcast_to(np.asarray(u0, dtype=float), (domain.n_boundary,))
    if trace.min() <= 0:
        raise ValueError("boundary data must be positive everywhere")
    u0_max = float(trace.max())
    schedule = default_schedule(domain, u0_max)

    ui, ub = op.solve_dirichlet(0.0, trace), trace
    bump = solve_spd(op, np.ones(domain.n_interior))[0]   # S b = 1
    bump /= float(bump.max())

    history = []
    converged = True

    for stage, eps in enumerate(schedule):
        energy, grad, v = smoothed_energy(op, ui, ub, eps)
        start = ui
        for scale in _probe_scales:
            cand = start - scale * u0_max * bump
            trial = smoothed_energy(op, cand, ub, eps)
            if trial[0] < energy - 1e-15 * abs(energy):
                ui, (energy, grad, v) = cand, trial
        e_sharp = sharp_energy(op, ui, ub, v)[0]
        history.append((stage, 0, energy, e_sharp, float(v.max())))

        pairs = []
        for it in range(1, _max_outer + 1):
            gnorm = float(np.linalg.norm(grad))
            if gnorm <= _tol_grad:
                break
            d_vec = _lbfgs_direction(op, grad, pairs)
            slope = float(grad @ d_vec)
            if slope >= 0.0:
                d_vec = -grad
                slope = -gnorm ** 2

            t = 1.0
            for _ in range(_max_backtracks):
                cand = ui + t * d_vec
                trial = smoothed_energy(op, cand, ub, eps)
                if trial[0] <= energy + _armijo_slope * t * slope:
                    s_vec, y_vec = cand - ui, trial[1] - grad
                    sy = float(s_vec @ y_vec)
                    # the ramp is not convex: a pair of negative curvature
                    # would make H indefinite, so it is not kept
                    if sy > 0.0:
                        pairs = (pairs + [(s_vec, y_vec, 1.0 / sy)])[-_memory:]
                    ui, (energy, grad, v) = cand, trial
                    break
                t *= 0.5
            else:
                raise DivergenceError(
                    "backtracking exhausted %d halvings without descent"
                    % _max_backtracks, history)

            e_sharp = sharp_energy(op, ui, ub, v)[0]
            history.append((stage, it, energy, e_sharp, float(v.max())))
            # the window opens at this stage's row it - _window
            if (it >= _window and history[-1 - _window][2] - energy <=
                    _window * _rtol * abs(energy)):
                break
        else:
            converged = False

    _, bending, measure = sharp_energy(op, ui, ub, v)
    return MinimizerState(domain.field(ui, ub), v, bending, measure,
                          schedule[-1], tuple(history), converged)


# ---------------------------------------------------------------------------
# diagnostics on converged states


def supersolution_check(state):
    """Max of L_h u over interior nodes; nonpositive up to slack when the
    state satisfies the optimality condition."""
    return float(state.v.max())


def write_history(history, path):
    """Per-iteration CSV of history rows, a MinimizerState's or the ones a
    DivergenceError carries: stage,iter,E_eps,E_sharp,max_Lu."""
    write_table(path, "stage,iter,E_eps,E_sharp,max_Lu",
                "%d,%d,%.17g,%.17g,%.17g", list(zip(*history)))
