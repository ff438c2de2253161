"""Time integration of the full equation and of the linearized auxiliary flows.

The linear part is applied exactly through its Fourier multiplier over each
step; only the (smoothed, dealiased) quadratic term and the variable-
coefficient convection are advanced by the fourth-order exponential
Runge-Kutta stages.  This makes the beta = 0 limit bit-for-bit equal to the
semigroup, which the oracle tests exploit.

Each equation on one grid is one flow object (_BbmbFlow, _AuxFlow): its linear
multiplier, its stage nl(uhat, t), its step cap and its copy on the half grid.
Their base _Flow marches them and holds the blow-up sentinel.

By default the step is error-controlled per sample segment by step doubling:
one trial marches 2n steps of h and n of 2h as the two rows of one state from
one shared first stage (etd.py): a two-row step advances fine step 2j and
coarse step j together, at the fine stage times, so both rows share every
transform, and a one-row step then advances fine step 2j + 1; both tableaux
come from exp(z/2), exp(z), exp(2z) with z = h lin.  The fine result is kept
when max|u_2n - u_n|/15 <= _RTOL max|u_2n|, and the next step is
h min(4, 0.9 (tol/err)^(1/5)), capped by the stability guard.
A rejected trial (error too large, or a blow-up caught by the sentinel) shrinks
h and retries the segment, at most _MAX_REJECTIONS times in a row.  An explicit
integrate dt marches fixed uniform steps instead, with no retry: the
independent route the self-convergence oracles use.  The last step of a
segment ends at the sample time exactly, not at the accumulated time.

Each adaptive segment marches on the smallest grid its spectrum needs.  Before
the segment, the trajectory halves N, never below 16, while the modes of the
state at and above the half grid's 2/3-rule band edge, k >= (N/2)/3, hold at
most _LADDER_FLOOR = _ROUNDOFF**2 of its energy; for the linearized flows the
same test covers chi and, at gamma != 0, the forcing spectrum at the segment
start.  Those are chi_star and its derivatives at x / sqrt(1 + t), so their
spectra only narrow in time, as sup|chi| only falls.  The grid is never refined: a state that
fills the coarse grid again trips its Nyquist guard (InstabilityError).  The
step h and the blow-up sentinel per grid point carry across a switch, and the
fixed-dt route stays on the full grid.

Why the state's own spectrum decides: on the half grid the 2/3 rule makes the
products exact on its band for a state inside that band, so what the switch
drops is the state's modes beyond the band, below the floor by the test, and
the products' modes beyond it, which the full grid would have kept.  Those
sit at the floor too.  A smooth state decays exponentially,
|u_k| <= A e^{-s|k|}, and a product of two such sequences decays by the same
exponential, |(uv)_k| <= A B (|k| + 1 + 2/(e^{2s} - 1)) e^{-s|k|}, so beyond
the band a product is its factors' own tails times an amplitude and a mode
count, and the linear part damps what it forces there.  (TestTransformLadder
finds laddered and full-grid runs 1e-17 apart.)  The coarse state is the fine one
truncated to the coarse modes, its Nyquist mode zeroed, and chi and the
forcing are evaluated on the coarse x, the full x[::2].  Each snapshot is the
coarse state zero-padded back to the full grid: its trigonometric interpolant.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import Field, GridSpec, half_spectrum_energy
from .errors import ConfigError, InstabilityError
# march calls _step through this module, where a test can replace it
from .etd import EtdCoeffs, step as _step, tableaux as _tableaux
from .profiles import ModelParams, chi, chi_and_chi_xx, chi_star_sup

__all__ = [
    "Trajectory",
    "StepStats",
    "integrate",
    "solve_aux",
    "solve_second_aux",
    "validity_horizon",
]

_BLOWUP_FACTOR = 1e6
_NONLINEAR_STABILITY = 2.8  # explicit RK4-type stability radius
_MAX_AMPLITUDE = 0.5  # small-data cap on ||u0||_inf

# step-doubling controller
_RTOL = 1e-7  # accepted error of a segment, relative to max|u| at its end
# round-off floor of the tolerance, relative to max|u| at either end of a segment;
# an exactly zero state (solve_second_aux starts from z = 0) is always accepted
_ROUNDOFF = 64 * np.finfo(np.float64).eps
_H_START = 0.1  # first trial step; the controller grows it by up to 4x per segment
_GROWTH_MAX = 4.0
_SHRINK_MIN = 0.2
_SAFETY = 0.9
_MAX_REJECTIONS = 8  # consecutive rejected trials of one segment before giving up

# transform-size ladder: a segment marches on the half grid while the modes
# beyond its 2/3-rule band hold at most this fraction of the energy
_LADDER_FLOOR = _ROUNDOFF**2
_MIN_POINTS = 16  # the smallest GridSpec


def validity_horizon(grid: GridSpec) -> float:
    """Latest time at which the diffusive scale stays far from the box edge."""
    return (grid.half_width / 8.0) ** 2


# ---------------------------------------------------------------------------
# Spectra on the transform-size ladder

def _energy_fraction(uhat, band):
    """The share of uhat's energy in band (0 for a zero spectrum)."""
    e = half_spectrum_energy(uhat)
    total = e.sum()
    return float(e[band].sum() / total) if total > 0.0 else 0.0


def _halve_spectrum(hat):
    """hat truncated to the modes of the half grid, scaled to its unnormalized
    convention, with the half grid's Nyquist mode zeroed."""
    m = (hat.size - 1) // 2
    out = 0.5 * hat[: m + 1]
    out[m] = 0.0
    return out


def _pad_values(hat, n_points: int):
    """Values on n_points of hat zero-padded: the trigonometric interpolant of
    hat's grid values, whose Nyquist mode is zero."""
    full = np.zeros(n_points // 2 + 1, dtype=hat.dtype)
    full[: hat.size] = hat * (n_points / (2 * (hat.size - 1)))
    return np.fft.irfft(full, n=n_points)


# ---------------------------------------------------------------------------
# Trajectories

@dataclass
class StepStats:
    """One sample segment: the steps of the accepted march, the transform size
    it marched on, the trials rejected before it and the step-doubling error
    estimate (None on a fixed-dt run)."""

    t_start: float
    t_end: float
    dt: float
    n_steps: int
    n_points: int
    n_rejected: int = 0
    err_est: float | None = None


@dataclass
class Trajectory:
    params: ModelParams
    grid: GridSpec
    times: np.ndarray
    snapshots: list
    mass_log: np.ndarray
    nyquist_fraction: np.ndarray
    step_stats: list = field(default_factory=list)

    @property
    def steps_accepted(self) -> int:
        return sum(s.n_steps for s in self.step_stats)

    @property
    def steps_rejected(self) -> int:
        return sum(s.n_rejected for s in self.step_stats)

    def validate(self):
        m0 = self.mass_log[0]
        tol = 1e-8 * max(1.0, abs(m0))
        drift = float(np.abs(self.mass_log - m0).max())
        if drift > tol:
            raise InstabilityError(f"mass drift {drift:.3e} exceeds tolerance")
        return self


def _check_samples(grid: GridSpec, t_samples) -> np.ndarray:
    ts = np.asarray(t_samples, dtype=np.float64)
    if ts.ndim != 1 or ts.size == 0:
        raise ConfigError("t_samples must be a nonempty 1-D sequence")
    if np.any(np.diff(ts) <= 0) or ts[0] < 0:
        raise ConfigError("t_samples must be strictly increasing and nonnegative")
    horizon = validity_horizon(grid)
    if ts[-1] > horizon:
        raise ConfigError(
            f"max sample time {ts[-1]:.4g} beyond validity window (L/8)^2 = {horizon:.4g}"
        )
    return ts


class _Flow:
    """One equation on one grid, marched one sample segment at a time.  A
    subclass sets `linear`, the multiplier applied exactly over a step, and
    defines the ETD-RK4 stage nl(uhat, t), guard(t), the largest coarse step from
    t, spectra(t), the coefficient spectra the ladder tests with the state's, and
    halved(grid, t), its copy on grid, the half of its own.  threshold is the
    blow-up sentinel per grid point."""

    def __init__(self, grid: GridSpec, p: ModelParams, threshold: float):
        self.grid = grid
        self.p = p
        self.threshold = threshold

    def _sentinel(self, uhat, t):
        peak = float(np.abs(uhat).max())
        if not math.isfinite(peak) or peak > self.threshold * self.grid.n_points:
            raise InstabilityError(
                f"spectral magnitude {peak:.3e} exceeded guard at t={t:.4g}"
            )

    def march(self, uhat, t, n, co: EtdCoeffs, t_last=None):
        """n steps of co.dt from time t, the last ending at t_last if given, as
        row 0 of one state.  A two-row tableau (see _tableaux) marches n/2 steps
        of 2 dt as row 1 from the same first stage: a two-row step advances fine
        step 2j and coarse step j together, the coarse stages at the fine times
        t_2j, t_2j+1, t_2j+2, and a one-row step then advances fine step 2j+1.
        Returns the state, one row per tableau row."""
        nl, dt = self.nl, co.dt
        times = [t]
        for _ in range(n):
            times.append(times[-1] + dt)
        if t_last is not None:
            times[-1] = t_last
        hat = co.work[0]
        hat[...] = uhat
        # row 0 of the tableau (E .. f3) and of the march's arrays, for one-row steps
        fine = EtdCoeffs(dt, *(a[:1] for a in co[1:7]), [a[:1] for a in co.work])
        # the shared first stage, into row 0 of the stage array that holds Nu
        Nu = nl(hat[:1], (t,), co.work[1][:1])
        for k in range(n):
            t, t_end = times[k], times[k + 1]
            if len(hat) == 2 and k % 2 == 0:
                _step(hat, (t, t), (t + 0.5 * dt, t_end), (t_end, times[k + 2]),
                      co, nl, Nu)
            else:
                _step(hat[:1], (t,), (t + 0.5 * dt,), (t_end,), fine, nl, Nu)
            self._sentinel(hat, t_end)
            Nu = None
        return hat

    def fixed(self, uhat, t0, t1, dt):
        """The segment in uniform steps of at most dt; a blow-up raises."""
        span = t1 - t0
        n = max(1, int(math.ceil(span / dt - 1e-12)))
        N = self.grid.n_points
        new_hat = self.march(uhat, t0, n, _tableaux(self.linear, span / n, False), t1)
        new_hat = new_hat[0].copy()  # not holding the march's arrays
        return new_hat, np.fft.irfft(new_hat, n=N), StepStats(t0, t1, span / n, n, N)

    def doubling(self, uhat, t0, t1, h, h_max, start_peak):
        """The segment under step-doubling error control from the trial step h:
        returns the fine spectrum, its values, its StepStats and the next step."""
        span = t1 - t0
        N = self.grid.n_points
        rejected = 0
        while True:
            n = max(1, int(math.ceil(span / (2.0 * min(h, h_max)) - 1e-12)))
            dt = span / (2 * n)
            try:
                fine_hat, coarse_hat = self.march(
                    uhat, t0, 2 * n, _tableaux(self.linear, dt, True), t1
                )
            except InstabilityError:
                factor = 0.5
            else:
                values = np.fft.irfft(fine_hat, n=N)
                diff = np.fft.irfft(fine_hat - coarse_hat, n=N)
                err = float(np.abs(diff).max()) / 15.0
                peak = float(np.abs(values).max())
                tol = _RTOL * peak + _ROUNDOFF * max(peak, start_peak)
                factor = _GROWTH_MAX if err == 0.0 else _SAFETY * (tol / err) ** 0.2
                if err <= tol:
                    stats = StepStats(t0, t1, dt, 2 * n, N, rejected, err)
                    # a copy, so the trial's arrays are not held through the next segment
                    return (fine_hat.copy(), values, stats,
                            dt * min(_GROWTH_MAX, factor))
                factor = max(_SHRINK_MIN, factor)
            rejected += 1
            if rejected >= _MAX_REJECTIONS:
                raise InstabilityError(
                    f"{rejected} consecutive rejected steps on [{t0:.4g}, {t1:.4g}], "
                    f"last trial dt={dt:.3e}"
                )
            h = dt * factor


class _BbmbFlow(_Flow):
    """The full equation: the linear part (-xi^2 + i gamma xi^3)/(1 + xi^2) and
    the smoothed quadratic term, with the nonlinear stability guard dt_guard,
    which holds on every grid."""

    def __init__(self, grid: GridSpec, p: ModelParams, dt_guard: float,
                 threshold: float):
        super().__init__(grid, p, threshold)
        self.dt_guard = dt_guard
        xi2 = grid.xi_half**2
        self.linear = (-xi2 + 1j * p.gamma * grid.xi_half_odd * xi2) / (1.0 + xi2)
        # -(beta/2) i xi / (1 + xi^2), the symbol of -(beta/2) d_x (1 - d_xx)^{-1}
        # acting on u^2, zeroed outside the 2/3-rule band
        mult = -(0.5 * p.beta) * 1j * grid.xi_half_odd / (1.0 + xi2)
        self.mult = np.where(grid.dealias, mult, 0.0)

    def nl(self, uhat, t, out=None, values=None):
        u = np.fft.irfft(uhat, n=self.grid.n_points, out=values)
        r = np.fft.rfft(np.multiply(u, u, out=u), out=out)
        return np.multiply(self.mult, r, out=r)

    def guard(self, t):
        return self.dt_guard

    def spectra(self, t):
        return ()

    def halved(self, grid, t):
        return _BbmbFlow(grid, self.p, self.dt_guard, self.threshold)


def _halved(flow, uhat, t):
    """flow and uhat on the smallest grid, halving from flow's, that holds the
    state and flow.spectra(t) to _LADDER_FLOOR (see the module docstring)."""
    while flow.grid.n_points // 2 >= _MIN_POINTS:
        # the modes at and above the half grid's 2/3-rule band edge
        beyond = slice((flow.grid.n_points // 2) // 3, None)
        spectra = itertools.chain((uhat,), flow.spectra(t))
        if any(_energy_fraction(s, beyond) > _LADDER_FLOOR for s in spectra):
            break
        half = GridSpec(flow.grid.half_width, flow.grid.n_points // 2)
        flow, uhat = flow.halved(half, t), _halve_spectrum(uhat)
    return flow, uhat


def _run_trajectory(make_flow, u0: Field, t_samples, dt):
    """Sample the flow make_flow(threshold) on u0's grid at t_samples: fixed
    uniform steps on that grid when dt is given, step doubling otherwise, each
    segment on the grid _halved leaves and with the coarse step of the segment
    starting at t capped by flow.guard(t)."""
    grid = u0.grid
    N = grid.n_points
    u_vals = np.asarray(u0.values, dtype=np.float64)
    uhat = np.fft.rfft(u_vals)
    init = float(np.abs(uhat).max())
    # the sentinel bounds the unnormalized spectrum, which scales with N
    flow = make_flow(_BLOWUP_FACTOR * init / N if init > 0.0 else math.inf)
    times, snaps, masses, fracs, stats = [], [], [], [], []

    def record(t, uhat, u, g):
        if g.n_points != N:
            u = _pad_values(uhat, N)
        times.append(t)
        snaps.append(Field(grid, u))
        masses.append(grid.dx * u.sum())
        fracs.append(_energy_fraction(uhat, g.nyquist_band))
        if fracs[-1] >= 1e-6:
            raise InstabilityError(
                f"Nyquist-band energy fraction {fracs[-1]:.2e} at t={t:.4g}: "
                f"grid of {g.n_points} points no longer resolves the solution"
            )

    ts = t_samples
    t_prev = 0.0
    if ts[0] == 0.0:
        record(0.0, uhat, u_vals, grid)
        ts = ts[1:]
    h = _H_START
    start_peak = float(np.abs(u_vals).max())
    for t_next in ts:
        if dt is not None:
            uhat, u_vals, seg = flow.fixed(uhat, t_prev, t_next, dt)
        else:
            h_max = 0.5 * flow.guard(t_prev)
            flow, uhat = _halved(flow, uhat, t_prev)
            uhat, u_vals, seg, h = flow.doubling(uhat, t_prev, t_next, h, h_max,
                                                 start_peak)
        stats.append(seg)
        t_prev = t_next
        record(t_next, uhat, u_vals, flow.grid)
        start_peak = float(np.abs(u_vals).max())
        del u_vals  # the snapshot holds a copy; not held through the next segment

    return Trajectory(flow.p, grid, np.asarray(times), snaps, np.asarray(masses),
                      np.asarray(fracs), stats).validate()


def integrate(
    u0: Field,
    p: ModelParams,
    t_samples,
    dt: float | None = None,
) -> Trajectory:
    """Integrate the full equation, sampling at t_samples.

    Small-data regime is enforced (||u0||_inf <= _MAX_AMPLITUDE).  By default
    the step is error-controlled per sample segment (step doubling against
    _RTOL, see the module docstring), with the coarse step capped by the
    nonlinear stability guard; a blow-up is a rejected trial, and each segment
    marches on the smallest grid its spectrum needs.  An explicit dt marches
    fixed uniform steps of at most dt on u0's grid throughout and raises
    InstabilityError on a blow-up.
    """
    ts = _check_samples(u0.grid, t_samples)
    amp = float(np.abs(u0.values).max())
    if amp > _MAX_AMPLITUDE:
        raise ConfigError(
            f"||u0||_inf = {amp:.3g} exceeds the small-data cap {_MAX_AMPLITUDE}"
        )
    # the nonlinear multiplier |xi|/(1+xi^2) is bounded by 1/2
    dt_guard = _NONLINEAR_STABILITY / max(0.5 * abs(p.beta) * max(amp, 1e-12), 1e-12)
    if dt is not None and (dt <= 0 or dt > dt_guard):
        raise ConfigError(f"dt={dt} outside the stability guard")
    return _run_trajectory(lambda thr: _BbmbFlow(u0.grid, p, dt_guard, thr), u0, ts, dt)


# ---------------------------------------------------------------------------
# Linearized problems around the diffusion wave

class _AuxFlow(_Flow):
    """The linearized flow on one grid: the heat part, convection and the forcing
    -gamma chi_xxx as the stage, and the convection guard (xi chi is unbounded in
    xi) from rate = |beta| sup|chi_star| xi_max, with xi_max of the full grid.

    A stage takes one time per row of its state and looks them up in row order.
    A fine step's stage times are t, t + h/2, t + h, the last the next step's
    first; the coarse row rides in the first fine step it spans, at the fine
    times t, t + h, t + 2h, so that step's stages look up (t, t),
    (t + h/2, t + h) twice and (t + h, t + 2h).  So a cache of the three stage
    times last used, each holding chi and the forcing's spectrum
    dxi rfft(-gamma chi_xx) (None at gamma = 0), evaluates both once per
    distinct fine stage time, from one chi_star evaluation.  seed, a (t, entry)
    pair, starts the cache."""

    def __init__(self, grid: GridSpec, p: ModelParams, rate: float,
                 threshold: float, seed=None):
        super().__init__(grid, p, threshold)
        self.rate = rate
        self.linear = -(grid.xi_half**2) + 0.0j
        self.conv = -p.beta * np.where(grid.dealias, 1j * grid.xi_half_odd, 0.0)
        self.dxi = 1j * grid.xi_half_odd
        self.cache = dict([seed]) if seed is not None else {}

    def at(self, t):
        entry = self.cache.pop(t, None)
        if entry is None:
            if len(self.cache) == 3:
                del self.cache[next(iter(self.cache))]
            if self.p.gamma == 0.0:
                entry = (chi(self.grid.x, t, self.p), None)
            else:
                chi_t, chi_xx_t = chi_and_chi_xx(self.grid.x, t, self.p)
                lam_t = -self.p.gamma * chi_xx_t
                del chi_xx_t  # not held through the transform
                entry = (chi_t, self.dxi * np.fft.rfft(lam_t))
        self.cache[t] = entry
        return entry

    def nl(self, zhat, ts, out=None, values=None):
        entries = [self.at(t) for t in ts]
        u = np.fft.irfft(zhat, n=self.grid.n_points, out=values)
        for row, (chi_t, _) in zip(u, entries):
            np.multiply(chi_t, row, out=row)
        r = np.fft.rfft(u, out=out)
        r = np.multiply(self.conv, r, out=r)
        for row, (_, forcing) in zip(r, entries):
            if forcing is not None:
                np.add(row, forcing, out=row)
        return r

    def guard(self, t):
        # sup|chi(., t)| = sup|chi_star| / sqrt(1 + t), whatever points sample it
        return _NONLINEAR_STABILITY / max(self.rate / math.sqrt(1.0 + t), 1e-12)

    def spectra(self, t):
        chi_t, forcing = self.at(t)
        yield np.fft.rfft(chi_t)
        if forcing is not None:
            yield forcing

    def halved(self, grid, t):
        # the entry at t carried to the coarse x = x[::2], not evaluated again
        chi_t, forcing = self.at(t)
        forcing = None if forcing is None else _halve_spectrum(forcing)
        entry = (chi_t[::2].copy(), forcing)
        return _AuxFlow(grid, self.p, self.rate, self.threshold, (t, entry))


def solve_aux(z0: Field, p: ModelParams, t_samples) -> Trajectory:
    """The second auxiliary problem around the wave from z0:
    z_t + (beta chi z)_x - z_xx = -gamma chi_xxx, unforced at gamma = 0.

    The heat part is exact per step; the convection term and the forcing are
    advanced by the exponential stages.  chi and the forcing come from one
    chi_star evaluation per distinct fine stage time of a trial, on the
    segment's grid (the coarse row's stages, which share the fine row's
    transforms, use fine stage times, and the three last used are kept:
    384 KB at N = 8192), so a segment of n accepted steps without
    a rejected trial evaluates them at most 2 n + 1 times, the ladder's test at
    the segment start included.  The forced flow needs |mass| <= 1 (the wave
    decay estimates); ConfigError otherwise.
    Steps are chosen as in integrate, with the convection guard (xi chi is
    unbounded in xi) as the cap.  The guard of each segment uses
    sup|chi(., t)| = sup|chi_star| / sqrt(1 + t) at the segment's start, which
    bounds chi over the whole segment on every grid because it is
    non-increasing in t; the cap thus grows like sqrt(1 + t).
    """
    ts = _check_samples(z0.grid, t_samples)
    if p.gamma != 0.0 and abs(p.mass) > 1.0:
        raise ConfigError("|mass| <= 1 required by the wave decay estimates")
    g = z0.grid
    rate = abs(p.beta) * chi_star_sup(p) * g.xi_half[-1]
    return _run_trajectory(lambda thr: _AuxFlow(g, p, rate, thr), z0, ts, None)


def solve_second_aux(p: ModelParams, grid: GridSpec, t_samples) -> Trajectory:
    """v = solve_aux from v(0) = 0: the flow forced by the wave's dispersive tail."""
    return solve_aux(Field(grid, np.zeros(grid.n_points)), p, t_samples)
