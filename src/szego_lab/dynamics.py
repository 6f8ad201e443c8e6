"""Time integration of the perturbed flow and of the effective
parameter dynamics, plus the coefficient integrals coupling them.

The effective dynamics have two routes, chosen by whether a grid is
given.  The continuum route takes the continuum free rates and the
coefficients A, B, C from the printed integrals of the continuum theory
(abc_coefficients).  The grid route takes the exact free rates of the
discrete soliton family, which drifts at its own exact rate rather than
alpha^2 mu / 2, and extracts the coefficients from the symplectic
response of that family to the forcing (abc_pairing); it differs from
the continuum by O(1/L) grid corrections and is what the tracked-run
comparisons use.  free_rates is the one place that picks the free
rates, and effective_rhs, decomposition.x_vector and free_flow read
them there, so on either route the pair (effective_rhs, x_vector)
cancels algebraically.

Only the RK4 steps of the PDE take FFTs, all of length n/2.  The state
is the n/2 non-negative raw bins of a Hardy field, and _raw_rhs, the one
right-hand-side kernel, forms each pointwise product on the (2, n/2)
rows of its even and odd samples and projects it, each a batched
transform through spectral_core's half-length layout (hardy_rows,
project_rows).  A PDE sample is one pass over what the step holds: the
bins give the sample's field (from_bins, its spectrum alone, values
built only if read), and the |u|^2 that the next step starts from
gives its mass and H_b.  The pairing route needs no transform: by
discrete Parseval its pairings are sums over the grid of b times the
family profile and its xi-weighted companion, and the family's spectrum
is geometric, so both are closed-form geometric sums evaluated on the
span where |b| exceeds 1e-17 of its peak (abc_pairing, _support_sums).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral_core import (HardyField, SpectralGrid, from_bins, hardy_rows,
                            project_rows, raw_bins)
from .operators import (  # perfbench's tracer wraps mass and hamiltonian here
    PotentialSpec,
    hamiltonian,
    mass,
)
from .soliton_manifold import (
    GroupElement,
    family_drift_rate,
    family_shape_moments,
    mass_log_slope,
)


class DivergenceError(RuntimeError):
    """The explicit integrator produced a non-finite field."""


@dataclass(frozen=True)
class EffectiveState:
    t: float
    g: GroupElement


@dataclass(frozen=True)
class CoefficientTriple:
    """Potential-response coefficients, all O(eps)."""

    A: float
    B: float
    C: float

    def as_array(self) -> np.ndarray:
        return np.array([self.A, self.B, self.C])


def _trapz(f: np.ndarray, dy: float) -> float:
    return float(dy * (np.sum(f) - 0.5 * (f[0] + f[-1])))


def abc_coefficients(g: GroupElement, b: PotentialSpec,
                     eps: float) -> CoefficientTriple:
    """The coefficient integrals
    A = (eps/pi) int b(a + x/mu) |eta|^2 dx,
    B = (eps/pi) int b'(a + x/mu) x |eta|^2 dx / mu,
    C = (eps/pi) int b'(a + x/mu) |eta|^2 dx / mu,
    computed in the variable y = a + x/mu so the samples concentrate
    where the potential actually varies.
    """
    if eps == 0.0:
        return CoefficientTriple(0.0, 0.0, 0.0)
    if b.l1_db == 0.0:
        # constant symbol: only the mean survives, and exactly
        return CoefficientTriple(eps * float(b.eval_b(np.zeros(1))[0]), 0.0, 0.0)
    a, mu = g.a, g.mu
    # the potential's support padded by 8/mu, or a wide window around a
    lo, hi, pad = (*b.support_hint, 8.0 / mu) if b.support_hint else (a, a, 64.0)
    y = np.linspace(lo - pad, hi + pad, 1 << 17)
    dy = y[1] - y[0]
    x = mu * (y - a)
    dens = mu / (x**2 + 1.0)          # |eta(mu(y-a))|^2 * mu
    bv = np.asarray(b.eval_b(y), dtype=float)
    dbv = np.asarray(b.eval_db(y), dtype=float)
    A = (eps / np.pi) * _trapz(bv * dens, dy)
    B = (eps / np.pi) * _trapz(dbv * (y - a) * dens, dy)
    C = (eps / np.pi) * _trapz(dbv * dens / mu, dy)
    return CoefficientTriple(A, B, C)


# the share of max |b| below which _support_sums leaves a point out
B_FLOOR = 1e-17


def _support_sums(a: float, mu: float, bv: np.ndarray, grid: SpectralGrid):
    """(sum_j b_j |sig_j|^2, sum_j b_j sig_j conj(sig1_j)) for the geometric
    sums sig_j = sum_{k<N} q_j^k and sig1_j = sum_{k<N} k q_j^k, where
    N = n/2 and q_j = exp(dxi (-1/mu + i (x_j - a))).

    Both are closed forms, sig = (1 - q^N)/(1 - q) and
    sig1 = (q sig - N q^N)/(1 - q), with q_j^N = exp(N dxi (-1/mu - i a)) (-1)^j.
    The sums run over the span from the first to the last j with |b_j|
    above B_FLOOR = 1e-17 of max |b|, its start moved down to the
    nearest point of the coarse table below: every term left out carries
    a b_j under 1e-17 of the peak's, so the sums move only at rounding
    level (the transit Gaussian keeps 401 of its 1,747 nonzero points,
    and Y and Z move by about 2e-16 and 1e-15 relative).  q on the span
    is built, as in family_shape, from a coarse table at every B-th grid
    point and a fine table of B points, so q_j does not depend on where
    the span starts.
    """
    mag = np.abs(bv)
    kept = mag > B_FLOOR * mag.max()
    first = int(kept.argmax())
    if not kept[first]:
        return 0.0, 0j
    n, x = grid.n_points, grid.x
    B = 1 << ((int(n).bit_length() - 1) // 2)
    lo, hi = first - first % B, n - int(kept[::-1].argmax())
    N, even = n // 2, lo % 2        # sig[even::2] sits on even j
    dxi = 2.0 * np.pi / grid.box_length
    w = dxi * complex(-1.0 / mu, -a)
    q = np.multiply.outer(np.exp(w + 1j * dxi * x[lo:hi:B]),
                          np.exp(1j * dxi * (x[:B] - x[0]))).ravel()[:hi - lo]
    qN = np.exp(N * w)
    d = 1.0 - q
    sig = np.empty_like(q)
    sig[even::2] = 1.0 - qN
    sig[1 - even::2] = 1.0 + qN
    sig /= d
    q *= sig                        # q becomes sig1
    q[even::2] -= N * qN
    q[1 - even::2] += N * qN
    q /= d
    np.multiply(sig, bv[lo:hi], out=d)      # d becomes b sig
    # Re sum conj(v) d is the real dot product of the (re, im) pairs, and
    # i sig1 turns Im sum conj(sig1) d into one too; np.vdot, the complex
    # BLAS dot, raised the threaded sweep's peak RSS by about 0.25 MiB
    d = d.view(float)
    Y = sig.view(float) @ d
    X = q.view(float) @ d
    q *= 1j
    return Y, complex(X, q.view(float) @ d)


def abc_pairing(g: GroupElement, b: PotentialSpec, eps: float,
                grid: SpectralGrid) -> CoefficientTriple:
    """Grid-consistent coefficients from the symplectic response.

    The potential forcing F = -i eps P(b S) is paired against the
    tangent frame of the discrete family at (a, 1, 0, mu); the induced
    parameter rates are then read back through the same relations that
    define A, B, C in the continuum (B from the translation channel, C
    from the scale channel, A from the phase channel).  Each tangent is
    S times a polynomial of degree <= 1 in xi, so the pairings need only
    the moments f_p = sum F conj(S) xi^p (p = 0, 1) and
    s_p = sum |S|^2 xi^p (p = 0, 1, 2) over the n/2 non-negative bins.

    No transform is taken.  S vanishes on the negative bins, so discrete
    Parseval gives f_p = -i eps dx L sum_j b_j s_j conj(s^(p)_j), with s
    and s^(1) the grid values of S and xi S.  The spectrum
    S_k = -2 pi i r^k, r = exp(dxi (-1/mu - i a)), is geometric, so s and
    s^(1) are the geometric sums of _support_sums, taken over the span
    where |b| exceeds 1e-17 of its peak; the s_p are the closed geometric
    sums in |r|^2 of family_shape_moments.  The common factor 4 pi^2
    cancels in the solve.  Converges to abc_coefficients as L grows.
    """
    if eps == 0.0:
        return CoefficientTriple(0.0, 0.0, 0.0)
    mu = g.mu
    dxi = 2.0 * np.pi / grid.box_length
    s0, s1, s2 = family_shape_moments(mu, grid)
    Y, Z = _support_sums(g.a, mu, b.on_grid(grid), grid)
    # Om[k, l] = L omega(T_k, T_l) and r_k = L omega(F, T_k) written out
    # for the tangents T = S * (-i xi, 1, i, xi/mu^2), from
    # f_0 = -i eps Y / n and f_1 = -i eps dxi Z / n; the factor 1/L
    # cancels in the solve
    k = 1.0 / mu**2
    Om = np.array([[0.0, -s1, 0.0, -k * s2], [s1, 0.0, -s0, 0.0],
                   [0.0, s0, 0.0, k * s1], [k * s2, 0.0, -k * s1, 0.0]])
    c = eps / grid.n_points
    r = c * np.array([dxi * Z.imag, -Y, 0.0, -k * dxi * Z.real])
    rates = -np.linalg.solve(Om, r)
    B = -mu * rates[0] / 2.0
    C = -rates[3] / (2.0 * mu)
    A = -rates[2] - B
    return CoefficientTriple(A, B, C)


def _rows_abs2(V: np.ndarray, grid: SpectralGrid, z: np.ndarray = None,
               w: np.ndarray = None, sq: np.ndarray = None) -> tuple:
    """The rows u = hardy_rows(V, grid) of the state with raw bins V and
    |u|^2 on them, formed in one pass as re^2 + im^2 (no hypot); run in
    the (2, n/2) complex z and the (2, n/2) floats w and sq (the im^2
    scratch) when they are given.  V may be z[0]: it is read before z is
    written."""
    u = hardy_rows(V, grid, z)
    w = np.square(u.real, out=w)
    w += np.square(u.imag, out=sq)
    return u, w


def _raw_rhs(u: np.ndarray, w: np.ndarray, grid: SpectralGrid,
             eb: np.ndarray = None) -> np.ndarray:
    """The right-hand-side kernel on the n/2 non-negative raw FFT bins.

    u and w = |u|^2 are the rows of a state whose bins [0, n/2) of fft(u)
    are its raw bins (_rows_abs2); the others vanish.  Returns the same
    bins of fft(P(|u|^2 u + eb u)), the flow's right-hand side without its
    factor -i, which the caller applies; eb is eps b in the row layout of
    hardy_rows, and P is project_rows, so the negative half is never
    formed.  Both arrays are consumed, and the result is a view of u's
    first row.
    """
    if eb is not None:
        w += eb
    u *= w
    return project_rows(u, grid)


def _eb_rows(b: PotentialSpec, eps: float, grid: SpectralGrid) -> np.ndarray:
    """eps b on the grid in the (even, odd) row layout of hardy_rows, or None."""
    if eps == 0.0:
        return None
    if b is None:
        raise ValueError("eps != 0 requires a potential")
    return np.multiply(b.on_grid(grid).reshape(-1, 2).T, eps, order="C")


def pde_rhs(u: HardyField, b: PotentialSpec = None, eps: float = 0.0) -> HardyField:
    """-i (P(|u|^2 u) + eps T_b u), the right-hand side of the flow,
    through the RK4 kernel _raw_rhs."""
    grid = u.grid
    K = -1j * _raw_rhs(*_rows_abs2(raw_bins(u), grid), grid, _eb_rows(b, eps, grid))
    return from_bins(K, grid)


@dataclass(frozen=True)
class PdeTrajectory:
    """Sampled run of the perturbed flow with its conservation report: at
    each sample time the mass, H_b and momentum (as sum xi |V|^2 over the
    raw bins, L / dx^2 times the momentum), and the largest relative change
    of each from the first sample.  The momentum is conserved only at eps = 0."""

    grid: SpectralGrid
    times: np.ndarray
    fields: list
    mass: np.ndarray
    hamiltonian: np.ndarray
    momentum: np.ndarray
    mass_drift: float
    hamiltonian_drift: float
    momentum_drift: float
    eps: float
    dt: float


def evolve_pde(u0: HardyField, b: PotentialSpec = None, eps: float = 0.0,
               t_final: float = 1.0, dt: float = 1e-3,
               stride: int = 10, on_sample=None) -> PdeTrajectory:
    """Classical fourth-order integration of pde_rhs.

    The Hardy projection is applied inside every stage evaluation; the
    nonlinearity has no derivatives of u, so there is no step-size
    stability constraint beyond accuracy.  The state is the n/2
    non-negative bins in raw FFT coordinates (_raw_rhs), so every
    transform has length n/2 and the continuum phases are applied only
    when a sample is taken: every `stride` steps, plus t = 0 and the
    final step.  The kernel's factor -i rides on the stage weights, and
    the stages run in buffers allocated once per call.  Each step ends
    with the rows u and |u|^2 of the new state (_rows_abs2), which the
    next step's first stage consumes.  A sample's field is from_bins of
    the bins (no transform; its values are built only if read), its mass
    and H_b = int |u|^4 / 4 + eps b |u|^2 / 2 are dx sums over |u|^2, and its
    momentum is the xi-weighted sum of |V|^2, whose factor dx^2 / L
    cancels in the relative drift; the sums are kept per sample and the
    drifts taken from them at return.  Each sample goes to
    `on_sample(t, field)` as it is made; the default sink keeps it in
    `fields`.  With any other, a sample costs 8 + 24 bytes (time, sums).
    """
    grid = u0.grid
    n_steps = int(round(t_final / dt))
    if abs(n_steps * dt - t_final) > 1e-9 * max(1.0, t_final):
        raise ValueError("t_final must be an integer number of steps")
    # sample i is taken after step k with i = ceil(k / stride)
    n_samples = -(-n_steps // stride) + 1
    times, sums = np.empty(n_samples), np.empty((n_samples, 3))
    eb = _eb_rows(b, eps, grid)
    fields = []
    on_sample = on_sample or (lambda t, f: fields.append(f))
    # work buffers belong to this call
    V = raw_bins(u0)
    acc = np.empty_like(V)
    z = np.empty((2, V.size), dtype=complex)
    w = np.empty((2, V.size))
    sq = np.empty_like(w)
    dx, xi = grid.dx, grid.xi_pos

    def sample(k, w):
        """Send the state after step k to on_sample; keep its time and sums."""
        i = -(-k // stride)
        times[i] = k * dt
        on_sample(k * dt, from_bins(V, grid))
        q = w.ravel()
        h = 0.25 * (q @ q) + (0.5 * (eb.ravel() @ q) if eb is not None else 0.0)
        sums[i] = dx * q.sum(), dx * h, xi @ (V.real ** 2 + V.imag ** 2)

    u, w = _rows_abs2(V, grid, z, w, sq)
    sample(0, w)
    # (stage offset, weight) of k2..k4 with the kernel's -i folded in;
    # k1 has weight -i dt/6
    stages = ((-0.5j * dt, -1j * dt / 3.0), (-0.5j * dt, -1j * dt / 3.0),
              (-1j * dt, -1j * dt / 6.0))
    for k in range(1, n_steps + 1):
        # a diverging step is reported below, not warned about; the
        # sample consumers keep the caller's error state
        with np.errstate(over="ignore", invalid="ignore"):
            K = _raw_rhs(u, w, grid, eb)
            np.multiply(K, -1j * dt / 6.0, out=acc)
            for offset, weight in stages:
                # K is z[0], and the projection left z[1] free: the stage
                # state and the weighted K take no buffer of their own
                K *= offset
                K += V
                K = _raw_rhs(*_rows_abs2(K, grid, z, w, sq), grid, eb)
                acc += np.multiply(K, weight, out=z[1])
            V += acc
            u, w = _rows_abs2(V, grid, z, w, sq)
        if not np.isfinite(V.view(float)).all():
            raise DivergenceError(f"non-finite field at step {k} (t={k * dt:.6g})")
        if k % stride == 0 or k == n_steps:
            sample(k, w)
    scale = (sums[0, 0], max(abs(sums[0, 1]), 1e-30), max(sums[0, 2], 1e-30))
    drifts = np.max(np.abs(sums - sums[0]) / scale, axis=0)
    return PdeTrajectory(grid, times, fields, *sums.T, *map(float, drifts), eps, dt)


def free_rates(g: GroupElement, grid: SpectralGrid = None) -> tuple:
    """(c, w, k): the free drift of a, the free phase rate and the factor
    on the amplitude channel's C at g.

    The continuum gives alpha^2 mu / 2, -alpha^2 mu^2 / 4 and 1.  With a
    grid they are the discrete family's exact drift family_drift_rate,
    its phase companion -c^2 / alpha^2 and the finite-box mass correction
    mass_log_slope, so that a flow built on them stays on the discrete
    family.  effective_rhs, x_vector and free_flow all read them here.
    """
    al, mu = g.alpha, g.mu
    if grid is None:
        return 0.5 * al**2 * mu, -0.25 * al**2 * mu**2, 1.0
    c = family_drift_rate(al, mu, grid)
    return c, -c**2 / al**2, mass_log_slope(mu, grid)


def effective_rhs(g: GroupElement, b: PotentialSpec, eps: float,
                  grid: SpectralGrid = None) -> np.ndarray:
    """Parameter velocities (da, dalpha, dphi, dmu) of the averaged flow,

        da     = c - 2B/mu
        dalpha = alpha k C
        dphi   = w - A - B
        dmu    = -2 mu C,

    with (c, w, k) = free_rates(g, grid) and A, B, C from abc_coefficients
    in the continuum or abc_pairing on a grid.  The continuum system
    conserves alpha^2 mu identically, the grid system the discrete
    family's mass.
    """
    co = abc_coefficients(g, b, eps) if grid is None \
        else abc_pairing(g, b, eps, grid)
    c, w, k = free_rates(g, grid)
    return np.array([c - 2.0 * co.B / g.mu, g.alpha * k * co.C,
                     w - co.A - co.B, -2.0 * g.mu * co.C])


# The Dormand-Prince 5(4) pair (Dormand & Prince, J. Comput. Appl. Math.
# 1980): nodes C, stages A, weights B, error weights E (over the FSAL
# stage too) and the power-series matrix P of its 4th-order dense output.
_DP_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_DP_A = np.array([[0, 0, 0, 0, 0], [1/5, 0, 0, 0, 0], [3/40, 9/40, 0, 0, 0],
                  [44/45, -56/15, 32/9, 0, 0],
                  [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
                  [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]])
_DP_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_DP_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
_DP_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875/199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])


def _rk45(fun, t0: float, y0: np.ndarray, t_bound: float, t_eval: np.ndarray,
          rtol: float, atol: float) -> np.ndarray:
    """y' = fun(t, y) at the sorted t_eval in [t0, t_bound], one column
    each, step for step as scipy's solve_ivp(method="RK45"): Dormand-Prince
    5(4) under the step control of Hairer, Norsett & Wanner, Solving ODEs
    I, sec. II.4, and t_eval filled from each accepted step's dense output.
    """
    def rms(x):
        return np.linalg.norm(x) / x.size ** 0.5

    f = fun(t0, y0)
    scale = atol + np.abs(y0) * rtol
    d0, d1 = rms(y0 / scale), rms(f / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_bound - t0)
    d2 = rms((fun(t0 + h0, y0 + h0 * f) - f) / scale) / h0
    h1 = max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15 \
        else (0.01 / max(d1, d2)) ** 0.2
    h_abs = min(100 * h0, h1, t_bound - t0)
    t, y, i = t0, y0, 0
    K = np.empty((7, y0.size))
    out = []
    while t < t_bound:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs, rejected = max(h_abs, min_step), False
        while True:
            if not h_abs >= min_step:   # a NaN step size stops here too
                raise RuntimeError("effective integration failed: step size "
                                   f"fell below 10 ulp at t={t:.17g}")
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = np.abs(h)
            K[0] = f
            for s in range(1, 6):
                K[s] = fun(t + _DP_C[s] * h, y + np.dot(K[:s].T, _DP_A[s, :s]) * h)
            y_new = y + h * np.dot(K[:-1].T, _DP_B)
            K[-1] = f_new = fun(t + h, y_new)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err = rms(np.dot(K.T, _DP_E) * h / scale)
            if err < 1:
                factor = 10 if err == 0 else min(10, 0.9 * err ** -0.2)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * err ** -0.2)
            rejected = True
        j = np.searchsorted(t_eval, t_new, side="right")
        if j > i:
            x = np.cumprod(np.tile((t_eval[i:j] - t) / h, (4, 1)), axis=0)
            out.append(h * np.dot(K.T.dot(_DP_P), x) + y[:, None])
            i = j
        t, y, f = t_new, y_new, f_new
    return np.hstack(out)


def evolve_effective(s0: EffectiveState, b: PotentialSpec, eps: float,
                     t_eval, grid: SpectralGrid = None,
                     rtol: float = 1e-10, atol: float = 1e-12) -> list:
    """Adaptive Dormand-Prince 5(4) integration of effective_rhs (_rk45)
    from s0 to the last of the sorted t_eval, sampled at each of them."""
    def rhs(t, y):
        # a non-finite stage state is a failed integration, not a bad
        # group point for GroupElement to reject
        if not np.all(np.isfinite(y)):
            raise RuntimeError("effective integration failed: non-finite "
                               f"state at t={t:.17g}")
        return effective_rhs(GroupElement(*y), b, eps, grid)

    t_eval = np.asarray(t_eval, dtype=float)
    t0, t1 = float(s0.t), float(t_eval[-1])
    if not t0 < t1 or t_eval[0] < t0:
        raise ValueError("need t_eval[-1] > s0.t and no sample before s0.t")
    ys = _rk45(rhs, t0, s0.g.as_array(), t1, t_eval, rtol, atol)
    return [EffectiveState(float(t), GroupElement(*y)) for t, y in zip(t_eval, ys.T)]


def free_flow(g0: GroupElement, t: float, grid: SpectralGrid = None) -> GroupElement:
    """Unperturbed soliton motion: uniform translation and phase rotation
    at the free rates (free_rates) of the continuum or of the grid's
    discrete family."""
    c, w, _ = free_rates(g0, grid)
    return GroupElement(g0.a + c * t, g0.alpha, g0.phi + w * t, g0.mu)
