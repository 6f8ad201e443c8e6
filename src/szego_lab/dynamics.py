"""Time integration of the perturbed flow and of the effective
parameter dynamics, plus the coefficient integrals coupling them.

Two routes to the coefficients A, B, C coexist deliberately.  The
quadrature route evaluates the printed integrals of the continuum
theory and is what effective_rhs and x_vector use by default; it makes
the pair (effective_rhs, x_vector) cancel algebraically.  The pairing
route extracts the same coefficients from the symplectic response of
the discrete soliton family to the forcing; it differs by O(1/L) grid
corrections and is what the tracked-run comparisons use, because the
grid family drifts at its own exact rate (family_drift_rate) rather
than the continuum alpha^2 mu / 2.

Only the RK4 steps of the PDE take FFTs, all of length n/2: the state
is the n/2 nonnegative bins of a Hardy field, so by decimation in time
its even and odd samples, and the Hardy projection of a pointwise
product, are each one batched transform of a (2, n/2) array (_field,
_raw_rhs).  The pairing route needs no transform: by discrete Parseval
its pairings are sums over the grid of b times the family profile and
its xi-weighted companion, and the family's spectrum is geometric, so
both are closed-form geometric sums evaluated on the span of the
potential's nonzero samples (abc_pairing).  A PDE sample interleaves
the samples that the next step starts from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.fft

from .spectral_core import HardyField, SpectralGrid
from .operators import (
    PotentialSpec,
    hamiltonian,
    mass,
)
from .soliton_manifold import (
    GroupElement,
    family_drift_rate,
    mass_log_slope,
)

__all__ = [
    "EffectiveState",
    "CoefficientTriple",
    "DivergenceError",
    "PdeTrajectory",
    "abc_coefficients",
    "abc_pairing",
    "pde_rhs",
    "evolve_pde",
    "effective_rhs",
    "evolve_effective",
    "free_flow",
]


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


def abc_coefficients(g: GroupElement, b: PotentialSpec, eps: float,
                     n_quad: int = 1 << 17) -> CoefficientTriple:
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
    y = np.linspace(lo - pad, hi + pad, n_quad)
    dy = y[1] - y[0]
    x = mu * (y - a)
    dens = mu / (x**2 + 1.0)          # |eta(mu(y-a))|^2 * mu
    bv = np.asarray(b.eval_b(y), dtype=float)
    dbv = np.asarray(b.eval_db(y), dtype=float)
    A = (eps / np.pi) * _trapz(bv * dens, dy)
    B = (eps / np.pi) * _trapz(dbv * (y - a) * dens, dy)
    C = (eps / np.pi) * _trapz(dbv * dens / mu, dy)
    return CoefficientTriple(A, B, C)


def _support_sums(a: float, mu: float, bv: np.ndarray, grid: SpectralGrid):
    """(sum_j b_j |sig_j|^2, sum_j b_j sig_j conj(sig1_j)) for the geometric
    sums sig_j = sum_{k<N} q_j^k and sig1_j = sum_{k<N} k q_j^k, where
    N = n/2 and q_j = exp(dxi (-1/mu + i (x_j - a))).

    Both are closed forms, sig = (1 - q^N)/(1 - q) and
    sig1 = (q sig - N q^N)/(1 - q), with q_j^N = exp(N dxi (-1/mu - i a)) (-1)^j.
    A point where b_j == 0 adds exactly zero, so only the span from the
    first to the last nonzero b_j is evaluated; q on it is built, as in
    family_shape, from a coarse and a fine table of exponentials.
    """
    nonzero = bv != 0.0
    lo = int(nonzero.argmax())
    if not nonzero[lo]:
        return 0.0, 0j
    n, x = grid.n_points, grid.x
    hi = n - int(nonzero[::-1].argmax())
    N, even = n // 2, lo % 2        # sig[even::2] sits on even j
    dxi = 2.0 * np.pi / grid.box_length
    w = dxi * complex(-1.0 / mu, -a)
    B = 1 << ((int(n).bit_length() - 1) // 2)
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
    s_p = sum |S|^2 xi^p (p = 0, 1, 2) over the n/2 nonnegative bins.

    No transform is taken.  S vanishes on the negative bins, so discrete
    Parseval gives f_p = -i eps dx L sum_j b_j s_j conj(s^(p)_j), with s
    and s^(1) the grid values of S and xi S.  The spectrum
    S_k = -2 pi i r^k, r = exp(dxi (-1/mu - i a)), is geometric, so s and
    s^(1) are the geometric sums of _support_sums, taken over the span of
    the potential's nonzero samples; the s_p are geometric sums in
    |r|^2.  The common factor 4 pi^2 cancels in the solve.  Converges to
    abc_coefficients as L grows.
    """
    if eps == 0.0:
        return CoefficientTriple(0.0, 0.0, 0.0)
    mu = g.mu
    N = grid.n_points // 2
    dxi = 2.0 * np.pi / grid.box_length
    # sums of k^p |r|^(2k) over k < N; om = 1 - |r|^2
    om = -math.expm1(-2.0 * dxi / mu)
    tail = math.exp(-2.0 * dxi * N / mu)
    G = -math.expm1(-2.0 * dxi * N / mu) / om
    T1 = (G - 1.0 - (N - 1) * tail) / om
    T2 = (2.0 * T1 - (G - 1.0) - (N - 1) ** 2 * tail) / om
    s0, s1, s2 = G, dxi * T1, dxi * dxi * T2
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


def _field(V: np.ndarray, grid: SpectralGrid, out: np.ndarray = None) -> np.ndarray:
    """u = ifft(V) from the n/2 nonnegative raw bins V (the rest vanish),
    as the (2, n/2) rows of its even and odd samples.

    Decimation in time (Cooley & Tukey, 1965): u[2m] = ifft_{n/2}(V)_m / 2
    and u[2m+1] = ifft_{n/2}(V e^{i pi k/(n/2)})_m / 2, one batched inverse
    transform, run in `out` when it is given.
    """
    z = np.empty((2, V.size), dtype=complex) if out is None else out
    np.multiply(V, 0.5, out=z[0])
    np.multiply(z[0], grid.twiddle[0], out=z[1])
    return scipy.fft.ifft(z, overwrite_x=True)


def _raw_rhs(V: np.ndarray, grid: SpectralGrid, eb: np.ndarray = None,
             u: np.ndarray = None, w: np.ndarray = None) -> np.ndarray:
    """The right-hand-side kernel on the n/2 nonnegative raw FFT bins.

    V holds bins [0, n/2) of fft(u), which in fftfreq order are
    grid.nonneg; the others vanish.  Returns the same bins of
    fft(P(|u|^2 u + eb u)), the flow's right-hand side without its
    factor -i, which the caller applies; eb is eps b in the row layout of
    _field.  P keeps exactly these bins of the length-n transform of g,
    fft_{n/2}(g_even)_k + e^{-i pi k/(n/2)} fft_{n/2}(g_odd)_k, so the
    negative half is never formed.

    A caller that already holds the rows u = _field(V, grid) passes them
    and the kernel consumes them: the forward transform runs in u's
    buffer and the result is a view of its first row.  w, if given, is a
    (2, n/2) float work array for |u|^2 + eb.
    """
    if u is None:
        u = _field(V, grid)
    w = np.abs(u, out=w)
    w *= w
    if eb is not None:
        w += eb
    u *= w
    F = scipy.fft.fft(u, overwrite_x=True)
    F[1] *= grid.twiddle[1]
    F[0] += F[1]
    return F[0]


def _eb_rows(b: PotentialSpec, eps: float, grid: SpectralGrid) -> np.ndarray:
    """eps b on the grid in the (even, odd) row layout of _field, or None."""
    if b is None or eps == 0.0:
        return None
    return np.multiply(b.on_grid(grid).reshape(-1, 2).T, eps, order="C")


def _sample(grid: SpectralGrid, u: np.ndarray, V: np.ndarray) -> HardyField:
    """The field with raw bins V and rows u = _field(V, grid), in fresh
    length-n arrays: the rows interleaved, the spectrum zero above n/2."""
    spec = np.zeros(grid.n_points, dtype=complex)
    np.multiply(V, grid._fwd_phase[:V.size], out=spec[:V.size])
    return HardyField(grid, u.T.flatten(), _spectrum=spec)


def pde_rhs(u: HardyField, b: PotentialSpec = None, eps: float = 0.0) -> HardyField:
    """-i (P(|u|^2 u) + eps T_b u), the right-hand side of the flow,
    through the RK4 kernel _raw_rhs."""
    grid = u.grid
    N = grid.n_points // 2
    K = -1j * _raw_rhs(u.spectrum[:N] * grid._inv_phase[:N], grid,
                       _eb_rows(b, eps, grid))
    return _sample(grid, _field(K, grid), K)


@dataclass(frozen=True)
class PdeTrajectory:
    """Sampled run of the perturbed flow with its conservation report:
    the largest relative change of the mass, H_b and the momentum over
    the samples.  The momentum is conserved only at eps = 0."""

    grid: SpectralGrid
    times: np.ndarray
    fields: list
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
    nonnegative bins in raw FFT coordinates (_raw_rhs), so every
    transform has length n/2 and the continuum phases are applied only
    when a sample is taken: every `stride` steps, plus t = 0 and the
    final step.  The kernel's factor -i rides on the stage weights, and
    the stages run in buffers allocated once per call.  Each step starts
    from the rows u = _field(V), which its first stage consumes.  A
    sample interleaves those rows into fresh values and pads the bins
    with zeros into a fresh spectrum, so it costs no transform.  Each
    sample goes to `on_sample(t, field)` as it is made, and its drifts
    are taken; the momentum is the xi-weighted sum of |V|^2 over the
    bins, whose factor dx^2 / L cancels in the relative drift.
    The default sink keeps it in the returned `fields`; with any other,
    `fields` stays empty and memory does not grow with the sample count.
    """
    grid = u0.grid
    n_steps = int(round(t_final / dt))
    if abs(n_steps * dt - t_final) > 1e-9 * max(1.0, t_final):
        raise ValueError("t_final must be an integer number of steps")
    eb = _eb_rows(b, eps, grid)
    fields = []
    on_sample = on_sample or (lambda t, f: fields.append(f))
    N = grid.n_points // 2
    # work buffers belong to this call
    V = u0.spectrum[:N] * grid._inv_phase[:N]
    Y = np.empty_like(V)
    acc = np.empty_like(V)
    z = np.empty((2, N), dtype=complex)
    w = np.empty((2, N))
    u = _field(V, grid, z)
    times = [0.0]
    f = _sample(grid, u, V)
    m0 = mass(f)
    h0 = hamiltonian(f, b, eps)
    xi = grid.xi_pos
    p0 = xi @ (V.real ** 2 + V.imag ** 2)
    on_sample(0.0, f)
    m_drift = h_drift = p_drift = 0.0
    h_scale = max(abs(h0), 1e-30)
    p_scale = max(p0, 1e-30)
    # (stage offset, weight) of k2..k4 with the kernel's -i folded in;
    # k1 has weight -i dt/6
    stages = ((-0.5j * dt, -1j * dt / 3.0), (-0.5j * dt, -1j * dt / 3.0),
              (-1j * dt, -1j * dt / 6.0))
    for k in range(1, n_steps + 1):
        # a diverging step is reported below, not warned about; the
        # sample consumers keep the caller's error state
        with np.errstate(over="ignore", invalid="ignore"):
            K = _raw_rhs(V, grid, eb, u, w)
            np.multiply(K, -1j * dt / 6.0, out=acc)
            for offset, weight in stages:
                np.multiply(K, offset, out=Y)
                Y += V
                K = _raw_rhs(Y, grid, eb, _field(Y, grid, z), w)
                np.multiply(K, weight, out=Y)
                acc += Y
            V += acc
        if not np.all(np.isfinite(V)):
            raise DivergenceError(f"non-finite field at step {k} (t={k * dt:.6g})")
        u = _field(V, grid, z)
        if k % stride == 0 or k == n_steps:
            f = _sample(grid, u, V)
            times.append(k * dt)
            on_sample(k * dt, f)
            m_drift = max(m_drift, abs(mass(f) - m0) / m0)
            h_drift = max(h_drift, abs(hamiltonian(f, b, eps) - h0) / h_scale)
            p = xi @ (V.real ** 2 + V.imag ** 2)
            p_drift = max(p_drift, abs(p - p0) / p_scale)
    return PdeTrajectory(grid, np.array(times), fields, m_drift, h_drift,
                         float(p_drift), eps, dt)


def effective_rhs(s: EffectiveState, b: PotentialSpec, eps: float,
                  grid: SpectralGrid = None) -> np.ndarray:
    """Parameter velocities (da, dalpha, dphi, dmu) of the averaged flow.

    Default is the continuum system
        da     = alpha^2 mu / 2 - 2B/mu
        dalpha = alpha C
        dphi   = -alpha^2 mu^2 / 4 - A - B
        dmu    = -2 mu C,
    which conserves alpha^2 mu identically.  With a grid, the free
    rates are replaced by the exact discrete-family values and the
    amplitude channel picks up the finite-box mass correction, so that
    the flow stays on the discrete family instead of the continuum one.
    """
    g = s.g
    al, mu = g.alpha, g.mu
    if grid is None:
        co = abc_coefficients(g, b, eps)
        return np.array([
            0.5 * al**2 * mu - 2.0 * co.B / mu,
            al * co.C,
            -0.25 * al**2 * mu**2 - co.A - co.B,
            -2.0 * mu * co.C,
        ])
    co = abc_pairing(g, b, eps, grid)
    c = family_drift_rate(al, mu, grid)
    return np.array([
        c - 2.0 * co.B / mu,
        al * mass_log_slope(mu, grid) * co.C,
        -c**2 / al**2 - co.A - co.B,
        -2.0 * mu * co.C,
    ])


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
                     t_final: float, t_eval, grid: SpectralGrid = None,
                     rtol: float = 1e-10, atol: float = 1e-12) -> list:
    """Adaptive Dormand-Prince 5(4) integration of effective_rhs (_rk45)
    from s0 to s0.t + t_final (> 0), sampled at the sorted t_eval."""
    def rhs(t, y):
        # a non-finite stage state is a failed integration, not a bad
        # group point for GroupElement to reject
        if not np.all(np.isfinite(y)):
            raise RuntimeError("effective integration failed: non-finite "
                               f"state at t={t:.17g}")
        st = EffectiveState(t, GroupElement(y[0], y[1], y[2], y[3]))
        return effective_rhs(st, b, eps, grid)

    t0, t1 = float(s0.t), float(s0.t + t_final)
    t_eval = np.asarray(t_eval, dtype=float)
    if not t0 < t1 or t_eval[0] < t0 or t_eval[-1] > t1:
        raise ValueError("need t_final > 0 and t_eval inside [s0.t, s0.t + t_final]")
    ys = _rk45(rhs, t0, s0.g.as_array(), t1, t_eval, rtol, atol)
    return [EffectiveState(float(t), GroupElement(*y)) for t, y in zip(t_eval, ys.T)]


def free_flow(g0: GroupElement, t: float, grid: SpectralGrid = None) -> GroupElement:
    """Unperturbed soliton motion: uniform translation and phase rotation.

    With a grid, the translation speed is the exact discrete-family
    rate; otherwise the continuum alpha^2 mu / 2 and -alpha^2 mu^2 / 4.
    """
    if grid is None:
        da = 0.5 * g0.alpha**2 * g0.mu
        dphi = -0.25 * g0.alpha**2 * g0.mu**2
    else:
        da = family_drift_rate(g0.alpha, g0.mu, grid)
        dphi = -da**2 / g0.alpha**2
    return GroupElement(g0.a + da * t, g0.alpha, g0.phi + dphi * t, g0.mu)
