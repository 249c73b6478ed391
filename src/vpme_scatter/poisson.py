"""Split Poisson problem on the torus, one time slice at a time.

The linear potential is the convolution Ubar = W * rho with the periodic
kernel W(x) = (x^2 - |x|)/2, computed spectrally (the source's zero mode is
dropped; the mean of Ubar is fixed by the kernel's own mean -1/12).  The
nonlinear correction solves d^2 Utilde / dx^2 = exp(Ubar + Utilde) - 1 by
damped Newton on the periodic central-difference operator.  Each Newton
step solves the cyclic tridiagonal Jacobian system: Sherman-Morrison turns it
into one tridiagonal elimination with two right-hand sides, done by
vectorized cyclic reduction down to a sequential Thomas sweep on at most 64
unknowns.  Newton stops at the residual tolerance, or when the line search
stalls at the round-off floor of the 1/h^2 operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateRatioError,
    DomainError,
    ParameterError,
    SolverDivergenceError,
)

NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 50
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform periodic grid with nx nodes x_j = j / nx on [0, 1)."""

    nx: int

    def __post_init__(self):
        if self.nx < 8 or self.nx % 2 != 0:
            raise ParameterError(f"nx must be even and >= 8, got {self.nx}")

    @property
    def h(self) -> float:
        return 1.0 / self.nx

    @property
    def nodes(self) -> np.ndarray:
        return np.arange(self.nx) / self.nx


@dataclass(frozen=True)
class FieldSlice:
    """Potentials and fields of one time slice, split into linear and nonlinear parts."""

    Ubar: np.ndarray
    Utilde: np.ndarray
    Ebar: np.ndarray
    Etilde: np.ndarray

    def __post_init__(self):
        for arr in (self.Ubar, self.Utilde, self.Ebar, self.Etilde):
            arr.setflags(write=False)

    @property
    def E(self) -> np.ndarray:
        return self.Ebar + self.Etilde


@dataclass(frozen=True)
class BoundsReport:
    """Max-norms of Utilde and its first two derivatives against their a-priori bounds."""

    utilde_inf: float
    dutilde_inf: float
    d2utilde_inf: float

    @property
    def utilde_ok(self) -> bool:
        return self.utilde_inf <= 3.0

    @property
    def dutilde_ok(self) -> bool:
        return self.dutilde_inf <= 2.0

    @property
    def d2utilde_ok(self) -> bool:
        return self.d2utilde_inf <= 3.0

    @property
    def all_ok(self) -> bool:
        return self.utilde_ok and self.dutilde_ok and self.d2utilde_ok


def kernel_eval(x):
    """Periodic kernel W and its derivative W' on the fundamental domain [0, 1).

    W(x) = (x^2 - x)/2 and W'(x) = x - 1/2 there; at integers W' takes the
    right limit -1/2.  Vectorized.
    """
    y = np.mod(np.asarray(x, dtype=float), 1.0)
    W = (y**2 - y) / 2.0
    Wp = y - 0.5
    if np.ndim(x) == 0:
        return float(W), float(Wp)
    return W, Wp


def spectral_derivative(u: np.ndarray) -> np.ndarray:
    """d/dx on the periodic unit interval via FFT; Nyquist derivative set to zero."""
    n = u.shape[-1]
    k = np.arange(n // 2 + 1, dtype=float)
    uh = np.fft.rfft(u)
    dh = (2j * np.pi * k) * uh
    if n % 2 == 0:
        dh[..., -1] = 0.0
    return np.fft.irfft(dh, n=n)


def solve_linear(rho: np.ndarray, grid: SpatialGrid):
    """Linear potential Ubar = W * rho and field Ebar = -dUbar/dx, spectrally.

    For k != 0 the Fourier multiplier is 1/(2 pi k)^2; the zero mode of Ubar
    is -mass/12, the mean of the kernel times the mass of rho.
    """
    rho = np.asarray(rho, dtype=float)
    if rho.shape != (grid.nx,):
        raise ParameterError(f"density shape {rho.shape} does not match grid ({grid.nx},)")
    if np.any(rho < 0.0):
        raise DomainError("density must be nonnegative on all nodes")
    n = grid.nx
    rh = np.fft.rfft(rho)
    k = np.arange(n // 2 + 1, dtype=float)
    Uh = np.zeros_like(rh)
    Uh[1:] = rh[1:] / (2.0 * np.pi * k[1:]) ** 2
    Uh[0] = -rh[0] / 12.0
    Eh = -(2j * np.pi * k) * Uh
    Eh[0] = 0.0
    if n % 2 == 0:
        Eh[-1] = 0.0
    Ubar = np.fft.irfft(Uh, n=n)
    Ebar = np.fft.irfft(Eh, n=n)
    return Ubar, Ebar


def solve_cyclic_tridiagonal(sub, diag, sup, corner_ul, corner_lr, rhs):
    """Solve a cyclic tridiagonal system.

    sub/diag/sup are the three bands (sub[0] and sup[-1] unused), corner_ul is
    A[0, n-1] and corner_lr is A[n-1, 0].  Sherman-Morrison reduces it to a
    plain tridiagonal matrix with two right-hand sides, rhs and the rank-one
    vector, both eliminated in one pass by cyclic reduction (`_tridiagonal`).
    Like the Thomas algorithm it needs no pivoting when the matrix is strictly
    diagonally dominant.
    """
    n = diag.size
    gamma = -diag[0]
    a = np.array(sub, dtype=float)
    b = np.array(diag, dtype=float)
    c = np.array(sup, dtype=float)
    a[0] = 0.0
    c[-1] = 0.0
    b[0] -= gamma
    b[-1] -= corner_ul * corner_lr / gamma
    d = np.zeros((2, n))
    d[0] = rhs
    d[1, 0] = gamma
    d[1, -1] = corner_lr
    x, z = _tridiagonal(a, b, c, d)
    factor = (x[0] + corner_ul * x[-1] / gamma) / (1.0 + z[0] + corner_ul * z[-1] / gamma)
    return x - factor * z


# Below this many unknowns the sequential sweep beats another level of
# reduction (the measured crossover of numpy call overhead against a loop).
_BASE_SIZE = 64


def _tridiagonal(a, b, c, d):
    """Solve the tridiagonal system (a, b, c) for every row of d, shape (k, n).

    a[0] and c[-1] must be zero.  Cyclic (odd-even) reduction: each odd
    unknown is eliminated from its two even neighbours, the half-size system
    for the even unknowns is solved recursively, and the odd unknowns follow
    from their own equations.  Odd n is padded with one identity row.
    """
    n = b.size
    if n <= _BASE_SIZE:
        return _thomas(a, b, c, d)
    if n % 2:
        a = np.append(a, 0.0)
        b = np.append(b, 1.0)
        c = np.append(c, 0.0)
        d = np.concatenate((d, np.zeros((d.shape[0], 1))), axis=1)
    # Odd equations scaled to unit diagonal: x_o = do - ao x_e[m] - co x_e[m+1].
    inv = 1.0 / b[1::2]
    ao = a[1::2] * inv
    co = c[1::2] * inv
    do = d[:, 1::2] * inv
    ae, be, ce, de = a[0::2], b[0::2], c[0::2], d[:, 0::2]
    a2 = np.zeros_like(ae)
    a2[1:] = -ae[1:] * ao[:-1]
    c2 = -ce * co
    b2 = be - ce * ao
    b2[1:] -= ae[1:] * co[:-1]
    d2 = de - ce * do
    d2[:, 1:] -= ae[1:] * do[:, :-1]
    xe = _tridiagonal(a2, b2, c2, d2)
    xo = do - ao * xe
    xo[:, :-1] -= co[:-1] * xe[:, 1:]
    x = np.empty_like(d)
    x[:, 0::2] = xe
    x[:, 1::2] = xo
    return x[:, :n]


def _thomas(a, b, c, d):
    """Sequential Thomas sweep for every row of d, on Python floats."""
    a, b, c = a.tolist(), b.tolist(), c.tolist()
    n = len(b)
    w = [0.0] * n
    cp = [0.0] * n
    prev = 0.0
    for i in range(n):
        w[i] = 1.0 / (b[i] - a[i] * prev)
        prev = cp[i] = c[i] * w[i]
    out = np.empty((len(d), n))
    for row, rhs in zip(out, d.tolist()):
        y = [0.0] * n
        prev = 0.0
        for i in range(n):
            prev = y[i] = (rhs[i] - a[i] * prev) * w[i]
        for i in range(n - 2, -1, -1):
            prev = y[i] = y[i] - cp[i] * prev
        row[:] = y
    return out


def _laplacian(u: np.ndarray, h: float) -> np.ndarray:
    return (np.roll(u, -1) - 2.0 * u + np.roll(u, 1)) / h**2


def solve_nonlinear(
    Ubar: np.ndarray,
    grid: SpatialGrid,
    tol: float = NEWTON_TOL,
    max_iter: int = NEWTON_MAX_ITER,
):
    """Solve d^2 Utilde = exp(Ubar + Utilde) - 1 with damped Newton.

    The Jacobian L - diag(exp(Ubar + Utilde)) is strictly negative definite,
    so the full step is reliable; damping halves the step until the max-norm
    residual decreases.  Newton stops once the max-norm residual is <= tol.
    When the line search stalls above tol, the iterate is accepted if its
    residual is within the round-off floor of the 1/h^2 difference operator,
    4 eps max|Utilde| / h^2 (on fine grids that floor exceeds an absolute
    tol); otherwise, and when max_iter runs out, SolverDivergenceError is
    raised.  Returns (Utilde, Etilde) with Etilde the spectral derivative of
    -Utilde.
    """
    Ubar = np.asarray(Ubar, dtype=float)
    if not np.all(np.isfinite(Ubar)):
        raise DomainError("Ubar must be finite on all nodes")
    n = grid.nx
    h = grid.h
    inv_h2 = 1.0 / h**2
    off = np.full(n, inv_h2)
    U = np.zeros(n)

    def residual(u):
        return _laplacian(u, h) - (np.exp(Ubar + u) - 1.0)

    F = residual(U)
    res = float(np.max(np.abs(F)))
    stalled = False
    for _ in range(max_iter):
        if res <= tol:
            break
        diag = -2.0 * inv_h2 - np.exp(Ubar + U)
        delta = solve_cyclic_tridiagonal(off, diag, off, inv_h2, inv_h2, -F)
        lam = 1.0
        while lam > 1e-12:
            trial = U + lam * delta
            Ft = residual(trial)
            rt = float(np.max(np.abs(Ft)))
            if rt < res:
                U, F, res = trial, Ft, rt
                break
            lam /= 2.0
        else:
            stalled = True
            break
    floor = 4.0 * _EPS * float(np.max(np.abs(U))) * inv_h2
    if res > tol and not (stalled and res <= floor):
        raise SolverDivergenceError(
            f"Newton failed to reach residual {tol:g} (last residual {res:g}, "
            f"round-off floor {floor:g})",
            res,
        )
    Etilde = -spectral_derivative(U)
    return U, Etilde


def make_field_slice(rho: np.ndarray, grid: SpatialGrid) -> FieldSlice:
    """Run the linear and nonlinear solves for one density slice."""
    Ubar, Ebar = solve_linear(rho, grid)
    Utilde, Etilde = solve_nonlinear(Ubar, grid)
    return FieldSlice(Ubar=Ubar, Utilde=Utilde, Ebar=Ebar, Etilde=Etilde)


def verify_potential_bounds(slice_: FieldSlice) -> BoundsReport:
    """Max-norms of Utilde, dUtilde/dx, d2Utilde/dx2 with pass flags.

    The second derivative is taken from the solved equation itself,
    exp(Ubar + Utilde) - 1, which is exact at convergence.  The norms reduce
    over every axis, so a FieldHistory that keeps its solved potentials gives
    the worst over all its slices.
    """
    du = -slice_.Etilde
    d2u = np.exp(slice_.Ubar + slice_.Utilde) - 1.0
    return BoundsReport(
        utilde_inf=float(np.max(np.abs(slice_.Utilde))),
        dutilde_inf=float(np.max(np.abs(du))),
        d2utilde_inf=float(np.max(np.abs(d2u))),
    )


def stability_ratio(Ubar1: np.ndarray, Ubar2: np.ndarray, grid: SpatialGrid) -> float:
    """||dUtilde1 - dUtilde2||_inf / ||Ubar1 - Ubar2||_inf after both nonlinear solves.

    Bounded by e^6 for potentials arising from admissible densities.
    """
    Ubar1 = np.asarray(Ubar1, dtype=float)
    Ubar2 = np.asarray(Ubar2, dtype=float)
    denom = float(np.max(np.abs(Ubar1 - Ubar2)))
    if denom == 0.0:
        raise DegenerateRatioError("potentials are identical on all nodes")
    _, Et1 = solve_nonlinear(Ubar1, grid)
    _, Et2 = solve_nonlinear(Ubar2, grid)
    return float(np.max(np.abs(Et1 - Et2))) / denom


E6 = math.e**6
