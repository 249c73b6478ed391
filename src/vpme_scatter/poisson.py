"""Split Poisson problem on the torus, for one time slice or a stack of them.

Every solve takes one slice, shape (nx,), or a stack of k slices, shape
(k, nx); one slice is the one-row stack of the same code.  Each row is solved
on its own and gets the same bits whatever else its stack holds.  The linear
potential is the convolution Ubar = W * rho with the periodic kernel
W(x) = (x^2 - |x|)/2, computed spectrally (the source's zero mode is
dropped; the mean of Ubar is fixed by the kernel's own mean -1/12).  The
nonlinear correction solves d^2 Utilde / dx^2 = exp(Ubar + Utilde) - 1 by
damped Newton on the periodic central-difference operator D_h.  Newton starts
from the solve of the equation linearized at Utilde = 0 with exp(Ubar) frozen
at its row mean, a constant-coefficient system that one rfft/irfft pair
solves (the fast solver of the constant-coefficient operator as the start for
a variable-coefficient one: Concus and Golub, SIAM J. Numer. Anal. 10, 1973);
for the small potentials of the theorem regime that start already meets the
tolerance.  Every row keeps its own line search and stopping test and leaves
the working set once it stops; each Newton step solves the cyclic tridiagonal
Jacobian systems of the rows left in one call.  Sherman-Morrison turns each system into one
tridiagonal elimination with two right-hand sides, done by cyclic reduction
vectorized over the rows (Hockney, J. ACM 12, 1965; Buzbee, Golub and
Nielson, SIAM J. Numer. Anal. 7, 1970) down to sequential Thomas sweeps on at
most 64 unknowns per row.  Newton stops at the residual tolerance, or when the
line search stalls at the round-off floor of the 1/h^2 operator; the steps,
final residual and floor acceptance of every row come back in a NewtonReport.
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
class NewtonReport:
    """What solve_nonlinear did on each row: Jacobian solves, final max-norm residual, acceptance at the floor.

    Each field has the leading shape of the solved stack (() for one slice).
    steps counts the Newton steps taken after the linearized start, so a row
    whose start already meets the tolerance has 0.
    at_floor marks the rows accepted at the round-off floor after a stalled
    line search, above the residual tolerance.
    """

    steps: np.ndarray
    residual: np.ndarray
    at_floor: np.ndarray


@dataclass(frozen=True)
class FieldSlice:
    """Potentials and fields of one time slice, or of a stack of them, split into linear and nonlinear parts.

    newton is the report of the nonlinear solve (None for a slice not built by make_field_slice).
    """

    Ubar: np.ndarray
    Utilde: np.ndarray
    Ebar: np.ndarray
    Etilde: np.ndarray
    newton: NewtonReport | None = None

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


def _first_row(mask: np.ndarray) -> int:
    """Index of the first row of a (k, nx) mask, or 0 for an (nx,) mask, with a True entry."""
    return int(np.argmax(mask.reshape(-1, mask.shape[-1]).any(axis=1)))


def _check_stack(values: np.ndarray, grid: SpatialGrid, name: str):
    """Refuse anything but one slice, shape (nx,), or a stack of slices, shape (k, nx)."""
    if values.ndim not in (1, 2) or values.shape[-1] != grid.nx:
        raise ParameterError(f"{name} shape {values.shape} is not (nx,) or (k, nx) with nx = {grid.nx}")


def solve_linear(rho: np.ndarray, grid: SpatialGrid):
    """Linear potential Ubar = W * rho and field Ebar = -dUbar/dx of each slice, spectrally.

    rho is one slice, shape (nx,), or a stack, shape (k, nx).  For k != 0 the
    Fourier multiplier is 1/(2 pi k)^2; the zero mode of Ubar is -mass/12,
    the mean of the kernel times the mass of rho.  A negative density raises
    DomainError with the index of its row.
    """
    rho = np.asarray(rho, dtype=float)
    _check_stack(rho, grid, "density")
    if np.any(rho < 0.0):
        raise DomainError("density must be nonnegative on all nodes", _first_row(rho < 0.0))
    n = grid.nx
    rh = np.fft.rfft(rho)
    k = np.arange(n // 2 + 1, dtype=float)
    spectra = np.zeros((2,) + rh.shape, dtype=complex)  # Ubar's and Ebar's, transformed back in one call
    Uh, Eh = spectra
    Uh[..., 1:] = rh[..., 1:] / (2.0 * np.pi * k[1:]) ** 2
    Uh[..., 0] = -rh[..., 0] / 12.0
    Eh[...] = -(2j * np.pi * k) * Uh
    Eh[..., 0] = 0.0
    if n % 2 == 0:
        Eh[..., -1] = 0.0
    Ubar, Ebar = np.fft.irfft(spectra, n=n)
    return Ubar, Ebar


def solve_cyclic_tridiagonal(sub, diag, sup, corner_ul, corner_lr, rhs):
    """Solve a cyclic tridiagonal system, or a stack of them, one per row of rhs.

    rhs has shape (n,) or (k, n).  The bands sub/diag/sup (sub[..., 0] and
    sup[..., -1] unused) broadcast against it, so a scalar or an (n,) band is
    shared by every row; the corners corner_ul = A[0, n-1] and
    corner_lr = A[n-1, 0] are scalars or one per row, shape (k,).
    Sherman-Morrison reduces each system to a plain tridiagonal matrix with
    two right-hand sides, rhs and the rank-one vector, all eliminated in one
    pass by cyclic reduction (`_tridiagonal`).  Like the Thomas algorithm it
    needs no pivoting when the matrix is strictly diagonally dominant.
    """
    rhs = np.asarray(rhs, dtype=float)
    n = rhs.shape[-1]
    rows = rhs.reshape(-1, n)
    a, b, c = np.empty((3,) + rows.shape)
    a[:], b[:], c[:] = sub, diag, sup
    gamma = -b[:, 0]
    a[:, 0] = 0.0
    c[:, -1] = 0.0
    b[:, 0] -= gamma
    b[:, -1] -= corner_ul * corner_lr / gamma
    d = np.zeros((2,) + rows.shape)
    d[0] = rows
    d[1, :, 0] = gamma
    d[1, :, -1] = corner_lr
    x, z = _tridiagonal(a.ravel(), b.ravel(), c.ravel(), d.reshape(2, -1), n).reshape(d.shape)
    factor = (x[:, 0] + corner_ul * x[:, -1] / gamma) / (1.0 + z[:, 0] + corner_ul * z[:, -1] / gamma)
    return (x - factor[:, None] * z).reshape(rhs.shape)


# Below this many unknowns the sequential sweep beats another level of
# reduction (the measured crossover of numpy call overhead against a loop).
_BASE_SIZE = 64


def _pad(x: np.ndarray, n: int, value: float) -> np.ndarray:
    """x, systems of n unknowns laid end to end along its last axis, with one more unknown equal to value after each."""
    rows = x.reshape(x.shape[:-1] + (-1, n))
    out = np.full(rows.shape[:-1] + (n + 1,), value)
    out[..., :n] = rows
    return out.reshape(x.shape[:-1] + (-1,))


def _tridiagonal(a, b, c, d, n):
    """Solve the tridiagonal systems of n unknowns laid end to end in a, b, c, for both right-hand sides d[0], d[1].

    The first entry of a and the last of c in every system must be zero, so
    the systems stay decoupled.  Cyclic (odd-even) reduction: each odd
    unknown is eliminated from its two even neighbours, the half-size systems
    for the even unknowns are solved recursively, and the odd unknowns follow
    from their own equations.  Odd n is padded with one identity row in every
    system.  Each system gets the bits of a solve on its own: the terms that
    couple neighbouring systems are products with those zero entries, so they
    add exact zeros (at most the sign of a result that is exactly zero can
    differ).
    """
    if n <= _BASE_SIZE:
        return _thomas(a, b, c, d, n)
    m = n
    if n % 2:
        a, b, c, d = _pad(a, n, 0.0), _pad(b, n, 1.0), _pad(c, n, 0.0), _pad(d, n, 0.0)
        n += 1
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
    xe = _tridiagonal(a2, b2, c2, d2, n // 2)
    xo = do - ao * xe
    xo[:, :-1] -= co[:-1] * xe[:, 1:]
    x = np.empty_like(d)
    x[:, 0::2] = xe
    x[:, 1::2] = xo
    if m < n:
        x = x.reshape(2, -1, n)[:, :, :m].reshape(2, -1)
    return x


def _thomas(a, b, c, d, n):
    """Sequential Thomas sweeps of systems of n unknowns laid end to end, for both right-hand sides d[0], d[1].

    The sweeps run on Python floats, a few whole systems (at most 256
    unknowns) at a time: a float in a list takes four times the memory it
    takes in an array, and lists of a whole stack raise a run's peak memory.
    One forward loop factors the matrix and eliminates both right-hand sides.
    The zero first entry of a and last entry of c in each system keep the
    systems decoupled.
    """
    x = np.empty_like(d)
    width = n * max(1, 256 // n)
    for lo in range(0, b.size, width):
        part = slice(lo, lo + width)
        ap, bp, cp = a[part].tolist(), b[part].tolist(), c[part].tolist()
        y, z = d[:, part].tolist()
        pc = py = pz = 0.0
        for i in range(len(bp)):
            ai = ap[i]
            wi = 1.0 / (bp[i] - ai * pc)
            pc = cp[i] = cp[i] * wi
            py = y[i] = (y[i] - ai * py) * wi
            pz = z[i] = (z[i] - ai * pz) * wi
        for i in range(len(bp) - 2, -1, -1):
            ci = cp[i]
            py = y[i] = y[i] - ci * py
            pz = z[i] = z[i] - ci * pz
        x[0, part], x[1, part] = y, z
    return x


def _residual(Ubar, U, h):
    """The residual d^2 U - (exp(Ubar + U) - 1) of the difference equation, and exp(Ubar + U)."""
    e = np.exp(Ubar + U)
    wrapped = np.concatenate((U[:, -1:], U, U[:, :1]), axis=1)  # U[j - 1] .. U[j + 1], periodically
    return (wrapped[:, 2:] - 2.0 * U + wrapped[:, :-2]) / h**2 - (e - 1.0), e


def _line_search(Ubar, U, F, e, res, delta, h, lam=1.0):
    """Per row, the first damped step U + lam delta, lam halved while > 1e-12, that lowers the max-norm residual.

    Returns the rows' new U, residual F, exp(Ubar + U) and max-norm residual,
    and the mask of rows where no step did: they stall and keep what they had.
    """
    trial = U + lam * delta
    Ft, et = _residual(Ubar, trial, h)
    rt = np.max(np.abs(Ft), axis=1)
    worse = ~(rt < res)
    stalled = worse
    if worse.any():
        if lam / 2.0 > 1e-12:
            stalled = worse.copy()
            step = _line_search(Ubar[worse], U[worse], F[worse], e[worse], res[worse], delta[worse], h, lam / 2.0)
            trial[worse], Ft[worse], et[worse], rt[worse], stalled[worse] = step
        else:
            trial[worse], Ft[worse], et[worse], rt[worse] = U[worse], F[worse], e[worse], res[worse]
    return trial, Ft, et, rt, stalled


# Points that solve_nonlinear iterates as one stack: enough rows to spread
# numpy's per-call overhead, few enough that the temporaries of a Newton step
# stay about the size of a transport block (scheme.TRANSPORT_BLOCK), so that a
# field update does not raise a run's peak memory.
_STACK_POINTS = 16384


def _linearized(Ubar):
    """Per row, U0 solving (D_h - c) U0 = exp(Ubar) - 1, with c the row mean of exp(Ubar), by one rfft/irfft pair.

    This is the equation linearized at Utilde = 0 with exp(Ubar) frozen at
    its mean, so the operator is constant and D_h, the periodic central
    difference, has the Fourier symbol -4 nx^2 sin^2(pi k / nx).  Since
    c > 0 no mode is singular.
    """
    n = Ubar.shape[-1]
    e = np.exp(Ubar)
    symbol = -4.0 * n**2 * np.sin(np.pi * np.arange(n // 2 + 1) / n) ** 2
    return np.fft.irfft(np.fft.rfft(e - 1.0) / (symbol - e.mean(axis=1, keepdims=True)), n=n)


def _newton(rows, U, res, steps, stalled, h, tol, max_iter):
    """Damped Newton on a stack of Ubar rows from their linearized solves, filling in its U, res, steps and stalled (views of the caller's arrays)."""
    inv_h2 = 1.0 / h**2
    U[:] = _linearized(rows)
    F, e = _residual(rows, U, h)
    res[:] = np.max(np.abs(F), axis=1)
    live = np.arange(len(rows))  # the rows still iterating; ub, u, f, e, r, stuck are theirs
    ub, u, f, r, stuck = rows, U, F, res, stalled
    for step in range(max_iter + 1):
        done = stuck | (r <= tol)
        if step == max_iter or done.all():
            U[live], res[live], stalled[live], steps[live] = u, r, stuck, step
            break
        if done.any():
            gone = live[done]
            U[gone], res[gone], stalled[gone], steps[gone] = u[done], r[done], stuck[done], step
            live, ub, u, f, e, r = (x[~done] for x in (live, ub, u, f, e, r))
        delta = solve_cyclic_tridiagonal(inv_h2, -2.0 * inv_h2 - e, inv_h2, inv_h2, inv_h2, -f)
        u, f, e, r, stuck = _line_search(ub, u, f, e, r, delta, h)


def solve_nonlinear(
    Ubar: np.ndarray,
    grid: SpatialGrid,
    tol: float = NEWTON_TOL,
    max_iter: int = NEWTON_MAX_ITER,
):
    """Solve d^2 Utilde = exp(Ubar + Utilde) - 1 with damped Newton, for one slice or a stack.

    Ubar has shape (nx,) or (k, nx); each row is solved on its own.  Newton
    starts from U0 = (D_h - c)^{-1} (exp(Ubar) - 1), c the row mean of
    exp(Ubar) (_linearized), and the report's steps count the steps after
    it.  The Jacobian D_h - diag(exp(Ubar + Utilde)) is strictly negative
    definite, so the full step is reliable; damping halves a row's step
    until its max-norm residual decreases.  A row stops once its max-norm
    residual is <= tol, which U0 itself may already meet.
    When its line search stalls above tol, the row is accepted if its
    residual is within the round-off floor of the 1/h^2 difference operator,
    4 eps max|Utilde| / h^2 (on fine grids that floor exceeds an absolute
    tol); otherwise, and when max_iter runs out, SolverDivergenceError is
    raised, with the index and residual of the first failing row.  The rows
    are iterated in stacks of about _STACK_POINTS points; rows that have
    stopped leave the working set, and each step solves the Jacobian systems
    of the rows left in one stacked call.  Returns (Utilde, Etilde, report):
    Etilde is the spectral derivative of -Utilde and report the NewtonReport.
    """
    Ubar = np.asarray(Ubar, dtype=float)
    _check_stack(Ubar, grid, "Ubar")
    if not np.all(np.isfinite(Ubar)):
        raise DomainError("Ubar must be finite on all nodes", _first_row(~np.isfinite(Ubar)))
    inv_h2 = 1.0 / grid.h**2
    rows = Ubar.reshape(-1, grid.nx)
    U = np.empty(rows.shape)
    res = np.empty(len(rows))
    steps = np.zeros(len(rows), dtype=int)
    stalled = np.zeros(len(rows), dtype=bool)
    size = max(1, _STACK_POINTS // grid.nx)
    for lo in range(0, len(rows), size):
        part = slice(lo, lo + size)
        _newton(rows[part], U[part], res[part], steps[part], stalled[part], grid.h, tol, max_iter)
    above = np.flatnonzero(res > tol)
    if above.size:
        floor = 4.0 * _EPS * np.max(np.abs(U[above]), axis=1) * inv_h2
        failed = ~(stalled[above] & (res[above] <= floor))
        if failed.any():
            j = int(np.argmax(failed))
            i = int(above[j])
            raise SolverDivergenceError(
                f"Newton failed to reach residual {tol:g} (last residual {res[i]:g}, "
                f"round-off floor {floor[j]:g})",
                float(res[i]),
                i,
            )
    lead = Ubar.shape[:-1]
    report = NewtonReport(steps.reshape(lead), res.reshape(lead), stalled.reshape(lead))
    return U.reshape(Ubar.shape), -spectral_derivative(U).reshape(Ubar.shape), report


def make_field_slice(rho: np.ndarray, grid: SpatialGrid) -> FieldSlice:
    """Run the linear and nonlinear solves for one density slice, or for a stack of them at once."""
    Ubar, Ebar = solve_linear(rho, grid)
    Utilde, Etilde, newton = solve_nonlinear(Ubar, grid)
    return FieldSlice(Ubar=Ubar, Utilde=Utilde, Ebar=Ebar, Etilde=Etilde, newton=newton)


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

    The two potentials are solved as one two-row stack.  Bounded by e^6 for
    potentials arising from admissible densities.
    """
    Ubar = np.array([Ubar1, Ubar2], dtype=float)
    denom = float(np.max(np.abs(Ubar[0] - Ubar[1])))
    if denom == 0.0:
        raise DegenerateRatioError("potentials are identical on all nodes")
    _, Etilde, _ = solve_nonlinear(Ubar, grid)
    return float(np.max(np.abs(Etilde[0] - Etilde[1]))) / denom


E6 = math.e**6
