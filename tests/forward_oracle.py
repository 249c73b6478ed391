"""An independent forward solve of the Vlasov-Poisson system, to check a run's field.

The scheme reads f as f* at labels traced back from the horizon and iterates
on the field.  This oracle instead starts from the run's own f(t0) and solves
the initial-value problem forward,

    df/dt + v df/dx + E(t, x) df/dv = 0,   E from the density by poisson,

by Strang splitting (Cheng and Knorr, J. Comput. Phys. 22, 1976;
Sonnendruecker, Roche, Bertrand and Ghizzo, J. Comput. Phys. 149, 1999),
composed as Yoshida's triple jump for fourth order (Phys. Lett. A 150, 1990).
Each velocity row is advected in x by an exact spectral shift, and each x
column is kicked in v by a spectral shift on a zero-padded period (f is about
0 at +-vmax).  The density is the trapezoid sum over the oracle's own
velocity mesh, which must resolve free streaming, m t < 1 / (2 dv) on the
field's significant modes m.

f(t0) comes from scheme.transported_datum on the run's final field, under the
run's own numerics, so what the oracle compares is the field that f(t0)
generates forward against the field the run converged to.  It shares
poisson.make_field_slice with the scheme, so it cannot see that solve's
error, and a bilinear table's kinks defeat the spectral shifts, so it is for
smooth data.
"""

from __future__ import annotations

import numpy as np

from vpme_scatter.poisson import make_field_slice
from vpme_scatter.scheme import transported_datum, velocity_grid

# Yoshida's triple jump: Strang steps of w1 tau, w0 tau, w1 tau.
_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_W0 = 1.0 - 2.0 * _W1


def forward_field(datum, history, vmax: float, nv: int, steps: int = 240) -> np.ndarray:
    """E on every (time, x) node of history, solved forward from the run's f(t0).

    f lives on the velocity_grid(vmax, nv) x grid mesh.  steps Yoshida
    steps cover [t0, horizon]; their count must be a multiple of the
    history's slices, so that the steps land on its time nodes.
    """
    grid, times = history.grid, history.times
    per_slice, rest = divmod(steps, times.size - 1)
    if rest or not per_slice:
        raise ValueError(f"{steps} steps do not land on the {times.size} time nodes")
    tau = history.dt / per_slice
    v, _ = velocity_grid(vmax, nv)
    dv = float(v[1] - v[0])
    w = np.full(v.size, dv)
    w[[0, -1]] *= 0.5
    _, f = next(transported_datum(datum, history, times[:1], vmax, nv))
    f = f.copy()  # rows v, columns x
    modes = np.fft.rfftfreq(grid.nx, d=1.0 / grid.nx)
    padded = 2 * v.size
    eta = np.fft.rfftfreq(padded, d=dv)

    def field(f):
        return make_field_slice(w @ f, grid).E

    def advect(f, span):
        """f(x - v span, v): an exact shift of each velocity row."""
        shift = np.exp((-2j * np.pi * span) * np.outer(v, modes))
        return np.fft.irfft(np.fft.rfft(f, axis=1) * shift, n=grid.nx, axis=1)

    def kick(f, span):
        """f(x, v - E(x) span): a shift of each x column on the zero-padded velocity period."""
        shift = np.exp((-2j * np.pi * span) * np.outer(eta, field(f)))
        return np.fft.irfft(np.fft.rfft(f, n=padded, axis=0) * shift, n=padded, axis=0)[: v.size]

    def strang(f, span):
        f = advect(f, 0.5 * span)
        f = kick(f, span)
        return advect(f, 0.5 * span)

    E = np.empty((times.size, grid.nx))
    E[0] = field(f)
    for i in range(1, times.size):
        for _ in range(per_slice):
            for weight in (_W1, _W0, _W1):
                f = strang(f, weight * tau)
        E[i] = field(f)
    return E


def forward_gap(datum, history, vmax: float, nv: int, steps: int = 240) -> float:
    """max |E_forward - E_run| over every node of history, relative to max |E_run|."""
    E = forward_field(datum, history, vmax, nv, steps)
    return float(np.max(np.abs(E - history.E)) / np.max(np.abs(history.E)))
