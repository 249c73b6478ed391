"""Asymptotic scattering data and their admissibility checks.

The scattering target f*(x, v) lives on the torus [0, 1) in x and the real
line in v.  Two families are supported:

* ``gaussian-cosine``: f*(x, v) = c * g_sigma(v) * (1 + cos(2 pi x)), with
  g_sigma the unit-mass Gaussian of width sigma.  All of its transforms have
  closed forms.
* ``tabulated-grid``: values on a rectangular (x, v) lattice, evaluated by
  bilinear interpolation and transformed by quadrature.

Admissibility of a datum is expressed through three bounds: nonnegativity,
the pointwise velocity tail |f*| <= a2 / (1 + v^4), and the Fourier envelope
|fhat*(k, eta)| <= e^-6 * (1 + |k|^alpha)^-1 * exp(-a |eta|).
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import OutOfRangeError, ParameterError

ENVELOPE_PREFACTOR = math.exp(-6.0)

# Lattice on which the Fourier envelope is checked for non-analytic families.
ENVELOPE_K_MAX = 64

# The gaussian-cosine x-factor 1 + cos(2 pi x) by wavenumber; eval_f_star,
# h_limit and scheme._free_streaming_rows write it in closed form.
GAUSSIAN_COSINE_MODES = {0: 1.0, 1: 0.5, -1: 0.5}


def zeta_upper_bound(alpha: float, terms: int = 20000) -> float:
    """Upper bound for sum_{k>=1} k^-(1+alpha): partial sum plus integral tail."""
    k = np.arange(1, terms + 1, dtype=float)
    partial = float(np.sum(k ** (-(1.0 + alpha))))
    tail = terms ** (-alpha) / alpha
    return partial + tail


@dataclass(frozen=True)
class ClassParameters:
    """Decay/regularity parameters of the admissible class of asymptotic data.

    a is the velocity-analyticity rate (and the decay rate of the weighted
    norm), a1 bounds the spectral series sum_k k^-(1+alpha), a2 bounds the
    velocity tail, alpha is the spatial Hoelder exponent, and t0 is the start
    time of the construction.
    """

    a: float
    a1: float
    a2: float
    alpha: float
    t0: float

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise ParameterError(f"alpha must lie in (0, 1), got {self.alpha}")
        for name in ("a", "a1", "a2"):
            if getattr(self, name) <= 0.0:
                raise ParameterError(f"{name} must be positive, got {getattr(self, name)}")
        if self.t0 < 0.0:
            raise ParameterError(f"t0 must be nonnegative, got {self.t0}")

    @property
    def t0_floor(self) -> float:
        """Smallest admissible start time max(0, log(8 a1 a2) / a)."""
        return max(0.0, math.log(8.0 * self.a1 * self.a2) / self.a)

    @property
    def t0_admissible(self) -> bool:
        return self.t0 >= self.t0_floor - 1e-12

    @property
    def theorem_regime(self) -> bool:
        """Whether a^2 >= (200 a2 + 3)(e^6 + 1), the regime with guaranteed contraction."""
        return self.a**2 >= (200.0 * self.a2 + 3.0) * (math.e**6 + 1.0)

    @property
    def series_bound_holds(self) -> bool:
        """Whether a1 dominates the series sum_k k^-(1+alpha) (rigorous upper bound)."""
        return zeta_upper_bound(self.alpha) <= self.a1


@dataclass(frozen=True)
class AsymptoticDatum:
    """A scattering target f* with its class parameters.

    For the gaussian-cosine family amplitude and sigma parametrize the
    velocity Gaussian; its x-factor is fixed (GAUSSIAN_COSINE_MODES).
    Tabulated data carry their lattice instead, and two read-only fields
    derived from it on construction, which close the x period with the wrap
    cell [x_last, x_first + 1): x_wrapped, the x nodes with x_first + 1
    appended, and table_wrapped, the values with the x_first row appended,
    flattened row by row (None for the gaussian-cosine family).
    """

    family: str
    klass: ClassParameters
    amplitude: float = 0.0
    sigma: float = 0.0
    x_nodes: np.ndarray | None = None
    v_nodes: np.ndarray | None = None
    values: np.ndarray | None = None

    def __post_init__(self):
        if self.family not in ("gaussian-cosine", "tabulated-grid"):
            raise ParameterError(f"unknown datum family {self.family!r}")
        for arr in (self.x_nodes, self.v_nodes, self.values):
            if arr is not None:
                arr.setflags(write=False)
        x_wrapped = table_wrapped = None
        if self.values is not None:
            x_wrapped = np.concatenate([self.x_nodes, [self.x_nodes[0] + 1.0]])
            table_wrapped = np.vstack([self.values, self.values[:1]]).ravel()
            x_wrapped.setflags(write=False)
            table_wrapped.setflags(write=False)
        object.__setattr__(self, "x_wrapped", x_wrapped)
        object.__setattr__(self, "table_wrapped", table_wrapped)

    @property
    def reflection_symmetric(self) -> bool:
        """Whether f*(-x, -v) = f*(x, v): true of gaussian-cosine data, not assumed of tables."""
        return self.family == "gaussian-cosine"


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the class-membership checks; violations are recorded, never raised."""

    nonnegative: bool
    pointwise_tail: bool
    fourier_envelope: bool
    series_bound: bool
    t0_admissible: bool
    theorem_regime: bool
    max_tail_product: float
    max_envelope_excess: float

    @property
    def member(self) -> bool:
        """Membership in the class: the three Def-level bounds plus the series requirement."""
        return (
            self.nonnegative
            and self.pointwise_tail
            and self.fourier_envelope
            and self.series_bound
        )

    @property
    def admissible(self) -> bool:
        """Membership together with the start-time and contraction-regime conditions."""
        return self.member and self.t0_admissible and self.theorem_regime


def _gaussian(v, sigma: float):
    return np.exp(-np.asarray(v, dtype=float) ** 2 / (2.0 * sigma**2)) / (
        sigma * math.sqrt(2.0 * math.pi)
    )


def make_gaussian_cosine_datum(
    amplitude: float, sigma: float, klass: ClassParameters
) -> AsymptoticDatum:
    """Build f*(x, v) = amplitude * g_sigma(v) * (1 + cos(2 pi x))."""
    if amplitude <= 0.0:
        raise ParameterError(f"amplitude must be positive, got {amplitude}")
    if sigma <= 0.0:
        raise ParameterError(f"sigma must be positive, got {sigma}")
    return AsymptoticDatum(
        family="gaussian-cosine",
        klass=klass,
        amplitude=amplitude,
        sigma=sigma,
    )


def make_tabulated_datum(
    x_nodes: np.ndarray,
    v_nodes: np.ndarray,
    values: np.ndarray,
    klass: ClassParameters,
) -> AsymptoticDatum:
    """Build a datum from values on a rectangular (x, v) lattice.

    x nodes must be strictly increasing inside [0, 1); the x direction is
    treated as periodic.  v nodes must be strictly increasing; queries outside
    their range raise.
    """
    x_nodes = np.asarray(x_nodes, dtype=float)
    v_nodes = np.asarray(v_nodes, dtype=float)
    values = np.asarray(values, dtype=float)
    if x_nodes.ndim != 1 or v_nodes.ndim != 1:
        raise ParameterError("x_nodes and v_nodes must be one-dimensional")
    if np.any(np.diff(x_nodes) <= 0) or np.any(np.diff(v_nodes) <= 0):
        raise ParameterError("grid nodes must be strictly increasing")
    if np.any(x_nodes < 0.0) or np.any(x_nodes >= 1.0):
        raise ParameterError("x nodes must lie in [0, 1)")
    if values.shape != (x_nodes.size, v_nodes.size):
        raise ParameterError(
            f"values shape {values.shape} does not match grid "
            f"({x_nodes.size}, {v_nodes.size})"
        )
    return AsymptoticDatum(
        family="tabulated-grid",
        klass=klass,
        x_nodes=x_nodes,
        v_nodes=v_nodes,
        values=values,
    )


def _data_line(path, index: int) -> int | None:
    """The 1-based line of a CSV file holding data row index (from 0, as np.loadtxt counts), None past the last.

    The header is the first line that is neither blank nor a ``#`` comment;
    numpy counts each later line that is not empty once its comment is cut.
    """
    with open(path) as fh:
        header = False
        for number, line in enumerate(fh, start=1):
            text = line.rstrip("\n").split("#", 1)[0]
            if not header:
                header = bool(text.strip())
            elif text:
                if index == 0:
                    return number
                index -= 1
    return None


def _numpy_error(path, exc: ValueError) -> str:
    """np.loadtxt's message with its row number made the 1-based file line.

    numpy counts data rows only, from 0 for a field that does not convert
    and from 1 for a changed number of columns.
    """
    message = str(exc).split(";", 1)[0]
    row = re.search(r" at row (\d+)", message)
    line = row and _data_line(path, int(row.group(1)) - (not message.startswith("could not convert")))
    if line is None:
        return message
    return f"{message[: row.start()]} on line {line}{message[row.end() :]}"


def _read_csv_columns(path, names: tuple[str, ...]) -> tuple[np.ndarray, ...]:
    """The named columns of a CSV table, as finite float arrays in row order.

    The first line that is neither blank nor a ``#`` comment is the header
    of comma-separated column names, in any order; columns it names but that
    are not asked for are read and dropped.  The rows below are parsed by
    numpy's C reader: a ``#`` starts a comment, blank lines are skipped.  A
    missing or repeated column, a row that is not all numbers or has a
    different number of values, a non-finite value in a named column and a
    table with no data rows raise ParameterError naming the file (and the
    1-based line of the bad row, the header, comments and blank lines
    counted).
    """
    with open(path) as fh:
        header = ""
        while not header:
            line = fh.readline()
            if not line:
                raise ParameterError(f"{path}: no header line")
            header = line.split("#", 1)[0].strip()
        columns = [name.strip() for name in header.split(",")]
        for name in names:
            if columns.count(name) != 1:
                what = "missing" if name not in columns else "repeated"
                raise ParameterError(f"{path}: {what} column {name!r}")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
                rows = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ParameterError(f"{path}: {_numpy_error(path, exc)}") from exc
    if rows.size == 0:
        raise ParameterError(f"{path}: no data rows")
    if rows.shape[1] != len(columns):
        raise ParameterError(f"{path}: rows have {rows.shape[1]} values, the header names {len(columns)}")
    named = rows[:, [columns.index(name) for name in names]]
    finite = np.isfinite(named).all(axis=1)
    if not finite.all():
        raise ParameterError(f"{path}: non-finite value on line {_data_line(path, int(np.argmin(finite)))}")
    return tuple(named.T)


def _distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values of a finite array (np.unique without its masked-array import)."""
    values = np.sort(values)
    return values[np.concatenate(([True], values[1:] != values[:-1]))]


def load_tabulated_grid(path, klass: ClassParameters) -> AsymptoticDatum:
    """Load a tabulated datum from a CSV file with columns ``x``, ``v`` and ``f``."""
    x, v, f = _read_csv_columns(path, ("x", "v", "f"))
    x_nodes = _distinct(x)
    v_nodes = _distinct(v)
    if f.size != x_nodes.size * v_nodes.size:
        raise ParameterError(f"{path}: grid file does not cover a full rectangular lattice")
    values = np.full((x_nodes.size, v_nodes.size), np.nan)
    ix = np.searchsorted(x_nodes, x)
    iv = np.searchsorted(v_nodes, v)
    values[ix, iv] = f
    if np.any(np.isnan(values)):
        raise ParameterError(f"{path}: grid file has duplicate or missing lattice entries")
    return make_tabulated_datum(x_nodes, v_nodes, values, klass)


def eval_f_star(datum: AsymptoticDatum, x, v):
    """Pointwise value of f*; x is interpreted mod 1. Vectorized over arrays.

    x - floor(x) rounds the same exact value once as np.mod(x, 1.0), so it
    gives the same bits, without np.mod's many times slower remainder.
    """
    x = np.asarray(x, dtype=float)
    x = x - np.floor(x)
    v = np.asarray(v, dtype=float)
    if datum.family == "gaussian-cosine":
        return datum.amplitude * _gaussian(v, datum.sigma) * (1.0 + np.cos(2.0 * np.pi * x))
    return _bilinear(datum, x, v)


def _bilinear(datum: AsymptoticDatum, x, v):
    """The table's bilinear interpolant at x in [0, 1] (periodic, through the wrap cell) and v.

    The four corners are gathered from the flat table_wrapped at the index of
    the lower-left one, row ix and column iv: the same values as 2-D
    indexing, without its index arithmetic per axis.
    """
    xe, vn, flat = datum.x_wrapped, datum.v_nodes, datum.table_wrapped
    if np.any(v < vn[0]) or np.any(v > vn[-1]):
        raise OutOfRangeError("velocity query outside the tabulated grid")
    ix = np.clip(np.searchsorted(xe, x, side="right") - 1, 0, xe.size - 2)
    iv = np.clip(np.searchsorted(vn, v, side="right") - 1, 0, vn.size - 2)
    tx = (x - xe[ix]) / (xe[ix + 1] - xe[ix])
    tv = (v - vn[iv]) / (vn[iv + 1] - vn[iv])
    j = ix * vn.size + iv
    f00 = flat.take(j)
    f10 = flat.take(j + vn.size)
    f01 = flat.take(j + 1)
    f11 = flat.take(j + (vn.size + 1))
    return (
        f00 * (1 - tx) * (1 - tv)
        + f10 * tx * (1 - tv)
        + f01 * (1 - tx) * tv
        + f11 * tx * tv
    )


def fourier_f_star(datum: AsymptoticDatum, k: int, eta: float) -> complex:
    """Fourier transform fhat*(k, eta) under the convention exp(-2 pi i k x) exp(-i eta v).

    Closed form for the gaussian-cosine family; trapezoid quadrature (periodic
    in x, truncated in v) for tabulated grids.  Absent modes return 0.
    """
    if datum.family == "gaussian-cosine":
        coeff = GAUSSIAN_COSINE_MODES.get(int(k), 0.0)
        return complex(
            datum.amplitude * coeff * math.exp(-(datum.sigma**2) * eta**2 / 2.0)
        )
    return complex(tabulated_fourier(datum, np.asarray([k]), np.asarray([eta]))[0, 0])


def _trapezoid_weights(nodes: np.ndarray) -> np.ndarray:
    gaps = np.diff(nodes)
    w = np.zeros(nodes.size)
    w[:-1] += gaps / 2.0
    w[1:] += gaps / 2.0
    return w


def tabulated_fourier(datum: AsymptoticDatum, ks, etas) -> np.ndarray:
    """fhat*(k, eta) of a tabulated datum on the lattice ks x etas.

    Trapezoid quadrature, periodic in x (the wrap cell [x_last, x_first + 1)
    closes the period) and truncated in v, with the weights folded into the
    cosine and sine factors Cx + i Sx = w_x e^{2 pi i k x} and
    Cv + i Sv = w_v e^{i v eta}: fhat* = (Cx F Cv - Sx F Sv) - i (Cx F Sv + Sx F Cv)
    for the table F, from two real einsum contractions.  They are plain sums
    of products, not BLAS-3 calls: for products this small a threaded BLAS
    first wakes its idle thread pool, and a catalog table's validation took
    38 ms with two OpenBLAS threads against 1.6 ms with one, and 2.6 ms with
    the contractions (2-core Xeon host).
    """
    n, m = len(ks), len(etas)
    wx = _trapezoid_weights(datum.x_wrapped)
    wx[0] += wx[-1]
    wx, wv = wx[:-1], _trapezoid_weights(datum.v_nodes)[:, None]
    x = 2.0 * np.pi * np.outer(ks, datum.x_nodes)
    v = np.outer(datum.v_nodes, etas)
    fv = np.einsum("xv,ve->xe", datum.values, np.hstack((wv * np.cos(v), wv * np.sin(v))))
    h = np.einsum("kx,xe->ke", np.vstack((wx * np.cos(x), wx * np.sin(x))), fv)
    return (h[:n, :m] - h[n:, m:]) - 1j * (h[:n, m:] + h[n:, :m])


def h_limit(datum: AsymptoticDatum, v):
    """Spatial average h(v) = integral of f*(x, v) over the torus."""
    v = np.asarray(v, dtype=float)
    if datum.family == "gaussian-cosine":
        # The cosine integrates to zero over one period.
        return datum.amplitude * _gaussian(v, datum.sigma)
    xn = datum.x_nodes
    vals = eval_f_star(datum, xn[:, None], v[None, :] * np.ones((xn.size, 1)))
    ve = np.vstack([vals, vals[:1]])
    return np.trapezoid(ve, datum.x_wrapped, axis=0)


def velocity_profile(datum: AsymptoticDatum, lo, hi) -> np.ndarray:
    """sup |f*(x, u)| over the torus and the band lo <= u <= hi, elementwise over arrays lo <= hi.

    For the gaussian-cosine family that is 2 c g_sigma at the u of the band
    nearest 0.  A table is bilinear, so on a band it is at most the largest
    column maximum of |values| over the v nodes of the band and the two that
    bracket it.  lo = -inf, hi = inf gives sup |f*|.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    if datum.family == "gaussian-cosine":
        return 2.0 * datum.amplitude * _gaussian(np.clip(0.0, lo, hi), datum.sigma)
    vn = datum.v_nodes
    first = np.clip(np.searchsorted(vn, lo, side="right") - 1, 0, vn.size - 1)
    last = np.clip(np.searchsorted(vn, hi, side="left"), 0, vn.size - 1)
    # Column maxima with a 0 past the last, reduced over [first, last + 1)
    # at the even bounds (the odd ones reduce the gaps between bands).
    top = np.append(np.max(np.abs(datum.values), axis=0), 0.0)
    bounds = np.stack((first.ravel(), last.ravel() + 1), axis=-1).ravel()
    return np.maximum.reduceat(top, bounds)[::2].reshape(first.shape)


def datum_mass(datum: AsymptoticDatum) -> float:
    """Total phase-space mass of f* (the zero-frequency Fourier value)."""
    return fourier_f_star(datum, 0, 0.0).real


def velocity_cutoff(a2: float, tol: float = 1e-10) -> float:
    """Cutoff from the class tail: integral of a2/(1+v^4) beyond the cutoff equals tol.

    Uses the elementary bound int_V^inf dv/(1+v^4) <= 1/(3 V^3) on both tails.
    """
    return (2.0 * a2 / (3.0 * tol)) ** (1.0 / 3.0)


def default_vmax(datum: AsymptoticDatum, tol: float = 1e-10) -> float:
    """Velocity truncation adapted to the datum.

    The class tail rule alone can demand cutoffs far beyond where the actual
    datum has support, which would starve the velocity grid of resolution, so
    the actual decay of the family is used as a second (usually much tighter)
    bound and the smaller admissible cutoff wins.
    """
    class_cut = velocity_cutoff(datum.klass.a2, tol)
    if datum.family == "gaussian-cosine":
        # Gaussian tail of 2 c g_sigma beyond V is below tol once
        # V >= sigma * sqrt(2 log(2 c / tol)); pad by two widths.
        ratio = max(2.0 * datum.amplitude / tol, 10.0)
        family_cut = datum.sigma * (math.sqrt(2.0 * math.log(ratio)) + 2.0)
    else:
        # Largest |v| node where the table still exceeds tol somewhere in x;
        # the table edge would let the labels of later sweeps leave the table.
        speed = np.abs(datum.v_nodes)
        support = np.max(np.abs(datum.values), axis=0) > tol
        family_cut = float(np.max(speed[support] if support.any() else speed))
    return min(class_cut, family_cut)


def validate_class_membership(datum: AsymptoticDatum) -> ValidationReport:
    """Check every admissibility bound; report, never raise, on violations.

    The Fourier envelope is checked on the lattice k in [-64, 64], eta on a
    uniform grid out to where exp(-a|eta|) < 1e-14; for the gaussian-cosine
    family the exact supremum of the log-ratio is also evaluated in closed
    form, which covers the tail of the lattice.
    """
    cls = datum.klass

    if datum.family == "gaussian-cosine":
        nonnegative = datum.amplitude > 0.0
        # sup over x of f* (1 + v^4) is 2c g_sigma(v) (1 + v^4); scan v densely.
        v = np.linspace(0.0, max(10.0 * datum.sigma, 20.0), 4001)
        tail_prod = 2.0 * datum.amplitude * _gaussian(v, datum.sigma) * (1.0 + v**4)
        max_tail = float(np.max(tail_prod))
    else:
        nonnegative = bool(np.all(datum.values >= 0.0))
        prod = np.abs(datum.values) * (1.0 + datum.v_nodes[None, :] ** 4)
        max_tail = float(np.max(prod))
    pointwise_tail = max_tail <= cls.a2 * (1.0 + 1e-12)

    max_excess = -np.inf
    if datum.family == "gaussian-cosine":
        # log |fhat*(k, eta)| - log envelope = log(c m_k (1 + |k|^alpha)) + 6
        #   + a eta - sigma^2 eta^2 / 2, maximized at eta = a / sigma^2.
        peak = cls.a**2 / (2.0 * datum.sigma**2)
        for k, coeff in GAUSSIAN_COSINE_MODES.items():
            if coeff == 0.0:
                continue
            excess = (
                math.log(datum.amplitude * coeff * (1.0 + abs(k) ** cls.alpha))
                + 6.0
                + peak
            )
            max_excess = max(max_excess, excess)
        fourier_envelope = max_excess <= 1e-12
    else:
        eta_max = 14.0 * math.log(10.0) / cls.a
        etas = np.linspace(0.0, eta_max, 160)
        ks = np.arange(ENVELOPE_K_MAX + 1)
        mag = np.abs(tabulated_fourier(datum, ks, etas))
        env = ENVELOPE_PREFACTOR / (1.0 + ks[:, None] ** cls.alpha) * np.exp(-cls.a * etas)
        with np.errstate(divide="ignore"):
            max_excess = float(np.max(np.log(mag / env)))
        fourier_envelope = bool(np.all(mag <= env * (1.0 + 1e-10)))

    return ValidationReport(
        nonnegative=nonnegative,
        pointwise_tail=pointwise_tail,
        fourier_envelope=fourier_envelope,
        series_bound=cls.series_bound_holds,
        t0_admissible=cls.t0_admissible,
        theorem_regime=cls.theorem_regime,
        max_tail_product=max_tail,
        max_envelope_excess=float(max_excess),
    )
