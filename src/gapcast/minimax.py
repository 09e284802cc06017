"""Robust extrapolation under spectral uncertainty.

Instead of a single known pair of signal/noise densities, an admissible set is
given and the goal is the density pair that maximizes the optimal-estimate
error ("least favorable"), together with checks that the estimate built from
that pair is minimax: the saddle inequality, read off the class bound with a
slack relative to the maximizer's error, and the multiplier equations of
interior maximizers.

Supported admissible sets (``kind`` = ``base_k``) constrain the signal density
F or the noise density G.  The bases are ``D0`` (fixed power), ``DVU``
(pointwise band plus fixed power), ``Deps`` (contamination: (1-eps)*anchor +
eps*free density, fixed power) and ``D1delta`` (L1 ball around an anchor).
The flavor ``k`` fixes how a constraint reads the matrix density: through its
trace (1), its diagonal (2), a weighted trace tr(W F) (3) or the full matrix
(4).  Power is the node mean of that projection; pointwise inequalities hold
per value, or for flavor 4 on the smallest eigenvalue; the multipliers of the
characterization equations live on the bases I, W^T, e_k e_k^T or every E_ij.
What else a base needs sits in one table, ``_BASES``.

A class instance pairs a signal-side kind with an optional noise-side kind.
Candidate densities come from a finite-dimensional family that is inside the
class by construction; the search is a derivative-free multi-start ascent.
It scores candidates by their optimal error alone (``optimal_delta``) and
runs the full estimate, whose filter the checks read, at the maximizer.
Where every side reads one number per node (any flavor at T = 1, flavors 1
and 3 at any T) that filter also bounds the error of every class member in
closed form (``delta_upper``), and the search stops once no member can beat
the incumbent by more than rounding.  Elsewhere the bound is nan and the
saddle check fails: a sample of members could refute a saddle point, never
certify one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import (
    DataShapeError,
    InfeasibleClassError,
    InternalConsistencyError,
    InvalidParameterError,
    UnsupportedClassError,
)
from .extrapolate import (
    EstimateResult,
    FunctionalSpec,
    estimate,
    optimal_delta,
)
from .families import DensityFamily
from .operators import MissingPattern
from .spectral import SpectralModel, _eigvalsh, density_data

# ---------------------------------------------------------------------------
# Classes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassData:
    """Constraint constants for an admissible class.

    Which fields are read depends on the kind: ``power``/``noise_power`` are a
    scalar, a per-component vector, or a matrix; ``weight_f``/``weight_g`` are
    the Hermitian weights of the weighted flavors; ``lower``/``upper`` are the
    band edges (scalar, matrix, or per-node array); ``anchor_f``/``anchor_g``
    anchor the contamination and L1-ball classes; ``radius`` is the L1 radius
    (scalar, vector, or matrix by flavor).
    """

    power: float | np.ndarray | None = None
    noise_power: float | np.ndarray | None = None
    weight_f: np.ndarray | None = None
    weight_g: np.ndarray | None = None
    lower: object = None
    upper: object = None
    anchor_f: object = None
    anchor_g: object = None
    eps: float | None = None
    radius: float | np.ndarray | None = None


# ---------------------------------------------------------------------------
# Class kinds: per-flavor helpers and the per-base table
# ---------------------------------------------------------------------------


def _project(x: np.ndarray, flavor: int, weight: np.ndarray | None) -> np.ndarray:
    """The per-node quantity a flavor constrains: trace, diagonal, tr(W x), or x."""
    if flavor == 1:
        return np.einsum("nii->n", x).real
    if flavor == 2:
        return np.einsum("nkk->nk", x.real)
    if flavor == 3:
        return np.einsum("ij,nji->n", weight, x).real
    return x


def _slack(x: np.ndarray, flavor: int) -> tuple[np.ndarray, float]:
    """Per-node slack of the inequality ``x >= 0``, and the size of ``x``.

    The slack is the value itself, or the smallest eigenvalue of a flavor 4
    matrix; the size is the largest absolute value (eigenvalue) over all nodes.
    """
    values = _eigvalsh(x) if flavor == 4 else x
    slack = values.min(axis=-1) if flavor == 4 else values
    return slack, float(np.max(np.abs(values)))


def _bases(field: np.ndarray, flavor: int, weight: np.ndarray | None, mult: str):
    """Coordinates of a coupling field on the multiplier bases of a flavor.

    The bases are I, W^T, each e_k e_k^T, or each E_ij; coordinates on the
    Hermitian bases of flavors 1-3 are real.  Returns the per-node coordinates
    (n, m), the norm of each basis, the per-node norm of the part of the field
    no combination explains, the parameter names and the structure suffix.
    """
    d = field.shape[-1]
    eye = np.eye(d, dtype=complex)
    names, suffix = [f"{mult}2"], ""
    if flavor == 1:
        bases = eye[None]
    elif flavor == 2:
        bases = np.einsum("ki,kj->kij", eye, eye)
        names, suffix = [f"mult_{k + 1}" for k in range(d)], " (per component)"
    elif flavor == 3:
        bases = np.asarray(weight, dtype=complex).T[None]
    else:
        bases = np.eye(d * d, dtype=complex).reshape(d * d, d, d)
        names = [f"{mult}_{i + 1}{j + 1}" for i in range(d) for j in range(d)]
        suffix = " (per entry)"
    sq = np.sum(np.abs(bases) ** 2, axis=(1, 2))
    coords = np.einsum("ntu,jtu->nj", field, np.conj(bases))
    coords = (coords.real if flavor < 4 else coords) / sq
    rest = field - np.einsum("nj,jtu->ntu", coords, bases)
    return coords, np.sqrt(sq), np.linalg.norm(rest, axis=(1, 2)), names, suffix


_BTOL = 1e-6   # relative slack below which a pointwise constraint binds
_SIDE_FIELDS = {"F": {"power": "power", "weight": "weight_f", "anchor": "anchor_f"},
                "G": {"power": "noise_power", "weight": "weight_g", "anchor": "anchor_g"}}


class _Side:
    """One constrained density, ``which`` is F or G, labeled ``which:kind``: the
    model's ``samples``, their projection ``value`` and its ``size`` (largest
    absolute value or eigenvalue), and the class's part kept per grid by
    ``DensityClass.constants`` (``_side_constants``)."""

    def __init__(self, cls: "DensityClass", model: SpectralModel, which: str):
        vars(self).update(cls.constants(model.grid_size, model.dim)[which])
        self.samples = model.samples(which)
        self.value = self.project(self.samples)
        self.size = _slack(self.value, self.flavor)[1]

    def project(self, x: np.ndarray) -> np.ndarray:
        return _project(x, self.flavor, self.weight)

    @cached_property
    def violations(self) -> dict[str, float]:
        """How far the density violates each constraint of its kind; all >= 0."""
        spec, val, out = self.spec, self.value, {}
        if "power" in spec.fields:
            out["power"] = float(np.max(np.abs(val.mean(axis=0) - np.asarray(self.power))))
        for key, x in zip(spec.names, spec.bounds(self) if spec.bounds else ()):
            out[key] = float(max(-np.min(_slack(x, self.flavor)[0]), 0.0))
        if "radius" in spec.fields:
            dist = np.abs(self.project(self.samples - self.anchor)).mean(axis=0)
            out["distance"] = max(float(np.max(dist - np.asarray(self.data.radius))), 0.0)
        return out


def _edge_bounds(side: _Side):
    """``value >= lo`` and, for a band, ``value <= hi``; the reference is hi or value."""
    lo, hi = side.edges
    if hi is None:
        return side.value - lo, None, side.value
    return side.value - lo, hi - side.value, hi


def _side_constants(cls: "DensityClass", which: str, n: int, d: int) -> dict:
    """The class's part of a ``_Side``: its kind and data, the ``anchor``
    samples, and the ``edges`` its pointwise bounds measure from, the projected
    band (DVU) or the kept share of the anchor and no upper edge (Deps)."""
    kind, names, data = dict(cls.sides)[which], _SIDE_FIELDS[which], cls.data
    flavor, weight = int(kind[-1]), getattr(data, names["weight"])
    raw = getattr(data, names["anchor"])
    if flavor == 3 and (np.shape(weight) != (d, d) or np.any(weight != np.conj(weight).T)
                        or np.linalg.eigvalsh(weight).min() <= 0):
        raise DataShapeError(f"data.{names['weight']}", "expected a Hermitian positive definite "
                             f"{d}x{d} matrix, got {np.asarray(weight).tolist()}")
    side = {"which": which, "label": f"{which}:{kind}", "kind": kind,
            "spec": _BASES[kind[:-2]], "flavor": flavor, "data": data,
            "power": getattr(data, names["power"]), "weight": weight, "edges": None,
            "anchor": None if raw is None else density_data(raw, n, d, f"data.{names['anchor']}")}
    if kind.startswith("DVU"):
        lower = 0.0 if data.lower is None else data.lower
        side["edges"] = tuple(_project(density_data(value, n, d, f"data.{key}"), flavor, weight)
                              for key, value in (("lower", lower), ("upper", data.upper)))
    elif kind.startswith("Deps"):
        side["edges"] = ((1.0 - data.eps) * _project(side["anchor"], flavor, weight), None)
    return side


# First-order LPs of the bases whose sides read one number q per node: the
# largest mean(g * q) over the projected densities q of the class, for a
# gradient g >= 0 per node.


def _scalar(value) -> float:
    """A constant of a side that reads one number per node: its power and radius
    have one effective value."""
    return float(np.min(np.real(value)))


def _power_lp(side: _Side, g: np.ndarray) -> float:
    """D0: all the power at the node of largest gradient."""
    return _scalar(side.power) * float(g.max())


def _band_lp(side: _Side, g: np.ndarray) -> float:
    """DVU: the lower bound everywhere, then the remaining power poured into the
    nodes of decreasing gradient up to the upper bound (a fractional knapsack)."""
    lo, hi = (x.reshape(-1).real for x in side.edges)   # the node values of a scalar side
    order = np.argsort(-g, kind="stable")
    room = (hi - lo)[order]
    left = g.size * _scalar(side.power) - lo.sum()
    fill = np.clip(left - (np.cumsum(room) - room), 0.0, room)
    return float(g @ lo + g[order] @ fill) / g.size


def _mixture_lp(side: _Side, g: np.ndarray) -> float:
    """Deps: the kept share of the anchor, the free power at the largest gradient."""
    kept = (1.0 - side.data.eps) * side.project(side.anchor).reshape(-1).real
    return float(np.mean(g * kept) + (_scalar(side.power) - kept.mean()) * g.max())


def _ball_lp(side: _Side, g: np.ndarray) -> float:
    """D1delta: the anchor, plus the radius at the node of largest gradient."""
    return float(np.mean(g * side.project(side.anchor).reshape(-1).real)
                 + _scalar(side.data.radius) * g.max())


@dataclass(frozen=True)
class _Base:
    """What a base of admissible classes reads and how its multiplier is fit.

    ``fields`` are the ClassData entries a kind requires (``power``, ``anchor``
    and ``weight`` read per side).  ``bounds(side)`` gives its pointwise
    inequalities ``x >= 0``, named ``names``, as a lower and an upper one (None
    when absent) and the reference whose size scales their binding test;
    ``fallback`` is the multiplier when no node is free.  ``lp(side, g)`` is
    the closed-form first-order LP of a side that reads one number per node.
    """

    fields: tuple[str, ...]
    mult: str
    lp: Callable
    bounds: Callable | None = None
    names: tuple[str, ...] = ()
    fallback: Callable | None = None


_BASES = {
    "D0": _Base(("power",), "alpha", _power_lp),
    "Deps": _Base(("power", "anchor", "eps"), "alpha", _mixture_lp, _edge_bounds,
                  ("mixture",), np.max),
    "DVU": _Base(("power", "upper"), "beta", _band_lp, _edge_bounds, ("lower", "upper"),
                 np.median),
    "D1delta": _Base(("anchor", "radius"), "beta", _ball_lp),
}
F_KINDS = tuple(f"{base}_{k}" for base in _BASES for k in range(1, 5))
G_KINDS = tuple(kind for kind in F_KINDS if kind[:-2] in ("DVU", "D1delta"))


def _binding(side: _Side):
    """Nodes where the lower and the upper pointwise constraint bind."""
    lower, upper, ref = side.spec.bounds(side) if side.spec.bounds else (None, None, side.value)
    slack, size = _slack(ref, side.flavor)   # binding is relative to the reference's size
    return tuple(np.zeros(slack.shape, dtype=bool) if x is None
                 else _slack(x, side.flavor)[0] <= _BTOL * size for x in (lower, upper))


# the ClassData constants no density reader sees; the densities are checked
# by ``density_data``
_CONSTANT_FIELDS = ("power", "noise_power", "weight_f", "weight_g", "eps", "radius")


@dataclass(frozen=True)
class DensityClass:
    """An admissible set: signal-side kind, optional noise-side kind, family."""

    kind: str
    data: ClassData
    family: DensityFamily
    g_kind: str | None = None
    _constants: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _last: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in F_KINDS:
            raise InvalidParameterError(f"unknown class kind {self.kind!r}")
        if self.g_kind is not None and self.g_kind not in G_KINDS:
            raise InvalidParameterError(f"unknown noise-side kind {self.g_kind!r}")
        for which, kind in self.sides:
            needed = _BASES[kind[:-2]].fields + (("weight",) if kind.endswith("3") else ())
            names = (_SIDE_FIELDS[which].get(key, key) for key in needed)
            missing = [f"data.{name}" for name in names if getattr(self.data, name) is None]
            if missing:
                raise InvalidParameterError(f"{kind} requires " + ", ".join(missing))
        for name in _CONSTANT_FIELDS:
            value = getattr(self.data, name)
            if value is not None and not np.all(np.isfinite(np.asarray(value, dtype=complex))):
                raise DataShapeError(f"data.{name}", f"expected finite values, got {value!r}")

    @property
    def sides(self) -> tuple[tuple[str, str], ...]:
        """The constrained densities, as (which, kind): F, then G if ``g_kind`` is set."""
        return (("F", self.kind),) + ((("G", self.g_kind),) if self.g_kind else ())

    def constants(self, n: int, d: int) -> dict:
        """Per side, the class's part of a ``_Side`` on n nodes of dimension d,
        computed once per grid; data the grid cannot read raises DataShapeError."""
        if (n, d) not in self._constants:
            self._constants[n, d] = {which: _side_constants(self, which, n, d)
                                     for which, _ in self.sides}
        return self._constants[n, d]


def _sides_at(cls: DensityClass, model: SpectralModel) -> tuple[_Side, ...]:
    """One ``_Side`` per side of the class at ``model``, F first; the last
    model's are kept, so a membership check builds them once."""
    if cls._last.get("model") is not model:
        if model.is_noiseless and "G" in dict(cls.sides):
            raise InvalidParameterError(
                "class constrains the noise density but the model has none")
        cls._last.update(model=model, sides=tuple(_Side(cls, model, w) for w, _ in cls.sides))
    return cls._last["sides"]


def class_constraint_report(cls: DensityClass, model: SpectralModel) -> dict[str, float]:
    """Constraint violations of a candidate model, keyed ``which:kind:constraint``
    (``F:DVU_1:upper``), so the two sides of a class never share a key.

    All entries are nonnegative; an in-class model reports values at numerical
    noise level.
    """
    return {f"{side.label}:{key}": value for side in _sides_at(cls, model)
            for key, value in side.violations.items()}


# ---------------------------------------------------------------------------
# Search for the least favorable member
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OptConfig:
    """Budgeted multi-start coordinate-ascent settings; ``seed`` nonnegative."""

    starts: int = 16
    budget: int = 2000
    seed: int = 0

    def __post_init__(self):
        if self.starts < 1 or self.budget < 1:
            raise InvalidParameterError("starts and budget must be positive")
        if self.seed < 0:
            raise InvalidParameterError(f"seed must be nonnegative, got {self.seed}")


@dataclass(frozen=True)
class Evaluation:
    theta: tuple
    delta: float


@dataclass
class SaddleReport:
    reference: float
    max_violation: float
    all_pass: bool


@dataclass
class ResidualEntry:
    """One characterization equation: fitted multipliers and leftover misfit."""

    name: str
    structure: str
    params: dict
    residual: float
    scale: float
    floor: float

    @property
    def relative(self) -> float:
        """Residual relative to ``scale``, the size of what the entry fits.

        Below ``floor``, ``_FLOOR`` of the entry's own unit (the zero filter's
        field for an equation, the side's size for a distance), the ratio
        takes the floor instead: a field that small belongs to an
        identically-zero multiplier (for example a silent filter on the noise
        side), whose equation holds trivially, and dividing by it would
        amplify rounding dust.  Only a zero functional leaves both zero, and
        a zero residual with them.
        """
        bound = max(self.scale, self.floor)
        return self.residual / bound if bound else 0.0


@dataclass
class ResidualReport:
    entries: list[ResidualEntry]

    @property
    def max_relative(self) -> float:
        return max((e.relative for e in self.entries), default=0.0)


@dataclass
class LeastFavorableResult:
    """Maximizer of the optimal-estimate error over the family.

    ``delta_upper`` bounds the error of every member of the class (nan where
    the closed form does not apply), ``fw_gap`` is ``delta_upper -
    delta_star``, and ``stopped`` says why the search ended: ``certified``
    (the gap met ``_GAP_TOL``), ``converged`` or ``budget``.
    """

    theta_star: np.ndarray
    model_star: SpectralModel
    delta_star: float
    estimate_star: EstimateResult
    evaluations: list[Evaluation]
    boundary: bool
    cls: DensityClass
    pattern: MissingPattern
    functional: FunctionalSpec
    delta_upper: float
    stopped: str

    @property
    def fw_gap(self) -> float:
        return self.delta_upper - self.delta_star


# largest class-constraint violation of a family point that still counts as in
# class, relative to the size of the side the constraint reads
_CONSTRAINT_TOL = 1e-8
# duality gap, relative to the incumbent's error, at which the search stops
_GAP_TOL = 1e-12
# coordinate-ascent steps, as fractions of each parameter's range: a start
# halves its step from _INITIAL_STEP until it falls below _MIN_STEP
_INITIAL_STEP = 0.25
_MIN_STEP = 1e-6
# the saddle check's slack, relative to the maximizer's error
_SADDLE_RTOL = 1e-6


def _gap_met(upper: float, delta: float) -> bool:
    return upper - delta <= _GAP_TOL * delta


def _filter_row(est: EstimateResult, functional: FunctionalSpec, which: str) -> np.ndarray:
    """Per node, the row r of the fixed filter whose error a density D adds as
    r^T D conj(r): A - h0 on the signal side F, h0 itself on the noise side G."""
    return functional.a_on_grid(est.lam.size) - est.h_grid if which == "F" else est.h_grid


def _covered(cls: DensityClass, model: SpectralModel) -> bool:
    """Whether ``delta_upper`` has a closed form for the class at this model.

    It has where signal and noise are uncorrelated, a class sits on every
    density the model has, and each side reads one number per node: any
    flavor at T = 1, flavors 1 and 3 (a trace or a weighted trace) at any T.
    """
    return model.is_uncorrelated and (model.is_noiseless or cls.g_kind is not None) \
        and all(model.dim == 1 or kind[-1] in "13" for _, kind in cls.sides)


def _delta_upper(cls: DensityClass, model: SpectralModel, est: EstimateResult,
                 functional: FunctionalSpec) -> float:
    """Largest error the filter of ``est`` makes over the class; nan if not covered.

    The error of a fixed filter is linear in the densities, and the optimal
    error is its minimum over filters, so no class member has an optimal error
    above this bound.  A side that reads q = tr(W D) of its density D adds at
    most q g per node, with g = r^T W^{-1} conj(r) (W = I but for flavor 3),
    when D lies along W^{-1} conj(r); each side is then the first-order LP of
    its base on g.
    """
    if not _covered(cls, model):
        return math.nan
    upper = 0.0
    for side in _sides_at(cls, model):
        r = _filter_row(est, functional, side.which)
        along = np.conj(r) if side.flavor != 3 else np.conj(r) @ np.linalg.inv(side.weight).T
        upper += side.spec.lp(side, np.einsum("nt,nt->n", r, along).real)
    return upper


def _check_in_class(cls: DensityClass, model: SpectralModel):
    """Refuse a model that violates a constraint by more than ``_CONSTRAINT_TOL``
    times the ``size`` of its side, so membership does not depend on units.
    The worst violation is the one furthest over its tolerance, a NaN first."""
    report = class_constraint_report(cls, model)
    tol = {f"{side.label}:{key}": _CONSTRAINT_TOL * side.size
           for side in _sides_at(cls, model) for key in side.violations}
    name = max(report, key=lambda k: math.inf if math.isnan(report[k]) else report[k] - tol[k])
    if not report[name] <= tol[name]:
        raise InfeasibleClassError(
            f"family point violates {name} by {report[name]:.3e} (tol {tol[name]:.1e})")


def maximize_delta(cls: DensityClass, pattern: MissingPattern,
                   functional: FunctionalSpec, opt: OptConfig = OptConfig(),
                   K: int | None = None, theta=None) -> LeastFavorableResult:
    """Search the family for the density pair with the largest optimal error.

    Multi-start coordinate ascent with step halving; every evaluation first
    verifies class membership, then computes the optimal error by the
    operator route (``optimal_delta`` at truncation ``K``, as in
    ``estimate``).  The returned maximizer is the best point seen anywhere in
    the search; the full estimation pipeline runs on it and must reproduce
    the searched error bit for bit.  The complete evaluation trace is kept
    for audit.  The starts are the box's centre, then draws from ``opt.seed``
    each taken when reached, so ``opt.budget``, not ``opt.starts``, bounds the work.

    Where the class has a closed-form bound (``_covered``), the incumbent is
    certified after the first evaluation and at the end of every start, one
    estimate per new incumbent; the search stops once its duality gap is at
    most ``_GAP_TOL`` times its error, and the last certificate's estimate is
    the maximizer's.  ``opt.budget`` is then an upper bound.

    A given ``theta``, one finite value per family parameter, is the only
    start and the budget is one evaluation: the search at that point, which
    stops ``certified`` when its gap meets the rule and ``budget`` otherwise.
    """
    fam = cls.family
    if fam.dim > 8:
        raise InvalidParameterError("family dimension must be at most 8")
    if theta is None:   # the centre, then each further start drawn when it is reached
        rng = np.random.default_rng(opt.seed)
        starts = (fam.sample(rng) if i else fam.center for i in range(opt.starts))
        budget = opt.budget
    else:
        starts, budget = [fam.point(theta)], 1
    width = np.where(fam.upper > fam.lower, fam.upper - fam.lower, 1.0)

    scores: dict[tuple, float] = {}   # each evaluated point's error, in evaluation order
    best: dict = {"key": None, "theta": None, "delta": -np.inf}
    cert: dict = {"key": None}

    def certificate() -> dict:
        """The estimate at the incumbent and its bound, once per incumbent."""
        if cert["key"] != best["key"]:
            est = estimate(best["model"], pattern, functional, K=K)
            if est.delta != best["delta"]:
                raise InternalConsistencyError(
                    f"estimate at the maximizer gives delta {est.delta!r}, "
                    f"the search scored {best['delta']!r}")
            cert.update(key=best["key"], est=est,
                        upper=_delta_upper(cls, best["model"], est, functional))
        return cert

    def certified() -> bool:
        """Whether no class member can beat the incumbent; True ends the search."""
        return _covered(cls, best["model"]) and _gap_met(certificate()["upper"], best["delta"])

    def evaluate(theta: np.ndarray) -> float:
        key = tuple(np.round(theta, 12))
        if key in scores:
            return scores[key]
        if len(scores) >= budget:
            return -np.inf
        model = fam.build(theta)
        _check_in_class(cls, model)
        val = optimal_delta(model, pattern, functional, K=K)
        scores[key] = val
        if val > best["delta"]:
            best.update(key=key, theta=np.asarray(theta, dtype=float), delta=val,
                        model=model)
        return val

    done = False
    for theta0 in starts:
        if len(scores) >= budget:
            break
        theta = fam.clip(theta0)
        evaluate(theta)
        if len(scores) == 1 and certified():
            done = True
            break
        step = _INITIAL_STEP
        while step >= _MIN_STEP and len(scores) < budget:
            moved = False
            for i in range(fam.dim):
                for sign in (+1.0, -1.0):
                    cand = theta.copy()
                    cand[i] += sign * step * width[i]
                    cand = fam.clip(cand)
                    # np.allclose(cand, theta) written out, at a fraction of
                    # its cost; the same test for the finite, clipped theta
                    if np.all(np.abs(cand - theta) <= 1e-8 + 1e-5 * np.abs(theta)):
                        continue
                    if evaluate(cand) > scores[tuple(np.round(theta, 12))]:
                        theta = cand
                        moved = True
                        break
            if not moved:
                step *= 0.5
        if certified():
            done = True
            break
        if np.all(fam.lower == fam.upper):   # a box of one point: every start is this one
            break

    if best["theta"] is None:
        raise InfeasibleClassError("no feasible family point was evaluated")
    final, theta = certificate(), best["theta"]
    edge = (np.abs(theta - fam.lower) <= 1e-9 * width) \
        | (np.abs(theta - fam.upper) <= 1e-9 * width)
    return LeastFavorableResult(
        theta_star=theta, model_star=best["model"], delta_star=final["est"].delta,
        estimate_star=final["est"], evaluations=[Evaluation(*kv) for kv in scores.items()],
        boundary=bool(np.any(edge)), cls=cls, pattern=pattern, functional=functional,
        delta_upper=final["upper"],
        stopped="certified" if done else "budget" if len(scores) >= budget else "converged")


def evaluate_candidate(cls: DensityClass, theta, pattern: MissingPattern,
                       functional: FunctionalSpec,
                       K: int | None = None) -> LeastFavorableResult:
    """A fixed family point as a search result: ``maximize_delta`` at that point.

    Negative controls use it: off the maximizer the saddle check fails, the
    residuals are large and so is the duality gap.
    """
    return maximize_delta(cls, pattern, functional, K=K, theta=theta)


def verify_saddle_point(result: LeastFavorableResult) -> SaddleReport:
    """Check that the fixed minimax filter does not do worse inside the class.

    Holds the spectral characteristic of the maximizer fixed; its error at any
    class member must stay below ``result.delta_star``, the error at the
    maximizer, up to ``_SADDLE_RTOL`` times that error.  ``result.delta_upper``
    is the class's worst member and decides alone: the violation is
    ``max(fw_gap, 0)``.  A class without that bound has a nan gap, which stays
    nan and does not pass.  Failures are recorded, not raised.
    """
    ref, gap = result.delta_star, result.fw_gap
    return SaddleReport(reference=ref, max_violation=gap if math.isnan(gap) else max(gap, 0.0),
                        all_pass=gap <= _SADDLE_RTOL * ref)


# ---------------------------------------------------------------------------
# Characterization-equation residuals
# ---------------------------------------------------------------------------


def _coupling_field(est: EstimateResult, functional: FunctionalSpec, side: _Side) -> np.ndarray:
    """Pointwise rank-one field that the multiplier structure must match.

    The error of a fixed filter is linear in the densities, with matrix-valued
    gradient conj(r) r^T at each node (``_filter_row``).  At an interior
    least-favorable pair this gradient equals the class-specific multiplier
    structure.
    """
    r = _filter_row(est, functional, side.which)
    return np.einsum("nt,nu->ntu", np.conj(r), r)


def _misfit(dev: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Per-node misfit of deviations (n, k, k) from a fitted multiplier.

    Free nodes count the whole deviation.  Where only the lower (upper) bound
    binds, its pointwise slack multiplier absorbs the negative (positive)
    eigenvalue part; where both bind, anything goes.
    """
    w = _eigvalsh(0.5 * (dev + np.conj(np.swapaxes(dev, -1, -2))))
    part = np.where(lower[:, None], np.maximum(w, 0.0), np.maximum(-w, 0.0))
    return np.where(~(lower | upper), np.linalg.norm(dev, axis=(1, 2)),
                    np.where(lower & upper, 0.0, np.linalg.norm(part, axis=-1)))


def _fit(c: np.ndarray, lower: np.ndarray, upper: np.ndarray, fallback: Callable):
    """Nonnegative multiplier for the coordinates ``c`` and its misfit per node.

    Free nodes set it; ``fallback(c)`` does when no node is free.
    """
    free = ~(lower | upper)
    m = max(float(c[free].mean() if free.any() else fallback(c)), 0.0)
    return m, _misfit((c - m)[:, None, None], lower, upper)


def _phase_fit(c: np.ndarray, diff: np.ndarray, span: float):
    """L1-ball multiplier: ``c = m * phase(diff)`` off the anchor, ``|c| <= m`` on it."""
    active = np.abs(diff) > _BTOL * span
    phase = np.where(active, diff / np.where(active, np.abs(diff), 1.0), 0.0)
    m = max(float(np.mean((c * np.conj(phase))[active].real)), 0.0) if active.any() \
        else float(np.abs(c).max())
    return m, np.where(active, np.abs(c - m * phase), np.maximum(np.abs(c) - m, 0.0))


def _rank_one_fit(mean_field: np.ndarray):
    sym = 0.5 * (mean_field + np.conj(mean_field.T))
    w, v = np.linalg.eigh(sym)
    lead = max(float(w[-1]), 0.0)
    vec = v[:, -1] * math.sqrt(lead)
    return np.outer(vec, np.conj(vec)), vec


def _l2(values: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.abs(values) ** 2)))


_EQUATIONS = {"F": "signal-side equation", "G": "noise-side equation"}
# fraction of its own unit below which a field, a distance to the anchor or a
# radius counts as zero
_FLOOR = 1e-12


def _side_residuals(side: _Side, field: np.ndarray, unit: float) -> list[ResidualEntry]:
    """Fit the multiplier structure of one equation and report the misfit.

    ``field`` is the whitened rank-one field of the density ``side``
    constrains, and ``unit`` the size of the zero filter's field; the
    pointwise multipliers are supported where that density's constraints
    bind.
    """
    n, name = field.shape[0], _EQUATIONS[side.which]
    spec, flavor, base = side.spec, side.flavor, side.kind[:-2]
    scale, floor = _l2(np.linalg.norm(field, axis=(1, 2))), _FLOOR * unit
    ball, (lower, upper) = "radius" in spec.fields, _binding(side)

    if flavor == 4 and not ball:
        free = ~(lower | upper)
        fitted, vec = _rank_one_fit((field[free] if free.any() else field).mean(axis=0))
        viol = _misfit(field - fitted, lower, upper)
        label = "(rank one + matrix slack)" if spec.bounds else "(constant rank one)"
        return [ResidualEntry(
            name=name, structure=f"{base} flavor 4 {label}",
            params={f"{spec.mult}_vec": vec.tolist()}, residual=_l2(viol), scale=scale,
            floor=floor)]

    coords, norms, aniso, names, suffix = _bases(field, flavor, side.weight, spec.mult)
    if ball:
        diff = side.project(side.samples - side.anchor)
        span = max(float(np.max(np.abs(diff))), _FLOOR * side.size)
        fits = [_phase_fit(c, dd, span)
                for c, dd in zip(coords.T, diff.reshape(n, -1).T)]
    else:
        fits = [_fit(c, lo, hi, spec.fallback) for c, lo, hi in
                zip(coords.T, lower.reshape(n, -1).T, upper.reshape(n, -1).T)]
    total = aniso ** 2 + sum((viol * norm) ** 2 for (_, viol), norm in zip(fits, norms))
    entries = [ResidualEntry(
        name=name, structure=f"{base} flavor {flavor}{suffix}",
        params={key: m for key, (m, _) in zip(names, fits)},
        residual=_l2(np.sqrt(total)), scale=scale, floor=floor)]

    if ball:
        dist = np.abs(diff).mean(axis=0)
        rad = np.broadcast_to(np.asarray(side.data.radius, dtype=float), np.shape(dist))
        entries.append(ResidualEntry(
            name=f"{name} distance", structure="L1 ball saturation",
            params={"distance": dist.tolist()},
            residual=float(np.max(np.abs(dist - rad))),
            scale=float(rad.max()), floor=_FLOOR * side.size))
    return entries


def check_residual_support(cls: DensityClass, model: SpectralModel) -> None:
    """Refuse (UnsupportedClassError) a class whose residuals cannot be fitted: they
    need T <= 2, a class on every density of the model, a pair D0 x DVU or Deps x
    D1delta of one flavor, and uncorrelated signal and noise.  None depends on
    the family's point, so the search is preceded by asking them of its centre."""
    if model.dim > 2:
        raise UnsupportedClassError(
            "characterization residuals are implemented for dimension <= 2")
    if cls.g_kind is None and not model.is_noiseless:
        raise UnsupportedClassError(
            "a noisy model needs both a signal-side and a noise-side class")
    if cls.g_kind and ((cls.kind[:-2], cls.g_kind[:-2]) not in {("D0", "DVU"), ("Deps", "D1delta")}
                       or cls.kind[-1] != cls.g_kind[-1]):
        raise UnsupportedClassError(f"unsupported class pair ({cls.kind}, {cls.g_kind})")
    if not model.is_uncorrelated and not model.is_noiseless:
        raise UnsupportedClassError(
            "characterization residuals require uncorrelated signal and noise")


def characterization_residuals(result: LeastFavorableResult) -> ResidualReport:
    """Fit the Lagrange-multiplier structure of each optimality equation.

    At an interior least-favorable pair of ``result.cls`` the whitened
    coupling field collapses to the class-specific multiplier shape (constant,
    diagonal, weighted, rank-one, possibly with signed pointwise slack); what
    least squares cannot explain is returned as the residual of that
    equation, relative to the field's own size.
    """
    cls, model = result.cls, result.model_star
    check_residual_support(cls, model)
    est, fun = result.estimate_star, result.functional
    # |A|^2, the size of the zero filter's field
    unit = _l2(np.sum(np.abs(fun.a_on_grid(est.lam.size)) ** 2, axis=1))
    return ResidualReport(entries=[
        entry for side in _sides_at(cls, model)
        for entry in _side_residuals(side, _coupling_field(est, fun, side), unit)])
