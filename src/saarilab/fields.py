"""Callable observables and vector fields with exact jet providers.

The rest of the package talks to scalar observables and vector fields through
a small duck-typed protocol:

* an observable is callable, ``F(z) -> float``, and brings its exact jets:
  ``jet(z, degree)``; ``grad(z)`` supplies an independent gradient when
  available;
* a vector field is callable, ``X(z) -> ndarray``, and brings its exact
  component jets: ``jet_field(z, degree)``.

A handle may instead build its jets as plain coefficient arrays, for one point
or for a group of points at once: ``jet_coeffs(points, degree)`` for an
observable, ``field_coeffs(points, degree)`` for a field.  ``points`` is one
point of shape ``(dim,)``, giving arrays of shape ``(size,)``, or a
sample-minor stack ``(dim, S)``, giving ``(size, S)`` with one column per
point, the layout of :func:`~saarilab.jet_algebra._mul` and the tower
chain.  ``field_coeffs`` gives one ``(mask, coeffs)`` pair per component:
``mask=None`` for the whole table, or the bitmask of the variables the
component uses and ``coeffs`` on that mask's table
(:class:`~saarilab.jet_algebra._JetSpace`).  ``jet`` and ``jet_field`` are
their one-point case on whole tables, and validate one jet per result.
A stack runs the one-point arithmetic in the one-point order on every
column: sums and products are elementwise, the Taylor shift sums each bin
in triple order (:func:`~saarilab.jet_algebra._shift`), and the powers and
reductions whose kernel numpy picks by layout run per column in the
one-point layout.  So each column is bitwise equal to that point's jet.

:func:`observable_coeffs` and :func:`field_coeffs` take any handle: one
without ``jet_coeffs`` / ``field_coeffs`` gives its jets one point at a
time, through ``jet`` / ``jet_field``, checked and stacked, and one with
neither is a :class:`ConfigError`.  Everything here is polynomial, so jets
are exact re-expansions (a Taylor shift), not estimates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CombinabilityError,
    ConfigError,
    DegreeDeficitError,
    _check_count,
)
from .jet_algebra import (
    JetField,
    TruncatedJet,
    jet_eval,
    table_size,
    _pad,
    _shift,
    _space,
    _stack,
)

__all__ = [
    "PolynomialObservable",
    "PolynomialField",
    "SumObservable",
    "SumField",
    "coordinate_observable",
    "oscillator_field",
    "oscillator_energy",
    "SeparableOscillator",
    "linear1d_field",
    "random_polynomial_observable",
    "random_polynomial_field",
    "stream_rng",
    "observable_coeffs",
    "field_coeffs",
    "observable_grads",
]


def stream_rng(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for one named sub-stream of a global seed.

    Streams are derived counter-style from ``(seed, key...)``, so draws do not
    depend on the order in which streams are consumed.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.PCG64(ss))


@dataclass(frozen=True)
class PolynomialObservable:
    """Scalar polynomial stored as its jet about the origin."""

    poly: TruncatedJet

    def __post_init__(self):
        if np.any(self.poly.base_point != 0.0):
            raise ValueError("polynomial observables are stored about the origin")

    @property
    def dim(self) -> int:
        return self.poly.dim

    @property
    def degree(self) -> int:
        return self.poly.degree

    @property
    def coeffs(self) -> np.ndarray:
        return self.poly.coeffs

    def __call__(self, z) -> float:
        return jet_eval(self.poly, z)

    def jet(self, z, degree: int) -> TruncatedJet:
        return _jet_at(self, z, degree)

    def jet_coeffs(self, points, degree: int) -> np.ndarray:
        """The Taylor shift of the stored table to ``points`` (see the
        module protocol), truncated or padded to ``degree``.

        Below the polynomial's degree only the rows up to ``degree`` are
        shifted, bitwise the truncated whole shift; above it the padded
        zero rows add nothing to a shift of the padded table, whose triples
        are prefix-stable.  The table is stored about the origin, so
        ``points`` are the offsets themselves.
        """
        sp = _space(self.dim, self.degree)
        out = _shift(sp, self.coeffs, points,
                     table_size(self.dim, min(degree, self.degree)))
        return _pad(out, table_size(self.dim, degree)) if degree > self.degree else out

    def grad(self, z) -> np.ndarray:
        return observable_grads(self, np.asarray(z, float))

    def to_json_dict(self) -> dict:
        return self.poly.to_json_dict()

    @staticmethod
    def from_coeffs(dim: int, degree: int, entries) -> "PolynomialObservable":
        return PolynomialObservable(
            TruncatedJet.from_coeffs(dim, degree, None, entries)
        )

    @staticmethod
    def from_json_dict(d: dict) -> "PolynomialObservable":
        return PolynomialObservable(TruncatedJet.from_json_dict(d))


@dataclass(frozen=True)
class PolynomialField:
    """Vector field with polynomial components (exact jets everywhere)."""

    components: tuple[PolynomialObservable, ...]

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps or {c.dim for c in comps} != {len(comps)}:
            raise ValueError("component count must match each component's "
                             "variable count")
        object.__setattr__(self, "components", comps)

    @property
    def dim(self) -> int:
        return len(self.components)

    def __call__(self, z) -> np.ndarray:
        return np.array([c(z) for c in self.components])

    def jet_field(self, z, degree: int) -> JetField:
        return _jet_field_at(self, z, degree)

    def field_coeffs(self, points, degree: int) -> list[tuple]:
        return [(None, c.jet_coeffs(points, degree)) for c in self.components]

    def to_json_dict(self) -> dict:
        return {"dim": self.dim,
                "components": [c.to_json_dict() for c in self.components]}


class _Sum:
    """Pointwise sum of handles; the parts that have a ``dim`` share it,
    and the sum has it too."""

    def __init__(self, *parts):
        what = type(self).__name__
        if not parts:
            raise ValueError(f"{what} needs at least one part")
        dims = sorted({getattr(p, "dim", None) for p in parts} - {None})
        if len(dims) > 1:
            raise CombinabilityError(
                f"{what} parts have differing dims {dims}")
        self.parts = tuple(parts)
        if dims:
            self.dim = dims[0]


class SumObservable(_Sum):
    """Pointwise sum of observable handles, each contributing its own jets."""

    def __call__(self, z) -> float:
        return float(sum(p(z) for p in self.parts))

    def jet(self, z, degree: int) -> TruncatedJet:
        return _jet_at(self, z, degree)

    def jet_coeffs(self, points, degree: int) -> np.ndarray:
        """The parts' coefficients, summed in part order."""
        out = None
        for p in self.parts:
            c = observable_coeffs(p, points, degree)
            out = c if out is None else out + c
        return out

    def grad(self, z) -> np.ndarray:
        return observable_grads(self, np.asarray(z, float))


class SumField(_Sum):
    """Pointwise sum of vector-field handles."""

    def __call__(self, z) -> np.ndarray:
        return np.sum([np.asarray(p(z), float) for p in self.parts], axis=0)

    def jet_field(self, z, degree: int) -> JetField:
        return _jet_field_at(self, z, degree)

    def field_coeffs(self, points, degree: int) -> list[tuple]:
        """The parts' whole-table components, summed in part order."""
        sp = _space(len(points), degree)
        out = None
        for p in self.parts:
            comps = [_expand(sp, *pair) for pair in field_coeffs(p, points, degree)]
            out = comps if out is None else [a + b for a, b in zip(out, comps)]
        return [(None, c) for c in out]


def _jet_at(observable, z, degree: int) -> TruncatedJet:
    """``observable.jet(z, degree)`` from its ``jet_coeffs``: one validated
    jet."""
    z = np.asarray(z, float)
    return TruncatedJet(z.size, degree, z, observable_coeffs(observable, z, degree))


def _jet_field_at(field, z, degree: int) -> JetField:
    """``field.jet_field(z, degree)`` from its ``field_coeffs``: one
    validated jet per component, on the whole table."""
    z = np.asarray(z, float)
    return JetField(tuple(TruncatedJet(z.size, degree, z,
                                       _expand(_space(z.size, degree), *pair))
                          for pair in field_coeffs(field, z, degree)))


def _expand(sp, mask: int | None, c: np.ndarray, fill: float = 0.0) -> np.ndarray:
    """A ``(mask, coeffs)`` component on ``sp``'s table, ``fill`` off the mask."""
    if mask is None:
        return c
    out = np.full((sp.size,) + c.shape[1:], fill)
    out[sp.rows_within(mask)] = c
    return out


def _check_handle(handle, dim: int | None, bulk: str, one: str) -> None:
    """:class:`ConfigError` unless ``handle`` has ``bulk`` or ``one``, its
    kind's jet methods (see the module protocol), and
    :class:`CombinabilityError` unless its ``dim``, if it has one, is
    ``dim``."""
    if not (hasattr(handle, bulk) or hasattr(handle, one)):
        raise ConfigError(f"a handle has neither {bulk} nor {one}: handles "
                          "must supply exact jets")
    own = getattr(handle, "dim", None)
    if own is not None and own != dim:
        raise CombinabilityError(
            f"handle of dim {own} evaluated at points of dim {dim}")


def _check_handles(F, X, dim: int | None) -> None:
    """Before any field value, table or jet: :func:`_check_handle` on the
    observable ``F`` and the field ``X``."""
    _check_handle(F, dim, "jet_coeffs", "jet")
    _check_handle(X, dim, "field_coeffs", "jet_field")


def _per_point(points: np.ndarray, degree: int, jets_at) -> list[np.ndarray]:
    """The jets ``jets_at(z)`` returns at each point, checked against the
    point and the degree, truncated to it and stacked sample-minor, one
    array per jet of the sequence."""
    size = table_size(len(points), degree)
    cols = []
    for z in ([points] if points.ndim == 1 else list(points.T.copy())):
        col = []
        for jet in jets_at(z):
            if jet.dim != z.size or not np.array_equal(jet.base_point, z):
                raise CombinabilityError("a handle's jet is not expanded at its point")
            if jet.degree < degree:
                raise DegreeDeficitError(
                    f"a handle's jet has degree {jet.degree} < required {degree}")
            col.append(jet.coeffs[:size])
        cols.append(col)
    return [_stack(list(arrays)) for arrays in zip(*cols)]


def observable_coeffs(F, points, degree: int) -> np.ndarray:
    """``F``'s jet coefficients at one point or a stack of points (see the
    module protocol): its ``jet_coeffs``, else per point its ``jet``."""
    _check_handle(F, len(points), "jet_coeffs", "jet")
    if hasattr(F, "jet_coeffs"):
        return F.jet_coeffs(points, degree)
    [out] = _per_point(points, degree, lambda z: (F.jet(z, degree),))
    return out


def field_coeffs(X, points, degree: int) -> list[tuple]:
    """``X``'s ``(mask, coeffs)`` components at one point or a stack of
    points (see the module protocol): its ``field_coeffs``, else on the
    whole table per point its ``jet_field``."""
    _check_handle(X, len(points), "field_coeffs", "jet_field")
    if hasattr(X, "field_coeffs"):
        return X.field_coeffs(points, degree)
    return [(None, c) for c in _per_point(
        points, degree, lambda z: X.jet_field(z, degree).components)]


def observable_grads(F, points) -> np.ndarray:
    """``F``'s gradient at one point or a stack of points (see the module
    protocol): a polynomial's from its degree-1 shift, a sum's summed in
    part order, any other handle's from its ``grad`` one point at a time."""
    if isinstance(F, PolynomialObservable):
        return observable_coeffs(F, points, 1)[F.dim:0:-1]
    if isinstance(F, SumObservable):
        return np.sum([observable_grads(p, points) for p in F.parts], axis=0)
    return _stack([np.asarray(F.grad(z), float) for z in
                   ([points] if points.ndim == 1 else points.T.copy())])


def coordinate_observable(dim: int, index: int) -> PolynomialObservable:
    """The observable ``F(z) = z[index]``; ``index`` must be an integer in
    ``0 .. dim-1``, else :class:`ConfigError`."""
    _check_count(index, "coordinate index", at_least=0)
    if index >= dim:
        raise ConfigError(f"coordinate index {index} out of range for dim {dim}")
    alpha = [0] * dim
    alpha[index] = 1
    return PolynomialObservable.from_coeffs(dim, 1, {tuple(alpha): 1.0})


def oscillator_field() -> PolynomialField:
    """Harmonic oscillator phase flow, ``(q, p) -> (p, -q)``."""
    xdot = PolynomialObservable.from_coeffs(2, 1, {(0, 1): 1.0})
    pdot = PolynomialObservable.from_coeffs(2, 1, {(1, 0): -1.0})
    return PolynomialField((xdot, pdot))


def oscillator_energy() -> PolynomialObservable:
    """``H(q, p) = (q**2 + p**2) / 2``, conserved along the oscillator."""
    return PolynomialObservable.from_coeffs(2, 2, {(2, 0): 0.5, (0, 2): 0.5})


class SeparableOscillator:
    """Oscillator with the separable kinetic-plus-potential structure exposed.

    Same dynamics as :func:`oscillator_field`, but advertises ``minv`` /
    ``grad_v`` so the symplectic integrator accepts it.
    """

    separable = True
    dim = 2

    def __init__(self):
        self.minv = np.ones(1)
        self._poly = oscillator_field()

    def grad_v(self, q) -> np.ndarray:
        return np.atleast_1d(np.asarray(q, float))

    def __call__(self, z) -> np.ndarray:
        z = np.asarray(z, float)
        return np.array([z[1], -z[0]])

    def energy(self, z) -> float:
        z = np.asarray(z, float)
        return float(0.5 * (z[0] ** 2 + z[1] ** 2))

    def jet_field(self, z, degree: int) -> JetField:
        return _jet_field_at(self, z, degree)

    def field_coeffs(self, points, degree: int) -> list[tuple]:
        return self._poly.field_coeffs(points, degree)


def linear1d_field() -> PolynomialField:
    """One-dimensional linear flow ``x' = x``."""
    return PolynomialField(
        (PolynomialObservable.from_coeffs(1, 1, {(1,): 1.0}),)
    )


def _random_coeff_table(rng: np.random.Generator, dim: int, degree: int,
                        scale: float) -> np.ndarray:
    """Coefficients with geometric decay in the order, taming the dynamics."""
    sp = _space(dim, degree)
    raw = rng.normal(size=sp.size)
    return scale * raw * 0.5 ** sp.orders


def random_polynomial_observable(dim: int, degree: int,
                                 rng: np.random.Generator,
                                 scale: float = 1.0) -> PolynomialObservable:
    c = _random_coeff_table(rng, dim, degree, scale)
    return PolynomialObservable(TruncatedJet(dim, degree, np.zeros(dim), c))


def random_polynomial_field(dim: int, degree: int, rng: np.random.Generator,
                            scale: float = 1.0) -> PolynomialField:
    comps = tuple(
        random_polynomial_observable(dim, degree, rng, scale) for _ in range(dim)
    )
    return PolynomialField(comps)
