"""Callable observables and vector fields with exact jet providers.

The rest of the package talks to scalar observables and vector fields through
a small duck-typed protocol:

* an observable is callable, ``F(z) -> float``; if it also has
  ``jet(z, degree)`` its Taylor data is taken analytically, and ``grad(z)``
  supplies an independent gradient when available;
* a vector field is callable, ``X(z) -> ndarray``; ``jet_field(z, degree)``
  supplies analytic component jets.

Handles without jet providers fall back to finite-difference sampling at the
call sites that need jets.  Everything here is polynomial, so jets are exact
re-expansions (a Taylor shift), not estimates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .jet_algebra import (
    JetField,
    TruncatedJet,
    jet_add,
    jet_eval,
    jet_pad,
    jet_truncate,
    shift_base,
    _space,
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
        out = shift_base(self.poly, np.asarray(z, float))
        # Bitwise equal to shifting the padded table: the padded zero
        # coefficients add nothing, and the triples are prefix-stable.
        if degree > out.degree:
            return jet_pad(out, degree)
        return jet_truncate(out, degree)

    def grad(self, z) -> np.ndarray:
        return self.jet(z, 1).gradient()

    def to_json_dict(self) -> dict:
        return self.poly.to_json_dict()

    @staticmethod
    def from_coeffs(dim: int, degree: int, entries) -> "PolynomialObservable":
        return PolynomialObservable(
            TruncatedJet.from_coeffs(dim, degree, np.zeros(dim), entries)
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
        if len(comps) != comps[0].dim:
            raise ValueError("component count must match variable count")
        object.__setattr__(self, "components", comps)

    @property
    def dim(self) -> int:
        return len(self.components)

    def __call__(self, z) -> np.ndarray:
        return np.array([c(z) for c in self.components])

    def jet_field(self, z, degree: int) -> JetField:
        return JetField(tuple(c.jet(z, degree) for c in self.components))

    def to_json_dict(self) -> dict:
        return {"dim": self.dim,
                "components": [c.to_json_dict() for c in self.components]}


class SumObservable:
    """Pointwise sum of observable handles, each contributing its own jets."""

    def __init__(self, *parts):
        if not parts:
            raise ValueError("SumObservable needs at least one part")
        self.parts = tuple(parts)

    @property
    def dim(self):
        return self.parts[0].dim

    def __call__(self, z) -> float:
        return float(sum(p(z) for p in self.parts))

    def jet(self, z, degree: int) -> TruncatedJet:
        jets = [p.jet(z, degree) for p in self.parts]
        out = jets[0]
        for j in jets[1:]:
            out = jet_add(out, j)
        return out

    def grad(self, z) -> np.ndarray:
        return np.sum([p.grad(z) for p in self.parts], axis=0)


class SumField:
    """Pointwise sum of vector-field handles."""

    def __init__(self, *parts):
        if not parts:
            raise ValueError("SumField needs at least one part")
        self.parts = tuple(parts)

    @property
    def dim(self):
        return self.parts[0].dim

    def __call__(self, z) -> np.ndarray:
        return np.sum([np.asarray(p(z), float) for p in self.parts], axis=0)

    def jet_field(self, z, degree: int) -> JetField:
        fields = [p.jet_field(z, degree) for p in self.parts]
        comps = []
        for i in range(fields[0].dim):
            acc = fields[0].components[i]
            for f in fields[1:]:
                acc = jet_add(acc, f.components[i])
            comps.append(acc)
        return JetField(tuple(comps))


def coordinate_observable(dim: int, index: int) -> PolynomialObservable:
    """The observable ``F(z) = z[index]``."""
    if not 0 <= index < dim:
        raise ValueError(f"coordinate index {index} out of range for dim {dim}")
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
        return self._poly.jet_field(z, degree)


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
