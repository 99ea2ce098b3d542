"""Truncated multivariate Taylor arithmetic about a fixed base point.

A :class:`TruncatedJet` stores the Taylor coefficients ``c_alpha`` of a smooth
scalar function about a base point ``z``, for every multi-index ``alpha`` with
``|alpha| <= degree``::

    f(z + u) = sum_alpha c_alpha * u**alpha + O(|u|**(degree + 1))

with the convention ``d^alpha f(z) = alpha! * c_alpha``.  Coefficients live in
a dense table ordered graded-lexicographically (total order first, then
lexicographic on the exponent tuples).  That ordering makes truncation to a
lower degree a prefix slice and lets products run as precomputed index
convolutions, so the arithmetic stays exact: no differencing is involved
anywhere except :func:`jet_from_samples`.

Jets are combinable only when dimension, degree and base point agree exactly;
mixing expansions about different points is a :class:`CombinabilityError`, not
a silent coercion.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache, total_ordering
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    CombinabilityError,
    DegreeDeficitError,
    EvaluationDomainError,
)

__all__ = [
    "MultiIndex",
    "TruncatedJet",
    "JetField",
    "jet_add",
    "jet_scale",
    "jet_mul",
    "jet_partial",
    "jet_truncate",
    "jet_pad",
    "jet_pow",
    "jet_eval",
    "shift_base",
    "embed_jet",
    "partials_from_jet",
    "jet_from_samples",
    "table_size",
    "MAX_SAMPLE_DEGREE",
]

#: Largest degree jet_from_samples will attempt; finite differencing beyond
#: this is numerically meaningless in double precision.
MAX_SAMPLE_DEGREE = 8

_EPS = float(np.finfo(float).eps)


@total_ordering
class MultiIndex:
    """An exponent tuple ``alpha`` with graded-lexicographic total order."""

    __slots__ = ("exponents", "order")

    def __init__(self, exponents: Iterable[int]):
        exps = tuple(int(e) for e in exponents)
        if any(e < 0 for e in exps):
            raise ValueError(f"multi-index entries must be >= 0, got {exps}")
        object.__setattr__(self, "exponents", exps)
        object.__setattr__(self, "order", sum(exps))

    def __setattr__(self, name, value):  # immutability
        raise AttributeError("MultiIndex is immutable")

    def __len__(self) -> int:
        return len(self.exponents)

    def __getitem__(self, i: int) -> int:
        return self.exponents[i]

    def __iter__(self):
        return iter(self.exponents)

    def __hash__(self) -> int:
        return hash(self.exponents)

    def __eq__(self, other) -> bool:
        if isinstance(other, MultiIndex):
            return self.exponents == other.exponents
        if isinstance(other, tuple):
            return self.exponents == other
        return NotImplemented

    def __lt__(self, other: "MultiIndex") -> bool:
        return (self.order, self.exponents) < (other.order, other.exponents)

    def __add__(self, other: "MultiIndex") -> "MultiIndex":
        if len(other) != len(self):
            raise ValueError("dimension mismatch")
        return MultiIndex(a + b for a, b in zip(self.exponents, other.exponents))

    def factorial(self) -> int:
        """``alpha! = prod_i alpha_i!``"""
        out = 1
        for e in self.exponents:
            out *= math.factorial(e)
        return out

    @staticmethod
    def zero(dim: int) -> "MultiIndex":
        return MultiIndex((0,) * dim)

    @staticmethod
    def unit(dim: int, axis: int) -> "MultiIndex":
        e = [0] * dim
        e[axis] = 1
        return MultiIndex(e)

    def __repr__(self) -> str:
        return f"MultiIndex{self.exponents}"


def table_size(dim: int, degree: int) -> int:
    """Number of multi-indices with ``|alpha| <= degree`` in ``dim`` variables."""
    return math.comb(dim + degree, degree)


#: Upper bound on the exponent-array elements one chunk of the triple build
#: holds, so its temporaries stay a few MB whatever the table size.
_CHUNK_ELEMENTS = 1 << 18


class _JetSpace:
    """Precomputed index tables for one (dim, degree) coefficient layout.

    The graded-lex table is stable under degree extension: the table for
    degree ``d' < d`` is exactly the first ``table_size(dim, d')`` rows, so
    truncation is a slice and differentiation writes into a prefix.

    :meth:`rank` maps exponent rows to table positions with array arithmetic.
    With suffix sums ``s_i = alpha_i + ... + alpha_{dim-1}`` (so
    ``s_0 = |alpha|``), the rows of order ``|alpha|`` that come after
    ``alpha`` in lexicographic order number
    ``sum_{i=1}^{dim-1} C(s_i + dim - i - 1, dim - i)`` (the combinatorial
    number system), hence::

        rank(alpha) = table_size(dim, |alpha|) - 1
                      - sum_{i=1}^{dim-1} C(s_i + dim - i - 1, dim - i)

    that is, the start of the order block, ``table_size(dim, |alpha| - 1)``,
    plus the lexicographic rank inside the block.

    The convolution triples ``(tri_i, tri_j, tri_k)`` list every
    ``alpha_i + alpha_j = alpha_k`` i-major with j ascending.  That order is
    load-bearing: :func:`jet_mul` and :func:`shift_base` sum them with
    ``np.bincount`` in this order, so any other order moves the last bits of
    every product and every seeded report.
    """

    def __init__(self, dim: int, degree: int):
        self.dim = dim
        self.degree = degree
        alphas = tuple(itertools.chain.from_iterable(
            _compositions(dim, k) for k in range(degree + 1)))
        self.alphas = alphas
        self.size = len(alphas)
        self.exps = np.array(alphas, dtype=np.int64).reshape(self.size, dim)
        self.index = {a: i for i, a in enumerate(alphas)}
        self.orders = self.exps.sum(axis=1)
        self.factorials = np.array(
            [math.prod(math.factorial(e) for e in a) for a in alphas], dtype=float
        )
        self.prefix = [table_size(dim, k) for k in range(degree + 1)]
        # _block_end[n] = table_size(dim, n) - 1;
        # _binom[i - 1, s] = C(s + dim - i - 1, dim - i) for i = 1 .. dim-1.
        self._block_end = np.array(self.prefix, dtype=np.intp) - 1
        self._binom = np.array(
            [[math.comb(s + dim - i - 1, dim - i) for s in range(degree + 1)]
             for i in range(1, dim)], dtype=np.intp).reshape(dim - 1, degree + 1)

        # Convolution triples: all (i, j, k) with alpha_i + alpha_j = alpha_k.
        # Rows of order o pair with the first prefix[degree - o] rows.
        starts = [0] + self.prefix
        blocks = [(starts[o], self.prefix[o], self.prefix[degree - o])
                  for o in range(degree + 1)]
        n_tri = sum((stop - start) * width for start, stop, width in blocks)
        self.tri_i = np.empty(n_tri, dtype=np.intp)
        self.tri_j = np.empty(n_tri, dtype=np.intp)
        self.tri_k = np.empty(n_tri, dtype=np.intp)
        at = 0
        for start, stop, width in blocks:
            step = max(1, _CHUNK_ELEMENTS // (width * dim))
            for lo in range(start, stop, step):
                hi = min(lo + step, stop)
                end = at + (hi - lo) * width
                self.tri_i[at:end] = np.repeat(np.arange(lo, hi), width)
                self.tri_j[at:end] = np.tile(np.arange(width), hi - lo)
                sums = self.exps[lo:hi, None, :] + self.exps[None, :width, :]
                self.tri_k[at:end] = self.rank(sums).ravel()
                at = end
        # binom(alpha_k; alpha_i) = alpha_k! / (alpha_i! * alpha_j!)
        self.tri_binom = self.factorials[self.tri_k] / (
            self.factorials[self.tri_i] * self.factorials[self.tri_j]
        )

        # Differentiation gathers: result index t (degree-1 table) reads from
        # alpha_t + e_axis with scale alpha_t[axis] + 1.
        self.diff_src: list[np.ndarray] = []
        self.diff_scale: list[np.ndarray] = []
        if degree >= 1:
            lower = self.exps[: self.prefix[degree - 1]]
            for axis, unit in enumerate(np.eye(dim, dtype=np.int64)):
                self.diff_src.append(self.rank(lower + unit))
                self.diff_scale.append((lower[:, axis] + 1).astype(float))

    def rank(self, exps: np.ndarray) -> np.ndarray:
        """Table positions of the exponent rows ``exps[..., :]`` (orders <= degree)."""
        suffix = np.cumsum(exps[..., ::-1], axis=-1)[..., ::-1]
        later = self._binom[np.arange(self.dim - 1), suffix[..., 1:]].sum(axis=-1)
        return self._block_end[suffix[..., 0]] - later

    def monomials(self, u: np.ndarray) -> np.ndarray:
        """All powers ``u**alpha`` over the table (0**0 == 1)."""
        return np.prod(u[np.newaxis, :] ** self.exps, axis=1)


def _compositions(dim: int, total: int):
    """All exponent tuples of given total order, ascending lexicographic."""
    if dim == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(dim - 1, total - head):
            yield (head,) + rest


@lru_cache(maxsize=None)
def _space(dim: int, degree: int) -> _JetSpace:
    if dim < 1:
        raise ValueError("jet dimension must be >= 1")
    if degree < 0:
        raise ValueError("jet degree must be >= 0")
    return _JetSpace(dim, degree)


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class TruncatedJet:
    """Dense truncated Taylor expansion of a scalar function.

    Attributes
    ----------
    dim : number of variables.
    degree : truncation order (all coefficients with ``|alpha| <= degree``).
    base_point : expansion point, shape ``(dim,)``.
    coeffs : coefficient table in graded-lex order, length
        ``table_size(dim, degree)``.
    coeff_errors : optional per-coefficient error estimates (set by
        :func:`jet_from_samples`; ``None`` for exact jets).
    """

    dim: int
    degree: int
    base_point: np.ndarray
    coeffs: np.ndarray
    coeff_errors: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        space = _space(self.dim, self.degree)
        base = _readonly(self.base_point)
        coeffs = _readonly(self.coeffs)
        if base.shape != (self.dim,):
            raise ValueError(f"base point must have shape ({self.dim},)")
        if coeffs.shape != (space.size,):
            raise ValueError(
                f"coefficient table must have length {space.size}, got {coeffs.shape}"
            )
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("jet coefficients must be finite")
        object.__setattr__(self, "base_point", base)
        object.__setattr__(self, "coeffs", coeffs)
        if self.coeff_errors is not None:
            object.__setattr__(self, "coeff_errors", _readonly(self.coeff_errors))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(dim: int, degree: int, base_point) -> "TruncatedJet":
        return TruncatedJet(dim, degree, np.asarray(base_point, float),
                            np.zeros(table_size(dim, degree)))

    @staticmethod
    def constant(value: float, dim: int, degree: int, base_point) -> "TruncatedJet":
        c = np.zeros(table_size(dim, degree))
        c[0] = value
        return TruncatedJet(dim, degree, np.asarray(base_point, float), c)

    @staticmethod
    def from_coeffs(
        dim: int,
        degree: int,
        base_point,
        entries: Mapping[MultiIndex | tuple, float],
    ) -> "TruncatedJet":
        """Build a jet from a sparse ``{multi-index: coefficient}`` mapping."""
        space = _space(dim, degree)
        c = np.zeros(space.size)
        for a, v in entries.items():
            key = tuple(a)
            if len(key) != dim:
                raise ValueError(f"multi-index {key} has wrong dimension")
            if sum(key) > degree:
                raise ValueError(f"multi-index {key} exceeds degree {degree}")
            c[space.index[key]] = v
        return TruncatedJet(dim, degree, np.asarray(base_point, float), c)

    @staticmethod
    def monomial(dim: int, degree: int, base_point, alpha, value: float = 1.0):
        """Jet with a single nonzero coefficient."""
        return TruncatedJet.from_coeffs(dim, degree, base_point, {tuple(alpha): value})

    # -- accessors ---------------------------------------------------------

    @property
    def value(self) -> float:
        """Constant term: the function value at the base point."""
        return float(self.coeffs[0])

    def gradient(self) -> np.ndarray:
        """First-order partial derivatives at the base point."""
        if self.degree < 1:
            raise DegreeDeficitError("gradient needs degree >= 1")
        lo = 1
        return np.array(self.coeffs[lo : lo + self.dim][::-1])

    def coeff(self, alpha) -> float:
        space = _space(self.dim, self.degree)
        key = tuple(alpha)
        if sum(key) > self.degree:
            raise DegreeDeficitError(
                f"coefficient {key} beyond jet degree {self.degree}"
            )
        return float(self.coeffs[space.index[key]])

    def as_dict(self, *, drop_zeros: bool = True) -> dict[tuple, float]:
        space = _space(self.dim, self.degree)
        out = {}
        for a, c in zip(space.alphas, self.coeffs):
            if drop_zeros and c == 0.0:
                continue
            out[a] = float(c)
        return out

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        """Graded-lex coefficient list, exact zeros omitted."""
        coeffs = [
            {"alpha": list(a), "c": float(c)}
            for a, c in self.as_dict().items()
        ]
        return {
            "dim": self.dim,
            "degree": self.degree,
            "base": [float(x) for x in self.base_point],
            "coeffs": coeffs,
        }

    @staticmethod
    def from_json_dict(d: dict) -> "TruncatedJet":
        entries = {tuple(item["alpha"]): float(item["c"]) for item in d["coeffs"]}
        return TruncatedJet.from_coeffs(
            int(d["dim"]), int(d["degree"]), np.asarray(d["base"], float), entries
        )

    # -- operators ---------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, TruncatedJet):
            return jet_add(self, other)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, TruncatedJet):
            return jet_mul(self, other)
        if isinstance(other, (int, float)):
            return jet_scale(self, float(other))
        return NotImplemented

    __rmul__ = __mul__

    def __repr__(self) -> str:
        head = ", ".join(
            f"{a}:{c:.6g}" for a, c in itertools.islice(self.as_dict().items(), 4)
        )
        return f"TruncatedJet(dim={self.dim}, degree={self.degree}, {{{head}, ...}})"


def _check_combinable(a: TruncatedJet, b: TruncatedJet) -> None:
    if a.dim != b.dim:
        raise CombinabilityError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if a.degree != b.degree:
        raise CombinabilityError(f"degree mismatch: {a.degree} vs {b.degree}")
    if not np.array_equal(a.base_point, b.base_point):
        raise CombinabilityError("base points differ")


def jet_add(a: TruncatedJet, b: TruncatedJet) -> TruncatedJet:
    _check_combinable(a, b)
    return TruncatedJet(a.dim, a.degree, a.base_point, a.coeffs + b.coeffs)


def jet_scale(a: TruncatedJet, s: float) -> TruncatedJet:
    return TruncatedJet(a.dim, a.degree, a.base_point, s * a.coeffs)


def jet_mul(a: TruncatedJet, b: TruncatedJet) -> TruncatedJet:
    """Truncated Cauchy product; orders beyond the shared degree are dropped."""
    _check_combinable(a, b)
    sp = _space(a.dim, a.degree)
    prod = a.coeffs[sp.tri_i] * b.coeffs[sp.tri_j]
    c = np.bincount(sp.tri_k, weights=prod, minlength=sp.size)
    return TruncatedJet(a.dim, a.degree, a.base_point, c)


def jet_partial(a: TruncatedJet, axis: int) -> TruncatedJet:
    """Partial derivative along one coordinate; degree drops by one.

    A degree-0 input has no derivative information and yields the zero jet of
    degree 0 (the only honest answer without extra orders).
    """
    if not 0 <= axis < a.dim:
        raise ValueError(f"axis {axis} out of range for dim {a.dim}")
    if a.degree == 0:
        return TruncatedJet.zero(a.dim, 0, a.base_point)
    sp = _space(a.dim, a.degree)
    c = a.coeffs[sp.diff_src[axis]] * sp.diff_scale[axis]
    return TruncatedJet(a.dim, a.degree - 1, a.base_point, c)


def jet_truncate(a: TruncatedJet, degree: int) -> TruncatedJet:
    """Forget orders above ``degree`` (a prefix slice of the table)."""
    if degree > a.degree:
        raise DegreeDeficitError(
            f"cannot truncate degree-{a.degree} jet up to degree {degree}"
        )
    if degree == a.degree:
        return a
    n = table_size(a.dim, degree)
    return TruncatedJet(a.dim, degree, a.base_point, a.coeffs[:n])


def jet_pad(a: TruncatedJet, degree: int) -> TruncatedJet:
    """Embed into a higher degree with zero coefficients above ``a.degree``.

    Only valid when the extra coefficients are genuinely zero (polynomial
    data); for sampled jets this would fabricate orders, so callers decide.
    """
    if degree < a.degree:
        raise ValueError("jet_pad target degree below current degree")
    if degree == a.degree:
        return a
    c = np.zeros(table_size(a.dim, degree))
    c[: a.coeffs.size] = a.coeffs
    return TruncatedJet(a.dim, degree, a.base_point, c)


def jet_pow(a: TruncatedJet, exponent: float) -> TruncatedJet:
    """``a**exponent`` for real exponents via the truncated binomial series.

    Requires a nonzero constant term (and a positive one for non-integer
    exponents); the series is exact at the truncation degree.
    """
    a0 = a.value
    if a0 == 0.0:
        raise EvaluationDomainError("jet_pow needs a nonzero constant term")
    if a0 < 0.0 and exponent != round(exponent):
        raise EvaluationDomainError(
            "jet_pow with non-integer exponent needs a positive constant term"
        )
    d = a.degree
    # w has zero constant term, so w**k contributes only to orders >= k.
    w = jet_scale(a, 1.0 / a0)
    w = TruncatedJet(a.dim, d, a.base_point,
                     w.coeffs - TruncatedJet.constant(1.0, a.dim, d, a.base_point).coeffs)
    # Horner evaluation of sum_k binom(exponent, k) w**k.
    coeffs = [1.0]
    for k in range(1, d + 1):
        coeffs.append(coeffs[-1] * (exponent - k + 1) / k)
    acc = TruncatedJet.constant(coeffs[d], a.dim, d, a.base_point)
    for k in range(d - 1, -1, -1):
        acc = jet_mul(acc, w)
        acc = jet_add(acc, TruncatedJet.constant(coeffs[k], a.dim, d, a.base_point))
    return jet_scale(acc, a0 ** exponent)


def jet_eval(a: TruncatedJet, x) -> float:
    """Evaluate the truncated expansion at the absolute point ``x``."""
    u = np.asarray(x, float) - a.base_point
    sp = _space(a.dim, a.degree)
    return float(a.coeffs @ sp.monomials(u))


def shift_base(a: TruncatedJet, new_base) -> TruncatedJet:
    """Re-expand about a new base point.

    Exact for polynomial data (coefficients above the polynomial's true degree
    all zero); for genuinely truncated jets the result silently drops the
    unknown tail like any other truncation.
    """
    new_base = np.asarray(new_base, float)
    sp = _space(a.dim, a.degree)
    zpow = sp.monomials(new_base - a.base_point)
    contrib = sp.tri_binom * a.coeffs[sp.tri_k] * zpow[sp.tri_j]
    c = np.bincount(sp.tri_i, weights=contrib, minlength=sp.size)
    return TruncatedJet(a.dim, a.degree, new_base, c)


def embed_jet(a: TruncatedJet, big_dim: int, positions: Sequence[int],
              base_point) -> TruncatedJet:
    """Reinterpret a jet in a subset of a larger variable set.

    ``positions[k]`` is the index of the k-th small variable inside the big
    space; all other variables get zero exponents.  The base point of the big
    jet must restrict to the small one.
    """
    base_point = np.asarray(base_point, float)
    if sorted(set(positions)) != sorted(positions) or len(positions) != a.dim:
        raise ValueError("positions must be distinct and match the jet dimension")
    if not np.array_equal(base_point[list(positions)], a.base_point):
        raise CombinabilityError("big base point does not restrict to the jet's base")
    sp_small = _space(a.dim, a.degree)
    sp_big = _space(big_dim, a.degree)
    big_exps = np.zeros((sp_small.size, big_dim), dtype=np.int64)
    big_exps[:, list(positions)] = sp_small.exps
    c = np.zeros(sp_big.size)
    c[sp_big.rank(big_exps)] = a.coeffs
    return TruncatedJet(big_dim, a.degree, base_point, c)


def partials_from_jet(a: TruncatedJet, alpha) -> float:
    """Partial-derivative value ``d^alpha f(base) = alpha! * c_alpha``."""
    mi = alpha if isinstance(alpha, MultiIndex) else MultiIndex(alpha)
    return a.coeff(mi) * mi.factorial()


# -- finite-difference jet extraction --------------------------------------


def _stencil_1d(order: int) -> list[tuple[float, float]]:
    """(offset, weight) pairs of the central difference delta^order.

    delta f(x) = f(x + 1/2) - f(x - 1/2); offsets are in step units, weights
    are (-1)^t * C(order, t).  Bias is O(h^2).
    """
    return [
        (order / 2.0 - t, (-1.0) ** t * math.comb(order, t))
        for t in range(order + 1)
    ]


def _fd_partial(f, z, alpha: tuple, h: float, cache: dict) -> tuple[float, float]:
    """Tensor-product central difference estimate of d^alpha f(z).

    Returns the estimate together with the largest sample magnitude seen,
    which feeds the roundoff term of the error model.
    """
    axes = [i for i, e in enumerate(alpha) if e > 0]
    stencils = [_stencil_1d(alpha[i]) for i in axes]
    total = 0.0
    biggest = 0.0
    for combo in itertools.product(*stencils):
        off = np.zeros(len(z))
        w = 1.0
        for ax, (o, c) in zip(axes, combo):
            off[ax] = o
            w *= c
        key = tuple(np.round(off * 2).astype(int))
        if key not in cache:
            val = float(f(z + h * off))
            if not math.isfinite(val):
                raise EvaluationDomainError(
                    f"non-finite sample at offset {h * off} from base point"
                )
            cache[key] = val
        biggest = max(biggest, abs(cache[key]))
        total += w * cache[key]
    return total / h ** sum(alpha), biggest


#: Geometric step ladder explored per coefficient (multiples of the base step).
_STEP_LADDER = (1.0, 2.0, 4.0, 8.0)
#: Largest absolute step attempted, regardless of derivative order.
_MAX_STEP = 0.25


def jet_from_samples(
    f: Callable[[np.ndarray], float],
    z,
    degree: int,
    dim: int | None = None,
) -> TruncatedJet:
    """Estimate a jet by central finite differences with Richardson refinement.

    For a coefficient of derivative order ``k`` the base step is
    ``eps**(1/(k+4))`` — the noise/bias optimum once one Richardson level has
    promoted the central-difference bias from O(h^2) to O(h^4).  Each
    coefficient is estimated on a short geometric step ladder; adjacent rungs
    form Richardson pairs, and the pair with the smallest modeled error
    (extrapolation disagreement plus a roundoff term ``eps*|f|/h^k``) wins.
    Larger rungs are what make polynomial coefficients come out at roundoff
    level instead of being drowned by cancellation noise.

    The winning error model is stored per coefficient on the returned jet.
    Degrees above :data:`MAX_SAMPLE_DEGREE` are refused.
    """
    z = np.asarray(z, float)
    if dim is None:
        dim = z.size
    if z.shape != (dim,):
        raise ValueError(f"base point shape {z.shape} does not match dim {dim}")
    if degree > MAX_SAMPLE_DEGREE:
        raise DegreeDeficitError(
            f"sampled jets support degree <= {MAX_SAMPLE_DEGREE}, got {degree}"
        )
    sp = _space(dim, degree)
    coeffs = np.zeros(sp.size)
    errors = np.zeros(sp.size)
    f0 = float(f(z))
    if not math.isfinite(f0):
        raise EvaluationDomainError("non-finite sample at the base point")
    coeffs[0] = f0
    errors[0] = abs(f0) * _EPS
    caches: dict[float, dict] = {}
    for idx in range(1, sp.size):
        alpha = sp.alphas[idx]
        k = int(sp.orders[idx])
        base = _EPS ** (1.0 / (k + 4))
        steps = [base * m for m in _STEP_LADDER if base * m <= _MAX_STEP]
        if not steps:
            steps = [base]
        rungs = []
        for h in steps:
            est, fmax = _fd_partial(f, z, alpha, h, caches.setdefault(h, {}))
            rungs.append((h, est, fmax))
        weight_sum = 2.0 ** k  # sum of |stencil weights|
        best_val, best_err = rungs[0][1], math.inf
        for (h, lo, fm_lo), (_, hi, fm_hi) in zip(rungs, rungs[1:]):
            extrap = (4.0 * lo - hi) / 3.0
            noise = _EPS * max(fm_lo, fm_hi, 1e-300) * weight_sum / h ** k
            err = abs(lo - hi) / 3.0 + noise
            if err < best_err:
                best_val, best_err = extrap, err
        if len(rungs) == 1:
            h, best_val, fm = rungs[0]
            best_err = _EPS * max(fm, 1e-300) * weight_sum / h ** k
        fact = sp.factorials[idx]
        coeffs[idx] = best_val / fact
        errors[idx] = best_err / fact + _EPS * abs(best_val) / fact
    return TruncatedJet(dim, degree, z, coeffs, coeff_errors=errors)


# -- jet-valued vector fields ------------------------------------------------


@dataclass(frozen=True)
class JetField:
    """A vector field's component jets, sharing base point and degree.

    ``components[i]`` is the jet of the i-th component; the field dimension
    equals the number of variables of each jet.
    """

    components: tuple[TruncatedJet, ...]

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise ValueError("JetField needs at least one component")
        first = comps[0]
        if len(comps) != first.dim:
            raise ValueError(
                f"field must have {first.dim} components, got {len(comps)}"
            )
        for c in comps[1:]:
            _check_combinable(first, c)
        object.__setattr__(self, "components", comps)

    @property
    def dim(self) -> int:
        return self.components[0].dim

    @property
    def degree(self) -> int:
        return self.components[0].degree

    @property
    def base_point(self) -> np.ndarray:
        return self.components[0].base_point

    def values(self) -> np.ndarray:
        """Field value at the base point (constant terms)."""
        return np.array([c.value for c in self.components])

    def truncated(self, degree: int) -> "JetField":
        return JetField(tuple(jet_truncate(c, degree) for c in self.components))

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "degree": self.degree,
            "base": [float(x) for x in self.base_point],
            "components": [c.to_json_dict() for c in self.components],
        }
