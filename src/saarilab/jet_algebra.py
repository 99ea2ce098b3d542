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
anywhere.

Jets are combinable only when dimension, degree and base point agree exactly;
mixing expansions about different points is a :class:`CombinabilityError`, not
a silent coercion.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    CombinabilityError,
    ConfigError,
    DegreeDeficitError,
    EvaluationDomainError,
    _check_count,
    _finite_array,
)

# The library's kernels run on coefficient arrays; a jet is their input and
# output type.  ``jet_mul``, ``shift_base`` and ``embed_jet`` have no library
# caller left: they stay public because the benchmark's tracer wraps them by
# module attribute, and ``jet_eval`` serves ``PolynomialObservable``.
__all__ = [
    "TruncatedJet",
    "JetField",
    "jet_mul",
    "jet_eval",
    "shift_base",
    "embed_jet",
    "table_size",
]


def table_size(dim: int, degree: int) -> int:
    """Number of multi-indices with ``|alpha| <= degree`` in ``dim`` variables."""
    return math.comb(dim + degree, degree)


#: Upper bound on the exponent-array elements one chunk of the triple build
#: holds, so its temporaries stay a few MB whatever the table size.
_CHUNK_ELEMENTS = 1 << 18
#: Upper bound on the output elements ``terms * size`` of one chunk of a
#: fused Lie step (see :class:`_JetSpace`): each chunk's block stays 512
#: kB, and into a table of more than half this many coefficients, such as
#: the (12, 7) table of 50 388, every term runs alone, where a block of
#: two such tables made the step slower than two products.
_BLOCK_ELEMENTS = _CHUNK_ELEMENTS // 4
#: Upper bound on the triples of one chunk of several terms, which its plan
#: copies: a term of more triples runs alone, on views of its cached set.
_FUSED_TRIPLES = _CHUNK_ELEMENTS // 16
# Smallest table on which _lie_step reads the orders (and variables) its
# operand reaches: on smaller ones a product costs little more than its
# calls, and the scan and the per-product prefix cost more than they save.
_ORDER_SCAN_SIZE = 1000


@lru_cache(maxsize=None)
def _order_block(dim: int, order: int) -> np.ndarray:
    """Exponent rows of total order ``order`` in ``dim`` variables.

    Ascending lexicographic: each leading exponent in turn, in front of the
    ``dim - 1`` block of the remaining order.
    """
    if dim == 1:
        block = np.array([[order]], dtype=np.int64)
    else:
        parts = []
        for head in range(order + 1):
            rest = _order_block(dim - 1, order - head)
            parts.append(np.column_stack(
                (np.full(len(rest), head, dtype=np.int64), rest)))
        block = np.concatenate(parts)
    block.flags.writeable = False
    return block


class _JetSpace:
    """Precomputed index tables for one (dim, degree) coefficient layout.

    ``exps`` is the layout: row ``t`` holds the exponents of coefficient
    ``t``, in graded-lex order.  The table is stable under degree extension:
    the table for degree ``d' < d`` is exactly the first
    ``table_size(dim, d')`` rows, so truncation is a slice and
    differentiation writes into a prefix.

    :meth:`rank` is the only lookup from exponents to table positions, by
    array arithmetic.  With suffix sums ``s_i = alpha_i + ... + alpha_{dim-1}``
    (so ``s_0 = |alpha|``), the rows of order ``|alpha|`` that come after
    ``alpha`` in lexicographic order number
    ``sum_{i=1}^{dim-1} C(s_i + dim - i - 1, dim - i)`` (the combinatorial
    number system), hence::

        rank(alpha) = table_size(dim, |alpha|) - 1
                      - sum_{i=1}^{dim-1} C(s_i + dim - i - 1, dim - i)

    that is, the start of the order block, ``table_size(dim, |alpha| - 1)``,
    plus the lexicographic rank inside the block.  Every term reads one suffix
    sum, so :meth:`rank` is one gather from a small weight table and one sum.

    The convolution triples :attr:`triples` ``= (tri_i, tri_j, tri_k)`` list
    every ``alpha_i + alpha_j = alpha_k`` i-major with j ascending.  That
    order is load-bearing: :func:`_mul` and :func:`_shift` sum them
    with ``np.bincount`` in this order, so any other order moves the last bits
    of every product and every seeded report.  It also makes the triples
    prefix-stable: for each ``i`` of a lower-degree table, that table's
    triples are the first of the triples with that ``i`` here, and the rest
    have ``|alpha_k|`` above its degree.

    Only products need the triples, and they are the bulk of a large table
    (38 567 100 of them at dim 12, degree 9), so they are built on the first
    full :func:`_mul` or :func:`_shift` on this space, and
    :attr:`tri_binom` on the first :func:`_shift`.  A space used only for
    its layout, :meth:`rank`, its differentiation gathers or
    :func:`embed_jet` never holds them.

    Most N-body jets use few of the variables: a component ``p_c / m_c`` of
    the Hamiltonian field uses one momentum, and ``-dV/dq`` the
    configuration only.  Such a factor lives on its variables' table: the
    rows :meth:`rows_within` a bitmask ``mask``, in this table's order, are
    exactly the graded-lex rows of ``_space(popcount(mask), degree)``.
    :meth:`triples_within` gives the triples whose j-row lies inside the
    mask and whose i-row inside ``a_mask`` (``None``: every row), with
    ``tri_j`` a position in the mask's small table.  It ranks the sums of
    the rows inside the masks directly, so the full triples are never built
    for it (10 518 300 at dim 12, degree 8 against 1 562 275 for the
    configuration half), and it keeps their i-major, j-ascending order.
    Every triple it leaves out multiplies a coefficient that is +0 or -0,
    and adding +-0 to a ``bincount`` sum that starts at +0 never changes a
    bit, so a restricted product is bitwise equal to the full one.  Each set
    is built on its first product and cached per ``(mask, a_mask)``.

    :meth:`buffers` gives each thread two float buffers, grown to the most
    triples it has gathered on this space and reused after, so a one-sample
    product allocates only its output, and a Lie step chunk its partials
    and its output; threads never share them.

    :attr:`plans` caches, per field layout and order scan, the plan of a
    Lie step whose output is this table (see
    :func:`~saarilab.lie_tower._step_plan`): its terms' restricted triple
    sets, truncated to the orders their partials reach, packed in term
    order into chunks of at most ``_BLOCK_ELEMENTS // size`` terms and,
    past their first term, ``_FUSED_TRIPLES`` triples, each concatenated
    once with the offsets of its gathers and output rows.  A term alone in
    its chunk runs on views of its cached triple set, copying none: on a
    table of more than ``_BLOCK_ELEMENTS // 2`` coefficients every term
    does.  The plans live on the space, so ``_space.cache_clear()`` drops
    them with the triples they index.

    The same triples multiply a group of S samples at once, on coefficient
    arrays stacked sample-minor, shape ``(size, S)``: :func:`_mul` gathers
    whole rows and offsets only ``tri_k``, to ``tri_k * S + s``, for one
    ``bincount``, so each bin still adds its triples from +0 in the order
    above and every sample keeps its bits.  A stacked product allocates its
    gathers and offsets, S times the triple count each, and nothing is
    cached per S; so a scan groups samples only while ``table_size(dim, m)
    * dim * S <= _CHUNK_ELEMENTS`` (see
    :func:`~saarilab.genericity.obstruction_scan`).

    Every triple set, full or restricted, is i-major with i ascending, and
    the layout is graded, so the triples whose i-row has order at most ``e``
    are a prefix of the set: those with ``tri_i < table_size(dim, e)``.  A
    left operand that is zero above order ``e`` multiplies over that prefix
    alone, and every triple left out multiplies a +-0 coefficient, the same
    argument as for the restricted triples.  :attr:`row_vars` holds each
    row's variables as a bitmask (bit ``v`` for ``z_v``), from which
    :func:`_variable_mask` and :func:`_top_orders` read which variables, and
    up to which order, a coefficient array uses.
    """

    def __init__(self, dim: int, degree: int):
        self.dim = dim
        self.degree = degree
        self.exps = np.concatenate(
            [_order_block(dim, k) for k in range(degree + 1)])
        self.size = len(self.exps)
        self.orders = self.exps.sum(axis=1)
        # int64 holds bits 0..62 exactly; wider tables keep Python ints, on
        # which the same ufuncs (OR, shift, and) run.
        self.bits = (1 << np.arange(dim, dtype=np.int64) if dim < 64
                     else np.array([1 << v for v in range(dim)], dtype=object))
        self.row_vars = (self.exps > 0) @ self.bits
        # Every partial product of alpha! divides degree!, and float64 holds
        # such integers exactly up to degree 22, so the products are exact.
        fact = np.array([math.factorial(k) for k in range(degree + 1)], dtype=float)
        self.factorials = np.prod(fact[self.exps], axis=1)
        self.prefix = [table_size(dim, k) for k in range(degree + 1)]
        # :meth:`rank` reads the suffix sums back to front, s = s_{dim-1-k}
        # for k = 0 .. dim-1, and its term at _weight[k * (degree + 1) + s]:
        # -C(s + k, k + 1) for k < dim - 1, table_size(dim, s) - 1 for s_0.
        self._weight = np.array(
            [-math.comb(s + k, k + 1) for k in range(dim - 1)
             for s in range(degree + 1)] + [n - 1 for n in self.prefix],
            dtype=np.intp)
        self._weight_row = np.arange(dim, dtype=np.intp) * (degree + 1)

        # Differentiation gathers: result index t (degree-1 table) reads from
        # alpha_t + e_axis with scale alpha_t[axis] + 1.
        self.diff_src: list[np.ndarray] = []
        self.diff_scale: list[np.ndarray] = []
        if degree >= 1:
            lower = self.exps[: self.prefix[degree - 1]]
            for axis, unit in enumerate(np.eye(dim, dtype=np.int64)):
                self.diff_src.append(self.rank(lower + unit))
                self.diff_scale.append((lower[:, axis] + 1).astype(float))
        self._within: dict[tuple[int | None, int | None], tuple] = {}
        self._rows: dict[int | None, np.ndarray] = {}
        self.plans: dict[tuple, tuple] = {}
        self._local = threading.local()

    @cached_property
    def triples(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(tri_i, tri_j, tri_k)``: all (i, j, k) with alpha_i + alpha_j = alpha_k."""
        rows = self.rows_within(None)
        return self._convolution(rows, rows)

    def rows_within(self, mask: int | None) -> np.ndarray:
        """The rows using only the variables in ``mask`` (bit ``v`` for
        ``z_v``; ``None``: all of them), ascending: the mask's table.  Cached
        per mask; threads that miss together build equal arrays, so no lock
        is needed (as below)."""
        if mask not in self._rows:
            outside = [v for v in range(self.dim)
                       if mask is not None and not mask >> v & 1]
            self._rows[mask] = np.flatnonzero(~self.exps[:, outside].any(axis=1))
        return self._rows[mask]

    def triples_within(self, mask: int | None, a_mask: int | None = None
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The :attr:`triples` whose j-row uses only the variables in
        ``mask`` and whose i-row only those in ``a_mask`` (``None``: every
        variable; both ``None``: :attr:`triples`), with ``tri_j`` a position
        in ``mask``'s own table (see above).

        Built with :meth:`rank` from the rows inside the masks, never by
        filtering :attr:`triples`, in the same i-major, j-ascending order, and
        cached per ``(mask, a_mask)``.
        """
        key = (mask, a_mask)
        if key == (None, None):
            return self.triples
        if key not in self._within:
            self._within[key] = self._convolution(self.rows_within(a_mask),
                                                  self.rows_within(mask))
        return self._within[key]

    def _convolution(self, i_rows: np.ndarray, j_rows: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All (i, j, k) with i in ``i_rows``, ``j_rows[j]`` and alpha_i +
        alpha_{j_rows[j]} = alpha_k, i-major with j ascending.

        Both row lists ascend, so, the layout being graded, the rows of order
        at most ``o`` are a prefix of each, and the rows of order ``o`` pair
        with that prefix of ``j_rows`` for order ``degree - o``.
        """
        dim, degree = self.dim, self.degree
        i_end = np.searchsorted(i_rows, self.prefix).tolist()
        j_end = np.searchsorted(j_rows, self.prefix).tolist()
        blocks = [(lo, hi, j_end[degree - o])
                  for o, (lo, hi) in enumerate(zip([0] + i_end, i_end))]
        n_tri = sum((hi - lo) * width for lo, hi, width in blocks)
        tri_i = np.empty(n_tri, dtype=np.intp)
        tri_j = np.empty(n_tri, dtype=np.intp)
        tri_k = np.empty(n_tri, dtype=np.intp)
        at = 0
        for start, stop, width in blocks:
            js = np.arange(width, dtype=np.intp)
            j_exps = self.exps[j_rows[:width]]
            step = max(1, _CHUNK_ELEMENTS // (width * dim))
            for lo in range(start, stop, step):
                chunk = i_rows[lo:min(lo + step, stop)]
                end = at + len(chunk) * width
                tri_i[at:end] = np.repeat(chunk, width)
                tri_j[at:end] = np.tile(js, len(chunk))
                sums = self.exps[chunk][:, None, :] + j_exps[None, :, :]
                tri_k[at:end] = self.rank(sums).ravel()
                at = end
        return tri_i, tri_j, tri_k

    @cached_property
    def row_squares(self) -> np.ndarray:
        """Per row, the bitmask of the variables whose exponent is >= 2."""
        return (self.exps > 1) @ self.bits

    @cached_property
    def tri_binom(self) -> np.ndarray:
        """``binom(alpha_k; alpha_i) = alpha_k! / (alpha_i! * alpha_j!)`` per triple."""
        tri_i, tri_j, tri_k = self.triples
        f = self.factorials
        return f[tri_k] / (f[tri_i] * f[tri_j])

    def buffers(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """The calling thread's two gather buffers, ``n`` floats each."""
        try:
            p, q = self._local.buffers
        except AttributeError:
            p = q = np.empty(0)
        if len(p) < n:
            p, q = self._local.buffers = np.empty(n), np.empty(n)
        return p[:n], q[:n]

    def rank(self, exps: np.ndarray) -> np.ndarray:
        """Table positions of the exponent rows ``exps[..., :]``.

        The entries must be >= 0.  A row of order above the degree raises
        IndexError, because its order indexes past the end of ``_weight``.
        """
        at = exps[..., ::-1].cumsum(axis=-1)
        at += self._weight_row
        return self._weight.take(at).sum(axis=-1)

    @cached_property
    def _power_at(self) -> np.ndarray:
        """Per variable ``v`` and row, where ``u_v**alpha_v`` sits in the
        flattened ``(degree + 1, dim)`` table of powers ``u_v**e``."""
        return (self.exps * self.dim + np.arange(self.dim)).T.copy()

    def monomials(self, u: np.ndarray) -> np.ndarray:
        """All powers ``u**alpha`` over the table (0**0 == 1): ``(size,)``
        for one point ``u`` of shape ``(dim,)``, ``(size, S)`` for a
        sample-minor stack ``(dim, S)``.

        Each ``u_v**e`` is raised once, for ``e = 0 .. degree``, and each
        row multiplies its ``dim`` powers in variable order, as
        ``np.prod(u ** exps, axis=1)`` does, to the same bits: numpy's power
        of two given floats is one value whatever the layout, and raising
        every row's exponents makes ``dim`` times the table size of calls to
        ``pow``, the cost of a shift.  A stack raises each sample's powers
        in the one-point layout, ``(S, degree + 1, dim)``, and multiplies
        the columns of all samples at once, elementwise.
        """
        exponents = np.arange(self.degree + 1, dtype=float)[:, np.newaxis]
        if u.ndim == 1:
            factors = (u[np.newaxis, :] ** exponents).ravel().take(self._power_at)
        else:
            rows = np.ascontiguousarray(u.T)[:, np.newaxis, :]
            powers = (rows ** exponents).reshape(len(rows), -1)
            factors = powers.take(self._power_at, axis=1).transpose(1, 2, 0)
        out = factors[0].copy()
        for factor in factors[1:]:
            out *= factor
        return out


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


def _exponent_rows(dim: int, keys) -> np.ndarray:
    """Multi-indices as an integer array of shape ``(k, dim)``.

    Raises ValueError on a wrong length, a negative or a non-integer entry,
    which :meth:`_JetSpace.rank` would otherwise map to a wrong position
    (keys of mixed lengths already fail in ``np.asarray``).  A bool is not
    an integer here, also where ``np.asarray`` reads it as one beside ints.
    """
    rows = np.asarray(keys)
    if rows.ndim != 2 or rows.shape[1] != dim:
        raise ValueError(f"multi-index alpha must have {dim} entries, got {keys}")
    if rows.dtype.kind not in "iu" or any(
            isinstance(a, (bool, np.bool_)) for key in keys for a in key):
        raise ValueError(f"multi-index alpha entries must be integers, got {keys}")
    rows = rows.astype(np.int64, copy=False)
    if rows.min() < 0:
        raise ValueError(f"multi-index alpha entries must be >= 0, got {keys}")
    return rows


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

    Every jet the library returns is validated here; the kernels that build
    one (products, powers, Lie derivatives, N-body jets) keep their
    intermediates as plain coefficient arrays.
    """

    dim: int
    degree: int
    base_point: np.ndarray
    coeffs: np.ndarray

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
        if not np.isfinite(coeffs).all():
            raise ValueError("jet coefficients must be finite")
        object.__setattr__(self, "base_point", base)
        object.__setattr__(self, "coeffs", coeffs)

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
        entries: Mapping[tuple, float],
    ) -> "TruncatedJet":
        """Build a jet from a sparse ``{multi-index: coefficient}`` mapping
        about ``base_point`` (None: the origin).  A ``dim`` below 1 or a
        ``degree`` below 0 or either not an integer is a :class:`ConfigError`;
        a bad multi-index or a coefficient that is not a finite real number
        is a ValueError."""
        _check_count(dim, "dim")
        _check_count(degree, "degree", at_least=0)
        space = _space(dim, degree)
        c = np.zeros(space.size)
        if entries:
            exps = _exponent_rows(dim, list(entries))
            try:
                values = _finite_array(list(entries.values()), "coefficient c")
            except ConfigError as e:
                raise ValueError(str(e)) from None
            try:
                c[space.rank(exps)] = values
            except IndexError:
                key = tuple(exps[exps.sum(axis=1).argmax()].tolist())
                raise ValueError(
                    f"multi-index {key} exceeds degree {degree}") from None
        base = np.zeros(dim) if base_point is None else np.asarray(base_point, float)
        return TruncatedJet(dim, degree, base, c)

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
        exps = _exponent_rows(self.dim, [alpha])
        try:
            return float(self.coeffs[_space(self.dim, self.degree).rank(exps)[0]])
        except IndexError:
            raise DegreeDeficitError(
                f"coefficient {tuple(alpha)} beyond jet degree {self.degree}"
            ) from None

    def as_dict(self) -> dict[tuple, float]:
        """The nonzero coefficients, keyed by exponent tuple in table order."""
        nonzero = np.flatnonzero(self.coeffs)
        rows = _space(self.dim, self.degree).exps[nonzero].tolist()
        return {tuple(a): c for a, c in zip(rows, self.coeffs[nonzero].tolist())}

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
        """The jet of a :meth:`to_json_dict` dict; no value is coerced."""
        entries = {tuple(item["alpha"]): item["c"] for item in d["coeffs"]}
        return TruncatedJet.from_coeffs(
            d["dim"], d["degree"], _finite_array(d["base"], "base"), entries)

    # -- operators ---------------------------------------------------------

    def __eq__(self, other):
        """Value equality, a bool: same dim, degree, base point and table."""
        if not isinstance(other, TruncatedJet):
            return NotImplemented
        return (self.dim == other.dim and self.degree == other.degree
                and np.array_equal(self.base_point, other.base_point)
                and np.array_equal(self.coeffs, other.coeffs))

    def __hash__(self):
        """Agrees with ``==``: adding +0.0 maps -0.0 to +0.0 first."""
        return hash((self.dim, self.degree, (self.base_point + 0.0).tobytes(),
                     (self.coeffs + 0.0).tobytes()))

    def __add__(self, other):
        if isinstance(other, TruncatedJet):
            _check_combinable(self, other)
            return TruncatedJet(self.dim, self.degree, self.base_point,
                                self.coeffs + other.coeffs)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, TruncatedJet):
            return jet_mul(self, other)
        if isinstance(other, (int, float)):
            return TruncatedJet(self.dim, self.degree, self.base_point,
                                float(other) * self.coeffs)
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


def _mul(sp: _JetSpace, a: np.ndarray, b: np.ndarray, mask: int | None = None,
         a_mask: int | None = None) -> np.ndarray:
    """The one product kernel: the truncated Cauchy product of two checked
    coefficient arrays of ``sp``'s layout.

    Given ``mask``, ``b`` is on the mask's table (see :class:`_JetSpace`,
    :func:`_compact`), to ``sp``'s degree or higher; given ``a_mask``, ``a``
    is zero on every row that uses a variable outside it.  The product runs
    over :meth:`_JetSpace.triples_within` ``(mask, a_mask)``, bitwise equal
    to the full one.

    ``a`` may be the prefix ``table_size(dim, e)`` of an array that is zero
    above order ``e``.  The product then gathers only the triples with
    ``tri_i < len(a)``, a prefix of every triple set, and is bitwise equal to
    the product with the whole array: each triple it leaves out multiplies a
    +-0 coefficient.

    ``a`` and ``b`` may instead both be sample-minor stacks ``(coeffs, S)``,
    one column per sample; a mask, or a prefix of ``a``, must then hold for
    every column.  Whole rows are gathered, and one ``bincount`` sums sample
    ``s``'s coefficient ``k`` in bin ``k * S + s``.  The flattened weights
    run triple-major, so each bin adds its triples from +0 in one-sample
    order, and the ``(sp.size, S)`` result is bitwise equal, column by
    column, to the S products.  S is bounded by the group rule of
    :class:`_JetSpace`.
    """
    tri_i, tri_j, tri_k = (sp.triples if mask is None and a_mask is None
                           else sp.triples_within(mask, a_mask))
    if a.ndim == 2:
        if len(a) < sp.size:
            n = tri_i.searchsorted(len(a))
            tri_i, tri_j, tri_k = tri_i[:n], tri_j[:n], tri_k[:n]
        s = a.shape[1]
        p = a.take(tri_i, 0)
        p *= b.take(tri_j, 0)
        at = (tri_k * s)[:, None] + np.arange(s)
        return np.bincount(at.ravel(), p.ravel(), sp.size * s).reshape(sp.size, s)
    if a.size < sp.size:
        n = tri_i.searchsorted(a.size)
        tri_i, tri_j, tri_k = tri_i[:n], tri_j[:n], tri_k[:n]
    p, q = sp.buffers(len(tri_i))
    # Positional arguments: the keyword forms cost more per call than the
    # gather itself on small tables.  "clip" lets take write into ``out``
    # unbuffered; the indices are in range by construction.
    a.take(tri_i, None, p, "clip")
    b.take(tri_j, None, q, "clip")
    np.multiply(p, q, p)
    return np.bincount(tri_k, p, sp.size)


def _stack(arrays: list[np.ndarray]) -> np.ndarray:
    """One sample's array as it is, or the sample-minor stack of several."""
    return arrays[0] if len(arrays) == 1 else np.stack(arrays, axis=1)


def _pad(c: np.ndarray, size: int) -> np.ndarray:
    """``c`` followed by +0 rows up to ``size`` rows: one coefficient array
    or a sample-minor stack, embedded in a higher degree."""
    out = np.zeros((size,) + c.shape[1:])
    out[:len(c)] = c
    return out


def jet_mul(a: TruncatedJet, b: TruncatedJet) -> TruncatedJet:
    """Truncated Cauchy product; orders beyond the shared degree are dropped."""
    _check_combinable(a, b)
    c = _mul(_space(a.dim, a.degree), a.coeffs, b.coeffs)
    return TruncatedJet(a.dim, a.degree, a.base_point, c)


def _variable_mask(sp: _JetSpace, c: np.ndarray) -> int | None:
    """Bitmask of the variables the nonzero coefficients of ``c`` use, bit
    ``v`` for ``z_v``: the OR of their rows' variables.  ``None`` when that
    is every variable, which :func:`_mul` reads as no restriction.  For a
    sample-minor stack ``(size, S)``, the variables any sample uses."""
    # Rows 1..dim are the linear terms: all nonzero settles it without a scan.
    if sp.degree >= 1 and c[1:sp.dim + 1].all():
        return None
    used = int(np.bitwise_or.reduce(sp.row_vars[_nonzero_rows(c)]))
    return None if used == (1 << sp.dim) - 1 else used


def _nonzero_rows(c: np.ndarray) -> np.ndarray:
    """Per row of ``c``, whether it holds a nonzero coefficient; for a
    sample-minor stack, in any sample.  A stack counts its rows' nonzeros
    in one float32 BLAS product, exact below 2**24 samples:
    ``(c != 0).any(axis=1)`` reduces along the short sample axis, 130 us
    against 12 on a (6 435, 3) stack, and OR-ing the columns' ``c[:, j] !=
    0`` takes a call per sample, 125 us against 3 on a (6, 100) one."""
    if c.ndim == 1:
        return c != 0
    return (c != 0).astype(np.float32) @ np.ones(c.shape[1], np.float32) > 0


def _compact(sp: _JetSpace, c: np.ndarray, mask: int | None = None
             ) -> tuple[int | None, np.ndarray]:
    """``(mask, coeffs)`` on the mask's table: a whole table ``c`` (one
    array or a stack) moves there after one :func:`_variable_mask` scan."""
    if mask is None and (mask := _variable_mask(sp, c)) is not None:
        c = c[sp.rows_within(mask)]
    return mask, c


def _join(comps) -> tuple[tuple, np.ndarray]:
    """A field's :func:`_compact` components ``(mask, coeffs)`` as one
    array: ``(layout, coeffs)``, with ``layout[i] = (mask, start, stop)``
    and component ``i`` in ``coeffs[start:stop]``.  One array or a stack
    per component, concatenated along the rows."""
    layout, at = [], 0
    for mask, c in comps:
        layout.append((mask, at, at + len(c)))
        at += len(c)
    return tuple(layout), np.concatenate([c for _, c in comps])


def _top_orders(sp: _JetSpace, c: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """From one pass over the nonzero rows of ``c``, per variable ``z_v``:
    the highest order of a nonzero coefficient whose row uses ``z_v`` (0 if
    none does), and the bitmask of the variables of ``dc/dz_v``: those that
    share a nonzero row with ``z_v``, and ``z_v`` itself if a nonzero row
    raises it to a power of 2 or more.  For a sample-minor stack ``(size,
    S)``, the highest orders and the unions over its samples.
    """
    at = np.flatnonzero(_nonzero_rows(c))
    bits = sp.bits
    uses = (bits[:, None] & sp.row_vars[at]) != 0
    top = (uses * sp.orders[at]).max(axis=1, initial=0)
    u = uses.astype(np.float32)  # a BLAS product: numpy's bool one is slow
    masks = ((u @ u.T) > 0) @ bits & ~bits | np.bitwise_or.reduce(
        sp.row_squares[at]) & bits
    return top, masks.tolist()


def _pow(sp: _JetSpace, c: np.ndarray, exponent: float) -> np.ndarray:
    """The power core: ``c**exponent`` on coefficient arrays of ``sp``'s
    layout, for one jet ``(size,)`` or a sample-minor stack ``(size, S)``.

    The series variable ``w`` is compacted once per call (:func:`_compact`),
    and every product of the series multiplies two arrays in its mask over
    the restricted triples of :meth:`_JetSpace.triples_within`, bitwise
    equal to full products.  Each product runs over the whole table: the
    N-body pair series, the only caller, works on tables of a few dozen to
    a hundred coefficients, well below ``_ORDER_SCAN_SIZE``.

    A stack runs one Horner chain for all its columns on the stacked
    :func:`_mul`.  Its mask is the union of the columns', which only adds
    products of a column's +-0 coefficients; the scales and divisions are
    elementwise, and the leading power ``c_0**exponent`` is taken per
    column in Python floats, as for one jet.  So each column is bitwise
    equal to the one-jet power.
    """
    a0 = c[0]
    if not a0.all():
        raise EvaluationDomainError("a jet power needs a nonzero constant term")
    if (a0 < 0.0).any() and exponent != round(exponent):
        raise EvaluationDomainError(
            "a jet power with non-integer exponent needs a positive constant term"
        )
    d = sp.degree
    # w has zero constant term, so w**k contributes only to orders >= k.
    # Adding a constant to element 0 alone keeps the bytes of adding a
    # zero-padded constant table: x + 0.0 is x bit for bit unless x is -0,
    # and a product, a ``bincount`` from +0, never holds -0.
    w = (1.0 / a0) * c
    w[0] -= 1.0
    # Horner evaluation of sum_k binom(exponent, k) w**k.  Every partial sum
    # uses only w's variables, so both operands of each product lie in its mask.
    mask, w = _compact(sp, w)
    coeffs = [1.0]
    for k in range(1, d + 1):
        coeffs.append(coeffs[-1] * (exponent - k + 1) / k)
    acc = np.zeros(c.shape)
    acc[0] = coeffs[d]
    for k in range(d - 1, -1, -1):
        acc = _mul(sp, acc, w, mask, mask)
        acc[0] += coeffs[k]
    if c.ndim == 1:
        return (float(a0) ** exponent) * acc
    return np.array([x ** exponent for x in a0.tolist()]) * acc


def jet_eval(a: TruncatedJet, x) -> float:
    """Evaluate the truncated expansion at the absolute point ``x``."""
    u = np.asarray(x, float) - a.base_point
    sp = _space(a.dim, a.degree)
    return float(a.coeffs @ sp.monomials(u))


def shift_base(a: TruncatedJet, new_base) -> TruncatedJet:
    """Re-expand about a new base point (see :func:`_shift`).

    Exact for polynomial data (coefficients above the polynomial's true degree
    all zero); for genuinely truncated jets the result silently drops the
    unknown tail like any other truncation.
    """
    new_base = np.asarray(new_base, float)
    sp = _space(a.dim, a.degree)
    c = _shift(sp, a.coeffs, new_base - a.base_point, sp.size)
    return TruncatedJet(a.dim, a.degree, new_base, c)


def _shift(sp: _JetSpace, c: np.ndarray, u: np.ndarray, size: int) -> np.ndarray:
    """The shift core: the first ``size`` coefficients about ``base + u`` of
    the polynomial whose coefficients about ``base`` are ``c``, in ``sp``'s
    layout, for one offset ``u`` of shape ``(dim,)`` or a sample-minor stack
    ``(dim, S)`` of them; ``(size,)`` or ``(size, S)``.

    Coefficient ``i`` is the sum over the :attr:`_JetSpace.triples`
    ``alpha_i + alpha_j = alpha_k`` of ``binom(alpha_k; alpha_i) * c_k *
    u**alpha_j``, in one ``bincount``.  The triples are i-major, so the rows
    below ``size`` take only the prefix with ``tri_i < size``, and each of
    their bins adds the same triples in the same order as on the whole
    table: a lower-degree jet is bitwise the truncated whole shift.

    A stack offsets ``tri_i`` to ``tri_i * S + s``, as :func:`_mul`
    offsets ``tri_k``, for one ``bincount``.  The weights run triple-major,
    so each bin adds its triples from +0 in one-point order, and the powers
    come from :meth:`_JetSpace.monomials` in the one-point layout: each
    column is bitwise equal to the one-point shift.
    """
    tri_i, tri_j, tri_k = sp.triples
    binom = sp.tri_binom
    if size < sp.size:
        n = tri_i.searchsorted(size)
        tri_i, tri_j, tri_k, binom = tri_i[:n], tri_j[:n], tri_k[:n], binom[:n]
    w = binom * c[tri_k]
    zpow = sp.monomials(u)
    if u.ndim == 1:
        return np.bincount(tri_i, w * zpow[tri_j], size)
    s = u.shape[1]
    at = (tri_i * s)[:, None] + np.arange(s)
    p = w[:, None] * zpow[tri_j]
    return np.bincount(at.ravel(), p.ravel(), size * s).reshape(size, s)


@lru_cache(maxsize=None)
def _embedding(dim: int, big_dim: int, positions: tuple, degree: int) -> np.ndarray:
    """Where :func:`embed_jet` places each coefficient, ranked once per
    argument tuple."""
    rows = np.zeros((table_size(dim, degree), big_dim), dtype=np.int64)
    rows[:, list(positions)] = _space(dim, degree).exps
    at = _space(big_dim, degree).rank(rows)
    at.flags.writeable = False
    return at


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
    c = np.zeros(table_size(big_dim, a.degree))
    c[_embedding(a.dim, big_dim, tuple(positions), a.degree)] = a.coeffs
    return TruncatedJet(big_dim, a.degree, base_point, c)


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

    @cached_property
    def compact(self) -> tuple[tuple[int | None, np.ndarray], ...]:
        """Per component, its :func:`_compact` ``(mask, coeffs)``."""
        sp = _space(self.dim, self.degree)
        return tuple(_compact(sp, c.coeffs) for c in self.components)

    @cached_property
    def joined(self) -> tuple[tuple, np.ndarray]:
        """The components :attr:`compact`, concatenated by :func:`_join`."""
        return _join(self.compact)

    @property
    def masks(self) -> tuple[int | None, ...]:
        """Per component, its variables' bitmask (``None``: all of them)."""
        return tuple(mask for mask, _ in self.compact)

    def values(self) -> np.ndarray:
        """Field value at the base point (constant terms)."""
        return np.array([c.value for c in self.components])

    def truncated(self, degree: int) -> "JetField":
        """The field's jets to ``degree``, at most its own: each
        component's coefficient prefix."""
        if degree > self.degree:
            raise DegreeDeficitError(
                f"cannot truncate degree-{self.degree} field up to degree {degree}")
        if degree == self.degree:
            return self
        n = table_size(self.dim, degree)
        return JetField(tuple(TruncatedJet(c.dim, degree, c.base_point, c.coeffs[:n])
                              for c in self.components))

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "degree": self.degree,
            "base": [float(x) for x in self.base_point],
            "components": [c.to_json_dict() for c in self.components],
        }
