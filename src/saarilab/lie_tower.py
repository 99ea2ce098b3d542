"""Iterated Lie derivatives and the derivative-tower obstruction map.

For a vector field ``X`` and scalar observable ``F`` on an open set of R^n,
the tower map collects the first ``m`` time-derivatives of ``F`` along the
flow of ``X`` at a point ``z``::

    Psi(z) = (L_X F(z), L_X^2 F(z), ..., L_X^m F(z)),
    L_X F = sum_i (dF/dz_i) * X^i.

``Psi(z) = 0`` is the obstruction to ``F`` being constant along the orbit
through ``z`` (to order ``m``).  Everything runs on exact truncated jet
arithmetic.  Both tower Jacobians are exact to roundoff.  The tower is
linear in the observable: entry ``k`` is ``<w_k, f>`` on its coefficients
``f``, with ``w_0 = e_0`` and ``w_k = L^T w_{k-1}``, so the observable
Jacobian takes ``m`` transposed Lie sweeps, about one tower's cost, however
many columns it has.  The field Jacobian builds the chain ``L_X^k F`` and
its partials once, on coefficient arrays, and propagates tangents through
it, one tangent chain per column.  It is cross-checked against closed-form
structural entries: in partial-derivative coordinates,

    dPsi_k / dF_{j..j}   = (X^j(z))**k          (k repetitions),
    dPsi_k / dX^i_{j..j} = F_i(z) (X^j(z))**(k-1)   (k-1 repetitions),

because the highest-order partials enter each tower entry linearly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    CombinabilityError,
    DegreeDeficitError,
    InternalConsistencyError,
    SingularityError,
    _check_count,
    _finite,
)
from .fields import field_coeffs, observable_coeffs, observable_grads, _check_handles
from .jet_algebra import (
    JetField,
    TruncatedJet,
    table_size,
    _compact,
    _join,
    _product,
    _space,
    _stack,
    _top_orders,
    _BLOCK_ELEMENTS,
    _FUSED_TRIPLES,
    _ORDER_SCAN_SIZE,
)
from .mech import _chart_jets, _jacobi_tower

__all__ = [
    "SaariVector",
    "RankReport",
    "JacobianResult",
    "ObstructionSample",
    "lie_derivative",
    "psi_tower",
    "dpsi_wrt_F",
    "dpsi_wrt_X",
    "obstruction_at",
    "default_tower_order",
    "RANK_THRESHOLD",
    "STRUCTURAL_TOL",
]

#: Relative singular-value cutoff for numerical rank.
RANK_THRESHOLD = 1e-8
#: Allowed relative deviation of the field Jacobian's entries from the
#: closed-form structural entries before the Jacobian is rejected.
STRUCTURAL_TOL = 1e-6


def default_tower_order(n: int) -> int:
    """Default tower order for an n-dimensional phase space."""
    return n + 1


@dataclass(frozen=True)
class SaariVector:
    """The tower values ``(L_X F(z), ..., L_X^m F(z))``."""

    values: np.ndarray
    order: int
    base_point: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, float)
        base = np.asarray(self.base_point, float)
        if vals.shape != (self.order,):
            raise ValueError(f"tower of order {self.order} needs {self.order} values")
        vals.flags.writeable = False
        base.flags.writeable = False
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "base_point", base)

    @property
    def norm_inf(self) -> float:
        return float(np.max(np.abs(self.values)))

    def to_json_dict(self) -> dict:
        return {
            "order": self.order,
            "base_point": [float(x) for x in self.base_point],
            "values": [float(v) for v in self.values],
            "norm_inf": self.norm_inf,
        }


@dataclass(frozen=True)
class RankReport:
    """SVD-based rank diagnostic for a tower Jacobian."""

    singular_values: np.ndarray
    numerical_rank: int
    threshold: float
    full_rank_expected: int
    submersion: bool

    def __post_init__(self):
        sv = np.asarray(self.singular_values, float)
        sv.flags.writeable = False
        object.__setattr__(self, "singular_values", sv)

    def to_json_dict(self) -> dict:
        return {
            "singular_values": [float(s) for s in self.singular_values],
            "numerical_rank": int(self.numerical_rank),
            "threshold": float(self.threshold),
            "full_rank_expected": int(self.full_rank_expected),
            "submersion": bool(self.submersion),
        }


def _rank_report(matrix: np.ndarray, full_rank_expected: int,
                 threshold: float) -> RankReport:
    sv = np.linalg.svd(matrix, compute_uv=False)  # in descending order
    top = sv[0] if sv.size else 0.0
    rank = int(np.sum(sv > threshold * top)) if top > 0.0 else 0
    return RankReport(
        singular_values=sv,
        numerical_rank=rank,
        threshold=threshold,
        full_rank_expected=full_rank_expected,
        submersion=rank == full_rank_expected,
    )


@dataclass(frozen=True)
class JacobianResult:
    """A tower Jacobian with its rank diagnostic and context norms.

    ``matrix`` rows are tower entries 1..m; columns are jet coefficients in
    partial-derivative coordinates (graded-lex order; for the field Jacobian,
    component index varies fastest within each multi-index).
    """

    matrix: np.ndarray
    rank_report: RankReport
    x_norm: float
    structural_deviation: float | None = None

    def __post_init__(self):
        m = np.asarray(self.matrix, float)
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class ObstructionSample:
    """Tower evaluation at one phase point with exclusion flags."""

    z: np.ndarray
    psi: SaariVector
    norm_inf: float
    is_near_equilibrium: bool
    is_near_F_critical: bool
    tol_eq: float
    tol_crit: float

    def __post_init__(self):
        z = np.asarray(self.z, float)
        z.flags.writeable = False
        object.__setattr__(self, "z", z)

    @property
    def excluded(self) -> bool:
        return self.is_near_equilibrium or self.is_near_F_critical

    def to_json_dict(self) -> dict:
        return {
            "z": [float(x) for x in self.z],
            "psi": [float(v) for v in self.psi.values],
            "norm_inf": float(self.norm_inf),
            "is_near_equilibrium": bool(self.is_near_equilibrium),
            "is_near_F_critical": bool(self.is_near_F_critical),
            "tol_eq": float(self.tol_eq),
            "tol_crit": float(self.tol_crit),
        }


def lie_derivative(f: TruncatedJet, x: JetField) -> TruncatedJet:
    """``L_X F = sum_i (dF/dz_i) X^i`` as a jet one degree lower than ``f``.

    A degree-0 observable carries no derivative information and maps to the
    zero jet of degree 0.  The operands are checked once, and the step runs
    on their coefficient arrays (see :func:`_lie_step`), with the field's
    components concatenated once per field (:attr:`JetField.joined`).  Its
    one library caller is the column loop of :func:`dpsi_wrt_X`; it stays
    public also because the benchmark's tracer counts its calls by module
    attribute.
    """
    _check_operands(f, x)
    if f.degree == 0:
        return TruncatedJet.zero(f.dim, 0, f.base_point)
    if x.degree < f.degree - 1:
        raise DegreeDeficitError(
            f"field degree {x.degree} cannot support a degree-{f.degree} observable"
        )
    c = _lie_step(f.dim, f.degree, f.coeffs, x.joined)
    return TruncatedJet(f.dim, f.degree - 1, f.base_point, c)


def _lie_step(dim: int, degree: int, f: np.ndarray, field) -> np.ndarray:
    """``L_X F`` on coefficient arrays: ``f`` of the ``(dim, degree)``
    layout and ``field`` the :func:`~saarilab.jet_algebra._join` ``(layout,
    coeffs)`` of the components ``X^i``, each on its mask's table to degree
    at least ``degree - 1`` (:attr:`JetField.joined`).  Returns the degree
    ``degree - 1`` coefficients.

    Each term is a partial times a component, each product on its
    component's mask (see :class:`~saarilab.jet_algebra._JetSpace`), and
    only the sum is formed, in conjugate pairs ``(z_0, z_h), (z_1,
    z_{h+1}), ...`` for an even ``dim = 2h``, else in component order.  On
    a Hamiltonian field pair ``c`` is the Poisson-bracket term ``dF/dq_c *
    p_c/m_c + dF/dp_c * (-dV/dq_c)``.  For ``F = H`` its two products read
    the same floats, and each bin gets at most one nonzero product from
    each, as ``p_c/m_c`` is linear: the pair sums to +0 exactly, and so
    does ``L_X H``; in component order the rounding would not cancel.

    On tables of at least ``_ORDER_SCAN_SIZE`` coefficients, one scan of
    ``f`` (:func:`~saarilab.jet_algebra._top_orders`) gives the highest
    order ``top_i`` at which it uses each ``z_i`` and the variables of
    each partial ``dF/dz_i``.  Only the partial's prefix up to order
    ``top_i - 1`` is gathered, and its product runs over the rows of the
    smallest component table that holds its variables, or every row (see
    :meth:`~saarilab.jet_algebra._JetSpace.triples_within`): a table
    caches triple sets for pairs of component masks, not one per variable
    set.  A component whose
    partial is zero is skipped.  Every triple, order and term left out
    multiplies or adds +-0, so the sum keeps its bits.  On smaller tables
    the scan would cost more than it saves.

    The terms run fused, over the cached plan of :func:`_step_plan`: per
    chunk, one gather and scale of its partials, then one
    :func:`~saarilab.jet_algebra._product` of them and the joined
    components into a block of one output table per term
    (:func:`_chunk_product`).  Term
    ``t``'s table sums its triples from +0 in their order, as a product of
    its own would, and the tables are added in the order above, so the
    step is bitwise the sum of per-term products.

    ``f`` and the components may instead be sample-minor stacks ``(coeffs,
    S)``, each mask the union of the samples' masks, and the scan's results
    the highest and the unions over the samples: each sample's column is
    bitwise its own step, by the same argument.
    """
    sp, low = _space(dim, degree), _space(dim, degree - 1)
    layout, comps = field
    scan = None
    if sp.size >= _ORDER_SCAN_SIZE:
        top, used = _top_orders(sp, f)
        tables = sorted({mask for mask, _, _ in layout if mask is not None},
                        key=int.bit_count)
        cover = {u: next((t for t in tables if not u & ~t), None)
                 for u in set(used)}
        scan = tuple((low.prefix[t - 1], cover[u]) if t else None
                     for t, u in zip(top.tolist(), used))
    plan = low.plans.get((layout, scan))
    if plan is None:
        plan = _step_plan(low, layout, scan)
    out, size = None, low.size
    for chunk in plan:
        block = _chunk_product(low, chunk, f, comps)
        for at in range(0, len(block), size):
            row = block[at:at + size]
            out = row if out is None else np.add(out, row, out)
    if out is None:
        out = np.zeros((size,) + f.shape[1:])
    return out


def _chunk_product(low, chunk, f: np.ndarray, comps: np.ndarray) -> np.ndarray:
    """One chunk of :func:`_lie_step`: its terms' products, each
    ``low.size`` rows of the block one after the other, shape ``(terms *
    low.size,)`` or ``(terms * low.size, S)`` for stacks, in one
    :func:`~saarilab.jet_algebra._product` of its partials and its
    components."""
    rows, src, scale, gather, lo, hi, c_at, bins = chunk
    part = f[src]
    part *= scale if f.ndim == 1 else scale[:, None]
    return _product(bins, rows * low.size, part, gather, comps[lo:hi], c_at)


def _lie_step_t(dim: int, degree: int, w: np.ndarray, field) -> np.ndarray:
    """The transpose of :func:`_lie_step`: the degree-``degree``
    coefficients ``r`` with ``<w, L_X f> = <r, f>`` for every ``f``, from
    ``w`` of the ``(dim, degree - 1)`` layout and ``field`` as there.

    Term ``t`` of a chunk of the step sums ``partial[gather] *
    comp[c_at]`` into bin ``bins``, so its transpose sums ``w[k] *
    comp[c_at]`` into bin ``gather``, with ``k = bins - t * size``: one
    :func:`~saarilab.jet_algebra._product` per chunk of the step's plan for
    whole partials (:func:`_step_plan`), gathering ``w`` at the step's
    bins, which wrap to ``k``.  Each bin sums its triples from +0 in their
    order.
    The partials' gather moves coefficient ``a`` to ``src[a]``, an
    injective map per term, times ``scale[a]``, so each block times
    ``scale`` is added back at ``src`` by ``np.add.at``, one index after the
    other: each coefficient adds its terms in the step's order.
    """
    sp, low = _space(dim, degree), _space(dim, degree - 1)
    layout, comps = field
    out = np.zeros(sp.size)
    plan = low.plans.get((layout, None))
    if plan is None:
        plan = _step_plan(low, layout, None)
    for rows, src, scale, gather, lo, hi, c_at, bins in plan:
        v = _product(gather, rows * low.size, w, bins, comps[lo:hi], c_at)
        v *= scale
        np.add.at(out, src, v)
    return out


def _step_plan(low, layout, scan) -> tuple:
    """The chunks of a Lie step into ``low``'s table, cached in
    :attr:`~saarilab.jet_algebra._JetSpace.plans` per field ``layout`` and
    order ``scan`` (per component ``(prefix, a_mask)`` of its partial, or
    ``None`` to skip it; ``scan=None`` for whole partials, the plan the
    transpose :func:`_lie_step_t` reads too).

    The callers look the plan up themselves first, which saves a call on
    small tables.  The kept terms, in :func:`_term_order`, are packed into
    chunks of at most ``_BLOCK_ELEMENTS // low.size`` terms and, past the
    first term, ``_FUSED_TRIPLES`` triples: a chunk of several terms copies
    its triples, and a term of more triples, whose arithmetic outweighs its
    calls, runs alone.

    A chunk is ``(rows, src, scale, gather, lo, hi, c_at, bins)``: its
    partials are ``f[src] * scale``, term ``t``'s behind the earlier terms'
    prefixes, its components ``coeffs[lo:hi]``, and triple ``(i, j, k)`` of
    term ``t`` gathers ``i`` plus its partial's offset and ``j`` plus its
    component's, into bin ``t * low.size + k``.  A one-term chunk holds
    views of the cached triple set and of the differentiation gathers.
    """
    sp = _space(low.dim, low.degree + 1)
    terms = []  # (i, partial prefix, tri_i, tri_j, tri_k) per kept term
    for i in _term_order(low.dim):
        n, a_mask = (low.size, None) if scan is None else scan[i] or (0, None)
        if n:
            tri = low.triples_within(layout[i][0], a_mask)
            if n < low.size:
                tri = tuple(t[:tri[0].searchsorted(n)] for t in tri)
            terms.append((i, n, *tri))
    chunks = []
    for term in terms:
        if (chunks and (len(chunks[-1]) + 1) * low.size <= _BLOCK_ELEMENTS
                and triples + len(term[2]) <= _FUSED_TRIPLES):
            chunks[-1].append(term)
            triples += len(term[2])
        else:
            chunks.append([term])
            triples = len(term[2])
    plan = []
    for chunk in chunks:
        index, prefix, tri_i, tri_j, tri_k = zip(*chunk)
        rows = [t * low.size for t in range(len(chunk))]
        lo = min(layout[i][1] for i in index)
        hi = max(layout[i][2] for i in index)
        c_at = _concat(tri_j, [layout[i][1] - lo for i in index])
        starts = np.cumsum((0,) + prefix[:-1]).tolist()
        plan.append((len(chunk),
                     _concat([sp.diff_src[i][:n] for i, n in zip(index, prefix)]),
                     _concat([sp.diff_scale[i][:n] for i, n in zip(index, prefix)]),
                     _concat(tri_i, starts), lo, hi, c_at, _concat(tri_k, rows)))
    plan = low.plans[layout, scan] = tuple(plan)
    return plan


def _concat(arrays, offsets=None) -> np.ndarray:
    """The ``arrays``, each plus its offset (none: 0), concatenated; a
    single array with offset 0 is returned as it is, a view and no copy."""
    offsets = offsets or [0] * len(arrays)
    if len(arrays) == 1 and not offsets[0]:
        return arrays[0]
    return np.concatenate([a + off if off else a for a, off in zip(arrays, offsets)])


@lru_cache(maxsize=None)
def _term_order(dim: int) -> tuple[int, ...]:
    """:func:`_lie_step`'s order of terms, once per ``dim``."""
    h = dim // 2
    return (tuple(range(dim)) if dim % 2
            else tuple(i for c in range(h) for i in (c, h + c)))


def _tower(dim: int, m: int, g: np.ndarray, comps):
    """The first ``m`` iterated Lie derivatives' values from the degree-``m``
    coefficients ``g`` and the field's :func:`~saarilab.jet_algebra._compact`
    components ``comps``, joined once for the chain (see :func:`_lie_step`),
    for one sample (1-D arrays) or a sample-minor stack.

    Returns the values, shape ``(m,)`` or ``(m, S)``, and per sample whether
    every coefficient of its chain stayed finite.  A sample that overflowed
    keeps to its own column, so the others' values are unaffected.  A step
    that is zero everywhere, as for a conserved energy, ends the chain:
    every later step is +0.
    """
    field = _join(comps)
    values = np.zeros((m,) + g.shape[1:])
    finite = np.ones(g.shape[1:], dtype=bool)
    for k in range(m):
        g = _lie_step(dim, m - k, g, field)
        finite &= np.isfinite(g).all(axis=0)
        values[k] = g[0]
        if not g.any():
            break
    return values, finite


def _check_operands(f: TruncatedJet, x: JetField) -> None:
    if x.dim != f.dim:
        raise CombinabilityError(f"field dim {x.dim} != jet dim {f.dim}")
    if not np.array_equal(x.base_point, f.base_point):
        raise CombinabilityError("field and observable expanded at different points")


def _check_tower_order(m: int) -> None:
    _check_count(m, "tower order")


def _check_field_degree(x: JetField, m: int) -> None:
    if x.degree < m - 1:
        raise DegreeDeficitError(
            f"field jet degree {x.degree} < required {m - 1} for tower order {m}"
        )


def _check_tower_inputs(f: TruncatedJet, x: JetField, m: int) -> None:
    _check_tower_order(m)
    if f.degree < m:
        raise DegreeDeficitError(
            f"observable jet degree {f.degree} < tower order {m}"
        )
    _check_field_degree(x, m)
    _check_operands(f, x)


def psi_tower(f: TruncatedJet, x: JetField, m: int) -> SaariVector:
    """First ``m`` iterated Lie derivatives of ``f`` along ``x`` at the base point.

    The one-sample case of the tower chain that
    :func:`~saarilab.genericity.obstruction_scan` runs on groups of
    samples.  A chain that overflows raises ValueError.
    """
    _check_tower_inputs(f, x, m)
    values, finite = _tower(f.dim, m, f.coeffs[:_space(f.dim, m).size], x.compact)
    if not finite:
        raise ValueError("jet coefficients must be finite")
    return SaariVector(values=values, order=m, base_point=f.base_point)


def dpsi_wrt_F(
    x: JetField,
    m: int | None = None,
    threshold: float = RANK_THRESHOLD,
) -> JacobianResult:
    """Exact Jacobian of the tower with respect to the observable's jet.

    Columns are the degree-``m`` coefficients in partial-derivative
    coordinates, constant term excluded (constants never move the tower);
    expected full rank is ``m``.  The tower is linear in ``F``: entry ``k``
    is ``<w_k, f>`` on the coefficients ``f``, with ``w_0 = e_0`` and ``w_k
    = L_t(w_{k-1})`` (:func:`_lie_step_t`), so the ``m`` rows take ``m``
    transposed sweeps of the degree-``m`` step, not one tower per column.
    Each sweep starts from the ``(n, m - 1)`` prefix of the last ``w``:
    entry ``k - 1`` reads no order above ``k - 1`` of its argument, and the
    degree-``m`` step's output up to order ``d - 1`` is the degree-``d``
    step's, so the truncation is exact.  Row ``k`` is ``w_k`` over the
    coefficients' factorials.  A chain that overflows raises ValueError.
    """
    if m is None:
        m = default_tower_order(x.dim)
    _check_tower_order(m)
    _check_field_degree(x, m)
    n = x.dim
    sp, low = _space(n, m), _space(n, m - 1)
    matrix = np.empty((m, sp.size - 1))
    w = np.zeros(low.size)
    w[0] = 1.0
    for k in range(m):
        w = _lie_step_t(n, m, w, x.joined)
        matrix[k] = w[1:] / sp.factorials[1:]
        w = w[:low.size]
    if not np.isfinite(matrix).all():
        raise ValueError("jet coefficients must be finite")
    report = _rank_report(matrix, full_rank_expected=m, threshold=threshold)
    return JacobianResult(
        matrix=matrix,
        rank_report=report,
        x_norm=float(np.linalg.norm(x.values())),
    )


def dpsi_wrt_X(
    f: TruncatedJet,
    x: JetField,
    m: int | None = None,
    method: str = "exact",
    threshold: float = RANK_THRESHOLD,
) -> JacobianResult:
    """Exact Jacobian of the tower with respect to the field's jet coefficients.

    Coefficients of orders ``0..m-1`` of every component enter, in
    partial-derivative coordinates; columns are ordered by multi-index
    (graded-lex), component fastest.  Tangents are propagated through the
    tower: with ``g_k = L_X^k F`` and a perturbation ``xdot`` of ``X^i``,
    ``gdot_{k+1} = L_X gdot_k + (d_i g_k) xdot`` and ``gdot_0 = 0``, and row
    ``k`` holds the value of ``gdot_k``.  The tower is polynomial in the
    coefficients, so this is exact to roundoff.  ``method`` accepts only
    ``"exact"``.  A chain that overflows raises ValueError.

    The entries that the closed form pins — in row ``k``, the columns of the
    pure-power coefficients ``X^i_{j..j}`` with ``k-1`` repetitions — are
    compared against ``F_i(z) (X^j(z))**(k-1)``; a relative deviation beyond
    ``STRUCTURAL_TOL`` raises :class:`InternalConsistencyError`.
    """
    if m is None:
        m = default_tower_order(x.dim)
    _check_tower_inputs(f, x, m)
    if method != "exact":
        raise ValueError(f"unknown method {method!r}")
    n = x.dim
    x_work = x.truncated(m - 1)
    spx = _space(n, m - 1)
    # The chain g_k = L_X^k F, of degree m - k, and its partials do not
    # depend on the column.
    chain = [f.coeffs[:table_size(n, m)]]
    for k in range(1, m):
        chain.append(_lie_step(n, m - k + 1, chain[-1], x_work.joined))
    if not all(np.isfinite(g).all() for g in chain):
        raise ValueError("jet coefficients must be finite")
    partials = []
    for k, g in enumerate(chain):
        sp = _space(n, m - k)
        partials.append([g[sp.diff_src[i]] * sp.diff_scale[i] for i in range(n)])
    spaces = [_space(n, m - k - 1) for k in range(m)]
    zero = TruncatedJet.zero(n, m, f.base_point)
    matrix = np.empty((m, n * spx.size))
    for t in range(spx.size):
        # xdot = e_t / alpha_t!, so a tangent term moves each coefficient
        # alpha of the partial to alpha + alpha_t, times 1 / alpha_t!.  A
        # product sums that value and +-0 from +0: at most the sign of a
        # zero differs, and the Lie term it is added to is never -0.
        order, scale = int(spx.orders[t]), 1.0 / float(spx.factorials[t])
        shifted = spx.rank(spx.exps[:spx.prefix[m - 1 - order]] + spx.exps[t])
        moved = [sp.prefix[sp.degree - order] if sp.degree >= order else 0
                 for sp in spaces]
        for i in range(n):
            gdot = zero
            for k, sp in enumerate(spaces):
                tang = np.zeros(sp.size)
                tang[shifted[:moved[k]]] = partials[k][i][:moved[k]] * scale
                gdot = TruncatedJet(n, sp.degree, f.base_point,
                                    lie_derivative(gdot, x_work).coeffs + tang)
                matrix[k, t * n + i] = gdot.value

    x_vals = x_work.values()
    grad_f = chain[0][n:0:-1]
    deviation = _structural_check(matrix, spx, x_vals, grad_f, m, n)
    if deviation > STRUCTURAL_TOL:
        raise InternalConsistencyError(
            f"tower Jacobian deviates from structural entries by {deviation:.3e} "
            f"(tolerance {STRUCTURAL_TOL:.1e})"
        )
    report = _rank_report(matrix, full_rank_expected=m, threshold=threshold)
    return JacobianResult(
        matrix=matrix,
        rank_report=report,
        x_norm=float(np.linalg.norm(x_vals)),
        structural_deviation=float(deviation),
    )


def _structural_check(matrix, spx, x_vals, grad_f, m, n) -> float:
    """Max relative deviation of the closed-form entries of the field Jacobian."""
    worst = 0.0
    for k in range(1, m + 1):
        reps = k - 1
        if reps > spx.degree:
            break
        for j in range(n):
            alpha = np.zeros(n, dtype=np.int64)
            alpha[j] = reps
            t = int(spx.rank(alpha))
            base = x_vals[j] ** reps
            for i in range(n):
                exact = grad_f[i] * base
                got = matrix[k - 1, t * n + i]
                dev = abs(got - exact) / max(1.0, abs(exact))
                worst = max(worst, dev)
            if reps == 0:
                break  # alpha is the same for every j at order zero
    return worst


def obstruction_at(
    F,
    X,
    z,
    m: int,
    tol_eq: float = 1e-9,
    tol_crit: float = 1e-9,
) -> ObstructionSample:
    """Evaluate the tower at ``z`` from observable/field handles.

    The handles bring their exact jets (see :mod:`saarilab.fields`), else
    :class:`ConfigError` before ``X(z)`` is evaluated.  The first tower
    entry is cross-checked against an independent ``<grad F(z), X(z)>``
    evaluation whenever the observable carries an analytic gradient.  The
    one-sample case of :func:`_obstructions`.  ``tol_eq`` and ``tol_crit``
    must be finite numbers > 0, else :class:`ConfigError`.
    """
    tol_eq = _finite(tol_eq, "tol_eq", 0.0, strict=True)
    tol_crit = _finite(tol_crit, "tol_crit", 0.0, strict=True)
    values, near_eq, near_crit, singular = _obstructions(
        F, X, [z], m, tol_eq, tol_crit)
    if singular:
        raise singular[0]
    psi = SaariVector(values=values[:, 0], order=m, base_point=z)
    return ObstructionSample(
        z=z, psi=psi, norm_inf=psi.norm_inf,
        is_near_equilibrium=bool(near_eq[0]),
        is_near_F_critical=bool(near_crit[0]), tol_eq=tol_eq, tol_crit=tol_crit)


def _obstructions(F, X, points, m: int, tol_eq: float, tol_crit: float):
    """The towers of a group of ``points`` (one per row) from one set of
    jet stacks and one tower chain (:func:`_tower`): ``(values, near_eq,
    near_crit, singular)``, one column of ``values`` per point (NaN if
    singular), the flags ``|X(z)| < tol_eq`` and ``|grad F(z)| < tol_crit``
    per point, and ``{point: SingularityError}``.

    The handles are checked first (:func:`~saarilab.fields._check_handles`),
    then ``X(z)`` is evaluated at each point, so a collision fails before
    any jet is built.  The other points' jets are sample-minor stacks
    ``(coeffs, S)`` (:func:`~saarilab.fields.observable_coeffs`,
    :func:`~saarilab.fields.field_coeffs`), or plain arrays for one point,
    and every kernel runs each column in one-point arithmetic and order
    (see :mod:`saarilab.fields`), so each point's values are bitwise its
    own.  A translation-invariant system's energy or inertia along its
    Hamiltonian field builds its jets and runs its chain on the system's
    Jacobi chart instead (:func:`~saarilab.mech._jacobi_tower`,
    :func:`~saarilab.mech._chart_jets`), whose towers are the same
    functions with fewer variables; every other pair
    of handles runs on the Cartesian chart.  Should a stack raise
    :class:`SingularityError` (an observable singular where the field is
    not), the points run one at a time.  On the group's arrays, for the
    first failing point, the chain must have stayed finite (else
    ValueError, as :func:`psi_tower` raises) and the first entry must
    match ``<grad F, X>`` (gradients from
    :func:`~saarilab.fields.observable_grads`).  The flags, the gradients
    and ``X(z)`` are Cartesian on either chart: ``|grad F|`` is read from
    the observable's jet, or on the Jacobi chart from those gradients.
    Each norm is summed in a one-row layout, so no flag depends on the
    group.
    """
    _check_tower_order(m)
    points = np.asarray(points, float)
    _check_handles(F, X, points.shape[-1])
    values = np.full((m, len(points)), np.nan)
    near_eq, near_crit = np.zeros((2, len(points)), dtype=bool)
    singular, kept, x_vals = {}, [], []
    for k, z in enumerate(points):
        try:
            x_vals.append(np.asarray(X(z), float))
            kept.append(k)
        except SingularityError as e:
            singular[k] = e
    if not kept:
        return values, near_eq, near_crit, singular
    zs = _stack(list(points[kept]))
    route = _jacobi_tower(F, X)
    try:
        if route is None:
            n, g = len(zs), observable_coeffs(F, zs, m)
            comps = field_coeffs(X, zs, m - 1)
        else:
            n, g, comps = _chart_jets(*route, zs, m)
    except SingularityError as e:
        if len(kept) == 1:
            singular[kept[0]] = e
            return values, near_eq, near_crit, singular
        for k in kept:
            values[:, k:k + 1], near_eq[k:k + 1], near_crit[k:k + 1], sing = (
                _obstructions(F, X, points[k:k + 1], m, tol_eq, tol_crit))
            singular.update((k, err) for err in sing.values())
        return values, near_eq, near_crit, singular
    spx = _space(n, m - 1)
    comps = [_compact(spx, c, mask) for mask, c in comps]
    if not (np.isfinite(g).all() and all(np.isfinite(c).all() for _, c in comps)):
        raise ValueError("jet coefficients must be finite")
    vals, finite = _tower(n, m, g, comps)
    vals, bad = vals.reshape(m, -1), ~finite.reshape(-1)
    x_vals = np.array(x_vals)

    def rows(a):  # one point per row, contiguous: each row's sums alike
        return np.ascontiguousarray(a.reshape(len(a), -1).T)

    grads = rows(observable_grads(F, zs)) if hasattr(F, "grad") else None
    if grads is not None:
        dot = np.add.reduce(grads * x_vals, axis=1)
        scale = np.maximum(np.maximum(1.0, np.abs(vals[0])), np.abs(dot))
        bad |= np.abs(vals[0] - dot) > 1e-12 * scale
    if bad.any():
        k = int(np.argmax(bad))
        if not finite.reshape(-1)[k]:
            raise ValueError("jet coefficients must be finite")
        raise InternalConsistencyError(
            f"first tower entry {float(vals[0, k])!r} disagrees with "
            f"<grad F, X> = {float(dot[k])!r}")
    values[:, kept] = vals
    near_eq[kept] = np.linalg.norm(x_vals, axis=1) < tol_eq
    near_crit[kept] = np.linalg.norm(
        rows(g[n:0:-1]) if route is None else grads, axis=1) < tol_crit
    return values, near_eq, near_crit, singular
