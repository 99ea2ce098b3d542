"""Truncated-jet arithmetic against hand-computed and closed-form oracles."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saarilab.errors import (
    CombinabilityError,
    DegreeDeficitError,
    EvaluationDomainError,
)
from saarilab.jet_algebra import (
    TruncatedJet,
    embed_jet,
    jet_eval,
    jet_mul,
    shift_base,
    table_size,
)
from saarilab.jet_algebra import _mul, _space, _top_orders, _variable_mask
from saarilab.fields import random_polynomial_observable, stream_rng

from oracles import (
    MAX_SAMPLE_DEGREE,
    jet_add,
    jet_from_samples,
    jet_pad,
    jet_partial,
    jet_pow,
    jet_pow_full,
    jet_scale,
    jet_truncate,
    partials_from_jet,
    shift_by_triples,
)


def _jet(dim, degree, base, entries):
    return TruncatedJet.from_coeffs(dim, degree, base, entries)


# -- multi-indices and table layout ----------------------------------------------


def test_table_size_matches_binomial():
    # C(dim + degree, degree)
    assert table_size(1, 3) == 4
    assert table_size(2, 3) == 10
    assert table_size(3, 2) == 10
    assert table_size(4, 0) == 1


def test_space_tables_are_prefix_stable():
    # the degree-2 table is a prefix of the degree-4 table
    small = _space(3, 2)
    big = _space(3, 4)
    assert np.array_equal(big.exps[: small.size], small.exps)
    # and every order-k block ends at the tabulated prefix boundary
    for k in range(5):
        assert (big.exps[: big.prefix[k]].sum(axis=1) <= k).all()
        assert (big.exps[big.prefix[k]:].sum(axis=1) > k).all()


def _reference_layout(dim, degree):
    """Graded-lex exponent tuples sorted by (order, tuple), and their index."""
    alphas = []
    for k in range(degree + 1):
        for axes in itertools.combinations_with_replacement(range(dim), k):
            alphas.append(tuple(axes.count(i) for i in range(dim)))
    alphas.sort(key=lambda a: (sum(a), a))
    return alphas, {a: i for i, a in enumerate(alphas)}


def _reference_tables(dim, degree):
    """The per-triple loop the tables were first built with, kept as the oracle."""
    alphas, index = _reference_layout(dim, degree)
    factorials = np.array(
        [math.prod(math.factorial(e) for e in a) for a in alphas], dtype=float)
    prefix = [math.comb(dim + k, k) for k in range(degree + 1)]
    tri_i, tri_j, tri_k = [], [], []
    for i, a in enumerate(alphas):
        for j in range(prefix[degree - sum(a)]):
            tri_i.append(i)
            tri_j.append(j)
            tri_k.append(index[tuple(x + y for x, y in zip(a, alphas[j]))])
    tri_i = np.array(tri_i, dtype=np.intp)
    tri_j = np.array(tri_j, dtype=np.intp)
    tri_k = np.array(tri_k, dtype=np.intp)
    tri_binom = factorials[tri_k] / (factorials[tri_i] * factorials[tri_j])
    diff_src, diff_scale = [], []
    if degree >= 1:
        for axis in range(dim):
            src = np.empty(prefix[degree - 1], dtype=np.intp)
            scale = np.empty(prefix[degree - 1], dtype=float)
            for t in range(prefix[degree - 1]):
                a = list(alphas[t])
                a[axis] += 1
                src[t] = index[tuple(a)]
                scale[t] = a[axis]
            diff_src.append(src)
            diff_scale.append(scale)
    return {"alphas": alphas, "index": index,
            "exps": np.array(alphas, dtype=np.int64).reshape(len(alphas), dim),
            "factorials": factorials, "tri_i": tri_i, "tri_j": tri_j,
            "tri_k": tri_k, "tri_binom": tri_binom, "diff_src": diff_src,
            "diff_scale": diff_scale}


def _same_array(got, want):
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


@pytest.mark.parametrize("dim,degree", [(1, 0), (1, 5), (2, 3), (3, 4), (4, 5),
                                        (6, 7), (8, 5), (12, 4)])
def test_space_tables_equal_the_reference_loop(dim, degree):
    # jet_mul and shift_base sum the triples with bincount in table order, so
    # the arrays must agree in value, dtype and order, not only as sets
    sp = _space(dim, degree)
    ref = _reference_tables(dim, degree)
    for name in ("exps", "factorials", "tri_binom"):
        assert _same_array(getattr(sp, name), ref[name]), name
    for name, got in zip(("tri_i", "tri_j", "tri_k"), sp.triples):
        assert _same_array(got, ref[name]), name
    for name in ("diff_src", "diff_scale"):
        got, want = getattr(sp, name), ref[name]
        assert len(got) == len(want) == (dim if degree >= 1 else 0)
        assert all(_same_array(g, w) for g, w in zip(got, want)), name
    assert _same_array(sp.rank(sp.exps), np.arange(sp.size, dtype=np.intp))
    assert [int(sp.rank(np.array(a))) for a in ref["alphas"]] == [
        ref["index"][a] for a in ref["alphas"]]
    # any leading shape: rank works row by row
    grid = sp.exps[::-1].reshape(1, sp.size, dim)
    assert np.array_equal(sp.rank(grid), np.arange(sp.size)[::-1][None, :])


def test_jet_requires_matching_table():
    with pytest.raises(ValueError):
        TruncatedJet(2, 2, np.zeros(2), np.zeros(5))  # size should be 6


# -- constructors and accessors --------------------------------------------------


def test_hand_expanded_quadratic():
    # f(x, y) = x^2 y at (1, 2): f=2, fx=4, fy=1, fxx=4, fxy=2, fyy=0,
    # fxxy=2, fxxx=0, ...; coefficients are partials over factorials
    f = _jet(2, 3, (1.0, 2.0), {
        (0, 0): 2.0, (1, 0): 4.0, (0, 1): 1.0,
        (2, 0): 2.0, (1, 1): 2.0,
        (2, 1): 1.0,
    })
    assert f.value == 2.0
    np.testing.assert_allclose(f.gradient(), [4.0, 1.0])
    assert f.coeff((1, 1)) == 2.0
    assert f.coeff((0, 3)) == 0.0
    # evaluation reproduces x^2 y exactly for a cubic
    for x, y in [(1.3, 1.7), (0.2, -0.4), (-1.1, 2.5)]:
        assert jet_eval(f, (x, y)) == pytest.approx(x * x * y, rel=1e-14)


def test_partials_roundtrip():
    f = _jet(2, 3, (1.0, 2.0), {(0, 0): 2.0, (1, 0): 4.0, (0, 1): 1.0,
                                (2, 0): 2.0, (1, 1): 2.0, (2, 1): 1.0})
    assert partials_from_jet(f, (1, 1)) == pytest.approx(2.0)  # 2 * 1! * 1!
    assert partials_from_jet(f, (2, 1)) == pytest.approx(2.0)  # 1 * 2! * 1!
    assert partials_from_jet(f, (2, 0)) == pytest.approx(4.0)


def test_monomial_and_constant():
    c = TruncatedJet.constant(5.0, 2, 3, (0.0, 0.0))
    assert c.value == 5.0
    m = TruncatedJet.monomial(2, 3, (0.0, 0.0), (1, 2))
    assert jet_eval(m, (2.0, 3.0)) == pytest.approx(2.0 * 9.0)


def test_json_roundtrip():
    f = _jet(2, 3, (1.0, 2.0), {(0, 0): 2.0, (2, 1): 1.0})
    d = f.to_json_dict()
    g = TruncatedJet.from_json_dict(d)
    assert g.dim == f.dim and g.degree == f.degree
    np.testing.assert_array_equal(g.coeffs, f.coeffs)
    # zeros are omitted from the serialized form
    assert all(e["c"] != 0.0 for e in d["coeffs"])


@pytest.mark.parametrize("alpha", [(1, 0, 0), (1,), (-1, 2), (2, -1),
                                   (0.5, 0), (1, 0.25), (1.0, 0),
                                   (True, False), (True, 1)])
@pytest.mark.parametrize("entry", ["from_coeffs", "coeff", "from_json_dict"])
def test_bad_multi_index_is_a_value_error(entry, alpha):
    # wrong length, negative or non-integer (a bool is not one, also beside
    # an int): rank would place such a key in a wrong slot, so every entry
    # point refuses it
    with pytest.raises(ValueError):
        if entry == "from_coeffs":
            _jet(2, 3, (0.0, 0.0), {(0, 0): 1.0, alpha: 2.0})
        elif entry == "coeff":
            _jet(2, 3, (0.0, 0.0), {(1, 1): 1.0}).coeff(alpha)
        else:
            TruncatedJet.from_json_dict({
                "dim": 2, "degree": 3, "base": [0.0, 0.0],
                "coeffs": [{"alpha": [0, 0], "c": 1.0},
                           {"alpha": list(alpha), "c": 2.0}]})


@pytest.mark.parametrize("c", ["1.5", True])
@pytest.mark.parametrize("entry", ["from_coeffs", "from_json_dict"])
def test_bad_coefficient_is_a_value_error(entry, c):
    # a string or a bool is not read as the number it spells
    with pytest.raises(ValueError, match="coefficient c"):
        if entry == "from_coeffs":
            _jet(2, 3, (0.0, 0.0), {(0, 0): 1.0, (1, 1): c})
        else:
            TruncatedJet.from_json_dict({
                "dim": 2, "degree": 3, "base": [0.0, 0.0],
                "coeffs": [{"alpha": [1, 1], "c": c}]})


def test_multi_index_beyond_the_degree():
    # a jet has no coefficient there; building one with it is a bad input
    f = _jet(2, 3, (0.0, 0.0), {(1, 1): 1.0})
    with pytest.raises(DegreeDeficitError):
        f.coeff((2, 2))
    with pytest.raises(ValueError, match=r"\(0, 4\) exceeds degree 3"):
        _jet(2, 3, (0.0, 0.0), {(1, 1): 1.0, (0, 4): 2.0})


# -- arithmetic -------------------------------------------------------------------


def test_product_of_linear_factors():
    base = (0.0, 0.0)
    a = _jet(2, 2, base, {(0, 0): 1.0, (1, 0): 1.0})   # 1 + x
    b = _jet(2, 2, base, {(0, 0): 1.0, (0, 1): 1.0})   # 1 + y
    p = jet_mul(a, b)
    assert p.coeff((0, 0)) == 1.0
    assert p.coeff((1, 0)) == 1.0
    assert p.coeff((0, 1)) == 1.0
    assert p.coeff((1, 1)) == 1.0
    assert p.coeff((2, 0)) == 0.0


def test_truncation_drops_overflow():
    base = (0.0,)
    x = _jet(1, 2, base, {(1,): 1.0})
    sq = jet_mul(x, x)
    assert sq.coeff((2,)) == 1.0
    cube = jet_mul(sq, x)          # x^3 overflows degree 2
    assert np.all(cube.coeffs == 0.0)


def test_mul_commutes_with_truncation():
    rng = np.random.default_rng(11)
    for _ in range(10):
        a = TruncatedJet(2, 4, np.zeros(2), rng.normal(size=table_size(2, 4)))
        b = TruncatedJet(2, 4, np.zeros(2), rng.normal(size=table_size(2, 4)))
        lhs = jet_truncate(jet_mul(a, b), 2)
        rhs = jet_mul(jet_truncate(a, 2), jet_truncate(b, 2))
        np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, atol=1e-12)


def _fancy_index_product(a, b):
    """The product as a gather-multiply-bincount over fresh arrays: the oracle."""
    sp = _space(a.dim, a.degree)
    tri_i, tri_j, tri_k = sp.triples
    return np.bincount(tri_k, a.coeffs[tri_i] * b.coeffs[tri_j], sp.size)


@pytest.mark.parametrize("dim,degree", [(1, 4), (3, 3), (8, 5), (12, 4)])
def test_jet_mul_equals_the_fancy_index_product(dim, degree):
    # jet_mul reuses per-thread gather buffers, so check squares and
    # back-to-back products of different operands, bit for bit
    rng = np.random.default_rng(dim * 100 + degree)
    base = rng.uniform(-1.0, 1.0, dim)
    a, b, c = (TruncatedJet(dim, degree, base,
                            rng.normal(size=table_size(dim, degree)))
               for _ in range(3))
    pairs = [(a, b), (a, a), (c, b), (b, a), (a, b)]
    got = [jet_mul(x, y).coeffs for x, y in pairs]
    for (x, y), g in zip(pairs, got):
        assert _same_array(g, _fancy_index_product(x, y))


def _masks(dim):
    """Empty, one variable, the first half (an N-body configuration), all."""
    return [0, 1 << (dim - 1), (1 << max(dim // 2, 1)) - 1, (1 << dim) - 1]


def _inside(sp, mask):
    """Per table row: does it use only variables in ``mask`` (``None``: all)?"""
    if mask is None:
        return np.ones(sp.size, dtype=bool)
    return np.array([all(e == 0 or mask >> v & 1 for v, e in enumerate(row))
                     for row in sp.exps.tolist()])


@pytest.mark.parametrize("dim,degree", [(1, 5), (3, 4), (6, 7), (8, 5), (12, 4)])
def test_restricted_triples_are_the_masked_full_triples(dim, degree):
    # Same value, dtype and order once tri_j is read through the rows
    # inside the mask: the restricted products sum them with bincount in
    # this order.  Those rows, in table order, are the mask's own table.
    # The i-rows lie inside a_mask: every row, the same mask, or another.
    sp = _space(dim, degree)
    tri_i, tri_j, tri_k = sp.triples
    for mask in _masks(dim) + [None]:
        inside = _inside(sp, mask)
        rows = np.flatnonzero(inside)
        assert _same_array(sp.rows_within(mask), rows), mask
        if mask:
            variables = [v for v in range(dim) if mask >> v & 1]
            small = _space(len(variables), degree).exps
            assert np.array_equal(sp.exps[rows][:, variables], small), mask
        for a_mask in (None, mask, _masks(dim)[2], _masks(dim)[1]):
            keep = inside[tri_j] & _inside(sp, a_mask)[tri_i]
            got_i, got_j, got_k = sp.triples_within(mask, a_mask)
            assert got_j.dtype == tri_j.dtype and got_j.max() < len(rows)
            for name, g, full in zip("ijk", (got_i, rows[got_j], got_k),
                                     (tri_i, tri_j, tri_k)):
                assert _same_array(g, full[keep]), (mask, a_mask, name)


def _restricted_jet(sp, mask, rng, base):
    """A random jet on ``sp`` that vanishes on every row outside ``mask``,
    with -0.0 on some of those rows."""
    c = rng.normal(size=sp.size)
    outside = ~_inside(sp, mask)
    c[outside] = np.where(rng.random(outside.sum()) < 0.5, 0.0, -0.0)
    return TruncatedJet(sp.dim, sp.degree, base, c)


@pytest.mark.parametrize("dim,degree", [(3, 4), (6, 7), (8, 5), (12, 4)])
def test_restricted_product_equals_jet_mul(dim, degree):
    # b is given on its mask's table (its rows inside the mask), a whole or
    # zero outside a_mask (the same mask, or the first variable only), and
    # a's samples stop at orders degree, 1 and 2, with -0.0 above.  One
    # sample, a prefix of a, or a stack: every product keeps the bits of the
    # full-table jet_mul.
    sp = _space(dim, degree)
    rng = np.random.default_rng(dim * 10 + degree)
    base = rng.uniform(-1.0, 1.0, dim)
    for mask in _masks(dim):
        rows = np.flatnonzero(_inside(sp, mask))
        for a_mask in (None, mask, 1):
            a_cols, b_cols, want = [], [], []
            for top in (degree, 1, 2):
                a = (rng.normal(size=sp.size) if a_mask is None else
                     _restricted_jet(sp, a_mask, rng, base).coeffs.copy())
                a[sp.prefix[top]:] = -0.0
                b = _restricted_jet(sp, mask, rng, base).coeffs
                want.append(jet_mul(TruncatedJet(dim, degree, base, a),
                                    TruncatedJet(dim, degree, base, b)).coeffs)
                for n in (sp.size, sp.prefix[top]):
                    assert _same_array(_mul(sp, a[:n], b[rows], mask, a_mask),
                                       want[-1]), (mask, a_mask, top, n)
                a_cols.append(a)
                b_cols.append(b)
            a, b = np.stack(a_cols, axis=1), np.stack(b_cols, axis=1)
            # all three samples, and the last two on the prefix to order 2
            for first, n in ((0, sp.size), (1, sp.prefix[2])):
                got = _mul(sp, a[:n, first:], b[rows, first:], mask, a_mask)
                for s, w in enumerate(want[first:]):
                    assert _same_array(np.ascontiguousarray(got[:, s]), w), (
                        mask, a_mask, first, s)


@pytest.mark.parametrize("dim,degree", [(3, 4), (8, 5), (12, 4)])
def test_stacked_products_equal_each_sample_s_product(dim, degree):
    # Three samples whose right operands use different variables and whose
    # left operands stop at different orders, with -0.0 on rows they leave
    # out.  The stack multiplies on the full triples, or on the union of the
    # masks, over the longest prefix; every column keeps its own product's
    # bits, and so does its mask.
    sp = _space(dim, degree)
    rng = np.random.default_rng(dim * 7 + degree)
    base = np.zeros(dim)
    masks, tops = _masks(dim)[1:3] + _masks(dim)[1:2], (1, degree, 2)
    for both in (False, True):  # a whole, or zero outside b's mask
        a_cols, b_cols, want = [], [], []
        for mask, top in zip(masks, tops):
            b = _restricted_jet(sp, mask, rng, base).coeffs
            a = (_restricted_jet(sp, mask, rng, base).coeffs.copy() if both
                 else rng.normal(size=sp.size))
            a[sp.prefix[top]:] = -0.0
            a_cols.append(a)
            b_cols.append(b)
            want.append(_mul(sp, a[:sp.prefix[top]], b[sp.rows_within(mask)],
                             mask, mask if both else None))
        a, b = np.stack(a_cols, axis=1), np.stack(b_cols, axis=1)
        union = masks[0] | masks[1]
        assert _variable_mask(sp, b) in (union, None)
        for stacked_mask in (None, union):
            got = _mul(sp, a[:sp.prefix[max(tops)]],
                       b if stacked_mask is None else b[sp.rows_within(union)],
                       stacked_mask, stacked_mask if both else None)
            assert got.shape == (sp.size, len(tops))
            for s, w in enumerate(want):
                assert _same_array(np.ascontiguousarray(got[:, s]), w), (
                    both, stacked_mask, s)


def test_warm_jet_mul_allocates_only_its_output():
    # the full triples and two restricted sets, each with its own buffers
    sp = _space(8, 5)
    rng = np.random.default_rng(85)
    for mask, a_mask in ((None, None), (0b111111, None), (0b111111, 0b111111)):
        a, b = (TruncatedJet(8, 5, np.zeros(8), rng.normal(size=sp.size))
                for _ in range(2))
        if mask is not None:
            b = _restricted_jet(sp, mask, rng, np.zeros(8))
        if a_mask is not None:
            a = _restricted_jet(sp, a_mask, rng, np.zeros(8))
        b = b.coeffs if mask is None else b.coeffs[sp.rows_within(mask)]
        _mul(sp, a.coeffs, b, mask, a_mask)  # builds the triples and buffers
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            _mul(sp, a.coeffs, b, mask, a_mask)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            if not was_tracing:
                tracemalloc.stop()
        # one float64 array of the triple count is 162 792 bytes for the full
        # triples here and 49 504 for the smallest restricted set; the output
        # is 10 KB
        tri = sp.triples_within(mask, a_mask)
        assert peak - before < 8 * len(tri[0]), (mask, a_mask)


def test_incompatible_jets_refused():
    a = _jet(2, 2, (0.0, 0.0), {(0, 0): 1.0})
    b = _jet(2, 2, (1.0, 0.0), {(0, 0): 1.0})
    c = _jet(2, 3, (0.0, 0.0), {(0, 0): 1.0})
    with pytest.raises(CombinabilityError):
        jet_add(a, b)
    with pytest.raises(CombinabilityError):
        jet_mul(a, c)


def test_partial_derivative_table():
    # d/dx of x^2 y = 2 x y, as a degree-2 jet
    f = TruncatedJet.monomial(2, 3, (0.0, 0.0), (2, 1))
    fx = jet_partial(f, 0)
    assert fx.degree == 2
    assert fx.coeff((1, 1)) == 2.0
    # degree-0 jets differentiate to zero
    c = TruncatedJet.constant(3.0, 1, 0, (0.0,))
    assert np.all(jet_partial(c, 0).coeffs == 0.0)


def test_pow_binomial_series():
    # (1 + u)^(1/2) = 1 + u/2 - u^2/8 + u^3/16 - 5 u^4/128
    u = _jet(1, 4, (0.0,), {(0,): 1.0, (1,): 1.0})
    r = jet_pow(u, 0.5)
    np.testing.assert_allclose(
        r.coeffs, [1.0, 0.5, -0.125, 0.0625, -0.0390625], atol=1e-15)


@pytest.mark.parametrize("dim,degree,mask", [(6, 8, 0b011011), (4, 5, 0b0101),
                                             (3, 4, 0b100), (2, 6, 0b11)])
def test_pow_equals_the_full_product_series(dim, degree, mask):
    # jet_pow restricts both operands to its base jet's variables; the
    # masks include a pair's r^2 in the planar 3-body configuration
    sp = _space(dim, degree)
    rng = np.random.default_rng(dim * 100 + degree)
    for exponent, a0 in ((-0.5, 2.0), (1.5, 0.7), (-3.0, 1.1), (3.0, -1.2)):
        a = _restricted_jet(sp, mask, rng, rng.uniform(-1.0, 1.0, dim))
        a = TruncatedJet(dim, degree, a.base_point,
                         np.concatenate(([a0], 0.1 * a.coeffs[1:])))
        assert _same_array(jet_pow(a, exponent).coeffs,
                           jet_pow_full(a, exponent).coeffs), exponent


@pytest.mark.parametrize("dim,degree", [(1, 4), (3, 4), (6, 7), (12, 3), (66, 2)])
def test_top_orders_are_the_highest_orders_each_variable_reaches(dim, degree):
    sp = _space(dim, degree)
    rng = np.random.default_rng(dim + degree)
    tables = [np.zeros(sp.size), np.eye(1, sp.size)[0], -np.eye(1, sp.size, 1)[0]]
    for keep in (0.5, 0.05, 0.01):
        c = rng.normal(size=sp.size)
        c[rng.random(sp.size) > keep] = 0.0
        tables += [c, np.where(c == 0.0, -0.0, c)]
    # ... and each partial's variables, read off its nonzero rows
    wants, unions = [], [0] * dim
    for c in tables:
        want = [max([int(sp.orders[t]) for t in np.flatnonzero(c) if sp.exps[t, v]],
                    default=0) for v in range(dim)]
        jet = TruncatedJet(dim, degree, np.zeros(dim), c)
        masks = []
        for v in range(dim):
            d = jet_partial(jet, v)
            used = _space(dim, d.degree).exps[np.flatnonzero(d.coeffs)].any(axis=0)
            masks.append(sum(1 << int(w) for w in np.flatnonzero(used)))
        top, got = _top_orders(sp, c)
        assert top.tolist() == want
        assert got == masks
        wants.append(want)
        unions = [u | m for u, m in zip(unions, masks)]
    # a sample-minor stack reaches the highest order of any of its samples,
    # and its partials the variables of any
    top, got = _top_orders(sp, np.stack(tables, axis=1))
    assert top.tolist() == np.max(wants, axis=0).tolist()
    assert got == unions


def test_pow_integer_matches_repeated_mul():
    rng = np.random.default_rng(3)
    a = TruncatedJet(2, 3, np.zeros(2), rng.normal(size=table_size(2, 3)))
    a = jet_add(a, TruncatedJet.constant(2.0, 2, 3, np.zeros(2)))
    p3 = jet_pow(a, 3)
    m3 = jet_mul(jet_mul(a, a), a)
    np.testing.assert_allclose(p3.coeffs, m3.coeffs, rtol=1e-12, atol=1e-12)


def test_pow_rejects_zero_constant_for_fractional():
    u = _jet(1, 3, (0.0,), {(1,): 1.0})
    with pytest.raises(EvaluationDomainError):
        jet_pow(u, 0.5)


def test_pow_negative_constant_fractional_refused():
    u = _jet(1, 3, (0.0,), {(0,): -2.0, (1,): 1.0})
    with pytest.raises(EvaluationDomainError):
        jet_pow(u, 0.5)
    # integer powers of negative constants are fine
    assert jet_pow(u, 2).value == pytest.approx(4.0)


def test_inverse_distance_jet_against_closed_form():
    # 1/r for r^2 = (1+u)^2 + (2+v)^2 about (u,v)=(0,0);
    # check against central finite differences of the closed form
    r2 = _jet(2, 3, (0.0, 0.0), {
        (0, 0): 5.0, (1, 0): 2.0, (0, 1): 4.0, (2, 0): 1.0, (0, 2): 1.0,
    })
    f = jet_pow(r2, -0.5)
    assert f.value == pytest.approx(5.0 ** -0.5, rel=1e-15)

    def inv_r(w):
        return ((1 + w[0]) ** 2 + (2 + w[1]) ** 2) ** -0.5

    h = 1e-5
    gx = (inv_r((h, 0)) - inv_r((-h, 0))) / (2 * h)
    gy = (inv_r((0, h)) - inv_r((0, -h))) / (2 * h)
    np.testing.assert_allclose(f.gradient(), [gx, gy], rtol=1e-9)


# -- base-point shifts and embeddings ---------------------------------------------


def test_shift_base_polynomial_exact():
    # p(x) = (x - 1)^2 + 3 about 1 -> about 4: p(x) = (x-4)^2 + 6(x-4) + 12
    p = _jet(1, 2, (1.0,), {(0,): 3.0, (2,): 1.0})
    q = shift_base(p, (4.0,))
    np.testing.assert_allclose(q.coeffs, [12.0, 6.0, 1.0], atol=1e-12)
    # shifting back is the identity
    back = shift_base(q, (1.0,))
    np.testing.assert_allclose(back.coeffs, p.coeffs, atol=1e-12)


def test_shift_commutes_with_eval():
    rng = np.random.default_rng(7)
    a = TruncatedJet(2, 4, np.array([0.3, -0.2]),
                     rng.normal(size=table_size(2, 4)))
    b = shift_base(a, (1.1, 0.4))
    for _ in range(5):
        w = rng.uniform(-2, 2, 2)
        assert jet_eval(a, w) == pytest.approx(jet_eval(b, w), rel=1e-10,
                                               abs=1e-10)


@pytest.mark.parametrize("dim", range(1, 9))
def test_lower_degree_polynomial_jets_equal_the_truncated_whole_shift(dim):
    # Below the polynomial's degree, PolynomialObservable.jet shifts only
    # the rows it returns, an i-major prefix of the triples; the oracle
    # shifts the whole table and truncates.  Bytes, so signed zeros count.
    rng = stream_rng(61, dim)
    for degree in (1, 2, 3, 4):
        obs = random_polynomial_observable(dim, degree, rng)
        z = rng.uniform(-1.5, 1.5, dim)
        for d in range(degree):
            want = shift_by_triples(obs.poly, z, d)
            assert obs.jet(z, d).coeffs.tobytes() == want.coeffs.tobytes(), d
        assert (obs.grad(z).tobytes()
                == shift_by_triples(obs.poly, z, 1).gradient().tobytes())


def test_embed_into_larger_space():
    # f(x) = x^2 about x=2, embedded as variable #1 of a 3-dim space
    f = _jet(1, 2, (2.0,), {(0,): 4.0, (1,): 4.0, (2,): 1.0})
    g = embed_jet(f, 3, [1], (9.0, 2.0, -1.0))
    assert g.dim == 3
    assert g.coeff((0, 1, 0)) == 4.0
    assert g.coeff((0, 2, 0)) == 1.0
    assert jet_eval(g, (9.0, 2.5, -1.0)) == pytest.approx(6.25)


def _embed_reference(a, big_dim, positions):
    """The per-coefficient loop embed_jet was first written with."""
    small_alphas, _ = _reference_layout(a.dim, a.degree)
    big_alphas, big_index = _reference_layout(big_dim, a.degree)
    c = np.zeros(len(big_alphas))
    for idx_small, alpha in enumerate(small_alphas):
        big_alpha = [0] * big_dim
        for k, e in enumerate(alpha):
            big_alpha[positions[k]] = e
        c[big_index[tuple(big_alpha)]] = a.coeffs[idx_small]
    return c


@pytest.mark.parametrize("dim,big_dim,positions,degree", [
    (2, 5, [4, 1], 3),           # unsorted, non-contiguous
    (3, 12, [7, 0, 11], 4),      # big dimension 12
    (2, 2, [1, 0], 4),           # a permutation
    (1, 12, [5], 0),             # degree 0
    (4, 12, [2, 3, 9, 10], 0),
])
def test_embed_matches_the_reference_loop(dim, big_dim, positions, degree):
    rng = np.random.default_rng(dim * 100 + big_dim + degree)
    small_base = rng.normal(size=dim)
    big_base = rng.normal(size=big_dim)
    big_base[positions] = small_base
    a = TruncatedJet(dim, degree, small_base,
                     rng.normal(size=table_size(dim, degree)))
    g = embed_jet(a, big_dim, positions, big_base)
    assert g.coeffs.tobytes() == _embed_reference(a, big_dim, positions).tobytes()
    assert np.array_equal(g.base_point, big_base)


def test_pad_extends_degree():
    f = _jet(1, 1, (0.0,), {(1,): 2.0})
    g = jet_pad(f, 4)
    assert g.degree == 4
    assert g.coeff((1,)) == 2.0
    assert g.coeff((4,)) == 0.0
    with pytest.raises(ValueError):
        jet_pad(f, 0)


# -- algebra laws (property-based) -------------------------------------------------

coeff_lists = st.lists(
    st.floats(min_value=-3, max_value=3, allow_nan=False), min_size=10,
    max_size=10)


@settings(max_examples=40, deadline=None)
@given(coeff_lists, coeff_lists, coeff_lists)
def test_ring_axioms(ca, cb, cc):
    base = np.zeros(2)
    a = TruncatedJet(2, 3, base, np.array(ca))
    b = TruncatedJet(2, 3, base, np.array(cb))
    c = TruncatedJet(2, 3, base, np.array(cc))
    np.testing.assert_allclose(jet_mul(a, b).coeffs, jet_mul(b, a).coeffs,
                               atol=1e-9)
    np.testing.assert_allclose(
        jet_mul(jet_mul(a, b), c).coeffs, jet_mul(a, jet_mul(b, c)).coeffs,
        atol=1e-9)
    np.testing.assert_allclose(
        jet_mul(a, jet_add(b, c)).coeffs,
        jet_add(jet_mul(a, b), jet_mul(a, c)).coeffs, atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(coeff_lists, coeff_lists, st.sampled_from([0, 1]))
def test_leibniz_rule(ca, cb, axis):
    base = np.zeros(2)
    a = TruncatedJet(2, 3, base, np.array(ca))
    b = TruncatedJet(2, 3, base, np.array(cb))
    lhs = jet_partial(jet_mul(a, b), axis)
    rhs = jet_add(
        jet_mul(jet_partial(a, axis), jet_truncate(b, 2)),
        jet_mul(jet_truncate(a, 2), jet_partial(b, axis)),
    )
    np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, atol=1e-9)


@settings(max_examples=30, deadline=None)
@given(coeff_lists, st.floats(min_value=-2, max_value=2, allow_nan=False))
def test_scale_is_linear(ca, s):
    a = TruncatedJet(2, 3, np.zeros(2), np.array(ca))
    np.testing.assert_allclose(jet_scale(a, s).coeffs, s * a.coeffs)


# -- sampled jets: the finite-difference oracle of oracles.py ----------------------


def test_sampled_polynomial_recovers_coefficients():
    def f(w):
        x, y = w
        return 2.0 + x - 3.0 * y + 0.5 * x * x * y - y ** 3

    est, _ = jet_from_samples(f, (0.3, -0.2), 3)
    exact = {
        (0, 0): f((0.3, -0.2)),
        (1, 0): 1.0 + 0.3 * (-0.2),                 # df/dx = 1 + x y
        (0, 1): -3.0 + 0.5 * 0.09 - 3 * 0.04,       # df/dy = -3 + x^2/2 - 3y^2
    }
    np.testing.assert_allclose(est.value, exact[(0, 0)], rtol=1e-12)
    np.testing.assert_allclose(est.gradient(),
                               [exact[(1, 0)], exact[(0, 1)]], atol=1e-8)
    # exact top-degree coefficients come out at roundoff scale
    assert est.coeff((2, 1)) == pytest.approx(0.5, abs=1e-8)
    assert est.coeff((0, 3)) == pytest.approx(-1.0, abs=1e-8)


def test_sampled_transcendental_partials():
    est, _ = jet_from_samples(lambda w: math.sin(w[0] + 2 * w[1]), (0.2, 0.1), 3)
    s, c = math.sin(0.4), math.cos(0.4)
    assert partials_from_jet(est, (1, 0)) == pytest.approx(c, abs=1e-8)
    assert partials_from_jet(est, (0, 1)) == pytest.approx(2 * c, abs=1e-8)
    assert partials_from_jet(est, (2, 0)) == pytest.approx(-s, abs=1e-6)
    assert partials_from_jet(est, (1, 2)) == pytest.approx(-4 * c, abs=1e-5)


def test_sampled_error_estimates_cover_actuals():
    est, errors = jet_from_samples(lambda w: math.exp(w[0]) * math.cos(w[1]),
                                   (0.1, -0.3), 3)
    e, s, c = math.exp(0.1), math.sin(-0.3), math.cos(-0.3)
    exact = {
        (0, 0): e * c, (1, 0): e * c, (0, 1): -e * s,
        (2, 0): e * c / 2, (1, 1): -e * s, (0, 2): -e * c / 2,
        (3, 0): e * c / 6, (0, 3): e * s / 6,
    }
    sp = _space(2, 3)
    for alpha, want in exact.items():
        idx = int(sp.rank(np.array(alpha)))
        actual = abs(est.coeffs[idx] - want)
        claimed = errors[idx]
        assert actual <= max(50 * claimed, 1e-12), (alpha, actual, claimed)


def test_sampled_degree_cap():
    with pytest.raises(DegreeDeficitError):
        jet_from_samples(lambda w: w[0], (0.0,), MAX_SAMPLE_DEGREE + 1)


def test_sampled_rejects_non_finite():
    with pytest.raises(EvaluationDomainError):
        jet_from_samples(lambda w: float("nan"), (0.0,), 2)
