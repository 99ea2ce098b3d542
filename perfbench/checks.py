"""Output checks of the benchmark, computed apart from the program.

Every check takes plain numbers or arrays and raises :class:`CheckFailed`
when the value is wrong.  The reference values come from closed forms
(the Lagrange-Jacobi identity, the spin rates of the classical relative
equilibria, the structural entries of the tower Jacobians) or from
properties the method must have; none comes from a stored copy of an
earlier run.  The polynomial helpers below read coefficient tables in the
program's documented graded-lex layout but evaluate them with their own
code.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


class CheckFailed(AssertionError):
    """An output of the program disagrees with its reference value."""


def graded_lex(dim: int, degree: int) -> list[tuple[int, ...]]:
    """Multi-indices with ``|alpha| <= degree``, ordered by (order, tuple)."""
    alphas = [a for a in itertools.product(range(degree + 1), repeat=dim)
              if sum(a) <= degree]
    return sorted(alphas, key=lambda a: (sum(a), a))


def _powers(alphas, z) -> np.ndarray:
    z = np.asarray(z, float)
    return np.array([math.prod(float(z[i]) ** e for i, e in enumerate(a))
                     for a in alphas])


def poly_value(coeffs, dim: int, degree: int, z) -> float:
    """Value at ``z`` of the polynomial with graded-lex coefficients."""
    return float(np.dot(coeffs, _powers(graded_lex(dim, degree), z)))


def poly_grad(coeffs, dim: int, degree: int, z) -> np.ndarray:
    """Gradient at ``z`` of the polynomial with graded-lex coefficients."""
    z = np.asarray(z, float)
    out = np.zeros(dim)
    for c, a in zip(coeffs, graded_lex(dim, degree)):
        for i, e in enumerate(a):
            if e:
                rest = math.prod(float(z[k]) ** (ak - (k == i))
                                 for k, ak in enumerate(a))
                out[i] += c * e * rest
    return out


def poly_euler(coeffs, dim: int, degree: int, z) -> float:
    """``z . grad p(z)``, which is ``sum |alpha| c_alpha z**alpha``."""
    alphas = graded_lex(dim, degree)
    orders = np.array([sum(a) for a in alphas], float)
    return float(np.dot(np.asarray(coeffs) * orders, _powers(alphas, z)))


def close(got: float, want: float, rel: float, what: str,
          scale: float = 1.0) -> None:
    """``|got - want| <= rel * max(scale, |want|)``."""
    got, want = float(got), float(want)
    if not abs(got - want) <= rel * max(scale, abs(want)):
        raise CheckFailed(f"{what}: got {got!r}, want {want!r} (rel {rel:g})")


def equal(got, want, what: str) -> None:
    if got != want:
        raise CheckFailed(f"{what}: got {got!r}, want {want!r}")


def lagrange_jacobi(psi, q, p, masses, bump_euler: float = 0.0,
                    rel: float = 1e-12) -> None:
    """Inertia tower at a centre-of-mass point of a Newtonian N-body problem.

    ``psi_1 = 2 q.p`` and ``psi_2 = 4T - 2 q.grad V``.  The Newtonian part
    of ``V`` is homogeneous of degree -1, so its ``q.grad V`` is
    ``sum m_i m_j / r_ij``; ``bump_euler`` is ``q.grad b(q)`` of a
    polynomial bump of the potential.
    """
    q = np.asarray(q, float)
    p = np.asarray(p, float)
    masses = np.asarray(masses, float)
    kinetic = float(np.sum(p ** 2 / masses[:, None])) / 2.0
    q_grad_v = bump_euler
    for i, j in itertools.combinations(range(len(masses)), 2):
        q_grad_v += masses[i] * masses[j] / float(np.linalg.norm(q[i] - q[j]))
    close(psi[0], 2.0 * float(np.sum(q * p)), rel, "psi_1(I) against 2 q.p",
          scale=max(1.0, 2.0 * float(np.sum(np.abs(q * p)))))
    close(psi[1], 4.0 * kinetic - 2.0 * q_grad_v, rel,
          "psi_2(I) against 4T - 2 q.grad V",
          scale=max(1.0, 4.0 * kinetic, 2.0 * abs(q_grad_v)))


def vanishes(norm: float, tol: float, what: str) -> None:
    if not abs(norm) <= tol:
        raise CheckFailed(f"{what}: |psi| = {norm!r} exceeds {tol:g}")


def energy_vanishes(energy_norm: float, inertia_norm: float,
                    factor: float = 1e-10) -> None:
    """The conserved energy's tower is roundoff, measured against the size
    of the inertia tower at the same point."""
    vanishes(energy_norm, factor * max(1.0, inertia_norm),
             "energy tower against the inertia tower's scale")


def jacobian_f_structure(matrix, x_vals, m: int, jet_degree: int) -> None:
    """``d psi_k / d F_{j..j}`` (k repetitions) is ``X^j(z)**k``.

    Columns are the partial-derivative coordinates of the graded-lex table
    of degree ``jet_degree`` with the constant term left out.
    """
    n = len(x_vals)
    index = {a: i for i, a in enumerate(graded_lex(n, jet_degree))}
    for k in range(1, m + 1):
        for j in range(n):
            alpha = tuple(k if i == j else 0 for i in range(n))
            close(matrix[k - 1, index[alpha] - 1], x_vals[j] ** k, 1e-9,
                  f"dpsi_{k}/dF_{j}^{k}")


def jacobian_x_structure(matrix, x_vals, grad_f, m: int) -> None:
    """``d psi_k / d X^i_{j..j}`` (k-1 repetitions) is
    ``F_i(z) X^j(z)**(k-1)``; columns are (multi-index, component) pairs
    of the degree ``m - 1`` table, component fastest."""
    n = len(x_vals)
    index = {a: i for i, a in enumerate(graded_lex(n, m - 1))}
    for k in range(1, m + 1):
        for j in range(n):
            alpha = tuple(k - 1 if i == j else 0 for i in range(n))
            for i in range(n):
                close(matrix[k - 1, index[alpha] * n + i],
                      grad_f[i] * x_vals[j] ** (k - 1), 1e-9,
                      f"dpsi_{k}/dX^{i}_{j}^{k - 1}")


def share_at_least(hits: int, total: int, share: float, what: str) -> None:
    if total < 1 or hits < share * total:
        raise CheckFailed(f"{what}: {hits} of {total}, want >= {share:.0%}")
