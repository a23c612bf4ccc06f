"""Evidence for the corrected constants, recomputed without pcpoly code.

DECISIONS.md records two printed constants of the source material as
misprints; these tests recompute both with independent packages and check
that pcpoly agrees with them and not with the printed values.
"""

import random
from fractions import Fraction as F

import pytest

from oracles import nonreal_census
from pcpoly.cliquepoly import adjacency_char_poly
from pcpoly.graphs import edge_slots, graph_from_edge_mask
from pcpoly.randomgraph import beta0_constant
from pcpoly.survey import survey_nonreal
from pcpoly.weighted import _det_identity_minus_x

PRINTED_BETA0 = F("0.6720076538")


def test_nonreal_census_matches_networkx_sympy_oracle():
    pytest.importorskip("networkx")
    pytest.importorskip("sympy")
    for n in (4, 5, 6):
        row = survey_nonreal(n)
        ours = (row.graphs_total, row.polys_with_nonreal, row.roots_total, row.roots_nonreal)
        assert nonreal_census(n) == ours, f"n={n}"


def test_beta0_matches_mpmath_root():
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 40

    def series(y):
        # sum_i (-1)^i y^i 2^(-C(i,2)) / i!; terms past i = 60 are below 1e-500
        return mp.fsum(
            (-1) ** i * y**i / (mp.factorial(i) * mp.mpf(2) ** (i * (i - 1) // 2))
            for i in range(61)
        )

    root = F(mpmath.nstr(1 / mp.findroot(series, 1.5), 30))
    enc = beta0_constant(F(1, 10**10))
    assert enc.lo <= root <= enc.hi
    assert not enc.lo <= PRINTED_BETA0 <= enc.hi
    wide = beta0_constant(F(1, 10**8))  # the enclosure of criterion 08
    assert wide.lo <= root <= wide.hi
    assert not wide.lo <= PRINTED_BETA0 <= wide.hi


def _ascending(sympy, expr, x):
    return tuple(F(int(c.p), int(c.q)) for c in reversed(sympy.Poly(expr, x).all_coeffs()))


def test_det_identity_minus_x_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    x = sympy.Symbol("x")
    rng = random.Random(20261019)
    matrices = []
    for m in range(1, 7):
        matrices.append([[F(0)] * m for _ in range(m)])  # zero
        for _ in range(8):
            rows = [[F(rng.choice((0, 0, 1, 2, -3, 5)), rng.choice((1, 2, 3, 7)))
                     for _ in range(m)] for _ in range(m)]
            matrices.append(rows)
            if m > 1:  # singular: the last row repeats the first
                matrices.append(rows[:-1] + [rows[0]])
    for rows in matrices:
        m = len(rows)
        M = sympy.Matrix(m, m, [sympy.Rational(c.numerator, c.denominator)
                                for r in rows for c in r])
        dm = DomainMatrix.from_Matrix(sympy.eye(m) - x * M)  # over QQ[x]
        want = _ascending(sympy, dm.domain.to_sympy(dm.det()), x)
        assert _det_identity_minus_x(rows) == want, rows


def test_adjacency_char_poly_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(20261019)
    for _ in range(60):
        n = rng.randint(1, 10)
        slots = edge_slots(n)
        g = graph_from_edge_mask(n, rng.getrandbits(len(slots)), slots)
        A = sympy.Matrix(n, n, lambda i, j: int(g.has_edge(i, j)))
        assert adjacency_char_poly(g) == _ascending(sympy, A.charpoly(x).as_expr(), x)
