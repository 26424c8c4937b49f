import itertools
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from formacheck.linalg import integer_pivots, integer_rank, integer_row, rank
from formacheck.reference import (ZERO, MatQ, RowSpace, as_row, kernel_basis, rref, unit_vec,
                                  vec_is_zero)

from oracles import matvec, solve
from util import frac_matrix, random_chain_complex


def rand_matrix(rng, rows, cols, scale=4):
    return MatQ.from_rows(
        [[Fraction(rng.randint(-scale, scale), rng.randint(1, 3)) for _ in range(cols)]
         for _ in range(rows)],
        cols=cols)


def test_rref_identity():
    m = MatQ.identity(2)
    out = rref(m)
    assert out.rref == m
    assert out.pivot_cols == (0, 1)
    assert out.rank == 2


def test_rref_proportional_rows():
    m = frac_matrix([[2, 4], [1, 2]])
    out = rref(m)
    assert out.rref == frac_matrix([[1, 2], [0, 0]])
    assert out.pivot_cols == (0,)
    assert out.rank == 1


def test_rref_fractional_entries():
    # second row is half the first, so the rank is 1
    m = MatQ.from_rows([[Fraction(1, 2), Fraction(1, 3)],
                        [Fraction(1, 4), Fraction(1, 6)]])
    assert rref(m).rank == 1


def test_kernel_zero_matrix():
    m = MatQ.from_rows([[0] * 3] * 3)
    basis = kernel_basis(m)
    assert basis == [unit_vec(3, i) for i in range(3)]


def test_kernel_identity():
    assert kernel_basis(MatQ.identity(4)) == []


def test_kernel_single_row():
    m = frac_matrix([[1, 1, 0]])
    basis = kernel_basis(m)
    assert basis == [(Fraction(-1), Fraction(1), Fraction(0)),
                     (Fraction(0), Fraction(0), Fraction(1))]


def test_solve_identity():
    b = (Fraction(3), Fraction(-2))
    assert solve(MatQ.identity(2), b) == b


def test_solve_free_variables_zero():
    assert solve(frac_matrix([[1, 1]]), [2]) == (Fraction(2), Fraction(0))


def test_solve_inconsistent():
    assert solve(frac_matrix([[1], [1]]), [1, 2]) is None


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        solve(MatQ.identity(2), [1, 2, 3])


def test_matq_rejects_bad_shape():
    row = (Fraction(1), Fraction(0))
    with pytest.raises(ValueError, match="negative matrix dimensions"):
        MatQ(-1, 2, ())
    with pytest.raises(ValueError, match="row count does not match entries"):
        MatQ(2, 2, (row,))
    with pytest.raises(ValueError, match="ragged matrix rows"):
        MatQ(rows=2, cols=2, entries=(row, row[:1]))
    assert MatQ(rows=1, cols=2, entries=(row,)) == MatQ(1, 2, (row,))


def test_float_entries_rejected():
    with pytest.raises(TypeError):
        MatQ.from_rows([[0.5]])


@pytest.mark.parametrize("seed", range(8))
def test_rank_of_transpose(seed):
    rng = random.Random(seed)
    m = rand_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
    assert rref(m).rank == rref(m.transpose()).rank


@pytest.mark.parametrize("seed", range(8))
def test_rank_nullity(seed):
    rng = random.Random(100 + seed)
    m = rand_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
    assert m.cols == rref(m).rank + len(kernel_basis(m))


@pytest.mark.parametrize("seed", range(8))
def test_solve_is_exact(seed):
    rng = random.Random(200 + seed)
    m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
    x0 = [Fraction(rng.randint(-3, 3)) for _ in range(m.cols)]
    b = matvec(m, x0)
    x = solve(m, b)
    assert x is not None
    assert matvec(m, x) == b


@pytest.mark.parametrize("seed", range(8))
def test_kernel_vectors_annihilate(seed):
    rng = random.Random(300 + seed)
    m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 6))
    for v in kernel_basis(m):
        assert all(x == 0 for x in matvec(m, v))


@pytest.mark.parametrize("seed", range(8))
def test_complement_completes_the_space(seed):
    rng = random.Random(400 + seed)
    dim = rng.randint(1, 6)
    sub = [tuple(Fraction(rng.randint(-2, 2)) for _ in range(dim))
           for _ in range(rng.randint(0, dim))]
    sub_rank = rref(MatQ.from_rows(sub, cols=dim)).rank
    rs = RowSpace(dim)
    for v in sub:
        rs.add(v)
    assert rs.rank == sub_rank
    # add() returns None exactly on vectors already in the span
    comp = [e for e in (unit_vec(dim, i) for i in range(dim)) if rs.add(e) is not None]
    assert len(comp) == dim - sub_rank
    assert rref(MatQ.from_rows(list(sub) + comp, cols=dim)).rank == dim


@pytest.mark.parametrize("seed", range(4))
def test_rational_contract(seed):
    # Fraction carries the exact-rational contract: positive denominator,
    # reduced form, and exact arithmetic
    rng = random.Random(500 + seed)
    for _ in range(50):
        a = Fraction(rng.randint(-99, 99), rng.randint(1, 99))
        b = Fraction(rng.randint(-99, 99), rng.randint(1, 99))
        assert a.denominator > 0
        from math import gcd
        assert gcd(abs(a.numerator), a.denominator) == 1
        assert (a + b) - b == a
        assert (a * b).denominator > 0


def test_rowspace_tracks_rank():
    rs = RowSpace(3)
    assert rs.add((Fraction(1), Fraction(1), Fraction(0))) is not None
    assert rs.add((Fraction(2), Fraction(2), Fraction(0))) is None
    assert rs.add((Fraction(0), Fraction(0), Fraction(1))) is not None
    assert rs.rank == 2
    assert vec_is_zero(rs.reduce((Fraction(3), Fraction(3), Fraction(5))))


# ---- rank, integer_rank and rref against sympy ----

def sympy_matrix(rows, cols):
    return sympy.Matrix(len(rows), cols, [sympy.Rational(x.numerator, x.denominator)
                                          for row in rows for x in row])


def assert_ranks_agree(rows, cols):
    expected = sympy_matrix(rows, cols).rank()
    assert rank(map(as_row, rows)) == expected
    assert rref(MatQ.from_rows(rows, cols=cols)).rank == expected
    if all(x.denominator == 1 for row in rows for x in row):
        assert integer_rank([[int(x) for x in row] for row in rows]) == expected


@st.composite
def rational_matrices(draw):
    """(rows, cols): small `Fraction` entries, some rows and columns zeroed."""
    cols = draw(st.integers(0, 7))
    entry = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    rows = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), max_size=7))
    zero_rows, zero_cols = draw(st.sets(st.integers(0, 6))), draw(st.sets(st.integers(0, 6)))
    return [[ZERO if i in zero_rows or j in zero_cols else x for j, x in enumerate(row)]
            for i, row in enumerate(rows)], cols


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(rational_matrices())
@example(([], 0))                       # empty
@example(([], 4))                       # no rows
@example(([[], [], []], 0))             # no columns
@example(([[0, 0, 0]] * 4, 3))          # zero
@example(([[1, 2, 0, -1, 3, 0, 2]] * 2, 7))  # wide, rank 1
@example(([[1, -1], [2, -2], [0, 3], [0, 0], [3, 0], [-1, 1]], 2))  # tall
# a pivot of -2 and, below it, a row with a zero in its column: that row
# must still be rescaled by the pivot
@example(([[0, -2, 1], [-2, -2, -1], [0, -1, 1]], 3))
def test_integer_rank_matches_rref_and_sympy(drawn):
    rows, cols = drawn
    rows = [[Fraction(x) for x in row] for row in rows]
    assert_ranks_agree(rows, cols)
    reduced, pivots = sympy_matrix(rows, cols).rref()
    out = rref(MatQ.from_rows(rows, cols=cols))
    assert out.pivot_cols == pivots
    assert [list(row) for row in out.rref.entries] == \
        [[Fraction(int(x.p), int(x.q)) for x in reduced.row(i)] for i in range(len(rows))]


@pytest.mark.parametrize("seed", range(12))
def test_rank_of_random_boundaries_and_their_transposes_match_sympy(seed):
    # the boundaries of a random chain complex have known ranks, mostly
    # short of full: each, and its transpose, against sympy, and the homology
    dims, boundaries, expected = random_chain_complex(random.Random(7000 + seed))
    for d, rows, cols in zip(boundaries, dims, dims[1:]):
        assert_ranks_agree(list(d), cols)
        assert_ranks_agree(list(zip(*d)), rows)
    ranks = [0, *(rank(map(as_row, d)) for d in boundaries), 0]
    assert [dim - ranks[n] - ranks[n + 1] for n, dim in enumerate(dims)] == expected


@st.composite
def sparse_rows(draw):
    """Rows as `linalg.Row`s over columns 0..39, each with at most five
    terms, so most columns are skipped; some rows are empty, and some are
    repeated, as they are or negated."""
    entry = st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 4))
    row = st.dictionaries(st.integers(0, 39), entry, max_size=5)
    rows = [tuple(sorted(terms.items())) for terms in draw(st.lists(row, max_size=7))]
    if rows:
        copies = draw(st.lists(st.tuples(st.integers(0, len(rows) - 1), st.sampled_from((1, -1))),
                               max_size=3))
        rows += [tuple((k, sign * c) for k, c in rows[i]) for i, sign in copies]
    return rows


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(sparse_rows())
@example([])                                          # no rows
@example([(), (), ()])                                # empty rows only
@example([((3, Fraction(1)),), ((3, Fraction(-2)),)])  # one column, a negated multiple
@example([((0, Fraction(1, 2)), (39, Fraction(2))), ((39, Fraction(3)),),
          ((0, Fraction(-1, 2)), (39, Fraction(-2)))])  # far apart columns, a negated row
@example([((5, Fraction(1)), (9, Fraction(1, 3))), (), ((5, Fraction(1)), (9, Fraction(1, 3))),
          ((2, Fraction(2, 3)),)])                     # a repeated row and an empty one
def test_rank_of_sparse_rows_matches_sympy(rows):
    # the columns a row skips count as zeros, wherever they fall
    cols = 40
    dense = [[dict(row).get(k, ZERO) for k in range(cols)] for row in rows]
    assert rank(rows) == sympy_matrix(dense, cols).rank()
    assert rank(rows) == rank(map(as_row, dense))
    for row in rows:
        scaled = integer_row(row)
        assert [k for k, _ in scaled] == [k for k, _ in row]
        assert all(isinstance(c, int) and c for _, c in scaled)
        assert len({c / x for (_, c), (_, x) in zip(scaled, row)}) <= 1


@st.composite
def blocks_of_rows(draw):
    """Sparse rows in blocks over disjoint column ranges, some ranges a few
    columns apart; rows of one block share columns or chain through each
    other, some blocks are one row, and empty rows are mixed in.  The rows
    come shuffled, so a block's rows seldom arrive together."""
    entry = st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 4))
    rows, start = [], 0
    for size in draw(st.lists(st.integers(1, 4), max_size=5)):
        columns = range(start, start + draw(st.integers(1, 4)))
        start = columns.stop + draw(st.integers(0, 2))
        rows += [tuple(sorted(draw(st.dictionaries(st.sampled_from(columns), entry,
                                                   min_size=1, max_size=3)).items()))
                 for _ in range(size)]
    return draw(st.permutations(rows + [()] * draw(st.integers(0, 2))))


def one(*columns):
    return tuple((k, Fraction(1)) for k in columns)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(blocks_of_rows())
@example([])                                                   # no rows
@example([(), ()])                                             # zero rows only
@example([one(0), one(1), one(2), (), one(3, 4)])              # disjoint supports
@example([one(0, 1), one(2, 3), one(1, 2), one(3, 4), one(0, 4)])  # one chain, late joins
@example([one(0, 1), one(2, 3), one(0, 1, 2, 3)])              # the last row joins two blocks
@example([one(1, 2), one(1), one(0, 2), one(2)])               # a join through a non-root column
@example([one(0, 1), one(2, 3), one(4), one(0, 1), ((2, Fraction(-2)), (3, Fraction(-2)))])
def test_rank_of_blocks_matches_sympy(rows):
    # the rank of rows in independent blocks is the sum of the blocks' ranks,
    # however the blocks' rows are interleaved
    cols = 1 + max((k for row in rows for k, _ in row), default=0)
    dense = [[dict(row).get(k, ZERO) for k in range(cols)] for row in rows]
    assert rank(rows) == sympy_matrix(dense, cols).rank()


@st.composite
def integer_matrices(draw):
    """(rows, cols): small integer entries, some rows and columns zeroed,
    and some rows repeated, as they are or negated."""
    cols = draw(st.integers(0, 7))
    rows = draw(st.lists(st.lists(st.integers(-2, 2), min_size=cols, max_size=cols),
                         max_size=7))
    zero_rows, zero_cols = draw(st.sets(st.integers(0, 6))), draw(st.sets(st.integers(0, 6)))
    rows = [[0 if i in zero_rows or j in zero_cols else x for j, x in enumerate(row)]
            for i, row in enumerate(rows)]
    if rows:
        copies = draw(st.lists(st.tuples(st.integers(0, len(rows) - 1), st.sampled_from((1, -1))),
                               max_size=3))
        rows += [[sign * x for x in rows[i]] for i, sign in copies]
    return rows, cols


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(integer_matrices())
@example(([], 0))                       # empty
@example(([], 4))                       # no rows
@example(([[], [], []], 0))             # no columns
@example(([[0, 0, 0]] * 4, 3))          # zero
@example(([[0, 2, 0, 1], [0, 2, 0, 1], [0, -2, 0, -1]], 4))  # repeated rows, zero columns
# pivots 1 and then -1: the rescale of the row [0, 0, 2, 1], whose entry in
# the second pivot column is zero, is skipped
@example(([[1, 0, 0, 1], [1, -1, 0, 0], [0, 0, 2, 1]], 4))
@example(([[0, -2, 1], [-2, -2, -1], [0, -1, 1]], 3))  # a pivot of -2 above a zero
def test_integer_pivots_match_sympy(drawn):
    rows, cols = drawn
    pivots = integer_pivots(rows)
    assert tuple(pivots) == sympy_matrix(rows, cols).rref()[1]
    assert integer_rank(rows) == len(pivots)


def boundary_rows(faces, s):
    """The +-1 boundary from the faces of size s to those of size s - 1,
    one row per face of size s."""
    lower = {face: i for i, face in enumerate(faces[s - 1])}
    rows = []
    for face in faces[s]:
        row = [0] * len(lower)
        for p in range(s):
            row[lower[face[:p] + face[p + 1:]]] = -1 if p % 2 else 1
        rows.append(row)
    return rows


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(st.frozensets(st.integers(0, 6), min_size=1, max_size=5),
                min_size=1, max_size=6))
def test_integer_rank_on_simplicial_boundaries(facets):
    faces = [sorted({face for f in facets for face in itertools.combinations(sorted(f), s)})
             for s in range(max(map(len, facets)) + 1)]
    for s in range(1, len(faces)):
        rows = boundary_rows(faces, s)
        assert_ranks_agree(rows, len(faces[s - 1]))
        if s > 1:  # d o d = 0, so the ranks of consecutive boundaries fit
            assert integer_rank(rows) + integer_rank(boundary_rows(faces, s - 1)) \
                <= len(faces[s - 1])
