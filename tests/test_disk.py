"""The disk grid's ghost operator and its sparse products."""

from fractions import Fraction

import numpy as np
import pytest

from maxsurf.disk import CSR, DiskGrid, _substitute


def mirror_taps(grid):
    """Each ghost's box-flat index and its mirror taps [(corner, weight, inside)]."""
    m = grid.inside.shape[0]
    ci, cj, w = grid._mirror_cells(*np.divmod(grid.ghost_flat, m))
    return [(int(g), [(int(i * m + j), float(wk), bool(grid.inside[i, j]))
                      for i, j, wk in zip(ci[k], cj[k], w[k])])
            for k, g in enumerate(grid.ghost_flat)]


def mirror_system(grid):
    """Dense (A_gg, A_gi) of the mirror taps, A_gi over the box-flat nodes."""
    m = grid.inside.shape[0]
    gindex = {g: k for k, g in enumerate(grid.ghost_flat.tolist())}
    A_gg = np.zeros((len(gindex), len(gindex)))
    A_gi = np.zeros((len(gindex), m * m))
    for k, (_, taps) in enumerate(mirror_taps(grid)):
        for c, w, inside in taps:
            if inside:
                A_gi[k, c] += w
            else:
                A_gg[k, gindex[c]] += w
    return A_gg, A_gi


def dense(op: CSR, n_cols: int) -> np.ndarray:
    out = np.zeros((op.indptr.size - 1, n_cols))
    for k in range(out.shape[0]):
        lo, hi = op.indptr[k], op.indptr[k + 1]
        out[k, op.indices[lo:hi]] = op.data[lo:hi]
    return out


def matvec_loop(op: CSR, x: np.ndarray) -> np.ndarray:
    """Each row's terms summed in stored order from +0.0, in Python floats."""
    out = []
    for k in range(op.indptr.size - 1):
        total = 0.0
        for j in range(op.indptr[k], op.indptr[k + 1]):
            total += float(op.data[j]) * float(x[op.indices[j]])
        out.append(total)
    return np.array(out)


@pytest.mark.parametrize("radius", [1.0, 0.8])
def test_ghost_operator_solves_the_mirror_system(radius):
    for n in [*range(5, 65), 97, 101, 201]:
        grid = DiskGrid(n, radius)
        A_gg, A_gi = mirror_system(grid)
        # the columns any row touches; the rest are zero on both sides
        cols = np.union1d(grid.ghost_operator.indices, np.flatnonzero(A_gi.any(axis=0)))
        G = dense(grid.ghost_operator, A_gi.shape[1])[:, cols]
        assert np.abs(G - A_gg @ G - A_gi[:, cols]).max() <= 1e-15, n
        assert np.all(grid.inside.ravel()[grid.ghost_operator.indices]), n


@pytest.mark.parametrize("radius", [1.0, 0.8])
def test_ghost_operator_matches_a_dense_solve(radius):
    # the LU solve is the less accurate side: where a ghost's self-weight nears
    # 0.97 it is off the exact rational solution by up to 3.1e-15 (n = 48),
    # substitution by at most 1.3e-16 (n = 42, radius 0.8)
    for n in range(5, 66):
        grid = DiskGrid(n, radius)
        A_gg, A_gi = mirror_system(grid)
        solved = np.linalg.solve(np.eye(A_gg.shape[0]) - A_gg, A_gi)
        assert np.abs(dense(grid.ghost_operator, A_gi.shape[1]) - solved).max() <= 4e-15, n


def test_ghost_operator_rows_are_sorted_without_zeros():
    G = DiskGrid(101).ghost_operator
    assert np.all(G.data != 0.0)
    for k in range(G.indptr.size - 1):
        assert np.all(np.diff(G.indices[G.indptr[k]:G.indptr[k + 1]]) > 0)


def test_ghost_operator_is_within_1e16_of_the_exact_solution():
    # the exact rational solution, checked to solve the mirror system exactly
    grid = DiskGrid(33)
    taps = {g: [(c, Fraction(w), inside) for c, w, inside in row]
            for g, row in mirror_taps(grid)}
    exact = {}

    def solve(g):
        if g not in exact:
            acc, self_weight = {}, Fraction(0)
            for c, w, inside in taps[g]:
                if inside:
                    acc[c] = acc.get(c, 0) + w
                elif c == g:
                    self_weight += w
                else:
                    for col, x in solve(c).items():
                        acc[col] = acc.get(col, 0) + w * x
            exact[g] = {col: x / (1 - self_weight) for col, x in acc.items()}
        return exact[g]

    for g in taps:   # X_g - A_gi[g] - sum over ghosts c of A_gg[g, c] X_c == 0
        row = dict(solve(g))
        for c, w, inside in taps[g]:
            for col, x in ({c: 1} if inside else solve(c)).items():
                row[col] = row.get(col, 0) - w * x
        assert not any(row.values())
    G = grid.ghost_operator
    for k, g in enumerate(grid.ghost_flat):
        got = dict(zip(G.indices[G.indptr[k]:G.indptr[k + 1]], G.data[G.indptr[k]:G.indptr[k + 1]]))
        for col in set(got) | set(exact[int(g)]):
            err = Fraction(float(got.get(col, 0.0))) - exact[int(g)].get(col, 0)
            assert abs(err) <= Fraction(1, 10**16), (g, col)


def test_substitution_takes_self_references_and_rejects_a_cycle():
    # ghost 0 refers to itself and to ghost 1, which reads inside node 7
    solved = _substitute({0: [(0, 0.5, False), (1, 0.25, False), (5, 0.25, True)],
                          1: [(7, 1.0, True)]})
    assert solved == {0: {5: 0.5, 7: 0.5}, 1: {7: 1.0}}
    with pytest.raises(ValueError, match="cycle"):
        _substitute({0: [(1, 0.5, False), (5, 0.5, True)],
                     1: [(0, 0.5, False), (6, 0.5, True)]})


def test_csr_product_sums_each_row_in_stored_order():
    rng = np.random.default_rng(3)
    grid = DiskGrid(33)
    n = grid.inside.size
    ragged = CSR([0, 3, 3, 4, 9], [5, 0, 5, 2, 1, 3, 0, 4, 6],
                 [1e300, -0.0, 0.5, 1e-300, 1.0, -1.0, 2.0, 0.25, 1e300])
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 301, n)
    x[rng.choice(n, 60, replace=False)] = rng.choice([np.nan, np.inf, -np.inf, -0.0], 60)
    inputs = [x, np.full(n, -0.0), np.full(n, 1e300), np.full(n, 1e-300), np.full(n, np.inf)]
    for op in (grid.ghost_operator, grid.ring_sampler, ragged):
        with np.errstate(over="ignore", invalid="ignore"):    # the inputs overflow
            got = [op @ v for v in inputs]
            # a stack of fields along leading axes: each field on its own
            stacked = op @ np.stack(inputs).reshape(5, 1, n)
        assert stacked.shape == (5, 1, op.indptr.size - 1)
        for v, one, row in zip(inputs, got, stacked):
            want = matvec_loop(op, v)
            assert one.tobytes() == want.tobytes()
            assert row[0].tobytes() == want.tobytes()
    assert not np.signbit(grid.ghost_operator @ np.full(n, -0.0)).any()


def test_fill_ghosts_stacks_fields():
    grid = DiskGrid(33)
    rng = np.random.default_rng(5)
    u = rng.standard_normal((3, 2) + grid.inside.shape)
    out = grid.fill_ghosts(u).reshape(6, -1)
    ghost = np.isin(np.arange(grid.inside.size), grid.ghost_flat)
    assert np.array_equal(out[:, ~ghost], u.reshape(6, -1)[:, ~ghost])
    for a, b in zip(out, u.reshape(6, -1)):
        assert a[grid.ghost_flat].tobytes() == matvec_loop(grid.ghost_operator, b).tobytes()


@pytest.mark.parametrize("radius", [1.0, 0.8])
def test_ring_sampler_reads_no_ghost_node(radius):
    # the monitor rings lie inside the clean zone, so sampling u with or
    # without its ghost values gives the same bits (not at N = 5, where
    # h = 2R/5 puts the inner rings at radii -0.4 R and -R)
    for n in [*range(6, 40), 65, 97, 101]:
        grid = DiskGrid(n, radius)
        assert not np.isin(grid.ring_sampler.indices, grid.ghost_flat).any(), n
