"""Cartesian disk grid with mirror-point ghosts for the perpendicular condition.

The fixed-boundary cylinder scenario evolves a graph over the disk rho <= R.
Nodes are cell-centered (never exactly on the rim circle) with one pad ring,
so every stencil and every mirror interpolation stays inside the stored
array.  A ghost node g outside the circle takes the value of its mirror
point m = (2R/|g| - 1) g inside, which enforces du/drho = 0 at the rim to
second order; mirror values are bilinear in the surrounding cell, whose
corners may be ghosts themselves.  Apart from a ghost's reference to itself
this ghost-ghost coupling A_gg is acyclic, so (I - A_gg) is triangular up to
an ordering of the ghosts: at construction, substitution in dependency order
solves it exactly into one sparse ghost operator G = (I - A_gg)^-1 A_gi from
the inside values to the ghost values (a CSR), which both stepping engines
apply.

Quadrature weights are exact cell-disk intersection areas, with the coverage
of cells centered outside the circle lumped onto the nearest inside node, so
the weights sum to pi R^2 to machine precision and the flat-disk volume is
exact; on curved states the rim lumping costs one order, i.e. quadrature
accuracy O(h) localized on an O(h) band.
"""

from __future__ import annotations

import numpy as np


def _circ_antiderivative(x, R: float):
    """Antiderivative of sqrt(R^2 - x^2)."""
    x = np.minimum(np.maximum(x, -R), R)
    return 0.5 * (x * np.sqrt(np.maximum(R * R - x * x, 0.0)) + R * R * np.arcsin(x / R))


def _cell_disk_areas(x0, x1, y0, y1, R: float) -> np.ndarray:
    """Exact areas of the cells [x0,x1]x[y0,y1] (arrays) intersected with the
    disk of radius R.

    Integrates clip(yc, y0, y1) - clip(-yc, y0, y1) over x with
    yc = sqrt(R^2 - x^2), split at the points where a clip switches branch;
    each strip is constant or a circular-segment antiderivative, and the
    strips are summed from the left.  A cut that does not apply is x1 again:
    its strip has no width and adds a zero.
    """
    x0 = np.maximum(x0, -R)
    x1 = np.minimum(x1, R)
    empty = (x1 <= x0) | (y0 >= R) | (y1 <= -R)
    cuts = [x0, x1]
    for y in (y0, y1):
        xc = np.sqrt(np.maximum(R * R - y * y, 0.0))
        for s in (-xc, xc):
            cuts.append(np.where((np.abs(y) <= R) & (x0 < s) & (s < x1), s, x1))
    xs = np.sort(np.stack(cuts, axis=-1), axis=-1)
    a, b = xs[:, :-1], xs[:, 1:]
    y0, y1 = y0[:, None], y1[:, None]
    xm = 0.5 * (a + b)
    yc = np.sqrt(np.maximum(R * R - xm * xm, 0.0))
    seg = _circ_antiderivative(b, R) - _circ_antiderivative(a, R)
    upper = np.where(yc < y1, seg, y1 * (b - a))        # curved upper boundary, or flat
    lower = np.where(-yc > y0, -seg, y0 * (b - a))      # curved lower boundary, or flat
    strips = np.where((yc <= y0) | (-yc >= y1), 0.0, upper - lower)   # or missing the band
    total = np.zeros(x0.shape)
    for k in range(strips.shape[1]):
        total += strips[:, k]
    return np.where(empty, 0.0, np.maximum(total, 0.0))


class CSR:
    """A sparse matrix in compressed rows: row k holds data[j] at column
    indices[j] for indptr[k] <= j < indptr[k+1].

    ``A @ x`` acts on the last axis of x and sums each row's terms in stored
    order from +0.0, as the C step loop does.  It gathers the terms into a
    (width x rows) table, +0.0 past a row's last term; a running sum that
    starts at +0.0 is never -0.0, so adding that padding leaves it unchanged.
    """

    def __init__(self, indptr, indices, data):
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.data = np.asarray(data, dtype=float)
        counts = np.diff(self.indptr)
        slot = np.arange(counts.max(initial=0))[:, None]
        self._active = slot < counts
        at = np.where(self._active, self.indptr[:-1] + slot, 0)   # the padding is never read
        self._cols, self._vals = self.indices[at], self.data[at]

    @classmethod
    def from_rows(cls, rows) -> "CSR":
        """From one {column: value} dict per row; columns are stored sorted."""
        rows = [sorted(r.items()) for r in rows]
        pairs = [p for r in rows for p in r]
        return cls(np.cumsum([0] + [len(r) for r in rows]),
                   [c for c, _ in pairs], [v for _, v in pairs])

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        terms = np.multiply(self._vals, np.take(x, self._cols, axis=-1), where=self._active,
                            out=np.zeros(x.shape[:-1] + self._cols.shape))
        out = np.zeros(terms.shape[:-2] + terms.shape[-1:])
        for k in range(terms.shape[-2]):
            out += terms[..., k, :]
        return out


def _substitute(rows: dict) -> dict:
    """The ghost operator's rows, X = A_gi + A_gg X solved by substitution.

    rows maps each ghost node to its mirror taps (node, weight, inside).  Apart
    from self-references the ghost-ghost coupling is acyclic, so the ghosts are
    taken in dependency order, each row being
    X_g = (inside taps + sum over ghosts d != g of w_gd X_d) / (1 - w_gg).
    Returns {ghost: {inside node: weight}} without exact zeros; a cycle
    raises ValueError.
    """
    users = {g: [] for g in rows}
    waiting = {}
    for g, taps in rows.items():
        deps = {c for c, w, inside in taps if w != 0.0 and not inside and c != g}
        waiting[g] = len(deps)
        for d in deps:
            users[d].append(g)
    ready = [g for g, k in waiting.items() if k == 0]
    solved = {}
    while ready:
        g = ready.pop()
        acc, self_weight = {}, 0.0
        for c, w, inside in rows[g]:
            if w == 0.0:
                continue
            if inside:
                acc[c] = acc.get(c, 0.0) + w
            elif c == g:
                self_weight += w
            else:
                for k, x in solved[c].items():
                    acc[k] = acc.get(k, 0.0) + w * x
        scale = 1.0 - self_weight
        solved[g] = {k: x / scale for k, x in acc.items() if x != 0.0}
        for user in users[g]:
            waiting[user] -= 1
            if waiting[user] == 0:
                ready.append(user)
    if len(solved) < len(rows):
        raise ValueError("the ghost-ghost coupling has a cycle; substitution cannot solve it")
    return solved


def grow(mask: np.ndarray, diagonal: bool = True) -> np.ndarray:
    """mask and the neighbours of its nodes on the box: the eight around each,
    or with diagonal False the four along the axes."""
    out = mask.copy()
    m0, m1 = mask.shape
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di and dj and not diagonal:
                continue
            out[max(di, 0):m0 + min(di, 0), max(dj, 0):m1 + min(dj, 0)] |= \
                mask[max(-di, 0):m0 + min(-di, 0), max(-dj, 0):m1 + min(-dj, 0)]
    return out


class DiskGrid:
    def __init__(self, n: int, radius: float = 1.0):
        if n < 5:
            raise ValueError("disk grid needs at least 5 nodes per axis")
        self.n = int(n)
        self.radius = float(radius)
        self.h = 2.0 * self.radius / self.n
        m = self.n + 2  # one pad ring per side
        idx = np.arange(m)
        self.coord = -self.radius + (idx - 0.5) * self.h
        self.X, self.Y = np.meshgrid(self.coord, self.coord, indexing="ij")
        self.r = np.hypot(self.X, self.Y)
        self.inside = self.r < self.radius
        self._build_ghosts()
        self._build_weights()
        self._build_boundary_ring()

    # -- ghost machinery ---------------------------------------------------

    def _cells(self, x, y):
        """Bilinear cells of the points (x, y), arrays: each cell's corner rows
        and columns and their weights, the four corners (i0, j0), (i0 + 1, j0),
        (i0, j0 + 1), (i0 + 1, j0 + 1) on a trailing axis, the cell clipped
        into the box."""
        m = self.coord.size
        fi = (x - self.coord[0]) / self.h
        fj = (y - self.coord[0]) / self.h
        i0 = np.clip(np.floor(fi).astype(np.int64), 0, m - 2)
        j0 = np.clip(np.floor(fj).astype(np.int64), 0, m - 2)
        tx, ty = fi - i0, fj - j0
        return (i0[..., None] + [0, 1, 0, 1], j0[..., None] + [0, 0, 1, 1],
                np.stack([(1 - tx) * (1 - ty), tx * (1 - ty), (1 - tx) * ty, tx * ty], axis=-1))

    def _mirror_cells(self, i, j):
        """The bilinear cells (see _cells) of the mirror points of the ghosts
        (i, j), arrays."""
        xg, yg = self.coord[i], self.coord[j]
        d = np.hypot(xg, yg)
        scale = (2.0 * self.radius - d) / d
        return self._cells(xg * scale, yg * scale)

    def _build_ghosts(self) -> None:
        """The ghosts are the outside neighbours of inside nodes and, in turn,
        the outside corners of a ghost's mirror cell."""
        m = self.inside.shape[0]
        inside = self.inside.ravel()
        outside = np.flatnonzero(~inside)
        ci, cj, w = self._mirror_cells(*np.divmod(outside, m))
        corners = np.zeros((m * m, 4), dtype=np.int64)
        weights = np.zeros((m * m, 4))
        corners[outside], weights[outside] = ci * m + cj, w
        ghost = np.zeros(m * m, dtype=bool)
        front = np.flatnonzero(grow(self.inside) & ~self.inside)
        while front.size:
            ghost[front] = True
            c = corners[front].ravel()
            front = np.unique(c[~inside[c] & ~ghost[c]])
        self.ghost_flat = np.flatnonzero(ghost)
        c = corners[self.ghost_flat]
        taps = {g: list(zip(*row)) for g, *row in zip(
            self.ghost_flat.tolist(), c.tolist(), weights[self.ghost_flat].tolist(),
            inside[c].tolist())}
        solved = _substitute(taps)
        self.ghost_operator = CSR.from_rows([solved[g] for g in taps])

    def fill_ghosts(self, u: np.ndarray) -> np.ndarray:
        """Return a copy of u with ghost entries set by mirror reflection.

        u may stack several fields along leading axes.
        """
        out = u.copy()
        flat = out.reshape(out.shape[:-2] + (-1,))
        flat[..., self.ghost_flat] = self.ghost_operator @ flat
        return out

    # -- quadrature and monitor geometry ------------------------------------

    def _build_weights(self) -> None:
        R, h = self.radius, self.h
        rmin = np.hypot(np.maximum(np.abs(self.X) - h / 2, 0.0),
                        np.maximum(np.abs(self.Y) - h / 2, 0.0))
        rmax = np.hypot(np.abs(self.X) + h / 2, np.abs(self.Y) + h / 2)
        w = np.zeros_like(self.X)
        w[rmax < R] = h * h
        rim = (rmin < R) & (rmax >= R)
        x, y = self.X[rim], self.Y[rim]
        w[rim] = _cell_disk_areas(x - h / 2, x + h / 2, y - h / 2, y + h / 2, R)
        # coverage of cells whose node sits outside the circle is lumped onto
        # the nearest inside node along the inward ray (O(h^2) consistent):
        # the first of 4 steps of 0.7h that lands inside, if any
        out = rim & ~self.inside
        x, y = self.X[out], self.Y[out]
        r = np.hypot(x, y)
        target = np.full(r.shape, -1)
        for step in range(4, 0, -1):
            scale = (r - step * 0.7 * h) / r
            ii = np.rint((x * scale - self.coord[0]) / h).astype(np.int64)
            jj = np.rint((y * scale - self.coord[0]) / h).astype(np.int64)
            target = np.where(self.inside[ii, jj], ii * self.inside.shape[0] + jj, target)
        found = target >= 0
        # one cell after another in row order, as the sums' bits depend on it
        np.add.at(w.reshape(-1), target[found], w[out][found])
        w[out] = 0.0
        self.area_weights = w

    def _build_boundary_ring(self) -> None:
        n_angles = min(4 * self.n, 128)
        self.ring_angles = (np.arange(n_angles) + 0.5) * (2.0 * np.pi / n_angles)
        # the inside eroded twice, an erosion being ~grow(~mask): exact, as the
        # inside is False on the pad ring
        self.deep = ~grow(grow(~self.inside))
        # mirror-ghost second derivatives are only O(1) in a ~2-cell rim band,
        # so boundary monitors sample an offset circle inside the clean zone;
        # all bilinear cells below stay strictly inside the disk
        self.ring_offset = 2.0 * self.h
        self.ring_radius = self.radius - self.ring_offset
        self.ring_delta = 1.5 * self.h
        # one operator for the three sampling circles R_off - k*1.5h, k = 0, 1, 2:
        # row k*n_angles + a samples circle k at angle a
        radii = self.ring_radius - np.arange(3.0)[:, None] * self.ring_delta
        ci, cj, w = self._cells((radii * np.cos(self.ring_angles)).ravel(),
                                (radii * np.sin(self.ring_angles)).ravel())
        order = [0, 2, 1, 3]       # each row's 4 taps in increasing column order
        self.ring_sampler = CSR(4 * np.arange(w.shape[0] + 1),
                                (ci * self.coord.size + cj)[:, order].ravel(), w[:, order].ravel())
        # its first circle alone (4 taps a row), for rim_values
        ring = self.ring_sampler
        self._rim_sampler = CSR(ring.indptr[:n_angles + 1], ring.indices[:4 * n_angles],
                                ring.data[:4 * n_angles])

    def radial_derivative_at_rim(self, w: np.ndarray):
        """One-sided second-order d(w)/drho at the monitor ring, per angle.

        Samples the field at radii R_off - k*1.5h (all cells strictly inside
        the disk, no ghost values involved) and applies the outward 3-point
        formula; evaluating the boundary identities on the offset ring costs
        one order, consistent with the monitors' >= 1 target.
        """
        v0, v1, v2 = (self.ring_sampler @ w.ravel()).reshape(3, -1)
        return (3.0 * v0 - 4.0 * v1 + v2) / (2.0 * self.ring_delta)

    def rim_values(self, w: np.ndarray):
        """Field values on the monitor ring (radius R - 2h)."""
        return self._rim_sampler @ w.ravel()


_CACHE: dict[tuple[int, float], DiskGrid] = {}


def disk_grid(n: int, radius: float = 1.0) -> DiskGrid:
    key = (int(n), float(radius))
    if key not in _CACHE:
        _CACHE[key] = DiskGrid(*key)
    return _CACHE[key]
