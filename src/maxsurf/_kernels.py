"""Compiled Euler stepping loop for the scenarios on built-in profiles, and
the CSV row formatter of the run outputs.

``_step.c`` translates the numpy reference engine (flow.py's step over
geometry.py's per-kind evaluation) operation for operation (same stencils,
ghost fill, projection, per-step records, snapshots and exits) for the
curve1d and radial2d kinds on the built-in profiles and for disk2d on the
cylinder, with one stepping loop over a per-kind table, as flow.py has; its
one entry point ``maxsurf_run`` takes the kind as its first argument, and
for disk2d the disk grid's tables (each box row's run of inside nodes,
quadrature weights, ghost operator and ring sampler) in one struct.  Tests
compare the two engines, bit for bit.

The node loops multiply by the reciprocals of 2h and h^2 taken once a step,
and take w = sqrt(m) and v_hat = 1/w once a node (rhs = u_xx v_hat^2, v =
(v w) v_hat), as geometry.py does; a line grid's end nodes are taken outside
the loops, which hold no branch, and curve1d's stencil, V field, rate and
record fields are one pass over its inside nodes.  The trumpet's V field
(sgn sinh a, cosh a) calls no libm function: ``exp_parts`` forms e^a, e^a - 1
from adds, multiplies and the bits of 2^k, within an ulp of glibc's exp on
the trumpet's domain, as ``profiles._exp_parts`` does in numpy.

On first use the source is compiled with the system C compiler (``$CC``,
else ``cc``) and ``CFLAGS``, and loaded through ctypes.  The flags keep
results bit-identical to the scalar code: ``-O3`` vectorises loops without
reordering any floating-point operation, ``-fno-math-errno`` only spares
``sqrt`` (correctly rounded either way) its errno check, which otherwise
blocks vectorising the node loops, and ``-ffp-contract=off`` forbids fused
multiply-adds; ``-fopenmp-simd`` honours ``#pragma omp simd`` alone (no
OpenMP runtime, no threads), whose declared min/max reductions in the node
loops of every kind take the record's least margin, sup v, sup |H| and range
of u: an extreme is one value in any order, and a step where a NaN, an inf
or a signed zero could tell the orders apart takes them by the node-order
walk instead (see ``_step.c``).  Never ``-ffast-math``, and no ``-march``:
the cache key holds only the machine type, so a library tuned for one CPU
could be loaded on another that lacks its instructions.  The disk's row
kernel and curve1d's node pass instead carry their own AVX2 clones
(``target_clones``, on x86-64 with glibc), and the dynamic loader picks the
clone the running CPU supports, so one cached library serves every x86-64
machine.  The clones give the same bits: with contraction off, each lane of
either width runs the same correctly rounded add, multiply, divide and sqrt,
and only the min/max reductions above run in another order.  The shared
object is cached beside this module in ``__pycache__``, or in a per-user
temporary directory when that is not writable, as ``_step.<crc>.so``: its
key is the source, the compiler, the flags and the machine type, ``<crc>``
the key's CRC-32, and the key itself is stored beside it in
``_step.<crc>.key``, written only once the library is in place.  A cached
library is loaded only if its stored key equals the current one byte for
byte, so a CRC collision rebuilds rather than loads another build; a cache
hit imports neither hashlib nor subprocess, which only a compile needs.
Nothing is compiled at import.

The library's second entry point, ``maxsurf_format_rows`` (``format_rows``
here), writes blocks of CSV rows for ``runner``.  Its bytes equal Python's
``format(v, ".17g")``: the decade is an integer estimate from the binary
exponent, and the 17 significant digits of x = m 2^e one exact 128-bit
quotient, m 5^p 2^(p+e) or m 2^e / 10^-p, rounded half to even (from its
dropped digit where it has 18), written two at a time; outside that range
(below 1e-16, from 2^128 on, or without a 128-bit integer type) glibc's
``snprintf``, which rounds correctly, writes it; NaN is ``nan``, as in Python.

``available`` (read lazily) says whether the library could be built and
loaded; when it could not, ``reason`` holds a one-line explanation,
``flow.run`` stays on the numpy engine and ``runner`` formats its CSV
rows with Python's ``%``.
"""

from __future__ import annotations

import ctypes
import os
import pathlib
import platform
import shlex
import shutil
import tempfile
import zlib
from typing import Callable, NamedTuple, Optional

import numpy as np

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_step.c")
CFLAGS = ("-O3", "-fno-math-errno", "-ffp-contract=off", "-fopenmp-simd", "-fPIC", "-shared")
LDLIBS = ("-lm",)
COMPILE_TIMEOUT_S = 120

# built-in profiles: (code in _step.c, number of params); rotational
# cylinder(R), pseudosphere(A, B), sine_tube(a, b, w); planar trumpet
PROFILES = {"cylinder": (0, 1), "pseudosphere": (1, 2), "sine_tube": (2, 3), "trumpet": (10, 0)}
# a chunk's snapshot buffer stays within this many bytes (address space that
# stride-1 runs would otherwise reserve without touching)
SNAPSHOT_BUFFER_BYTES = 64 << 20

NREC = 17
# the longest %.17g value, "-2.2250738585072014e-308", and its separator
CSV_VALUE_BYTES = 25
(_STATUS_CHUNK, _STATUS_GUARD, _STATUS_CONV, _STATUS_TEND, _STATUS_DT_UNDERFLOW,
 _STATUS_NEWTON) = range(6)

_loaded = None      # (library or None, reason or None) after the first attempt


class BuildError(RuntimeError):
    """The library could not be compiled or loaded."""


_F64P, _I64P = ctypes.POINTER(ctypes.c_double), ctypes.POINTER(ctypes.c_int64)


class _Disk(ctypes.Structure):
    """The struct Disk of _step.c: a disk grid's tables."""

    _fields_ = [
        ("m", ctypes.c_int64), ("h", ctypes.c_double), ("radius", ctypes.c_double),
        ("row_lo", _I64P), ("row_hi", _I64P), ("area", _F64P),
        ("n_ghost", ctypes.c_int64), ("ghost_node", _I64P), ("ghost_ptr", _I64P),
        ("ghost_col", _I64P), ("ghost_val", _F64P),
        ("n_angles", ctypes.c_int64), ("ring_col", _I64P), ("ring_val", _F64P),
        ("ring_delta", ctypes.c_double),
    ]


def _disk_tables(grid):
    """(struct Disk, the arrays it points into) for a disk.DiskGrid."""
    G, ring = grid.ghost_operator, grid.ring_sampler
    if not np.all(np.diff(ring.indptr) == 4):
        raise ValueError("the ring sampler needs 4 taps per row")
    # each box row's inside nodes, as one run of flat indices [row_lo, row_hi)
    m = grid.X.shape[0]
    count = grid.inside.sum(axis=1)
    first = np.where(count > 0, grid.inside.argmax(axis=1), 0)
    cols = np.arange(m)
    if not np.array_equal(grid.inside, (cols >= first[:, None]) & (cols < (first + count)[:, None])):
        raise ValueError("the inside nodes of each box row must form one run")
    row_lo = cols * m + first
    f64 = {name: np.ascontiguousarray(a, dtype=np.float64) for name, a in (
        ("area", grid.area_weights), ("ghost_val", G.data), ("ring_val", ring.data))}
    i64 = {name: np.ascontiguousarray(a, dtype=np.int64) for name, a in (
        ("row_lo", row_lo), ("row_hi", row_lo + count), ("ghost_node", grid.ghost_flat),
        ("ghost_ptr", G.indptr), ("ghost_col", G.indices), ("ring_col", ring.indices))}
    tables = _Disk(m=m, h=grid.h, radius=grid.radius, n_ghost=grid.ghost_flat.size,
                   n_angles=grid.ring_angles.size, ring_delta=grid.ring_delta,
                   **{k: a.ctypes.data_as(_F64P) for k, a in f64.items()},
                   **{k: a.ctypes.data_as(_I64P) for k, a in i64.items()})
    return tables, (f64, i64)


class _Kind(NamedTuple):
    code: int              # the kind argument of maxsurf_run
    rim: Optional[str]     # the incidence Newton's variable; None where the rim stays put
    setup: Callable        # (state0, profile) -> (params, boundary (lo, hi), struct Disk
                           # or None, the arrays it points into)
    boundary: Callable     # (lo, hi) -> FlowState.boundary


def _disk_setup(state0, profile):
    from .disk import disk_grid

    dg = disk_grid(state0.grid.n, state0.grid.radius)
    return ((), (dg.radius, dg.radius), *_disk_tables(dg))    # the disk reads no profile


KINDS = {
    # a planar profile's parameters are its domain, to which its V field clamps |x|
    "curve1d": _Kind(0, "x", lambda s, p: (p.domain, s.boundary, None, None),
                     lambda lo, hi: (float(lo), float(hi))),
    "radial2d": _Kind(1, "rho",
                      lambda s, p: (p.params, (s.boundary, s.boundary), None, None),
                      lambda lo, hi: float(hi)),
    "disk2d": _Kind(2, None, _disk_setup, lambda lo, hi: None),
}


def _compiler() -> list:
    cmd = shlex.split(os.environ.get("CC", "cc")) or ["cc"]
    path = shutil.which(cmd[0])
    if path is None:
        raise BuildError(f"no C compiler found (tried {cmd[0]!r})")
    return [path, *cmd[1:]]


def _cache_dir() -> str:
    """__pycache__ beside this module, else a private per-user temporary directory."""
    here = os.path.join(os.path.dirname(SOURCE), "__pycache__")
    try:
        os.makedirs(here, exist_ok=True)
        if os.access(here, os.W_OK | os.X_OK):
            return here
    except OSError:
        pass
    per_user = os.path.join(tempfile.gettempdir(), f"maxsurf-{os.getuid()}")
    os.makedirs(per_user, mode=0o700, exist_ok=True)
    st = os.stat(per_user)
    if st.st_uid != os.getuid() or st.st_mode & 0o022:
        raise BuildError(f"{per_user} is not a private directory")
    return per_user


def _build() -> str:
    """Path of the compiled library, compiling it first unless the cached one
    was built from this very key."""
    cc = _compiler()
    with open(SOURCE, "rb") as f:
        source = f.read()
    key = repr((source, cc, CFLAGS, LDLIBS, platform.machine())).encode()
    stem = os.path.join(_cache_dir(), f"_step.{zlib.crc32(key):08x}")
    try:
        with open(stem + ".key", "rb") as f:
            if f.read() == key and os.path.isfile(stem + ".so"):
                return stem + ".so"
    except OSError:
        pass
    _replace_atomically(stem + ".so", lambda tmp: _compile(cc, tmp))
    # only after the library: a stored key always names a whole library
    _replace_atomically(stem + ".key", lambda tmp: pathlib.Path(tmp).write_bytes(key))
    return stem + ".so"


def _compile(cc: list, out: str) -> None:
    import subprocess    # a compile alone needs it

    try:
        proc = subprocess.run([*cc, *CFLAGS, "-o", out, SOURCE, *LDLIBS],
                              capture_output=True, text=True, errors="replace",
                              timeout=COMPILE_TIMEOUT_S)
    except subprocess.SubprocessError as exc:
        raise BuildError(f"{os.path.basename(cc[0])}: {exc}") from exc
    if proc.returncode != 0:
        first = (proc.stderr.strip().splitlines() or ["no output"])[0]
        raise BuildError(f"{os.path.basename(cc[0])} exited with {proc.returncode}: {first}")


def _replace_atomically(path: str, fill: Callable) -> None:
    """fill(tmp) writes a temporary file beside path, which then replaces
    path in one rename: concurrent workers see the old file or the whole new
    one, never a partial file."""
    fd, tmp = tempfile.mkstemp(prefix=os.path.basename(path) + ".", suffix=".tmp",
                               dir=os.path.dirname(path))
    os.close(fd)
    try:
        fill(tmp)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load_library(path: str):
    lib = ctypes.CDLL(path)
    f64 = np.ctypeslib.ndpointer(dtype=np.float64, flags="C_CONTIGUOUS")
    i64 = np.ctypeslib.ndpointer(dtype=np.int64, flags="C_CONTIGUOUS")
    lib.maxsurf_run.argtypes = [
        ctypes.c_int, ctypes.c_int64, f64, f64, f64,       # kind, n, u, bnd, t
        f64, ctypes.c_int, f64, ctypes.POINTER(_Disk),     # s_ref, code, prm, disk
        ctypes.c_double, ctypes.c_double, ctypes.c_double, ctypes.c_double,
        ctypes.c_int,                                      # cfl .. t_end, has_t_end
        ctypes.c_int64, ctypes.c_int64, i64,               # max_steps, stride, k
        f64, i64, f64, f64, f64, i64, i64,                 # rec .. nsnap
        f64, f64,                                          # fail, work
    ]
    lib.maxsurf_run.restype = ctypes.c_int
    lib.maxsurf_format_rows.argtypes = [f64, ctypes.c_int64, ctypes.c_int64,
                                        np.ctypeslib.ndpointer(dtype=np.uint8, flags="C_CONTIGUOUS")]
    lib.maxsurf_format_rows.restype = ctypes.c_int64
    lib.maxsurf_trumpet_V.argtypes = [ctypes.c_int64, f64, ctypes.c_double, ctypes.c_double,
                                      f64, f64]
    lib.maxsurf_trumpet_V.restype = None
    lib.maxsurf_exp_parts.argtypes = [ctypes.c_int64, f64, f64, f64]
    lib.maxsurf_exp_parts.restype = None
    return lib


def load():
    """(library, None) once built and loaded, else (None, one-line reason)."""
    global _loaded
    if _loaded is None:
        try:
            _loaded = (_load_library(_build()), None)
        except (BuildError, OSError, ValueError, AttributeError) as exc:
            reason = " ".join(str(exc).split()) or type(exc).__name__
            _loaded = (None, f"C library (step loop, CSV formatter) unavailable: {reason}")
    return _loaded


def __getattr__(name):
    if name == "available":
        return load()[0] is not None
    if name == "reason":
        return load()[1]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def format_rows(rows: np.ndarray, out: np.ndarray) -> int:
    """Write the rows of a 2-d float array into the uint8 buffer out as CSV
    lines of %.17g values, byte for byte as Python formats them; returns the
    number of bytes written.  Needs the library (see ``available``)."""
    rows = np.ascontiguousarray(rows, dtype=np.float64)
    if rows.ndim != 2 or out.size < rows.size * CSV_VALUE_BYTES:
        raise ValueError(f"{rows.size} values need a 2-d array and "
                         f"{rows.size * CSV_VALUE_BYTES} bytes of buffer, got {out.size}")
    return load()[0].maxsurf_format_rows(rows, rows.shape[0], rows.shape[1], out)


def run_fast(state0, ctrl, profile, stride):
    """``run`` on the compiled loop, in chunks of at most CHUNK_STEPS steps;
    the run ends through flow's ``_finish``, as the numpy loop's does."""
    from .flow import (
        CHUNK_STEPS, FlowEvent, RecordBuffer, check_profile, _finish, _newton_failure,
        _step_underflow,
    )
    from .geometry import FlowState

    lib = load()[0]
    grid = state0.grid
    kind = KINDS[grid.kind]
    shape = np.shape(state0.u)
    s_ref = grid.reference()    # per node, so of u's shape; unread on the disk
    check_profile(grid, profile)
    code, n_params = PROFILES[profile.kind]
    if shape != s_ref.shape or len(profile.params) != n_params:
        raise ValueError(f"a {grid.kind} state with the {profile.kind} profile "
                         "does not fit the step loop")
    prm, bnd, disk, keep_alive = kind.setup(state0, profile)    # disk points into keep_alive
    prm, bnd = np.array(prm, dtype=float), np.array(bnd, dtype=float)

    u = np.array(state0.u, dtype=float)
    n = u.size
    t = np.array([state0.t], dtype=float)
    k = np.zeros(1, dtype=np.int64)
    nrec, nsnap = np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64)
    fail = np.zeros(2)
    work = np.empty(12 * n)
    has_t_end = ctrl.t_end is not None
    records, states, state_steps = RecordBuffer(), [], []
    while True:
        chunk = int(min(CHUNK_STEPS, ctrl.max_steps - k[0]))
        chunk = min(chunk, max(1, SNAPSHOT_BUFFER_BYTES // (8 * n) - 3) * stride)
        max_snaps = chunk // stride + 3
        snaps = np.empty((max_snaps, n))
        snap_t = np.empty(max_snaps)
        snap_b = np.empty((max_snaps, 2))
        snap_k = np.empty(max_snaps, dtype=np.int64)
        rec = records.room(chunk + 1)    # the chunk's records and a spare row for the last
        status = lib.maxsurf_run(kind.code, n, u, bnd, t, s_ref, code, prm, disk,
                                 ctrl.cfl, ctrl.eps_guard, ctrl.h_stop,
                                 ctrl.t_end if has_t_end else 0.0, int(has_t_end),
                                 chunk, stride, k, rec, nrec,
                                 snaps, snap_t, snap_b, snap_k, nsnap, fail, work)
        records.count += int(nrec[0])
        # trim the snapshot buffer in place (a realloc, no copy; nothing else
        # refers to it yet) and hand out row views, so each snapshot is held once
        snaps.resize((int(nsnap[0]), n), refcheck=False)
        for j in range(int(nsnap[0])):
            states.append(FlowState(grid, float(snap_t[j]), snaps[j].reshape(shape),
                                    kind.boundary(snap_b[j, 0], snap_b[j, 1])))
            state_steps.append(int(snap_k[j]))
        if status == _STATUS_DT_UNDERFLOW:
            raise _step_underflow(fail[0], fail[1])
        if status == _STATUS_NEWTON:
            raise _newton_failure(kind.rim, fail[0], fail[1])
        if status == _STATUS_GUARD:
            event, event_time = FlowEvent.GUARD_TRIPPED, float(t[0])
            break
        if status == _STATUS_CONV:
            event, event_time = FlowEvent.CONVERGED, float(rec[nrec[0] - 1, 0])
            break
        if status == _STATUS_TEND:
            event, event_time = FlowEvent.TIME_EXHAUSTED, float(t[0])
            break
        if k[0] >= ctrl.max_steps:
            event, event_time = FlowEvent.STEP_LIMIT, float(t[0])
            break
    # the loop writes the tripped state's record itself
    return _finish(records, states, state_steps,
                   FlowState(grid, float(t[0]), u, kind.boundary(bnd[0], bnd[1])), int(k[0]),
                   event, event_time, profile, recorded=event is FlowEvent.GUARD_TRIPPED)
