/*
 * Explicit Euler stepping loop for the three grid kinds on the built-in
 * profiles: curve1d (trumpet), radial2d (cylinder, pseudosphere, sine_tube)
 * and disk2d (the cylinder of the disk's radius, whose du/drho = 0 on the
 * fixed rim is the condition the disk imposes; the disk path calls no
 * profile function).
 *
 * This is a translation of the numpy reference engine in flow.py, operation
 * for operation: the same stencils, ghost fill, time step bound, incidence
 * projection, per-step 17-column record, snapshots at a stride, and guard,
 * convergence and t_end exits.  Floating-point expressions keep the
 * reference's order of evaluation, and the file is compiled with
 * -O3 -fno-math-errno -ffp-contract=off -fopenmp-simd, never fast-math: -O3
 * vectorises loops but reorders no floating-point operation, each lane doing
 * what the scalar loop did; -fno-math-errno only lets sqrt, correctly rounded
 * either way, be the instruction (without it no loop calling sqrt
 * vectorises); no contraction into fused multiply-adds; -fopenmp-simd only
 * honours `#pragma omp simd` (no OpenMP runtime, no threads), whose declared
 * min/max reductions are the one place an order changes (see below).  The
 * profile functions are libm's in both engines (profiles.py evaluates the
 * trumpet's s, s' and s'' on a number through math), and the trumpet's V
 * field is one formula in both, so the states and records follow the
 * reference bit for bit wherever the tests compare them.  The integrals
 * (volume, int H^2 dV) are summed pairwise, as numpy sums the reference's.
 *
 * The node loops take no division by h: they multiply by the reciprocals of
 * 2h and h^2, taken once a step, and a node takes one sqrt and one division,
 * w = sqrt(m) and v_hat = 1/w, so that rhs = u_xx v_hat^2, H = v_hat rhs and
 * v = (v w) v_hat are products (geometry.py does the same).  A line grid's
 * two end nodes, whose slope the boundary imposes, are taken first, outside
 * the loops, which thus hold no branch; each line kind then makes one pass
 * over its inside nodes.  The trumpet's V field (sgn sinh a,
 * cosh a) calls no libm function: exp_parts forms e^a and e^a - 1 from adds,
 * multiplies and the bits of 2^k, within an ulp of glibc's exp on the
 * trumpet's domain, and a node takes one more division, 1/e^a.
 *
 * No -march either: _kernels.py caches the library under the machine type
 * alone, so it must run on every CPU of that type.  The loops where vector
 * width pays, the disk's row kernel, the line kinds' passes over their inside
 * nodes, the row kernels of the disk's residual walk and the two passes of
 * curve1d's walk, are cloned for AVX2 instead (target_clones, on x86-64
 * with glibc, whose loader picks the clone once).
 * The clones agree bit for bit: without contraction an AVX2 lane does the
 * SSE2 lane's correctly rounded add, mul, div and sqrt, and of the loops'
 * operations only the declared min/max reductions change order.
 *
 * The record's least margin, sup v, sup |H| and range of u are simd
 * reductions, in whatever order the lanes run: the disk's row kernel takes
 * them, and the line kinds' passes, the end nodes being folded in apart from
 * the loops.  Without a NaN, an inf or a tie of +0.0 and -0.0 the extreme of
 * a set is one value whatever the order; a step where a NaN or an inf
 * entered (a check sum says so) or where u's range ends on a zero takes them
 * by the node-order walk instead (take_sups and settle_sups: the first NaN
 * sticks, a tie keeps the earlier value), as numpy's reductions over the
 * reference's fields do.  sup v_hat is 1/sqrt(m_min) on every kind: v_hat =
 * 1/sqrt(m) node by node, and correctly rounded sqrt and division are
 * monotone, so the largest v_hat is that of the least margin bit for bit,
 * NaN and inf included.
 *
 * As in flow.py, each kind supplies only what differs (see KINDS): its
 * evaluation (the rate with the moving grid's advection term, and the
 * record's per-node fields H, v and dV), its rim block(s) and its projection
 * back onto the boundary.  One loop, maxsurf_run, does the rest.
 *
 * _kernels.py compiles the file with the system C compiler and calls
 * maxsurf_run through ctypes, one chunk of steps per call, with
 *
 *   kind                            K_CURVE1D, K_RADIAL2D or K_DISK2D
 *   n, u[n], bnd[2], t              state, updated in place; bnd holds
 *                                   (x_left, x_right), (rho_b, rho_b) or, on
 *                                   the fixed disk, (R, R); a disk state is
 *                                   the row-major (N+2) x (N+2) box, n = (N+2)^2
 *   s_ref[n]                        the line grids' reference coordinate
 *   code, prm[]                     profile code and parameters
 *   disk                            the disk grid's tables (struct Disk),
 *                                   NULL for the line kinds
 *   cfl, eps_guard, h_stop, t_end, has_t_end
 *   max_steps, stride, k            steps in this chunk, snapshot stride,
 *                                   global step counter (updated)
 *   rec[(max_steps+1)*17], nrec     per-step records of the pre-step states
 *   snaps[*n], snap_t, snap_b[*2], snap_k, nsnap
 *                                   snapshots at k % stride == 0 and of a
 *                                   guard-tripped state
 *   fail[2]                         on ST_DT_UNDERFLOW (dt, t); on
 *                                   ST_NEWTON (rim start point, residual)
 *   work[STEP_ARRAYS*n]             scratch (see Step)
 *
 * and returns one of the ST_* codes.  maxsurf_exp_parts and maxsurf_trumpet_V
 * evaluate exp_parts and trumpet_V over an array, for the tests.
 *
 * maxsurf_disk_residuals and maxsurf_curve1d_residuals walk the evolution
 * residuals of the disk and of curve1d on the trumpet over a trajectory's
 * stored states, as monitors' numpy walk does (see their sections below); a
 * node's fields come from disk_node, or stencil_node and trumpet_V, as the
 * step's do.
 *
 * The file also holds the run outputs' CSV formatter, maxsurf_format_rows
 * (see the end of the file), which writes rows of doubles byte for byte as
 * Python's format(v, ".17g") does: the decade is an integer estimate from the
 * binary exponent, the 17 digits one exact 128-bit integer quotient rounded
 * half to even, written two at a time from a table in fixed-width blocks, and
 * the values outside that range go to snprintf, which glibc rounds correctly.
 */
#include <math.h>
#include <stdio.h>
#include <stdint.h>
#include <string.h>

#define NREC 17

/* chunk exit status; mirrored in _kernels.py */
enum { ST_CHUNK, ST_GUARD, ST_CONV, ST_TEND, ST_DT_UNDERFLOW, ST_NEWTON };

/* grid kinds; mirrored in _kernels.KINDS */
enum { K_CURVE1D = 0, K_RADIAL2D = 1, K_DISK2D = 2 };

/* rotational profile codes; mirrored in _kernels.PROFILES */
enum { P_CYLINDER = 0, P_PSEUDOSPHERE = 1, P_SINE_TUBE = 2 };

/* numpy's max/min reductions propagate NaN; so do these selects: the first
 * NaN sticks, and a tie keeps the earlier value (`&`, not `&&`, lets GCC
 * test acc against x first: a well-predicted branch that skips the NaN test) */
#define TAKE_MAX(acc, x) do { double x_ = (x); (acc) = ((acc) == (acc)) & !((acc) >= x_) ? x_ : (acc); } while (0)
#define TAKE_MIN(acc, x) do { double x_ = (x); (acc) = ((acc) == (acc)) & !((acc) <= x_) ? x_ : (acc); } while (0)

/* Python floats and numpy scalars evaluate x**k as pow(x, k), which can
 * differ from x*x in the last bit; reading the exponent through a volatile
 * keeps the compiler from folding pow(x, 2.0) into x*x. */
static volatile double TWO = 2.0, THREE = 3.0;

/* an AVX2 clone beside the default build, where the loader can choose */
#if defined(__x86_64__) && defined(__GLIBC__)
#define AVX2_CLONE __attribute__((target_clones("avx2", "default")))
#else
#define AVX2_CLONE
#endif

/* Python's max(1.0, a) */
static double max1(double a) { return a > 1.0 ? a : 1.0; }

/* -- profiles (profiles.py), on the reference's scalar path ------------------ */

static double rot_f(int code, const double *p, double z)
{
    if (code == P_CYLINDER)
        return p[0];
    if (code == P_PSEUDOSPHERE) {
        double zb = z + p[1];
        return sqrt(p[0] * p[0] + pow(zb, TWO));
    }
    return p[0] + p[1] * sin(p[2] * z);
}

static double rot_df(int code, const double *p, double z)
{
    if (code == P_CYLINDER)
        return 0.0;
    if (code == P_PSEUDOSPHERE)
        return (z + p[1]) / rot_f(code, p, z);
    return p[1] * p[2] * cos(p[2] * z);
}

/* rot_df as profile.df evaluates it over an array (radial2d's f' at its
 * nodes): numpy's array power takes (z+B)**2 as x*x, not as pow */
static double rot_df_array(int code, const double *p, double z)
{
    if (code == P_PSEUDOSPHERE) {
        double zb = z + p[1];
        return zb / sqrt(p[0] * p[0] + zb * zb);
    }
    return rot_df(code, p, z);
}

static double rot_d2f(int code, const double *p, double z)
{
    if (code == P_CYLINDER)
        return 0.0;
    if (code == P_PSEUDOSPHERE)
        return p[0] * p[0] / pow(rot_f(code, p, z), THREE);
    return -p[1] * p[2] * p[2] * sin(p[2] * z);
}

/* the trumpet y = log sinh x, the one built-in planar boundary */
static double planar_s(double x) { return log(sinh(x)); }
static double planar_ds(double x) { return 1.0 / tanh(x); }
static double planar_d2s(double x) { return -1.0 / pow(sinh(x), TWO); }

/* e^a and e^a - 1 without libm (profiles._exp_parts): a = k ln 2 + r with
 * k = round(a / ln 2) (adding and subtracting 1.5 2^52 rounds to an integer)
 * and |r| <= ln(2)/2 by Cody and Waite's two-part ln 2, whose high part times
 * k is exact; e^r - 1 = r + r^2 q(r), q the Taylor polynomial to degree 11
 * (degree 13 in all; the remainder is below 0.05 ulp) in Estrin's scheme,
 * whose short chains of dependent operations overlap; 2^k is the bits
 * (k + 1023) << 52, k sitting in the low bits of a / ln 2 + 1.5 2^52.  Plain
 * adds and multiplies, so a loop over it vectorises.  For 0 <= a < 709, where
 * 2^k is a normal number. */
static const double LN2_HI = 0x1.62e42feep-1, LN2_LO = 0x1.a39ef35793c76p-33,
                    INV_LN2 = 0x1.71547652b82fep+0, ROUND_SHIFT = 0x1.8p52;
/* 1/2!, ..., 1/13!, as Python's 1 / math.factorial(k) rounds them */
static const double C2 = 1.0 / 2.0, C3 = 1.0 / 6.0, C4 = 1.0 / 24.0, C5 = 1.0 / 120.0,
                    C6 = 1.0 / 720.0, C7 = 1.0 / 5040.0, C8 = 1.0 / 40320.0,
                    C9 = 1.0 / 362880.0, C10 = 1.0 / 3628800.0, C11 = 1.0 / 39916800.0,
                    C12 = 1.0 / 479001600.0, C13 = 1.0 / 6227020800.0;

static inline void exp_parts(double a, double *e, double *em1)
{
    double t = a * INV_LN2 + ROUND_SHIFT;
    double k = t - ROUND_SHIFT;
    double r = (a - k * LN2_HI) - k * LN2_LO;
    double r2 = r * r, r4 = r2 * r2, r8 = r4 * r4;
    double q = ((C2 + C3 * r) + (C4 + C5 * r) * r2) + ((C6 + C7 * r) + (C8 + C9 * r) * r2) * r4 +
               ((C10 + C11 * r) + (C12 + C13 * r) * r2) * r8;
    double p = r + r2 * q;
    uint64_t bits, one = 1023;
    memcpy(&bits, &t, sizeof bits);
    bits = (bits + one) << 52;
    double scale;
    memcpy(&scale, &bits, sizeof scale);
    double sp = scale * p;
    *e = sp + scale;
    *em1 = sp + (scale - 1.0);
}

/* the trumpet's V field (profiles._trumpet_V): (sgn(x) sinh a, cosh a) with
 * a = |x| clamped to the domain [lo, hi], from e = e^a and e - 1 with one
 * division: sinh a = (e1 + e1/e)/2, cosh a = (e + 1/e)/2, neither cancelling */
static inline void trumpet_V(double x, double lo, double hi, double *Vx, double *Vt)
{
    double a = fabs(x);
    a = a < lo ? lo : a;          /* numpy's maximum and minimum: a NaN stays */
    a = a > hi ? hi : a;
    double e, em1;
    exp_parts(a, &e, &em1);
    double ie = 1.0 / e;
    *Vx = copysign(0.5 * (em1 + em1 * ie), x);
    *Vt = 0.5 * (e + ie);
}

/* trumpet_V at x[0..n) with the domain [lo, hi], for the tests */
void maxsurf_trumpet_V(int64_t n, const double *x, double lo, double hi, double *Vx, double *Vt)
{
    for (int64_t i = 0; i < n; ++i)
        trumpet_V(x[i], lo, hi, Vx + i, Vt + i);
}

/* exp_parts at a[0..n), for the tests */
void maxsurf_exp_parts(int64_t n, const double *a, double *e, double *em1)
{
    for (int64_t i = 0; i < n; ++i)
        exp_parts(a[i], e + i, em1 + i);
}

/* -- the incidence Newton (flow._newton and its two residuals) --------------- */

/* one rim's incidence equation: start point x0, rim height ub, surface slope;
 * s is where planar_residual keeps s(|x|) at the last point it took */
typedef struct {
    int code;
    const double *prm;
    double x0, ub, slope, s;
} Incidence;

/* the residual phi(x), and phi'(x) in *dphi unless dphi is NULL */
typedef double (*Residual)(Incidence *c, double x, double *dphi);

/* slide the rim point along the surface tangent onto y = s(|x|), on the
 * branch of the start point */
static double planar_residual(Incidence *c, double x, double *dphi)
{
    double ax = fabs(x);
    if (dphi)
        *dphi = c->slope - (c->x0 > 0 ? 1.0 : -1.0) * planar_ds(ax);
    c->s = planar_s(ax);
    return c->ub + c->slope * (x - c->x0) - c->s;
}

/* r = f(u_b + slope (r - rho_b)) for the rim radius */
static double rotational_residual(Incidence *c, double r, double *dphi)
{
    double z = c->ub + c->slope * (r - c->x0);
    if (dphi)
        *dphi = 1.0 - rot_df(c->code, c->prm, z) * c->slope;
    return r - rot_f(c->code, c->prm, z);
}

/* Root of phi near the predicted rim point c->x0: returns 0 and the root in
 * *x, at which the closing residual is taken, or 1 with (start point,
 * residual) in fail[]. */
static int newton(Residual phi, Incidence *c, double *x, double *fail)
{
    double xi = c->x0;
    for (int it = 0; it < 12; ++it) {
        double dphi, p = phi(c, xi, &dphi);
        double xi_new = xi - p / dphi;
        int done = fabs(xi_new - xi) < 1e-14 * max1(fabs(xi));
        xi = xi_new;
        if (done)
            break;
    }
    double res = phi(c, xi, NULL);
    *x = xi;
    if (fabs(res) < 1e-9)
        return 0;
    fail[0] = c->x0;
    fail[1] = res;
    return 1;
}

/* -- per-step record (flow._pack_record) and snapshots ------------------------ */

typedef struct {
    double res_h, res_v, grad_v, h2_ineq, a_nn;
} Block;

/* the record's sups of v, v_hat and |H| and the range of u */
typedef struct {
    double v, vh, H, umin, umax;
} Sups;

/* the order-free reductions of a step: the least margin, sup v, sup |H|, the
 * range of u, and a sum that is nonzero exactly when a NaN or an inf entered */
typedef struct {
    double m, v, H, umin, umax, bad;
} Run;

/* one record row, in the order of flow.RECORD_COLUMNS */
static void store_record(double *r, double t, Sups s, double vol, double ih2,
                         double blo, double bhi, Block b)
{
    const double row[NREC] = {t, s.v, s.vh, s.H, vol, ih2, s.umax - s.umin, s.umin, s.umax,
                              blo, bhi, b.res_h, b.res_v, b.grad_v, b.h2_ineq, b.a_nn, NAN};
    memcpy(r, row, sizeof row);
}

static Block merge_blocks(Block a, Block b)
{
    Block m = a;
    TAKE_MAX(m.res_h, b.res_h);
    TAKE_MAX(m.res_v, b.res_v);
    TAKE_MAX(m.grad_v, b.grad_v);
    TAKE_MAX(m.h2_ineq, b.h2_ineq);
    TAKE_MIN(m.a_nn, b.a_nn);
    return m;
}

static void take_snapshot(int64_t n, const double *u, double t, double blo, double bhi,
                          int64_t k, double *snaps, double *snap_t, double *snap_b,
                          int64_t *snap_k, int64_t *nsnap)
{
    int64_t j = *nsnap;
    memcpy(snaps + j * n, u, n * sizeof *u);
    snap_t[j] = t;
    snap_b[2 * j] = blo;
    snap_b[2 * j + 1] = bhi;
    snap_k[j] = k;
    *nsnap = j + 1;
}

/* -- what the kinds share: the state, its evaluation and the work arrays ----- */

/* The disk grid (disk.DiskGrid): the (N+2) x (N+2) box of cell-centred
 * nodes, row-major with x the first index, and its two sparse operators,
 * each row applied in its stored order (as disk.CSR does). */
typedef struct {
    int64_t m;                       /* nodes per box side, N + 2 */
    double h, radius;
    const int64_t *row_lo, *row_hi;  /* [m] row x's inside nodes: row_lo[x] <= i < row_hi[x] */
    const double *area;              /* [m*m] quadrature weights */
    /* the ghost operator G in CSR form: ghost node ghost_node[g] takes the sum
     * of ghost_val[j] u[ghost_col[j]] over ghost_ptr[g] <= j < ghost_ptr[g+1],
     * the columns being inside nodes */
    int64_t n_ghost;
    const int64_t *ghost_node, *ghost_ptr, *ghost_col;
    const double *ghost_val;
    /* the monitor ring: row k n_angles + a samples the circle of radius
     * R - 2h - k ring_delta at angle a from the 4 bilinear taps
     * ring_col[4 row + j], ring_val[4 row + j], j = 0..3 */
    int64_t n_angles;
    const int64_t *ring_col;
    const double *ring_val;
    double ring_delta;
} Disk;

/* a line grid's end, low (node 0) or high (node n - 1): its imposed slope u_x,
 * w, v_hat, rhs from the ghost form (the update's) and from the one-sided
 * form (the record's and the boundary speed's), and s'(|x|) or f'(u_b) */
typedef struct {
    double ux, w, vh, rhs, r_one, ds;
} End;

/* the step's work arrays of n doubles; mirrored in _kernels.STEP_WORK_ARRAYS */
enum { W_M, W_H, W_V, W_DV, W_H2DV, W_UDOT, W_UNEW, W_UF, STEP_ARRAYS };

typedef struct {
    int64_t n;
    double nm1;                      /* n - 1 */
    const double *s_ref;
    int code;
    const double *prm;
    const Disk *disk;
    double *u;
    double *m, *H, *v;               /* the margin 1 - |Du|^2 and record fields; radial2d
                                        first stores f'(u) in v */
    double *dV, *H2dV;               /* summands of vol and ih2 (disk2d: of the N x N core) */
    double vol, ih2;                 /* the record's sums of dV and H^2 dV */
    const int64_t *span_lo, *span_hi;   /* the record's nodes: span_lo[j] <= i < span_hi[j], */
    int64_t n_spans;                    /* [0, n) on a line, the disk's row runs */
    double *udot, *unew;             /* du/dt with advection, the Euler update
                                        (disk2d: u itself, which the projection keeps) */
    double *uf;                      /* disk2d: u with its ghost values */
    End end[2];                      /* a line grid's ends */
    double b[2];                     /* (x_l, x_r), or (rho_b, rho_b) */
    double bdot[2], bnew[2];         /* boundary velocity, the Euler update */
    double h, inv_h2, m_min;
    Sups sup;                        /* the record's sups; sup.vh is 1/sqrt(m_min) */
} Step;

/* the reductions over no node */
static const Run NO_NODES = {INFINITY, -INFINITY, -INFINITY, INFINITY, -INFINITY, 0.0};

/* points slots[0..count) at successive arrays of n doubles from next, and
 * returns the double after the last */
static double *carve(double *next, int64_t n, int count, double **slots)
{
    for (int j = 0; j < count; ++j, next += n)
        slots[j] = next;
    return next;
}

/* the record's Sups over the spans, in node order, but for sup v_hat (which
 * maxsurf_run takes from m_min) */
static Sups take_sups(const Step *S)
{
    Sups s = {-INFINITY, NAN, -INFINITY, INFINITY, -INFINITY};
    for (int64_t j = 0; j < S->n_spans; ++j)
        for (int64_t i = S->span_lo[j]; i < S->span_hi[j]; ++i) {
            TAKE_MAX(s.v, S->v[i]);
            TAKE_MAX(s.H, fabs(S->H[i]));
            TAKE_MIN(s.umin, S->u[i]);
            TAKE_MAX(s.umax, S->u[i]);
        }
    return s;
}

/* The record's sups and the least margin from a step's order-free
 * reductions r, or by the node-order walk where the order could show: where
 * a NaN or an inf entered (r.bad != 0) or u's range ends on a zero that may
 * be -0.0 (m = 1 - |Du|^2 and |H| are never -0.0; sup v is positive on a
 * spacelike state, and is checked all the same). */
static void settle_sups(Step *S, Run r)
{
    if (r.bad != 0.0 || r.umin == 0.0 || r.umax == 0.0 || r.v == 0.0) {
        S->sup = take_sups(S);
        r.m = INFINITY;
        for (int64_t j = 0; j < S->n_spans; ++j)
            for (int64_t i = S->span_lo[j]; i < S->span_hi[j]; ++i)
                TAKE_MIN(r.m, S->m[i]);
    } else {
        S->sup = (Sups){r.v, NAN, r.H, r.umin, r.umax};
    }
    S->m_min = r.m;
}

/* a line grid's end j with its imposed slope: u_x, w and v_hat there, and
 * the margin, folded into r's least margin and check sum; returns v_hat^2 */
static double line_end(Step *S, int j, double slope, Run *r)
{
    End *E = &S->end[j];
    double me = 1.0 - slope * slope;
    E->ux = slope;
    E->w = sqrt(me);
    E->vh = 1.0 / E->w;
    S->m[j ? S->n - 1 : 0] = me;
    r->m = me < r->m ? me : r->m;
    r->bad += me - me;
    return E->vh * E->vh;
}

/* a line grid's inside node i (geometry._line_derivatives): u_x and u_xx by
 * central differences times 1/(2h) and 1/h^2, the margin m = 1 - u_x^2,
 * w = sqrt(m), v_hat = 1/w and rhs = u_xx v_hat^2 */
typedef struct {
    double ux, m, w, vh, rhs;
} Node;

static inline Node stencil_node(const double *u, int64_t i, double inv_2h, double inv_h2)
{
    double d = (u[i + 1] - u[i - 1]) * inv_2h;
    double dd = (u[i + 1] - 2.0 * u[i] + u[i - 1]) * inv_h2;
    double mi = 1.0 - d * d;
    double wi = sqrt(mi), vhi = 1.0 / wi;
    return (Node){d, mi, wi, vhi, dd * (vhi * vhi)};
}

/* u_xx at the end e (inward step d = +-1) with the slope imposed there: the
 * ghost (mirror-slope) form for the update keeps the interior stencil's
 * stability bound; the second-order one-sided form gives the boundary
 * speeds and the recorded H */
static double ghost_uxx(const Step *S, int64_t e, int64_t d, double slope)
{
    const double *u = S->u;
    return (2.0 * u[e + d] - 2.0 * u[e] - d * (2.0 * S->h) * slope) * S->inv_h2;
}

static double one_sided_uxx(const Step *S, int64_t e, int64_t d, double slope)
{
    const double *u = S->u;
    return (-3.5 * u[e] + 4.0 * u[e + d] - 0.5 * u[e + 2 * d] - d * 3.0 * S->h * slope) *
           S->inv_h2;
}

/* numpy's pairwise summation of a[0..n), the reference's dV.sum() */
static double pairwise_sum(const double *a, int64_t n)
{
    if (n < 8) {
        double res = 0.0;
        for (int64_t i = 0; i < n; ++i)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        int64_t i;
        memcpy(r, a, sizeof r);
        for (i = 8; i < n - n % 8; i += 8)
            for (int j = 0; j < 8; ++j)
                r[j] += a[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; ++i)
            res += a[i];
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
}

/* the record's fields at a node of a line grid (geometry._line_fields): H =
 * v_hat rhs, v = (v w) v_hat, dV = dV_unit w h (dV_unit 1 on curve1d, 2 pi rho
 * on radial2d) and H^2 dV; h is the node's cell, the half cell at an end */
typedef struct {
    double H, v, dV, H2dV;
} Fields;

static inline Fields line_fields(double vh, double rhs, double vw, double dV_unit, double w,
                                 double h)
{
    double H = vh * rhs, dV = dV_unit * w * h;
    return (Fields){H, vw * vh, dV, H * H * dV};
}

/* line_fields at the end j of a line grid, H from the one-sided rhs, v w and
 * the unit dV given; folded into the reductions r */
static void line_end_fields(Step *S, int j, double vw, double dV_unit, Run *r)
{
    const End *E = &S->end[j];
    int64_t e = j ? S->n - 1 : 0;
    Fields f = line_fields(E->vh, E->r_one, vw, dV_unit, E->w, 0.5 * S->h);
    double aH = fabs(f.H), c = S->u[e];
    S->H[e] = f.H;
    S->v[e] = f.v;
    S->dV[e] = f.dV;
    S->H2dV[e] = f.H2dV;
    r->v = f.v > r->v ? f.v : r->v;
    r->H = aH > r->H ? aH : r->H;
    r->umin = c < r->umin ? c : r->umin;
    r->umax = c > r->umax ? c : r->umax;
    r->bad += (f.v - f.v) + (aH - aH) + (c - c);
}

/* the record's sums, pairwise, and its sups from the reductions r */
static void line_close(Step *S, Run r)
{
    S->vol = pairwise_sum(S->dV, S->n);
    S->ih2 = pairwise_sum(S->H2dV, S->n);
    settle_sups(S, r);
}

/* Boundary identity data at one boundary point (flow._boundary_block): rim
 * values H_b, vb, outward derivatives dH, dv, dH2 of H, v, H^2, the recorded
 * derivative of v, and the boundary's 1/sqrt(1-f'^2) and curvatures. */
static Block identity_block(double H_b, double vb, double dH, double dv, double dH2,
                            double dv_rec, double inv_w, double a_vv, double a_ww)
{
    Block b;
    b.a_nn = vb * vb * a_vv + (vb * vb - 1.0) * a_ww;
    b.res_h = fabs(dH * inv_w + H_b * b.a_nn);
    b.res_v = fabs(dv * inv_w + vb * (b.a_nn - a_vv));
    b.h2_ineq = dH2 * inv_w + H_b * H_b * a_vv;
    b.grad_v = dv_rec * inv_w;
    return b;
}

/* identity_block at the low (hi = 0) or high end of a line grid, from the
 * three nodes inside it (f1, f2, f3 = H at 1, 2, 3 nodes in), the end-side v
 * values (vb, v1, v2) and the outward one-sided sign `out`; v is recorded
 * with the sign-exact 2-point difference (flow._end_block) */
static Block boundary_block(const Step *S, int hi, double a_vv, double a_ww)
{
    int64_t e = hi ? S->n - 1 : 0, d = hi ? -1 : 1;     /* the end, inward */
    double f1 = S->H[e + d], f2 = S->H[e + 2 * d], f3 = S->H[e + 3 * d];
    double vb = S->v[e], v1 = S->v[e + d], v2 = S->v[e + 2 * d];
    double out = hi ? 1.0 : -1.0, h = S->h;
    double H_b = 3.0 * f1 - 3.0 * f2 + f3;
    double dH = (2.5 * f1 - 4.0 * f2 + 1.5 * f3) / h;
    double dH2 = (2.5 * (f1 * f1) - 4.0 * (f2 * f2) + 1.5 * (f3 * f3)) / h;
    double dv = out * ((3.0 * vb - 4.0 * v1 + v2) / (2.0 * h));
    double dv2pt = (vb - v1) / h;
    return identity_block(H_b, vb, dH, dv, dH2, dv2pt, S->end[hi].vh, a_vv, a_ww);
}

/* -- curve1d: u_t = u_xx / (1 - u_x^2) on [x_l(t), x_r(t)] -------------------- */

/* the nodes' drift and the trumpet's domain, for curve1d_node */
typedef struct {
    double xc, span, lo, hi, w_mid, w_half;
} Drift;

/* the position of the node of reference coordinate s (geometry._curve1d_coords) */
static inline double line_x(const Drift *g, double s) { return g->xc + s * 0.5 * g->span; }

/* the trumpet's V field on [lo, hi] and v w at the node of reference
 * coordinate s, and u_t with the node's drift w_mid + s w_half/2
 * (geometry._curve1d_fields, flow._curve1d_rate) */
static inline void curve1d_node(const Drift *g, double s, double ux, double rhs, double *vw,
                                double *udot)
{
    double Vx, Vt;
    trumpet_V(line_x(g, s), g->lo, g->hi, &Vx, &Vt);
    *vw = Vt - Vx * ux;
    *udot = rhs + (g->w_mid + s * 0.5 * g->w_half) * ux;
}

/* curve1d's one pass over its inside nodes: stencil_node, curve1d_node and
 * line_fields (the unit dV is 1), storing what the record, rim and update read,
 * and the reductions, from the ends' r.  Free of branches, so it vectorises;
 * the exponential is most of its work, so it is cloned for AVX2. */
AVX2_CLONE
static Run curve1d_inside(const Step *S, const Drift *g, Run r)
{
    const int64_t n = S->n;
    const double h = S->h, inv_2h = 1.0 / (2.0 * h), inv_h2 = S->inv_h2;
    const double *restrict u = S->u, *restrict s_ref = S->s_ref;
    double *restrict m = S->m, *restrict H = S->H, *restrict v = S->v, *restrict dV = S->dV,
           *restrict H2dV = S->H2dV, *restrict udot = S->udot;
    double m_lo = r.m, v_hi = r.v, H_hi = r.H, u_lo = r.umin, u_hi = r.umax, bad = r.bad;
#pragma omp simd reduction(min: m_lo, u_lo) reduction(max: v_hi, H_hi, u_hi) reduction(+: bad)
    for (int64_t i = 1; i < n - 1; ++i) {
        Node p = stencil_node(u, i, inv_2h, inv_h2);
        double vw;
        curve1d_node(g, s_ref[i], p.ux, p.rhs, &vw, udot + i);
        Fields f = line_fields(p.vh, p.rhs, vw, 1.0, p.w, h);
        double aH = fabs(f.H), c = u[i];
        m[i] = p.m;
        H[i] = f.H;
        v[i] = f.v;
        dV[i] = f.dV;
        H2dV[i] = f.H2dV;
        m_lo = p.m < m_lo ? p.m : m_lo;
        v_hi = f.v > v_hi ? f.v : v_hi;
        H_hi = aH > H_hi ? aH : H_hi;
        u_lo = c < u_lo ? c : u_lo;
        u_hi = c > u_hi ? c : u_hi;
        bad += (p.m - p.m) + (f.v - f.v) + (aH - aH) + (c - c);
    }
    return (Run){m_lo, v_hi, H_hi, u_lo, u_hi, bad};
}

/* geometry._curve1d_evaluate and flow._curve1d_rate; V is the trumpet's.  The
 * ends first (slope, ghost-form and one-sided rhs, boundary speed, then record
 * fields), which read only u near them, then curve1d_inside */
static void curve1d_evaluate(Step *S)
{
    const int64_t n = S->n;
    double xl = S->b[0], xr = S->b[1], h = (xr - xl) / S->nm1;
    Run r = NO_NODES;
    S->h = h;
    S->inv_h2 = 1.0 / (h * h);
    for (int j = 0; j < 2; ++j) {
        int64_t e = j ? n - 1 : 0, d = j ? -1 : 1;      /* the end, inward */
        End *E = &S->end[j];
        double ds = planar_ds(j ? xr : fabs(xl)), slope = -d / ds;
        double vh2 = line_end(S, j, slope, &r);
        E->rhs = ghost_uxx(S, e, d, slope) * vh2;
        E->r_one = one_sided_uxx(S, e, d, slope) * vh2;
        E->ds = ds;
        S->bdot[j] = -d * E->r_one * ds / (ds * ds - 1.0);
    }
    Drift g = {0.5 * (xl + xr), xr - xl, S->prm[0], S->prm[1], 0.5 * (S->bdot[0] + S->bdot[1]),
               S->bdot[1] - S->bdot[0]};
    for (int j = 0; j < 2; ++j) {
        int64_t e = j ? n - 1 : 0;
        double vw;
        curve1d_node(&g, S->s_ref[e], S->end[j].ux, S->end[j].rhs, &vw, S->udot + e);
        line_end_fields(S, j, vw, 1.0, &r);
    }
    line_close(S, curve1d_inside(S, &g, r));
}

static Block curve1d_rim(const Step *S, double *lo)
{
    double dsL = S->end[0].ds, dsR = S->end[1].ds;
    double wL = sqrt(dsL * dsL - 1.0), wR = sqrt(dsR * dsR - 1.0);
    *lo = S->b[0];
    return merge_blocks(boundary_block(S, 0, planar_d2s(fabs(S->b[0])) / pow(wL, THREE), 0.0),
                        boundary_block(S, 1, planar_d2s(fabs(S->b[1])) / pow(wR, THREE), 0.0));
}

/* exact incidence at both ends (u there is s(|x|) from newton's closing
 * residuals), then transport the interior along, u_x by 1/(new 2h) */
static int curve1d_project(Step *S, double *fail)
{
    const int64_t n = S->n;
    const double *unew = S->unew;
    double xl_new = S->bnew[0], xr_new = S->bnew[1];
    Incidence r = {0, NULL, xr_new, unew[n - 1], 1.0 / planar_ds(xr_new), 0.0};
    Incidence l = {0, NULL, xl_new, unew[0], -1.0 / planar_ds(fabs(xl_new)), 0.0};
    double xr_p, xl_p;
    if (newton(planar_residual, &r, &xr_p, fail) || newton(planar_residual, &l, &xl_p, fail))
        return 1;
    double d_lo = xl_p - xl_new, d_hi = xr_p - xr_new;
    double shift_mid = 0.5 * (d_lo + xr_p - xr_new), shift_half = d_hi - d_lo;
    double inv_2h = 1.0 / (2.0 * (xr_new - xl_new) / S->nm1);
    for (int64_t i = 1; i < n - 1; ++i) {
        double uxn = (unew[i + 1] - unew[i - 1]) * inv_2h;
        S->u[i] = unew[i] + (shift_mid + S->s_ref[i] * 0.5 * shift_half) * uxn;
    }
    S->u[0] = l.s;
    S->u[n - 1] = r.s;
    S->b[0] = xl_p;
    S->b[1] = xr_p;
    return 0;
}

/* -- radial2d: u_t = u_rr / (1 - u_r^2) + u_r / rho on [0, rho_b(t)] ----------- */

/* v w at a node of a rotational grid (geometry._radial2d_fields) from the
 * slope u_r and f'(u) */
static inline double rot_vw(double ux, double df)
{
    return (1.0 - df * ux) * (1.0 / sqrt(1.0 - df * df));
}

/* radial2d's one pass over its inside nodes, as curve1d_inside: stencil_node
 * with u_r / rho, rot_vw from the f' that v holds, u_t with the node's drift
 * s rdot, and line_fields (the unit dV is 2 pi rho).  The index is 32-bit:
 * SSE2 and AVX2 convert only 32-bit integers to doubles, for rho = i h. */
AVX2_CLONE
static Run radial2d_inside(const Step *S, double rdot, Run r)
{
    const int32_t n = (int32_t)S->n;
    const double h = S->h, inv_2h = 1.0 / (2.0 * h), inv_h2 = S->inv_h2, twopi = 2.0 * M_PI;
    const double *restrict u = S->u, *restrict s_ref = S->s_ref;
    double *restrict m = S->m, *restrict H = S->H, *restrict v = S->v, *restrict dV = S->dV,
           *restrict H2dV = S->H2dV, *restrict udot = S->udot;
    double m_lo = r.m, v_hi = r.v, H_hi = r.H, u_lo = r.umin, u_hi = r.umax, bad = r.bad;
#pragma omp simd reduction(min: m_lo, u_lo) reduction(max: v_hi, H_hi, u_hi) reduction(+: bad)
    for (int32_t i = 1; i < n - 1; ++i) {
        Node p = stencil_node(u, i, inv_2h, inv_h2);
        double rho = (double)i * h, rhs = p.rhs + p.ux / rho;
        Fields f = line_fields(p.vh, rhs, rot_vw(p.ux, v[i]), twopi * rho, p.w, h);
        double aH = fabs(f.H), c = u[i];
        udot[i] = rhs + s_ref[i] * rdot * p.ux;
        m[i] = p.m;
        H[i] = f.H;
        v[i] = f.v;
        dV[i] = f.dV;
        H2dV[i] = f.H2dV;
        m_lo = p.m < m_lo ? p.m : m_lo;
        v_hi = f.v > v_hi ? f.v : v_hi;
        H_hi = aH > H_hi ? aH : H_hi;
        u_lo = c < u_lo ? c : u_lo;
        u_hi = c > u_hi ? c : u_hi;
        bad += (p.m - p.m) + (f.v - f.v) + (aH - aH) + (c - c);
    }
    return (Run){m_lo, v_hi, H_hi, u_lo, u_hi, bad};
}

/* geometry._radial2d_evaluate and flow._radial2d_rate: f' at every node into
 * v, in a scalar pass (on the sine tube libm's cos, behind a branch that would
 * keep radial2d_inside from vectorising), the axis and the rim as curve1d's
 * ends, then radial2d_inside */
static void radial2d_evaluate(Step *S)
{
    const int64_t n = S->n;
    const double *u = S->u, twopi = 2.0 * M_PI;
    double rb = S->b[1], h = rb / S->nm1;
    double dfb = rot_df(S->code, S->prm, u[n - 1]);
    End *rim = &S->end[1];
    Run r = NO_NODES;
    for (int64_t i = 0; i < n; ++i)
        S->v[i] = rot_df_array(S->code, S->prm, u[i]);
    S->h = h;
    S->inv_h2 = 1.0 / (h * h);
    double vh2_0 = line_end(S, 0, 0.0, &r), vh2_b = line_end(S, 1, dfb, &r);
    /* even across the axis, where v_hat = 1: the reference's u_rr v_hat^2 + u_rr */
    double uxx0 = ghost_uxx(S, 0, 1, 0.0);
    S->end[0].rhs = S->end[0].r_one = uxx0 * vh2_0 + uxx0;
    rim->rhs = ghost_uxx(S, n - 1, -1, dfb) * vh2_b + dfb / rb;
    rim->r_one = one_sided_uxx(S, n - 1, -1, dfb) * vh2_b + dfb / rb;
    rim->ds = dfb;
    double rdot = dfb * rim->r_one / (1.0 - dfb * dfb);
    S->bdot[0] = S->bdot[1] = rdot;
    for (int j = 0; j < 2; ++j) {
        int64_t e = j ? n - 1 : 0;
        const End *E = &S->end[j];
        double rho = j ? rb : 0.0 * h;                  /* the rim node sits at rho_b */
        S->udot[e] = E->rhs + S->s_ref[e] * rdot * E->ux;
        line_end_fields(S, j, rot_vw(E->ux, S->v[e]), twopi * rho, &r);
    }
    line_close(S, radial2d_inside(S, rdot, r));
}

static Block radial2d_rim(const Step *S, double *lo)
{
    /* profiles.profile_curvature at the rim height */
    double zb = S->u[S->n - 1], dfb = S->end[1].ds;
    double fz = rot_f(S->code, S->prm, zb);
    double wb = sqrt(1.0 - dfb * dfb);
    *lo = 0.0;
    return boundary_block(S, 1, -rot_d2f(S->code, S->prm, zb) / pow(wb, THREE), 1.0 / (fz * wb));
}

/* rim radius back onto the tube, then transport the interior along, u_r by
 * the reciprocal of the new 2h */
static int radial2d_project(Step *S, double *fail)
{
    const int64_t n = S->n;
    const double *unew = S->unew;
    double rb_new = S->bnew[1];
    double dfbn = rot_df(S->code, S->prm, unew[n - 1]);
    double rb_p, du_b;
    if (fabs(dfbn) < 1e-13) {
        /* cylinder-like tangency: the rim radius is pinned by f itself */
        rb_p = rot_f(S->code, S->prm, unew[n - 1]);
        du_b = 0.0;
    } else {
        Incidence c = {S->code, S->prm, rb_new, unew[n - 1], dfbn, 0.0};
        if (newton(rotational_residual, &c, &rb_p, fail))
            return 1;
        du_b = dfbn * (rb_p - rb_new);
    }
    double d_rim = rb_p - rb_new;
    double inv_2h = 1.0 / (2.0 * rb_new / S->nm1);
    S->u[0] = unew[0];
    for (int64_t i = 1; i < n - 1; ++i)
        S->u[i] = unew[i] + S->s_ref[i] * d_rim * ((unew[i + 1] - unew[i - 1]) * inv_2h);
    double shift_b = S->s_ref[n - 1] * d_rim;
    double ub = unew[n - 1] + shift_b * dfbn;
    S->u[n - 1] = ub + (du_b - shift_b * dfbn);
    S->b[0] = S->b[1] = rb_p;
    return 0;
}

/* -- disk2d: u_t = (delta^ij + vhat^2 D^i u D^j u) D^2_ij u on a fixed disk ---- */

/* geometry.disk_gradient at box node i of f, inv_2h = 1/(2h): x runs along
 * the first index */
static inline void disk_gradient(const double *f, int64_t i, int64_t m, double inv_2h,
                                 double *ux, double *uy)
{
    *ux = (f[i + m] - f[i - m]) * inv_2h;
    *uy = (f[i + 1] - f[i - 1]) * inv_2h;
}

/* geometry._disk2d_evaluate at box node i of f: the central derivatives,
 * the margin m = 1 - |Du|^2, w = sqrt(m), v_hat = 1/w, v_hat^2 and rhs =
 * H / v_hat, the stencils multiplying by the reciprocals inv_2h = 1/(2h),
 * inv_h2 = 1/h^2 and inv_4h2 = 1/(4h^2).  The step's row kernel and the
 * residual walk both take a node's fields from here. */
typedef struct {
    double ux, uy, uxx, uyy, uxy, m, w, vh, vh2, rhs;
} DiskNode;

static inline DiskNode disk_node(const double *f, int64_t i, int64_t m, double inv_2h,
                                 double inv_h2, double inv_4h2)
{
    DiskNode d;
    double c = f[i];
    disk_gradient(f, i, m, inv_2h, &d.ux, &d.uy);
    d.uxx = (f[i + m] - 2.0 * c + f[i - m]) * inv_h2;
    d.uyy = (f[i + 1] - 2.0 * c + f[i - 1]) * inv_h2;
    d.uxy = (f[i + m + 1] + f[i - m - 1] - f[i + m - 1] - f[i - m + 1]) * inv_4h2;
    d.m = 1.0 - (d.ux * d.ux + d.uy * d.uy);
    d.w = sqrt(d.m);
    d.vh = 1.0 / d.w;
    d.vh2 = d.vh * d.vh;
    d.rhs = (d.uxx + d.uyy)
            + d.vh2 * (d.ux * d.ux * d.uxx + 2.0 * d.ux * d.uy * d.uxy + d.uy * d.uy * d.uyy);
    return d;
}

/* geometry._disk2d_fields and flow._disk2d_rate, with the record's
 * summands of vol and int H^2 dV, over one run of len inside nodes: each
 * pointer is at the run's first node (sdV and sH2dV at its place in the
 * N x N core).  Free of branches, so the compiler vectorises it;
 * (m - m) + (|H| - |H|) + (u - u) is 0, or NaN once a NaN or an inf
 * entered, in any order of summation.  Cloned for AVX2 (see the head of
 * the file). */
AVX2_CLONE
static Run disk2d_row(int64_t len, int64_t m, double h, const double *restrict f,
                      const double *restrict area, double *restrict mm, double *restrict H,
                      double *restrict v, double *restrict udot, double *restrict sdV,
                      double *restrict sH2dV)
{
    const double inv_2h = 1.0 / (2.0 * h), inv_h2 = 1.0 / (h * h),
                 inv_4h2 = 1.0 / (4.0 * h * h);
    double m_lo = INFINITY, H_hi = -INFINITY, u_lo = INFINITY, u_hi = -INFINITY, bad = 0.0;
#pragma omp simd reduction(min: m_lo, u_lo) reduction(max: H_hi, u_hi) reduction(+: bad)
    for (int64_t i = 0; i < len; ++i) {
        DiskNode d = disk_node(f, i, m, inv_2h, inv_h2, inv_4h2);
        double c = f[i], mi = d.m;
        double Hi = d.vh * d.rhs, dV = area[i] * d.w;
        mm[i] = mi;
        H[i] = Hi;
        v[i] = d.vh;                 /* V = e_t on the cylinder */
        udot[i] = d.rhs;
        sdV[i] = dV;
        sH2dV[i] = Hi * Hi * dV;
        double aH = fabs(Hi);
        m_lo = mi < m_lo ? mi : m_lo;
        H_hi = aH > H_hi ? aH : H_hi;
        u_lo = c < u_lo ? c : u_lo;
        u_hi = c > u_hi ? c : u_hi;
        bad += (mi - mi) + (aH - aH) + (c - c);
    }
    return (Run){m_lo, -INFINITY, H_hi, u_lo, u_hi, bad};
}

/* the fields off the inside nodes, which no step changes: udot = 0, and H = 0
 * and v = 1 where the ring may sample them; zero summands of the integrals */
static void disk2d_prepare(Step *S)
{
    const int64_t N = S->disk->m - 2;
    for (int64_t i = 0; i < S->n; ++i) {
        S->udot[i] = 0.0;
        S->H[i] = 0.0;
        S->v[i] = 1.0;
    }
    memset(S->dV, 0, N * N * sizeof *S->dV);
    memset(S->H2dV, 0, N * N * sizeof *S->H2dV);
}

/* disk.fill_ghosts: f = u with the ghost rows of G u[inside] */
static void fill_ghosts(const Disk *D, const double *u, double *f, int64_t n)
{
    memcpy(f, u, n * sizeof *f);
    for (int64_t g = 0; g < D->n_ghost; ++g) {
        double sum = 0.0;
        for (int64_t j = D->ghost_ptr[g]; j < D->ghost_ptr[g + 1]; ++j)
            sum += D->ghost_val[j] * u[D->ghost_col[j]];
        f[D->ghost_node[g]] = sum;
    }
}

/* the disk's evaluation over its row runs (the rest of the box does not move,
 * and disk2d_prepare set its fields), and the record's sups from the rows'
 * reductions; sup v is sup v_hat, v being v_hat node for node */
static void disk2d_evaluate(Step *S)
{
    const Disk *D = S->disk;
    const int64_t m = D->m, n = S->n, N = m - 2;
    double *f = S->uf;
    fill_ghosts(D, S->u, f, n);
    Run all = NO_NODES;
    for (int64_t x = 1; x < m - 1; ++x) {
        int64_t lo = D->row_lo[x], hi = D->row_hi[x];    /* rows off the pad are never empty */
        int64_t q = (x - 1) * N + (lo - x * m - 1);
        Run r = disk2d_row(hi - lo, m, D->h, f + lo, D->area + lo, S->m + lo, S->H + lo,
                           S->v + lo, S->udot + lo, S->dV + q, S->H2dV + q);
        TAKE_MIN(all.m, r.m);
        TAKE_MAX(all.H, r.H);
        TAKE_MIN(all.umin, r.umin);
        TAKE_MAX(all.umax, r.umax);
        all.bad += r.bad;
    }
    all.v = 1.0 / sqrt(all.m);        /* v is v_hat node for node */
    settle_sups(S, all);
    /* the integrals as the reference takes them: pairwise over the N x N core */
    S->vol = pairwise_sum(S->dV, N * N);
    S->ih2 = pairwise_sum(S->H2dV, N * N);
    S->h = D->h;
    S->bdot[0] = S->bdot[1] = 0.0;
}

/* one row of the ring sampler applied to w, or to w^2 */
static double ring_sample(const Disk *D, int64_t row, const double *w, int squared)
{
    const int64_t *col = D->ring_col + 4 * row;
    const double *val = D->ring_val + 4 * row;
    double sum = 0.0;
    for (int j = 0; j < 4; ++j)
        sum += val[j] * (squared ? w[col[j]] * w[col[j]] : w[col[j]]);
    return sum;
}

/* the boundary identities on the monitor ring (disk.rim_values and
 * radial_derivative_at_rim of H, v and H^2), with the cylinder's curvatures
 * A(V,V) = -f''/(1-f'^2)^(3/2) = -0.0 and A(W,W) = 1/(f sqrt(1-f'^2)) = 1/R,
 * and 1/sqrt(1-f'^2) = 1 */
static Block disk2d_rim(const Step *S, double *lo)
{
    const Disk *D = S->disk;
    const int64_t na = D->n_angles;
    const double two_delta = 2.0 * D->ring_delta, a_vv = -0.0, a_ww = 1.0 / D->radius;
    Block acc = {0};
    for (int64_t a = 0; a < na; ++a) {
        double Hk[3], vk[3], H2k[3];
        for (int k = 0; k < 3; ++k) {
            Hk[k] = ring_sample(D, k * na + a, S->H, 0);
            vk[k] = ring_sample(D, k * na + a, S->v, 0);
            H2k[k] = ring_sample(D, k * na + a, S->H, 1);
        }
        double dH = (3.0 * Hk[0] - 4.0 * Hk[1] + Hk[2]) / two_delta;
        double dv = (3.0 * vk[0] - 4.0 * vk[1] + vk[2]) / two_delta;
        double dH2 = (3.0 * H2k[0] - 4.0 * H2k[1] + H2k[2]) / two_delta;
        Block b = identity_block(Hk[0], vk[0], dH, dv, dH2, dv, 1.0, a_vv, a_ww);
        acc = a == 0 ? b : merge_blocks(acc, b);
    }
    *lo = D->radius;
    return acc;
}

/* the disk does not move: the update, written into u itself, is the new state */
static int disk2d_project(Step *S, double *fail)
{
    (void)S, (void)fail;
    return 0;
}

/* -- the per-kind table and the one stepping loop ----------------------------- */

typedef struct {
    void (*evaluate)(Step *);                /* PDE data, rates and record fields */
    Block (*rim)(const Step *, double *lo);  /* rim block(s); the record's boundary_lo */
    int (*project)(Step *, double *fail);    /* (unew, bnew) back onto the boundary */
    double dim_factor;                       /* the dt bound is cfl h^2 m_min / dim_factor */
} Kind;

static const Kind KINDS[] = {
    [K_CURVE1D] = {curve1d_evaluate, curve1d_rim, curve1d_project, 1.0},
    [K_RADIAL2D] = {radial2d_evaluate, radial2d_rim, radial2d_project, 2.0},
    [K_DISK2D] = {disk2d_evaluate, disk2d_rim, disk2d_project, 2.0},
};

int maxsurf_run(int kind, int64_t n, double *u, double *bnd, double *t_io,
                const double *s_ref, int code, const double *prm, const Disk *disk,
                double cfl, double eps_guard, double h_stop, double t_end,
                int has_t_end, int64_t max_steps, int64_t stride, int64_t *k_io,
                double *rec, int64_t *nrec, double *snaps, double *snap_t,
                double *snap_b, int64_t *snap_k, int64_t *nsnap,
                double *fail, double *work)
{
    const Kind *K = &KINDS[kind];
    const int64_t whole[2] = {0, n};
    double *a[STEP_ARRAYS];
    carve(work, n, STEP_ARRAYS, a);
    Step S = {
        .n = n, .nm1 = (double)(n - 1), .s_ref = s_ref, .code = code, .prm = prm,
        .disk = disk, .u = u, .m = a[W_M], .H = a[W_H], .v = a[W_V], .dV = a[W_DV],
        .H2dV = a[W_H2DV], .span_lo = disk ? disk->row_lo : whole,
        .span_hi = disk ? disk->row_hi : whole + 1, .n_spans = disk ? disk->m : 1,
        .udot = a[W_UDOT], .unew = disk ? u : a[W_UNEW], .uf = a[W_UF],
        .b = {bnd[0], bnd[1]},
    };
    if (disk)
        disk2d_prepare(&S);
    double t = *t_io;
    int64_t k = *k_io;
    int status = ST_CHUNK;
    *nrec = 0;
    *nsnap = 0;
    for (int64_t it = 0; it < max_steps; ++it) {
        K->evaluate(&S);
        int guard = !(S.m_min >= eps_guard);    /* a NaN margin trips it too */

        /* the record of the pre-step state (also the trip record): the sups and
         * the range of u over the spans, as flow._pack_record over its mask */
        Sups sup = S.sup;
        sup.vh = 1.0 / sqrt(S.m_min);
        double blo;
        Block b = K->rim(&S, &blo);
        if (k % stride == 0 || guard)
            take_snapshot(n, u, t, S.b[0], S.b[1], k, snaps, snap_t, snap_b, snap_k, nsnap);
        store_record(rec + NREC * (*nrec), t, sup, S.vol, S.ih2, blo, S.b[1], b);
        *nrec += 1;
        if (guard) {
            status = ST_GUARD;
            break;
        }

        /* flow._advance: the dt bound, flow._clip_dt, explicit Euler */
        double dt = cfl * S.h * S.h * S.m_min / K->dim_factor;
        if (has_t_end && t + dt > t_end)
            dt = t_end - t;
        if (dt < 1e-16 * max1(fabs(t))) {
            fail[0] = dt;
            fail[1] = t;
            status = ST_DT_UNDERFLOW;
            break;
        }
        for (int64_t i = 0; i < n; ++i)    /* the whole box: -0.0 + 0.0 is +0.0, as in numpy */
            S.unew[i] = u[i] + dt * S.udot[i];
        for (int j = 0; j < 2; ++j)
            S.bnew[j] = S.b[j] + dt * S.bdot[j];
        if (K->project(&S, fail)) {
            status = ST_NEWTON;
            break;
        }
        t = t + dt;
        k += 1;
        if (h_stop > 0.0 && sup.H < h_stop) {
            status = ST_CONV;
            break;
        }
        /* flow._t_end_reached */
        if (has_t_end && t >= t_end - 1e-14 * max1(fabs(t_end))) {
            status = ST_TEND;
            break;
        }
    }
    *t_io = t;
    bnd[0] = S.b[0];
    bnd[1] = S.b[1];
    *k_io = k;
    return status;
}

/* -- the disk's evolution residuals (monitors.evolution_residuals) ----------- */

/* The numpy walk over the stride-1 triples of a disk trajectory, operation
 * for operation: geometry._disk2d_evaluate, _disk2d_fields and
 * _disk2d_observe at the field nodes, disk_gradient and disk_divergence
 * (both divisions included) at the flux and deep nodes, and
 * monitors._material_rate and _fold_residuals at the deep nodes.  The deep
 * nodes lie 6h inside the rim; the flux nodes are they and their four
 * neighbours, where the Laplacian's divergence reads the fluxes; the field
 * nodes are the flux nodes and theirs, where the gradient reads F = (H, v).
 * Each state's fields are taken once, into a ring of three states' F and
 * two states' geometry, and a centre's residual is folded once its
 * successor's F is in.  The walk's nodes lie well inside the disk; a state
 * is ghost-filled for geometry's guard alone, which refuses a state whose
 * margin is not positive at any inside node, the rim's too, as the numpy
 * walk refuses it. */

/* The pieces that the disk's walk and curve1d's share. */

/* 0 where state s passes geometry's guard (its least margin m_lo positive,
 * none of its margins NaN), else s + 1, with fail[0] the least margin */
static int guard_verdict(int64_t s, double m_lo, int64_t nan, double *fail)
{
    if (!nan && m_lo > 0.0)
        return 0;
    fail[0] = nan ? NAN : m_lo;
    return (int)(s + 1);
}

/* monitors._material_rate's coefficients of F after, at and before a centre
 * and their denominator, from the times before (tm), at (to) and after (tp) */
static inline void rate_coefficients(double tm, double to, double tp, double c[4])
{
    double dm = to - tm, dp = tp - to;
    c[0] = dm * dm;
    c[1] = dp * dp - dm * dm;
    c[2] = dp * dp;
    c[3] = dp * dm * (dp + dm);
}

/* F's material rate at a node from F before (fm), at (fo) and after (fp) the
 * centre, with rate_coefficients' c */
static inline double material_rate(const double c[4], double fm, double fo, double fp)
{
    double r = c[0] * fp;
    r += c[1] * fo;
    r -= c[2] * fm;
    return r / c[3];
}

/* folds identity k's largest residual hi over a centre's nodes into res[k],
 * unless nan counts a NaN residual among them: np.fmax skips a NaN centre */
static void fold_centre(double *res, int k, double hi, int64_t nan)
{
    if (!nan && hi > res[k])
        res[k] = hi;
}

/* geometry.geometry's guard: the least margin over one run of inside nodes,
 * and the count of NaN margins */
AVX2_CLONE
static void margin_row(int64_t len, int64_t m, double inv_2h, const double *restrict f,
                       double *lo, int64_t *nan)
{
    double m_lo = *lo;
    int64_t bad = 0;
#pragma omp simd reduction(min: m_lo) reduction(+: bad)
    for (int64_t i = 0; i < len; ++i) {
        double ux, uy;
        disk_gradient(f, i, m, inv_2h, &ux, &uy);
        double mi = 1.0 - (ux * ux + uy * uy);
        m_lo = mi < m_lo ? mi : m_lo;
        bad += mi != mi;
    }
    *lo = m_lo;
    *nan += bad;
}

/* the observer's fields over one run of field nodes: H, v = v_hat, Du,
 * sqrt(det g) = 1 / v_hat, the inverse metric g^ij and |A|^2 */
AVX2_CLONE
static void fields_row(int64_t len, int64_t m, double h, const double *restrict f,
                       double *restrict H, double *restrict v, double *restrict ux,
                       double *restrict uy, double *restrict sg, double *restrict a11,
                       double *restrict a12, double *restrict a22, double *restrict nA2)
{
    const double inv_2h = 1.0 / (2.0 * h), inv_h2 = 1.0 / (h * h),
                 inv_4h2 = 1.0 / (4.0 * h * h);
    for (int64_t i = 0; i < len; ++i) {
        DiskNode d = disk_node(f, i, m, inv_2h, inv_h2, inv_4h2);
        double vh2_ux = d.vh2 * d.ux;
        double b11 = 1.0 + vh2_ux * d.ux, b12 = vh2_ux * d.uy, b22 = 1.0 + d.vh2 * d.uy * d.uy;
        double m11 = b11 * d.uxx + b12 * d.uxy, m12 = b11 * d.uxy + b12 * d.uyy;
        double m21 = b12 * d.uxx + b22 * d.uxy, m22 = b12 * d.uxy + b22 * d.uyy;
        H[i] = d.vh * d.rhs;
        v[i] = d.vh;                 /* V = e_t on the cylinder */
        ux[i] = d.ux;
        uy[i] = d.uy;
        sg[i] = 1.0 / d.vh;
        a11[i] = b11;
        a12[i] = b12;
        a22[i] = b22;
        nA2[i] = (m11 * m11 + 2.0 * m12 * m21 + m22 * m22) * d.vh2;
    }
}

/* the fluxes sqrt(det g) g^ij F_j of one field F over one run of flux nodes */
AVX2_CLONE
static void flux_row(int64_t len, int64_t m, double inv_2h, const double *restrict F,
                     const double *restrict a11, const double *restrict a12,
                     const double *restrict a22, const double *restrict sg,
                     double *restrict Fx, double *restrict Fy)
{
    for (int64_t i = 0; i < len; ++i) {
        double fx, fy;
        disk_gradient(F, i, m, inv_2h, &fx, &fy);
        Fx[i] = (a11[i] * fx + a12[i] * fy) * sg[i];
        Fy[i] = (a12[i] * fx + a22[i] * fy) * sg[i];
    }
}

/* One identity's residual |dF/dt + H v_hat Du . grad F - Lap F + F |A|^2|
 * over one run of deep nodes, the field F being H or v: the rate from F at
 * the states before (Fm), at (Fo) and after (Fp) the centre with
 * monitors._material_rate's coefficients c, the rest from the centre's
 * fields and fluxes.  Its largest value, and its count of NaNs, which the
 * largest value skips. */
AVX2_CLONE
static void residual_row(int64_t len, int64_t m, double h, const double *c,
                         const double *restrict Fm, const double *restrict Fo,
                         const double *restrict Fp, const double *restrict H,
                         const double *restrict v, const double *restrict ux,
                         const double *restrict uy, const double *restrict sg,
                         const double *restrict nA2, const double *restrict Fx,
                         const double *restrict Fy, double *hi, int64_t *nan)
{
    const double inv_2h = 1.0 / (2.0 * h), two_h = 2.0 * h;
    double r_hi = *hi;
    int64_t bad = 0;
#pragma omp simd reduction(max: r_hi) reduction(+: bad)
    for (int64_t i = 0; i < len; ++i) {
        double fx, fy;
        disk_gradient(Fo, i, m, inv_2h, &fx, &fy);
        double hv = H[i] * v[i];
        double lap = ((Fx[i + m] - Fx[i - m]) + (Fy[i + 1] - Fy[i - 1])) / two_h / sg[i];
        double rhs = -(Fo[i] * nA2[i]);
        double r = material_rate(c, Fm[i], Fo[i], Fp[i]);
        r += hv * ux[i] * fx;
        r += hv * uy[i] * fy;
        r -= lap;
        r = fabs(r - rhs);
        r_hi = r > r_hi ? r : r_hi;
        bad += r != r;
    }
    *hi = r_hi;
    *nan += bad;
}

/* per state of the ring of three: F = (H, v) */
enum { F_H, F_V, F_ARRAYS };
/* per state of the ring of two: Du, sqrt(det g), g^ij and |A|^2 */
enum { G_UX, G_UY, G_SG, G_A11, G_A12, G_A22, G_NA2, G_ARRAYS };
/* scratch: the ghost-filled u and one field's fluxes */
enum { SC_F, SC_FX, SC_FY, SCRATCH_ARRAYS };

/* the walk over n_states states: u[s] the box of state s, t[s] its time,
 * centre[s] nonzero where s is a centre whose triple (s - 1, s, s + 1) is
 * folded; runs[6 m] the row runs [lo, hi) of the deep, flux and field nodes
 * as flat indices (lo[x] then hi[x] for each set, x the box row); res[2]
 * gets max |res_H| and max |res_v| over the centres, a centre whose
 * residual is NaN at some deep node skipped; work holds
 * (3 F_ARRAYS + 2 G_ARRAYS + SCRATCH_ARRAYS) m^2 doubles.  Returns 0, or
 * s + 1 for the first state s that geometry's guard refuses (fail[0] its
 * least margin). */
int maxsurf_disk_residuals(const Disk *D, int64_t n_states, const double *const *u,
                           const double *t, const int8_t *centre, const int64_t *runs,
                           double *res, double *fail, double *work)
{
    const int64_t m = D->m, n = m * m;
    const double h = D->h, inv_2h = 1.0 / (2.0 * h);
    const int64_t *deep = runs, *flux = runs + 2 * m, *field = runs + 4 * m;
    double *F[3][F_ARRAYS], *G[2][G_ARRAYS], *sc[SCRATCH_ARRAYS], *next = work;
    for (int r = 0; r < 3; ++r)
        next = carve(next, n, F_ARRAYS, F[r]);
    for (int r = 0; r < 2; ++r)
        next = carve(next, n, G_ARRAYS, G[r]);
    carve(next, n, SCRATCH_ARRAYS, sc);
    res[0] = res[1] = 0.0;
    for (int64_t s = 0; s < n_states; ++s) {
        double **Fs = F[s % 3], **Gs = G[s % 2], *f = sc[SC_F];
        fill_ghosts(D, u[s], f, n);
        double m_lo = INFINITY;
        int64_t nan = 0;
        for (int64_t x = 1; x < m - 1; ++x)
            margin_row(D->row_hi[x] - D->row_lo[x], m, inv_2h, f + D->row_lo[x], &m_lo, &nan);
        int refused = guard_verdict(s, m_lo, nan, fail);
        if (refused)
            return refused;
        for (int64_t x = 0; x < m; ++x) {
            int64_t lo = field[x];
            fields_row(field[m + x] - lo, m, h, f + lo, Fs[F_H] + lo, Fs[F_V] + lo,
                       Gs[G_UX] + lo, Gs[G_UY] + lo, Gs[G_SG] + lo, Gs[G_A11] + lo,
                       Gs[G_A12] + lo, Gs[G_A22] + lo, Gs[G_NA2] + lo);
        }
        if (s < 2 || !centre[s - 1])
            continue;
        /* the triple (s - 2, s - 1, s) about the centre s - 1 */
        double **Fm = F[(s - 2) % 3], **Fo = F[(s - 1) % 3], **Go = G[(s - 1) % 2];
        double c[4];
        rate_coefficients(t[s - 2], t[s - 1], t[s], c);
        for (int k = 0; k < 2; ++k) {    /* the H identity (F_H), then the v one (F_V) */
            for (int64_t x = 0; x < m; ++x) {
                int64_t lo = flux[x];
                flux_row(flux[m + x] - lo, m, inv_2h, Fo[k] + lo, Go[G_A11] + lo,
                         Go[G_A12] + lo, Go[G_A22] + lo, Go[G_SG] + lo, sc[SC_FX] + lo,
                         sc[SC_FY] + lo);
            }
            double hi = -INFINITY;
            nan = 0;
            for (int64_t x = 0; x < m; ++x) {
                int64_t lo = deep[x];
                residual_row(deep[m + x] - lo, m, h, c, Fm[k] + lo, Fo[k] + lo, Fs[k] + lo,
                             Fo[F_H] + lo, Fo[F_V] + lo, Go[G_UX] + lo, Go[G_UY] + lo,
                             Go[G_SG] + lo, Go[G_NA2] + lo, sc[SC_FX] + lo, sc[SC_FY] + lo,
                             &hi, &nan);
            }
            fold_centre(res, k, hi, nan);
        }
    }
    return 0;
}

/* -- curve1d's evolution residuals on the trumpet (monitors.evolution_residuals) */

/* The numpy walk over the stride-1 triples of a curve1d trajectory on the
 * trumpet, operation for operation: geometry._curve1d_evaluate's guard over
 * every node, its fields and _curve1d_fields' (H, v and V) over the core
 * nodes and their two neighbours, and per centre the material rate, the
 * drift less the node velocity, d1 and _curve1d_laplace_beltrami (their
 * divisions by 2h and h kept), monitors._v_rhs_curve and _fold_residuals
 * over the core nodes.  Each state's fields are taken once, into a ring of
 * three states, and a centre's residual is folded once its successor's
 * fields are in.  The ends' s'(|x_l|) and s'(x_r) come from the caller,
 * which takes them with numpy's array tanh, as the numpy walk does. */

/* per state of the ring of three: node position, u_x, v_hat, H, v and V */
enum { L_X, L_UX, L_VH, L_H, L_V, L_VX, L_VT, L_ARRAYS };

/* the fields over nodes lo <= i < hi of the state u with spacing h: x,
 * u_x, v_hat, H = v_hat rhs, v = (V_t - V_x u_x) v_hat and V */
AVX2_CLONE
static void line_fields_row(int64_t lo, int64_t hi, const double *restrict u,
                            const double *restrict s_ref, double h, const Drift *g,
                            double *restrict x, double *restrict ux, double *restrict vh,
                            double *restrict H, double *restrict v, double *restrict Vx,
                            double *restrict Vt)
{
    const double inv_2h = 1.0 / (2.0 * h), inv_h2 = 1.0 / (h * h);
#pragma omp simd
    for (int64_t i = lo; i < hi; ++i) {
        Node p = stencil_node(u, i, inv_2h, inv_h2);
        double xi = line_x(g, s_ref[i]), Vxi, Vti;
        trumpet_V(xi, g->lo, g->hi, &Vxi, &Vti);
        x[i] = xi;
        ux[i] = p.ux;
        vh[i] = p.vh;
        H[i] = p.vh * p.rhs;
        v[i] = (Vti - Vxi * p.ux) * p.vh;
        Vx[i] = Vxi;
        Vt[i] = Vti;
    }
}

/* One identity's residual at node i: F's material rate from the states
 * before (Fm), at (Fo) and after (Fp) the centre with _material_rate's
 * coefficients c, plus the drift times d1 F, less the Laplacian of F from
 * the midpoint weights al and ar, less rhs */
static inline double line_residual(const double *Fm, const double *Fo, const double *Fp,
                                   int64_t i, const double *c, double h, double al, double ar,
                                   double vh, double drift, double rhs)
{
    double grad = (Fo[i + 1] - Fo[i - 1]) / (2.0 * h);
    double lap = (ar * (Fo[i + 1] - Fo[i]) / h - al * (Fo[i] - Fo[i - 1]) / h) * vh / h;
    double r = material_rate(c, Fm[i], Fo[i], Fp[i]);
    r += drift * grad;
    r -= lap;
    return fabs(r - rhs);
}

/* Both identities' residuals over the core nodes lo <= i < hi of the centre
 * o, whose state is u with spacing h, between the states m and p, dt apart;
 * their largest values in hi_out and their counts of NaNs in nan */
AVX2_CLONE
static void line_residual_row(int64_t lo, int64_t hi, const double *u, double h,
                              const double *c, double dt, double *const *m, double *const *o,
                              double *const *p, double *hi_out, int64_t *nan)
{
    const double *xm = m[L_X], *xp = p[L_X], *Hm = m[L_H], *Ho = o[L_H], *Hp = p[L_H],
                 *vm = m[L_V], *vo = o[L_V], *vp = p[L_V], *ux = o[L_UX], *vh = o[L_VH],
                 *Vx = o[L_VX], *Vt = o[L_VT];
    double rH_hi = -INFINITY, rv_hi = -INFINITY;
    int64_t bad_H = 0, bad_v = 0;
#pragma omp simd reduction(max: rH_hi, rv_hi) reduction(+: bad_H, bad_v)
    for (int64_t i = lo; i < hi; ++i) {
        /* sqrt(g) g^xx at the midpoints left and right of the node */
        double dl = (u[i] - u[i - 1]) / h, dr = (u[i + 1] - u[i]) / h;
        double al = 1.0 / sqrt(1.0 - dl * dl), ar = 1.0 / sqrt(1.0 - dr * dr);
        double Hi = Ho[i], vhi = vh[i], uxi = ux[i], g_xx = vhi * vhi, nA2 = Hi * Hi;
        double drift = Hi * vhi * uxi - (xp[i] - xm[i]) / dt;
        /* -v|A|^2 + 2 g^xx A(DV^T, x) + g^xx <D^2 V, nu>, with DV = (V_t, V_x)
         * and D^2 V = V on the trumpet */
        double rhs_v = -vo[i] * nA2 + 2.0 * g_xx * Hi * (Vt[i] - Vx[i] * uxi) +
                       g_xx * (Vx[i] * (uxi * vhi) - Vt[i] * vhi);
        double rH = line_residual(Hm, Ho, Hp, i, c, h, al, ar, vhi, drift, -(Hi * nA2));
        double rv = line_residual(vm, vo, vp, i, c, h, al, ar, vhi, drift, rhs_v);
        rH_hi = rH > rH_hi ? rH : rH_hi;
        rv_hi = rv > rv_hi ? rv : rv_hi;
        bad_H += rH != rH;
        bad_v += rv != rv;
    }
    hi_out[0] = rH_hi;
    hi_out[1] = rv_hi;
    nan[0] = bad_H;
    nan[1] = bad_v;
}

/* the walk over n_states states of n nodes: u[s] the nodes of state s, t[s]
 * its time, b[2 s..2 s + 1] its ends (x_l, x_r) and ds[2 s..2 s + 1] the
 * boundary's s'(|x_l|) and s'(x_r), centre[s] nonzero where s is a centre
 * whose triple (s - 1, s, s + 1) is folded; s_ref[n] the reference
 * coordinate, the core nodes edge <= i < n - edge, domain[2] the trumpet's;
 * res[2] gets max |res_H| and max |res_v| over the centres, a centre whose
 * residual is NaN at some core node skipped; work holds 3 L_ARRAYS n
 * doubles.  Returns 0, or s + 1 for the first state s that geometry's guard
 * refuses (fail[0] its least margin). */
int maxsurf_curve1d_residuals(int64_t n, int64_t n_states, const double *const *u,
                              const double *t, const double *b, const double *ds,
                              const int8_t *centre, const double *s_ref, int64_t edge,
                              const double *domain, double *res, double *fail, double *work)
{
    const double nm1 = (double)(n - 1);
    double *L[3][L_ARRAYS], *next = work;
    for (int r = 0; r < 3; ++r)
        next = carve(next, n, L_ARRAYS, L[r]);
    res[0] = res[1] = 0.0;
    for (int64_t s = 0; s < n_states; ++s) {
        const double xl = b[2 * s], xr = b[2 * s + 1], h = (xr - xl) / nm1;
        const double inv_2h = 1.0 / (2.0 * h), inv_h2 = 1.0 / (h * h);
        const double *us = u[s];
        double sl = -1.0 / ds[2 * s], sr = 1.0 / ds[2 * s + 1];
        double m_lo = INFINITY, me[2] = {1.0 - sl * sl, 1.0 - sr * sr};
        int64_t nan = 0;
#pragma omp simd reduction(min: m_lo) reduction(+: nan)
        for (int64_t i = 1; i < n - 1; ++i) {
            double mi = stencil_node(us, i, inv_2h, inv_h2).m;
            m_lo = mi < m_lo ? mi : m_lo;
            nan += mi != mi;
        }
        for (int j = 0; j < 2; ++j) {
            m_lo = me[j] < m_lo ? me[j] : m_lo;
            nan += me[j] != me[j];
        }
        int refused = guard_verdict(s, m_lo, nan, fail);
        if (refused)
            return refused;
        double **f = L[s % 3];
        Drift g = {0.5 * (xl + xr), xr - xl, domain[0], domain[1], 0.0, 0.0};
        line_fields_row(edge - 1, n - edge + 1, us, s_ref, h, &g, f[L_X], f[L_UX], f[L_VH],
                        f[L_H], f[L_V], f[L_VX], f[L_VT]);
        if (s < 2 || !centre[s - 1])
            continue;
        /* the triple (s - 2, s - 1, s) about the centre s - 1 */
        const double ho = (b[2 * s - 1] - b[2 * s - 2]) / nm1;
        double c[4], hi[2];
        int64_t bad[2];
        rate_coefficients(t[s - 2], t[s - 1], t[s], c);
        line_residual_row(edge, n - edge, u[s - 1], ho, c, t[s] - t[s - 2], L[(s - 2) % 3],
                          L[(s - 1) % 3], f, hi, bad);
        for (int k = 0; k < 2; ++k)
            fold_centre(res, k, hi[k], bad[k]);
    }
    return 0;
}

/* -- CSV rows (runner._write_rows) ------------------------------------------- */

/* The longest value, "-2.2250738585072014e-308", and its separator; mirrored
 * in _kernels.CSV_VALUE_BYTES. */
#define CSV_VALUE_BYTES 25

#ifdef __SIZEOF_INT128__
typedef unsigned __int128 u128;

static const uint64_t POW5[28] = {
    1u, 5u, 25u, 125u, 625u, 3125u, 15625u, 78125u, 390625u, 1953125u, 9765625u,
    48828125u, 244140625u, 1220703125u, 6103515625ull, 30517578125ull,
    152587890625ull, 762939453125ull, 3814697265625ull, 19073486328125ull,
    95367431640625ull, 476837158203125ull, 2384185791015625ull,
    11920928955078125ull, 59604644775390625ull, 298023223876953125ull,
    1490116119384765625ull, 7450580596923828125ull,
};

/* 5^p for 0 <= p <= 54 */
static u128 pow5(int p)
{
    return p < 28 ? (u128)POW5[p] : (u128)POW5[27] * POW5[p - 27];
}

#define E16 10000000000000000ull
#define E17 100000000000000000ull

/* The 17 significant digits of a finite x > 0, correctly rounded half to
 * even, as q in [10^16, 10^17) with x ~ q 10^(k-16).  x = m 2^e lies in
 * [2^(e+52), 2^(e+53)), so its decade is k = ((e + 52) 78913) >> 18, which is
 * floor((e + 52) log10 2) for every exponent of a double, or k + 1.  One exact
 * 128-bit quotient, of x 10^p (p = 16 - k) = m 5^p 2^(p+e) or of m 2^e / 10^-p,
 * is truncated to q with a remainder rem of den; 18 digits mean the decade is
 * k + 1.  The decade is fixed on the truncated quotient, so that a value just
 * below a power of ten keeps its 17 nines.  Returns 0 where the products
 * leave 128 bits: below 1e-16 and from 2^128 (about 3.4e38) on. */
static int digits17(double x, uint64_t *q_out, int *k_out)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    int biased = (int)(bits >> 52);
    if (biased == 0)                       /* subnormal, far below 1e-16 */
        return 0;
    uint64_t m = (bits & ((1ull << 52) - 1)) | (1ull << 52);
    int e = biased - 1075;
    int k = ((e + 52) * 78913) >> 18;      /* GCC shifts a negative int arithmetically */
    k = k < -16 ? -16 : k;                 /* 5^p leaves 128 bits above p = 32 */
    int p = 16 - k;
    u128 q, rem, den;
    if (p >= 0) {
        u128 n = (u128)m * pow5(p);
        int s = -(e + p);
        if (s >= 128)
            return 0;
        den = (u128)1 << (s > 0 ? s : 0);
        q = s > 0 ? n >> s : n << -s;
        rem = n & (den - 1);
    } else {                               /* k <= 38 below 2^128, so 10^-p < 2^74 */
        if (e > 128 - 53)
            return 0;
        den = pow5(-p) << -p;
        q = ((u128)m << e) / den;
        rem = ((u128)m << e) - q * den;
    }
    uint64_t d = (uint64_t)q;              /* below 10^18 */
    /* with 18 digits, the tenth of d rounds from the dropped digit and rem;
     * both roundings are taken, as which applies is close to a coin toss */
    int wide = d >= E17;
    uint64_t tenth = d / 10;
    unsigned dropped = (unsigned)(d - 10 * tenth);
    int up10 = (dropped > 5) | ((dropped == 5) & ((rem != 0) | (int)(tenth & 1)));
    int up1 = (2 * rem > den) | ((2 * rem == den) & (int)(d & 1));
    d = wide ? tenth : d;
    k += wide;
    if (d < E16)
        return 0;
    d += wide ? up10 : up1;
    if (d == E17) {                        /* rounded up into the next decade */
        d = E16;
        k += 1;
    }
    *q_out = d;
    *k_out = k;
    return 1;
}
#else
static int digits17(double x, uint64_t *q_out, int *k_out)
{
    (void)x, (void)q_out, (void)k_out;
    return 0;
}
#endif

/* "00" to "99": digits are written two at a time */
static const char PAIRS[201] = "00010203040506070809101112131415161718192021222324"
                               "25262728293031323334353637383940414243444546474849"
                               "50515253545556575859606162636465666768697071727374"
                               "75767778798081828384858687888990919293949596979899";

/* the 8 digits of x < 10^8 at d[0..8) */
static inline void put8(uint32_t x, char *d)
{
    uint32_t hi = x / 10000, lo = x % 10000;
    memcpy(d, PAIRS + 2 * (hi / 100), 2);
    memcpy(d + 2, PAIRS + 2 * (hi % 100), 2);
    memcpy(d + 4, PAIRS + 2 * (lo / 100), 2);
    memcpy(d + 6, PAIRS + 2 * (lo % 100), 2);
}

/* x as Python's format(x, ".17g") writes it; returns the number of bytes.
 * The exponent form is taken for a decade below -4 or from 17 on, with at
 * least two exponent digits, and trailing zeros are dropped, as %g does.
 * Outside digits17's range glibc's snprintf, which rounds correctly, writes
 * the digits; NaN is "nan" whatever its sign, where glibc writes "-nan".
 * Fixed-width blocks may write past the value, never past out + 24. */
static int format_g17(double x, char *out)
{
    char *o = out;
    if (x != x) {
        memcpy(o, "nan", 3);
        return 3;
    }
    if (signbit(x)) {
        *o++ = '-';
        x = -x;
    }
    if (isinf(x)) {
        memcpy(o, "inf", 3);
        return (int)(o - out) + 3;
    }
    if (x == 0.0) {
        *o++ = '0';
        return (int)(o - out);
    }
    uint64_t q;
    int k;
    if (!digits17(x, &q, &k))
        return (int)(o - out) + snprintf(o, CSV_VALUE_BYTES - 1, "%.17g", x);
    char d[40] = {0};                      /* the 17 digits; the rest is read, not shown */
    uint32_t top = (uint32_t)(q / 100000000);
    d[0] = (char)('0' + top / 100000000);
    put8(top % 100000000, d + 1);
    put8((uint32_t)(q % 100000000), d + 9);
    int nd = 17;
    while (nd > 1 && d[nd - 1] == '0')
        --nd;
    if (k < -4 || k >= 17) {
        o[0] = d[0];
        o[1] = '.';
        memcpy(o + 2, d + 1, 16);
        o += nd > 1 ? nd + 1 : 1;
        o[0] = 'e';
        o[1] = k < 0 ? '-' : '+';
        o += 2;
        int a = k < 0 ? -k : k;
        if (a >= 100)
            *o++ = (char)('0' + a / 100);
        memcpy(o, PAIRS + 2 * (a % 100), 2);
        o += 2;
    } else if (k >= 0) {                   /* the point after k + 1 digits */
        char t[40];
        memcpy(t, d, 17);
        memcpy(t + k + 2, d + k + 1, 16);
        t[k + 1] = '.';
        memcpy(o, t, 18);
        o += nd > k + 1 ? nd + 1 : k + 1;
    } else {
        memcpy(o, "0.000", 5);             /* "0." and -k - 1 zeros */
        memcpy(o + 1 - k, d, 17);
        o += 1 - k + nd;
    }
    return (int)(o - out);
}

/* rows[n_rows * n_cols], row-major, as CSV lines: values as format_g17 writes
 * them, joined by commas, each row ended by a newline.  out holds at least
 * CSV_VALUE_BYTES per value; returns the number of bytes written. */
int64_t maxsurf_format_rows(const double *rows, int64_t n_rows, int64_t n_cols, char *out)
{
    char *o = out;
    for (int64_t i = 0; i < n_rows; ++i)
        for (int64_t j = 0; j < n_cols; ++j) {
            o += format_g17(rows[i * n_cols + j], o);
            *o++ = j + 1 < n_cols ? ',' : '\n';
        }
    return o - out;
}
