/*
 * Explicit Euler stepping loops for the curve1d and radial2d grid kinds on
 * the built-in profiles (trumpet; cylinder, pseudosphere, sine_tube).
 *
 * This is a translation of the numpy reference engine in flow.py, operation
 * for operation: the same stencils, time step bound, incidence projection,
 * per-step 17-column record, snapshots at a stride, and guard, convergence
 * and t_end exits.  Floating-point expressions keep the reference's order of
 * evaluation, and the file is compiled without contraction
 * (-ffp-contract=off) or fast-math, so the states follow the reference to a
 * few ulps.  Where the reference takes a pairwise numpy sum (volume,
 * int H^2 dV) this file sums in node order.
 *
 * _kernels.py compiles the file with the system C compiler and calls
 * maxsurf_run_curve1d / maxsurf_run_radial2d through ctypes, one chunk of
 * steps per call.  Both share one signature:
 *
 *   n, u[n], bnd[2], t              state, updated in place; bnd holds
 *                                   (x_left, x_right) or (rho_b, rho_b)
 *   s_ref[n]                        the grid's reference coordinate
 *   code, prm[]                     profile code and parameters
 *   cfl, eps_guard, h_stop, t_end, has_t_end
 *   max_steps, stride, k            steps in this chunk, snapshot stride,
 *                                   global step counter (updated)
 *   rec[(max_steps+1)*17], nrec     per-step records of the pre-step states
 *   snaps[*n], snap_t, snap_b[*2], snap_k, nsnap
 *                                   snapshots at k % stride == 0 and of a
 *                                   guard-tripped state
 *   fail[2]                         on ST_DT_UNDERFLOW (dt, t); on
 *                                   ST_NEWTON (rim start point, residual)
 *   work[6*n]                       scratch
 *
 * and return one of the ST_* codes.
 */
#include <math.h>
#include <stdint.h>

#define NREC 17
enum {
    C_T, C_SUP_V, C_SUP_VHAT, C_SUP_H, C_VOL, C_IH2, C_OSC, C_UMIN, C_UMAX,
    C_BLO, C_BHI, C_RES_HMU, C_RES_VMU, C_GRAD_V, C_H2_INEQ, C_ASIG, C_GAP
};

/* chunk exit status; mirrored in _kernels.py */
enum { ST_CHUNK, ST_GUARD, ST_CONV, ST_TEND, ST_DT_UNDERFLOW, ST_NEWTON };

/* rotational profile codes; mirrored in _kernels.PROFILES */
enum { P_CYLINDER = 0, P_PSEUDOSPHERE = 1, P_SINE_TUBE = 2 };

/* numpy's max/min reductions propagate NaN; so do these */
#define TAKE_MAX(acc, x) do { double x_ = (x); if (!((acc) >= x_) && (acc) == (acc)) (acc) = x_; } while (0)
#define TAKE_MIN(acc, x) do { double x_ = (x); if (!((acc) <= x_) && (acc) == (acc)) (acc) = x_; } while (0)

/* Python floats and numpy scalars evaluate x**k as pow(x, k), which can
 * differ from x*x in the last bit; reading the exponent through a volatile
 * keeps the compiler from folding pow(x, 2.0) into x*x. */
static volatile double TWO = 2.0, THREE = 3.0;

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

/* -- incidence projections (flow._newton and its two residuals) ------------ */

/* Slide the rim point along the surface tangent onto y = s(|x|); returns 0 and
 * the projected point, or 1 and the residual in *res. */
static int newton_planar(double xb, double ub, double slope, double *xi_out, double *res)
{
    double sgn = xb > 0 ? 1.0 : -1.0;
    double xi = xb;
    for (int it = 0; it < 12; ++it) {
        double ax = fabs(xi);
        double phi = ub + slope * (xi - xb) - planar_s(ax);
        double dphi = slope - sgn * planar_ds(ax);
        double xi_new = xi - phi / dphi;
        if (fabs(xi_new - xi) < 1e-14 * max1(fabs(xi))) {
            xi = xi_new;
            break;
        }
        xi = xi_new;
    }
    *res = ub + slope * (xi - xb) - planar_s(fabs(xi));
    *xi_out = xi;
    return !(fabs(*res) < 1e-9);
}

/* Solve r = f(u_b + slope (r - rb)) for the rim radius. */
static int newton_rotational(int code, const double *p, double rb, double ub, double slope,
                             double *ri_out, double *res)
{
    double ri = rb;
    for (int it = 0; it < 12; ++it) {
        double z = ub + slope * (ri - rb);
        double phi = ri - rot_f(code, p, z);
        double dphi = 1.0 - rot_df(code, p, z) * slope;
        double ri_new = ri - phi / dphi;
        if (fabs(ri_new - ri) < 1e-14 * max1(fabs(ri))) {
            ri = ri_new;
            break;
        }
        ri = ri_new;
    }
    *res = ri - rot_f(code, p, ub + slope * (ri - rb));
    *ri_out = ri;
    return !(fabs(*res) < 1e-9);
}

/* -- per-step record (flow._*_record, _boundary_block, _pack_record) -------- */

typedef struct {
    double res_h, res_v, grad_v, h2_ineq, a_nn;
} Block;

/* Boundary identity data at one rim from the three nodes inside it
 * (f1, f2, f3 = H at 1, 2, 3 nodes in), the rim-side v values (vb, v1, v2),
 * the outward one-sided sign `out` and the boundary curvatures. */
static Block boundary_block(double f1, double f2, double f3, double vb, double v1, double v2,
                            double out, double h, double inv_w, double a_vv, double a_ww)
{
    Block b;
    double H_b = 3.0 * f1 - 3.0 * f2 + f3;
    double dH = (2.5 * f1 - 4.0 * f2 + 1.5 * f3) / h;
    double dH2 = (2.5 * (f1 * f1) - 4.0 * (f2 * f2) + 1.5 * (f3 * f3)) / h;
    double dv = out * ((3.0 * vb - 4.0 * v1 + v2) / (2.0 * h));
    double dv2pt = (vb - v1) / h;
    b.a_nn = vb * vb * a_vv + (vb * vb - 1.0) * a_ww;
    b.res_h = fabs(dH * inv_w + H_b * b.a_nn);
    b.res_v = fabs(dv * inv_w + vb * (b.a_nn - a_vv));
    b.h2_ineq = dH2 * inv_w + H_b * H_b * a_vv;
    b.grad_v = dv2pt * inv_w;
    return b;
}

static void store_record(double *r, double t, double sup_v, double sup_vh, double sup_H,
                         double vol, double ih2, double umin, double umax,
                         double blo, double bhi, Block b)
{
    r[C_T] = t;
    r[C_SUP_V] = sup_v;
    r[C_SUP_VHAT] = sup_vh;
    r[C_SUP_H] = sup_H;
    r[C_VOL] = vol;
    r[C_IH2] = ih2;
    r[C_OSC] = umax - umin;
    r[C_UMIN] = umin;
    r[C_UMAX] = umax;
    r[C_BLO] = blo;
    r[C_BHI] = bhi;
    r[C_RES_HMU] = b.res_h;
    r[C_RES_VMU] = b.res_v;
    r[C_GRAD_V] = b.grad_v;
    r[C_H2_INEQ] = b.h2_ineq;
    r[C_ASIG] = b.a_nn;
    r[C_GAP] = NAN;
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
    for (int64_t i = 0; i < n; ++i)
        snaps[j * n + i] = u[i];
    snap_t[j] = t;
    snap_b[2 * j] = blo;
    snap_b[2 * j + 1] = bhi;
    snap_k[j] = k;
    *nsnap = j + 1;
}

/* flow._clip_dt: returns 0, or 1 when the step underflows */
static int clip_dt(double *dt, double t, double t_end, int has_t_end)
{
    if (has_t_end && t + *dt > t_end)
        *dt = t_end - t;
    return *dt < 1e-16 * max1(fabs(t));
}

static int reached_t_end(double t, double t_end, int has_t_end)
{
    return has_t_end && t >= t_end - 1e-14 * max1(fabs(t_end));
}

/* -- curve1d: u_t = u_xx / (1 - u_x^2) on [x_l(t), x_r(t)] -------------------- */

int maxsurf_run_curve1d(int64_t n, double *u, double *bnd, double *t_io,
                        const double *s_ref, int code, const double *prm,
                        double cfl, double eps_guard, double h_stop, double t_end,
                        int has_t_end, int64_t max_steps, int64_t stride, int64_t *k_io,
                        double *rec, int64_t *nrec, double *snaps, double *snap_t,
                        double *snap_b, int64_t *snap_k, int64_t *nsnap,
                        double *fail, double *work)
{
    (void)code;
    double *ux = work, *rhs = work + n, *H = work + 2 * n, *v = work + 3 * n;
    double *unew = work + 4 * n, *m = work + 5 * n;
    const double x_min = prm[0];          /* planar_V clamps |x| to the domain */
    const double nm1 = (double)(n - 1);
    double t = *t_io, xl = bnd[0], xr = bnd[1];
    int64_t k = *k_io;
    int status = ST_CHUNK;
    *nrec = 0;
    *nsnap = 0;
    for (int64_t it = 0; it < max_steps; ++it) {
        /* _curve1d_eval */
        double h = (xr - xl) / nm1;
        double h2 = h * h, two_h = 2.0 * h;
        double dsR = planar_ds(xr), dsL = planar_ds(fabs(xl));
        double slope_r = 1.0 / dsR, slope_l = -1.0 / dsL;
        double m_min;
        ux[0] = slope_l;
        ux[n - 1] = slope_r;
        {
            double uxx0 = (2.0 * u[1] - 2.0 * u[0] - two_h * slope_l) / h2;
            double uxxn = (2.0 * u[n - 2] - 2.0 * u[n - 1] + two_h * slope_r) / h2;
            m[0] = 1.0 - slope_l * slope_l;
            m[n - 1] = 1.0 - slope_r * slope_r;
            rhs[0] = uxx0 / m[0];
            rhs[n - 1] = uxxn / m[n - 1];
        }
        m_min = m[0];
        for (int64_t i = 1; i < n - 1; ++i) {
            double d = (u[i + 1] - u[i - 1]) / two_h;
            double dd = (u[i + 1] - 2.0 * u[i] + u[i - 1]) / h2;
            double mi = 1.0 - d * d;
            ux[i] = d;
            m[i] = mi;
            rhs[i] = dd / mi;
            TAKE_MIN(m_min, mi);
        }
        TAKE_MIN(m_min, m[n - 1]);
        double uxx_l2 = (-3.5 * u[0] + 4.0 * u[1] - 0.5 * u[2] - 3.0 * h * slope_l) / h2;
        double uxx_r2 = (-3.5 * u[n - 1] + 4.0 * u[n - 2] - 0.5 * u[n - 3] + 3.0 * h * slope_r) / h2;
        double rhs2_l = uxx_l2 / m[0], rhs2_r = uxx_r2 / m[n - 1];
        int guard = m_min < eps_guard;

        /* _curve1d_record of the pre-step state (also the trip record) */
        double sup_v = -INFINITY, sup_vh = -INFINITY, sup_H = -INFINITY;
        double vol = 0.0, ih2 = 0.0, umin = INFINITY, umax = -INFINITY;
        double xc = 0.5 * (xl + xr), span = xr - xl;
        for (int64_t i = 0; i < n; ++i) {
            double wi = sqrt(m[i]);
            double vh = 1.0 / wi;
            double Hi = vh * (i == 0 ? rhs2_l : i == n - 1 ? rhs2_r : rhs[i]);
            double x = xc + s_ref[i] * 0.5 * span;
            double Vx = 0.0, Vt = 1.0;
            if (!(fabs(x) < 1e-12)) {
                /* geometry.planar_V for the trumpet: (sgn, coth a) / sqrt(coth^2 a - 1)
                 * is (sgn sinh a, cosh a) with a = max(|x|, domain start) */
                double a = fabs(x) > x_min ? fabs(x) : x_min;
                double e = exp(a), ie = 1.0 / e;
                Vx = 0.5 * (e - ie);
                Vt = 0.5 * (e + ie);
                if (x < 0)
                    Vx = -Vx;
            }
            double vi = (Vt - Vx * ux[i]) / wi;
            double dV = wi * (i == 0 || i == n - 1 ? 0.5 * h : h);
            H[i] = Hi;
            v[i] = vi;
            vol += dV;
            ih2 += Hi * Hi * dV;
            TAKE_MAX(sup_v, vi);
            TAKE_MAX(sup_vh, vh);
            TAKE_MAX(sup_H, fabs(Hi));
            TAKE_MIN(umin, u[i]);
            TAKE_MAX(umax, u[i]);
        }
        {
            double wL = sqrt(dsL * dsL - 1.0), wR = sqrt(dsR * dsR - 1.0);
            Block lo = boundary_block(H[1], H[2], H[3], v[0], v[1], v[2], -1.0, h,
                                      1.0 / sqrt(m[0]), planar_d2s(fabs(xl)) / pow(wL, THREE), 0.0);
            Block hi = boundary_block(H[n - 2], H[n - 3], H[n - 4], v[n - 1], v[n - 2], v[n - 3],
                                      1.0, h, 1.0 / sqrt(m[n - 1]),
                                      planar_d2s(fabs(xr)) / pow(wR, THREE), 0.0);
            if (k % stride == 0 || guard)
                take_snapshot(n, u, t, xl, xr, k, snaps, snap_t, snap_b, snap_k, nsnap);
            store_record(rec + NREC * (*nrec), t, sup_v, sup_vh, sup_H, vol, ih2, umin, umax,
                         xl, xr, merge_blocks(lo, hi));
            *nrec += 1;
        }
        if (guard) {
            status = ST_GUARD;
            break;
        }

        /* flow._advance with _curve1d_rate and _curve1d_project, explicit Euler */
        double xdot_r = rhs2_r * dsR / (dsR * dsR - 1.0);
        double xdot_l = -rhs2_l * dsL / (dsL * dsL - 1.0);
        double dt = cfl * h * h * m_min / 1.0;
        if (clip_dt(&dt, t, t_end, has_t_end)) {
            fail[0] = dt;
            fail[1] = t;
            status = ST_DT_UNDERFLOW;
            break;
        }
        double w_mid = 0.5 * (xdot_l + xdot_r), w_half = xdot_r - xdot_l;
        for (int64_t i = 0; i < n; ++i)
            unew[i] = u[i] + dt * (rhs[i] + (w_mid + s_ref[i] * 0.5 * w_half) * ux[i]);
        double xl_new = xl + dt * xdot_l, xr_new = xr + dt * xdot_r;
        double slope_rn = 1.0 / planar_ds(xr_new);
        double slope_ln = -1.0 / planar_ds(fabs(xl_new));
        double xr_p, xl_p;
        if (newton_planar(xr_new, unew[n - 1], slope_rn, &xr_p, &fail[1])) {
            fail[0] = xr_new;
            status = ST_NEWTON;
            break;
        }
        if (newton_planar(xl_new, unew[0], slope_ln, &xl_p, &fail[1])) {
            fail[0] = xl_new;
            status = ST_NEWTON;
            break;
        }
        double d_lo = xl_p - xl_new, d_hi = xr_p - xr_new;
        double shift_mid = 0.5 * (d_lo + xr_p - xr_new), shift_half = d_hi - d_lo;
        double span_new = xr_new - xl_new;
        for (int64_t i = 1; i < n - 1; ++i) {
            double uxn = (unew[i + 1] - unew[i - 1]) / span_new * nm1 / 2.0;
            u[i] = unew[i] + (shift_mid + s_ref[i] * 0.5 * shift_half) * uxn;
        }
        u[0] = planar_s(fabs(xl_p));
        u[n - 1] = planar_s(fabs(xr_p));
        xl = xl_p;
        xr = xr_p;
        t = t + dt;
        k += 1;
        if (h_stop > 0.0 && sup_H < h_stop) {
            status = ST_CONV;
            break;
        }
        if (reached_t_end(t, t_end, has_t_end)) {
            status = ST_TEND;
            break;
        }
    }
    *t_io = t;
    bnd[0] = xl;
    bnd[1] = xr;
    *k_io = k;
    return status;
}

/* -- radial2d: u_t = u_rr / (1 - u_r^2) + u_r / rho on [0, rho_b(t)] ----------- */

int maxsurf_run_radial2d(int64_t n, double *u, double *bnd, double *t_io,
                         const double *s_ref, int code, const double *prm,
                         double cfl, double eps_guard, double h_stop, double t_end,
                         int has_t_end, int64_t max_steps, int64_t stride, int64_t *k_io,
                         double *rec, int64_t *nrec, double *snaps, double *snap_t,
                         double *snap_b, int64_t *snap_k, int64_t *nsnap,
                         double *fail, double *work)
{
    double *ux = work, *rhs = work + n, *H = work + 2 * n, *v = work + 3 * n;
    double *unew = work + 4 * n, *m = work + 5 * n;
    const double nm1 = (double)(n - 1);
    const double twopi = 2.0 * M_PI;
    double t = *t_io, rb = bnd[0];
    int64_t k = *k_io;
    int status = ST_CHUNK;
    *nrec = 0;
    *nsnap = 0;
    for (int64_t it = 0; it < max_steps; ++it) {
        /* _radial2d_eval */
        double h = rb / nm1;
        double h2 = h * h, two_h = 2.0 * h;
        double dfb = rot_df(code, prm, u[n - 1]);
        double m_min;
        ux[0] = 0.0;
        ux[n - 1] = dfb;
        m[0] = 1.0;
        m[n - 1] = 1.0 - dfb * dfb;
        rhs[0] = 2.0 * (u[1] - u[0]) / h2 * (1.0 / m[0] + 1.0);
        {
            double uxxn = (2.0 * u[n - 2] - 2.0 * u[n - 1] + two_h * dfb) / h2;
            rhs[n - 1] = uxxn / m[n - 1] + dfb / rb;
        }
        m_min = m[0];
        for (int64_t i = 1; i < n - 1; ++i) {
            double d = (u[i + 1] - u[i - 1]) / two_h;
            double dd = (u[i + 1] - 2.0 * u[i] + u[i - 1]) / h2;
            double mi = 1.0 - d * d;
            ux[i] = d;
            m[i] = mi;
            rhs[i] = dd / mi + d / ((double)i * h);
            TAKE_MIN(m_min, mi);
        }
        TAKE_MIN(m_min, m[n - 1]);
        double uxx_b2 = (-3.5 * u[n - 1] + 4.0 * u[n - 2] - 0.5 * u[n - 3] + 3.0 * h * dfb) / h2;
        double rhs_b2 = uxx_b2 / m[n - 1] + dfb / rb;
        int guard = m_min < eps_guard;

        /* _radial2d_record of the pre-step state */
        double sup_v = -INFINITY, sup_vh = -INFINITY, sup_H = -INFINITY;
        double vol = 0.0, ih2 = 0.0, umin = INFINITY, umax = -INFINITY;
        for (int64_t i = 0; i < n; ++i) {
            double wi = sqrt(m[i]);
            double vh = 1.0 / wi;
            double Hi = vh * (i == n - 1 ? rhs_b2 : rhs[i]);
            double dfz = rot_df(code, prm, u[i]);
            double vi = (1.0 - dfz * ux[i]) * (1.0 / sqrt(1.0 - dfz * dfz)) / wi;
            double rho = i == n - 1 ? rb : (double)i * h;
            double dV = twopi * rho * wi * (i == 0 || i == n - 1 ? 0.5 * h : h);
            H[i] = Hi;
            v[i] = vi;
            vol += dV;
            ih2 += Hi * Hi * dV;
            TAKE_MAX(sup_v, vi);
            TAKE_MAX(sup_vh, vh);
            TAKE_MAX(sup_H, fabs(Hi));
            TAKE_MIN(umin, u[i]);
            TAKE_MAX(umax, u[i]);
        }
        {
            /* profiles.profile_curvature at the rim height */
            double fz = rot_f(code, prm, u[n - 1]);
            double wb = sqrt(1.0 - dfb * dfb);
            double a_vv = -rot_d2f(code, prm, u[n - 1]) / pow(wb, THREE);
            double a_ww = 1.0 / (fz * wb);
            Block b = boundary_block(H[n - 2], H[n - 3], H[n - 4], v[n - 1], v[n - 2], v[n - 3],
                                     1.0, h, 1.0 / sqrt(m[n - 1]), a_vv, a_ww);
            if (k % stride == 0 || guard)
                take_snapshot(n, u, t, rb, rb, k, snaps, snap_t, snap_b, snap_k, nsnap);
            store_record(rec + NREC * (*nrec), t, sup_v, sup_vh, sup_H, vol, ih2, umin, umax,
                         0.0, rb, b);
            *nrec += 1;
        }
        if (guard) {
            status = ST_GUARD;
            break;
        }

        /* flow._advance with _radial2d_rate and _radial2d_project, explicit Euler */
        double rdot = dfb * rhs_b2 / (1.0 - dfb * dfb);
        double dt = cfl * h * h * m_min / 2.0;
        if (clip_dt(&dt, t, t_end, has_t_end)) {
            fail[0] = dt;
            fail[1] = t;
            status = ST_DT_UNDERFLOW;
            break;
        }
        for (int64_t i = 0; i < n; ++i)
            unew[i] = u[i] + dt * (rhs[i] + s_ref[i] * rdot * ux[i]);
        double rb_new = rb + dt * rdot;
        double dfbn = rot_df(code, prm, unew[n - 1]);
        double rb_p, du_b;
        if (fabs(dfbn) < 1e-13) {
            /* cylinder-like tangency: the rim radius is pinned by f itself */
            rb_p = rot_f(code, prm, unew[n - 1]);
            du_b = 0.0;
        } else {
            if (newton_rotational(code, prm, rb_new, unew[n - 1], dfbn, &rb_p, &fail[1])) {
                fail[0] = rb_new;
                status = ST_NEWTON;
                break;
            }
            du_b = dfbn * (rb_p - rb_new);
        }
        double d_rim = rb_p - rb_new;
        double dx_new = 2.0 * rb_new / nm1;
        u[0] = unew[0];
        for (int64_t i = 1; i < n - 1; ++i)
            u[i] = unew[i] + s_ref[i] * d_rim * ((unew[i + 1] - unew[i - 1]) / dx_new);
        {
            double shift_b = s_ref[n - 1] * d_rim;
            double ub = unew[n - 1] + shift_b * dfbn;
            u[n - 1] = ub + (du_b - shift_b * dfbn);
        }
        rb = rb_p;
        t = t + dt;
        k += 1;
        if (h_stop > 0.0 && sup_H < h_stop) {
            status = ST_CONV;
            break;
        }
        if (reached_t_end(t, t_end, has_t_end)) {
            status = ST_TEND;
            break;
        }
    }
    *t_io = t;
    bnd[0] = rb;
    bnd[1] = rb;
    *k_io = k;
    return status;
}
