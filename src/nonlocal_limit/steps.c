/* The step bodies of both solvers: the four velocity laws, the two kernel
 * averages, the upwind and Godunov interface fluxes and the conservative
 * update, run for every step of a record block in one call.
 *
 * Bits.  Each result equals the numpy evaluation it replaced, bit for bit.
 * The body uses only +, -, *, /, comparisons and selects.  Each is one IEEE
 * 754 operation, correctly rounded on its own, and the operations run in
 * numpy's order: no contraction into fused multiply-adds
 * (-ffp-contract=off) and no reassociation (never -ffast-math, -Ofast or
 * -funsafe-math-optimizations; on gcc a -ffast-math link of a shared library
 * also pulls in crtfastmath.o, which flushes subnormals for the whole
 * process).  A vectorised loop applies the same correctly rounded operation
 * in every lane, so the bits do not depend on the SIMD width.  The sums whose
 * order numpy fixes pairwise (mass, total variation) stay in numpy.
 */
#include <math.h>

enum { LINEAR, QUADRATIC, LINEAR_INCREASING, CONSTANT };  /* velocity families */
enum { UPWIND, GODUNOV };
enum { EXPONENTIAL, CONSTANT_KERNEL };

/* An interface flux: the velocity V(s), by family and parameters, and the
 * scheme.  The upwind flux V(W) * q takes q from the upwind cell and checks
 * the sign of V(W); the Godunov flux of f(s) = V(s) * s needs s* and f(s*).
 * `mirrored` is the upstream orientation of the upwind flux and the
 * increasing V of the Godunov flux: the mirror image of the other case. */
typedef struct {
    int family, scheme, mirrored;
    double v, s_max;   /* v_max, or the constant speed; s_max */
    double slack;      /* |V(W)| past which a wrong-signed speed is a violation */
    double s_star, f_star;
} Flux;

/* A one-sided kernel average on a grid of n cells; upstream runs the
 * downstream loop mirrored.  The exponential recursion is seeded by the
 * far-field state ahead; the constant kernel's window covers m whole cells
 * and a piece `remainder` long of one more, the first `inside` windows
 * ending inside the grid.  farfield_sum and prefix hold n + 1 values. */
typedef struct {
    int kernel, upstream;
    long n, m, inside;
    double farfield, alpha, b0, dx, eta, remainder;
    const double *farfield_sum;
    double *prefix;
} Average;

/* s / s_max; where s_max is a power of two whose reciprocal r is finite, r
 * is exact and s * r is the same correctly rounded number, without a
 * division */
static inline double ratio(double s, double s_max, int exact, double r)
{
    return exact ? s * r : s / s_max;
}

void nl_velocity(int family, double v, double s_max, const double *s, double *out, long n)
{
    int e;
    const int exact = frexp(s_max, &e) == 0.5 && e >= -1022;
    const double r = ldexp(1.0, 1 - e);
    long i;
    switch (family) {
    case LINEAR:
        for (i = 0; i < n; i++) out[i] = v * (1.0 - ratio(s[i], s_max, exact, r));
        break;
    case QUADRATIC:
        for (i = 0; i < n; i++) {
            double t = ratio(s[i], s_max, exact, r);
            out[i] = v * (1.0 - t * t);
        }
        break;
    case LINEAR_INCREASING:
        for (i = 0; i < n; i++) out[i] = v * (ratio(s[i], s_max, exact, r) - 1.0);
        break;
    default:
        for (i = 0; i < n; i++) out[i] = v;
    }
}

/* np.maximum and np.minimum: a NaN in either wins, the first if both; of
 * equal values (zeros of either sign) the second */
static double np_max(double x, double y) { return (x > y) | (x != x) ? x : y; }
static double np_min(double x, double y) { return (x < y) | (x != x) ? x : y; }

/* Godunov flux of a flux with a maximum at s: min over [a, b] when a <= b,
 * else the max over [b, a], f(s) when s lies there */
static double select_max(double a, double b, double fa, double fb, double s, double fs)
{
    double low = np_min(fa, fb), high = np_max(fa, fb);
    int rising = a <= b, critical = (b <= s) & (s <= a);
    double r = critical ? fs : high;
    return rising ? low : r;
}

/* Godunov flux between states a[i] and b[i] with flux values fa[i], fb[i];
 * a flux with a minimum (increasing V) is the mirror image
 * F_f(a, b) = -F_{-f}(b, a) of one with a maximum */
void nl_godunov(const Flux *flux, const double *a, const double *b, const double *fa,
                const double *fb, double *out, long n)
{
    const double s = flux->s_star, fs = flux->f_star;
    long i;
    if (flux->mirrored)
        for (i = 0; i < n; i++) out[i] = -select_max(b[i], a[i], -fb[i], -fa[i], s, -fs);
    else
        for (i = 0; i < n; i++) out[i] = select_max(a[i], b[i], fa[i], fb[i], s, fs);
}

/* Interface fluxes of `states` (n + 2 values, far fields at both ends) into
 * out (n + 1), the upwind flux with the average w (n + 1), the Godunov flux
 * with n + 2 values of scratch.  Returns 1, with the extreme speed in
 * *extreme, when V(W) has the wrong sign beyond the slack; a NaN speed
 * makes the extreme NaN, which never does. */
int nl_flux(const Flux *flux, const double *states, const double *w, double *out,
            double *scratch, long n, double *extreme)
{
    long j;
    if (flux->scheme == GODUNOV) {
        nl_velocity(flux->family, flux->v, flux->s_max, states, scratch, n + 2);
        for (j = 0; j < n + 2; j++) scratch[j] *= states[j];
        nl_godunov(flux, states, states + 1, scratch, scratch + 1, out, n + 1);
        return 0;
    }
    nl_velocity(flux->family, flux->v, flux->s_max, w, out, n + 1);
    /* V(W) < -slack downstream, -V(W) < -slack upstream */
    const double sign = flux->mirrored ? -1.0 : 1.0, slack = flux->slack;
    const double *upwind = states + flux->mirrored;
    int nan = 0, wrong = 0;
    for (j = 0; j <= n; j++) {
        nan |= out[j] != out[j];
        wrong |= sign * out[j] < -slack;
        out[j] *= upwind[j];
    }
    if (wrong && !nan) {
        nl_velocity(flux->family, flux->v, flux->s_max, w, out, n + 1);
        double e = out[0];
        for (j = 1; j <= n; j++) e = flux->mirrored ? np_max(e, out[j]) : np_min(e, out[j]);
        *extreme = e;
        return 1;
    }
    return 0;
}

/* W[i] = (1 - alpha) q_i + alpha W[i+1], W[n] the far field, in lfilter's
 * order; d = -1 runs it mirrored on q[0], q[-1], ... and w[0], w[-1], ... */
static inline void exponential(const Average *k, const double *q, double *w, const long d)
{
    const double alpha = k->alpha, b0 = k->b0;
    double z = alpha * k->farfield;
    w[d * k->n] = k->farfield;
    for (long i = k->n - 1; i >= 0; i--) {
        double y = b0 * q[d * i] + z;
        w[d * i] = y;
        z = alpha * y;
    }
}

/* (1/eta) * integral of the data over [x, x + eta] at every interface:
 * whole cells by prefix sums in np.cumsum's order, plus the far field
 * beyond the grid and the fractional piece of the last cell */
static inline void constant(const Average *k, const double *q, double *w, const long d)
{
    const long n = k->n, m = k->m, inside = k->inside;
    const double dx = k->dx, eta = k->eta, remainder = k->remainder;
    const double tail = remainder * k->farfield;
    const double *fsum = k->farfield_sum;
    double *prefix = k->prefix;
    long j;
    prefix[0] = 0.0;
    prefix[1] = q[0];
    for (j = 1; j < n; j++) prefix[j + 1] = prefix[j] + q[d * j];
    /* the windows ending on a piece of a grid cell, then the rest */
    for (j = 0; j < inside; j++)
        w[d * j] = ((prefix[j + m] - prefix[j]) * dx + fsum[j] + q[d * (j + m)] * remainder) / eta;
    for (; j <= n; j++)
        w[d * j] = ((prefix[j + m < n ? j + m : n] - prefix[j]) * dx + fsum[j] + tail) / eta;
}

/* The kernel average of the n cell values q into w (n + 1 interfaces) */
void nl_average(const Average *k, const double *q, double *w)
{
    const long last = k->n - 1;
    if (k->kernel == EXPONENTIAL) {
        if (k->upstream) exponential(k, q + last, w + last + 1, -1);
        else exponential(k, q, w, 1);
    } else {
        if (k->upstream) constant(k, q + last, w + last + 1, -1);
        else constant(k, q, w, 1);
    }
}

/* What a block reports back: the boundary-flux integral so far, and why it
 * stopped early: 1 for a wrong-signed flux velocity (its extreme as
 * nl_flux gives it), 2 for a non-finite update. */
typedef struct {
    double boundary, extreme;
    int error;
} Status;

/* Advance a record block.  Row r of q (n + 2 wide, far fields in its end
 * columns) holds the block's r-th state, row 0 on entry.  For each of the
 * `rows` rows the average goes to row r of w (n + 3 wide, far fields at its
 * ends; NULL without a kernel), and for the first `updates` rows the step
 * from row r goes to row r + 1, the last to row 0 of the block `next`.
 * fluxes and scratch hold n + 1 and n + 2 values.  Returns the number of
 * steps made, fewer than `updates` when a step stopped the block. */
long nl_advance(const Flux *flux, const Average *average, long n, double *q, double *w,
                long rows, long updates, double *next, double *fluxes, double *scratch,
                double lam, double dt, Status *status)
{
    for (long r = 0; r < rows; r++) {
        const double *states = q + r * (n + 2);
        double *wr = average ? w + r * (n + 3) + 1 : 0;
        if (average) nl_average(average, states + 1, wr);
        if (r == updates) break;
        if (nl_flux(flux, states, wr, fluxes, scratch, n, &status->extreme)) {
            status->error = 1;
            return r;
        }
        status->boundary += dt * (fluxes[n] - fluxes[0]);
        double *out = (r + 1 < rows ? q + (r + 1) * (n + 2) : next) + 1;
        int finite = 1;
        for (long i = 0; i < n; i++) {
            out[i] = states[i + 1] - (fluxes[i + 1] - fluxes[i]) * lam;
            finite &= isfinite(out[i]) != 0;
        }
        if (!finite) {
            status->error = 2;
            return r;
        }
    }
    return updates;
}
