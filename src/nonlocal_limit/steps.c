/* The step bodies of both solvers: the four velocity laws, the two kernel
 * averages, the upwind and Godunov interface fluxes, the conservative update
 * and each step's records, run for every step up to a snapshot in one call.
 * Last, the CSV rows the harness writes (nl_rows).
 *
 * Bits.  Each result equals the numpy evaluation it replaced, bit for bit.
 * The body uses only +, -, *, /, fabs, comparisons and selects.  Each is one
 * IEEE 754 operation, correctly rounded on its own, and the operations run in
 * numpy's order: no contraction into fused multiply-adds
 * (-ffp-contract=off) and no reassociation (never -ffast-math, -Ofast or
 * -funsafe-math-optimizations; on gcc a -ffast-math link of a shared library
 * also pulls in crtfastmath.o, which flushes subnormals for the whole
 * process).  A vectorised loop applies the same correctly rounded operation
 * in every lane, so the bits do not depend on the SIMD width.  The sums of
 * the records (mass, total variation) add in the pairwise order of numpy's
 * float64 x.sum() (see `pairwise`).
 *
 * Tiles.  Every step runs tile by tile through one routine, tile_step: a
 * tile's interface fluxes and the update of the cells they close.  The
 * upwind flux with the exponential kernel makes two steps per pass over
 * tiles of SKEW interfaces, right to left downstream and left to right
 * upstream: step k + 1 makes a tile, then step k + 2 makes the whole tile
 * that step k + 1 made one iteration before, so that the W recursions of
 * the two steps run in one loop and neither waits on the other's latency
 * (see nl_advance).  The pass uses two W rows: W^{k+1} goes into the
 * second, and step k + 2's fluxes, then W^{k+2}, into W^k's own row one
 * tile behind step k + 1.  The Godunov flux, the constant kernel and an
 * odd step before a stop go one step at a time over tiles of TILE
 * interfaces, left to right: a tile's step and its q records (the jumps
 * and the extremes) run while its rows stay in the L1 cache.  Each tile
 * makes the same operations on the same operands as a step over the whole
 * row, so neither tiling changes a bit.  A Godunov tile's flux values sit
 * in scratch until that tile's q jumps overwrite them.  Run states what
 * holds after a failed step.
 */
#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>

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

/* A one-sided kernel average on a grid of n cells, parameters only, so
 * that any number of runs and threads may share one; upstream runs the
 * downstream loop mirrored.  The exponential recursion is seeded by the
 * far-field state ahead; the constant kernel's window covers m whole cells
 * (at most n + 1) and a piece `remainder` long of one more. */
typedef struct {
    int kernel, upstream;
    long n, m;
    double farfield, alpha, dx, eta, remainder;
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

/* Interface fluxes a, ..., b - 1 of `states` (far fields at both ends) into
 * out, the upwind flux with the average w, the Godunov flux with the flux
 * values of states a, ..., b in scratch.  An upwind flux ORs into *nan
 * whether a speed V(W) is NaN, and where one has the wrong sign beyond the
 * slack it folds the speeds into *extreme, as np.minimum (downstream) or
 * np.maximum (upstream) does.  A step's wrong-signed extreme speed lies in
 * such a range, so the fold over those ranges alone, from 0.0 and in any
 * order, gives it with the bits of np.minimum.reduce or np.maximum.reduce
 * over all. */
static void nl_flux(const Flux *flux, const double *states, const double *w, double *out,
                    double *scratch, long a, long b, int *nan, double *extreme)
{
    long j;
    if (flux->scheme == GODUNOV) {
        nl_velocity(flux->family, flux->v, flux->s_max, states + a, scratch + a, b - a + 1);
        for (j = a; j <= b; j++) scratch[j] *= states[j];
        nl_godunov(flux, states + a, states + a + 1, scratch + a, scratch + a + 1, out + a, b - a);
        return;
    }
    nl_velocity(flux->family, flux->v, flux->s_max, w + a, out + a, b - a);
    /* V(W) < -slack downstream, -V(W) < -slack upstream */
    const double sign = flux->mirrored ? -1.0 : 1.0, slack = flux->slack;
    const double *upwind = states + flux->mirrored;
    int any_nan = 0, any_wrong = 0;
    for (j = a; j < b; j++) {
        any_nan |= out[j] != out[j];
        any_wrong |= sign * out[j] < -slack;
        out[j] *= upwind[j];
    }
    *nan |= any_nan;
    for (j = a; any_wrong && j < b; j++) {
        double speed;
        nl_velocity(flux->family, flux->v, flux->s_max, w + j, &speed, 1);
        *extreme = flux->mirrored ? np_max(*extreme, speed) : np_min(*extreme, speed);
    }
}

/* Two chains of the exponential recursion in one loop, so that neither
 * waits on the other's latency: chain c writes W at len_c interfaces from
 * j_c against the direction d (1 downstream, -1 upstream), each W[j] =
 * (1 - alpha) x[j] + alpha W[j + d] in lfilter's order, then the longer
 * chain runs on alone */
static void two_chains(const Average *k, const double *x, double *w1, long j1, long len1,
                       double *w2, long j2, long len2, long d)
{
    const double alpha = k->alpha, b0 = 1.0 - alpha;
    double z1 = len1 > 0 ? alpha * w1[j1 + d] : 0.0, z2 = len2 > 0 ? alpha * w2[j2 + d] : 0.0;
    long i = 0;
    for (; i < len1 && i < len2; i++) {
        const double y1 = b0 * x[j1 - d * i] + z1, y2 = b0 * x[j2 - d * i] + z2;
        w1[j1 - d * i] = y1;
        w2[j2 - d * i] = y2;
        z1 = alpha * y1;
        z2 = alpha * y2;
    }
    for (; i < len1; i++) {
        const double y1 = b0 * x[j1 - d * i] + z1;
        w1[j1 - d * i] = y1;
        z1 = alpha * y1;
    }
    for (; i < len2; i++) {
        const double y2 = b0 * x[j2 - d * i] + z2;
        w2[j2 - d * i] = y2;
        z2 = alpha * y2;
    }
}

/* (1/eta) * integral of the data over [x, x + eta] at every interface:
 * whole cells by prefix sums in np.cumsum's order, plus the far field
 * beyond the grid and the fractional piece of the last cell.  The prefix
 * sums live in w: until interface j is written, w at j holds the sum of the
 * first j cells, and the window from j reads w at j and at j + c, c >= 0
 * its whole cells, never at an interface already written. */
static inline void constant(const Average *k, const double *q, double *w, const long d)
{
    const long n = k->n, m = k->m, inside = m < n ? n - m : 0;
    const double dx = k->dx, eta = k->eta, remainder = k->remainder, farfield = k->farfield;
    const double whole = eta - remainder, tail = remainder * farfield;
    const double beyond = np_max(whole - (double) m * dx, 0.0) * farfield;
    long j;
    w[0] = 0.0;
    w[d] = q[0];
    for (j = 1; j < n; j++) w[d * (j + 1)] = w[d * j] + q[d * j];
    /* the windows ending on a piece of a grid cell, then the rest */
    for (j = 0; j < inside; j++)
        w[d * j] = ((w[d * (j + m)] - w[d * j]) * dx + beyond + q[d * (j + m)] * remainder) / eta;
    for (; j <= n; j++) {
        const long c = m < n - j ? m : n - j;
        w[d * j] = ((w[d * (j + c)] - w[d * j]) * dx
                    + np_max(whole - (double) c * dx, 0.0) * farfield + tail) / eta;
    }
}

/* The kernel average of the n cell values q into w (n + 1 interfaces);
 * the exponential kernel's W takes the far field at the interface ahead,
 * then one chain of the recursion */
void nl_average(const Average *k, const double *q, double *w)
{
    const long n = k->n, up = k->upstream;
    if (k->kernel == EXPONENTIAL) {
        w[up ? 0 : n] = k->farfield;
        two_chains(k, q, w + up, up ? 0 : n - 1, n, 0, 0, 0, up ? -1 : 1);
    } else if (up) {
        constant(k, q + n - 1, w + n, -1);
    } else {
        constant(k, q, w, 1);
    }
}

/* numpy's pairwise sum of x[0], ..., x[n - 1], float64 x.sum() less its
 * leading 0.0 +: the sums of two halves split at n / 2 rounded down to a
 * multiple of 8 above 128 values; else from 8 values on 8 accumulators,
 * and the last n % 8 values (all of them below 8) added in order */
static double pairwise(const double *x, long n)
{
    if (n > 128) {
        const long half = n / 2 - n / 2 % 8;
        return pairwise(x, half) + pairwise(x + half, n - half);
    }
    double r[8], s = 0.0;
    long i = 0, j;
    if (n >= 8) {
        for (j = 0; j < 8; j++) r[j] = x[j];
        for (i = 8; i < n - n % 8; i += 8)
            for (j = 0; j < 8; j++) r[j] += x[i + j];
        s = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
    }
    for (; i < n; i++) s += x[i];
    return s;
}

/* Total variation of a row of m + 2 values, far fields at both ends, with
 * m + 1 values of scratch for its jumps: the sum of the inner jumps as
 * numpy sums them, then the left seam, then the right seam */
static double total_variation(const double *row, long m, double *jumps)
{
    for (long i = 0; i <= m; i++) jumps[i] = fabs(row[i + 1] - row[i]);
    return 0.0 + pairwise(jumps + 1, m - 1) + jumps[0] + jumps[m];
}

/* Fold x[0], ..., x[n - 1] into the running extremes *lo and *hi as the
 * loop lo = x[i] < lo ? x[i] : lo (hi likewise) does: a NaN never wins, and
 * of equal values the first is kept.  The values run in LANES independent
 * lanes, which vectorise, the last n % LANES in order; then the lanes fold
 * in.  Lane order can only change which of two zeros wins, so a zero that
 * replaces *lo or *hi is x's first zero. */
enum { LANES = 32 };  /* several vectors' worth: their selects need not wait in turn */

static double first_zero(const double *x)
{
    while (*x != 0.0) x++;
    return *x;
}

static void extremes(const double *x, long n, double *lo, double *hi)
{
    double l[LANES], h[LANES], m = INFINITY, M = -INFINITY;
    long i = 0;
    int j;
    for (j = 0; j < LANES; j++) {
        l[j] = INFINITY;
        h[j] = -INFINITY;
    }
    for (; i + LANES <= n; i += LANES)
        for (j = 0; j < LANES; j++) {
            l[j] = x[i + j] < l[j] ? x[i + j] : l[j];
            h[j] = x[i + j] > h[j] ? x[i + j] : h[j];
        }
    for (; i < n; i++) {
        m = x[i] < m ? x[i] : m;
        M = x[i] > M ? x[i] : M;
    }
    for (j = 0; j < LANES; j++) {
        m = l[j] < m ? l[j] : m;
        M = h[j] > M ? h[j] : M;
    }
    if (m < *lo) *lo = m == 0.0 ? first_zero(x) : m;
    if (M > *hi) *hi = M == 0.0 ? first_zero(x) : M;
}

/* A run: its flux and kernel average (NULL with the Godunov flux); its rows
 * of q (n + 2 values) and W (n + 3; NULL without an average), far fields in
 * their end columns; its record series, one entry per step (tv_w NULL
 * without an average); scratch for the fluxes (n + 1 values), and for the
 * jumps of a total variation (n + 2), which also holds a Godunov tile's
 * flux values until that tile's jumps overwrite them; with an average, a
 * second W row of n + 3 values, which the two-step pass of the exponential
 * kernel fills (see nl_advance).  The library keeps the boundary-flux
 * integral and the running q extremes, and says why a call stopped early:
 * 1 for a wrong-signed flux velocity (its extreme speed in `extreme`), 2
 * for a non-finite update.  After a failed step the library promises only
 * the step returned, the error and the extreme speed, and the records, the
 * q extremes and the boundary integral of the step before it; q and W are
 * unspecified.  A two-step pass checks step k + 1 first, so a failure in
 * step k + 2 keeps step k + 1's records and boundary term. */
typedef struct {
    const Flux *flux;
    const Average *average;
    long n;
    double dx, dt;
    double *q, *w, *tv_q, *tv_w, *mass, *fluxes, *scratch, *w2;
    double boundary, q_min, q_max, extreme;
    int error;
} Run;

/* What a step's tiles fold together for `failed`: whether a speed V(W) is
 * NaN and the extreme speed (see nl_flux), whether every update is finite,
 * and the fluxes at interfaces 0 and n */
typedef struct {
    int nan, finite;
    double extreme, f_0, f_n;
} Step;

/* Whether a step failed, and why into the run: error 1 when a speed has
 * the wrong sign and none is NaN (its extreme speed into `extreme`), else
 * error 2 when an update is not finite.  A step that passed adds its
 * boundary term. */
static int failed(Run *run, const Step *step)
{
    const Flux *flux = run->flux;
    if (!step->nan && (flux->mirrored ? -step->extreme : step->extreme) < -flux->slack) {
        run->extreme = step->extreme;
        run->error = 1;
    } else if (!step->finite) {
        run->error = 2;
    } else {
        run->boundary += run->dt * (step->f_n - step->f_0);
    }
    return run->error;
}

/* Step k's records: TV(q) from the jumps that scratch holds, the mass of
 * the n values `cells`, the step's extremes lo and hi folded into the
 * run's (the run's kept on ties) and, with an average, TV(W) of the row w,
 * whose jumps overwrite q's */
static void record(Run *run, long k, const double *cells, double lo, double hi, const double *w)
{
    const long n = run->n;
    double *jumps = run->scratch;
    run->tv_q[k] = 0.0 + pairwise(jumps + 1, n - 1) + jumps[0] + jumps[n];
    run->mass[k] = run->dx * (0.0 + pairwise(cells, n));
    if (lo < run->q_min) run->q_min = lo;
    if (hi > run->q_max) run->q_max = hi;
    if (run->average) run->tv_w[k] = total_variation(w, n + 1, jumps);
}

/* record, with the jumps and extremes taken from the row q itself */
static void record_q(Run *run, long k, const double *w)
{
    const long n = run->n;
    const double *q = run->q;
    double *jumps = run->scratch, lo = INFINITY, hi = -INFINITY;
    for (long i = 0; i <= n; i++) jumps[i] = fabs(q[i + 1] - q[i]);
    extremes(q + 1, n, &lo, &hi);
    record(run, k, q + 1, lo, hi, w);
}

/* A step's tiles: [a, b) of interfaces with b = a + TILE, the last running
 * to interface n, so that a grid of TILE cells or fewer is one tile.  A
 * tile's three rows (q, the flux values and the fluxes, 24 KB) stay in the
 * 48 KB L1 data cache through its passes; 1024 was faster than 512 and 2048
 * from 4096 cells on, 4096 no faster than no tiles. */
enum { TILE = 1024 };

/* The two-step pass's tiles, cut the same way from SKEW interfaces */
enum { SKEW = 256 };

/* One tile of a step, the routine that every step runs: the interface
 * fluxes of [a, b) from q and the average w into f, then the update of the
 * cells [c0, c1) that they close, c0 = max(a + s, 1) and c1 = min(b + s,
 * n + 1), where s is 0 for tiles taken left to right and 1 for a pass right
 * to left.  The sign check, the finiteness and the fluxes at interfaces 0
 * and n fold into *step. */
static void tile_step(const Run *run, const double *w, double *f, long a, long b, long s,
                      Step *step)
{
    const long n = run->n, c0 = a + s > 1 ? a + s : 1, c1 = b + s < n + 1 ? b + s : n + 1;
    const double lam = run->dt / run->dx;
    double *q = run->q;
    int finite = 1;
    nl_flux(run->flux, q, w, f, run->scratch, a, b, &step->nan, &step->extreme);
    for (long i = c0; i < c1; i++) {
        q[i] -= (f[i] - f[i - 1]) * lam;
        finite &= isfinite(q[i]) != 0;
    }
    step->finite &= finite;
    if (a == 0) step->f_0 = f[0];
    if (b == n + 1) step->f_n = f[n];
}

/* Make `steps` steps from step k one at a time (see nl_advance), each over
 * its tiles left to right: a tile's step (tile_step), then its q records,
 * the jumps |q[i + 1] - q[i]| for i = a - 1, ..., b - 2 (from 0, and the
 * last tile's to n) and the extremes of its cells, folded into locals.
 * After the last tile come the checks and the boundary term (`failed`),
 * the average into w and the records (`record`). */
static long one_at_a_time(Run *run, long k, long steps)
{
    const long n = run->n;
    const double *w = run->average ? run->w + 1 : 0;
    double *q = run->q, *scratch = run->scratch;
    for (; steps > 0; steps--) {
        double lo = INFINITY, hi = -INFINITY;
        Step step = {.finite = 1};
        for (long a = 0, b; a <= n; a = b) {
            b = a + TILE < n ? a + TILE : n + 1;
            const long first = a > 1 ? a : 1, end = b > n ? b : b - 1;
            tile_step(run, w, run->fluxes, a, b, 0, &step);
            for (long i = a > 0 ? a - 1 : 0; i < end; i++) scratch[i] = fabs(q[i + 1] - q[i]);
            extremes(q + first, b - first, &lo, &hi);
        }
        if (failed(run, &step)) return k;
        if (run->average) nl_average(run->average, q + 1, run->w + 1);
        record(run, ++k, q + 1, lo, hi, run->w);
    }
    return k;
}

/* The interfaces of tile [a, b) whose W the recursion writes: all but the
 * far field's, n downstream and 0 upstream */
static long chain_low(long a, long m) { return a > m ? a : m; }
static long chain_high(long b, long n, long m) { return b < n + m ? b : n + m; }

/* Steps k + 1 and k + 2 in one pass of an exponential kernel's upwind run,
 * from q (step k) and W^k in the row w (see nl_advance).  W^{k+1} goes into
 * the row w2, and step k + 2's fluxes, then W^{k+2}, into w's own row one
 * tile behind step k + 1, which has read W^k there.  W's far-field entry
 * is never written, so W^{k+2} keeps W^k's.  Returns the step whose records
 * the pass reached: k + 2, else k or k + 1, the step before the failed one. */
static long two_steps(Run *run, long k)
{
    const long n = run->n, m = run->flux->mirrored, s = 1 - m, d = m ? -1 : 1;
    const long tiles = (n - 1) / SKEW + 1;
    const double left = run->w[0], right = run->w[n + 2];
    double *q = run->q, *f1 = run->fluxes, *jumps = run->scratch;
    double *w = run->w + 1, *w1 = run->w2 + 1, *f2 = run->w + 2 * m;  /* f2 until W^{k+2} */
    double lo = INFINITY, hi = -INFINITY;
    Step one = {.finite = 1}, two = {.finite = 1};
    long a = 0, b = 0;  /* step k + 1's tile */
    run->w2[0] = left;
    run->w2[n + 2] = right;
    w1[m ? 0 : n] = run->average->farfield;
    for (long t = 0; t <= tiles; t++) {
        const long pa = a, pb = b;  /* step k + 2's tile, step k + 1's one iteration before */
        if (t < tiles) {
            const long at = m ? t : tiles - 1 - t;
            a = at * SKEW;
            b = at + 1 < tiles ? a + SKEW : n + 1;
            tile_step(run, w, f1, a, b, s, &one);
            /* q^{k+1}'s records: its cells copied, in index order for the
             * mass, where their step k + 1 fluxes are spent; the jumps
             * whose cells both hold q^{k+1}; the extremes, of equal ones
             * the leftmost tile's kept, as in a fold in index order */
            const long c0 = a + s > 1 ? a + s : 1, c1 = b + s < n + 1 ? b + s : n + 1;
            for (long i = c0; i < c1; i++) f1[i - m] = q[i];
            const long j0 = c0 - (m || a == 0), j1 = c1 - (m && b <= n);
            for (long j = j0; j < j1; j++) jumps[j] = fabs(q[j + 1] - q[j]);
            double tile_lo = INFINITY, tile_hi = -INFINITY;
            extremes(q + c0, c1 - c0, &tile_lo, &tile_hi);
            if (tile_lo < lo || (tile_lo == lo && !m)) lo = tile_lo;
            if (tile_hi > hi || (tile_hi == hi && !m)) hi = tile_hi;
        }
        if (t > 0) tile_step(run, w1, f2, pa, pb, s, &two);
        /* W^{k+1} on step k + 1's tile beside W^{k+2} on step k + 2's */
        const long lo1 = chain_low(a, m), hi1 = chain_high(b, n, m);
        const long lo2 = chain_low(pa, m), hi2 = chain_high(pb, n, m);
        two_chains(run->average, q + s, w1, m ? lo1 : hi1 - 1, t < tiles ? hi1 - lo1 : 0,
                   w, m ? lo2 : hi2 - 1, t > 0 ? hi2 - lo2 : 0, d);
    }
    run->w[0] = left;
    run->w[n + 2] = right;
    /* step k + 1's checks and records, then step k + 2's */
    if (failed(run, &one)) return k;
    record(run, k + 1, f1 + s, lo, hi, run->w2);
    if (failed(run, &two)) return k + 1;
    record_q(run, k + 2, run->w);
    return k + 2;
}

/* Make `steps` steps from step k, which q holds, with w holding its
 * average; with steps == 0, average q into w and record step k itself (a
 * run's first call, for step 0).  Returns the step q holds, or the one
 * before the failed step when a step stopped the call (its error set).
 *
 * The upwind flux with the exponential kernel makes two steps per pass
 * (loop and time skewing: M. Wolfe, IJPP 15, 1986; D. Wonnacott, IPDPS
 * 2000), so that the recursions of steps k + 1 and k + 2 interleave; an odd
 * step first, the Godunov flux and the constant kernel go one step at a
 * time.  The pass runs over its tiles, right to left downstream and left
 * to right upstream, one iteration more than it has tiles.  Iteration t
 * makes step k + 1 on tile t (tile_step, from q^k and W^k) and takes
 * q^{k+1}'s records there, then makes step k + 2 on tile t - 1, the tile
 * that step k + 1 made one iteration earlier: every q^{k+1} cell and W^{k+1}
 * value its fluxes read is then in place, and so is the step k + 2 flux
 * of tile t - 2 that closes its far cell.  Last, W^{k+1}'s recursion on
 * tile t runs beside W^{k+2}'s on tile t - 1.  The first iteration has no
 * step k + 2 tile and the last no step k + 1 tile.  Every value comes from
 * the same operations on the same operands as one step at a time, so no
 * bit changes.
 *
 * W^{k+1} fills the row w2, and step k + 2's fluxes and W^{k+2} take over
 * W^k's row w behind step k + 1, so w holds the current W after every
 * pair.  Run states what holds after a failed step. */
long nl_advance(Run *run, long k, long steps)
{
    const long end = k + steps;
    run->error = 0;
    if (steps == 0) {
        if (run->average) nl_average(run->average, run->q + 1, run->w + 1);
        record_q(run, k, run->w);
        return k;
    }
    if (!run->average || run->average->kernel != EXPONENTIAL) return one_at_a_time(run, k, steps);
    k = one_at_a_time(run, k, steps % 2);
    while (k < end && !run->error) k = two_steps(run, k);
    return k;
}

/* CSV rows.  nl_rows writes rows of float64 columns as Python's '%.17g'
 * and of text columns as they are, comma-separated and LF-terminated, into
 * a caller's buffer that it never overruns.
 *
 * Digits.  With x = m * 2^(b - 1075), m the 53-bit integer significand, and
 * E = floor(log10 |x|), the 17 digits are N = round-half-even(m * 5^k *
 * 2^(b - 1075 + k)), k = 16 - E: one product of m and five[k], the leading
 * 64 bits of 5^k, shifted right by 1 to 66 bits.  Up to k = 27 five[k] is
 * 5^k and N is exact.  Past it the exact product exceeds the computed one by
 * less than m units and no tie is possible (the shift exceeds 53 bits), so
 * N is certain unless the bits shifted out lie within m below a half.  E is
 * estimated from b, low by at most 1, and corrected when N has 18 digits.
 * Those open roundings, subnormals and values from 1e15 up take snprintf's
 * '%.17g' (glibc's equals Python's there) with the locale's decimal point
 * written '.'; NaN is "nan" whatever its sign, as Python writes it. */
__extension__ typedef unsigned __int128 u128;

enum { MAX_COLUMNS = 16, POWERS = 326 };  /* k is at most 324 */

/* A column: row r of a call takes entry (r / repeat) % count of the float64
 * values or, where starts is not NULL, of the text: LF-terminated lines,
 * entry i the bytes from starts[i] to the LF before starts[i + 1]. */
typedef struct {
    long repeat, count;
    const void *values;
    const long *starts;
} Column;

static uint64_t five[POWERS];
static int five_scale[POWERS], five_ready;

/* five[k] * 2^five_scale[k] <= 5^k, five[k] its leading 64 bits: built at
 * first use from 5^k in base 2^32, least significant limb first (threads
 * that race here write the same values) */
static void build_five(void)
{
    uint32_t limb[28] = {1};
    int used = 1;
    for (int k = 0; k < POWERS; k++) {
        uint64_t carry = 0;
        for (int j = 0; k > 0 && j < used; j++, carry >>= 32) {
            carry += (uint64_t) limb[j] * 5;
            limb[j] = (uint32_t) carry;
        }
        if (carry) limb[used++] = (uint32_t) carry;
        int bits = 32 * (used - 1);
        for (uint32_t top = limb[used - 1]; top; top >>= 1) bits++;
        const int scale = bits > 64 ? bits - 64 : 0, low = scale / 32;
        u128 window = 0;
        for (int j = used - 1; j >= low; j--) window = window << 32 | limb[j];
        five[k] = (uint64_t) (window >> (scale - 32 * low));
        five_scale[k] = scale;
    }
    __atomic_store_n(&five_ready, 1, __ATOMIC_RELEASE);
}

/* N for x = m * 2^(b - 1075) and k into *n; 0 when the rounding is open */
static int nearest(uint64_t m, int b, int k, uint64_t *n)
{
    const int shift = 1075 - b - k - five_scale[k];
    const u128 product = (u128) m * five[k], half = (u128) 1 << (shift - 1);
    const u128 below = product & ((half << 1) - 1);
    *n = (uint64_t) (product >> shift);
    if (five_scale[k] && below < half && below + m > half) return 0;
    *n += five_scale[k] ? below >= half : below > half || (below == half && (*n & 1));
    return 1;
}

/* the 8 decimal digits of v < 10^8 into d, two at a time */
static void eight(uint32_t v, char *d)
{
    static const char pairs[] =
        "00010203040506070809101112131415161718192021222324252627282930313233343536373839"
        "40414243444546474849505152535455565758596061626364656667686970717273747576777879"
        "8081828384858687888990919293949596979899";
    for (int j = 6; j >= 0; j -= 2, v /= 100) memcpy(d + j, pairs + 2 * (v % 100), 2);
}

/* '%.17g' % x as Python writes it, into p (at least 40 bytes); its length */
static int g17(double x, char *p)
{
    const uint64_t TEN16 = 10000000000000000u, TEN17 = 100000000000000000u;
    uint64_t bits, n;
    memcpy(&bits, &x, sizeof bits);
    const int b = (int) ((bits >> 52) & 0x7FF), negative = (int) (bits >> 63);
    const uint64_t m = bits & (((uint64_t) 1 << 52) - 1);
    const long t = 78913L * (b - 1023);  /* floor((b - 1023) log10 2) for every b */
    int e10 = (int) (t >= 0 ? t / 262144 : -((262143 - t) / 262144));
    char *s = p + negative, d[32] = {0};  /* room to copy a fixed 16 or 17 digits */
    if (b == 0x7FF) {
        strcpy(p, m ? "nan" : negative ? "-inf" : "inf");
        return (int) strlen(p);
    }
    *p = '-';  /* kept only where negative: s starts past it */
    if (b == 0 && m == 0) {
        *s = '0';
        return negative + 1;
    }
    if (b == 0 || e10 >= 15) goto fallback;
    if (!__atomic_load_n(&five_ready, __ATOMIC_ACQUIRE)) build_five();
    const uint64_t full = m | (uint64_t) 1 << 52;
    if (!nearest(full, b, 16 - e10, &n)) goto fallback;
    if (n >= TEN17 && !nearest(full, b, 16 - ++e10, &n)) goto fallback;
    if (n == TEN17) {  /* rounding carried into the next power of ten */
        n = TEN16;
        e10++;
    }
    if (e10 >= 15) goto fallback;
    const uint32_t high = (uint32_t) (n / 100000000);
    d[0] = (char) ('0' + high / 100000000);
    eight(high % 100000000, d + 1);
    eight((uint32_t) (n % 100000000), d + 9);
    int len = 17;
    while (d[len - 1] == '0') len--;
    if (e10 < -4) {  /* d[.ddd]e-XX */
        s[0] = d[0];
        s[1] = '.';
        memcpy(s + 2, d + 1, 16);
        s += len > 1 ? len + 1 : 1;
        memcpy(s, "e-", 2);
        s += 2;
        if (e10 <= -100) *s++ = (char) ('0' - e10 / 100);
        *s++ = (char) ('0' - e10 / 10 % 10);
        *s++ = (char) ('0' - e10 % 10);
    } else if (e10 < 0) {  /* 0.000ddd */
        memcpy(s, "0.000", 5);
        memcpy(s + 1 - e10, d, 17);
        s += 1 - e10 + len;
    } else {  /* ddd[.ddd] */
        memcpy(s, d, 16);
        s += e10 + 1;
        s[0] = '.';
        memcpy(s + 1, d + e10 + 1, 16);
        s += len > e10 + 1 ? len - e10 : 0;
    }
    return (int) (s - p);
fallback:
    s = p;
    snprintf(d, sizeof d, "%.17g", x);
    for (const char *c = d; *c; c++) {
        if ((*c >= '0' && *c <= '9') || *c == '-' || *c == '+' || *c == 'e') *s++ = *c;
        else if (s[-1] != '.') *s++ = '.';  /* the locale's decimal point */
    }
    return (int) (s - p);
}

/* Write n_rows rows of the columns into out, which holds capacity bytes;
 * returns the bytes written, -1 when the rows do not fit (out then holds
 * part of them) and -2 for invalid columns. */
long nl_rows(const Column *columns, long n_columns, long n_rows, char *out, long capacity)
{
    long entry[MAX_COLUMNS] = {0}, left[MAX_COLUMNS], at = 0, len;
    char scratch[40];
    if (n_columns < 1 || n_columns > MAX_COLUMNS) return -2;
    for (long c = 0; c < n_columns; c++) {
        if (columns[c].repeat < 1 || columns[c].count < 1) return -2;
        left[c] = columns[c].repeat;
    }
    for (long r = 0; r < n_rows; r++) {
        for (long c = 0; c < n_columns; c++) {
            const Column *column = columns + c;
            const long i = entry[c];
            if (--left[c] == 0) {
                left[c] = column->repeat;
                entry[c] = i + 1 == column->count ? 0 : i + 1;
            }
            if (column->starts) {
                len = column->starts[i + 1] - 1 - column->starts[i];
                if (len >= capacity - at) return -1;
                memcpy(out + at, (const char *) column->values + column->starts[i], len);
            } else {
                char *p = capacity - at >= 40 ? out + at : scratch;
                len = g17(((const double *) column->values)[i], p);
                if (len >= capacity - at) return -1;
                if (p == scratch) memcpy(out + at, scratch, len);
            }
            at += len;
            out[at++] = c + 1 < n_columns ? ',' : '\n';
        }
    }
    return at;
}
