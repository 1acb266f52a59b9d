/* The refactoring level steps, the coefficient class walks, and the entropy
 * stage's integer loops, in C, loaded through ctypes by native.py.
 *
 * Every kernel performs, per element, exactly the floating-point
 * operations of the NumPy body it stands in for, in the same order: a
 * product is rounded before it is added (build with -ffp-contract=off),
 * divides are divides, nothing is reassociated (no -ffast-math), f32
 * operands are widened to double where NumPy's promotion widens them and
 * rounded back once where NumPy rounds.  Results therefore equal the
 * reference's bit for bit, and native.py checks that on load.
 *
 * A decompose or recompose is one entry per direction and dtype that walks
 * every level (decompose_* / recompose_*, at the end).  A level step l -> l-1
 * runs two passes per direction: coefficients (c = v - interp) or restore
 * (v = c + interp, the coarse values re-injected) build the interpolant
 * plane by plane; correct is restrict(v) + Q(c) or v - Q(c with its coarse
 * nodes taken as zero), Q the correction of correction.py, in two passes over
 * the planes of the first coarsening axis a0: pass A runs the R·M stencil
 * along a0, the Thomas forward sweep and the back substitution on a range of
 * the planes' columns, into one scratch A that holds every plane; pass B runs
 * the remaining axes' stencil and solve on a block of A's planes and the
 * restrict-and-add.  Axes before a0 do not coarsen (they hold one or two
 * nodes) and are a batch.  Per axis with mc coarse nodes the operators are
 * w_left[mc - 1], w_right[mc - 1], the R·M bands[5 * mc], the Thomas
 * lower[mc - 1], cp[mc] and denom[mc]; the field comes with its strides, in
 * elements, and Python validates its dtype and alignment first.
 *
 * A walk runs on a team of threads, each calling the same entry with the same
 * operands and one record the caller zeroed and sized.  A level is a few phases
 * of independent items (planes, column ranges, blocks) that members claim from
 * an atomic counter; whoever finishes a phase's last item opens the next.  So
 * nothing waits for a member that has not started, a late member joins the
 * open phase, and each node gets the one-thread walk's operations.
 *
 * No static state, no OpenMP, no allocation: libgomp's thread pool does not
 * survive the fork() the process executor uses and would nest under the
 * executors' fan-outs; ctypes drops the GIL, so the members are threads of
 * repro.parallel's thread executor, and every scratch comes from the caller
 * (one share per member).
 */
#include <math.h>
#include <sched.h>
#include <stdint.h>

typedef int64_t i64;
typedef uint64_t u64;

enum { MAXD = 16, BLOCK = 128, PLANE_BLOCK = 1 << 14 /* doubles per block of planes */ };

#define INLINE static inline __attribute__((always_inline))
#define PASS static __attribute__((noinline, noclone)) /* one copy however many walks call it */
#define BLOCKS(j0, jn, n) \
    for (i64 j0 = 0, jn; jn = (n) - j0 < BLOCK ? (n) - j0 : BLOCK, j0 < (n); j0 += BLOCK)

/* round half to even, as np.round / np.rint: below 2^52 adding and
 * subtracting 2^52 rounds to an integer in the default rounding mode; from
 * 2^52 up every double is one.  (The sign of a zero result is lost, and the
 * int64 cast that follows cannot see it.) */
INLINE double round_even(double x)
{
    const double two52 = 4503599627370496.0;
    if (x > -two52 && x < two52) {
        double c = x < 0.0 ? -two52 : two52;
        return (x + c) - c;
    }
    return x;
}

/* ---------------------------------------------------------------------
 * The row loops: one axis of a strided block, n vectors of it at a time,
 * the vector index innermost.
 */

/* coarse node j at fine position p = 2j:
 * b2*f[p] + b1*f[p-1] + b3*f[p+1] + b0*f[p-2] + b4*f[p+2], in that order, a
 * term dropped (not multiplied by zero) where its position is off the grid;
 * the tail node of an even-length level is b2*f[m-1] + b1*f[m-2] */
INLINE void mass_transfer_rows(const double *restrict f, double *restrict out, i64 m, i64 mc,
                               i64 n, i64 fm, i64 fi, i64 om, i64 oi, const double *bands)
{
    const i64 n_even = (m + 1) / 2;
    const double *b0 = bands, *b1 = bands + mc, *b2 = bands + 2 * mc, *b3 = bands + 3 * mc,
                 *b4 = bands + 4 * mc;
    for (i64 c = 0; c < n_even; c++) {
        const double *p = f + 2 * c * fm;
        double *q = out + c * om;
        const int left = c >= 1, right = 2 * c + 1 < m, right2 = c + 1 < n_even;
        const double w0 = b0[c], w1 = b1[c], w2 = b2[c], w3 = b3[c], w4 = b4[c];
        if (left && right2) { /* every row but the first and last: no branch inside */
            for (i64 j = 0; j < n; j++) {
                const double *x = p + j * fi;
                double acc = w2 * x[0];
                acc = acc + w1 * x[-fm];
                acc = acc + w3 * x[fm];
                acc = acc + w0 * x[-2 * fm];
                acc = acc + w4 * x[2 * fm];
                q[j * oi] = acc;
            }
            continue;
        }
        for (i64 j = 0; j < n; j++) {
            const double *x = p + j * fi;
            double acc = w2 * x[0];
            if (left) acc = acc + w1 * x[-fm];
            if (right) acc = acc + w3 * x[fm];
            if (left) acc = acc + w0 * x[-2 * fm];
            if (right2) acc = acc + w4 * x[2 * fm];
            q[j * oi] = acc;
        }
    }
    if (m % 2 == 0) {
        const double *p = f + (m - 1) * fm;
        double *q = out + n_even * om;
        const double w2 = b2[mc - 1], w1 = b1[mc - 1];
        for (i64 j = 0; j < n; j++)
            q[j * oi] = w2 * p[j * fi] + w1 * p[j * fi - fm];
    }
}

/* Thomas forward elimination and back substitution with given factors, in place */
INLINE void thomas_rows(double *restrict z, i64 m, i64 n, i64 zm, i64 zi, const double *lower,
                        const double *cp, const double *denom)
{
    for (i64 j = 0; j < n; j++)
        z[j * zi] = z[j * zi] / denom[0];
    for (i64 i = 1; i < m; i++) {
        double *cur = z + i * zm;
        const double *prev = cur - zm;
        const double lo = lower[i - 1], de = denom[i];
        for (i64 j = 0; j < n; j++)
            cur[j * zi] = (cur[j * zi] - prev[j * zi] * lo) / de;
    }
    for (i64 i = m - 2; i >= 0; i--) {
        double *cur = z + i * zm;
        const double *prev = cur + zm;
        const double c = cp[i];
        for (i64 j = 0; j < n; j++)
            cur[j * zi] = cur[j * zi] - prev[j * zi] * c;
    }
}

/* ---------------------------------------------------------------------
 * Levels, operand maps, and the walk over the nodes of a plane.
 */

typedef struct {
    i64 nd, a0; /* a0: the first coarsening axis */
    i64 n[MAXD], nc[MAXD], ne[MAXD], st[MAXD]; /* nodes, coarse nodes, of them on [0::st] */
    const double *wl[MAXD], *wr[MAXD], *bands[MAXD], *lower[MAXD], *cp[MAXD], *denom[MAXD];
} Level;

/* lv: nd, the level's node counts, per axis the offset of its operators in the
 * nops doubles of ops (-1 where the axis does not coarsen); null ops: sizes only */
static int level_init(Level *L, const i64 *lv, const double *ops, i64 nops)
{
    const i64 nd = lv[0];
    if (nd < 1 || nd > MAXD)
        return 0;
    L->nd = nd, L->a0 = -1;
    for (i64 d = 0; d < nd; d++) {
        const i64 n = lv[1 + d], at = lv[1 + nd + d];
        L->n[d] = n;
        if (n < 1 || (at >= 0 && n < 3))
            return 0;
        if (at < 0) { /* every node is coarse */
            L->nc[d] = L->ne[d] = n, L->st[d] = 1;
            continue;
        }
        const i64 mc = n / 2 + 1;
        if (at > nops - (10 * mc - 3)) /* the six arrays below */
            return 0;
        L->nc[d] = mc, L->ne[d] = (n + 1) / 2, L->st[d] = 2;
        if (ops) {
            const double *p = ops + at;
            L->wl[d] = p, L->wr[d] = p + (mc - 1), L->bands[d] = p + 2 * (mc - 1);
            L->lower[d] = L->bands[d] + 5 * mc, L->cp[d] = L->lower[d] + (mc - 1);
            L->denom[d] = L->cp[d] + mc;
        }
        if (L->a0 < 0)
            L->a0 = d;
    }
    return L->a0 >= 0;
}

/* position of coarse node i along d: [0::2], then an even level's tail node */
INLINE i64 cpos(const Level *L, i64 d, i64 i)
{
    return i < L->ne[d] ? L->st[d] * i : L->n[d] - 1;
}

/* Where an operand holds a level's nodes: node i along d sits i * s[d] elements
 * in while i < e[d], else at t[d] — the last node of an axis that is not 2^k + 1
 * long, when the operand is the whole field and the level a coarser one. */
typedef struct { i64 s[MAXD], e[MAXD], t[MAXD]; } Map;

INLINE i64 place(const Map *m, i64 d, i64 i)
{
    return i < m->e[d] ? i * m->s[d] : m->t[d];
}

/* a C-order array of the given shape; returns its size */
static i64 packed(Map *m, const i64 *shape, i64 nd)
{
    i64 p = 1;
    for (i64 d = nd - 1; d >= 0; p *= shape[d--])
        m->s[d] = p, m->e[d] = INT64_MAX, m->t[d] = 0;
    return p;
}

/* the last axis after a0 but skip, -1 when there is none: the walks' inner loop */
INLINE i64 inner_axis(const Level *L, i64 skip)
{
    const i64 d = L->nd - 1 != skip ? L->nd - 1 : L->nd - 2;
    return d > L->a0 ? d : -1;
}

/* the level's nodes after a0 (a plane) as a C-order array, from dim `from` on
 * coarse nodes only; returns the plane's size */
static i64 plane_map(const Level *L, Map *m, i64 from)
{
    i64 sh[MAXD];
    for (i64 d = 0; d < L->nd; d++)
        sh[d] = d <= L->a0 ? 1 : d >= from ? L->nc[d] : L->n[d];
    return packed(m, sh, L->nd);
}

/* Every index of the dims lo <= d < hi but skip and inner, of dim `coarse` and
 * later only the coarse nodes; operand o (map m[o]) is addressed at those
 * nodes' positions where bit o of `at` is set, else at their coarse indices. */
typedef struct {
    const Level *L;
    const Map *m[3];
    i64 k, nops, dim[MAXD], cnt[MAXD], idx[MAXD], off[3];
    int pos[3][MAXD];
} Rows;

static void rows_init(Rows *r, const Level *L, i64 lo, i64 hi, i64 skip, i64 inner, i64 coarse,
                      i64 nops, const Map *const *m, int at)
{
    r->L = L, r->k = 0, r->nops = nops;
    for (i64 d = lo; d < hi; d++) {
        if (d == skip || d == inner)
            continue;
        const i64 j = r->k++;
        const int co = d >= coarse;
        r->dim[j] = d, r->cnt[j] = co ? L->nc[d] : L->n[d], r->idx[j] = 0;
        for (i64 o = 0; o < nops; o++)
            r->pos[o][j] = co && (at >> o & 1);
    }
    for (i64 o = 0; o < nops; o++)
        r->m[o] = m[o], r->off[o] = 0;
}

static void rows_offsets(Rows *r)
{
    for (i64 o = 0; o < r->nops; o++) {
        i64 off = 0;
        for (i64 t = 0; t < r->k; t++)
            off += place(r->m[o], r->dim[t],
                         r->pos[o][t] ? cpos(r->L, r->dim[t], r->idx[t]) : r->idx[t]);
        r->off[o] = off;
    }
}

static int rows_next(Rows *r)
{
    for (i64 j = r->k - 1; j >= 0; j--) {
        if (++r->idx[j] < r->cnt[j]) {
            rows_offsets(r);
            return 1;
        }
        r->idx[j] = 0;
    }
    return 0;
}

/* the walk's i-th index */
static void rows_at(Rows *r, i64 i)
{
    for (i64 j = r->k - 1; j >= 0; j--)
        r->idx[j] = i % r->cnt[j], i /= r->cnt[j];
    rows_offsets(r);
}

/* whether the walk's index is at coarse nodes of every dim it walks */
static int rows_coarse(const Rows *r)
{
    int coarse = 1;
    for (i64 t = 0; t < r->k; t++)
        coarse &= r->idx[t] % r->L->st[r->dim[t]] == 0 || r->idx[t] == r->L->n[r->dim[t]] - 1;
    return coarse;
}

/* R·M and the solve along axis e of the block a (C order, shape sh; level axis
 * d) into b, sh[e] shortened to the coarse nodes; whether b is finite at node 0
 * along e — the slab thomas_solve checks */
static int block_axis(const Level *L, i64 d, const double *a, double *b, i64 nd, i64 *sh, i64 e)
{
    Level B = {.nd = nd};
    Map Ma, Mb;
    const Map *m2[2] = {&Ma, &Mb};
    const i64 m = sh[e], mc = L->nc[d], in = e != nd - 1 ? nd - 1 : nd - 2;
    packed(&Ma, sh, nd);
    sh[e] = mc;
    packed(&Mb, sh, nd);
    for (i64 k = 0; k < nd; k++)
        B.n[k] = sh[k];
    Rows o;
    rows_init(&o, &B, 0, nd, e, in, nd, 2, m2, 0);
    const i64 n = in >= 0 ? sh[in] : 1, fi = in >= 0 ? Ma.s[in] : 1, oi = in >= 0 ? Mb.s[in] : 1;
    const i64 sa = Ma.s[e], sb = Mb.s[e];
    int finite = 1;
    do {
        BLOCKS(j0, jn, n) {
            const double *f = a + o.off[0] + j0 * fi;
            double *z = b + o.off[1] + j0 * oi;
            if (fi == 1 && oi == 1) {
                mass_transfer_rows(f, z, m, mc, jn, sa, 1, sb, 1, L->bands[d]);
                thomas_rows(z, mc, jn, sb, 1, L->lower[d], L->cp[d], L->denom[d]);
            } else {
                mass_transfer_rows(f, z, m, mc, jn, sa, fi, sb, oi, L->bands[d]);
                thomas_rows(z, mc, jn, sb, oi, L->lower[d], L->cp[d], L->denom[d]);
            }
            for (i64 j = 0; j < jn; j++)
                finite &= isfinite(z[j * oi]) != 0;
        }
    } while (rows_next(&o));
    return finite;
}

/* A level's passes as items for m members: planes (after a0) of P nodes, a
 * batch of nb (before a0); G planes an item of the coefficient and restore
 * passes, C columns one of pass A (four per member, the whole plane for one),
 * K coarse a0 nodes one of pass B. */
typedef struct { i64 P, nb, G, C, K; } Split;

static void split(const Level *L, i64 m, Split *s)
{
    Map MI;
    const i64 mc0 = L->nc[L->a0];
    s->P = plane_map(L, &MI, L->nd);
    s->nb = 1;
    for (i64 d = 0; d < L->a0; d++)
        s->nb *= L->n[d];
    s->G = (PLANE_BLOCK + s->P - 1) / s->P;
    const i64 nc = m < 2 ? 1 : 4 * m < (s->P + 255) / 256 ? 4 * m : (s->P + 255) / 256;
    s->C = ((s->P + nc - 1) / nc + 7) / 8 * 8;
    s->C = s->C < s->P ? s->C : s->P;
    s->K = s->P >= PLANE_BLOCK ? 1 : PLANE_BLOCK / s->P;
    s->K = s->K < mc0 ? s->K : mc0;
}

/* ---------------------------------------------------------------------
 * The team record, counters a cache line apart: CLAIM the open phase << 32 | its
 * next item, DONE its finished items, STATUS the level a non-finite slab stopped.
 */
enum { T_SIZE, T_JOINED, T_CLAIM = 8, T_DONE = 16, T_STATUS = 24, TEAM_WORDS = 32,
       END = INT32_MAX /* the phase of a walk that is over */ };

typedef struct { i64 *rec, k, id; } Team; /* k: the phase this member is at */

/* the next item of phase k's n, or -1 when none is left to claim (or the open
 * phase is another: a late member skips the phases it missed) */
static i64 claim(Team *t, i64 n)
{
    i64 w = __atomic_load_n(t->rec + T_CLAIM, __ATOMIC_ACQUIRE);
    while (w >> 32 == t->k && (w & 0xffffffff) < n)
        if (__atomic_compare_exchange_n(t->rec + T_CLAIM, &w, w + 1, 1, __ATOMIC_ACQUIRE,
                                        __ATOMIC_ACQUIRE))
            return w & 0xffffffff;
    return -1;
}

/* an item of phase k's n is finished: the last one opens phase k + 1, or ends
 * the walk when an item stopped it */
static void done(Team *t, i64 n)
{
    if (__atomic_add_fetch(t->rec + T_DONE, 1, __ATOMIC_ACQ_REL) < n)
        return;
    __atomic_store_n(t->rec + T_DONE, 0, __ATOMIC_RELAXED);
    const i64 next = __atomic_load_n(t->rec + T_STATUS, __ATOMIC_RELAXED) ? (i64)END : t->k + 1;
    __atomic_store_n(t->rec + T_CLAIM, next << 32, __ATOMIC_RELEASE);
}

/* each item i of the open phase's n: claimed, run, counted */
#define ITEMS(t, i, n) for (i64 i, n_ = (n); (i = claim(t, n_)) >= 0; done(t, n_))

/* wait for phase k to end; 1 when the walk is over (only a correction's phases end it) */
static int next_phase(Team *t)
{
    i64 k;
    while ((k = __atomic_load_n(t->rec + T_CLAIM, __ATOMIC_ACQUIRE) >> 32) <= t->k)
        sched_yield(); /* a member on this core may hold that item */
    t->k++;
    return k == END;
}

/* the walk is over for everyone; its status */
static i64 leave(Team *t)
{
    __atomic_store_n(t->rec + T_CLAIM, (i64)END << 32, __ATOMIC_RELEASE);
    return __atomic_load_n(t->rec + T_STATUS, __ATOMIC_ACQUIRE);
}

/* the stencil along a0 of coarse node j and the forward sweep's step: planes
 * x[0..5) are fine nodes p-2..p+2 (null where off the grid), zp node j-1's */
INLINE void stencil_forward(double *restrict z, const double *zp, i64 P, const double *const *x,
                            const double *w, double lo, double de)
{
    const double *xm2 = x[0], *xm1 = x[1], *x0 = x[2], *xp1 = x[3], *xp2 = x[4];
    if (zp && xm1 && xp1 && xp2) {
        for (i64 i = 0; i < P; i++) {
            double acc = w[2] * x0[i];
            acc = acc + w[1] * xm1[i];
            acc = acc + w[3] * xp1[i];
            acc = acc + w[0] * xm2[i];
            acc = acc + w[4] * xp2[i];
            z[i] = (acc - zp[i] * lo) / de;
        }
        return;
    }
    for (i64 i = 0; i < P; i++) {
        double acc = w[2] * x0[i];
        if (xm1) acc = acc + w[1] * xm1[i];
        if (xp1) acc = acc + w[3] * xp1[i];
        if (xm2) acc = acc + w[0] * xm2[i];
        if (xp2) acc = acc + w[4] * xp2[i];
        z[i] = zp ? (acc - zp[i] * lo) / de : acc / de;
    }
}

/* The walk's table, grid.py's TensorHierarchy.refactor_walk: nd, L, the length
 * of ops, the field's shape; then per level l = 0..L a record: its lv, then per
 * axis the field's index step between its nodes and how many of them lie on
 * that progression (the rest, at most one, is the axis' last node). */
#define RECORD(tab, l) ((tab) + 3 + (tab)[0] + (l) * (1 + 4 * (tab)[0]))

/* A walk's work beyond its packed arrays (slots) of the largest coarse level:
 * pass A's planes of every batch, shared, and a share per member (an interpolant
 * plane, pass A's five-plane ring, pass B's two blocks); -1 for a table whose
 * arrays would not fit the field. */
static int walk_sizes(const i64 *tab, i64 *slot, i64 *shared, i64 *share)
{
    const i64 nd = tab[0], nl = tab[1], *n = tab + 3;
    if (nd < 1 || nd > MAXD || nl < 1)
        return -1;
    *slot = *shared = *share = 0;
    for (i64 l = 0; l <= nl; l++) {
        const i64 *r = RECORD(tab, l), *step = r + 1 + 2 * nd, *e = step + nd;
        i64 size = 1, a, b;
        Level L;
        Split s;
        if (r[0] != nd)
            return -1;
        for (i64 d = 0; d < nd; d++) {
            const i64 m = r[1 + d];
            if (n[d] < 1 || step[d] < 1 || e[d] < 1 || m < e[d] || m > e[d] + 1
                || e[d] - 1 > (n[d] - 1) / step[d] || (l == nl && (m != n[d] || step[d] != 1))
                || (l == 0 && r[1 + nd + d] >= 0))
                return -1;
            size *= m;
        }
        *slot = l < nl && size > *slot ? size : *slot;
        if (l == 0)
            continue;
        if (!level_init(&L, r, 0, tab[2]))
            return -1;
        for (i64 d = 0; d < nd; d++)
            if (L.nc[d] != RECORD(tab, l - 1)[1 + d])
                return -1;
        split(&L, 1, &s);
        a = s.nb * L.nc[L.a0] * s.P, b = (s.K > 2 ? 2 * s.K : 5) * s.P;
        *shared = a > *shared ? a : *shared;
        *share = b > *share ? b : *share;
    }
    return 0;
}

/* the work of a walk with `slots` packed arrays on a team of `members` */
i64 walk_doubles(const i64 *tab, i64 slots, i64 members)
{
    i64 slot, shared, share;
    if (members < 1 || walk_sizes(tab, &slot, &shared, &share) < 0)
        return -1;
    return slots * slot + shared + members * share;
}

/* level l of the field (strides s), or the field itself at l = L */
static void level_map(Map *m, const i64 *tab, i64 l, const i64 *s)
{
    const i64 nd = tab[0], *n = tab + 3, *step = RECORD(tab, l) + 1 + 2 * nd;
    for (i64 d = 0; d < nd; d++)
        m->s[d] = s[d] * step[d], m->e[d] = step[nd + d], m->t[d] = (n[d] - 1) * s[d];
}

/* The level passes.  Of their operands only c, a level of the field, may hold a
 * tail node; v, vc, vn and out are the whole field or packed. */
#define LEVEL_KERNELS(T, S)                                                                \
                                                                                           \
/* detail node 2i+1 <- wl[i]*node 2i + wr[i]*node 2i+2, summed in double */                \
INLINE void fill_rows_##S(T *restrict p, i64 nd, i64 n, i64 sm, i64 si,                    \
                          const double *wl, const double *wr)                              \
{                                                                                          \
    for (i64 i = 0; i < nd; i++) {                                                         \
        T *d = p + (2 * i + 1) * sm;                                                       \
        const double l = wl[i], r = wr[i];                                                 \
        for (i64 j = 0; j < n; j++)                                                        \
            d[j * si] = (T)(l * (double)d[j * si - sm] + r * (double)d[j * si + sm]);      \
    }                                                                                      \
}                                                                                          \
                                                                                           \
static void fill_run_##S(T *p, i64 nd, i64 n, i64 sm, i64 si, const double *wl,            \
                         const double *wr)                                                 \
{                                                                                          \
    if (sm == 1 && si != 1) { /* along a contiguous axis: a row at a time */               \
        for (i64 j = 0; j < n; j++)                                                        \
            fill_rows_##S(p + j * si, nd, 1, 1, 1, wl, wr);                                \
        return;                                                                            \
    }                                                                                      \
    BLOCKS(j0, jn, n) {                                                                    \
        if (si == 1)                                                                       \
            fill_rows_##S(p + j0, nd, jn, sm, 1, wl, wr);                                  \
        else                                                                               \
            fill_rows_##S(p + j0 * si, nd, jn, sm, si, wl, wr);                            \
    }                                                                                      \
}                                                                                          \
                                                                                           \
/* interpolate_coarse's fills after a0 on one plane p (map MI) whose coarse                \
 * nodes hold their values: along each coarsening axis k in turn, on the rows              \
 * that are coarse in the later axes */                                                    \
static void fills_##S(const Level *L, T *p, const Map *MI)                                 \
{                                                                                          \
    const i64 *s = MI->s;                                                                  \
    for (i64 k = L->a0 + 1; k < L->nd; k++) {                                              \
        if (L->st[k] == 1)                                                                 \
            continue;                                                                      \
        const i64 in = inner_axis(L, k), nd = L->n[k] - L->nc[k];                          \
        const double *wl = L->wl[k], *wr = L->wr[k];                                       \
        Rows r;                                                                            \
        rows_init(&r, L, L->a0 + 1, L->nd, k, in, k + 1, 1, &MI, 1);                       \
        do {                                                                               \
            T *q = p + r.off[0];                                                           \
            if (in < 0)                                                                    \
                fill_run_##S(q, nd, 1, s[k], 1, wl, wr);                                   \
            else if (in < k)                                                               \
                fill_run_##S(q, nd, L->n[in], s[k], s[in], wl, wr);                        \
            else {                                                                         \
                fill_run_##S(q, nd, L->ne[in], s[k], L->st[in] * s[in], wl, wr);           \
                if (L->nc[in] > L->ne[in])                                                 \
                    fill_run_##S(q + (L->n[in] - 1) * s[in], nd, 1, s[k], 1, wl, wr);      \
            }                                                                              \
        } while (rows_next(&r));                                                           \
    }                                                                                      \
}                                                                                          \
                                                                                           \
/* interpolate_coarse on the plane I (map MI): the coarse nodes after a0 take              \
 * u0's values (map Mu; at their positions where `pos`, else at coarse indices)            \
 * or, for a detail plane of a0, wl*u0 + wr*u1; then the other axes' fills */              \
static void interp_plane_##S(const Level *L, T *I, const Map *MI, const T *u0, const T *u1, \
                             const Map *Mu, int pos, double wl, double wr)                 \
{                                                                                          \
    const i64 in = inner_axis(L, -1), ni = in >= 0 ? L->nc[in] : 1;                        \
    const i64 Ii = in >= 0 ? MI->s[in] : 0, ui = in >= 0 ? Mu->s[in] : 0;                  \
    const Map *m2[2] = {MI, Mu};                                                           \
    Rows r;                                                                                \
    rows_init(&r, L, L->a0 + 1, L->nd, -1, in, L->a0 + 1, 2, m2, pos ? 3 : 1);             \
    do {                                                                                   \
        T *Ir = I + r.off[0];                                                              \
        for (i64 i = 0; i < ni; i++) {                                                     \
            const i64 x = in >= 0 ? cpos(L, in, i) : 0, y = r.off[1] + (pos ? x : i) * ui; \
            Ir[x * Ii] = u1 ? (T)(wl * (double)u0[y] + wr * (double)u1[y]) : u0[y];        \
        }                                                                                  \
    } while (rows_next(&r));                                                               \
    fills_##S(L, I, MI);                                                                   \
}                                                                                          \
                                                                                           \
/* decompose: c = v - interpolate_coarse(v[coarse]) of the level, in T, on the             \
 * team, its items G planes of a0 (counted across the batch); the interpolant              \
 * is built in scratch, one plane */                                                       \
PASS void coefficients_##S(Team *t, const Level *L, const T *v, const Map *Mv, T *c,       \
                             const Map *Mc, double *scratch)                               \
{                                                                                          \
    Map MI;                                                                                \
    Split s;                                                                               \
    plane_map(L, &MI, L->nd);                                                              \
    split(L, t->rec[T_SIZE], &s);                                                          \
    const i64 a0 = L->a0, nd = L->nd, m0 = L->n[a0], n = s.nb * m0, in = inner_axis(L, -1); \
    const i64 nf = in >= 0 ? L->n[in] : 1, ci = in >= 0 ? Mc->s[in] : 0;                   \
    const i64 vi = in >= 0 ? Mv->s[in] : 0, ne = in >= 0 && Mc->e[in] < nf ? Mc->e[in] : nf; \
    const Map *m2[2] = {Mc, Mv}, *m3[3] = {Mc, Mv, &MI};                                   \
    T *I = (T *)(void *)scratch;                                                           \
    Rows b;                                                                                \
    rows_init(&b, L, 0, a0, -1, -1, nd, 2, m2, 0);                                         \
    ITEMS(t, i, (n + s.G - 1) / s.G)                                                       \
    for (i64 k = i * s.G, p = k % m0; k < n && k < (i + 1) * s.G; k++, p = k % m0) {       \
        if (k == i * s.G || p == 0)                                                        \
            rows_at(&b, k / m0);                                                           \
        const T *vb = v + b.off[1], *vp = vb + place(Mv, a0, p);                           \
        T *cp_ = c + b.off[0] + place(Mc, a0, p);                                          \
        if (p % 2 && p != m0 - 1)                                                          \
            interp_plane_##S(L, I, &MI, vb + place(Mv, a0, p - 1), vb + place(Mv, a0, p + 1), \
                             Mv, 1, L->wl[a0][p / 2], L->wr[a0][p / 2]);                   \
        else                                                                               \
            interp_plane_##S(L, I, &MI, vp, 0, Mv, 1, 0.0, 0.0);                           \
        Rows r;                                                                            \
        rows_init(&r, L, a0 + 1, nd, -1, in, nd, 3, m3, 0);                                \
        do { /* I's inner stride is 1 */                                                   \
            T *cr = cp_ + r.off[0];                                                        \
            const T *vr = vp + r.off[1], *Ir = I + r.off[2];                               \
            if (ci == 1 && vi == 1 && ne == nf)                                            \
                for (i64 i = 0; i < nf; i++)                                               \
                    cr[i] = vr[i] - Ir[i];                                                 \
            else {                                                                         \
                for (i64 i = 0; i < ne; i++)                                               \
                    cr[i * ci] = vr[i * vi] - Ir[i];                                       \
                for (i64 i = ne; i < nf; i++)                                              \
                    cr[place(Mc, in, i)] = vr[place(Mv, in, i)] - Ir[i];                   \
            }                                                                              \
        } while (rows_next(&r));                                                           \
    }                                                                                      \
}                                                                                          \
                                                                                           \
INLINE void put_##S(void *out, i64 x, int out_T, double w)                                 \
{                                                                                          \
    if (out_T)                                                                             \
        ((T *)out)[x] = (T)w;                                                              \
    else                                                                                   \
        ((double *)out)[x] = w;                                                            \
}                                                                                          \
                                                                                           \
/* recompose: out = c + interpolate_coarse(vc), then out[coarse] = vc, on the              \
 * team as coefficients_; out is T where out_T, else double; the interpolant is            \
 * built in scratch, one plane */                                                          \
PASS void restore_##S(Team *t, const Level *L, const T *c, const Map *Mc, const double *vc, \
                        const Map *Mvc, void *out, const Map *Mo, int out_T, double *scratch) \
{                                                                                          \
    Map MI;                                                                                \
    Split s;                                                                               \
    plane_map(L, &MI, L->nd);                                                              \
    split(L, t->rec[T_SIZE], &s);                                                          \
    const i64 a0 = L->a0, nd = L->nd, m0 = L->n[a0], n = s.nb * m0, in = inner_axis(L, -1); \
    const i64 ni = in >= 0 ? L->nc[in] : 1, nf = in >= 0 ? L->n[in] : 1;                   \
    const i64 ci = in >= 0 ? Mc->s[in] : 0, oi = in >= 0 ? Mo->s[in] : 0;                  \
    const i64 ki = in >= 0 ? Mvc->s[in] : 0, ne = in >= 0 && Mc->e[in] < nf ? Mc->e[in] : nf; \
    const Map *m3[3] = {Mo, Mc, Mvc}, *mf[3] = {Mo, Mc, &MI}, *mo2[2] = {Mo, Mvc};         \
    T *ot = out;                                                                           \
    double *od = out;                                                                      \
    Rows b;                                                                                \
    rows_init(&b, L, 0, a0, -1, -1, nd, 3, m3, 0);                                         \
    ITEMS(t, i, (n + s.G - 1) / s.G)                                                       \
    for (i64 k = i * s.G, p = k % m0; k < n && k < (i + 1) * s.G; k++, p = k % m0) {       \
        if (k == i * s.G || p == 0)                                                        \
            rows_at(&b, k / m0);                                                           \
        const double *vb = vc + b.off[2];                                                  \
        const int detail = p % 2 && p != m0 - 1;                                           \
        const i64 j = detail || p % 2 == 0 ? p / 2 : L->nc[a0] - 1;                        \
        const double *v0 = vb + place(Mvc, a0, j);                                         \
        const i64 po = b.off[0] + place(Mo, a0, p);                                        \
        const T *cp_ = c + b.off[1] + place(Mc, a0, p);                                    \
        interp_plane_f64(L, scratch, &MI, v0, detail ? vb + place(Mvc, a0, j + 1) : 0, Mvc, 0, \
                         detail ? L->wl[a0][j] : 0.0, detail ? L->wr[a0][j] : 0.0);        \
        Rows r;                                                                            \
        rows_init(&r, L, a0 + 1, nd, -1, in, nd, 3, mf, 0);                                \
        do {                                                                               \
            const T *cr = cp_ + r.off[1];                                                  \
            const double *Ir = scratch + r.off[2];                                         \
            const i64 at = po + r.off[0];                                                  \
            if (out_T)                                                                     \
                for (i64 i = 0; i < ne; i++)                                               \
                    ot[at + i * oi] = (T)((double)cr[i * ci] + Ir[i]);                     \
            else                                                                           \
                for (i64 i = 0; i < ne; i++)                                               \
                    od[at + i * oi] = (double)cr[i * ci] + Ir[i];                          \
            for (i64 i = ne; i < nf; i++)                                                  \
                put_##S(out, at + place(Mo, in, i), out_T, (double)cr[place(Mc, in, i)] + Ir[i]); \
        } while (rows_next(&r));                                                           \
        if (detail)                                                                        \
            continue;                                                                      \
        rows_init(&r, L, a0 + 1, nd, -1, in, a0 + 1, 2, mo2, 1);                           \
        do { /* the coarse values, exactly */                                              \
            const i64 at = po + r.off[0];                                                  \
            const double *u = v0 + r.off[1];                                               \
            for (i64 i = 0; i < ni; i++)                                                   \
                put_##S(out, at + (in >= 0 ? cpos(L, in, i) : 0) * oi, out_T, u[i * ki]);  \
        } while (rows_next(&r));                                                           \
    }                                                                                      \
}                                                                                          \
                                                                                           \
/* node plane q of c along a0 as contiguous doubles (map MI), of them the                  \
 * columns lo <= i < hi: c's own memory where it is that already, else copied              \
 * into dst, zero at its coarse nodes if asked */                                          \
static const double *plane_##S(const Level *L, const T *c, const Map *Mc, const Map *MI,   \
                               i64 q, int zero, double *dst, i64 lo, i64 hi)               \
{                                                                                          \
    const i64 a0 = L->a0, nd = L->nd, in = inner_axis(L, -1);                              \
    const T *cq = c + place(Mc, a0, q);                                                    \
    int direct = sizeof(T) == sizeof(double) && !zero;                                     \
    for (i64 d = a0 + 1; d < nd; d++)                                                      \
        direct &= Mc->s[d] == MI->s[d] && Mc->e[d] >= L->n[d];                             \
    if (direct)                                                                            \
        return (const double *)(const void *)cq;                                           \
    const Map *m2[2] = {MI, Mc};                                                           \
    const i64 nf = in >= 0 ? L->n[in] : 1, ci = in >= 0 ? Mc->s[in] : 0;                   \
    const i64 ne = in >= 0 && Mc->e[in] < nf ? Mc->e[in] : nf;                             \
    const i64 st = in >= 0 ? L->st[in] : 1, nc = in >= 0 ? L->nc[in] : 1;                  \
    Rows r;                                                                                \
    rows_init(&r, L, a0 + 1, nd, -1, in, nd, 2, m2, 0);                                    \
    rows_at(&r, lo / nf); /* the plane's rows lie nf apart in dst */                       \
    do {                                                                                   \
        const i64 at = r.off[0], i0 = lo > at ? lo - at : 0, i1 = hi - at < nf ? hi - at : nf; \
        double *o = dst + at;                                                              \
        const T *x = cq + r.off[1];                                                        \
        for (i64 i = i0; i < (i1 < ne ? i1 : ne); i++)                                     \
            o[i] = (double)x[i * ci];                                                      \
        for (i64 i = i0 > ne ? i0 : ne; i < i1; i++)                                       \
            o[i] = (double)x[place(Mc, in, i)];                                            \
        if (zero && rows_coarse(&r))                                                       \
            for (i64 i = (i0 + st - 1) / st; i < nc && (in >= 0 ? cpos(L, in, i) : 0) < i1; i++) \
                o[in >= 0 ? cpos(L, in, i) : 0] = 0.0;                                     \
    } while (r.off[0] + nf < hi && rows_next(&r));                                         \
    return dst;                                                                            \
}                                                                                          \
                                                                                           \
/* the correction of level l on the team, dir > 0 (decompose): vn = v[coarse] +            \
 * Q(c), v of type T, the level's shape; dir < 0 (recompose): vn = v - Q(c with            \
 * zeros at the coarse nodes), v of type double, the coarse level's shape.  vn             \
 * has the coarse level's shape.  A is shared, mine this member's share.  Where            \
 * a slab at node 0 is not finite (thomas_solve raises) the walk stops at l; 1             \
 * when the walk is over. */                                                               \
PASS int correct_##S(Team *t, const Level *L, i64 l, i64 dir, const T *c, const Map *Mc,   \
                       const void *v, const Map *Mv, double *vn, const Map *Mvn, double *A, \
                       double *mine)                                                       \
{                                                                                          \
    Split s;                                                                               \
    Map MI, MZ;                                                                            \
    split(L, t->rec[T_SIZE], &s);                                                          \
    plane_map(L, &MI, L->nd);                                                              \
    const i64 a0 = L->a0, nd = L->nd, m0 = L->n[a0], mc0 = L->nc[a0], ne0 = L->ne[a0];     \
    const i64 P = s.P, Pc = plane_map(L, &MZ, a0 + 1), nc = (P + s.C - 1) / s.C;           \
    const i64 nk = (mc0 + s.K - 1) / s.K, in = inner_axis(L, -1), ni = in >= 0 ? L->nc[in] : 1; \
    const i64 vi = in >= 0 ? Mv->s[in] : 0, ni_ = in >= 0 ? Mvn->s[in] : 0;                \
    const i64 zi = in >= 0 ? MZ.s[in] : 0;                                                 \
    const double *bands = L->bands[a0];                                                    \
    const Map *m3[3] = {Mc, Mv, Mvn}, *mr[3] = {Mvn, &MZ, Mv};                             \
    Rows b;                                                                                \
    rows_init(&b, L, 0, a0, -1, -1, nd, 3, m3, 0);                                         \
    /* pass A on columns lo..hi: stencil along a0 and forward sweep into A, back substitution */ \
    ITEMS(t, item, s.nb * nc) {                                                            \
        const i64 lo = item % nc * s.C, hi = lo + s.C < P ? lo + s.C : P;                  \
        double *Ab = A + item / nc * mc0 * P;                                              \
        i64 held[5] = {-1, -1, -1, -1, -1};                                                \
        const double *slot[5] = {0};                                                       \
        rows_at(&b, item / nc);                                                            \
        for (i64 j = 0; j < mc0; j++) {                                                    \
            const i64 p = j < ne0 ? 2 * j : m0 - 1;                                        \
            const double *x[5] = {0};                                                      \
            double w[5];                                                                   \
            for (i64 k = 0; k < 5; k++) { /* fine nodes p-2..p+2, as the stencil reads */  \
                const i64 q = p + k - 2;                                                   \
                const int on = j < ne0 ? (k == 2 || (k < 2 && j >= 1) || (k == 3 && q < m0) \
                                          || (k == 4 && j + 1 < ne0))                      \
                                       : k == 1 || k == 2;                                 \
                if (!on)                                                                   \
                    continue;                                                              \
                if (held[q % 5] != q)                                                      \
                    held[q % 5] = q,                                                       \
                    slot[q % 5] = plane_##S(L, c + b.off[0], Mc, &MI, q, dir < 0 && (q % 2 == 0 \
                                            || q == m0 - 1), mine + (q % 5) * P, lo, hi);  \
                x[k] = slot[q % 5] + lo;                                                   \
            }                                                                              \
            for (i64 k = 0; k < 5; k++)                                                    \
                w[k] = bands[k * mc0 + j];                                                 \
            stencil_forward(Ab + j * P + lo, j ? Ab + (j - 1) * P + lo : 0, hi - lo, x, w, \
                            j ? L->lower[a0][j - 1] : 0.0, L->denom[a0][j]);               \
        }                                                                                  \
        for (i64 j = mc0 - 2; j >= 0; j--) {                                               \
            double *z = Ab + j * P;                                                        \
            const double cj = L->cp[a0][j];                                                \
            for (i64 i = lo; i < hi; i++)                                                  \
                z[i] = z[i] - z[i + P] * cj;                                               \
        }                                                                                  \
        for (i64 i = lo; i < hi; i++)                                                      \
            if (!isfinite(Ab[i]))                                                          \
                __atomic_store_n(t->rec + T_STATUS, l, __ATOMIC_RELAXED);                  \
    }                                                                                      \
    if (next_phase(t))                                                                     \
        return 1;                                                                          \
    /* pass B on coarse a0 nodes j0..j1: the other axes' stencil and solve, restrict-and-add */ \
    ITEMS(t, item, s.nb * nk) {                                                            \
        const i64 j0 = item % nk * s.K, j1 = j0 + s.K < mc0 ? j0 + s.K : mc0;              \
        double *W[2] = {mine, mine + s.K * P};                                             \
        const double *z = A + item / nk * mc0 * P + j0 * P;                                \
        i64 sh[MAXD], e = 0;                                                               \
        int finite = 1;                                                                    \
        rows_at(&b, item / nk);                                                            \
        sh[0] = j1 - j0;                                                                   \
        for (i64 d = a0 + 1; d < nd; d++)                                                  \
            sh[d - a0] = L->n[d];                                                          \
        for (i64 d = a0 + 1; d < nd; d++) {                                                \
            if (L->st[d] == 1)                                                             \
                continue;                                                                  \
            finite &= block_axis(L, d, z, W[e], nd - a0, sh, d - a0);                      \
            z = W[e], e ^= 1;                                                              \
        }                                                                                  \
        if (!finite)                                                                       \
            __atomic_store_n(t->rec + T_STATUS, l, __ATOMIC_RELAXED);                      \
        for (i64 j = j0; j < j1; j++) { /* the restrict-and-add */                         \
            double *vp = vn + b.off[2] + place(Mvn, a0, j);                                \
            const double *zp = z + (j - j0) * Pc;                                          \
            Rows r;                                                                        \
            rows_init(&r, L, a0 + 1, nd, -1, in, a0 + 1, 3, mr, dir > 0 ? 4 : 0);          \
            if (dir > 0) {                                                                 \
                const T *vv = (const T *)v + b.off[1] + place(Mv, a0, cpos(L, a0, j));     \
                do                                                                         \
                    for (i64 i = 0; i < ni; i++)                                           \
                        vp[r.off[0] + i * ni_] = (double)vv[r.off[2]                       \
                            + (in >= 0 ? cpos(L, in, i) : 0) * vi]                         \
                            + zp[r.off[1] + i * zi];                                       \
                while (rows_next(&r));                                                     \
            } else {                                                                       \
                const double *vv = (const double *)v + b.off[1] + place(Mv, a0, j);        \
                do                                                                         \
                    for (i64 i = 0; i < ni; i++)                                           \
                        vp[r.off[0] + i * ni_] = vv[r.off[2] + i * vi]                     \
                                                 - zp[r.off[1] + i * zi];                  \
                while (rows_next(&r));                                                     \
            }                                                                              \
        }                                                                                  \
    }                                                                                      \
    return next_phase(t);                                                                  \
}                                                                                          \
                                                                                           \
/* a level's nodes (shape) between the packed doubles p and a, map Ma: p <- a              \
 * when gather, else a <- p, rounded to T */                                               \
PASS void level_copy_##S(const i64 *shape, i64 nd, double *p, T *a, const Map *Ma,         \
                           int gather)                                                     \
{                                                                                          \
    Level sh = {.nd = nd};                                                                 \
    Map Mp;                                                                                \
    for (i64 d = 0; d < nd; d++)                                                           \
        sh.n[d] = shape[d];                                                                \
    packed(&Mp, shape, nd);                                                                \
    const Map *m2[2] = {&Mp, Ma};                                                          \
    Rows r;                                                                                \
    rows_init(&r, &sh, 0, nd, -1, nd - 1, nd, 2, m2, 0);                                   \
    do                                                                                     \
        for (i64 i = 0; i < shape[nd - 1]; i++) {                                          \
            double *q = p + r.off[0] + i;                                                  \
            T *x = a + r.off[1] + place(Ma, nd - 1, i);                                    \
            if (gather)                                                                    \
                *q = (double)*x;                                                           \
            else                                                                           \
                *x = (T)*q;                                                                \
        }                                                                                  \
    while (rows_next(&r));                                                                 \
}                                                                                          \
                                                                                           \
/* The walks return 0, the level whose correction met a non-finite slab (where             \
 * thomas_solve raises), or -1 for a table, work or team they refuse; every                \
 * member of the team gets the same.  decompose x (strides sx) into the C-order            \
 * out, each level's coefficients where its nodes are — through a double slot,             \
 * rounded once, for float — and level 0's values last; work: 2 slots (3 for               \
 * float), the shared scratch and a share per member. */                                   \
i64 decompose_##S(const i64 *tab, const double *ops, const T *x, const i64 *sx, T *out,    \
                  double *work, i64 len, i64 *team)                                        \
{                                                                                          \
    const i64 nd = tab[0], nl = tab[1], narrow = sizeof(T) != sizeof(double);              \
    i64 slot, shared, share;                                                               \
    Team t = {team, 0, __atomic_fetch_add(team + T_JOINED, 1, __ATOMIC_RELAXED)};          \
    if (walk_sizes(tab, &slot, &shared, &share) < 0 || t.id >= team[T_SIZE]                \
        || len < (2 + narrow) * slot + shared + team[T_SIZE] * share)                      \
        return -1;                                                                         \
    double *s[3] = {work, work + slot, work + 2 * slot}, *A = work + (2 + narrow) * slot;  \
    double *mine = A + shared + t.id * share, *v = 0, *c = narrow ? s[2] : (double *)(void *)out; \
    Map Mo, Mx, Mv, Mc, Mn, Mp;                                                            \
    packed(&Mo, tab + 3, nd);                                                              \
    level_map(&Mx, tab, nl, sx);                                                           \
    for (i64 l = nl; l >= 1; l--) { /* levels were checked by walk_sizes */                \
        const i64 *lv = RECORD(tab, l);                                                    \
        double *vn = s[(nl - l) % 2];                                                      \
        Level L;                                                                           \
        level_init(&L, lv, ops, tab[2]);                                                   \
        level_map(&Mc, tab, l, Mo.s);                                                      \
        packed(&Mn, RECORD(tab, l - 1) + 1, nd);                                           \
        packed(&Mp, lv + 1, nd);                                                           \
        if (l == nl)                                                                       \
            coefficients_##S(&t, &L, x, &Mx, out, &Mc, mine);                              \
        else                                                                               \
            coefficients_f64(&t, &L, v, &Mv, c, narrow ? &Mp : &Mc, mine);                 \
        if (next_phase(&t)                                                                 \
            || (l == nl ? correct_##S(&t, &L, l, 1, out, &Mc, x, &Mx, vn, &Mn, A, mine)    \
                        : correct_f64(&t, &L, l, 1, c, narrow ? &Mp : &Mc, v, &Mv, vn, &Mn, A, \
                                      mine)))                                              \
            return leave(&t);                                                              \
        if (narrow && l < nl) {                                                            \
            ITEMS(&t, i, 1)                                                                \
                level_copy_##S(lv + 1, nd, c, out, &Mc, 0);                                \
            next_phase(&t);                                                                \
        }                                                                                  \
        v = vn, Mv = Mn;                                                                   \
    }                                                                                      \
    level_map(&Mc, tab, 0, Mo.s);                                                          \
    ITEMS(&t, i, 1)                                                                        \
        level_copy_##S(RECORD(tab, 0) + 1, nd, v, out, &Mc, 0);                            \
    next_phase(&t);                                                                        \
    return leave(&t);                                                                      \
}                                                                                          \
                                                                                           \
/* recompose y (strides sy), each level read where its nodes are, into the C-order         \
 * out; work: 2 slots, the shared scratch and a share per member. */                       \
i64 recompose_##S(const i64 *tab, const double *ops, const T *y, const i64 *sy, T *out,    \
                  double *work, i64 len, i64 *team)                                        \
{                                                                                          \
    const i64 nd = tab[0], nl = tab[1];                                                    \
    i64 slot, shared, share;                                                               \
    Team t = {team, 0, __atomic_fetch_add(team + T_JOINED, 1, __ATOMIC_RELAXED)};          \
    if (walk_sizes(tab, &slot, &shared, &share) < 0 || t.id >= team[T_SIZE]                \
        || len < 2 * slot + shared + team[T_SIZE] * share)                                 \
        return -1;                                                                         \
    double *vc = work, *v = work + slot, *A = work + 2 * slot, *mine = A + shared + t.id * share; \
    Map Mc, Mv, Mo;                                                                        \
    level_map(&Mc, tab, 0, sy);                                                            \
    ITEMS(&t, i, 1)                                                                        \
        level_copy_##S(RECORD(tab, 0) + 1, nd, v, (T *)y, &Mc, 1); /* read, never written */ \
    next_phase(&t);                                                                        \
    for (i64 l = 1; l <= nl; l++) {                                                        \
        const i64 *lv = RECORD(tab, l);                                                    \
        Level L;                                                                           \
        level_init(&L, lv, ops, tab[2]);                                                   \
        level_map(&Mc, tab, l, sy);                                                        \
        packed(&Mv, RECORD(tab, l - 1) + 1, nd);                                           \
        if (correct_##S(&t, &L, l, -1, y, &Mc, v, &Mv, vc, &Mv, A, mine))                  \
            return leave(&t);                                                              \
        packed(&Mo, lv + 1, nd);                                                           \
        restore_##S(&t, &L, y, &Mc, vc, &Mv, l == nl ? (void *)out : v, &Mo, l == nl, mine); \
        next_phase(&t);                                                                    \
    }                                                                                      \
    return leave(&t);                                                                      \
}                                                                                          \
                                                                                           \
/* np.round(x * inv).astype(int64); the cast is the platform's, as NumPy's is */           \
void quantize_##S(const T *x, const double *inv, i64 *out, i64 n)                          \
{                                                                                          \
    for (i64 i = 0; i < n; i++)                                                            \
        out[i] = (i64)round_even((double)x[i] * inv[i]);                                   \
}

LEVEL_KERNELS(double, f64)
LEVEL_KERNELS(float, f32)


/* bins.astype(float64) * scale */
void dequantize(const i64 *bins, const double *scale, double *out, i64 n)
{
    for (i64 i = 0; i < n; i++)
        out[i] = (double)bins[i] * scale[i];
}

/* The coefficient class walks.  w is grid.py's TensorHierarchy.class_walk: nd,
 * the level's node counts n[d], per axis its nodes' element offsets, per axis
 * their coarse flags.  The class, every node not coarse on every axis in C order,
 * has prod n[d] - prod (coarse nodes of d) members; a flat side of any other
 * size (cap) is refused unmoved.  s is the flat kernels' factor of the class. */
#define CLASS_WALK(NAME, FIELD, FLAT, MOVE)                                                \
i64 NAME(FIELD *field, FLAT *flat, const i64 *w, i64 cap, double s)                        \
{                                                                                          \
    const i64 nd = w[0], *n = w + 1, *off[MAXD], *flag[MAXD], *p = w + 1 + nd;             \
    i64 idx[MAXD] = {0}, all = 1, coarse = 1, k = 0;                                       \
    if (nd < 1 || nd > MAXD)                                                               \
        return -1;                                                                         \
    for (i64 d = 0; d < nd; p += n[d++])                                                   \
        off[d] = p;                                                                        \
    for (i64 d = 0; d < nd; p += n[d++]) {                                                 \
        i64 c = 0;                                                                         \
        for (i64 i = 0; i < n[d]; i++)                                                     \
            c += p[i] != 0;                                                                \
        flag[d] = p, all *= n[d], coarse *= c;                                             \
    }                                                                                      \
    if (all - coarse != cap)                                                               \
        return all - coarse;                                                               \
    const i64 m = n[nd - 1], *io = off[nd - 1], *ic = flag[nd - 1];                        \
    for (i64 d = 0; d >= 0;) {                                                             \
        i64 base = 0, row_coarse = 1;                                                      \
        for (d = 0; d < nd - 1; d++)                                                       \
            base += off[d][idx[d]], row_coarse &= flag[d][idx[d]] != 0;                    \
        if (row_coarse) /* a row of coarse nodes: its detail nodes only */                 \
            for (i64 i = 0; i < m; i++) {                                                  \
                const i64 o = base + io[i];                                                \
                if (!ic[i])                                                                \
                    MOVE, k++;                                                             \
            }                                                                              \
        else                                                                               \
            for (i64 i = 0; i < m; i++, k++) {                                             \
                const i64 o = base + io[i];                                                \
                MOVE;                                                                      \
            }                                                                              \
        for (d = nd - 2; d >= 0 && ++idx[d] == n[d]; d--) /* the next row, or -1 */        \
            idx[d] = 0;                                                                    \
    }                                                                                      \
    return k;                                                                              \
}

#define CLASS_WALKS(T, S)                                                                  \
CLASS_WALK(gather_##S, const T, T, flat[k] = field[o])                                     \
CLASS_WALK(scatter_##S, double, const T, field[o] = (double)flat[k])                       \
CLASS_WALK(quantize_gather_##S, const T, i64,                                              \
           flat[k] = (i64)round_even((double)field[o] * s))

CLASS_WALKS(double, f64)
CLASS_WALKS(float, f32)
CLASS_WALK(dequantize_scatter_f64, double, const i64, field[o] = (double)flat[k] * s)
CLASS_WALK(dequantize_add_f64, double, const i64, field[o] += (double)flat[k] * s)

/* ---------------------------------------------------------------------
 * The entropy stage (compress/huffman_*.py).  Integer loops only: the
 * results equal the NumPy bodies' because there is nothing to round.
 */

enum { HUFF_OK = 0, HUFF_TRUNCATED = 1, HUFF_NO_MATCH = 2, HUFF_BAD_CHUNK = 3,
       LUT_MISS = 255 /* huffman_unpack._LUT_MISS */ };

/* the 64 stream bits from bit p of MSB-first words; callers hold p < total,
 * so w[wi + 1] is at most the spill word behind the payload's last */
INLINE u64 window(const u64 *w, i64 p)
{
    const i64 wi = p >> 6;
    const unsigned r = (unsigned)(p & 63);
    return r ? (w[wi] << r) | (w[wi + 1] >> (64 - r)) : w[wi];
}

/* The first-code tables of a book, as huffman_unpack._DecodeTables holds them:
 * a window's top K bits index (lut_len, lut_sym); a LUT_MISS slot classifies by
 * the search over the nlens distinct lengths (limits: the left-justified end of
 * each length's code range but the last); a length above 64 is ESCAPE plus the
 * 64 raw bits behind it. */
typedef struct {
    i64 K, nlens, esc_flat;
    const uint8_t *lut_len;
    const i64 *lut_sym, *lens, *base, *flat_syms;
    const u64 *first, *count, *limits;
} Book;

/* Decode the symbol at bit *p of a total-bit payload and advance *p.  The
 * cursor is compared to total before its window is fetched, an escape's raw
 * bits before theirs, so nothing past words[(total - 1) / 64 + 1] is read
 * whatever the payload holds. */
INLINE i64 huff_step(const u64 *words, i64 total, const Book *k, i64 *p, i64 *sym)
{
    if (*p >= total) /* every symbol is at least one bit */
        return HUFF_TRUNCATED;
    const u64 win = window(words, *p);
    i64 L = k->lut_len[win >> (64 - k->K)];
    *sym = k->lut_sym[win >> (64 - k->K)];
    if (L > k->K) {
        if (L == LUT_MISS) {
            i64 li = 0;
            while (li < k->nlens - 1 && k->limits[li] <= win)
                li++;
            L = k->lens[li];
            const u64 rank = (win >> (64 - L)) - k->first[li];
            if (rank >= k->count[li])
                return HUFF_NO_MATCH;
            const i64 flat = k->base[li] + (i64)rank;
            *sym = k->flat_syms[flat];
            if (flat == k->esc_flat)
                L += 64;
        }
        if (L > 64) {
            if (*p + L > total)
                return HUFF_TRUNCATED;
            *sym = (i64)window(words, *p + L - 64); /* two's complement */
        }
    }
    *p += L;
    return *p > total ? HUFF_TRUNCATED : HUFF_OK;
}

/* One cursor per block, walked to completion: pos[b] is block b's first bit on
 * entry and the bit behind its last symbol on return.  Every block holds
 * `block` symbols, the last `rem`; symbols land block-major in out.  A symbol's
 * length is known only once it is classified, so one cursor is one dependency
 * chain: whole blocks advance LANES at a time, one symbol each in turn, which
 * lets the chains overlap in the pipeline. */
enum { LANES = 4 };

i64 huff_decode(const u64 *words, i64 total, i64 *pos, i64 nblocks, i64 block, i64 rem,
                i64 *out, i64 K, const uint8_t *lut_len, const i64 *lut_sym, i64 nlens,
                const i64 *lens, const u64 *first, const u64 *count, const i64 *base,
                const u64 *limits, const i64 *flat_syms, i64 esc_flat)
{
    const Book k = {K, nlens, esc_flat, lut_len, lut_sym, lens, base, flat_syms,
                    first, count, limits};
    i64 b = 0, status;
    for (; b + LANES < nblocks; b += LANES) { /* never the last block: it may be short */
        i64 *p = pos + b, *o = out + b * block;
        for (i64 t = 0; t < block; t++)
            for (int lane = 0; lane < LANES; lane++)
                if ((status = huff_step(words, total, &k, p + lane, o + lane * block + t)))
                    return status;
    }
    for (; b < nblocks; b++) {
        const i64 n = b == nblocks - 1 ? rem : block;
        for (i64 t = 0; t < n; t++)
            if ((status = huff_step(words, total, &k, pos + b, out + b * block + t)))
                return status;
    }
    return HUFF_OK;
}

#if __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
#define BE64(x) __builtin_bswap64(x) /* a word as the payload stores it */
#else
#define BE64(x) (x)
#endif

/* The encode pass's bit writer: words[0..w) are complete, the fill (0..63)
 * bits of word w wait left-justified in acc, nothing goes to words[cap]. */
typedef struct { u64 acc, *words; i64 fill, w, cap; } Bits;

/* append the low len (1..64) bits of code, which has no others set */
INLINE int put(Bits *b, u64 code, i64 len)
{
    const i64 room = 64 - b->fill;
    if (len < room) {
        b->acc |= code << (room - len);
        b->fill += len;
        return 1;
    }
    const i64 rest = len - room; /* 0..63 bits carried into the next word */
    if (b->w >= b->cap)
        return 0;
    b->words[b->w++] = BE64(b->acc | code >> rest);
    b->acc = rest ? code << (64 - rest) : 0;
    b->fill = rest;
    return 1;
}

/* The Huffman encode of n values with a book of nsyms ascending symbols, in two
 * calls; slot nsyms is ESCAPE, where out-of-book values map.  Pass 1 (words ==
 * NULL): each value's slot — lut[value - syms[0]] when a dense table of lut_size
 * entries is given, else a jump-free binary search — into slots, and the slot
 * histogram into the nsyms + 1 zeroed counters of hist.  Pass 2: every slot's
 * code (codes / lens), and behind each ESCAPE the value's 64 raw bits, MSB-first
 * into the total bits of words; the bit offset of every block-th value into
 * sync.  A slot, length or total that does not add up is HUFF_BAD_CHUNK. */
i64 huff_encode(const i64 *values, i64 n, int32_t *slots, const i64 *syms, i64 nsyms,
                const i64 *lut, i64 lut_size, i64 *hist, const u64 *codes, const i64 *lens,
                i64 total, i64 block, u64 *words, i64 *sync)
{
    for (i64 i = 0; !words && i < n; i++) {
        const i64 v = values[i];
        i64 s;
        if (lut) {
            const u64 d = (u64)v - (u64)syms[0]; /* below syms[0] wraps past lut_size */
            if ((u64)(s = d < (u64)lut_size ? lut[d] : nsyms) > (u64)nsyms)
                return HUFF_BAD_CHUNK;
        } else {
            const i64 *p = syms; /* the first symbol >= v */
            for (i64 len = nsyms; len > 1; len -= len / 2)
                p = p[len / 2] < v ? p + len / 2 : p;
            s = (p - syms) + (*p < v);
            s = s < nsyms && syms[s] == v ? s : nsyms;
        }
        slots[i] = (int32_t)s;
        hist[s]++;
    }
    if (!words)
        return HUFF_OK;
    Bits b = {0, words, 0, 0, (total + 63) >> 6};
    for (i64 b0 = 0; b0 < n; b0 += block) {
        if (b0)
            sync[b0 / block - 1] = 64 * b.w + b.fill;
        for (i64 i = b0; i < b0 + block && i < n; i++) {
            const i64 s = slots[i];
            if ((u64)s > (u64)nsyms)
                return HUFF_BAD_CHUNK;
            const i64 len = lens[s];
            if (len < 1 || len > 64 || !put(&b, codes[s], len)
                || (s == nsyms && !put(&b, (u64)values[i], 64)))
                return HUFF_BAD_CHUNK;
        }
    }
    if (b.fill && b.w < b.cap) /* the last, partial word: where total says it is */
        b.words[b.w] = BE64(b.acc);
    return 64 * b.w + b.fill == total ? HUFF_OK : HUFF_BAD_CHUNK;
}

/* Huffman code lengths of n >= 2 ascending leaf weights by the two-queue merge:
 * leaves in one queue, merged nodes (created in non-decreasing weight) in the
 * other, the leaf taken on equal weight.  scratch holds 3n words. */
i64 huff_lengths(const i64 *leaf, i64 n, i64 *depth, i64 *scratch)
{
    i64 *node = scratch, *leaf_parent = scratch + n, *node_parent = scratch + 2 * n;
    i64 i = 0, j = 0;
    for (i64 k = 0; k < n - 1; k++) {
        i64 w = 0;
        for (int pick = 0; pick < 2; pick++) {
            if (i < n && (j == k || leaf[i] <= node[j])) {
                w += leaf[i];
                leaf_parent[i++] = k;
            } else {
                w += node[j];
                node_parent[j++] = k;
            }
        }
        node[k] = w;
    }
    /* the root is the last merged node and parents follow their children, so
     * one reverse pass turns node[] from weights into depths */
    node[n - 2] = 0;
    for (j = n - 3; j >= 0; j--)
        node[j] = node[node_parent[j]] + 1;
    for (i = 0; i < n; i++)
        depth[i] = node[leaf_parent[i]] + 1;
    return HUFF_OK;
}
