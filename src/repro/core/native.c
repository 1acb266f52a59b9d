/* The refactoring leaf loops, the coefficient class walks, and the entropy
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
 * Operands are strided views described by one int64 array `g`:
 *
 *   g[0] nouter   g[1] m (nodes along the axis)   g[2] ninner
 *   g[3] a's stride along the axis   g[4] a's inner stride
 *   g[5] b's stride along the axis   g[6] b's inner stride
 *   g[7...] shape[nouter], a's outer strides[nouter], b's outer strides[nouter]
 *
 * Strides are in elements.  `a` is the first array argument and `b` the
 * second; Python validates shapes, dtypes and alignment before it passes a
 * pointer.  The batch index (inner) is the fastest loop, the axis loop is
 * outside it, and the batch is walked in blocks so that one block of every
 * node along the axis stays in cache between the solver's two sweeps.
 *
 * No OpenMP: libgomp's thread pool does not survive the fork() the process
 * executor uses, and ctypes drops the GIL, so the thread executor supplies
 * the parallelism.
 */
#include <stdint.h>

typedef int64_t i64;
typedef uint64_t u64;

enum { MAXD = 16, BLOCK = 128 };

typedef struct {
    i64 n, shape[MAXD], sa[MAXD], sb[MAXD], idx[MAXD];
    i64 a, b; /* element offsets of the current outer index */
} Odometer;

static void odo_init(Odometer *o, const i64 *g)
{
    o->n = g[0];
    o->a = o->b = 0;
    for (i64 d = 0; d < o->n; d++) {
        o->shape[d] = g[7 + d];
        o->sa[d] = g[7 + o->n + d];
        o->sb[d] = g[7 + 2 * o->n + d];
        o->idx[d] = 0;
    }
}

static int odo_next(Odometer *o)
{
    for (i64 d = o->n - 1; d >= 0; d--) {
        o->a += o->sa[d];
        o->b += o->sb[d];
        if (++o->idx[d] < o->shape[d])
            return 1;
        o->a -= o->sa[d] * o->shape[d];
        o->b -= o->sb[d] * o->shape[d];
        o->idx[d] = 0;
    }
    return 0;
}

#define INLINE static inline __attribute__((always_inline))
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

#define KERNELS(T, S)                                                                      \
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
void fill_##S(T *a, const i64 *g, const double *wl, const double *wr)                      \
{                                                                                          \
    const i64 nd = g[1], n = g[2], sm = g[3], si = g[4];                                   \
    Odometer o;                                                                            \
    odo_init(&o, g);                                                                       \
    do {                                                                                   \
        BLOCKS(j0, jn, n) {                                                                \
            T *p = a + o.a + j0 * si;                                                      \
            if (si == 1)                                                                   \
                fill_rows_##S(p, nd, jn, sm, 1, wl, wr);                                   \
            else                                                                           \
                fill_rows_##S(p, nd, jn, sm, si, wl, wr);                                  \
        }                                                                                  \
    } while (odo_next(&o));                                                                \
}                                                                                          \
                                                                                           \
/* coarse node j at fine position p = 2j:                                                  \
 * b2*f[p] + b1*f[p-1] + b3*f[p+1] + b0*f[p-2] + b4*f[p+2], in that order, a               \
 * term dropped (not multiplied by zero) where its position is off the grid;               \
 * the tail node of an even-length level is b2*f[m-1] + b1*f[m-2] */                       \
INLINE void mass_transfer_rows_##S(const T *restrict f, double *restrict out, i64 m,       \
                                   i64 mc, i64 n, i64 fm, i64 fi, i64 om, i64 oi,          \
                                   const double *bands)                                    \
{                                                                                          \
    const i64 n_even = (m + 1) / 2;                                                        \
    const double *b0 = bands, *b1 = bands + mc, *b2 = bands + 2 * mc, *b3 = bands + 3 * mc,\
                 *b4 = bands + 4 * mc;                                                     \
    for (i64 c = 0; c < n_even; c++) {                                                     \
        const T *p = f + 2 * c * fm;                                                       \
        double *q = out + c * om;                                                          \
        const int left = c >= 1, right = 2 * c + 1 < m, right2 = c + 1 < n_even;           \
        const double w0 = b0[c], w1 = b1[c], w2 = b2[c], w3 = b3[c], w4 = b4[c];           \
        if (left && right2) { /* every row but the first and last: no branch inside */     \
            for (i64 j = 0; j < n; j++) {                                                  \
                const T *x = p + j * fi;                                                   \
                double acc = w2 * (double)x[0];                                            \
                acc = acc + w1 * (double)x[-fm];                                           \
                acc = acc + w3 * (double)x[fm];                                            \
                acc = acc + w0 * (double)x[-2 * fm];                                       \
                acc = acc + w4 * (double)x[2 * fm];                                        \
                q[j * oi] = acc;                                                           \
            }                                                                              \
            continue;                                                                      \
        }                                                                                  \
        for (i64 j = 0; j < n; j++) {                                                      \
            const T *x = p + j * fi;                                                       \
            double acc = w2 * (double)x[0];                                                \
            if (left) acc = acc + w1 * (double)x[-fm];                                     \
            if (right) acc = acc + w3 * (double)x[fm];                                     \
            if (left) acc = acc + w0 * (double)x[-2 * fm];                                 \
            if (right2) acc = acc + w4 * (double)x[2 * fm];                                \
            q[j * oi] = acc;                                                               \
        }                                                                                  \
    }                                                                                      \
    if (m % 2 == 0) {                                                                      \
        const T *p = f + (m - 1) * fm;                                                     \
        double *q = out + n_even * om;                                                     \
        const double w2 = b2[mc - 1], w1 = b1[mc - 1];                                     \
        for (i64 j = 0; j < n; j++)                                                        \
            q[j * oi] = w2 * (double)p[j * fi] + w1 * (double)p[j * fi - fm];              \
    }                                                                                      \
}                                                                                          \
                                                                                           \
void mass_transfer_##S(const T *a, double *b, const i64 *g, i64 mc, const double *bands)   \
{                                                                                          \
    const i64 m = g[1], n = g[2], fm = g[3], fi = g[4], om = g[5], oi = g[6];              \
    Odometer o;                                                                            \
    odo_init(&o, g);                                                                       \
    do {                                                                                   \
        BLOCKS(j0, jn, n) {                                                                \
            const T *f = a + o.a + j0 * fi;                                                \
            double *out = b + o.b + j0 * oi;                                               \
            if (fi == 1 && oi == 1)                                                        \
                mass_transfer_rows_##S(f, out, m, mc, jn, fm, 1, om, 1, bands);            \
            else                                                                           \
                mass_transfer_rows_##S(f, out, m, mc, jn, fm, fi, om, oi, bands);          \
        }                                                                                  \
    } while (odo_next(&o));                                                                \
}                                                                                          \
                                                                                           \
/* Thomas forward elimination and back substitution with given factors */                 \
INLINE void thomas_rows_##S(const T *restrict f, double *restrict z, i64 m, i64 n, i64 fm, \
                            i64 fi, i64 zm, i64 zi, const double *lower, const double *cp, \
                            const double *denom)                                           \
{                                                                                          \
    for (i64 j = 0; j < n; j++)                                                            \
        z[j * zi] = (double)f[j * fi] / denom[0];                                          \
    for (i64 i = 1; i < m; i++) {                                                          \
        const T *fr = f + i * fm;                                                          \
        double *cur = z + i * zm;                                                          \
        const double *prev = cur - zm;                                                     \
        const double lo = lower[i - 1], de = denom[i];                                     \
        for (i64 j = 0; j < n; j++)                                                        \
            cur[j * zi] = ((double)fr[j * fi] - prev[j * zi] * lo) / de;                   \
    }                                                                                      \
    for (i64 i = m - 2; i >= 0; i--) {                                                     \
        double *cur = z + i * zm;                                                          \
        const double *prev = cur + zm;                                                     \
        const double c = cp[i];                                                            \
        for (i64 j = 0; j < n; j++)                                                        \
            cur[j * zi] = cur[j * zi] - prev[j * zi] * c;                                  \
    }                                                                                      \
}                                                                                          \
                                                                                           \
void thomas_##S(const T *a, double *b, const i64 *g, const double *lower, const double *cp,\
                const double *denom)                                                       \
{                                                                                          \
    const i64 m = g[1], n = g[2], fm = g[3], fi = g[4], zm = g[5], zi = g[6];              \
    Odometer o;                                                                            \
    odo_init(&o, g);                                                                       \
    do {                                                                                   \
        BLOCKS(j0, jn, n) {                                                                \
            const T *f = a + o.a + j0 * fi;                                                \
            double *z = b + o.b + j0 * zi;                                                 \
            if (fi == 1 && zi == 1)                                                        \
                thomas_rows_##S(f, z, m, jn, fm, 1, zm, 1, lower, cp, denom);              \
            else                                                                           \
                thomas_rows_##S(f, z, m, jn, fm, fi, zm, zi, lower, cp, denom);            \
        }                                                                                  \
    } while (odo_next(&o));                                                                \
}                                                                                          \
                                                                                           \
/* np.round(x * inv).astype(int64); the cast is the platform's, as NumPy's is */           \
void quantize_##S(const T *x, const double *inv, i64 *out, i64 n)                          \
{                                                                                          \
    for (i64 i = 0; i < n; i++)                                                            \
        out[i] = (i64)round_even((double)x[i] * inv[i]);                                   \
}

KERNELS(double, f64)
KERNELS(float, f32)

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
