/* The compiled library: the near field's all-pairs rows (the Laplace row
 * behind two entry points, the regularized Stokeslet row behind one) and,
 * at the end of the file, the far field's leaf stages (leaf_p2m, leaf_l2p,
 * add_rows).
 *
 * p2p_block (behind LaplaceKernel.pairwise): one dense block, targets (T,3)
 * x sources (S,3), strengths (S); pot (T) and grad (T,3) are written
 * (either may be NULL).
 *
 * p2p_tiles (behind LaplaceKernel.near_tiles) and stokeslet_tiles (behind
 * RegularizedStokesletKernel.near_tiles): the near-field plan read in
 * place - for every group g of the listed tiles the sources are its leaf
 * runs, points[order[p]] for every p in src_lo[r]..src_hi[r] of each run r
 * in run_ptr[g]..run_ptr[g+1] (src_cnt[g] bodies in all), staged straight
 * from the body arrays by one routine (near_tiles), and every target t of
 * the group gets its row scaled: pot[t] = pot_scale * p and grad[t] =
 * grad_scale * g for Laplace strengths q (n); for Stokeslet forces q (n,3)
 * the velocity u is both outputs, pot[t] = pot_scale * u and grad[t] =
 * grad_scale * u (rows of three; the caller passes 1/(8 pi mu) twice).
 * The caller has checked every index against the bodies and the outputs,
 * and src_cnt against the runs (the staging buffer is sized from it).
 *
 * A group's sources are staged once as SoA in a 64-byte-aligned buffer;
 * each target row is one reduction over the sources in LANES fixed lanes
 * (p2p_row, stokeslet_row): source j goes into lane j % LANES in order,
 * and the lanes are combined in one tree spelled in the source.  So a
 * row's bits depend on its sources only - never on T, the row's place in
 * the group, which entry point ran it, the vector width or which clone of
 * the entry point the loader picked - and zero-strength padding adds exact
 * zeros to lanes that stay in place, so a padded row is bitwise its
 * unpadded row.
 *
 * Laplace zero rules (the NumPy body's): a pair whose 1/sqrt(r2 + eps2) is
 * not finite (coincident unsoftened bodies, a NaN coordinate) has weight
 * exactly 0; skip_diagonal gives pair (i, i) weight 0 as well.  Both are a
 * select, not a branch (built -fno-trapping-math, so the vectorizer may
 * if-convert the compare).  The gradient still multiplies that 0 by the
 * separation, so a NaN coordinate reaches it as NaN - which the solver's
 * guardrail keys on.  The Stokeslet has none: eps > 0 keeps every pair
 * finite, its own pair included (the solver subtracts that in bulk).
 *
 * On x86-64 the three entry points are built twice, for AVX2 and for the
 * baseline ISA, and the dynamic loader picks one per host (p2p_isa says
 * which); -ffp-contract=off keeps either from fusing a multiply-add, so
 * both give the same bits.  P2P_NO_CLONES builds the baseline body alone.
 */
#include <float.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__)) && !defined(P2P_NO_CLONES)
#define P2P_CLONES __attribute__((target_clones("avx2", "default")))
#define P2P_AVX2 (__builtin_cpu_init(), __builtin_cpu_supports("avx2"))
#else
#define P2P_CLONES
#define P2P_AVX2 0
#endif

#define LANES 8
#define INLINE static inline __attribute__((always_inline))

/* "avx2" or "baseline": the clone of the entry points this host runs */
const char *p2p_isa(void)
{
    return P2P_AVX2 ? "avx2" : "baseline";
}

/* the one combine tree of a row's LANES partial sums */
INLINE double lanes_sum(const double a[LANES])
{
    return ((a[0] + a[1]) + (a[2] + a[3])) + ((a[4] + a[5]) + (a[6] + a[7]));
}

/* source j's Laplace terms, added to lane k of the four sums */
INLINE void
p2p_pair(long j, int k, const double *sx, const double *sy, const double *sz,
         const double *sq, const double *t, double eps2, long skip,
         double acc[4][LANES])
{
    /* d = s - t: the sign that makes sum(w * d) the gradient */
    double dx = sx[j] - t[0], dy = sy[j] - t[1], dz = sz[j] - t[2];
    double inv = 1.0 / sqrt(dx * dx + dy * dy + dz * dz + eps2);
    inv = (inv <= DBL_MAX) & (j != skip) ? inv : 0.0;
    double w = inv * inv * inv * sq[j];
    acc[0][k] += inv * sq[j];
    acc[1][k] += w * dx;
    acc[2][k] += w * dy;
    acc[3][k] += w * dz;
}

/* out = (potential, gradient x, y, z) of target t against S staged sources */
INLINE void
p2p_row(long S, const double *sx, const double *sy, const double *sz,
        const double *sq, const double *t, double eps2, long skip,
        double out[4])
{
    double acc[4][LANES] = {{0.0}};
    long j = 0;
    for (; j + LANES <= S; j += LANES)
        for (int k = 0; k < LANES; k++)
            p2p_pair(j + k, k, sx, sy, sz, sq, t, eps2, skip, acc);
    for (int k = 0; j + k < S; k++)
        p2p_pair(j + k, k, sx, sy, sz, sq, t, eps2, skip, acc);
    for (int c = 0; c < 4; c++)
        out[c] = lanes_sum(acc[c]);
}

/* source j's regularized Stokeslet terms, added to lane k of the three
 * velocity sums: h = r2 + eps2, h2 = h^-3/2 (the coefficient of
 * (f.d) d), h1 = (h + eps2) h2 (the coefficient of f) */
INLINE void
stokeslet_pair(long j, int k, const double *sx, const double *sy, const double *sz,
               const double *fx, const double *fy, const double *fz,
               const double *t, double eps2, double acc[3][LANES])
{
    /* (f.d) d is even in d: d = s - t serves as is */
    double dx = sx[j] - t[0], dy = sy[j] - t[1], dz = sz[j] - t[2];
    double h = dx * dx + dy * dy + dz * dz + eps2;
    double h2 = 1.0 / (sqrt(h) * h);
    double h1 = (h + eps2) * h2;
    double fd = (fx[j] * dx + fy[j] * dy + fz[j] * dz) * h2;
    acc[0][k] += h1 * fx[j] + fd * dx;
    acc[1][k] += h1 * fy[j] + fd * dy;
    acc[2][k] += h1 * fz[j] + fd * dz;
}

/* out = the unscaled velocity (x, y, z) at target t of S staged forces */
INLINE void
stokeslet_row(long S, const double *sx, const double *sy, const double *sz,
              const double *fx, const double *fy, const double *fz,
              const double *t, double eps2, double out[3])
{
    double acc[3][LANES] = {{0.0}};
    long j = 0;
    for (; j + LANES <= S; j += LANES)
        for (int k = 0; k < LANES; k++)
            stokeslet_pair(j + k, k, sx, sy, sz, fx, fy, fz, t, eps2, acc);
    for (int k = 0; j + k < S; k++)
        stokeslet_pair(j + k, k, sx, sy, sz, fx, fy, fz, t, eps2, acc);
    for (int c = 0; c < 3; c++)
        out[c] = lanes_sum(acc[c]);
}

P2P_CLONES
int p2p_block(long T, long S, const double *t, const double *s, const double *q,
              double eps2, int skip_diagonal, double *pot, double *grad)
{
    long pad = (S + 7) & ~7L; /* keeps the four arrays 64-byte aligned */
    double *sx, r[4];
    if (T <= 0 || S <= 0)
        return 0; /* the caller's outputs are already zero */
    if (!(sx = aligned_alloc(64, 4 * pad * sizeof(double))))
        return -1;
    double *sy = sx + pad, *sz = sy + pad, *sq = sz + pad;
    for (long j = 0; j < S; j++) {
        sx[j] = s[3 * j];
        sy[j] = s[3 * j + 1];
        sz[j] = s[3 * j + 2];
        sq[j] = q[j];
    }
    for (long i = 0; i < T; i++) {
        p2p_row(S, sx, sy, sz, sq, t + 3 * i, eps2, skip_diagonal ? i : -1, r);
        if (pot)
            pot[i] = r[0];
        if (grad) {
            double *o = grad + 3 * i;
            o[0] = r[1], o[1] = r[2], o[2] = r[3];
        }
    }
    free(sx);
    return 0;
}

/* The tile walk of both plan entry points: nq = 1 (Laplace strengths) or
 * 3 (Stokeslet forces), a constant at each call, so each entry point gets
 * its own loop with no branch on the kind inside it.  The group's sources
 * go to 3 + nq SoA columns: x, y, z, then the strength components. */
INLINE int
near_tiles(int nq, long n_tiles, const int64_t *tiles, const int64_t *tile_ptr,
           const int64_t *tgt_idx, const int64_t *tgt_ptr, const int64_t *order,
           const int64_t *src_lo, const int64_t *src_hi, const int64_t *run_ptr,
           const int64_t *src_cnt, const double *pts, const double *q, double eps2,
           double pot_scale, double grad_scale, double *pot, double *grad)
{
    long pad = 0;
    double *c[6], r[4];
    for (long k = 0; k < n_tiles; k++)
        for (int64_t g = tile_ptr[tiles[k]]; g < tile_ptr[tiles[k] + 1]; g++)
            if (src_cnt[g] > pad)
                pad = src_cnt[g];
    if (pad == 0)
        return 0; /* no sources: nothing is written */
    pad = (pad + 7) & ~7L;
    if (!(c[0] = aligned_alloc(64, (3 + nq) * pad * sizeof(double))))
        return -1;
    for (int i = 1; i < 3 + nq; i++)
        c[i] = c[i - 1] + pad;
    for (long k = 0; k < n_tiles; k++) {
        for (int64_t g = tile_ptr[tiles[k]]; g < tile_ptr[tiles[k] + 1]; g++) {
            long S = 0;
            if (src_cnt[g] == 0)
                continue;
            for (int64_t run = run_ptr[g]; run < run_ptr[g + 1]; run++)
                for (int64_t p = src_lo[run]; p < src_hi[run]; p++, S++) {
                    const double *b = pts + 3 * order[p], *f = q + nq * order[p];
                    c[0][S] = b[0];
                    c[1][S] = b[1];
                    c[2][S] = b[2];
                    for (int i = 0; i < nq; i++)
                        c[3 + i][S] = f[i];
                }
            for (int64_t i = tgt_ptr[g]; i < tgt_ptr[g + 1]; i++) {
                int64_t t = tgt_idx[i];
                if (nq == 1) {
                    p2p_row(S, c[0], c[1], c[2], c[3], pts + 3 * t, eps2, -1, r);
                    if (pot)
                        pot[t] = pot_scale * r[0];
                    for (int a = 0; grad && a < 3; a++)
                        grad[3 * t + a] = grad_scale * r[1 + a];
                } else {
                    stokeslet_row(S, c[0], c[1], c[2], c[3], c[4], c[5], pts + 3 * t, eps2, r);
                    for (int a = 0; pot && a < 3; a++)
                        pot[3 * t + a] = pot_scale * r[a];
                    for (int a = 0; grad && a < 3; a++)
                        grad[3 * t + a] = grad_scale * r[a];
                }
            }
        }
    }
    free(c[0]);
    return 0;
}

P2P_CLONES
int p2p_tiles(long n_tiles, const int64_t *tiles, const int64_t *tile_ptr,
              const int64_t *tgt_idx, const int64_t *tgt_ptr,
              const int64_t *order, const int64_t *src_lo, const int64_t *src_hi,
              const int64_t *run_ptr, const int64_t *src_cnt, const double *pts,
              const double *q, double eps2, double pot_scale, double grad_scale,
              double *pot, double *grad)
{
    return near_tiles(1, n_tiles, tiles, tile_ptr, tgt_idx, tgt_ptr, order, src_lo, src_hi,
                      run_ptr, src_cnt, pts, q, eps2, pot_scale, grad_scale, pot, grad);
}

P2P_CLONES
int stokeslet_tiles(long n_tiles, const int64_t *tiles, const int64_t *tile_ptr,
                    const int64_t *tgt_idx, const int64_t *tgt_ptr,
                    const int64_t *order, const int64_t *src_lo, const int64_t *src_hi,
                    const int64_t *run_ptr, const int64_t *src_cnt, const double *pts,
                    const double *f, double eps2, double pot_scale, double grad_scale,
                    double *pot, double *grad)
{
    return near_tiles(3, n_tiles, tiles, tile_ptr, tgt_idx, tgt_ptr, order, src_lo, src_hi,
                      run_ptr, src_cnt, pts, f, eps2, pot_scale, grad_scale, pot, grad);
}

/* ---------------------------------------------------------------------
 * The far field's leaf stages (behind repro.fmm.farfield's p2m, l2p and
 * add_rows).  Each reproduces the summation order of the NumPy body it
 * replaces, so both give the same bits:
 *
 * Rows carry nq charge channels side by side: q is (n, nq), the
 * coefficient rows are nq * nc wide (channel c at column c * nc), pot is
 * (n, nq) and grad (n, nq, 3).  Each channel is summed exactly as a lone
 * channel is, so nq = 1 is the single-channel layout and its bits.
 *
 * leaf_p2m: out[rows[g], c * nc + j] = sum over leaf g's bodies i of
 * q[body_idx[i], c] * basis[i, j] * sign[j], in np.add.reduceat's order -
 * the leaf's first term, plus NumPy's pairwise sum of the rest
 * (pairwise_sum).  An empty leaf's row is zeroed.
 *
 * leaf_l2p: per body and channel, a sequential sum over the coefficients
 * starting from 0.0 - einsum("ij,ikj->ik")'s order over the column-major
 * basis - of basis[i, j] * coef[j], for the potential (coef = channel c of
 * L[rows[g]], out pot[:, c]) and each wanted gradient axis k (coef =
 * channel c of Gk[ids[g]], out grad[:, c, k]), in one pass over the basis
 * per channel, body by body in plan order.
 *
 * add_rows: dst[idx[r]] += src[r], rows of width w.
 *
 * The basis is (m, nc) column-major; the caller has checked every index.
 */

/* NumPy's pairwise sum of a[i] * b[i], i < n (n >= 1): sequential below 8
 * terms from -0.0 (which keeps the first term's bits), 8 accumulators up
 * to 128, halves (cut at a multiple of 8) above. */
static double pairwise_sum(const double *a, const double *b, long n)
{
    if (n < 8) {
        double res = -0.0;
        for (long i = 0; i < n; i++)
            res += a[i] * b[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        long i;
        for (int k = 0; k < 8; k++)
            r[k] = a[k] * b[k];
        for (i = 8; i < n - (n % 8); i += 8)
            for (int k = 0; k < 8; k++)
                r[k] += a[i + k] * b[i + k];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i] * b[i];
        return res;
    }
    long n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, b, n2) + pairwise_sum(a + n2, b + n2, n - n2);
}

int leaf_p2m(long n_leaves, const int64_t *ptr, const int64_t *body_idx,
             const int64_t *rows, long m, long nc, long nq, const double *basis,
             const double *sign, const double *q, double *out)
{
    long most = 1;
    for (long g = 0; g < n_leaves; g++)
        if (ptr[g + 1] - ptr[g] > most)
            most = ptr[g + 1] - ptr[g];
    /* the leaf's strengths, once as they are and once negated: times a
     * column's sign of +-1, which is exact */
    double *qs = malloc(2 * most * sizeof(double));
    if (!qs)
        return -1;
    for (long g = 0; g < n_leaves; g++) {
        long lo = ptr[g], n = ptr[g + 1] - lo;
        for (long c = 0; c < nq; c++) {
            double *o = out + (rows[g] * nq + c) * nc;
            for (long i = 0; i < n; i++) {
                qs[i] = q[body_idx[lo + i] * nq + c];
                qs[most + i] = -qs[i];
            }
            for (long j = 0; j < nc; j++) {
                const double *b = basis + j * m + lo, *a = sign[j] < 0 ? qs + most : qs;
                o[j] = n == 0 ? 0.0 : n == 1 ? a[0] * b[0] : a[0] * b[0] + pairwise_sum(a + 1, b + 1, n - 1);
            }
        }
    }
    free(qs);
    return 0;
}

/* all m bodies, in plan order across leaf boundaries, against nk packed
 * outputs: one body's sums at a time over the column-major basis (nk is a
 * constant at each call, so the output loops unroll and the sums stay in
 * registers; a leaf of a few bodies costs no short inner loop).  Table
 * rows are ld apart. */
static inline __attribute__((always_inline)) void
l2p_bodies(int nk, const int64_t *ptr, const int64_t *body_idx, long m, long nc, long ld,
           const double *basis, const double *const *tab,
           const int64_t *const *row_of, double *const *out, const long *stride)
{
    long g = 0;
    for (long r = 0; r < m; r++) {
        while (ptr[g + 1] <= r)
            g++; /* the leaf of body row r (empty leaves skipped) */
        const double *c[4];
        double acc[4];
        for (int k = 0; k < nk; k++)
            c[k] = tab[k] + row_of[k][g] * ld, acc[k] = 0.0;
        for (long j = 0; j < nc; j++) {
            double b = basis[j * m + r];
            for (int k = 0; k < nk; k++)
                acc[k] += b * c[k][j];
        }
        for (int k = 0; k < nk; k++)
            out[k][stride[k] * body_idx[r]] = acc[k];
    }
}

void leaf_l2p(const int64_t *ptr, const int64_t *body_idx, long m, long nc, long nq,
              const double *basis, const int64_t *rows, const double *L,
              double *pot, const int64_t *ids, const double *G0, const double *G1,
              const double *G2, double *grad)
{
    const double *gk[3] = {G0, G1, G2};
    long ld = nq * nc;
    for (long c = 0; c < nq; c++) {
        /* channel c's wanted outputs, packed: table, row of each leaf,
         * output, stride */
        const double *tab[4];
        const int64_t *row_of[4];
        double *out[4];
        long stride[4];
        int nk = 0;
        if (pot)
            tab[nk] = L + c * nc, row_of[nk] = rows, out[nk] = pot + c, stride[nk++] = nq;
        for (int k = 0; grad && k < 3; k++)
            if (gk[k])
                tab[nk] = gk[k] + c * nc, row_of[nk] = ids, out[nk] = grad + 3 * c + k,
                stride[nk++] = 3 * nq;
        switch (nk) {
        case 1: l2p_bodies(1, ptr, body_idx, m, nc, ld, basis, tab, row_of, out, stride); break;
        case 2: l2p_bodies(2, ptr, body_idx, m, nc, ld, basis, tab, row_of, out, stride); break;
        case 3: l2p_bodies(3, ptr, body_idx, m, nc, ld, basis, tab, row_of, out, stride); break;
        case 4: l2p_bodies(4, ptr, body_idx, m, nc, ld, basis, tab, row_of, out, stride); break;
        }
    }
}

void add_rows(long k, long w, const int64_t *idx, const double *src, double *dst)
{
    for (long r = 0; r < k; r++) {
        double *d = dst + idx[r] * w;
        const double *s = src + r * w;
        for (long j = 0; j < w; j++)
            d[j] += s[j];
    }
}
