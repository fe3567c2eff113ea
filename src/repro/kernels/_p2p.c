/* All-pairs Laplace kernel: two entry points over one row loop.
 *
 * p2p_blocks (behind LaplaceKernel.pairwise): G dense blocks, targets
 * (G,T,3) x sources (G,S,3), strengths (G,S); pot (G,T) and grad (G,T,3)
 * are written (either may be NULL).
 *
 * p2p_tiles (behind LaplaceKernel.near_tiles): the near-field plan read in
 * place - for every group of the listed tiles the sources
 * points[src_idx] are staged straight from the body arrays (strength 0 on
 * the padded slots past src_cnt) and every target t of the group gets
 * pot[t] = pot_scale * p and grad[t] = grad_scale * g.  The caller has
 * checked every index against the bodies and the outputs.
 *
 * A group's sources are staged once as SoA in a 64-byte-aligned buffer;
 * each target row is one simd reduction over the sources in order
 * (p2p_row, the one arithmetic body), so a row's bits depend on S and the
 * data only - never on G, T, the row's place in the batch or which entry
 * point ran it.  The loop says the buffer is aligned: the compiler has no
 * reason to peel a data-dependent prologue off the reduction.
 *
 * Zero rules (the NumPy body's): a pair whose 1/sqrt(r2 + eps2) is not
 * finite (coincident unsoftened bodies, a NaN coordinate) has weight
 * exactly 0; skip_diagonal gives pair (i, i) weight 0 as well.  The
 * gradient still multiplies that 0 by the separation, so a NaN coordinate
 * reaches it as NaN - which the solver's guardrail keys on.
 */
#include <float.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

/* out = (potential, gradient x, y, z) of target t against S staged sources */
static inline void p2p_row(long S, const double *sx, const double *sy,
                           const double *sz, const double *sq,
                           const double *t, double eps2, long skip,
                           double out[4])
{
    double tx = t[0], ty = t[1], tz = t[2];
    double p = 0.0, gx = 0.0, gy = 0.0, gz = 0.0;
#pragma omp simd reduction(+ : p, gx, gy, gz) aligned(sx, sy, sz, sq : 64)
    for (long j = 0; j < S; j++) {
        /* d = s - t: the sign that makes sum(w * d) the gradient */
        double dx = sx[j] - tx, dy = sy[j] - ty, dz = sz[j] - tz;
        double inv = 1.0 / sqrt(dx * dx + dy * dy + dz * dz + eps2);
        inv = (inv <= DBL_MAX && j != skip) ? inv : 0.0;
        p += inv * sq[j];
        double w = inv * inv * inv * sq[j];
        gx += w * dx;
        gy += w * dy;
        gz += w * dz;
    }
    out[0] = p, out[1] = gx, out[2] = gy, out[3] = gz;
}

int p2p_blocks(long G, long T, long S, const double *t, const double *s,
               const double *q, double eps2, int skip_diagonal,
               double *pot, double *grad)
{
    long pad = (S + 7) & ~7L; /* keeps the four arrays 64-byte aligned */
    double *sx, r[4];
    if (G <= 0 || T <= 0 || S <= 0)
        return 0; /* the caller's outputs are already zero */
    if (!(sx = aligned_alloc(64, 4 * pad * sizeof(double))))
        return -1;
    double *sy = sx + pad, *sz = sy + pad, *sq = sz + pad;
    for (long g = 0; g < G; g++, t += 3 * T, s += 3 * S, q += S) {
        for (long j = 0; j < S; j++) {
            sx[j] = s[3 * j];
            sy[j] = s[3 * j + 1];
            sz[j] = s[3 * j + 2];
            sq[j] = q[j];
        }
        for (long i = 0; i < T; i++) {
            p2p_row(S, sx, sy, sz, sq, t + 3 * i, eps2, skip_diagonal ? i : -1, r);
            if (pot)
                pot[g * T + i] = r[0];
            if (grad) {
                double *o = grad + 3 * (g * T + i);
                o[0] = r[1], o[1] = r[2], o[2] = r[3];
            }
        }
    }
    free(sx);
    return 0;
}

int p2p_tiles(long n_tiles, const int64_t *tiles, const int64_t *tile_ptr,
              const int64_t *tgt_idx, const int64_t *tgt_ptr,
              const int64_t *src_idx, const int64_t *src_ptr,
              const int64_t *src_cnt, const double *pts, const double *q,
              double eps2, double pot_scale, double grad_scale, double *pot,
              double *grad)
{
    long pad = 0;
    double *sx, r[4];
    for (long k = 0; k < n_tiles; k++)
        for (int64_t g = tile_ptr[tiles[k]]; g < tile_ptr[tiles[k] + 1]; g++)
            if (src_ptr[g + 1] - src_ptr[g] > pad)
                pad = src_ptr[g + 1] - src_ptr[g];
    if (pad == 0)
        return 0; /* no sources: nothing is written, as by the dense seam */
    pad = (pad + 7) & ~7L;
    if (!(sx = aligned_alloc(64, 4 * pad * sizeof(double))))
        return -1;
    double *sy = sx + pad, *sz = sy + pad, *sq = sz + pad;
    for (long k = 0; k < n_tiles; k++) {
        for (int64_t g = tile_ptr[tiles[k]]; g < tile_ptr[tiles[k] + 1]; g++) {
            const int64_t *si = src_idx + src_ptr[g];
            long S = src_ptr[g + 1] - src_ptr[g];
            if (S == 0)
                continue;
            for (long j = 0; j < S; j++) {
                const double *b = pts + 3 * si[j];
                sx[j] = b[0];
                sy[j] = b[1];
                sz[j] = b[2];
                sq[j] = j < src_cnt[g] ? q[si[j]] : 0.0;
            }
            for (int64_t i = tgt_ptr[g]; i < tgt_ptr[g + 1]; i++) {
                int64_t t = tgt_idx[i];
                p2p_row(S, sx, sy, sz, sq, pts + 3 * t, eps2, -1, r);
                if (pot)
                    pot[t] = pot_scale * r[0];
                if (grad) {
                    double *o = grad + 3 * t;
                    o[0] = grad_scale * r[1];
                    o[1] = grad_scale * r[2];
                    o[2] = grad_scale * r[3];
                }
            }
        }
    }
    free(sx);
    return 0;
}
