/* All-pairs Laplace block kernel behind LaplaceKernel.pairwise.
 *
 * G dense blocks, targets (G,T,3) x sources (G,S,3), strengths (G,S); pot
 * (G,T) and grad (G,T,3) are written (either may be NULL).  A block's
 * sources are staged once as SoA; each target row is one simd reduction
 * over the sources in order, so a row's bits depend on S and the data
 * only - never on G, T or the row's place in the batch.  The staging
 * buffer is 64-byte aligned and the loop says so: the compiler has no
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
#include <stdlib.h>

int p2p_blocks(long G, long T, long S, const double *t, const double *s,
               const double *q, double eps2, int skip_diagonal,
               double *pot, double *grad)
{
    long pad = (S + 7) & ~7L; /* keeps the four arrays 64-byte aligned */
    double *sx;
    if (G <= 0 || T <= 0 || S <= 0)
        return 0; /* the caller's outputs are already zero */
    sx = aligned_alloc(64, 4 * pad * sizeof(double));
    if (!sx)
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
            double tx = t[3 * i], ty = t[3 * i + 1], tz = t[3 * i + 2];
            double p = 0.0, gx = 0.0, gy = 0.0, gz = 0.0;
            long skip = skip_diagonal ? i : -1;
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
            if (pot)
                pot[g * T + i] = p;
            if (grad) {
                double *o = grad + 3 * (g * T + i);
                o[0] = gx, o[1] = gy, o[2] = gz;
            }
        }
    }
    free(sx);
    return 0;
}
