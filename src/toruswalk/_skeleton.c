/* Inverse-CDF jump lookup and the lockstep first-passage skeleton.
 *
 * Compiled on first use by toruswalk.kernels._library and called
 * through ctypes.  Arrays are C-contiguous; sites and jumps are (x, y)
 * pairs of int64, interleaved.  The skeleton takes its uniforms from a
 * numpy bit generator, through the next_double pointer and the state
 * address of the generator's ctypes interface.
 */
#include <stdint.h>

/* searchsorted(cdf, u, "right"), capped at n_support - 1.  start is the
 * guide table of B buckets (B a power of two, so u * B is exact), and
 * cdf has n_support + 1 entries, the last +inf, so no step passes
 * index n_support. */
static inline int64_t lookup(double u, const double *cdf, const int64_t *start, int64_t B,
                             int64_t n_support)
{
    int64_t j = start[(int64_t)(u * B)];
    j += cdf[j] <= u;
    j += cdf[j] <= u;
    while (cdf[j] <= u)
        j++;
    return j < n_support ? j : n_support - 1;
}

void jump_index(const double *u, int64_t count, const double *cdf, const int64_t *start,
                int64_t B, int64_t n_support, int64_t *out)
{
    for (int64_t i = 0; i < count; i++)
        out[i] = lookup(u[i], cdf, start, B, n_support);
}

/* Whole lockstep rounds, drawing each uniform with next_double(state),
 * the bit generator's own float64 draw (numpy's Generator.random makes
 * the same call per float64).  In each round the `active` walkers
 * pos[0 .. active) take one draw each, in order; jump holds the support
 * points reduced mod L, so one subtraction wraps a site back into [0, L).
 * A walker that lands on the origin gets n[idx] = its round and is
 * compacted out, keeping walker order.  Stops once `budget` draws are
 * taken, so the caller regains control between calls, or once *rounds
 * reaches round_limit; returns the walkers still active. */
int64_t skeleton_rounds(double (*next_double)(void *), void *state, int64_t budget,
                        const double *cdf, const int64_t *start, int64_t B, int64_t n_support,
                        const int64_t *jump, int64_t L, int64_t *pos, int64_t *idx, int64_t active,
                        int64_t *n, int64_t *rounds, int64_t round_limit)
{
    int64_t r = *rounds, drawn = 0;
    while (active > 0 && r < round_limit && drawn < budget) {
        int64_t kept = 0;
        r++;
        for (int64_t i = 0; i < active; i++) {
            int64_t j = lookup(next_double(state), cdf, start, B, n_support);
            int64_t x = pos[2 * i] + jump[2 * j], y = pos[2 * i + 1] + jump[2 * j + 1];
            x -= x >= L ? L : 0;
            y -= y >= L ? L : 0;
            if ((x | y) == 0) {
                n[idx[i]] = r;
                continue;
            }
            pos[2 * kept] = x;
            pos[2 * kept + 1] = y;
            idx[kept++] = idx[i];
        }
        drawn += active;
        active = kept;
    }
    *rounds = r;
    return active;
}
