/* Compiled kernels for permshape._kernels: patience-sorting LIS, row-peeling
 * Schensted shape, and the cycle scan. Each is a direct port of the
 * pure-Python reference next to it and keeps its integer semantics (strict
 * increase, i.e. bisect_left). The caller allocates every buffer, so no
 * function here can fail.
 */
#include <stdint.h>

/* First index i in [0, k) with tops[i] >= x, or k when there is none. The
 * search is branchless: the range halves by a conditional move each step. */
static inline int64_t lower_bound(const int64_t *tops, int64_t k, int64_t x)
{
    if (k == 0)
        return 0;
    const int64_t *base = tops;
    while (k > 1) {
        int64_t half = k >> 1;
        base = (base[half] < x) ? base + half : base;
        k -= half;
    }
    return (base - tops) + (*base < x);
}

/* Length of the longest strictly increasing subsequence of values[0..n).
 * tops: n scratch slots. */
int64_t ps_lis(const int64_t *values, int64_t n, int64_t *tops)
{
    int64_t k = 0;
    for (int64_t idx = 0; idx < n; idx++) {
        int64_t x = values[idx];
        int64_t j = lower_bound(tops, k, x);
        tops[j] = x;
        k += (j == k);
    }
    return k;
}

/* Lengths of the first max_rows rows (all of them, when there are fewer) of
 * the insertion tableau of values[0..n), written to row_lengths; returns how
 * many were written. Row r evolves by patience with replacement, and the
 * elements bumped out of row r, in bump order, are the insertion stream for
 * row r+1, so the rows come out in order and the peeling can stop early.
 * row_lengths: min(n, max_rows) slots; cur, tops: n scratch slots each.
 *
 * The bumped stream overwrites cur in place: after reading cur[idx] at least
 * one element (the first) has started a pile, so the write index nb <= idx. */
int64_t ps_shape(const int64_t *values, int64_t n, int64_t max_rows,
                 int64_t *row_lengths, int64_t *cur, int64_t *tops)
{
    int64_t nrows = 0;
    int64_t m = n;
    for (int64_t i = 0; i < n; i++)
        cur[i] = values[i];
    while (m > 0 && nrows < max_rows) {
        int64_t k = 0, nb = 0;
        for (int64_t idx = 0; idx < m; idx++) {
            int64_t x = cur[idx];
            int64_t j = lower_bound(tops, k, x);
            if (j == k) {
                k++;
            } else {
                cur[nb++] = tops[j];
            }
            tops[j] = x;
        }
        row_lengths[nrows++] = k;
        m = nb;
    }
    return nrows;
}

/* Cycle counts of the 0-based permutation perm[0..n): out[0] cycles,
 * out[1] fixed points, out[2] 2-cycles. seen: n zeroed bytes. */
void ps_cycle_scan(const int64_t *perm, int64_t n, uint8_t *seen, int64_t *out)
{
    int64_t num_cycles = 0, fixed = 0, two = 0;
    for (int64_t start = 0; start < n; start++) {
        if (seen[start])
            continue;
        int64_t length = 0;
        int64_t j = start;
        while (!seen[j]) {
            seen[j] = 1;
            j = perm[j];
            length++;
        }
        num_cycles++;
        fixed += (length == 1);
        two += (length == 2);
    }
    out[0] = num_cycles;
    out[1] = fixed;
    out[2] = two;
}
