/* Compiled kernels for permshape._kernels: the fused patience-sorting pass
 * for the LIS and LDS, banded row-peeling Schensted shape, and the cycle
 * scan. Each keeps the integer semantics of the pure-Python reference next
 * to it (strict increase, i.e. bisect_left). The caller allocates every
 * buffer, so no function here can fail.
 *
 * Why a patience step grows the pile count in a branch: the next search
 * starts from the pile count, so with k += (j == k) every search waits for
 * the end of the one before it. A new pile is rare (about 2 sqrt(n) of n
 * steps on a random word), so a predicted branch lets the core start the
 * next search before this one ends. gcc -O2 turns a bare if (j == k) k++
 * back into sete/add; with a store in each arm it keeps the branch. On a
 * 2-vCPU Xeon one patience chain over an n-cycle word at n = 1e5 takes
 * about 4.3 ms with the add and 2.5 ms with the branch, and ps_lis_lds,
 * which runs the LIS and the LDS of one word as two independent chains in
 * one pass, takes about 3.4 ms.
 *
 * Why the shape is peeled in bands: one row of patience sorting is one
 * chain of dependent binary searches, and a search is a run of dependent
 * loads, so a single row runs at the latency of that chain (about 22 ns a
 * placement at n = 16000 on a 2-vCPU Xeon), with the core mostly idle. Row
 * r+1 reads only the letters row r bumps, so SHAPE_BAND rows can run in one
 * pass: in each step every row of the band takes one letter that is already
 * queued for it, and their searches are independent chains the core runs
 * side by side. Four rows a band take a full shape at n = 16000 from about
 * 23 ms to about 13 ms there; widths from 3 to 8 measured within noise of
 * each other, and 4 keeps the tops scratch near 2n.
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

/* One patience step: x goes on the first pile of tops[0..k) whose top is
 * >= x, or starts pile k; returns the new pile count. */
static inline int64_t patience_step(int64_t *tops, int64_t k, int64_t x)
{
    int64_t j = lower_bound(tops, k, x);
    if (j == k)
        tops[k++] = x;
    else
        tops[j] = x;
    return k;
}

/* Lengths of the longest strictly increasing (out[0]) and strictly
 * decreasing (out[1]) subsequences of values[0..n), in one pass: the LDS is
 * the LIS of ~x, which reverses the order of every int64 (-x overflows on
 * INT64_MIN). inc, dec: n scratch slots each. */
void ps_lis_lds(const int64_t *values, int64_t n, int64_t *inc, int64_t *dec, int64_t *out)
{
    int64_t ki = 0, kd = 0;
    for (int64_t idx = 0; idx < n; idx++) {
        int64_t x = values[idx];
        ki = patience_step(inc, ki, x);
        kd = patience_step(dec, kd, ~x);
    }
    out[0] = ki;
    out[1] = kd;
}

/* Rows peeled in one pass over the word. */
#define SHAPE_BAND 4

const int64_t ps_band_width = SHAPE_BAND;

/* One row of a band: its piles, read head and write head in cur. */
struct row {
    int64_t *tops;
    int64_t len, rd, wr;
};

/* The row takes the next letter of its queue, cur[rd]; the letter it bumps,
 * if any, is queued for the row below at cur[wr]. */
static inline void place(int64_t *cur, struct row *row)
{
    int64_t x = cur[row->rd++];
    int64_t j = lower_bound(row->tops, row->len, x);
    if (j == row->len)
        row->len++;
    else
        cur[row->wr++] = row->tops[j];
    row->tops[j] = x;
}

/* Lengths of the first max_rows rows (all of them, when there are fewer) of
 * the insertion tableau of values[0..n), written to row_lengths; returns how
 * many were written. Row r evolves by patience with replacement, and the
 * letters bumped out of row r, in bump order, are the insertion stream for
 * row r+1, so the rows come out in order and the peeling can stop early.
 * row_lengths: min(n, max_rows) slots; cur: n scratch slots; tops: the sum
 * of n / r over r = 1..min(max_rows, SHAPE_BAND) scratch slots.
 *
 * Each pass peels a band of min(SHAPE_BAND, rows still wanted) rows from
 * the m letters in cur. All their queues share cur in place: a row writes
 * its bumps at or below its own read head (its first letter starts a pile),
 * and reads only below the write head of the row above, so cur holds, from
 * the left, the last row's bumps (the next band's input), then each row's
 * unread queue, lower rows first, then the unread input. The rows step from
 * the bottom up, so a row never reads a letter queued in the same step.
 * Row r of a band is the (r+1)-th row of the tableau of the band's input,
 * so it has at most m / (r+1) piles: that is its segment of tops. */
int64_t ps_shape(const int64_t *values, int64_t n, int64_t max_rows,
                 int64_t *row_lengths, int64_t *cur, int64_t *tops)
{
    int64_t nrows = 0;
    int64_t m = n;
    for (int64_t i = 0; i < n; i++)
        cur[i] = values[i];
    while (m > 0 && nrows < max_rows) {
        int64_t band = max_rows - nrows < SHAPE_BAND ? max_rows - nrows : SHAPE_BAND;
        struct row rows[SHAPE_BAND];
        int64_t *seg = tops;
        for (int64_t r = 0; r < band; r++) {
            rows[r] = (struct row){seg, 0, 0, 0};
            seg += m / (r + 1);
        }
        /* rows above lead have read all their input; lead reads the rest of
         * its queue, and the rows below it take what is queued for them */
        for (int64_t lead = 0; lead < band; lead++) {
            int64_t end = lead ? rows[lead - 1].wr : m;
            while (rows[lead].rd < end) {
                for (int64_t r = band - 1; r > lead; r--)
                    if (rows[r].rd < rows[r - 1].wr)
                        place(cur, &rows[r]);
                place(cur, &rows[lead]);
            }
        }
        for (int64_t r = 0; r < band && rows[r].len > 0; r++)
            row_lengths[nrows++] = rows[r].len;
        m = rows[band - 1].wr;
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
