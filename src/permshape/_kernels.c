/* Compiled kernels for permshape._kernels: the fused patience-sorting pass
 * for the LIS and LDS, banded row-peeling Schensted shape, the cycle walk,
 * and the Greene subset scan. Each keeps the integer semantics of the
 * pure-Python reference next to it (strict increase, i.e. bisect_left). The
 * caller allocates the arrays a kernel writes, so no function here
 * allocates or can run out of memory. The shape and the Greene scan are
 * entered by batch: one call loops the kernel over many words, given as
 * their letters back to back and count + 1 offsets, and a single word is a
 * batch of one.
 *
 * Why a patience step grows the pile count in a branch: the next search
 * starts from the pile count, so with k += (j == k) every search waits for
 * the end of the one before it. A new pile is rare (about 2 sqrt(n) of n
 * steps on a random word), so a predicted branch lets the core start the
 * next search before this one ends. gcc -O2 turns a bare if (j == k) k++
 * back into sete/add; with a store in each arm it keeps the branch. On a
 * 2-vCPU Xeon one patience chain over an n-cycle word at n = 1e5 takes
 * about 4.3 ms with the add and 2.5 ms with the branch. ps_lis_lds runs
 * four independent chains in one pass, the LIS and the LDS of each half of
 * the word, so the core overlaps four searches, each over at most half the
 * piles. Measured again later on that Xeon, on n-cycle words, it took
 * 0.12 ms at n = 1e4, 1.3 ms at 1e5 and 17.5 ms at 1e6, where two chains
 * over the whole word took 0.19, 1.75 and 18.6 ms.
 *
 * Why the shape is peeled in bands: one row of patience sorting is one
 * chain of dependent binary searches, and a search is a run of dependent
 * loads, so a single row runs at the latency of that chain (about 22 ns a
 * placement at n = 16000 on a 2-vCPU Xeon), with the core mostly idle. Row
 * r+1 reads only the letters row r bumps, so SHAPE_BAND rows can run in one
 * pass: in each step every row of the band takes one letter that is already
 * queued for it, and their searches are independent chains the core runs
 * side by side. On that Xeon four rows a band took a full shape at n = 16000
 * from about 23 ms to about 13 ms; widths from 3 to 8 measured within noise
 * of each other, and 4 keeps the tops scratch near 2n.
 *
 * Why a bumped letter carries its column: a letter bumped out of column j
 * of a row lands in the next row at a column <= j (the row bumping lemma,
 * Fulton, Young Tableaux, 1997, sec. 1.1), and deep in the tableau it
 * lands only a few columns left of j (bumping routes drift left slowly:
 * Romik and Sniady, Random Structures Algorithms 48, 2016). So past the
 * first band a row counts, without a branch, the tops >= x among the
 * HINT_WINDOW slots left of min(j, its length), and searches the rest of
 * the row only when all of them are. On an n-cycle at n = 1e5 the window
 * holds the landing column for 20% of the letters row 2 receives, 49% in
 * row 4, 98.5% in row 51 and at least 99.7% in every row from 101 on; on
 * an fpf involution at n = 16000, 62% of the letters that rows 2 and below
 * receive land in the very column they left. Full shapes cost about half:
 * on that Xeon about 6 ms at n = 16000 (from about 12), 0.08-0.12 s at 1e5
 * (from 0.16-0.22) and 3.2 s at 1e6 (from 7.3). The first band keeps the
 * binary search over the whole row: there the routes still drift far (on
 * that n-cycle the window holds 34% of the letters rows 2 to 4 receive),
 * and with the window in it the two-row peel (lambda2) at n = 1e5 ran
 * about 45% slower.
 *
 * Why an involution peels half its letters: Beissinger (Discrete Math. 67,
 * 1987, 149-163) builds the insertion tableau of an involution w of
 * 0..n-1 from half the insertions. For k = 0..n-1 a fixed point k is
 * inserted; for a pair i = w[k] < k, i is inserted, and k, the largest
 * letter so far, goes at the end of the row below the row where that
 * insertion ended. In the row peel k rides on i as a tag: a bumped letter
 * takes the tag of the letter that bumped it, and a tagged letter that
 * starts a pile in row r queues its tag for row r+1, where it starts a
 * pile. Each placement still queues at most one letter. One pass that
 * stops at the first k with w[k] out of range or w[w[k]] != k picks the
 * peel, so most other words pay a few loads for it. On that Xeon full
 * shapes of fpf involutions took 0.96 ms at n = 1e4 (from 1.84), 31 ms at
 * 1e5 (from 59) and 0.96 s at 1e6 (from 1.89); with n / 2 fixed points
 * (composite_fpf_half), 0.54 ms at 1e4 (from 0.88), 13 ms at 1e5 (from 24)
 * and 0.39 s at 1e6 (from 0.72). An n-cycle core with n / ln n fixed
 * points ran within 1.5% of the plain peel.
 *
 * Why the cycle-type draws shuffle here: the draws are seeded and pinned,
 * so the arrangement a class member is laid out on must be exactly numpy's
 * Generator.permutation(n), and the generator must be left where numpy
 * leaves it. numpy shuffles by Durstenfeld's Fisher-Yates (CACM 7(7), 1964,
 * Algorithm 235) and draws index j <= i by masked rejection from 32-bit
 * halves of PCG64 XSL-RR outputs (O'Neill, HMC-CS-2014-0905), the low half
 * first and the high one buffered in the state. ps_cycle_layout does the
 * same on numpy's own state struct, in place, so nothing is copied in or
 * out; its loop takes one half a step, and a rejected candidate swaps a
 * slot with itself, so the draw costs no branch. The arrangement is the
 * caller's n-slot uint32_t array, half the bytes numpy's int64 one takes.
 * The cycles are laid out in a second loop of the same call, which
 * prefetches the word slot it writes 16 elements on. On that Xeon writing
 * the word inside the shuffle loop took 18.2 ms at n = 1e6 against 7.4 ms
 * for the two loops, and drawing 32 indices ahead of the swaps with their
 * slots prefetched took the shuffle alone at 1e5 from 0.44 to 0.81 ms.
 *
 * Why the shuffle takes its mask once a power of two: with the mask
 * ~0 >> clz(i) worked out every step, the clz, the mask, the compare and
 * i -= ok form one loop-carried chain through i, and that chain, not the
 * PCG64 step, bounded the loop. The mask changes only when i drops below a
 * power of two, so an outer loop takes it once a bucket (mask >> 1, mask]
 * and the inner loop runs the same step on it; the draws, their order and
 * the state written back are unchanged. On that Xeon the shuffle alone
 * took 0.33 ms at n = 1e5 before and 0.17 ms after, 4.0 and 2.9 ms at 1e6,
 * 60 and 50 ms at 1e7; a whole n-cycle draw takes about 0.31 ms at 1e5
 * (from 0.54), 5.2 ms at 1e6 (from 6.6) and 89 ms at 1e7 (from 99), where
 * numpy's permutation alone takes 0.85 ms at 1e5. Two bit-exact variants
 * of the step were measured on the shuffle alone and left out: two
 * interleaved LCG streams (M^2 and inc (M + 1) a step, so consecutive
 * multiplies overlap) ran 0.17 -> 0.19 ms at 1e5; both halves of an output
 * taken in one step (single steps where a bucket ends or a half is
 * buffered) ran even at 1e5 and 7-9% faster at 1e6 and 1e7, too little for
 * its second inner loop while no gated workload draws above 1e5.
 */
#include <stdint.h>
#include <string.h>

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

/* The longest a + b over a pile a of left and a pile b of right with
 * left[a-1] < ~right[b-1], or either pile count alone: the longest strictly
 * increasing subsequence of a word split in two, from the piles of its left
 * half read forward on x (left) and of its right half read backward on ~y
 * (right). Pile b of right holds ~ the largest letter that starts an
 * increasing run of b letters of the right half, and the tops of both grow
 * with the pile, so the largest b that fits a does not grow with a. */
static int64_t join(const int64_t *left, int64_t kl, const int64_t *right, int64_t kr)
{
    int64_t best = kl > kr ? kl : kr;
    int64_t b = kr;
    for (int64_t a = 1; a <= kl; a++) {
        while (b > 0 && left[a - 1] >= ~right[b - 1])
            b--;
        if (b == 0)
            break;
        if (a + b > best)
            best = a + b;
    }
    return best;
}

/* Lengths of the longest strictly increasing (scratch[0]) and strictly
 * decreasing (scratch[1]) subsequences of values[0..n), in one pass over
 * four independent patience chains: the word splits at h = n / 2, the left
 * half is read forward and the right half backward, an odd middle letter
 * last, and each half keeps an increasing and a decreasing chain; join()
 * puts each pair of halves together. The decreasing order is ~x, which
 * reverses the order of every int64 (-x overflows on INT64_MIN), so the
 * piles are li on x, ld on ~x (left), ri on ~y, rd on y (right). scratch:
 * 2 + 4 ceil(n / 2) slots, the two lengths, then the piles of each chain. */
void ps_lis_lds(const int64_t *values, int64_t n, int64_t *scratch)
{
    int64_t h = n / 2, half = n - h;
    int64_t *out = scratch, *li = scratch + 2, *ld = li + half, *ri = ld + half, *rd = ri + half;
    int64_t kli = 0, kld = 0, kri = 0, krd = 0;
    for (int64_t idx = 0; idx < h; idx++) {
        int64_t x = values[idx], y = values[n - 1 - idx];
        kli = patience_step(li, kli, x);
        kld = patience_step(ld, kld, ~x);
        kri = patience_step(ri, kri, ~y);
        krd = patience_step(rd, krd, y);
    }
    if (half > h) {
        kri = patience_step(ri, kri, ~values[h]);
        krd = patience_step(rd, krd, values[h]);
    }
    out[0] = join(li, kli, ri, kri);
    out[1] = join(ld, kld, rd, krd);
}

/* Rows peeled in one pass over the word. */
#define SHAPE_BAND 4
/* Slots left of a bumped letter's column that a row checks for its landing
 * column, after the first band. */
#define HINT_WINDOW 4
_Static_assert(HINT_WINDOW == 4, "landing() reads four window slots");

const int64_t ps_band_width = SHAPE_BAND;
const int64_t ps_hint_window = HINT_WINDOW;

/* A queued letter and the column of the row above that it was bumped out
 * of; the word's own letters carry column n, past every row. On the
 * involution path the high half of col holds the letter's tag, 0 for none
 * (a tag is the larger letter k of a pair, so k >= 1). */
struct letter {
    int64_t x, col;
};

#define TAG_SHIFT 32
#define COL_MASK ((INT64_C(1) << TAG_SHIFT) - 1)

/* One row of a band: its piles, read head and write head in cur. The
 * HINT_WINDOW slots left of tops[0] hold INT64_MIN. */
struct row {
    int64_t *tops;
    int64_t len, rd, wr;
};

/* First pile of the row whose top is >= x, or len when there is none. The
 * letter came out of column col of the row above, so it lands at a column
 * <= min(col, len) (the row bumping lemma); a hinted search counts the tops
 * >= x among the HINT_WINDOW slots left of that bound, with no branch, and
 * searches the row left of the window only when all of them are. A pad slot
 * counts only when x is INT64_MIN, whose landing column is 0, and the
 * fallback returns 0 for it. */
static inline int64_t landing(const int64_t *tops, int64_t len, int64_t x, int64_t col,
                              int hinted)
{
    if (!hinted)
        return lower_bound(tops, len, x);
    int64_t j = col < len ? col : len;
    const int64_t *w = tops + j - HINT_WINDOW;
    int64_t c = (w[0] >= x) + (w[1] >= x) + (w[2] >= x) + (w[3] >= x);
    if (c < HINT_WINDOW)
        return j - c;
    return lower_bound(tops, j > HINT_WINDOW ? j - HINT_WINDOW : 0, x);
}

/* The row takes the next letter of its queue, cur[rd]; the letter it bumps,
 * if any, is queued for the row below at cur[wr] with its column. On the
 * involution path (inv) the bumped letter takes the tag of the letter that
 * bumped it, and a tagged letter that starts a pile queues its tag, which
 * starts a pile in the row below. */
static inline __attribute__((always_inline)) void place(struct letter *cur, struct row *row,
                                                         int hinted, int inv)
{
    struct letter in = cur[row->rd++];
    int64_t j = landing(row->tops, row->len, in.x, inv ? in.col & COL_MASK : in.col, hinted);
    if (j == row->len) {
        row->len++;
        if (inv && in.col >> TAG_SHIFT)
            cur[row->wr++] = (struct letter){in.col >> TAG_SHIFT, j};
    } else
        cur[row->wr++] = (struct letter){row->tops[j], inv ? j | (in.col & ~COL_MASK) : j};
    row->tops[j] = in.x;
}

/* Lengths of the first max_rows rows (all of them, when there are fewer) of
 * the insertion tableau of values[0..n), written to row_lengths[0..); returns
 * how many were written. Row r evolves by patience with replacement, and
 * the letters bumped out of row r, in bump order, are the insertion stream
 * for row r+1, so the rows come out in order and the peeling can stop early.
 * work: cur, n letters of two slots; then tops: for r = 1..min(max_rows,
 * SHAPE_BAND), HINT_WINDOW pad slots and n / r slots.
 *
 * Each pass peels a band of min(SHAPE_BAND, rows still wanted) rows from
 * the m letters in cur. All their queues share cur in place: each placement
 * queues at most one letter, at or below the row's own read head, and a row
 * reads only below the write head of the row above, so cur holds, from the
 * left, the last row's bumps (the next band's input), then each row's
 * unread queue, lower rows first, then the unread input. The rows step from
 * the bottom up, so a row never reads a letter queued in the same step.
 * Row r of a band is the (r+1)-th row of the rows not yet peeled, which
 * hold the rem cells not yet placed, so it has at most rem / (r+1) piles:
 * that is its segment of tops. Every band but the first places its letters
 * by the hinted search.
 *
 * With inv set, values is an involution of 0..n-1 with n < 2^31, and row 1
 * reads Beissinger's stream: for k = 0..n-1, a fixed point k as the letter
 * k, and a pair i = values[k] < k as the letter i tagged with k. Row 1
 * reads fewer than n letters and the tags join the rows below it, so the m
 * letters a band reads do not bound its rows: that is why a band is sized
 * by rem, which is m for the other words. */
static inline __attribute__((always_inline)) int64_t
peel(const int64_t *values, int64_t n, int64_t max_rows, int64_t *row_lengths, int64_t *work,
     int inv)
{
    int64_t *tops = work + 2 * n;
    struct letter *cur = (struct letter *)work;
    int64_t nrows = 0;
    int64_t m = 0, rem = n;
    if (inv) {
        for (int64_t k = 0; k < n; k++)
            if (values[k] <= k)
                cur[m++] = (struct letter){values[k], n | (values[k] < k ? k << TAG_SHIFT : 0)};
    } else {
        for (; m < n; m++)
            cur[m] = (struct letter){values[m], n};
    }
    while (m > 0 && nrows < max_rows) {
        int64_t band = max_rows - nrows < SHAPE_BAND ? max_rows - nrows : SHAPE_BAND;
        int hinted = nrows > 0;
        struct row rows[SHAPE_BAND];
        int64_t *seg = tops;
        for (int64_t r = 0; r < band; r++) {
            for (int64_t i = 0; i < HINT_WINDOW; i++)
                *seg++ = INT64_MIN;
            rows[r] = (struct row){seg, 0, 0, 0};
            seg += rem / (r + 1);
        }
        /* rows above lead have read all their input; lead reads the rest of
         * its queue, and the rows below it take what is queued for them */
        for (int64_t lead = 0; lead < band; lead++) {
            int64_t end = lead ? rows[lead - 1].wr : m;
            while (rows[lead].rd < end) {
                for (int64_t r = band - 1; r > lead; r--)
                    if (rows[r].rd < rows[r - 1].wr)
                        place(cur, &rows[r], hinted, inv);
                place(cur, &rows[lead], hinted, inv);
            }
        }
        for (int64_t r = 0; r < band && rows[r].len > 0; r++) {
            row_lengths[nrows++] = rows[r].len;
            rem -= rows[r].len;
        }
        m = rows[band - 1].wr;
    }
    return nrows;
}

/* The peel compiled once for each kind of word. Not inlined: gcc -O2 then
 * compiles the row peel as it compiled the one-word entry it replaces, all
 * but the prologue alike, where inlined into the batch loop its full shapes
 * at n = 1000..16000 ran about 1% slower on a 2-vCPU Xeon. */
__attribute__((noinline))
static int64_t peel_rows(const int64_t *values, int64_t n, int64_t max_rows,
                         int64_t *row_lengths, int64_t *work)
{
    return peel(values, n, max_rows, row_lengths, work, 0);
}

__attribute__((noinline))
static int64_t peel_involution(const int64_t *values, int64_t n, int64_t max_rows,
                               int64_t *row_lengths, int64_t *work)
{
    return peel(values, n, max_rows, row_lengths, work, 1);
}

/* Whether values[0..n) is an involution of 0..n-1: every letter in range
 * and values[values[k]] = k. Stops at the first letter that fails, so most
 * other words cost a few loads. */
static int is_involution(const int64_t *values, int64_t n)
{
    for (int64_t k = 0; k < n; k++)
        if ((uint64_t)values[k] >= (uint64_t)n || values[values[k]] != k)
            return 0;
    return 1;
}

/* peel() of one word, by Beissinger's rule when the word is an involution
 * whose letters and tags fit the halves of col. */
static int64_t peel_shape(const int64_t *values, int64_t n, int64_t max_rows,
                          int64_t *row_lengths, int64_t *work)
{
    if (n < (INT64_C(1) << 31) && is_involution(values, n))
        return peel_involution(values, n, max_rows, row_lengths, work);
    return peel_rows(values, n, max_rows, row_lengths, work);
}

/* Shapes of a batch of count words, word w being letters[offsets[w] ..
 * offsets[w + 1]): the first min(max_rows, rows) row lengths of each word,
 * one word after another, and each word's row count. Returns the largest
 * row count. scratch: the count + 1 offsets on entry; then the row counts,
 * count slots; then the row lengths, room slots (the sum over the words of
 * min(max_rows, length) bounds them); then the work space of peel_shape()
 * for the longest word, which every word reuses. */
int64_t ps_shape_batch(const int64_t *letters, int64_t count, int64_t max_rows, int64_t room,
                       int64_t *scratch)
{
    const int64_t *offsets = scratch;
    int64_t *nrows = scratch + count + 1, *rows = nrows + count, *work = rows + room;
    int64_t widest = 0;
    for (int64_t w = 0; w < count; w++) {
        int64_t n = offsets[w + 1] - offsets[w];
        /* a band never spans more rows than the word has letters, so the
         * word's tops fit the scratch of the longest word */
        nrows[w] = peel_shape(letters + offsets[w], n, max_rows < n ? max_rows : n, rows, work);
        rows += nrows[w];
        if (nrows[w] > widest)
            widest = nrows[w];
    }
    return widest;
}

/* The cycle walk of perm[0..n), letters in [0, n): writes each cycle's
 * length to scratch[0..count), by the cycles' smallest points, and returns
 * count. scratch: n slots, then ceil(n / 8) zeroed slots of seen bytes. A
 * walk marks its unseen start and stops at a seen letter, so count <= n. */
int64_t ps_cycle_scan(const int64_t *perm, int64_t n, int64_t *scratch)
{
    uint8_t *seen = (uint8_t *)(scratch + n);
    int64_t count = 0;
    for (int64_t start = 0; start < n; start++) {
        if (seen[start])
            continue;
        int64_t length = 0;
        for (int64_t j = start; !seen[j]; j = perm[j]) {
            seen[j] = 1;
            length++;
        }
        scratch[count++] = length;
    }
    return count;
}

/* Largest letter count greene_scan reads: its pile arrays are fixed. */
#define GREENE_MAX_N 16

/* First index i in [0, k) with tops[i] >= x, or k when there is none. A
 * plain bisection of its own: the oracle shares no code with the patience
 * kernels it checks, so a fault in lower_bound cannot make them agree. */
static int64_t greene_bisect(const int64_t *tops, int64_t k, int64_t x)
{
    int64_t lo = 0, hi = k;
    while (lo < hi) {
        int64_t mid = lo + (hi - lo) / 2;
        if (tops[mid] < x)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/* The state of one subset scan: the word, the best subset sizes found for
 * each restricted LDS (best_inc) and LIS (best_dec) length, and the pile
 * tops of the current subset; slots at and past a pile count are scratch. */
struct greene {
    const int64_t *word;
    int64_t n;
    int64_t *best_inc, *best_dec;
    int64_t tops_inc[GREENE_MAX_N], tops_dec[GREENE_MAX_N];
};

/* Visit every subset that extends the current one (size - 1 letters, with
 * k_inc and k_dec piles) by one position at or after start, depth first:
 * place the letter on both pile sets, record the subset, recurse, undo. The
 * decreasing piles hold ~x, as in ps_lis_lds. */
static void greene_extend(struct greene *g, int64_t start, int64_t size,
                          int64_t k_inc, int64_t k_dec)
{
    for (int64_t i = start; i < g->n; i++) {
        int64_t x = g->word[i];
        int64_t j_inc = greene_bisect(g->tops_inc, k_inc, x);
        int64_t j_dec = greene_bisect(g->tops_dec, k_dec, ~x);
        int64_t old_inc = g->tops_inc[j_inc], old_dec = g->tops_dec[j_dec];
        g->tops_inc[j_inc] = x;
        g->tops_dec[j_dec] = ~x;
        int64_t lis_len = k_inc + (j_inc == k_inc);
        int64_t lds_len = k_dec + (j_dec == k_dec);
        if (size > g->best_inc[lds_len])
            g->best_inc[lds_len] = size;
        if (size > g->best_dec[lis_len])
            g->best_dec[lis_len] = size;
        if (i + 1 < g->n)
            greene_extend(g, i + 1, size + 1, lis_len, lds_len);
        g->tops_inc[j_inc] = old_inc;
        g->tops_dec[j_dec] = old_dec;
    }
}

/* Greene invariants of a word of n <= GREENE_MAX_N letters: the largest
 * union of i increasing (decreasing) subsequences, written to best_inc[i]
 * (best_dec[i]) for i = 1..width, width >= n; past n they stay n. A word
 * splits into at most d increasing subsequences iff its LDS is at most d, so
 * the i-th increasing invariant is the largest subset whose LDS is at most
 * i; the scan visits every nonempty subset once, as its prefix plus one
 * later position, and keeps the largest size for each LDS (LIS) length.
 * best_inc[0] is 1 when the word repeats a letter, which greene_invariants
 * rejects (the scan would count weakly monotone unions), and 0 otherwise.
 * best_inc and best_dec: width + 1 slots each. */
static void greene_scan(const int64_t *word, int64_t n, int64_t width, int64_t *best_inc,
                        int64_t *best_dec)
{
    struct greene g = {word, n, best_inc, best_dec, {0}, {0}};
    for (int64_t d = 0; d <= width; d++)
        best_inc[d] = best_dec[d] = 0;
    greene_extend(&g, 0, 1, 0, 0);
    for (int64_t d = 1; d <= width; d++) {
        if (best_inc[d] < best_inc[d - 1])
            best_inc[d] = best_inc[d - 1];
        if (best_dec[d] < best_dec[d - 1])
            best_dec[d] = best_dec[d - 1];
    }
    for (int64_t i = 0; i < n; i++)
        for (int64_t j = 0; j < i; j++)
            best_inc[0] |= word[i] == word[j];
}

/* Greene invariants of a batch of count words, word w being
 * letters[offsets[w] .. offsets[w + 1]), each of at most width letters.
 * scratch: the count + 1 offsets on entry, then for each word the increasing
 * and then the decreasing invariants, width + 1 slots each: slot i holds the
 * i-th invariant, i = 1..width, and slot 0 of the increasing ones flags a
 * repeated letter. */
void ps_greene_batch(const int64_t *letters, int64_t count, int64_t width, int64_t *scratch)
{
    const int64_t *offsets = scratch;
    int64_t *table = scratch + count + 1;
    for (int64_t w = 0; w < count; w++) {
        int64_t *best = table + 2 * w * (width + 1);
        greene_scan(letters + offsets[w], offsets[w + 1] - offsets[w], width, best, best + width + 1);
    }
}

/* numpy's bitgen_t (numpy/random/bitgen.h) starts with the address of its
 * bit generator's state, which for PCG64 is a pcg64_state
 * (numpy/random/src/pcg64/pcg64.h): the address of the generator, its
 * 128-bit state then its 128-bit increment, and the upper half of its last
 * output with a flag saying whether it is still unread. */
struct np_bitgen {
    void *state;
};

struct np_pcg64_state {
    void *pcg;
    int has_uint32;
    uint32_t uinteger;
};

__extension__ typedef unsigned __int128 u128;

#define PCG64_MULTIPLIER \
    ((u128)UINT64_C(2549297995355413924) << 64 | UINT64_C(4865540595714422341))

/* Slots of the arrangement ahead of the one laid out whose word slot is
 * prefetched. */
#define LAYOUT_AHEAD 16

/* One step of PCG64 XSL-RR: the LCG step, then the xor of the state's two
 * halves rotated right by its top six bits. */
static inline uint64_t pcg64_next(u128 *state, u128 inc)
{
    *state = *state * PCG64_MULTIPLIER + inc;
    uint64_t x = (uint64_t)(*state >> 64) ^ (uint64_t)*state;
    unsigned rot = (unsigned)(*state >> 122);
    return (x >> rot) | (x << (-rot & 63));
}

/* Shuffle 0..n-1 exactly as numpy's Generator.permutation(n) does with the
 * PCG64 bit generator bitgen (a bitgen_t *), leaving its state where numpy
 * would, then lay the cycles of runs out on the arrangement: runs holds
 * nruns (length, count) pairs of positive lengths, whose cycles fill the
 * arrangement left to right in the order given, and word[arr[k]] =
 * arr[k + 1] inside a cycle, its last element mapping to its first.
 * n <= 2^32, so every index is drawn from one 32-bit half and fits a
 * uint32_t. The caller holds the bit generator's lock. arr: n slots, the
 * arrangement. Returns 0; or, with the bit generator untouched, -2 when
 * the runs do not tile n (a length below 1, a count below 0, or lengths
 * times counts that do not sum to n). */
int64_t ps_cycle_layout(void *bitgen, const int64_t *runs, int64_t nruns, int64_t n,
                        int64_t *word, uint32_t *arr)
{
    int64_t total = 0;
    for (int64_t r = 0; r < nruns; r++) {
        int64_t len = runs[2 * r], count = runs[2 * r + 1];
        /* count <= (n - total) / len keeps len * count from overflowing */
        if (len < 1 || count < 0 || count > (n - total) / len)
            return -2;
        total += len * count;
    }
    if (total != n)
        return -2;
    struct np_pcg64_state *st = ((struct np_bitgen *)bitgen)->state;
    u128 pcg[2];
    memcpy(pcg, st->pcg, sizeof pcg);
    uint32_t upper = st->uinteger;
    int has_upper = st->has_uint32 != 0;
    for (int64_t k = 0; k < n; k++)
        arr[k] = (uint32_t)k;
    /* Durstenfeld's shuffle, i = n-1 down to 1, each index drawn by numpy's
     * random_interval(i): a 32-bit half (the buffered upper one first, as
     * next_uint32 reads them) masked to the smallest 2^k - 1 >= i, redrawn
     * while it exceeds i. That mask is the same for every i in one bucket
     * (mask >> 1, mask], so it is taken once a bucket, outside the inner
     * loop. A rejected candidate swaps arr[i] with itself and leaves i as it
     * is, so the inner loop has no branch on the draw. */
    for (int64_t i = n - 1; i >= 1;) {
        uint64_t mask = ~UINT64_C(0) >> __builtin_clzll((uint64_t)i);
        for (int64_t lo = (int64_t)(mask >> 1); i > lo;) {
            uint32_t h;
            if (has_upper) {
                h = upper;
                has_upper = 0;
            } else {
                uint64_t r = pcg64_next(&pcg[0], pcg[1]);
                h = (uint32_t)r;
                upper = (uint32_t)(r >> 32);
                has_upper = 1;
            }
            uint64_t v = h & mask;
            int ok = v <= (uint64_t)i;
            int64_t j = ok ? (int64_t)v : i;
            uint32_t x = arr[j];
            arr[j] = arr[i];
            arr[i] = x;
            i -= ok;
        }
    }
    memcpy(st->pcg, pcg, sizeof pcg[0]);
    st->has_uint32 = has_upper;
    st->uinteger = upper;
    /* the word slots LAYOUT_AHEAD elements on are prefetched for writing,
     * up to the arrangement's last; a branch skips the rest (an index
     * clamped to n - 1 ran about 1% slower at n = 1e6) */
    int64_t start = 0, stop = n - LAYOUT_AHEAD;
    for (int64_t r = 0; r < nruns; r++) {
        int64_t len = runs[2 * r];
        for (int64_t c = runs[2 * r + 1]; c > 0; c--, start += len) {
            for (int64_t k = start; k < start + len; k++) {
                if (k < stop)
                    __builtin_prefetch(word + arr[k + LAYOUT_AHEAD], 1);
                word[arr[k]] = arr[k + 1 < start + len ? k + 1 : start];
            }
        }
    }
    return 0;
}

/* The bit generator's state as ps_cycle_layout reads it: the low and high
 * halves of the 128-bit state, then of the increment, then has_uint32 and
 * uinteger. out: 6 slots. */
void ps_pcg64_peek(void *bitgen, int64_t *out)
{
    struct np_pcg64_state *st = ((struct np_bitgen *)bitgen)->state;
    u128 pcg[2];
    memcpy(pcg, st->pcg, sizeof pcg);
    for (int k = 0; k < 2; k++) {
        out[2 * k] = (int64_t)(uint64_t)pcg[k];
        out[2 * k + 1] = (int64_t)(uint64_t)(pcg[k] >> 64);
    }
    out[4] = st->has_uint32;
    out[5] = st->uinteger;
}
