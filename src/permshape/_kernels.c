/* Compiled kernels for permshape._kernels: the fused patience-sorting pass
 * for the LIS and LDS, banded row-peeling Schensted shape, the cycle scan,
 * and the Greene subset scan. Each keeps the integer semantics of the
 * pure-Python reference next to it (strict increase, i.e. bisect_left). The
 * caller allocates one scratch array per call for everything a kernel
 * writes, so no function here can fail. The shape and the Greene scan are
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
 * of; the word's own letters carry column n, past every row. */
struct letter {
    int64_t x, col;
};

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
 * if any, is queued for the row below at cur[wr] with its column. */
static inline void place(struct letter *cur, struct row *row, int hinted)
{
    struct letter in = cur[row->rd++];
    int64_t j = landing(row->tops, row->len, in.x, in.col, hinted);
    if (j == row->len)
        row->len++;
    else
        cur[row->wr++] = (struct letter){row->tops[j], j};
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
 * the m letters in cur. All their queues share cur in place: a row writes
 * its bumps at or below its own read head (its first letter starts a pile),
 * and reads only below the write head of the row above, so cur holds, from
 * the left, the last row's bumps (the next band's input), then each row's
 * unread queue, lower rows first, then the unread input. The rows step from
 * the bottom up, so a row never reads a letter queued in the same step.
 * Row r of a band is the (r+1)-th row of the tableau of the band's input,
 * so it has at most m / (r+1) piles: that is its segment of tops. Every
 * band but the first places its letters by the hinted search.
 *
 * Not inlined: gcc -O2 then compiles the peel as it compiled the one-word
 * entry it replaces, all but the prologue alike, where inlined into the
 * batch loop its full shapes at n = 1000..16000 ran about 1% slower on a
 * 2-vCPU Xeon. */
__attribute__((noinline))
static int64_t peel_shape(const int64_t *values, int64_t n, int64_t max_rows,
                          int64_t *row_lengths, int64_t *work)
{
    int64_t *tops = work + 2 * n;
    struct letter *cur = (struct letter *)work;
    int64_t nrows = 0;
    int64_t m = n;
    for (int64_t i = 0; i < n; i++)
        cur[i] = (struct letter){values[i], n};
    while (m > 0 && nrows < max_rows) {
        int64_t band = max_rows - nrows < SHAPE_BAND ? max_rows - nrows : SHAPE_BAND;
        int hinted = nrows > 0;
        struct row rows[SHAPE_BAND];
        int64_t *seg = tops;
        for (int64_t r = 0; r < band; r++) {
            for (int64_t i = 0; i < HINT_WINDOW; i++)
                *seg++ = INT64_MIN;
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
                        place(cur, &rows[r], hinted);
                place(cur, &rows[lead], hinted);
            }
        }
        for (int64_t r = 0; r < band && rows[r].len > 0; r++)
            row_lengths[nrows++] = rows[r].len;
        m = rows[band - 1].wr;
    }
    return nrows;
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

/* Cycle counts of the 0-based permutation perm[0..n): scratch[0] cycles,
 * scratch[1] fixed points, scratch[2] 2-cycles. scratch: 3 + ceil(n / 8)
 * zeroed slots, the counts, then one seen byte per letter. */
void ps_cycle_scan(const int64_t *perm, int64_t n, int64_t *scratch)
{
    int64_t *out = scratch;
    uint8_t *seen = (uint8_t *)(scratch + 3);
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
