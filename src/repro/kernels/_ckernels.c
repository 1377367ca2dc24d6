/* Compiled hot kernels for the `cc` backend of repro.kernels.
 *
 * Every function here is a bit-exact restatement of the numpy reference
 * implementation in _numpy_backend.py; parity is pinned by
 * tests/test_kernels.py.  The shared conventions:
 *
 *   - bit i of a packed buffer lives in byte i >> 3 at MSB-first position
 *     i & 7 (the repro.amq.bitarray.BitArray layout);
 *   - 64-bit hashing is the MurmurHash3 fmix64 finaliser; uint64_t
 *     arithmetic wraps modulo 2**64 exactly like the numpy uint64 lanes;
 *   - Bloom probe positions follow the enhanced double hashing recurrence
 *     x_{i+1} = (x_i + y_i) % m, y_{i+1} = (y_i + i) % m;
 *   - floating-point results follow numpy's operation order exactly, so
 *     the build passes -ffp-contract=off (no fused multiply-adds).
 *
 * Built once per source and command-line hash (see _cc_backend.py) and
 * loaded via ctypes; no Python.h dependency, so any C toolchain suffices.
 */

#include <math.h>
#include <stdint.h>

static const uint8_t BIT_MASKS[8] = {128, 64, 32, 16, 8, 4, 2, 1};

static inline uint64_t fmix64(uint64_t v) {
    v ^= v >> 33;
    v *= 0xFF51AFD7ED558CCDULL;
    v ^= v >> 33;
    v *= 0xC4CEB9FE1A85EC53ULL;
    v ^= v >> 33;
    return v;
}

static inline uint8_t get_bit(const uint8_t *buf, uint64_t pos) {
    return (uint8_t)((buf[pos >> 3] >> (7 - (pos & 7))) & 1u);
}

/* Insert every value: set the k probe positions of each hashed value. */
void bloom_add(uint8_t *buf, uint64_t num_bits, const uint64_t *values,
               int64_t n, uint64_t s1, uint64_t s2, int64_t k) {
    for (int64_t j = 0; j < n; j++) {
        uint64_t v = values[j];
        uint64_t x = fmix64(v ^ s1) % num_bits;
        uint64_t y = (fmix64(v ^ s2) | 1ULL) % num_bits;
        buf[x >> 3] |= BIT_MASKS[x & 7];
        for (uint64_t i = 1; i < (uint64_t)k; i++) {
            x = (x + y) % num_bits;
            y = (y + i) % num_bits;
            buf[x >> 3] |= BIT_MASKS[x & 7];
        }
    }
}

/* Probe every value; early-exits on the first unset bit per value. */
void bloom_contains(const uint8_t *buf, uint64_t num_bits,
                    const uint64_t *values, int64_t n, uint64_t s1,
                    uint64_t s2, int64_t k, uint8_t *out) {
    for (int64_t j = 0; j < n; j++) {
        uint64_t v = values[j];
        uint64_t x = fmix64(v ^ s1) % num_bits;
        uint64_t y = (fmix64(v ^ s2) | 1ULL) % num_bits;
        uint8_t hit = get_bit(buf, x);
        for (uint64_t i = 1; hit && i < (uint64_t)k; i++) {
            x = (x + y) % num_bits;
            y = (y + i) % num_bits;
            hit = get_bit(buf, x);
        }
        out[j] = hit;
    }
}

/* Probe already-hashed items, item j against the filter whose bits start
 * at byte byte_offsets[j] of buf (num_bits[j] bits, num_hashes[j] probes);
 * early-exits on the first unset bit per item. */
void bloom_contains_hashed(const uint8_t *buf, const int64_t *byte_offsets,
                           const uint64_t *num_bits, const int64_t *num_hashes,
                           const uint64_t *h1, const uint64_t *h2, int64_t n,
                           uint8_t *out) {
    for (int64_t j = 0; j < n; j++) {
        const uint8_t *bits = buf + byte_offsets[j];
        uint64_t m = num_bits[j];
        uint64_t k = (uint64_t)num_hashes[j];
        uint64_t x = h1[j] % m;
        uint64_t y = h2[j] % m;
        uint8_t hit = k ? get_bit(bits, x) : 1;
        for (uint64_t i = 1; hit && i < k; i++) {
            x = (x + y) % m;
            y = (y + i) % m;
            hit = get_bit(bits, x);
        }
        out[j] = hit;
    }
}

/* Fused LOUDS step: bit value at pos and rank1(pos + 1), per position.
 * cum[b] holds the popcount of bytes [0, b); positions are in
 * [0, num_bits) (the caller validates). */
void bitvector_get_rank1(const uint8_t *buf, const int64_t *cum,
                         int64_t num_bits, const int64_t *pos, int64_t n,
                         uint8_t *bit_out, int64_t *rank_out) {
    (void)num_bits; /* the bound the caller checked positions against */
    for (int64_t j = 0; j < n; j++) {
        int64_t p = pos[j];
        bit_out[j] = get_bit(buf, (uint64_t)p);
        int64_t q = p + 1;
        int64_t full = q >> 3;
        int64_t part = q & 7;
        int64_t r = cum[full];
        if (part)
            r += __builtin_popcount(
                (unsigned)(buf[full] & (uint8_t)((0xFF00 >> part) & 0xFF)));
        rank_out[j] = r;
    }
}

/* One pass over sorted, distinct, prefix-free byte strings (rows of a
 * padded n x H matrix with per-row lengths), emitting the per-level edge
 * arrays the succinct trie encoders consume:
 *
 *   labels_out[e]  - edge label byte (level-major, sorted within a node);
 *   parent_out[e]  - rank of the edge's parent among that level's
 *                    internal nodes (sorted == level order);
 *   leaf_out[e]    - 1 iff the edge ends a stored prefix (a leaf edge);
 *   edge_counts[l] - edges from level-l nodes into level l + 1;
 *   group_counts[l]- internal (child-bearing) nodes at level l.
 *
 * grp/idx are caller-provided int64 workspaces of size n.  Returns the
 * total number of edges written. */
int64_t trie_levels(const uint8_t *mat, const int64_t *lengths, int64_t n,
                    int64_t H, uint8_t *labels_out, int64_t *parent_out,
                    uint8_t *leaf_out, int64_t *edge_counts,
                    int64_t *group_counts, int64_t *grp, int64_t *idx) {
    int64_t nact = 0;
    for (int64_t i = 0; i < n; i++) {
        if (lengths[i] > 0) {
            idx[nact] = i;
            grp[nact] = 0;
            nact++;
        }
    }
    int64_t out_pos = 0;
    for (int64_t l = 0; l < H; l++) {
        edge_counts[l] = 0;
        group_counts[l] = 0;
        if (nact == 0)
            continue;
        int64_t edge_id = -1;
        int64_t ngroups = 0;
        int64_t prev_grp = -1;
        uint8_t prev_byte = 0;
        int64_t next_nact = 0;
        for (int64_t a = 0; a < nact; a++) {
            int64_t i = idx[a];
            int64_t g = grp[a];
            uint8_t byte = mat[i * H + l];
            if (g != prev_grp)
                ngroups++;
            if (g != prev_grp || byte != prev_byte) {
                edge_id++;
                labels_out[out_pos + edge_id] = byte;
                parent_out[out_pos + edge_id] = ngroups - 1;
                leaf_out[out_pos + edge_id] = (lengths[i] == l + 1);
            }
            prev_grp = g;
            prev_byte = byte;
            if (lengths[i] > l + 1) {
                idx[next_nact] = i;
                grp[next_nact] = edge_id;
                next_nact++;
            }
        }
        edge_counts[l] = edge_id + 1;
        group_counts[l] = ngroups;
        out_pos += edge_id + 1;
        nact = next_nact;
    }
    return out_pos;
}

/* ------------------------------------------------------------------ */
/* Algorithm 1's row pass (repro.core.cpfpr)                           */
/* ------------------------------------------------------------------ */

/* x >> s with the sign copied in, as numpy shifts int64 (s in [0, 63]).
 * Spelled out because >> of a negative signed value is
 * implementation-defined in C. */
static inline int64_t shift_right(int64_t x, int64_t s) {
    return x < 0 ? ~(~x >> s) : x >> s;
}

/* numpy's pairwise summation of n contiguous doubles: below 8 items a
 * sequential sum from -0.0; up to 128, eight strided accumulators
 * combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the tail in
 * order; above 128, halves split at n/2 rounded down to a multiple of 8.
 * np.sum adds the result to 0.0. */
static double pairwise_sum(const double *a, int64_t n) {
    if (n < 8) {
        double res = -0.0;
        for (int64_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        int64_t i;
        for (int j = 0; j < 8; j++)
            r[j] = a[j];
        for (i = 8; i < n - (n % 8); i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += a[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    int64_t half = n / 2;
    half -= half % 8;
    return pairwise_sum(a, half) + pairwise_sum(a + half, n - half);
}

/* keep[r] = 1 - bloom_fpr(num_bits, prefix_counts[lens[r]]): the analytic
 * Bloom FPR of repro.amq.bloom, with its hash count rule
 * max(1, min(32, ceil(m / n * ln 2))), through the libm exp and pow that
 * CPython's math.exp and float.__pow__ call.  Returns -1, writing
 * nothing, if some lens[r] is outside [0, num_counts). */
int64_t cpfpr_bloom_keep(int64_t num_bits, const int64_t *prefix_counts,
                         int64_t num_counts, const int64_t *lens,
                         int64_t num_lens, double *keep) {
    for (int64_t r = 0; r < num_lens; r++)
        if (lens[r] < 0 || lens[r] >= num_counts)
            return -1;
    for (int64_t r = 0; r < num_lens; r++) {
        int64_t items = prefix_counts[lens[r]];
        double fpr = 1.0;
        if (items <= 0) {
            fpr = 0.0;
        } else if (num_bits > 0) {
            double optimal = ceil((double)num_bits / (double)items * log(2.0));
            int64_t k = optimal >= 32.0 ? 32 : (optimal <= 1.0 ? 1 : (int64_t)optimal);
            /* k * items is exact in a double below 2**53, as Python's int is. */
            fpr = pow(1.0 - exp(-(double)k * (double)items / (double)num_bits), (double)k);
        }
        keep[r] = 1.0 - fpr;
    }
    return 0;
}

/* One CPFPR model's empty sample queries, bound once to the row kernels
 * together with every buffer a row call uses (_cc_backend.py owns the
 * arrays).  Integer models set los/his/lo_lcps/hi_lcps, byte models
 * first_bits/lo_windows/hi_windows.  A call reads lens[0, num_lens) and
 * table (num_lens rows of table_width columns, keep[r]^k at column k by
 * numpy's power), and writes keep, out and the workspace. */
typedef struct {
    int64_t n;                        /* empty sample queries */
    int64_t width;                    /* key width in bits */
    uint64_t max_probes;              /* the filters' slot clamp */
    const int64_t *prefix_counts;     /* |K_l| for l in [0, num_counts) */
    int64_t num_counts;
    const int64_t *lcps;              /* L(q) */
    const int64_t *los, *his;         /* integer keys: stored bounds */
    const int64_t *lo_lcps, *hi_lcps; /* the two halves of L(q) */
    const int64_t *first_bits;        /* byte keys: cpfpr_byte_windows' view */
    const uint64_t *lo_windows, *hi_windows;
    const int64_t *lens;              /* each row's prefix length l2 */
    double *keep;                     /* each row's 1 - p */
    const double *table;
    int64_t table_width;
    double *out;                      /* each row's expected FPR */
    int64_t *work;                    /* 4 * n */
    double *values;                   /* n */
} cpfpr_rows;

/* keep[r] of the bound rows, by cpfpr_bloom_keep. */
int64_t cpfpr_rows_keep(const cpfpr_rows *b, int64_t num_bits, int64_t num_lens) {
    return cpfpr_bloom_keep(num_bits, b->prefix_counts, b->num_counts, b->lens, num_lens,
                            b->keep);
}

/* Returns 1 unless 0 <= l1 < lens[r] <= width for every row r. */
static int bad_lens(const cpfpr_rows *b, int64_t l1, int64_t num_lens) {
    for (int64_t r = 0; r < num_lens; r++)
        if (l1 < 0 || b->lens[r] <= l1 || b->lens[r] > b->width)
            return 1;
    return 0;
}

/* out[r] from the count values of row r's active queries, of admitted:
 * their pairwise sum plus 1 for every other admitted query, over n. */
static void finish_row(const cpfpr_rows *b, int64_t r, int64_t admitted, int64_t count) {
    double sum = 0.0 + pairwise_sum(b->values, count);
    b->out[r] = admitted ? ((double)(admitted - count) + sum) / (double)b->n : 0.0;
}

/* One row of cpfpr_row: the values of the admitted queries that are
 * active at this l2 (neither certain nor clamped), in query order, into
 * values; returns their count.  No branch depends on the data: every
 * query writes values[count] and only an active one advances count.
 * split != 0 when some admitted query spans several l1-blocks (blocks[i]
 * then holds its stored-boundary bits); the function is inlined once for
 * each value of split, so the common no-split case skips that
 * arithmetic. */
static inline int64_t row_values(const int64_t *lo, const int64_t *hi,
                                 const int64_t *lcp, const int64_t *blocks,
                                 int64_t admitted, int64_t l2, int64_t shift,
                                 uint64_t low, uint64_t max_probes,
                                 const double *row, uint64_t table_width,
                                 double *values, uint64_t *largest, int split) {
    int64_t count = 0;
    uint64_t most = *largest;
    for (int64_t i = 0; i < admitted; i++) {
        uint64_t plo = (uint64_t)shift_right(lo[i], shift);
        uint64_t phi = (uint64_t)shift_right(hi[i], shift);
        uint64_t span = phi - plo;
        uint64_t k = span + 1;
        if (split) {
            uint64_t stored = (uint64_t)blocks[i];
            uint64_t parts = (-(stored & 1) & (low + 1 - (plo & low)))
                           + (-((stored >> 1) & 1) & ((phi & low) + 1));
            k = stored ? parts : k;
        }
        uint64_t active = (uint64_t)((lcp[i] < l2) & (span < max_probes));
        k &= -active;
        most = k > most ? k : most;
        values[count] = 1.0 - row[k < table_width ? k : 0];
        count += (int64_t)active;
    }
    *largest = most;
    return count;
}

/* Expected FPRs of the Proteus designs (l1, lens[r], bits) over an
 * integer model's n empty sample queries (stored int64 bounds, L(q) and
 * its two halves): the numpy reference cpfpr_row in _numpy_backend.py,
 * restated.
 *
 * The trie gate admits L(q) >= l1.  At each l2, an admitted query is
 * certain (L(q) >= l2) or clamped (more than max_probes slots) and counts
 * 1; otherwise it counts 1 - table[r][k] = 1 - keep[r]^k for its k probed
 * slots, where a query spanning several l1-blocks probes only its stored
 * boundary blocks.  Each row's values are summed in query order by
 * pairwise_sum.  Returns the largest k met; the outputs are valid only if
 * it is below table_width.  With no query admitted every FPR is 0.
 * Returns -2, writing nothing, unless 0 <= l1 < lens[r] <= width <= 64
 * for every r. */
int64_t cpfpr_row(const cpfpr_rows *b, int64_t l1, int64_t num_lens) {
    if (b->width > 64 || bad_lens(b, l1, num_lens))
        return -2;
    int64_t n = b->n, width = b->width;
    int64_t *lo = b->work, *hi = b->work + n, *lcp = b->work + 2 * n;
    int64_t *blocks = b->work + 3 * n;
    int64_t admitted = 0;
    int split = 0;
    for (int64_t q = 0; q < n; q++) {
        if (b->lcps[q] < l1)
            continue;
        lo[admitted] = b->los[q];
        hi[admitted] = b->his[q];
        lcp[admitted] = b->lcps[q];
        /* 0: one l1-block; else bit 0 / bit 1 mark a stored low / high
         * boundary block of a query that spans several. */
        int64_t stored = 0;
        if (l1 && shift_right(b->los[q], width - l1) != shift_right(b->his[q], width - l1)) {
            stored = 4 | (b->lo_lcps[q] >= l1) | ((int64_t)(b->hi_lcps[q] >= l1) << 1);
            split = 1;
        }
        blocks[admitted] = stored;
        admitted++;
    }
    uint64_t largest = 0, table_width = (uint64_t)b->table_width;
    for (int64_t r = 0; r < num_lens; r++) {
        int64_t l2 = b->lens[r];
        /* the low l2 - l1 bits: a slot's position inside its l1-block */
        uint64_t low = l1 ? ~(~(uint64_t)0 << (l2 - l1)) : 0;
        const double *row = b->table + r * b->table_width;
        int64_t count = split
            ? row_values(lo, hi, lcp, blocks, admitted, l2, width - l2, low, b->max_probes,
                         row, table_width, b->values, &largest, 1)
            : row_values(lo, hi, lcp, blocks, admitted, l2, width - l2, low, b->max_probes,
                         row, table_width, b->values, &largest, 0);
        finish_row(b, r, admitted, count);
    }
    return largest > (uint64_t)INT64_MAX ? INT64_MAX : (int64_t)largest;
}

/* The byte kernel's view of one query: first_bits[q] = 8 * d, where d is
 * the first byte at which lo and hi differ (stride if none), and the
 * big-endian 64-bit windows of bytes [d, d + 8) of lo and hi (zero past
 * the row).  Bound once per model: every l2-slot interval of the query
 * is read from them (see cpfpr_byte_row). */
void cpfpr_byte_windows(const uint8_t *lo_rows, const uint8_t *hi_rows, int64_t n,
                        int64_t stride, int64_t *first_bits, uint64_t *lo_windows,
                        uint64_t *hi_windows) {
    for (int64_t q = 0; q < n; q++) {
        const uint8_t *lo = lo_rows + q * stride, *hi = hi_rows + q * stride;
        int64_t d = 0;
        while (d < stride && lo[d] == hi[d])
            d++;
        uint64_t lo_window = 0, hi_window = 0;
        for (int64_t j = d; j < d + 8; j++) {
            lo_window = (lo_window << 8) | (j < stride ? lo[j] : 0);
            hi_window = (hi_window << 8) | (j < stride ? hi[j] : 0);
        }
        first_bits[q] = 8 * d;
        lo_windows[q] = lo_window;
        hi_windows[q] = hi_window;
    }
}

/* Expected FPRs of the Proteus designs (l1, lens[r], bits) over a byte
 * model's n empty sample queries (L(q) and cpfpr_byte_windows' view of
 * the padded bounds): the numpy reference cpfpr_byte_row in
 * _numpy_backend.py, restated, with repro.keys.bytestr.byte_slot_bounds'
 * slot intervals.
 *
 * The trie gate admits L(q) >= l1, and an admitted query probes every
 * l2-slot of its interval (byte filters do not prune by l1-block).  With
 * nb = ceil(l2 / 8), byte_slot_bounds takes the interval from the
 * big-endian windows over the trailing eight bytes of the masked nb-byte
 * prefixes of lo and hi, and clamps a query whose bounds differ above
 * those eight bytes or that spans more than max_probes slots.  Bytes
 * before d are equal in both bounds, so with t = l2 - 8 * d: t <= 0 gives
 * one slot, t > 64 (d < nb - 8) a clamp, and otherwise the interval is
 * the difference of the leading t bits of the two windows.  Certain
 * (L(q) >= l2) and clamped queries count 1, the others 1 - table[r][k]
 * for their k slots, summed as in cpfpr_row.  Returns the largest k met, or
 * -2, writing nothing, unless 0 <= l1 < lens[r] <= width for every r. */
int64_t cpfpr_byte_row(const cpfpr_rows *b, int64_t l1, int64_t num_lens) {
    if (bad_lens(b, l1, num_lens))
        return -2;
    int64_t n = b->n;
    int64_t *lcp = b->work, *bits = b->work + n;
    uint64_t *lo = (uint64_t *)(b->work + 2 * n), *hi = (uint64_t *)(b->work + 3 * n);
    int64_t admitted = 0;
    for (int64_t q = 0; q < n; q++) {
        if (b->lcps[q] < l1)
            continue;
        lcp[admitted] = b->lcps[q];
        bits[admitted] = b->first_bits[q];
        lo[admitted] = b->lo_windows[q];
        hi[admitted] = b->hi_windows[q];
        admitted++;
    }
    uint64_t largest = 0, table_width = (uint64_t)b->table_width, max_probes = b->max_probes;
    double *values = b->values;
    for (int64_t r = 0; r < num_lens; r++) {
        int64_t l2 = b->lens[r];
        const double *row = b->table + r * b->table_width;
        int64_t count = 0;
        for (int64_t i = 0; i < admitted; i++) {
            int64_t t = l2 - bits[i];
            int64_t shift = 64 - (t < 1 ? 1 : (t > 64 ? 64 : t));
            uint64_t span = t > 0 ? (hi[i] >> shift) - (lo[i] >> shift) : 0;
            uint64_t active = (uint64_t)((lcp[i] < l2) & (t <= 64) & (span < max_probes));
            uint64_t k = (span + 1) & -active;
            largest = k > largest ? k : largest;
            values[count] = 1.0 - row[k < table_width ? k : 0];
            count += (int64_t)active;
        }
        finish_row(b, r, admitted, count);
    }
    return largest > (uint64_t)INT64_MAX ? INT64_MAX : (int64_t)largest;
}
