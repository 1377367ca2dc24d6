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
 *     x_{i+1} = (x_i + y_i) % m, y_{i+1} = (y_i + i) % m.
 *
 * Built once per source hash with `cc -O2 -shared -fPIC` and loaded via
 * ctypes; no Python.h dependency, so any C toolchain suffices.
 */

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
