/*
 * Table-driven native simulation loop for repro.simulation.native.
 *
 * One kernel serves every net: the dense tables of a CompiledNet (pre-sets,
 * displacements, the incremental-scheduling ``affected`` map and the
 * per-transition consensus-counter deltas) arrive as flattened CSR arrays.
 * The loop consumes randomness exactly like the generated Python stepper:
 *
 *   - MT19937 is CPython's (_randommodule.c): init_genrand, init_by_array
 *     over the 32-bit words of abs(seed), genrand_uint32;
 *   - getrandbits(k) returns the top k bits of one word for k <= 32 and
 *     otherwise fills 32-bit words from least to most significant, keeping
 *     the top bits of the last word;
 *   - _randbelow(n) draws getrandbits(n.bit_length()) until it is below n;
 *   - the uniform scheduler makes one randrange(total) per step and fires the
 *     first transition whose weight prefix sum exceeds the draw; the
 *     transition scheduler makes one choice(enabled) per step over the
 *     enabled transitions in index order.
 *
 * All arithmetic is int64.  The caller guarantees that no weight, weight
 * total, count or counter can leave int64 (CompiledNet.int64_safe); runs
 * beyond that bound never reach this file.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define MT_N 624
#define MT_M 397
#define MATRIX_A 0x9908b0dfU
#define UPPER_MASK 0x80000000U
#define LOWER_MASK 0x7fffffffU

/* The layout of random.Random.getstate()[1]: 624 words, then the index. */
typedef struct {
    uint32_t mt[MT_N];
    uint32_t index;
} mt_state;

typedef struct {
    int64_t num_transitions;
    const int64_t *pre_start;   /* num_transitions + 1 offsets */
    const int64_t *pre_index;
    const int64_t *pre_need;
    const int64_t *delta_start; /* num_transitions + 1 offsets */
    const int64_t *delta_index;
    const int64_t *delta_value;
    const int64_t *affected_start; /* num_transitions + 1 offsets */
    const int64_t *affected;
    const int64_t *consensus;   /* (d_one, d_zero, d_undef) per transition */
} net_tables;

/* The scalar inputs and outputs of one run. */
typedef struct {
    int64_t max_steps;
    int64_t stability_window;
    int64_t one, zero, undef;
    int64_t steps, consensus_value, consensus_since, terminated;
} run_args;

static uint32_t genrand_uint32(mt_state *state)
{
    static const uint32_t mag01[2] = {0x0U, MATRIX_A};
    uint32_t *mt = state->mt;
    uint32_t y;
    if (state->index >= MT_N) {
        int kk;
        for (kk = 0; kk < MT_N - MT_M; kk++) {
            y = (mt[kk] & UPPER_MASK) | (mt[kk + 1] & LOWER_MASK);
            mt[kk] = mt[kk + MT_M] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        for (; kk < MT_N - 1; kk++) {
            y = (mt[kk] & UPPER_MASK) | (mt[kk + 1] & LOWER_MASK);
            mt[kk] = mt[kk + (MT_M - MT_N)] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        y = (mt[MT_N - 1] & UPPER_MASK) | (mt[0] & LOWER_MASK);
        mt[MT_N - 1] = mt[MT_M - 1] ^ (y >> 1) ^ mag01[y & 0x1U];
        state->index = 0;
    }
    y = mt[state->index++];
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    return y;
}

static void init_genrand(mt_state *state, uint32_t s)
{
    uint32_t *mt = state->mt;
    int mti;
    mt[0] = s;
    for (mti = 1; mti < MT_N; mti++) {
        mt[mti] = (1812433253U * (mt[mti - 1] ^ (mt[mti - 1] >> 30)) + (uint32_t)mti);
    }
    state->index = MT_N;
}

static void init_by_array(mt_state *state, const uint32_t *key, size_t key_length)
{
    uint32_t *mt = state->mt;
    size_t i = 1, j = 0, k;
    init_genrand(state, 19650218U);
    k = (MT_N > key_length ? MT_N : key_length);
    for (; k; k--) {
        mt[i] = (mt[i] ^ ((mt[i - 1] ^ (mt[i - 1] >> 30)) * 1664525U)) + key[j] + (uint32_t)j;
        i++;
        j++;
        if (i >= MT_N) {
            mt[0] = mt[MT_N - 1];
            i = 1;
        }
        if (j >= key_length)
            j = 0;
    }
    for (k = MT_N - 1; k; k--) {
        mt[i] = (mt[i] ^ ((mt[i - 1] ^ (mt[i - 1] >> 30)) * 1566083941U)) - (uint32_t)i;
        i++;
        if (i >= MT_N) {
            mt[0] = mt[MT_N - 1];
            i = 1;
        }
    }
    mt[0] = 0x80000000U;
    state->index = MT_N;
}

/* random.Random(seed) for an int seed: init_by_array over the 32-bit words
 * of abs(seed), least significant first, given as little-endian bytes
 * (a multiple of four, at least four).  Returns 0, or -1 when memory for a
 * long key is short. */
int repro_seed(mt_state *state, const unsigned char *seed_bytes, int64_t length)
{
    size_t words = (size_t)length / 4, w;
    uint32_t small[8];
    uint32_t *key = words <= 8 ? small : (uint32_t *)malloc(words * sizeof(uint32_t));
    if (key == NULL)
        return -1;
    for (w = 0; w < words; w++) {
        const unsigned char *b = seed_bytes + 4 * w;
        key[w] = (uint32_t)b[0] | ((uint32_t)b[1] << 8) | ((uint32_t)b[2] << 16)
                 | ((uint32_t)b[3] << 24);
    }
    init_by_array(state, key, words);
    if (key != small)
        free(key);
    return 0;
}

/* getrandbits(k) for 1 <= k <= 64. */
static uint64_t getrandbits(mt_state *state, int k)
{
    uint64_t low, high;
    if (k <= 32)
        return genrand_uint32(state) >> (32 - k);
    low = genrand_uint32(state);
    high = genrand_uint32(state) >> (64 - k);
    return low | (high << 32);
}

/* _randbelow(n) for 1 <= n < 2**63. */
static int64_t randbelow(mt_state *state, int64_t n)
{
    uint64_t bound = (uint64_t)n, r;
    int k = 64 - __builtin_clzll(bound);
    do {
        r = getrandbits(state, k);
    } while (r >= bound);
    return (int64_t)r;
}

/* Exposed for the self-test: ``count`` draws of _randbelow(bounds[i % n]). */
void repro_draws(mt_state *state, const int64_t *bounds, int64_t num_bounds,
                 int64_t *out, int64_t count)
{
    int64_t i;
    for (i = 0; i < count; i++)
        out[i] = randbelow(state, bounds[i % num_bounds]);
}

static int64_t weight_of(const net_tables *net, const int64_t *counts, int64_t t)
{
    const int64_t start = net->pre_start[t], end = net->pre_start[t + 1];
    int64_t weight = 1, e;
    /* The pairwise interactions of population protocols: c_a * c_b. */
    if (end - start == 2 && net->pre_need[start] == 1 && net->pre_need[start + 1] == 1)
        return counts[net->pre_index[start]] * counts[net->pre_index[start + 1]];
    for (e = start; e < end; e++) {
        int64_t c = counts[net->pre_index[e]], need = net->pre_need[e], term, j;
        if (need == 1) {
            term = c;
        } else if (need == 2) {
            term = c * (c - 1) / 2;
        } else {
            /* C(c, need); each partial product is itself a binomial times
             * its index, so every division is exact. */
            term = 1;
            for (j = 0; j < need && term; j++)
                term = term * (c - j) / (j + 1);
        }
        weight *= term;
        if (!weight)
            break;
    }
    return weight;
}

static int enabled_of(const net_tables *net, const int64_t *counts, int64_t t)
{
    int64_t e;
    for (e = net->pre_start[t]; e < net->pre_start[t + 1]; e++)
        if (counts[net->pre_index[e]] < net->pre_need[e])
            return 0;
    return 1;
}

static int64_t consensus_of(int64_t one, int64_t zero, int64_t undef)
{
    if (undef != 0)
        return -1;
    return one == 0 ? 0 : (zero == 0 ? 1 : -1);
}

/* Weights are kept per block of BLOCK transitions as well, so selection
 * scans block sums first: O(T / BLOCK + BLOCK) per step, same draw. */
#define BLOCK 16

/*
 * One run.  ``kind`` is 0 for the uniform scheduler, 1 for the transition
 * scheduler.  With ``seed_length > 0`` the run draws from a generator seeded
 * like random.Random(seed) (see repro_seed) and ``state`` may be NULL;
 * otherwise it draws from ``state`` and leaves it advanced.  ``ring`` may be
 * NULL.  ``counts`` is updated in place.  Returns 0, or -1 when memory is
 * short.
 */
int repro_run(const net_tables *net, int kind, int64_t *counts, mt_state *state,
              const unsigned char *seed, int64_t seed_length, run_args *args,
              int32_t *ring, int64_t capacity)
{
    mt_state seeded;
    const int64_t T = net->num_transitions;
    const int64_t num_blocks = (T + BLOCK - 1) / BLOCK;
    int64_t *weights = NULL, *blocks = NULL;
    unsigned char *flags = NULL;
    int64_t total = 0, num_enabled = 0, t, u, e;
    int64_t step = 0, rpos = 0, terminated = 0;
    int64_t one = args->one, zero = args->zero, undef = args->undef;
    int64_t consensus_value = consensus_of(one, zero, undef);
    int64_t consensus_since = consensus_value >= 0 ? 0 : -1;
    const int64_t max_steps = args->max_steps, window = args->stability_window;

    if (seed_length > 0) {
        if (repro_seed(&seeded, seed, seed_length) != 0)
            return -1;
        state = &seeded;
    }
    if (kind == 0) {
        weights = (int64_t *)calloc((size_t)(num_blocks * BLOCK + 1), sizeof(int64_t));
        blocks = (int64_t *)calloc((size_t)(num_blocks + 1), sizeof(int64_t));
        if (weights == NULL || blocks == NULL)
            goto oom;
        for (t = 0; t < T; t++) {
            weights[t] = weight_of(net, counts, t);
            blocks[t / BLOCK] += weights[t];
            total += weights[t];
        }
    } else {
        flags = (unsigned char *)calloc((size_t)(T + 1), 1);
        if (flags == NULL)
            goto oom;
        for (t = 0; t < T; t++) {
            flags[t] = (unsigned char)enabled_of(net, counts, t);
            num_enabled += flags[t];
        }
    }

    while (step < max_steps) {
        if (kind == 0) {
            int64_t pick, cumulative = 0, b = 0;
            if (total <= 0) {
                terminated = 1;
                break;
            }
            pick = randbelow(state, total);
            if (num_blocks > 1) {
                while (pick >= cumulative + blocks[b])
                    cumulative += blocks[b++];
            }
            t = b * BLOCK;
            while (pick >= cumulative + weights[t])
                cumulative += weights[t++];
        } else {
            int64_t r, seen = -1;
            if (num_enabled == 0) {
                terminated = 1;
                break;
            }
            r = randbelow(state, num_enabled);
            for (t = 0; t < T; t++) {
                seen += flags[t];
                if (seen == r && flags[t])
                    break;
            }
        }
        step++;
        if (ring != NULL) {
            ring[rpos++] = (int32_t)t;
            if (rpos == capacity)
                rpos = 0;
        }
        for (e = net->delta_start[t]; e < net->delta_start[t + 1]; e++)
            counts[net->delta_index[e]] += net->delta_value[e];
        for (e = net->affected_start[t]; e < net->affected_start[t + 1]; e++) {
            u = net->affected[e];
            if (kind == 0) {
                int64_t weight = weight_of(net, counts, u);
                int64_t diff = weight - weights[u];
                weights[u] = weight;
                blocks[u / BLOCK] += diff;
                total += diff;
            } else {
                unsigned char flag = (unsigned char)enabled_of(net, counts, u);
                num_enabled += (int64_t)flag - (int64_t)flags[u];
                flags[u] = flag;
            }
        }
        {
            const int64_t *d = net->consensus + 3 * t;
            if (d[0] || d[1] || d[2]) {
                int64_t value;
                one += d[0];
                zero += d[1];
                undef += d[2];
                value = consensus_of(one, zero, undef);
                if (value != consensus_value) {
                    consensus_value = value;
                    consensus_since = value >= 0 ? step : -1;
                }
            }
        }
        if (consensus_value >= 0 && step - consensus_since >= window)
            break;
    }

    args->steps = step;
    args->consensus_value = consensus_value;
    args->consensus_since = consensus_since;
    args->terminated = terminated;
    free(weights);
    free(blocks);
    free(flags);
    return 0;

oom:
    free(weights);
    free(blocks);
    free(flags);
    return -1;
}
