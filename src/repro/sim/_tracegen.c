/* Compiled column trace generator for the cycle-accurate tier.
 *
 * One exported entrypoint, repro_generate_trace, replays
 * repro.sim.trace.TraceGenerator._generate_reference draw for draw and
 * writes the nine TraceArrays columns (see repro.sim.soa) instead of
 * building MicroOp objects.  The scalar reference stays the twin: the
 * parity suite asserts identical columns and identical generator state
 * (RNG, PC, hot set, sweep positions, branch tables) afterwards.
 *
 * Bit-identity rests on three things:
 *
 *   - the draws are CPython's.  genrand_uint32 is _randommodule.c's
 *     MT19937 over the state random.Random.getstate() hands over;
 *     random() is ((a >> 5) * 2**26 + (b >> 6)) * 2**-53;
 *     getrandbits(k) fills 32-bit words low word first and shifts the
 *     last one right by 32 - (its remaining bits); _randbelow(n) is the
 *     rejection loop over getrandbits(n.bit_length()).  randint(16, 64)
 *     is 16 + _randbelow(49) and choice(hot) is hot[_randbelow(len)];
 *   - the draw order is the reference's, short-circuits included: the
 *     taken-branch draw happens only for branches, the hot-set draw
 *     only when the hot set is non-empty, and the geometric loop draws
 *     once more at distance 64 before its bound stops it;
 *   - every floating-point threshold (the geometric p, the op-mix
 *     cuts, the rates, the cumulative working-set shares) is computed
 *     in Python with the reference's own expressions and passed in, so
 *     this side only compares doubles it did not compute.
 *
 * All state arrives in caller-owned copies and leaves through them; the
 * caller writes it back into the generator only when the call returns
 * 0.  A negative status is an allocation failure.  -1 is the None
 * sentinel in every column, as in TraceArrays.
 *
 * The same MT19937 port also feeds the simulators' measurement noise:
 * repro_noise_fill writes, from a state random.Random(seed).getstate()
 * handed over, the next standard normal draws random.Random.gauss(0.0,
 * 1.0) would return, pair by pair, through the same libm calls (see
 * repro.native.NoiseBlocks).
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

/* iparams layout: fixed scalars, then one block count per working-set
 * region */
enum {
    G_NUM_REGISTERS = 0,
    G_CODE_BLOCKS,
    G_BLOCK_BYTES,
    G_HOT_CAP,
    G_REGIONS,
    G_BRANCH_CAP,
    G_COUNT
};

/* fparams layout: fixed thresholds, then one cumulative share per
 * working-set region */
enum {
    F_GEOMETRIC = 0,
    F_MEM,
    F_BRANCH_CUT,
    F_MISPREDICT,
    F_L1_MISS,
    F_HARD,
    F_COUNT
};

/* state layout (in and out) */
enum {
    T_PC = 0,
    T_MT_INDEX,
    T_HOT_LEN,
    T_BRANCHES,
    T_WIDE,
    T_COUNT
};

#define KIND_ALU 0
#define KIND_LOAD 1
#define KIND_STORE 2
#define KIND_BRANCH 3

/* the literals of _code_address / _cold_address / _generate_reference */
#define CODE_BASE (2LL << 40)
#define REGION_STRIDE (1LL << 30)
#define STREAM_BASE (1LL << 34)
#define STREAM_BLOCKS ((256LL << 20) / 64)
#define MAX_DISTANCE 64

/* ---- CPython's MT19937 (Modules/_randommodule.c) -------------------- */

#define MT_N 624
#define MT_M 397
#define MATRIX_A 0x9908b0dfU
#define UPPER_MASK 0x80000000U
#define LOWER_MASK 0x7fffffffU

typedef struct {
    uint32_t *key;
    int64_t index;
} Mt;

static uint32_t genrand_uint32(Mt *m) {
    static const uint32_t mag01[2] = {0x0U, MATRIX_A};
    uint32_t *mt = m->key;
    uint32_t y;
    if (m->index >= MT_N) {
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
        m->index = 0;
    }
    y = mt[m->index++];
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    return y;
}

/* random.random() */
static double random_double(Mt *m) {
    uint32_t a = genrand_uint32(m) >> 5;
    uint32_t b = genrand_uint32(m) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* random.getrandbits(k) for 1 <= k <= 64 */
static uint64_t getrandbits(Mt *m, int k) {
    uint64_t low, high;
    if (k <= 32)
        return genrand_uint32(m) >> (32 - k);
    low = genrand_uint32(m);
    high = genrand_uint32(m) >> (64 - k);
    return low | (high << 32);
}

static int bit_length(uint64_t n) {
    int k = 0;
    while (n) {
        k++;
        n >>= 1;
    }
    return k;
}

/* ---- measurement noise: random.Random(seed).gauss(0.0, 1.0) --------- */

/* The next count (even) draws of gauss(0.0, 1.0) from the state, in
 * order.  state holds MT_N words and then the index, as getstate()[1]
 * lists them, and is advanced in place.  Each pair is gauss's Box-Muller step, cos first, then the sin
 * it keeps as gauss_next.  The angle is read back from a volatile so
 * the compiler cannot merge the two calls into one sincos, whose
 * argument reduction may round differently from sin's and cos's. */
void repro_noise_fill(uint32_t *state, int64_t count, double *out) {
    Mt m;
    int64_t i;
    m.key = state;
    m.index = state[MT_N];
    for (i = 0; i + 1 < count; i += 2) {
        volatile double angle = random_double(&m) * 6.283185307179586;
        const double radius = sqrt(-2.0 * log(1.0 - random_double(&m)));
        out[i] = cos(angle) * radius;
        out[i + 1] = sin(angle) * radius;
    }
    state[MT_N] = (uint32_t)m.index;
}

/* Random._randbelow_with_getrandbits(n) for n >= 1, with k precomputed
 * as n.bit_length() */
static int64_t randbelow(Mt *m, uint64_t n, int k) {
    uint64_t r = getrandbits(m, k);
    while (r >= n)
        r = getrandbits(m, k);
    return (int64_t)r;
}

/* ---- branch table: open addressing over entry indices --------------- */

typedef struct {
    int64_t *slots; /* entry index + 1; 0 = empty */
    uint64_t mask;
    int shift;
} BranchIndex;

static uint64_t slot_of(const BranchIndex *b, int64_t key) {
    return (((uint64_t)key >> 6) * 0x9E3779B97F4A7C15ULL) >> b->shift;
}

static int branch_index_init(BranchIndex *b, int64_t capacity) {
    uint64_t size = 16;
    int bits = 4;
    while (size < 2 * (uint64_t)capacity) {
        size <<= 1;
        bits++;
    }
    b->slots = (int64_t *)calloc((size_t)size, sizeof(int64_t));
    b->mask = size - 1;
    b->shift = 64 - bits;
    return b->slots == NULL ? -1 : 0;
}

/* Slot holding ``key``, or the empty slot where it belongs. */
static uint64_t branch_find(const BranchIndex *b, const int64_t *keys,
                            int64_t key) {
    uint64_t slot = slot_of(b, key);
    while (b->slots[slot] != 0 && keys[b->slots[slot] - 1] != key)
        slot = (slot + 1) & b->mask;
    return slot;
}

/* ---- generator ------------------------------------------------------- */

/* Reverse values[lo:hi] in place. */
static void reverse(int64_t *values, int64_t lo, int64_t hi) {
    for (hi--; lo < hi; lo++, hi--) {
        int64_t swap = values[lo];
        values[lo] = values[hi];
        values[hi] = swap;
    }
}

int64_t repro_generate_trace(
    int64_t count,
    const int64_t *iparams,
    const double *fparams,
    int64_t *state,
    uint32_t *mt_key,
    int64_t *hot,
    int64_t *sweep,
    int64_t *branch_keys,
    double *branch_bias,
    int64_t *branch_targets,
    int8_t *kinds,
    int64_t *sources,
    int64_t *dests,
    int64_t *addresses,
    int8_t *mispredicted,
    int64_t *code_addresses,
    int8_t *taken,
    int64_t *targets)
{
    const uint64_t num_registers = (uint64_t)iparams[G_NUM_REGISTERS];
    const uint64_t code_blocks = (uint64_t)iparams[G_CODE_BLOCKS];
    const int64_t block_bytes = iparams[G_BLOCK_BYTES];
    const int64_t hot_cap = iparams[G_HOT_CAP];
    const int64_t regions = iparams[G_REGIONS];
    const int64_t *region_blocks = iparams + G_COUNT;
    const double p_geometric = fparams[F_GEOMETRIC];
    const double mem = fparams[F_MEM];
    const double branch_cut = fparams[F_BRANCH_CUT];
    const double mispredict_rate = fparams[F_MISPREDICT];
    const double l1_miss_rate = fparams[F_L1_MISS];
    const double hard_fraction = fparams[F_HARD];
    const double *region_shares = fparams + F_COUNT;
    const int register_bits = bit_length(num_registers);
    const int code_bits = bit_length(code_blocks);
    const int stale_bits = bit_length(49);
    const int stream_bits = bit_length(STREAM_BLOCKS);
    Mt mt;
    BranchIndex index;
    int64_t pc = state[T_PC];
    int64_t hot_len = state[T_HOT_LEN];
    int64_t hot_head = 0; /* oldest entry; moves only once the ring is full */
    int64_t branches = state[T_BRANCHES];
    int64_t wide = 0;
    int64_t op, i;

    if (branch_index_init(&index, iparams[G_BRANCH_CAP]) != 0)
        return -1;
    for (i = 0; i < branches; i++)
        index.slots[branch_find(&index, branch_keys, branch_keys[i])] = i + 1;
    mt.key = mt_key;
    mt.index = state[T_MT_INDEX];

    for (op = 0; op < count; op++) {
        int64_t distance = 1, producer, src0, src1 = -1, dest, code_address;
        int is_branch;
        double draw;

        /* _dependency_distance: geometric, at least 1 */
        while (random_double(&mt) > p_geometric && distance < MAX_DISTANCE)
            distance++;
        producer = op - distance;
        src0 = producer >= 0 ? dests[producer] : -1;
        if (src0 < 0)
            src0 = randbelow(&mt, num_registers, register_bits);
        if (random_double(&mt) < 0.6) {
            int64_t stale = op - (16 + randbelow(&mt, 49, stale_bits));
            src1 = stale >= 0 ? dests[stale] : -1;
            if (src1 < 0)
                src1 = randbelow(&mt, num_registers, register_bits);
        }
        dest = randbelow(&mt, num_registers, register_bits);
        draw = random_double(&mt);
        is_branch = mem <= draw && draw < branch_cut;

        /* _code_address */
        if (is_branch && random_double(&mt) < 0.6)
            pc = randbelow(&mt, code_blocks, code_bits);
        code_address = CODE_BASE + pc * block_bytes;
        if (random_double(&mt) < 1.0 / 16.0)
            pc = (pc + 1) % (int64_t)code_blocks;
        code_addresses[op] = code_address;

        if (draw < mem) {
            int is_load = random_double(&mt) < 0.7;
            int64_t address = 0;
            int hit = 0;
            /* _address: re-touch the hot set, or go cold */
            if (hot_len > 0 && random_double(&mt) > l1_miss_rate) {
                int64_t pick = randbelow(&mt, (uint64_t)hot_len,
                                         bit_length((uint64_t)hot_len));
                address = hot[(hot_head + pick) % hot_cap];
                hit = 1;
            }
            if (!hit) {
                /* _cold_address: working-set sweep or streaming */
                double value = random_double(&mt);
                int64_t r;
                for (r = 0; r < regions; r++) {
                    if (value < region_shares[r]) {
                        int64_t position = sweep[r];
                        sweep[r] = (position + 1) % region_blocks[r];
                        address = r * REGION_STRIDE + position * block_bytes;
                        break;
                    }
                }
                if (r == regions)
                    address = STREAM_BASE
                        + randbelow(&mt, STREAM_BLOCKS, stream_bits)
                            * block_bytes;
                if (hot_len < hot_cap) {
                    hot[(hot_head + hot_len) % hot_cap] = address;
                    hot_len++;
                } else {
                    hot[hot_head] = address;
                    hot_head = (hot_head + 1) % hot_cap;
                }
            }
            kinds[op] = is_load ? KIND_LOAD : KIND_STORE;
            sources[2 * op] = src0;
            sources[2 * op + 1] = is_load ? -1 : src1;
            dests[op] = is_load ? dest : -1;
            addresses[op] = address;
            mispredicted[op] = 0;
            taken[op] = -1;
            targets[op] = -1;
            if (!is_load && src1 >= 0)
                wide = 1;
        } else if (is_branch) {
            /* _branch_behaviour: the first visit fixes bias and target */
            uint64_t slot = branch_find(&index, branch_keys, code_address);
            int64_t entry;
            if (index.slots[slot] == 0) {
                entry = branches++;
                branch_keys[entry] = code_address;
                branch_bias[entry] =
                    random_double(&mt) < hard_fraction ? 0.5 : 0.97;
                branch_targets[entry] = CODE_BASE
                    + randbelow(&mt, code_blocks, code_bits) * block_bytes;
                index.slots[slot] = entry + 1;
            } else {
                entry = index.slots[slot] - 1;
            }
            taken[op] = random_double(&mt) < branch_bias[entry];
            mispredicted[op] = random_double(&mt) < mispredict_rate;
            kinds[op] = KIND_BRANCH;
            sources[2 * op] = src0;
            sources[2 * op + 1] = -1;
            dests[op] = -1;
            addresses[op] = -1;
            targets[op] = branch_targets[entry];
        } else {
            kinds[op] = KIND_ALU;
            sources[2 * op] = src0;
            sources[2 * op + 1] = src1;
            dests[op] = dest;
            addresses[op] = -1;
            mispredicted[op] = 0;
            taken[op] = -1;
            targets[op] = -1;
            if (src1 >= 0)
                wide = 1;
        }
    }
    free(index.slots);

    /* hand the hot set back oldest first: rotate the ring left by its
     * head with three reversals */
    reverse(hot, 0, hot_head);
    reverse(hot, hot_head, hot_cap);
    reverse(hot, 0, hot_cap);
    state[T_PC] = pc;
    state[T_MT_INDEX] = mt.index;
    state[T_HOT_LEN] = hot_len;
    state[T_BRANCHES] = branches;
    state[T_WIDE] = wide;
    return 0;
}
