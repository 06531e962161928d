/* Compiled lower convex envelope for the runtime optimizer
 * (repro.runtime.optimizer).
 *
 * One exported entrypoint, repro_lower_envelope, builds the lower
 * convex envelope of Eqn. 5 from a point set's raw (speedup, cost)
 * keys plus the idle point: the hull compute_envelope builds, as point
 * positions.  The scalar twin is _build_envelope_reference; the
 * optimizer's tests assert that both give compute_envelope's hull and
 * owners.
 *
 * The keys.  Positions 0 .. n - 1 are the points and n stands for
 * idle.  They are ranked by (speedup, cost, position), so idle ranks
 * after every point carrying its key.  A key equal to the one kept
 * before it is dropped: the first position carrying a key owns it, and
 * idle joins only when no point carries its key.  Doubles compare as
 * Python floats do (-0.0 equals 0.0), so the kept keys are the
 * first-wins keys of compute_envelope, in its sorted order.
 *
 * The chain.  Andrew's monotone chain pops the last vertex while
 *     (x2 - x1) * (py - y1) - (y2 - y1) * (px - x1) <= 0,
 * the expression CPython evaluates one rounded operation at a time.
 * native.py compiles with -ffp-contract=off, so no multiply-add fuses
 * two of those roundings into one and the vertices match the Python
 * chain's exactly.
 *
 * The buffers.  keys holds the n speedups, then the n costs.  scratch
 * holds n + 1 ranked positions, sorted from scratch on every call, then
 * the hull's vertex positions, idle as -1.  Returns the vertex count,
 * or ENVELOPE_NAN_KEY when any key is NaN: NaN has no rank, and the
 * caller then runs the Python twin.
 */

#include <math.h>
#include <stdint.h>

#define ENVELOPE_NAN_KEY (-1)

struct keys {
    int64_t n;
    const double *speedups;
    const double *costs;
    double idle_speedup;
    double idle_cost;
};

static double speedup_of(const struct keys *k, int64_t position)
{
    return position == k->n ? k->idle_speedup : k->speedups[position];
}

static double cost_of(const struct keys *k, int64_t position)
{
    return position == k->n ? k->idle_cost : k->costs[position];
}

/* Whether position a ranks before position b. */
static int ranks_before(const struct keys *k, int64_t a, int64_t b)
{
    const double sa = speedup_of(k, a), sb = speedup_of(k, b);
    const double ca = cost_of(k, a), cb = cost_of(k, b);
    if (sa != sb)
        return sa < sb;
    if (ca != cb)
        return ca < cb;
    return a < b;
}

int64_t repro_lower_envelope(int64_t n, const double *keys,
                             double idle_speedup, double idle_cost,
                             int64_t *scratch)
{
    struct keys k;
    int64_t *const order = scratch;
    int64_t *const hull = scratch + n + 1;
    int64_t i, j, count = 0;
    double last_x = 0.0, last_y = 0.0;

    k.n = n;
    k.speedups = keys;
    k.costs = keys + n;
    k.idle_speedup = idle_speedup;
    k.idle_cost = idle_cost;
    for (i = 0; i <= n; ++i)
        if (isnan(speedup_of(&k, i)) || isnan(cost_of(&k, i)))
            return ENVELOPE_NAN_KEY;

    /* Insertion sort: the ranking is a strict total order, so any sort
     * gives this one order, and on a few dozen points the simplest one
     * costs about a microsecond. */
    for (i = 0; i <= n; ++i) {
        for (j = i; j > 0 && ranks_before(&k, i, order[j - 1]); --j)
            order[j] = order[j - 1];
        order[j] = i;
    }

    for (i = 0; i <= n; ++i) {
        const int64_t position = order[i];
        const double px = speedup_of(&k, position);
        const double py = cost_of(&k, position);
        if (i > 0 && px == last_x && py == last_y)
            continue;
        last_x = px;
        last_y = py;
        while (count >= 2) {
            const double x1 = speedup_of(&k, hull[count - 2]);
            const double y1 = cost_of(&k, hull[count - 2]);
            const double x2 = speedup_of(&k, hull[count - 1]);
            const double y2 = cost_of(&k, hull[count - 1]);
            const double cross = (x2 - x1) * (py - y1) - (y2 - y1) * (px - x1);
            /* As Python's `if cross <= 0: pop`: a NaN cross (from an
             * infinite key) keeps the vertex. */
            if (cross <= 0)
                --count;
            else
                break;
        }
        hull[count++] = position;
    }
    for (i = 0; i < count; ++i)
        if (hull[i] == n)
            hull[i] = -1;
    return count;
}
