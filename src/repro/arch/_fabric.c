/* Compiled placement search for the fabric (repro.arch.fabric).
 *
 * One exported entrypoint, repro_fabric_place, picks the seed and the
 * region of Fabric.allocate's FAST path from the two free-tile masks
 * (one byte per tile, indexed by flat id y * width + x).  The scalar
 * twin is Fabric._place_reference, which grows a region from every
 * free Slice; the fabric's tests assert that both pick the same seed
 * and the same tiles in the same order.
 *
 * The seed.  Region growth walks through occupied tiles, so the region
 * a seed grows is its nearest free tiles of each kind, and its span is
 * the smallest radius whose Manhattan diamond around the seed holds
 * need_slices free Slices and need_banks free banks.  The scalar scan
 * keeps the first seed, in ascending flat id, of the smallest span.
 * Rotated by 45 degrees (u = x + y, v = x - y + height - 1) a diamond
 * is an axis-aligned box, so one inclusive prefix sum per kind over
 * the rotated grid counts it with four lookups.  No diamond of radius
 * r holds more than 2r^2 + 2r + 1 tiles, so no span is smaller than
 * the first radius where that reaches the request.  Each seed is tried
 * one radius below the best span so far and, when it fits there,
 * shrunk until it no longer does; a later seed must beat the best
 * strictly, so ties keep the first.
 *
 * The region.  On the full grid every tile at distance d >= 1 from the
 * seed neighbours one at d - 1, so growth's best-first heap pops tiles
 * in (distance, x, y) order.  The region is the first need_slices free
 * Slices and need_banks free banks in that order, read off the seed's
 * diamond ring by ring.
 *
 * Only integers are compared.  out receives flat ids, the Slices first,
 * then the banks.  Returns 0, PLACE_NO_MEMORY when the prefix sums
 * cannot be allocated, or PLACE_NO_FIT when no seed fits (the caller
 * checks both free counts first, so some seed always fits).
 */

#include <stdint.h>
#include <stdlib.h>

#define PLACE_NO_MEMORY (-1)
#define PLACE_NO_FIT (-2)

struct grid {
    int64_t width;
    int64_t height;
    int64_t side;   /* the rotated grid is side x side */
    int64_t stride; /* side + 1: row 0 and column 0 are the zero border */
    int64_t *slices;
    int64_t *banks;
};

/* Tiles counted by the inclusive prefix sum `sum` in rotated rows
 * [u0, u1) and columns [v0, v1). */
static int64_t box(const struct grid *g, const int64_t *sum, int64_t u0,
                   int64_t u1, int64_t v0, int64_t v1)
{
    return sum[u1 * g->stride + v1] - sum[u0 * g->stride + v1] -
           sum[u1 * g->stride + v0] + sum[u0 * g->stride + v0];
}

static int64_t max64(int64_t a, int64_t b) { return a > b ? a : b; }
static int64_t min64(int64_t a, int64_t b) { return a < b ? a : b; }

/* Whether the diamond of radius r around tile id, clipped to the
 * fabric, holds the request. */
static int fits(const struct grid *g, int64_t id, int64_t r,
                int64_t need_slices, int64_t need_banks)
{
    const int64_t x = id % g->width;
    const int64_t y = id / g->width;
    const int64_t u = x + y;
    const int64_t v = x - y + g->height - 1;
    const int64_t u0 = max64(u - r, 0);
    const int64_t u1 = min64(u + r + 1, g->side);
    const int64_t v0 = max64(v - r, 0);
    const int64_t v1 = min64(v + r + 1, g->side);
    return box(g, g->slices, u0, u1, v0, v1) >= need_slices &&
           box(g, g->banks, u0, u1, v0, v1) >= need_banks;
}

int64_t repro_fabric_place(int64_t width, int64_t height,
                           const int8_t *free_slices,
                           const int8_t *free_banks, int64_t need_slices,
                           int64_t need_banks, int64_t *out)
{
    const int64_t tiles = width * height;
    struct grid g;
    int64_t id, u, v, d, x, sx, sy, least = 0, seed = -1, span;
    int64_t slices = 0, banks = 0;

    g.width = width;
    g.height = height;
    g.side = width + height - 1;
    g.stride = g.side + 1;
    g.slices = calloc((size_t)(2 * g.stride * g.stride), sizeof *g.slices);
    if (g.slices == NULL)
        return PLACE_NO_MEMORY;
    g.banks = g.slices + g.stride * g.stride;
    for (id = 0; id < tiles; ++id) {
        const int64_t cell = (id % width + id / width + 1) * g.stride +
                             id % width - id / width + height;
        g.slices[cell] = free_slices[id] != 0;
        g.banks[cell] = free_banks[id] != 0;
    }
    for (u = 1; u <= g.side; ++u) {
        for (v = 1; v <= g.side; ++v) {
            const int64_t at = u * g.stride + v;
            const int64_t up = at - g.stride;
            g.slices[at] += g.slices[up] + g.slices[at - 1] - g.slices[up - 1];
            g.banks[at] += g.banks[up] + g.banks[at - 1] - g.banks[up - 1];
        }
    }

    while (2 * least * (least + 1) + 1 < need_slices + need_banks)
        ++least;
    span = width + height - 1; /* one past the radius covering the fabric */
    for (id = 0; id < tiles && span > least; ++id) {
        if (!free_slices[id] || !fits(&g, id, span - 1, need_slices, need_banks))
            continue;
        seed = id;
        --span;
        while (span > least && fits(&g, id, span - 1, need_slices, need_banks))
            --span;
    }
    free(g.slices);
    if (seed < 0)
        return PLACE_NO_FIT;

    /* Ring d in (x, y) order: x ascending, and at each x the smaller y
     * first. */
    sx = seed % width;
    sy = seed / width;
    for (d = 0; d <= span && (slices < need_slices || banks < need_banks); ++d) {
        for (x = max64(sx - d, 0); x <= min64(sx + d, width - 1); ++x) {
            const int64_t dy = d - (x > sx ? x - sx : sx - x);
            int64_t y;
            for (y = sy - dy; y <= sy + dy; y += dy > 0 ? 2 * dy : 1) {
                if (y < 0 || y >= height)
                    continue;
                id = y * width + x;
                if (free_slices[id] && slices < need_slices)
                    out[slices++] = id;
                if (free_banks[id] && banks < need_banks)
                    out[need_slices + banks++] = id;
            }
        }
    }
    return slices == need_slices && banks == need_banks ? 0 : PLACE_NO_FIT;
}
