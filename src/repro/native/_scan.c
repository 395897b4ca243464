/* Level-2 member scan over the FlatTargets CSR layout.
 *
 * One call scans every active query of one query cluster with
 * Algorithm 2's updating bound theta.  Decisions, results and counters
 * are those of repro.native.scan_numpy, bit for bit:
 *
 *   - a distance is sqrt(ddot(d, t - q, 1, t - q, 1)) through numpy's
 *     own BLAS ddot, passed in as a function pointer;
 *   - the bound arithmetic is the same IEEE expressions, compiled with
 *     -ffp-contract=off so theta + tol is never fused;
 *   - the heap keeps KNearestHeap's (distance, index) order, so a tie
 *     across the k-th place goes to the lower index, as in brute.
 *
 * Per query, out_d/out_i (k wide) hold the neighbours, ascending and
 * padded with INFINITY / -1, and counters (NCOUNT wide) hold the
 * ScanTrace fields in repro.core.filters.SCAN_COUNTERS order.  diff
 * (d long) and td/ti (k long) are the caller's scratch.
 *
 * A query whose candidate clusters hold at least dense_min members
 * within its own bound (dense_pick, repro.native.scan_numpy's rule
 * replayed) is not scanned: its dense flag is 1, its row stays padding
 * and its counters 0, and the caller answers it on the dense route.
 * scan returns the number of such queries.
 */
#include <math.h>
#include <string.h>

typedef long long i64;
typedef double (*ddot_fn)(i64 n, const double *x, i64 incx,
                          const double *y, i64 incy);

enum { EXAMINED, DISTANCES, CENTER_DISTANCES, HEAP_UPDATES, ACCEPTED,
       BREAKS, STEPS, NCOUNT };

/* Whether (da, ia) follows (db, ib) in (distance, index) order. */
static int after(double da, i64 ia, double db, i64 ib)
{
    return da > db || (da == db && ia > ib);
}

/* repro.kselect.heap.replace_root: sift (dist, t) down from the root. */
static void sift_down(double *hd, i64 *hi, i64 n, double dist, i64 t)
{
    i64 pos = 0;
    for (;;) {
        i64 child = 2 * pos + 1;
        if (child >= n)
            break;
        if (child + 1 < n
                && after(hd[child + 1], hi[child + 1], hd[child], hi[child]))
            child++;
        if (!after(hd[child], hi[child], dist, t))
            break;
        hd[pos] = hd[child];
        hi[pos] = hi[child];
        pos = child;
    }
    hd[pos] = dist;
    hi[pos] = t;
}

/* KNearestHeap.sorted_items in place: drop the empty slots, then a
 * bottom-up merge sort by (distance, index) through the k-long
 * buffers td/ti; the slots past the neighbours are padded. */
static void sort_heap(double *hd, i64 *hi, i64 k, double *td, i64 *ti)
{
    i64 n = 0;
    for (i64 j = 0; j < k; j++)
        if (hi[j] >= 0) {
            hd[n] = hd[j];
            hi[n] = hi[j];
            n++;
        }
    for (i64 w = 1; w < n; w *= 2) {
        for (i64 lo = 0; lo < n; lo += 2 * w) {
            i64 mid = lo + w < n ? lo + w : n;
            i64 end = lo + 2 * w < n ? lo + 2 * w : n;
            for (i64 a = lo, b = mid, o = lo; o < end; o++) {
                int left = b >= end
                    || (a < mid && after(hd[b], hi[b], hd[a], hi[a]));
                i64 from = left ? a++ : b++;
                td[o] = hd[from];
                ti[o] = hi[from];
            }
        }
        memcpy(hd, td, n * sizeof *hd);
        memcpy(hi, ti, n * sizeof *hi);
    }
    for (i64 j = n; j < k; j++) {
        hd[j] = INFINITY;
        hi[j] = -1;
    }
}

static i64 cluster_size(const i64 *offsets, i64 tc)
{
    return offsets[tc + 1] - offsets[tc];
}

/* Members of the candidate clusters with row - head <= bound. */
static i64 mass_within(const double *row, const double *member_dists,
                       const i64 *offsets, const i64 *cand, i64 n_cand,
                       double bound)
{
    i64 mass = 0;
    for (i64 j = 0; j < n_cand; j++) {
        i64 tc = cand[j], size = cluster_size(offsets, tc);
        if (size && row[tc] - member_dists[offsets[tc]] <= bound)
            mass += size;
    }
    return mass;
}

/* The smallest row + head at which the candidate clusters, taken in
 * that order, hold k members; INFINITY when they never do. */
static double kth_bound(const double *row, const double *member_dists,
                        const i64 *offsets, const i64 *cand, i64 n_cand,
                        i64 k)
{
    double reached = -INFINITY;
    for (i64 held = 0; held < k;) {
        double next = INFINITY;
        for (i64 j = 0; j < n_cand; j++) {
            i64 tc = cand[j];
            if (!cluster_size(offsets, tc))
                continue;
            double key = row[tc] + member_dists[offsets[tc]];
            if (key > reached && key < next)
                next = key;
        }
        if (next == INFINITY)
            return INFINITY;
        for (i64 j = 0; j < n_cand; j++) {
            i64 tc = cand[j], size = cluster_size(offsets, tc);
            if (size && row[tc] + member_dists[offsets[tc]] == next)
                held += size;
        }
        reached = next;
    }
    return reached;
}

/* Whether a query goes dense.  bound1, the row + head of the nearest
 * candidate holding k members alone, is at least the k-th bound, so a
 * query it rejects needs no ordering of the clusters. */
static int dense_pick(const double *row, const double *member_dists,
                      const i64 *offsets, const i64 *cand, i64 n_cand,
                      i64 k, i64 dense_min)
{
    double bound1 = INFINITY;
    for (i64 j = 0; j < n_cand; j++) {
        i64 tc = cand[j];
        if (cluster_size(offsets, tc) < k)
            continue;
        double key = row[tc] + member_dists[offsets[tc]];
        if (key < bound1)
            bound1 = key;
    }
    if (mass_within(row, member_dists, offsets, cand, n_cand, bound1)
            < dense_min)
        return 0;
    double bound = kth_bound(row, member_dists, offsets, cand, n_cand, k);
    return bound < INFINITY
        && mass_within(row, member_dists, offsets, cand, n_cand, bound)
            >= dense_min;
}

i64 scan(ddot_fn ddot, const double *points, i64 d,
         const i64 *member_idx, const double *member_dists,
         const i64 *offsets, const double *queries, const double *rows,
         i64 nq, i64 row_stride, const i64 *cand, i64 n_cand, double ub,
         i64 k, double rtol, i64 dense_min, double *diff, double *td,
         i64 *ti, double *out_d, i64 *out_i, i64 *counters,
         unsigned char *dense)
{
    i64 cand_mass = 0, n_dense = 0;
    for (i64 j = 0; j < n_cand; j++)
        cand_mass += cluster_size(offsets, cand[j]);
    for (i64 i = 0; i < nq; i++) {
        const double *q = queries + i * d, *row = rows + i * row_stride;
        double *hd = out_d + i * k, theta = ub;
        i64 *hi = out_i + i * k, *c = counters + i * NCOUNT, n = 0;
        for (i64 j = 0; j < k; j++) {
            hd[j] = INFINITY;
            hi[j] = -1;
        }
        memset(c, 0, NCOUNT * sizeof *c);
        dense[i] = cand_mass >= dense_min
            && dense_pick(row, member_dists, offsets, cand, n_cand, k,
                          dense_min);
        if (dense[i]) {
            n_dense++;
            continue;
        }
        c[CENTER_DISTANCES] = n_cand;
        for (i64 j = 0; j < n_cand; j++) {
            i64 tc = cand[j];
            double q2c = row[tc];
            double tol = rtol * (fabs(q2c) + fabs(ub) + 1.0);
            double limit = theta + tol;
            for (i64 p = offsets[tc]; p < offsets[tc + 1]; p++) {
                double lb = q2c - member_dists[p];
                c[STEPS]++;
                if (lb > limit) {
                    c[BREAKS]++;
                    break;
                }
                if (lb < -limit)
                    continue;
                c[EXAMINED]++;
                i64 t = member_idx[p];
                const double *tp = points + t * d;
                for (i64 x = 0; x < d; x++)
                    diff[x] = tp[x] - q[x];
                double dist = sqrt(ddot(d, diff, 1, diff, 1));
                /* TopKAccumulator.offer: the limit changes only here. */
                if (after(hd[0], hi[0], dist, t)) {
                    if (hi[0] == -1)
                        n++;
                    sift_down(hd, hi, k, dist, t);
                    c[ACCEPTED]++;
                    if (n >= k)
                        theta = hd[0] < ub ? hd[0] : ub;
                    limit = theta + tol;
                }
            }
        }
        c[DISTANCES] = c[EXAMINED];
        c[HEAP_UPDATES] = c[ACCEPTED];
        sort_heap(hd, hi, k, td, ti);
    }
    return n_dense;
}
