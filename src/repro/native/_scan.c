/* Level-2 member scan over the FlatTargets CSR layout.
 *
 * One call scans every active query of one query cluster: Algorithm 2
 * with the updating bound theta (full != 0), or Sweet KNN's partial
 * filter with theta fixed at the level-1 UB and a (distance, index)
 * k-select of the survivors (full == 0).  Decisions, results and
 * counters are those of repro.native.scan_numpy, bit for bit:
 *
 *   - a distance is sqrt(ddot(d, t - q, 1, t - q, 1)) through numpy's
 *     own BLAS ddot, passed in as a function pointer;
 *   - the bound arithmetic is the same IEEE expressions, compiled with
 *     -ffp-contract=off so theta + tol is never fused;
 *   - the full scan's heap replays KNearestHeap's sift move for move,
 *     so the output keeps its tie order.
 *
 * Per query, out_d/out_i (k wide) hold the neighbours, ascending, and
 * counters (NCOUNT wide) hold steps, breaks, examined, accepted, n_out.
 * diff (d long) and td/ti (k long) are the caller's scratch.
 *
 * A query whose candidate clusters hold at least dense_min members
 * within its own bound (dense_pick, repro.native.scan_numpy's rule
 * replayed) is not scanned: its n_out is -1 and the caller answers it
 * on the dense route.
 */
#include <math.h>
#include <string.h>

typedef long long i64;
typedef double (*ddot_fn)(i64 n, const double *x, i64 incx,
                          const double *y, i64 incy);

enum { STEPS, BREAKS, EXAMINED, ACCEPTED, N_OUT, NCOUNT };

static void swap(double *hd, i64 *hi, i64 a, i64 b)
{
    double td = hd[a];
    i64 ti = hi[a];
    hd[a] = hd[b];
    hi[a] = hi[b];
    hd[b] = td;
    hi[b] = ti;
}

/* Heap order: by distance (KNearestHeap, ties stay put) or, with
 * by_pair, by (distance, index) (select_k_flat's lexsort keys). */
static int above(const double *hd, const i64 *hi, i64 a, i64 b, int by_pair)
{
    return hd[a] > hd[b] || (by_pair && hd[a] == hd[b] && hi[a] > hi[b]);
}

static void sift_down(double *hd, i64 *hi, i64 n, i64 pos, int by_pair)
{
    for (;;) {
        i64 left = 2 * pos + 1, right = left + 1, top = pos;
        if (left < n && above(hd, hi, left, top, by_pair))
            top = left;
        if (right < n && above(hd, hi, right, top, by_pair))
            top = right;
        if (top == pos)
            return;
        swap(hd, hi, pos, top);
        pos = top;
    }
}

/* KNearestHeap.sorted_items in place: drop the empty slots, then a
 * stable bottom-up merge sort by distance (heap-array order among
 * ties), through the k-long buffers td/ti. */
static i64 sort_heap(double *hd, i64 *hi, i64 k, double *td, i64 *ti)
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
                int left = b >= end || (a < mid && !(hd[b] < hd[a]));
                i64 from = left ? a++ : b++;
                td[o] = hd[from];
                ti[o] = hi[from];
            }
        }
        memcpy(hd, td, n * sizeof *hd);
        memcpy(hi, ti, n * sizeof *hi);
    }
    return n;
}

/* Bounded max-heap of the k smallest (distance, index) pairs. */
static void offer_pair(double *hd, i64 *hi, i64 k, i64 *n, double dist,
                       i64 idx)
{
    if (*n < k) {
        i64 pos = (*n)++;
        hd[pos] = dist;
        hi[pos] = idx;
        for (; pos > 0 && above(hd, hi, pos, (pos - 1) / 2, 1);
             pos = (pos - 1) / 2)
            swap(hd, hi, pos, (pos - 1) / 2);
    } else if (hd[0] > dist || (hd[0] == dist && hi[0] > idx)) {
        hd[0] = dist;
        hi[0] = idx;
        sift_down(hd, hi, k, 0, 1);
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

void scan(int full, ddot_fn ddot, const double *points, i64 d,
          const i64 *member_idx, const double *member_dists,
          const i64 *offsets, const double *queries, const double *rows,
          i64 nq, i64 row_stride, const i64 *cand, i64 n_cand, double ub,
          i64 k, double rtol, i64 dense_min, double *diff, double *td,
          i64 *ti, double *out_d, i64 *out_i, i64 *counters)
{
    i64 cand_mass = 0;
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
        c[STEPS] = c[BREAKS] = c[EXAMINED] = c[ACCEPTED] = 0;
        if (cand_mass >= dense_min
                && dense_pick(row, member_dists, offsets, cand, n_cand, k,
                              dense_min)) {
            c[N_OUT] = -1;
            continue;
        }
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
                if (!full) {
                    offer_pair(hd, hi, k, &n, dist, t);
                    continue;
                }
                /* TopKAccumulator.offer: the limit changes only here. */
                if (dist < hd[0]) {
                    if (hi[0] == -1)
                        n++;
                    hd[0] = dist;
                    hi[0] = t;
                    sift_down(hd, hi, k, 0, 0);
                    c[ACCEPTED]++;
                    if (n >= k)
                        theta = hd[0] < ub ? hd[0] : ub;
                    limit = theta + tol;
                }
            }
        }
        if (full) {
            c[N_OUT] = sort_heap(hd, hi, k, td, ti);
            continue;
        }
        for (i64 m = n - 1; m > 0; m--) {   /* heap sort, ascending */
            swap(hd, hi, 0, m);
            sift_down(hd, hi, m, 0, 1);
        }
        c[ACCEPTED] = c[EXAMINED];
        c[N_OUT] = n;
    }
}
