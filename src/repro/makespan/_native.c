/* Native (compiled) kernels for the discrete distribution algebra.
 *
 * Each routine replicates the numpy operation order of its python
 * reference in repro/makespan/distribution.py **bit for bit**:
 *
 *   - sums over probability arrays use numpy's pairwise summation
 *     (block size 128, eight-way unrolled leaves, recursive halving at
 *     multiples of eight) so normalisation totals match np.sum exactly;
 *   - cumulative sums and scatter-adds are strictly sequential in
 *     array order, matching np.cumsum / np.add.at / np.bincount;
 *   - the convolve support sort is a bottom-up merge over the sorted
 *     runs of the virtual outer-sum grid, which yields exactly the
 *     order of np.argsort(kind="stable") on the ravelled grid: sort by
 *     value, ties by flat index (see convolve_core);
 *   - int casts truncate toward zero like ndarray.astype(int).
 *
 * Anything the reference would reject (non-finite totals, negative
 * probability atoms, NaN supports, bins that would make np.bincount
 * raise) returns the FALLBACK status instead of guessing: the caller
 * reruns the python path, which raises the reference error or handles
 * the case in the reference order.  Correctness is therefore pinned by
 * construction — the python path stays the bit-exactness oracle and
 * tests/test_native.py compares against it atom for atom.
 *
 * repro_replay_tape evaluates a compiled fold's root on demand over a
 * step table through the same convolve and max routines in one call,
 * so the pathapprox replay crosses ctypes once per cell and budget
 * round rather than per op.
 *
 * repro_normal_fold prices every cell of a Sculli template (Clark's
 * max folded over the DAG, repro/makespan/normal.py) in one call, with
 * libm's scalar erf and exp; the loader checks them against python's
 * math.erf and math.exp through repro_libm_probe before it uses the
 * fold, and runs the python fold if any probe value differs.
 *
 * repro_k_best_paths runs PathApprox's k-best path DP for every cell of
 * a budget round in one call and returns each path as rank-space mask
 * words; a cell whose order numpy would leave to argpartition's
 * tie-breaking (equal values where a node truncates) or to NaN sorting
 * declines, and numpy prices that row.
 *
 * Built on first use by repro/makespan/native.py with
 * `cc -O2 -ffp-contract=off -fPIC -shared`; no python headers required
 * (pure C + ctypes).  Floating-point contraction stays off (the pragma
 * below and the flag): an FMA rounds a*b+c once where numpy rounds twice.
 */

#pragma STDC FP_CONTRACT OFF

#include <limits.h>
#include <math.h>
#include <stddef.h>
#include <stdlib.h>
#include <string.h>

#define REPRO_NATIVE_ABI 5
#define FALLBACK (-1)

/* ------------------------------------------------------------------ */
/* numpy-compatible pairwise summation                                 */
/* ------------------------------------------------------------------ */

#define PW_BLOCKSIZE 128

static double pairwise_sum(const double *a, ptrdiff_t n)
{
    if (n < 8) {
        double res = 0.0;
        for (ptrdiff_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    else if (n <= PW_BLOCKSIZE) {
        double r[8], res;
        ptrdiff_t i;
        r[0] = a[0]; r[1] = a[1]; r[2] = a[2]; r[3] = a[3];
        r[4] = a[4]; r[5] = a[5]; r[6] = a[6]; r[7] = a[7];
        for (i = 8; i < n - (n % 8); i += 8) {
            r[0] += a[i + 0]; r[1] += a[i + 1];
            r[2] += a[i + 2]; r[3] += a[i + 3];
            r[4] += a[i + 4]; r[5] += a[i + 5];
            r[6] += a[i + 6]; r[7] += a[i + 7];
        }
        res = ((r[0] + r[1]) + (r[2] + r[3])) +
              ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    else {
        ptrdiff_t n2 = n / 2;
        n2 -= n2 % 8;
        return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
    }
}

/* ------------------------------------------------------------------ */
/* canonicalising constructor (stable sort + equal-value merge +       */
/* pairwise-total normalise) — the tie path of the adaptive truncate   */
/* ------------------------------------------------------------------ */

/* Stable binary-insertion-friendly sort for the (v, p) atom pairs.
 * Inputs here are "almost sorted" (bin conditional means with a rare
 * floating-point tie), so plain insertion sort is effectively linear.
 * Stability matters: it reproduces np.argsort(kind="stable") so the
 * subsequent sequential merge accumulates in the reference order. */
static long long canonicalize(double *v, double *p, long long n,
                              double *ov, double *op)
{
    long long i, m;
    double total;

    for (i = 0; i < n; i++)
        if (isnan(v[i]))
            return FALLBACK; /* numpy sorts NaN last; don't replicate */
    for (i = 1; i < n; i++) {
        double kv = v[i], kp = p[i];
        long long j = i;
        while (j > 0 && v[j - 1] > kv) {
            v[j] = v[j - 1];
            p[j] = p[j - 1];
            j--;
        }
        v[j] = kv;
        p[j] = kp;
    }
    m = 0;
    for (i = 0; i < n; i++) {
        if (m > 0 && ov[m - 1] == v[i])
            op[m - 1] += p[i]; /* sequential, like np.add.at */
        else {
            ov[m] = v[i];
            op[m] = p[i];
            m++;
        }
    }
    total = pairwise_sum(op, (ptrdiff_t)m);
    if (!isfinite(total) || total <= 0.0)
        return FALLBACK; /* python raises EvaluationError */
    for (i = 0; i < m; i++)
        op[i] /= total;
    return m;
}

/* ------------------------------------------------------------------ */
/* adaptive truncate core                                              */
/* ------------------------------------------------------------------ */

/* Reduce a canonical, normalised support of n > max_atoms points to at
 * most max_atoms equal-probability bins, each replaced by its
 * conditional mean.  Mirrors DiscreteDistribution._truncate exactly,
 * including the monotone-bins accumulate, the sequential scatter, and
 * the strictly-increasing guard that routes floating-point ties through
 * the canonicalising constructor. */
static long long truncate_adaptive_core(const double *v, const double *p,
                                        long long n, long long max_atoms,
                                        double *ov, double *op)
{
    long long i, b, k, nbins, status;
    long long *bins;
    double *masses, *weighted, *kv, *kp;
    double cum, m9, total;
    long long bmax;
    int tie;

    bins = (long long *)malloc((size_t)n * sizeof(long long));
    if (bins == NULL)
        return FALLBACK;

    /* bins = min((cumsum(p) - p*0.5) * max_atoms, max_atoms - 1e-9)
     * cast to int (toward zero), then running-max accumulated. */
    cum = 0.0;
    m9 = (double)max_atoms - 1e-9;
    bmax = LLONG_MIN;
    for (i = 0; i < n; i++) {
        double t;
        cum += p[i];
        t = (cum - p[i] * 0.5) * (double)max_atoms;
        if (t > m9)
            t = m9;
        if (!isfinite(t)) {
            free(bins);
            return FALLBACK; /* astype(int) of non-finite is UB here */
        }
        b = (long long)t;
        if (b < bmax)
            b = bmax; /* np.maximum.accumulate */
        else
            bmax = b;
        bins[i] = b;
    }
    /* bins is non-decreasing, so bins[0] is the minimum; a negative
     * bin would wrap in np.add.at — leave that path to the reference. */
    if (bins[0] < 0 || bmax >= max_atoms) {
        free(bins);
        return FALLBACK;
    }
    nbins = bmax + 1;

    masses = (double *)calloc((size_t)(2 * nbins + 2 * max_atoms),
                              sizeof(double));
    if (masses == NULL) {
        free(bins);
        return FALLBACK;
    }
    weighted = masses + nbins;
    kv = weighted + nbins;
    kp = kv + max_atoms;

    /* Sequential scatter — the np.add.at reference order. */
    for (i = 0; i < n; i++) {
        masses[bins[i]] += p[i];
        weighted[bins[i]] += p[i] * v[i];
    }

    k = 0;
    for (b = 0; b < nbins; b++) {
        if (masses[b] > 0.0) {
            kv[k] = weighted[b] / masses[b];
            kp[k] = masses[b];
            k++;
        }
    }
    if (k == 0) {
        free(masses);
        free(bins);
        return FALLBACK; /* python would build an empty dist and raise */
    }

    tie = 0;
    for (i = 1; i < k; i++) {
        if (kv[i] <= kv[i - 1]) { /* NaN compares false, like numpy */
            tie = 1;
            break;
        }
    }
    if (tie) {
        status = canonicalize(kv, kp, k, ov, op);
    }
    else {
        total = pairwise_sum(kp, (ptrdiff_t)k);
        for (i = 0; i < k; i++) {
            ov[i] = kv[i];
            op[i] = kp[i] / total; /* reference divides unguarded */
        }
        status = k;
    }
    free(masses);
    free(bins);
    return status;
}

/* Public entry: truncate an already-canonical distribution.  The
 * python caller handles the n <= max_atoms early return itself. */
long long repro_truncate_adaptive(const double *v, const double *p,
                                  long long n, long long max_atoms,
                                  double *out_v, double *out_p)
{
    if (n <= max_atoms || max_atoms < 1)
        return FALLBACK;
    return truncate_adaptive_core(v, p, n, max_atoms, out_v, out_p);
}

/* ------------------------------------------------------------------ */
/* adaptive convolve                                                   */
/* ------------------------------------------------------------------ */

/* Guard scan over a support: NaN anywhere, or infinities that could
 * produce NaN sums against the other operand, force the fallback. */
static int scan_support(const double *v, long long n,
                        int *has_pinf, int *has_ninf)
{
    long long i;
    *has_pinf = 0;
    *has_ninf = 0;
    for (i = 0; i < n; i++) {
        if (isnan(v[i]))
            return 1;
        if (v[i] == INFINITY)
            *has_pinf = 1;
        else if (v[i] == -INFINITY)
            *has_ninf = 1;
    }
    return 0;
}

/* Stable two-way merge of adjacent sorted runs [lo, mid) and
 * [mid, hi): ties take the left run first, so a bottom-up pass over
 * runs laid out in row order reproduces np.argsort(kind="stable"). */
static void merge_runs(const double *restrict sv, const double *restrict sp,
                       double *restrict dv, double *restrict dp,
                       long long lo, long long mid, long long hi)
{
    long long i = lo, j = mid, k = lo;
    while (i < mid && j < hi) {
        /* Branchless select (ties take the left run: stability).
         * Data-dependent branches mispredict ~50% on random supports;
         * conditional moves keep the pipeline full. */
        long long tl = (sv[i] <= sv[j]);
        double vl = sv[i], vr = sv[j];
        double pl = sp[i], pr = sp[j];
        dv[k] = tl ? vl : vr;
        dp[k] = tl ? pl : pr;
        i += tl;
        j += 1 - tl;
        k++;
    }
    if (i < mid) {
        memcpy(dv + k, sv + i, (size_t)(mid - i) * sizeof(double));
        memcpy(dp + k, sp + i, (size_t)(mid - i) * sizeof(double));
    }
    else if (j < hi) {
        memcpy(dv + k, sv + j, (size_t)(hi - j) * sizeof(double));
        memcpy(dp + k, sp + j, (size_t)(hi - j) * sizeof(double));
    }
}

/* merge_runs for runs laid out in column order: equal values go to the
 * smaller flat index, carried beside each atom in the index planes. */
static void merge_runs_indexed(const double *restrict sv,
                               const double *restrict sp,
                               const int *restrict si,
                               double *restrict dv, double *restrict dp,
                               int *restrict di,
                               long long lo, long long mid, long long hi)
{
    long long i = lo, j = mid, k = lo;
    while (i < mid && j < hi) {
        long long tl = (sv[i] < sv[j]) | ((sv[i] == sv[j]) & (si[i] < si[j]));
        double vl = sv[i], vr = sv[j];
        double pl = sp[i], pr = sp[j];
        int il = si[i], ir = si[j];
        dv[k] = tl ? vl : vr;
        dp[k] = tl ? pl : pr;
        di[k] = tl ? il : ir;
        i += tl;
        j += 1 - tl;
        k++;
    }
    if (i < mid) {
        memcpy(dv + k, sv + i, (size_t)(mid - i) * sizeof(double));
        memcpy(dp + k, sp + i, (size_t)(mid - i) * sizeof(double));
        memcpy(di + k, si + i, (size_t)(mid - i) * sizeof(int));
    }
    else if (j < hi) {
        memcpy(dv + k, sv + j, (size_t)(hi - j) * sizeof(double));
        memcpy(dp + k, sp + j, (size_t)(hi - j) * sizeof(double));
        memcpy(di + k, si + j, (size_t)(hi - j) * sizeof(int));
    }
}

/* Sort the grid in the (v[0], p[0]) planes, made of sorted runs of
 * `run` atoms, by bottom-up merge passes that ping-pong with the
 * (v[1], p[1]) planes; ix[0] and ix[1] are the index planes of the
 * column layout, or NULL for the row layout.  On return v[0], p[0]
 * (and ix[0]) name the planes that hold the sorted grid. */
static void merge_grid(double **v, double **p, int **ix,
                       long long run, long long total)
{
    long long width, start;
    for (width = run; width < total; width *= 2) {
        const double *sv = v[0], *sp = p[0];
        const int *si = ix[0];
        for (start = 0; start < total; start += 2 * width) {
            long long mid = start + width;
            long long end = start + 2 * width;
            long long n;
            int ordered;
            if (mid > total)
                mid = total;
            if (end > total)
                end = total;
            /* Two runs already in order (or a lone run) copy through. */
            ordered = mid == end || sv[mid - 1] < sv[mid] ||
                      (sv[mid - 1] == sv[mid] &&
                       (si == NULL || si[mid - 1] < si[mid]));
            n = end - start;
            if (ordered) {
                memcpy(v[1] + start, sv + start, (size_t)n * sizeof(double));
                memcpy(p[1] + start, sp + start, (size_t)n * sizeof(double));
                if (si != NULL)
                    memcpy(ix[1] + start, si + start, (size_t)n * sizeof(int));
            }
            else if (si == NULL)
                merge_runs(sv, sp, v[1], p[1], start, mid, end);
            else
                merge_runs_indexed(sv, sp, si, v[1], p[1], ix[1],
                                   start, mid, end);
        }
        { double *t = v[0]; v[0] = v[1]; v[1] = t; }
        { double *t = p[0]; p[0] = p[1]; p[1] = t; }
        { int *t = ix[0]; ix[0] = ix[1]; ix[1] = t; }
    }
}

/* Distribution of X + Y: outer sum of the supports, stable-sorted,
 * equal values merged, normalised, adaptively truncated.
 *
 * The sort is the order of np.argsort(kind="stable") on the ravelled
 * row-major outer sum: by value, equal values by flat index i*nb + j.
 * It exploits the grid's structure, since both supports ascend:
 *   - row layout (na <= nb): row i holds av[i] + bv[j] for ascending j,
 *     a sorted run whose flat indices ascend, and the runs lie in flat
 *     order, so a merge whose ties take the left run is that order;
 *   - column layout (na > nb): column j holds av[i] + bv[j] for
 *     ascending i, again sorted (sums of distinct av[i] may round to
 *     equal values, never to descending ones) with ascending flat
 *     indices, but a column's atoms interleave with its neighbours' in
 *     flat order, so each atom carries its flat index in an int32 plane
 *     and equal values go to the smaller index.  That is the same total
 *     order, so the two layouts sort the grid identically, and the
 *     column layout takes log2(nb) merge passes instead of log2(na).
 * A grid of more than INT_MAX atoms keeps the row layout (its flat
 * indices would not fit the plane).  Merges run over sequential memory
 * instead of a comparison sort's O(n log n) random probes.  The
 * duplicate merge then accumulates sequentially in sorted order —
 * exactly the np.add.at order of the constructor.  buf is caller-owned
 * scratch of 5 * na * nb doubles: the two ping-pong (value, prob)
 * planes and, in the last na * nb doubles, the two int32 index planes. */
static long long convolve_core(const double *av, const double *ap,
                               long long na,
                               const double *bv, const double *bp,
                               long long nb,
                               long long max_atoms,
                               double *out_v, double *out_p,
                               double *buf)
{
    long long i, j, m, total_atoms, status;
    double *v[2], *p[2], *mv, *mp;
    int *ix[2] = {NULL, NULL};
    double total;
    int a_pinf, a_ninf, b_pinf, b_ninf;

    if (scan_support(av, na, &a_pinf, &a_ninf) ||
        scan_support(bv, nb, &b_pinf, &b_ninf))
        return FALLBACK;
    if ((a_pinf && b_ninf) || (a_ninf && b_pinf))
        return FALLBACK; /* inf + -inf would be NaN */

    total_atoms = na * nb;
    v[0] = buf;
    p[0] = buf + total_atoms;
    v[1] = p[0] + total_atoms;
    p[1] = v[1] + total_atoms;

    if (na > nb && total_atoms <= INT_MAX) {
        ix[0] = (int *)(p[1] + total_atoms);
        ix[1] = ix[0] + total_atoms;
        for (j = 0; j < nb; j++) {
            const double b_val = bv[j], b_pr = bp[j];
            double *cv = v[0] + j * na, *cp = p[0] + j * na;
            int *ci = ix[0] + j * na;
            for (i = 0; i < na; i++) {
                double pr = ap[i] * b_pr;
                if (pr < -1e-12) {
                    /* constructor raises "negative probability atom" */
                    return FALLBACK;
                }
                cv[i] = av[i] + b_val;
                cp[i] = pr;
                ci[i] = (int)(i * nb + j);
            }
        }
        merge_grid(v, p, ix, na, total_atoms);
    }
    else {
        for (i = 0; i < na; i++) {
            const double a_val = av[i], a_pr = ap[i];
            double *rv = v[0] + i * nb, *rp = p[0] + i * nb;
            for (j = 0; j < nb; j++) {
                double pr = a_pr * bp[j];
                if (pr < -1e-12) {
                    /* constructor raises "negative probability atom" */
                    return FALLBACK;
                }
                rv[j] = a_val + bv[j];
                rp[j] = pr;
            }
        }
        merge_grid(v, p, ix, nb, total_atoms);
    }
    mv = v[0];
    mp = p[0];

    /* Sequential equal-value merge over the sorted grid. */
    m = 0;
    for (i = 0; i < total_atoms; i++) {
        if (m > 0 && mv[m - 1] == mv[i])
            mp[m - 1] += mp[i];
        else {
            mv[m] = mv[i];
            mp[m] = mp[i];
            m++;
        }
    }

    total = pairwise_sum(mp, (ptrdiff_t)m);
    if (!isfinite(total) || total <= 0.0)
        return FALLBACK; /* python raises EvaluationError */
    for (i = 0; i < m; i++)
        mp[i] /= total;

    if (m <= max_atoms) {
        memcpy(out_v, mv, (size_t)m * sizeof(double));
        memcpy(out_p, mp, (size_t)m * sizeof(double));
        status = m;
    }
    else {
        status = truncate_adaptive_core(mv, mp, m, max_atoms,
                                        out_v, out_p);
    }
    return status;
}

long long repro_convolve_adaptive(const double *av, const double *ap,
                                  long long na,
                                  const double *bv, const double *bp,
                                  long long nb,
                                  long long max_atoms,
                                  double *out_v, double *out_p)
{
    double *buf;
    long long status;

    if (na <= 0 || nb <= 0 || max_atoms < 1)
        return FALLBACK;
    buf = (double *)malloc((size_t)(5 * na * nb) * sizeof(double));
    if (buf == NULL)
        return FALLBACK;
    status = convolve_core(av, ap, na, bv, bp, nb, max_atoms,
                           out_v, out_p, buf);
    free(buf);
    return status;
}

/* ------------------------------------------------------------------ */
/* adaptive max                                                        */
/* ------------------------------------------------------------------ */

/* Distribution of max(X, Y): CDF product on the union grid, first
 * difference, positive atoms kept (degenerate case keeps the top atom
 * at mass 1), normalised, adaptively truncated.  The union grid and
 * the searchsorted(..., "right") CDF lookups are realised as one
 * two-pointer merge over the sorted supports. */
long long repro_max_with_adaptive(const double *av, const double *ap,
                                  long long na,
                                  const double *bv, const double *bp,
                                  long long nb,
                                  long long max_atoms,
                                  double *out_v, double *out_p)
{
    long long i, j, g, k, status;
    double *cum_a, *cum_b, *grid, *pg;
    double cum, fprev, total;

    if (na <= 0 || nb <= 0 || max_atoms < 1)
        return FALLBACK;
    for (i = 0; i < na; i++)
        if (isnan(av[i]))
            return FALLBACK;
    for (j = 0; j < nb; j++)
        if (isnan(bv[j]))
            return FALLBACK;

    cum_a = (double *)malloc((size_t)(3 * (na + nb)) * sizeof(double));
    if (cum_a == NULL)
        return FALLBACK;
    cum_b = cum_a + na;
    grid = cum_b + nb;
    pg = grid + (na + nb);

    cum = 0.0;
    for (i = 0; i < na; i++) {
        cum += ap[i]; /* np.cumsum order */
        cum_a[i] = cum;
    }
    cum = 0.0;
    for (j = 0; j < nb; j++) {
        cum += bp[j];
        cum_b[j] = cum;
    }

    /* Union walk.  After advancing past every atom <= x, i and j equal
     * np.searchsorted(..., x, "right"), so the CDF reads below match
     * the reference lookups exactly. */
    i = 0;
    j = 0;
    g = 0;
    fprev = 0.0;
    while (i < na || j < nb) {
        double x, f1, f2, f;
        if (i < na && (j >= nb || av[i] <= bv[j]))
            x = av[i];
        else
            x = bv[j];
        while (i < na && av[i] <= x)
            i++;
        while (j < nb && bv[j] <= x)
            j++;
        f1 = (i > 0) ? cum_a[i - 1] : 0.0;
        f2 = (j > 0) ? cum_b[j - 1] : 0.0;
        f = f1 * f2;
        grid[g] = x;
        pg[g] = (g == 0) ? f : f - fprev;
        fprev = f;
        g++;
    }

    /* keep = probs > 0; compact in place (k <= g so the write index
     * never overtakes the read index). */
    k = 0;
    for (i = 0; i < g; i++) {
        if (pg[i] > 0.0) {
            grid[k] = grid[i];
            pg[k] = pg[i];
            k++;
        }
    }
    if (k == 0) { /* numerically degenerate; keep the top atom */
        grid[0] = grid[g - 1];
        pg[0] = 1.0;
        k = 1;
    }

    total = pairwise_sum(pg, (ptrdiff_t)k);
    if (!isfinite(total) || total <= 0.0) {
        free(cum_a);
        return FALLBACK; /* python raises EvaluationError */
    }
    for (i = 0; i < k; i++)
        pg[i] /= total;

    if (k <= max_atoms) {
        memcpy(out_v, grid, (size_t)k * sizeof(double));
        memcpy(out_p, pg, (size_t)k * sizeof(double));
        status = k;
    }
    else {
        status = truncate_adaptive_core(grid, pg, k, max_atoms,
                                        out_v, out_p);
    }
    free(cum_a);
    return status;
}

/* ------------------------------------------------------------------ */
/* fold tape replay                                                    */
/* ------------------------------------------------------------------ */

/* Stop statuses of repro_replay_tape. */
#define TAPE_DONE 0    /* the root slot is filled */
#define TAPE_GROW 1    /* a step needs more arena: grow it and call again */
#define TAPE_DECLINE 2 /* a step declined: finish the cell in python */

/* Evaluate slot `root` of one cell on demand over a compiled fold's
 * step table (repro/makespan/foldplan.py).  Slot s is defined by the
 * int32 triple table[3s..3s+2] = (kind, a, b): kind 0 convolves slots a
 * and b, kind 1 takes their max; the leaf slots (the Dirac at 0 and the
 * node laws) come first and are never computed.  Slot i of the cell
 * holds slot_len[i] atoms at offset slot_off[i] of the value and
 * probability planes arena_v and arena_p, which hold cap atoms each;
 * slot_len[i] == 0 marks it unfilled.
 *
 * The walk is a depth-first post-order from the root with an explicit
 * stack: an unfilled slot pushes its first unfilled operand (a before
 * b), and runs once both are filled, so only the root's unfilled
 * closure runs — a slot an earlier budget round filled is never run
 * again — in the order of the scalar recursion.  Each step runs
 * convolve_core or repro_max_with_adaptive on its operand slots and
 * appends the result at offset cursor[0], the atoms in use, so each
 * result is bit for bit the per-op entries' result.  A step's operands
 * must index earlier slots (else the step declines), so the stack holds
 * strictly decreasing slots and never more than root + 1 of them.
 *
 * Returns:
 *   TAPE_DONE    - the root is filled;
 *   TAPE_GROW    - a step's output (at most max_atoms atoms) may not
 *                  fit: nothing was written for it, cursor[1] holds the
 *                  atoms the arena needs, and the caller grows both
 *                  planes and calls again from the root (the slots
 *                  filled so far are kept, so the walk resumes there);
 *   TAPE_DECLINE - a kernel returned FALLBACK, a step's operand does not
 *                  index an earlier slot, or the root is out of range:
 *                  the caller finishes the cell on the python kernels,
 *                  which meet the step as the per-op path does.
 * ran[0] and ran[1] count the convolve and max steps run. */
long long repro_replay_tape(const int *table, long long nslots,
                            long long root,
                            long long *slot_off, long long *slot_len,
                            double *arena_v, double *arena_p,
                            long long cap, long long max_atoms,
                            long long *cursor, long long *ran)
{
    double *buf = NULL;
    long long buf_len = 0, depth = 0, status = TAPE_DONE;
    long long *stack;

    if (root < 0 || root >= nslots || max_atoms < 1)
        return TAPE_DECLINE;
    if (slot_len[root] > 0)
        return TAPE_DONE;
    stack = (long long *)malloc((size_t)(root + 1) * sizeof(long long));
    if (stack == NULL)
        return TAPE_DECLINE;
    stack[depth++] = root;
    while (depth > 0) {
        const long long s = stack[depth - 1];
        const int *step = table + 3 * s;
        const long long kind = step[0], a = step[1], b = step[2];
        long long na, nb, bound, n;
        double *ov = arena_v + cursor[0], *op = arena_p + cursor[0];

        if ((kind != 0 && kind != 1) || a < 0 || a >= s || b < 0 || b >= s) {
            status = TAPE_DECLINE;
            break;
        }
        na = slot_len[a];
        nb = slot_len[b];
        if (na == 0) {
            stack[depth++] = a;
            continue;
        }
        if (nb == 0) {
            stack[depth++] = b;
            continue;
        }
        bound = kind ? na + nb : na * nb;
        if (bound > max_atoms)
            bound = max_atoms;
        if (cursor[0] + bound > cap) {
            cursor[1] = cursor[0] + bound;
            status = TAPE_GROW;
            break;
        }
        if (kind)
            n = repro_max_with_adaptive(arena_v + slot_off[a],
                                        arena_p + slot_off[a], na,
                                        arena_v + slot_off[b],
                                        arena_p + slot_off[b], nb,
                                        max_atoms, ov, op);
        else {
            if (5 * na * nb > buf_len) {
                free(buf);
                buf_len = 5 * na * nb;
                buf = (double *)malloc((size_t)buf_len * sizeof(double));
                if (buf == NULL) {
                    status = TAPE_DECLINE;
                    break;
                }
            }
            n = convolve_core(arena_v + slot_off[a], arena_p + slot_off[a],
                              na, arena_v + slot_off[b],
                              arena_p + slot_off[b], nb, max_atoms,
                              ov, op, buf);
        }
        if (n < 0) {
            status = TAPE_DECLINE;
            break;
        }
        slot_off[s] = cursor[0];
        slot_len[s] = n;
        cursor[0] += n;
        ran[kind]++;
        depth--;
    }
    free(buf);
    free(stack);
    return status;
}

/* ------------------------------------------------------------------ */
/* Sculli's normal approximation: Clark's max folded over a DAG        */
/* ------------------------------------------------------------------ */

/* clark_max of repro/makespan/normal.py with rho = 0, operation for
 * operation (association order included): the degenerate branch keeps
 * the larger mean's moments, and max(0.0, spread) keeps spread only
 * when it is > 0, so a NaN spread gives 0.0 as python's max does. */
static void clark_max(double m1, double v1, double m2, double v2,
                      double sqrt2, double inv_sqrt2pi,
                      double *mean_out, double *var_out)
{
    const double rho = 0.0;
    double a2, a, alpha, cdf_pos, cdf_neg, pdf, mean, second, spread;

    a2 = v1 + v2 - 2.0 * rho * sqrt(v1 * v2);
    if (a2 <= 1e-300) {
        if (m1 >= m2) {
            *mean_out = m1;
            *var_out = v1;
        }
        else {
            *mean_out = m2;
            *var_out = v2;
        }
        return;
    }
    a = sqrt(a2);
    alpha = (m1 - m2) / a;
    cdf_pos = 0.5 * (1.0 + erf(alpha / sqrt2));
    cdf_neg = 0.5 * (1.0 + erf((-alpha) / sqrt2));
    pdf = inv_sqrt2pi * exp(-0.5 * alpha * alpha);
    mean = m1 * cdf_pos + m2 * cdf_neg + a * pdf;
    second = (m1 * m1 + v1) * cdf_pos + (m2 * m2 + v2) * cdf_neg
             + (m1 + m2) * a * pdf;
    spread = second - mean * mean;
    *mean_out = mean;
    *var_out = spread > 0.0 ? spread : 0.0;
}

/* Sculli's estimate of every cell of a template, as normal_batch folds
 * it.  Node v's predecessors are preds[pred_ptr[v] .. pred_ptr[v+1]);
 * means and variances are (cells, n) row-major planes of the nodes'
 * durations.  Per cell, node v's ready time is its first predecessor's
 * completion, Clark-maxed with each further one in list order (0 for a
 * source); its completion adds the node's own moments; the sinks then
 * fold the same way into out[c].  sqrt2 and inv_sqrt2pi are python's
 * constants, passed in so both folds use the same doubles.
 *
 * Returns 0, or FALLBACK without writing out when a predecessor does
 * not index an earlier node, a sink is out of range, there is no sink,
 * or scratch cannot be allocated: the python fold then runs (and meets
 * the malformed input as it does). */
long long repro_normal_fold(const int *pred_ptr, const int *preds,
                            long long n, const int *sinks, long long nsinks,
                            const double *means, const double *variances,
                            long long cells, double sqrt2,
                            double inv_sqrt2pi, double *out)
{
    double *m, *v;
    long long c, k, node;

    if (n < 1 || nsinks < 1 || cells < 0 || pred_ptr[0] != 0)
        return FALLBACK;
    for (node = 0; node < n; node++) {
        if (pred_ptr[node + 1] < pred_ptr[node])
            return FALLBACK;
        for (k = pred_ptr[node]; k < pred_ptr[node + 1]; k++)
            if (preds[k] < 0 || preds[k] >= node)
                return FALLBACK;
    }
    for (k = 0; k < nsinks; k++)
        if (sinks[k] < 0 || sinks[k] >= n)
            return FALLBACK;
    m = (double *)malloc((size_t)(2 * n) * sizeof(double));
    if (m == NULL)
        return FALLBACK;
    v = m + n;
    for (c = 0; c < cells; c++) {
        const double *mu = means + c * n, *var = variances + c * n;
        double m_out, v_out;

        for (node = 0; node < n; node++) {
            const long long lo = pred_ptr[node], hi = pred_ptr[node + 1];
            double m_ready = 0.0, v_ready = 0.0;

            if (lo < hi) {
                m_ready = m[preds[lo]];
                v_ready = v[preds[lo]];
                for (k = lo + 1; k < hi; k++)
                    clark_max(m_ready, v_ready, m[preds[k]], v[preds[k]],
                              sqrt2, inv_sqrt2pi, &m_ready, &v_ready);
            }
            m[node] = m_ready + mu[node];
            v[node] = v_ready + var[node];
        }
        m_out = m[sinks[0]];
        v_out = v[sinks[0]];
        for (k = 1; k < nsinks; k++)
            clark_max(m_out, v_out, m[sinks[k]], v[sinks[k]], sqrt2,
                      inv_sqrt2pi, &m_out, &v_out);
        out[c] = m_out;
    }
    free(m);
    return 0;
}

/* ------------------------------------------------------------------ */
/* k-best path DP: PathApprox's path enumeration                       */
/* ------------------------------------------------------------------ */

/* Whether candidate (va, run ra) comes before (vb, rb) in numpy's stable
 * descending sort of the concatenated runs: the larger value first,
 * equal values in run order (positions within a run ascend). */
static int kbest_before(double va, long long ra, double vb, long long rb)
{
    return va > vb || (va == vb && ra < rb);
}

/* Sift slot i of a heap of runs keyed by (hv, hr) down into place. */
static void kbest_sift(double *hv, long long *hr, long long size, long long i)
{
    const double v = hv[i];
    const long long r = hr[i];
    for (;;) {
        long long c = 2 * i + 1;
        if (c >= size)
            break;
        if (c + 1 < size && kbest_before(hv[c + 1], hr[c + 1], hv[c], hr[c]))
            c++;
        if (!kbest_before(hv[c], hr[c], v, r))
            break;
        hv[i] = hv[c];
        hr[i] = hr[c];
        i = c;
    }
    hv[i] = v;
    hr[i] = r;
}

/* Merge the entry lists of nodes src[0 .. d) -- run i is src[i]'s list,
 * each value plus shift -- in numpy's stable descending order of their
 * concatenation, and write the first `take` as (value, node, rank) to
 * out_val, out_node and out_rank.  Node q's list holds width[q] entries
 * from off[q] of val, in descending order; adding one shift keeps each
 * run descending, because rounding is monotone, so a heap merge of the
 * runs is that order without a full sort.  hv, hr and pos are scratch
 * for d runs.
 *
 * With `strict` (take is below the candidate count), two equal values
 * among the first take + 1 return FALLBACK: numpy keeps such a node's
 * entries in argpartition's order, which depends on the CPU.  So does
 * an infinite shift meeting the opposite infinity, whose NaN numpy
 * would sort; stored values are never NaN. */
static long long kbest_merge(const int *src, long long d, double shift,
                             long long take, int strict,
                             const long long *off, const long long *width,
                             const double *val, double *out_val,
                             int *out_node, long long *out_rank,
                             double *hv, long long *hr, long long *pos)
{
    long long i, j, size = d;
    double last = 0.0;

    for (i = 0; i < d; i++) {
        const long long lo = off[src[i]], hi = lo + width[src[i]] - 1;
        if (isinf(shift) && val[shift > 0.0 ? hi : lo] == -shift)
            return FALLBACK;
        pos[i] = 0;
        hv[i] = val[lo] + shift;
        hr[i] = i;
    }
    for (i = size / 2 - 1; i >= 0; i--)
        kbest_sift(hv, hr, size, i);
    for (j = 0; j < take; j++) {
        const long long r = hr[0], q = src[r];
        const double x = hv[0];
        if (strict && j > 0 && x == last)
            return FALLBACK;
        out_val[j] = x;
        out_node[j] = (int)q;
        out_rank[j] = pos[r];
        last = x;
        if (++pos[r] < width[q])
            hv[0] = val[off[q] + pos[r]] + shift;
        else {
            size--;
            hv[0] = hv[size];
            hr[0] = hr[size];
        }
        kbest_sift(hv, hr, size, 0);
    }
    if (strict && hv[0] == last) /* the first candidate past the budget */
        return FALLBACK;
    return 0;
}

/* The k-best path DP of repro/makespan/pathapprox.py
 * (_k_best_paths_cells) for every cell of a template.  Node v's
 * predecessors are preds[pred_ptr[v] .. pred_ptr[v+1]); means is the
 * (cells, n) row-major plane of the nodes' expected durations and
 * var_rank the (cells, n) plane of each node's bit in its cell's masks.
 *
 * Per cell, a source keeps its own mean; any other node merges its
 * predecessors' lists, each entry plus the node's mean, in numpy's
 * stable descending order of their concatenation and keeps the first
 * min(k, candidates) entries, each with its predecessor and that
 * predecessor's entry.  The sinks' lists then merge, unshifted, and the
 * first kk walk back to their sources.  Path j of cell c is written as
 * words = ceil(n / 63) mask words of 63 bits,
 * masks[(w * cells + c) * kcap + j], the sum of 1 << (r % 63) over its
 * nodes' ranks r with r / 63 == w, as numpy's int64 sum (with
 * distinct ranks, the OR).  served[c] is 1 for a priced cell.  A cell
 * declines (served[c] = 0, its mask rows untouched) when a mean is NaN,
 * or when kbest_merge declines a node: ties at a node that truncates, or
 * an inf + -inf.  numpy then prices the row; rows are independent.
 *
 * Returns kk = min(k, sink entries), the paths per cell, which the
 * structure fixes; when kk > kcap nothing is written and the caller
 * calls again with room for kk.  Returns FALLBACK, writing nothing, when
 * k < 1, a predecessor does not index an earlier node, a sink or a rank
 * is out of range, there is no sink, or scratch cannot be allocated. */
long long repro_k_best_paths(const int *pred_ptr, const int *preds,
                             long long n, const int *sinks, long long nsinks,
                             const double *means, const long long *var_rank,
                             long long cells, long long k, long long kcap,
                             unsigned long long *masks,
                             unsigned char *served)
{
    long long v, c, i, j, entries = 0, kk = 0, heap = nsinks, words;
    long long *width, *off, *rank, *frank, *hr, *pos;
    unsigned char *cut;
    double *val, *fval, *hv;
    int *node, *fnode;

    if (n < 1 || nsinks < 1 || cells < 0 || k < 1 || kcap < 0 ||
        pred_ptr[0] != 0)
        return FALLBACK;
    for (v = 0; v < n; v++) {
        if (pred_ptr[v + 1] < pred_ptr[v])
            return FALLBACK;
        for (i = pred_ptr[v]; i < pred_ptr[v + 1]; i++)
            if (preds[i] < 0 || preds[i] >= v)
                return FALLBACK;
        if (pred_ptr[v + 1] - pred_ptr[v] > heap)
            heap = pred_ptr[v + 1] - pred_ptr[v];
    }
    for (i = 0; i < nsinks; i++)
        if (sinks[i] < 0 || sinks[i] >= n)
            return FALLBACK;
    for (i = 0; i < cells * n; i++)
        if (var_rank[i] < 0 || var_rank[i] >= n)
            return FALLBACK;

    /* Entry counts, which the structure fixes: a node keeps min(k,
     * candidates), and cut marks the nodes with more candidates. */
    width = (long long *)malloc((size_t)(2 * n) * sizeof(long long));
    cut = (unsigned char *)malloc((size_t)n);
    if (width == NULL || cut == NULL) {
        free(width);
        free(cut);
        return FALLBACK;
    }
    off = width + n;
    for (v = 0; v < n; v++) {
        long long total = 0;
        cut[v] = 0;
        for (i = pred_ptr[v]; i < pred_ptr[v + 1]; i++) {
            if (width[preds[i]] > k - total) {
                cut[v] = 1;
                total = k;
            }
            else
                total += width[preds[i]];
        }
        width[v] = pred_ptr[v] < pred_ptr[v + 1] ? total : 1;
        off[v] = entries;
        if (width[v] > LLONG_MAX / 64 - entries) {
            free(width);
            free(cut);
            return FALLBACK;
        }
        entries += width[v];
    }
    for (i = 0; i < nsinks; i++)
        kk = width[sinks[i]] > k - kk ? k : kk + width[sinks[i]];
    if (kk > kcap) {
        free(width);
        free(cut);
        return kk;
    }

    /* Each block ends with the node entries, so a write past the last
     * node's entries leaves the block. */
    hv = (double *)malloc((size_t)(heap + kk + entries) * sizeof(double));
    hr = (long long *)malloc((size_t)(2 * heap + kk + entries) *
                             sizeof(long long));
    fnode = (int *)malloc((size_t)(kk + entries) * sizeof(int));
    if (hv == NULL || hr == NULL || fnode == NULL) {
        free(hv);
        free(hr);
        free(fnode);
        free(width);
        free(cut);
        return FALLBACK;
    }
    fval = hv + heap;
    val = fval + kk;
    pos = hr + heap;
    frank = pos + heap;
    rank = frank + kk;
    node = fnode + kk;
    words = (n + 62) / 63;

    for (c = 0; c < cells; c++) {
        const double *mu = means + c * n;
        const long long *vr = var_rank + c * n;
        int ok = 1;

        for (v = 0; v < n && ok; v++)
            ok = !isnan(mu[v]);
        for (v = 0; v < n && ok; v++) {
            const long long lo = pred_ptr[v], d = pred_ptr[v + 1] - lo;
            if (d == 0) {
                val[off[v]] = mu[v];
                node[off[v]] = -1;
                rank[off[v]] = -1;
            }
            else
                ok = kbest_merge(preds + lo, d, mu[v], width[v], cut[v],
                                 off, width, val, val + off[v],
                                 node + off[v], rank + off[v], hv, hr,
                                 pos) == 0;
        }
        served[c] = (unsigned char)ok;
        if (!ok)
            continue;
        /* x + -0.0 is x for every x, so the sinks merge unshifted. */
        kbest_merge(sinks, nsinks, -0.0, kk, 0, off, width, val, fval,
                    fnode, frank, hv, hr, pos);
        for (i = 0; i < words; i++)
            for (j = 0; j < kk; j++)
                masks[(i * cells + c) * kcap + j] = 0;
        for (j = 0; j < kk; j++) {
            long long at = fnode[j], r = frank[j];
            while (at >= 0) {
                const long long b = vr[at], e = off[at] + r;
                masks[((b / 63) * cells + c) * kcap + j] += 1ULL << (b % 63);
                at = node[e];
                r = rank[e];
            }
        }
    }
    free(hv);
    free(hr);
    free(fnode);
    free(width);
    free(cut);
    return kk;
}

/* erf and exp of x[0..n), as the fold calls them: the loader compares
 * them with python's math.erf and math.exp before using the fold. */
void repro_libm_probe(const double *x, long long n, double *erf_out,
                      double *exp_out)
{
    for (long long i = 0; i < n; i++) {
        erf_out[i] = erf(x[i]);
        exp_out[i] = exp(x[i]);
    }
}

/* ABI version stamp so the loader can reject stale cached objects. */
long long repro_native_abi(void)
{
    return REPRO_NATIVE_ABI;
}
