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
 *   - the convolve support sort is reproduced by a k-way heap merge
 *     over the virtual outer-sum rows with a (value, row) lexicographic
 *     comparator, which yields exactly the stable row-major order of
 *     np.argsort(kind="stable") on the ravelled outer sum — equal
 *     values within a row are contiguous in j, and the row index
 *     tie-break reproduces the flat-index tie-break;
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
 * repro_replay_tape runs a whole compiled fold tape through the same
 * convolve and max routines in one call, so the pathapprox replay
 * crosses ctypes once per cell and budget round rather than per op.
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

#define REPRO_NATIVE_ABI 2
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

/* Distribution of X + Y: outer sum of the supports, stable-sorted,
 * equal values merged, normalised, adaptively truncated.  The sort
 * exploits the outer sum's structure: row i of the (materialised,
 * row-major) sum grid enumerates av[i] + bv[j] for ascending j and is
 * already sorted, so a bottom-up stable merge over the nb-long runs
 * (left run wins ties) yields exactly the stable row-major order of
 * np.argsort(kind="stable") on the ravelled grid, with sequential
 * memory access instead of a comparison sort's O(n log n) random
 * probes.  The duplicate merge then accumulates sequentially in
 * sorted order — exactly the np.add.at order of the constructor.
 * buf is caller-owned scratch of 4 * na * nb doubles: the two
 * ping-pong (value, prob) planes of the merge passes. */
static long long convolve_core(const double *av, const double *ap,
                               long long na,
                               const double *bv, const double *bp,
                               long long nb,
                               long long max_atoms,
                               double *out_v, double *out_p,
                               double *buf)
{
    long long i, j, m, total_atoms, width, status;
    double *sv, *sp, *dv, *dp, *mv, *mp;
    double total;
    int a_pinf, a_ninf, b_pinf, b_ninf;

    if (scan_support(av, na, &a_pinf, &a_ninf) ||
        scan_support(bv, nb, &b_pinf, &b_ninf))
        return FALLBACK;
    if ((a_pinf && b_ninf) || (a_ninf && b_pinf))
        return FALLBACK; /* inf + -inf would be NaN */

    total_atoms = na * nb;
    /* Two ping-pong (value, prob) planes for the merge passes. */
    sv = buf;
    sp = buf + total_atoms;
    dv = sp + total_atoms;
    dp = dv + total_atoms;

    for (i = 0; i < na; i++) {
        const double a_val = av[i], a_pr = ap[i];
        double *rv = sv + i * nb, *rp = sp + i * nb;
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

    for (width = nb; width < total_atoms; width *= 2) {
        long long start;
        for (start = 0; start < total_atoms; start += 2 * width) {
            long long mid = start + width;
            long long end = start + 2 * width;
            if (mid > total_atoms)
                mid = total_atoms;
            if (end > total_atoms)
                end = total_atoms;
            if (mid < end && sv[mid - 1] <= sv[mid]) {
                /* already in order (ties stay left-first): copy through */
                memcpy(dv + start, sv + start,
                       (size_t)(end - start) * sizeof(double));
                memcpy(dp + start, sp + start,
                       (size_t)(end - start) * sizeof(double));
            }
            else
                merge_runs(sv, sp, dv, dp, start, mid, end);
        }
        { double *t = sv; sv = dv; dv = t; }
        { double *t = sp; sp = dp; dp = t; }
    }
    mv = sv;
    mp = sp;

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
    buf = (double *)malloc((size_t)(4 * na * nb) * sizeof(double));
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
#define TAPE_DONE 0    /* every step ran or was already filled */
#define TAPE_GROW 1    /* the step needs more arena: grow it and resume */
#define TAPE_DECLINE 2 /* the step declined: finish the cell in python */

/* Replay one cell's lowered fold tape (repro/makespan/foldplan.py) into
 * its slot arena.  Step s is the int32 quadruple tape[4s..4s+3] =
 * (kind, a, b, out): kind 0 convolves slots a and b into slot out,
 * kind 1 takes their max.  Slot i holds slot_len[i] atoms at offset
 * slot_off[i] of the value and probability planes arena_v and arena_p,
 * which hold cap atoms each; slot_len[i] == 0 marks it unfilled.  A
 * filled output slot (a leaf law, or a step an earlier budget's tape
 * ran) is skipped, as the python loop skips keys already in its store.
 * Every other step runs convolve_core or repro_max_with_adaptive on its
 * operand slots and appends the result at offset cursor[1], the atoms
 * in use, so each result is bit for bit the per-op entries' result.
 *
 * Replay starts at step cursor[0] and stops with cursor[0] at the step
 * it stopped on, returning:
 *   TAPE_DONE    - past the last step;
 *   TAPE_GROW    - the step's output (at most max_atoms atoms) may not
 *                  fit: nothing was written, cursor[2] holds the atoms
 *                  the arena needs, and the caller grows both planes
 *                  and calls again;
 *   TAPE_DECLINE - the kernel returned FALLBACK (or an operand slot is
 *                  unfilled): the caller finishes the cell on the python
 *                  kernels, which meet the step as the per-op path does.
 * ran[0] and ran[1] count the convolve and max steps run. */
long long repro_replay_tape(const int *tape, long long nsteps,
                            long long *slot_off, long long *slot_len,
                            double *arena_v, double *arena_p,
                            long long cap, long long max_atoms,
                            long long *cursor, long long *ran)
{
    double *buf = NULL;
    long long buf_len = 0, s, status = TAPE_DONE;

    for (s = cursor[0]; s < nsteps; s++) {
        const int *step = tape + 4 * s;
        const int is_max = step[0] != 0;
        long long a = step[1], b = step[2], out = step[3];
        long long na = slot_len[a], nb = slot_len[b], bound, n;
        double *ov = arena_v + cursor[1], *op = arena_p + cursor[1];

        if (slot_len[out] > 0)
            continue;
        if (na <= 0 || nb <= 0 || max_atoms < 1) {
            status = TAPE_DECLINE;
            break;
        }
        bound = is_max ? na + nb : na * nb;
        if (bound > max_atoms)
            bound = max_atoms;
        if (cursor[1] + bound > cap) {
            cursor[2] = cursor[1] + bound;
            status = TAPE_GROW;
            break;
        }
        if (is_max)
            n = repro_max_with_adaptive(arena_v + slot_off[a],
                                        arena_p + slot_off[a], na,
                                        arena_v + slot_off[b],
                                        arena_p + slot_off[b], nb,
                                        max_atoms, ov, op);
        else {
            if (4 * na * nb > buf_len) {
                free(buf);
                buf_len = 4 * na * nb;
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
        slot_off[out] = cursor[1];
        slot_len[out] = n;
        cursor[1] += n;
        ran[is_max]++;
    }
    free(buf);
    cursor[0] = s;
    return status;
}

/* ABI version stamp so the loader can reject stale cached objects. */
long long repro_native_abi(void)
{
    return REPRO_NATIVE_ABI;
}
