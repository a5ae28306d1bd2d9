/*
 * Native quantum kernel for the non-migrating replay policies.
 *
 * Mirrors the inline loop of ReplayEngine.run() record for record for
 * the configurations repro.sim.native.blockers() admits: LRU L1s, the
 * I/D TLBs, the infinite-L2 "seen" set, the full-map coherence
 * directory and (optionally) the next-line instruction prefetcher. No
 * SLICC/STEPS trackers, miss classifiers, banked NUCA L2 or migration
 * data prefetcher exist in those configurations, so none appear here.
 *
 * Ownership. The Python side (repro/sim/native.py) allocates every
 * fixed-size array (L1 tags/ages/hi, prefetch-pending flags, TLB
 * orders, counters) as numpy buffers, fills them from the Python
 * machine objects after admission, and hands their addresses to
 * rk_new(). Per-set dirty flags record which L1 sets the run touched,
 * so the export only rewrites those. The two growable sets -- the L2 "seen" set and the
 * directory's block -> sharer-mask map -- are open-addressing tables
 * owned here, loaded with rk_l2_add()/rk_dir_put() and read back with
 * the *_dump() calls when the run ends.
 *
 * Encoding. EMPTY (INT64_MIN) marks an invalid L1 way and a free table
 * slot; block ids (byte address >> 6) and page ids never reach it.
 * TLBs are MRU-first page arrays (move-to-front on a hit), so the
 * Python OrderedDict (LRU-first) is the reversed array. Sharer sets are
 * uint64 core masks (the loader caps configurations at 64 cores).
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define EMPTY INT64_MIN
#define PAGE_SHIFT 6
#define KIND_INSTR 0
#define KIND_STORE 2

/* Layout of the int64 configuration vector (native.py: _CONFIG). */
enum {
    C_CORES, C_I_SETS, C_I_ASSOC, C_D_SETS, C_D_ASSOC, C_ITLB, C_DTLB,
    C_NEXTLINE, C_IBASE, C_DBASE, C_ITLB_PEN, C_DTLB_PEN, C_I_MISS_L2,
    C_I_MISS_MEM, C_D_LOAD_L2, C_D_LOAD_MEM, C_D_STORE_L2, C_D_STORE_MEM,
    C_PF_LATE, C_THREADS, C_N
};

/* Per-core counters (native.py: _COUNTERS). */
enum {
    K_I_ACC, K_I_MISS, K_I_EV, K_I_PF, K_D_ACC, K_D_MISS, K_D_EV, K_D_INV,
    K_ITLB_ACC, K_ITLB_MISS, K_DTLB_ACC, K_DTLB_MISS, K_PF_ISSUED,
    K_PF_USEFUL, K_N
};

/* Engine-wide totals (native.py: _TOTALS). */
enum { T_BASE, T_TLB, T_I_STALL, T_D_STALL, T_BUSY, T_INV_SENT, T_N };

/* Buffer table order handed to rk_new() (native.py: NativeRun). */
enum {
    B_I_TAGS, B_I_AGES, B_I_HI, B_I_PEND, B_I_DIRTY, B_D_TAGS, B_D_AGES,
    B_D_HI, B_D_DIRTY, B_ITLB, B_ITLB_N, B_DTLB, B_DTLB_N, B_COUNTERS,
    B_TOTALS, B_N
};

/* ------------------------------------------------------------------ */
/* Open-addressing hash table: int64 key -> uint64 value.              */
/* ------------------------------------------------------------------ */

typedef struct {
    int64_t *keys;
    uint64_t *vals;
    uint64_t mask;
    int shift;
    int64_t n;
} table;

static inline uint64_t home(const table *t, int64_t key)
{
    return ((uint64_t)key * 0x9E3779B97F4A7C15ULL) >> t->shift;
}

static int table_init(table *t, int log2cap)
{
    uint64_t cap = (uint64_t)1 << log2cap;
    t->keys = malloc(cap * sizeof(int64_t));
    t->vals = calloc(cap, sizeof(uint64_t));
    if (!t->keys || !t->vals) {
        free(t->keys);
        free(t->vals);
        t->keys = NULL;
        t->vals = NULL;
        return -1;
    }
    for (uint64_t i = 0; i < cap; i++)
        t->keys[i] = EMPTY;
    t->mask = cap - 1;
    t->shift = 64 - log2cap;
    t->n = 0;
    return 0;
}

static void table_free(table *t)
{
    free(t->keys);
    free(t->vals);
    t->keys = NULL;
    t->vals = NULL;
}

static inline int64_t table_find(const table *t, int64_t key)
{
    uint64_t i = home(t, key);
    for (;;) {
        int64_t k = t->keys[i];
        if (k == key)
            return (int64_t)i;
        if (k == EMPTY)
            return -1;
        i = (i + 1) & t->mask;
    }
}

/* Insert a key known to be absent. Returns -1 when out of memory. */
static int table_insert(table *t, int64_t key, uint64_t val)
{
    if ((uint64_t)(t->n + 1) * 2 > t->mask + 1) {
        table old = *t;
        if (table_init(t, 64 - old.shift + 1) != 0) {
            *t = old;
            return -1;
        }
        for (uint64_t j = 0; j <= old.mask; j++)
            if (old.keys[j] != EMPTY)
                table_insert(t, old.keys[j], old.vals[j]);
        table_free(&old);
    }
    uint64_t i = home(t, key);
    while (t->keys[i] != EMPTY)
        i = (i + 1) & t->mask;
    t->keys[i] = key;
    t->vals[i] = val;
    t->n++;
    return 0;
}

/* Remove the entry at ``slot`` (backward-shift deletion). */
static void table_delete(table *t, int64_t slot)
{
    uint64_t i = (uint64_t)slot, j = i;
    for (;;) {
        j = (j + 1) & t->mask;
        int64_t k = t->keys[j];
        if (k == EMPTY)
            break;
        uint64_t h = home(t, k);
        if (((j - h) & t->mask) >= ((j - i) & t->mask)) {
            t->keys[i] = k;
            t->vals[i] = t->vals[j];
            i = j;
        }
    }
    t->keys[i] = EMPTY;
    t->n--;
}

/* ------------------------------------------------------------------ */
/* Run state.                                                          */
/* ------------------------------------------------------------------ */

typedef struct {
    int64_t cfg[C_N];
    int64_t *i_tags, *i_ages, *i_hi;
    uint8_t *i_pend, *i_dirty;
    int64_t *d_tags, *d_ages, *d_hi;
    uint8_t *d_dirty;
    int64_t *itlb, *itlb_n, *dtlb, *dtlb_n;
    int64_t *counters, *totals;
    int32_t *i_occ, *d_occ;
    const int64_t **addr;
    const int8_t **kind;
    table l2, dir;
    int oom;
} run_t;

void rk_free(run_t *r)
{
    if (!r)
        return;
    free(r->i_occ);
    free(r->d_occ);
    free(r->addr);
    free(r->kind);
    table_free(&r->l2);
    table_free(&r->dir);
    free(r);
}

static int32_t *occupancy(const int64_t *tags, int64_t rows, int64_t assoc)
{
    int32_t *occ = malloc((size_t)rows * sizeof(int32_t));
    if (!occ)
        return NULL;
    for (int64_t s = 0; s < rows; s++) {
        int32_t n = 0;
        for (int64_t w = 0; w < assoc; w++)
            n += tags[s * assoc + w] != EMPTY;
        occ[s] = n;
    }
    return occ;
}

run_t *rk_new(const int64_t *cfg, void *const *bufs)
{
    run_t *r = calloc(1, sizeof(run_t));
    if (!r)
        return NULL;
    memcpy(r->cfg, cfg, sizeof(r->cfg));
    r->i_tags = bufs[B_I_TAGS];
    r->i_ages = bufs[B_I_AGES];
    r->i_hi = bufs[B_I_HI];
    r->i_pend = bufs[B_I_PEND];
    r->i_dirty = bufs[B_I_DIRTY];
    r->d_tags = bufs[B_D_TAGS];
    r->d_ages = bufs[B_D_AGES];
    r->d_hi = bufs[B_D_HI];
    r->d_dirty = bufs[B_D_DIRTY];
    r->itlb = bufs[B_ITLB];
    r->itlb_n = bufs[B_ITLB_N];
    r->dtlb = bufs[B_DTLB];
    r->dtlb_n = bufs[B_DTLB_N];
    r->counters = bufs[B_COUNTERS];
    r->totals = bufs[B_TOTALS];
    int64_t cores = cfg[C_CORES];
    r->i_occ = occupancy(r->i_tags, cores * cfg[C_I_SETS], cfg[C_I_ASSOC]);
    r->d_occ = occupancy(r->d_tags, cores * cfg[C_D_SETS], cfg[C_D_ASSOC]);
    r->addr = calloc((size_t)cfg[C_THREADS] + 1, sizeof(int64_t *));
    r->kind = calloc((size_t)cfg[C_THREADS] + 1, sizeof(int8_t *));
    if (!r->i_occ || !r->d_occ || !r->addr || !r->kind
        || table_init(&r->l2, 12) != 0 || table_init(&r->dir, 10) != 0) {
        rk_free(r);
        return NULL;
    }
    return r;
}

void rk_set_thread(run_t *r, int64_t tid, const int64_t *addr,
                   const int8_t *kind)
{
    r->addr[tid] = addr;
    r->kind[tid] = kind;
}

int rk_l2_add(run_t *r, const int64_t *keys, int64_t n)
{
    for (int64_t i = 0; i < n; i++)
        if (table_find(&r->l2, keys[i]) < 0
            && table_insert(&r->l2, keys[i], 0) != 0)
            return -1;
    return 0;
}

int rk_dir_put(run_t *r, const int64_t *keys, const uint64_t *masks,
               int64_t n)
{
    for (int64_t i = 0; i < n; i++)
        if (table_insert(&r->dir, keys[i], masks[i]) != 0)
            return -1;
    return 0;
}

int64_t rk_l2_count(const run_t *r) { return r->l2.n; }
int64_t rk_dir_count(const run_t *r) { return r->dir.n; }
int rk_oom(const run_t *r) { return r->oom; }

void rk_l2_dump(const run_t *r, int64_t *keys)
{
    int64_t n = 0;
    for (uint64_t i = 0; i <= r->l2.mask; i++)
        if (r->l2.keys[i] != EMPTY)
            keys[n++] = r->l2.keys[i];
}

void rk_dir_dump(const run_t *r, int64_t *keys, uint64_t *masks)
{
    int64_t n = 0;
    for (uint64_t i = 0; i <= r->dir.mask; i++)
        if (r->dir.keys[i] != EMPTY) {
            keys[n] = r->dir.keys[i];
            masks[n++] = r->dir.vals[i];
        }
}

/* ------------------------------------------------------------------ */
/* Per-record mechanisms.                                              */
/* ------------------------------------------------------------------ */

/* Fully-associative LRU TLB access (Tlb.access); 1 on a hit. */
static inline int tlb_access(int64_t *pages, int64_t *count, int64_t cap,
                             int64_t page)
{
    int64_t n = *count;
    for (int64_t i = 0; i < n; i++)
        if (pages[i] == page) {
            if (i) {
                memmove(pages + 1, pages, (size_t)i * sizeof(int64_t));
                pages[0] = page;
            }
            return 1;
        }
    if (n < cap)
        *count = ++n;
    memmove(pages + 1, pages, (size_t)(n - 1) * sizeof(int64_t));
    pages[0] = page;
    return 0;
}

static inline int64_t find_way(const int64_t *tags, int64_t assoc,
                               int64_t block)
{
    for (int64_t w = 0; w < assoc; w++)
        if (tags[w] == block)
            return w;
    return -1;
}

/* Way a fill lands in (SetAssociativeCache._fill): the first empty way,
 * else the least-recent one, whose block is returned in *victim. */
static inline int64_t fill_way(const int64_t *tags, const int64_t *ages,
                               int32_t *occ, int64_t assoc, int64_t *victim)
{
    if (*occ < assoc) {
        (*occ)++;
        *victim = EMPTY;
        for (int64_t w = 0; w < assoc; w++)
            if (tags[w] == EMPTY)
                return w;
    }
    int64_t best = 0;
    for (int64_t w = 1; w < assoc; w++)
        if (ages[w] < ages[best])
            best = w;
    *victim = tags[best];
    return best;
}

/* Membership test that inserts on a miss (Machine.l2_touch). */
static inline int l2_touch(run_t *r, int64_t block)
{
    if (table_find(&r->l2, block) >= 0)
        return 1;
    if (table_insert(&r->l2, block, 0) != 0)
        r->oom = 1;
    return 0;
}

static inline void dir_read(run_t *r, int64_t core, int64_t block)
{
    int64_t slot = table_find(&r->dir, block);
    if (slot < 0) {
        if (table_insert(&r->dir, block, (uint64_t)1 << core) != 0)
            r->oom = 1;
    } else {
        r->dir.vals[slot] |= (uint64_t)1 << core;
    }
}

/* Directory.on_evict: ``core`` dropped ``block``. */
static inline void dir_evict(run_t *r, int64_t core, int64_t block)
{
    int64_t slot = table_find(&r->dir, block);
    if (slot < 0)
        return;
    uint64_t mask = r->dir.vals[slot] & ~((uint64_t)1 << core);
    if (mask)
        r->dir.vals[slot] = mask;
    else
        table_delete(&r->dir, slot);
}

/* SetAssociativeCache.invalidate on a remote L1-D; 1 if it held block. */
static int l1d_invalidate(run_t *r, int64_t core, int64_t block)
{
    int64_t sets = r->cfg[C_D_SETS], assoc = r->cfg[C_D_ASSOC];
    int64_t row = core * sets + (block & (sets - 1));
    int64_t *tags = r->d_tags + row * assoc;
    int64_t way = find_way(tags, assoc, block);
    if (way < 0)
        return 0;
    tags[way] = EMPTY; /* the way keeps its stale age, like LruPolicy */
    r->d_occ[row]--;
    r->d_dirty[row] = 1;
    r->counters[core * K_N + K_D_INV]++;
    return 1;
}

/* Directory.on_write, including its pinned quirk: when the store
 * invalidates the last remote sharer and the writer was not a sharer,
 * the cache's eviction callback deletes the block's entry and the
 * writer is added to the orphaned set -- it stays unregistered. */
static void dir_write(run_t *r, int64_t core, int64_t block)
{
    uint64_t bit = (uint64_t)1 << core;
    int64_t slot = table_find(&r->dir, block);
    if (slot < 0) {
        if (table_insert(&r->dir, block, bit) != 0)
            r->oom = 1;
        return;
    }
    uint64_t mask = r->dir.vals[slot];
    if (mask == bit)
        return;
    uint64_t remote = mask & ~bit;
    int deleted = 0;
    int64_t sent = 0;
    while (remote) {
        int64_t other = __builtin_ctzll(remote);
        uint64_t obit = (uint64_t)1 << other;
        remote &= remote - 1;
        if (l1d_invalidate(r, other, block) && !deleted) {
            /* The invalidated cache's on_evict -> Directory.on_evict. */
            mask &= ~obit;
            if (!mask) {
                table_delete(&r->dir, slot);
                deleted = 1;
            }
        }
        mask &= ~obit;
        sent++;
    }
    r->totals[T_INV_SENT] += sent;
    if (!deleted)
        r->dir.vals[slot] = mask | bit;
}

/* ------------------------------------------------------------------ */
/* One quantum: records [pos, end) of thread ``tid`` on ``core``.      */
/* Returns the cycles charged (the engine adds them to the core clock).*/
/* ------------------------------------------------------------------ */

int64_t rk_dispatch(run_t *r, int64_t core, int64_t tid, int64_t pos,
                    int64_t end)
{
    const int64_t *cfg = r->cfg;
    const int64_t i_sets = cfg[C_I_SETS], i_assoc = cfg[C_I_ASSOC];
    const int64_t d_sets = cfg[C_D_SETS], d_assoc = cfg[C_D_ASSOC];
    const int64_t i_mask = i_sets - 1, d_mask = d_sets - 1;
    const int nextline = cfg[C_NEXTLINE] != 0;
    const int64_t *addr = r->addr[tid];
    const int8_t *kind = r->kind[tid];

    int64_t *i_tags = r->i_tags + core * i_sets * i_assoc;
    int64_t *i_ages = r->i_ages + core * i_sets * i_assoc;
    uint8_t *i_pend = r->i_pend + core * i_sets * i_assoc;
    int64_t *i_hi = r->i_hi + core * i_sets;
    int32_t *i_occ = r->i_occ + core * i_sets;
    uint8_t *i_dirty = r->i_dirty + core * i_sets;
    int64_t *d_tags = r->d_tags + core * d_sets * d_assoc;
    int64_t *d_ages = r->d_ages + core * d_sets * d_assoc;
    int64_t *d_hi = r->d_hi + core * d_sets;
    int32_t *d_occ = r->d_occ + core * d_sets;
    uint8_t *d_dirty = r->d_dirty + core * d_sets;
    int64_t *itlb = r->itlb + core * cfg[C_ITLB];
    int64_t *dtlb = r->dtlb + core * cfg[C_DTLB];

    int64_t i_n = 0, d_n = 0, itlb_m = 0, dtlb_m = 0;
    int64_t i_m = 0, d_m = 0, i_ev = 0, d_ev = 0, i_pf = 0;
    int64_t pf_issued = 0, pf_useful = 0;
    int64_t tlb = 0, i_stall = 0, d_stall = 0;
    int64_t victim;

    for (int64_t p = pos; p < end; p++) {
        const int64_t block = addr[p];
        const int k = kind[p];
        if (k == KIND_INSTR) {
            i_n++;
            if (!tlb_access(itlb, &r->itlb_n[core], cfg[C_ITLB],
                            block >> PAGE_SHIFT)) {
                itlb_m++;
                tlb += cfg[C_ITLB_PEN];
            }
            int64_t set = block & i_mask;
            int64_t base = set * i_assoc;
            int64_t way = find_way(i_tags + base, i_assoc, block);
            i_dirty[set] = 1;
            if (way >= 0) {
                i_ages[base + way] = ++i_hi[set];
                if (i_pend[base + way]) {
                    /* consume_if_prefetched: late-prefetch residual */
                    i_pend[base + way] = 0;
                    pf_useful++;
                    i_stall += cfg[C_PF_LATE];
                }
                continue;
            }
            i_m++;
            way = fill_way(i_tags + base, i_ages + base, &i_occ[set],
                           i_assoc, &victim);
            if (victim != EMPTY)
                i_ev++;
            i_pend[base + way] = 0; /* a pending victim prefetch dies */
            i_tags[base + way] = block;
            i_ages[base + way] = ++i_hi[set];
            i_stall += l2_touch(r, block) ? cfg[C_I_MISS_L2]
                                          : cfg[C_I_MISS_MEM];
            if (nextline) {
                int64_t nxt = block + 1;
                int64_t nset = nxt & i_mask;
                int64_t nbase = nset * i_assoc;
                if (find_way(i_tags + nbase, i_assoc, nxt) < 0) {
                    i_pf++;
                    i_dirty[nset] = 1;
                    int64_t nway = fill_way(i_tags + nbase, i_ages + nbase,
                                            &i_occ[nset], i_assoc, &victim);
                    if (victim != EMPTY)
                        i_ev++;
                    i_tags[nbase + nway] = nxt;
                    i_ages[nbase + nway] = ++i_hi[nset];
                    i_pend[nbase + nway] = 1;
                    pf_issued++;
                    l2_touch(r, nxt);
                }
            }
            continue;
        }
        d_n++;
        if (!tlb_access(dtlb, &r->dtlb_n[core], cfg[C_DTLB],
                        block >> PAGE_SHIFT)) {
            dtlb_m++;
            tlb += cfg[C_DTLB_PEN];
        }
        int64_t set = block & d_mask;
        int64_t base = set * d_assoc;
        int64_t way = find_way(d_tags + base, d_assoc, block);
        d_dirty[set] = 1;
        if (way >= 0) {
            d_ages[base + way] = ++d_hi[set];
            if (k == KIND_STORE)
                dir_write(r, core, block);
            continue;
        }
        d_m++;
        way = fill_way(d_tags + base, d_ages + base, &d_occ[set], d_assoc,
                       &victim);
        if (victim != EMPTY) {
            d_ev++;
            dir_evict(r, core, victim);
        }
        d_tags[base + way] = block;
        d_ages[base + way] = ++d_hi[set];
        int in_l2 = l2_touch(r, block);
        if (k == KIND_STORE) {
            d_stall += in_l2 ? cfg[C_D_STORE_L2] : cfg[C_D_STORE_MEM];
            dir_write(r, core, block);
        } else {
            d_stall += in_l2 ? cfg[C_D_LOAD_L2] : cfg[C_D_LOAD_MEM];
            dir_read(r, core, block);
        }
    }

    int64_t *ctr = r->counters + core * K_N;
    ctr[K_I_ACC] += i_n;
    ctr[K_I_MISS] += i_m;
    ctr[K_I_EV] += i_ev;
    ctr[K_I_PF] += i_pf;
    ctr[K_D_ACC] += d_n;
    ctr[K_D_MISS] += d_m;
    ctr[K_D_EV] += d_ev;
    ctr[K_ITLB_ACC] += i_n;
    ctr[K_ITLB_MISS] += itlb_m;
    ctr[K_DTLB_ACC] += d_n;
    ctr[K_DTLB_MISS] += dtlb_m;
    ctr[K_PF_ISSUED] += pf_issued;
    ctr[K_PF_USEFUL] += pf_useful;
    int64_t base_cycles = cfg[C_IBASE] * i_n + cfg[C_DBASE] * d_n;
    int64_t cycles = base_cycles + tlb + i_stall + d_stall;
    r->totals[T_BASE] += base_cycles;
    r->totals[T_TLB] += tlb;
    r->totals[T_I_STALL] += i_stall;
    r->totals[T_D_STALL] += d_stall;
    r->totals[T_BUSY] += cycles;
    return cycles;
}
