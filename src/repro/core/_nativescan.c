/* Native scan kernel: the dense product-automaton tables lowered to a
 * flat C inner loop, maintained directly as CPython-API C (no Cython
 * toolchain to build it).  repro.core.nativescan lowers the scan IR to
 * read-only tables, validated once by build_tables():
 *
 *   class_table[256]        byte -> byte-equivalence class
 *   step[state*C + class]   (next_state*C) << 2 | skip << 1 | eff
 *   prog_idx[state*C+class] offset of the edge's effect program, or for
 *                           a skip edge its state's inert-byte row
 *   progs[]                 int32 bytecode replaying an edge's effects
 *   eof_idx[state]          offset of the state's end-of-data program
 *   live_idx[state]         offset of OP_EVENT u 1 r per unit live there
 *
 * plus the inert-byte rows (live_all: 256 bytes, 0 where a state's edge
 * is a bare self-loop) and each unit's register capacity (positions).
 *
 * Register file.  A scan's earliest-start registers are one caller-owned
 * int64 buffer read and written in place: unit u's registers at the sum
 * of the capacities before it, then a length row (live count per unit),
 * validated by every entry before a byte is stepped.
 *
 * scan_chunk() consumes a chunk in one call: the quiet path is a
 * two-load table walk with the GIL released, skip edges fast-forward
 * over inert bytes eight per test, and effectful edges run their program,
 * appending (unit, end, match_start) triples to a stack spill buffer.
 * With `final` it then runs the end state's end-of-data program (events
 * only: it reads the registers and changes none) at the chunk's end, so
 * a one-shot scan, or a snapshot flush, is one call.  The triples are
 * drained as exactly what the compiled engine produces (same events,
 * order and error positions — tests/core/test_nativescan.py):
 *
 *   DRAIN_EVENTS  bare DetectEvent(unit, end)           -> events()
 *   DRAIN_PAIRS   (DetectEvent, match_start) pairs      -> scan()/feed
 *   DRAIN_TOKENS  finished TaggedToken(name, unit, lexeme, start, end,
 *                 index), the lexeme copied out of the chunk -> tag()
 *
 * Each is built untracked by the cyclic GC, as is each assemble_routes
 * record, so a drain of 10^4 results sets off no collection that walks
 * the growing list.  CPython untracks an exact tuple that cannot be in a
 * cycle, never a NamedTuple; the rule holds here: pairs and records hold
 * ints, a str and an untracked event, events and tokens also their unit's
 * Occurrence, which the rows keep alive and which refers to no result.
 * Safe regardless: the GC counts an untracked object's references as
 * external, so a user-built cycle through an occurrence can only leak.
 *
 * Packed sink.  A caller that acts on a few contexts only (the Fig. 12
 * router) passes three more buffers and gets no objects at all:
 *
 *   select[n_units]   bit 0 = report this unit's hits, bit 1 = this
 *                     unit's hit closes a message
 *   carry[2]          int64 (message open, message start), threaded
 *                     across chunks; any hit opens a message at its
 *                     match start
 *   out[3 * capacity] int64 records, caller-owned
 *
 * A hit of unit u ending at `end` from `start` writes (u, end, start) for
 * bit 0 and (~u, end, message start) for bit 1, closing the message; the
 * GIL is never re-taken mid-chunk and error positions are not reported.
 * When the buffer cannot take another edge, the call returns early with
 * the bytes consumed (end-of-data always fits behind the last edge).
 * The twin is repro.core.compiled.pack_selected.
 *
 * Effect-program bytecode (all int32): the scan IR's effect (events,
 * (copies, sets, lengths), err) op for op, every r, d and s an index
 * into the register file, used as is:
 *   OP_END                        end of program
 *   OP_ERR                        record a §5.2 error position
 *   OP_EVENT u k r0..r(k-1)       emit unit u ending here, match start
 *                                 the min over regs[r..] (all u's)
 *   OP_COPY n (d c s0..s(c-1))*n  regs[d] = min over regs[s..], c >= 1 in
 *                                 d's unit, every s read before any d set
 *   OP_SET n d0..d(n-1)           regs[d] = current position
 *   OP_LEN n (r m)*n              length row: regs[r] = m <= r's capacity
 *
 * The program order (ERR, EVENTs, COPY, SET, LEN) mirrors one iteration
 * of the compiled per-byte loop, which is what makes bit-exactness
 * structural.

 * The routed-result entries (assemble_routes, encode_routed) and the
 * beam kernels are documented where they are defined, with their twins.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

#define CAPSULE_NAME "repro.core._nativescan.tables"

/* The Python-visible contract's version, exported as ABI.  Bump it when
 * an entry is added or changes: _native_build reads it from this line
 * and refuses a prebuilt module that exports any other. */
#define KERNEL_ABI "7"

enum { OP_END = 0, OP_ERR = 1, OP_EVENT = 2, OP_COPY = 3, OP_SET = 4,
       OP_LEN = 5 };
enum { DRAIN_EVENTS = 0, DRAIN_PAIRS = 1, DRAIN_TOKENS = 2 };

/* Spill-buffer capacity in (unit, end, start) triples: drained (with
 * the GIL re-acquired) whenever fewer than max_per_edge slots remain,
 * so one edge's program can never overflow it. */
#define HITS_CAP 512

/* A FASTCALL entry's argument count, or a TypeError naming its
 * signature. */
#define ARGC(want, sig)                                               \
    if (nargs != (want)) {                                            \
        PyErr_SetString(PyExc_TypeError, sig);                        \
        return NULL;                                                  \
    }

/* Set an exception and unwind through the function's done: label. */
#define RAISE(exc, msg)                                               \
    do {                                                              \
        PyErr_SetString(exc, msg);                                    \
        goto done;                                                    \
    } while (0)

typedef struct {
    int32_t n_states;
    int32_t n_classes;
    int32_t n_units;
    int32_t n_progs;        /* int32 slots in progs */
    int32_t total_cap;      /* sum of unit register capacities */
    int32_t max_copies;     /* most registers one OP_COPY writes */
    int32_t max_per_edge;   /* most triples one program can emit */
    uint8_t class_table[256];
    int32_t *step;          /* n_states * n_classes */
    int32_t *prog_idx;      /* n_states * n_classes */
    int32_t *progs;
    uint8_t *live_all;      /* 256-byte inert-byte rows */
    int32_t *unit_ofs;      /* n_units + 1 prefix offsets */
    int32_t *unit_caps;     /* n_units */
    int32_t *eof_idx;       /* n_states; end-of-data program offset */
    int32_t *live_idx;      /* n_states; offset naming its live units */
    PyObject *rows;         /* per unit (token name, unit, encoder index)
                             * tuples, the objects every hit of that unit
                             * shares (strong ref) */
    PyTypeObject *det_type; /* DetectEvent, a tuple subclass (strong) */
    PyTypeObject *tok_type; /* TaggedToken, likewise */
} NativeTables;

static void
tables_free(NativeTables *t)
{
    if (t == NULL)
        return;
    void *blocks[] = {t->step, t->prog_idx, t->progs, t->live_all,
                      t->unit_ofs, t->unit_caps, t->eof_idx, t->live_idx};
    for (size_t i = 0; i < sizeof blocks / sizeof *blocks; i++)
        PyMem_Free(blocks[i]);
    Py_XDECREF(t->rows);
    Py_XDECREF((PyObject *)t->det_type);
    Py_XDECREF((PyObject *)t->tok_type);
    PyMem_Free(t);
}

static void
tables_destructor(PyObject *capsule)
{
    tables_free(PyCapsule_GetPointer(capsule, CAPSULE_NAME));
}

static void *
copy_buffer(const Py_buffer *view)
{
    void *mem = PyMem_Malloc(view->len ? (size_t)view->len : 1);
    if (mem == NULL) {
        PyErr_NoMemory();
        return NULL;
    }
    memcpy(mem, view->buf, (size_t)view->len);
    return mem;
}

/* ------------------------------------------------------------------ */
/* build_tables: validate + copy the flat tables into a capsule        */
/* ------------------------------------------------------------------ */

/* c register indices at progs[*q], inside the stream and [lo, hi);
 * advances *q past them. */
static int
indices_ok(const int32_t *progs, Py_ssize_t n, Py_ssize_t *q, int32_t c,
           int32_t lo, int32_t hi)
{
    if (c < 0 || *q + c > n)
        return 0;
    for (const int32_t *p = progs + *q; p < progs + *q + c; p++)
        if (*p < lo || *p >= hi)
            return 0;
    *q += c;
    return 1;
}

static int
validate_progs(NativeTables *t, uint8_t *starts_bitmap)
{
    /* One linear walk: the stream must be a well-formed concatenation
     * of programs with every index in bounds (events and copies in one
     * unit's registers, lengths within their unit's capacity), so the
     * interpreter can never read outside the register file even if
     * handed a hostile table. Marks valid program start offsets in the
     * bitmap; sizes the copy scratch. */
    const int32_t *progs = t->progs, *ofs = t->unit_ofs;
    const Py_ssize_t n_progs = t->n_progs;
    Py_ssize_t q = 0;
    int at_start = 1;
    while (q < n_progs) {
        if (at_start)
            starts_bitmap[q >> 3] |= (uint8_t)(1u << (q & 7));
        int32_t op = progs[q++];
        at_start = op == OP_END;
        if (op == OP_END || op == OP_ERR)
            continue;
        if (op < OP_EVENT || op > OP_LEN || q >= n_progs)
            return -1;
        int32_t n = progs[q++];
        if (op == OP_EVENT) { /* unit n, k >= 1 of its registers */
            int32_t k = q < n_progs ? progs[q++] : 0;
            if (n < 0 || n >= t->n_units || k < 1 ||
                !indices_ok(progs, n_progs, &q, k, ofs[n], ofs[n + 1]))
                return -1;
            continue;
        }
        if (op == OP_SET) { /* n registers */
            if (!indices_ok(progs, n_progs, &q, n, 0, t->total_cap))
                return -1;
            continue;
        }
        if (n < 0 || n > t->total_cap) /* n (d c s...) or n (r m) */
            return -1;
        for (int32_t x = 0; x < n; x++) {
            if (q + 2 > n_progs)
                return -1;
            int32_t d = progs[q++], c = progs[q++];
            int64_t u = (int64_t)d - t->total_cap;
            if (op == OP_LEN) {
                if (u < 0 || u >= t->n_units || c < 0 || c > t->unit_caps[u])
                    return -1;
                continue;
            }
            if (d < 0 || d >= t->total_cap || c < 1)
                return -1;
            for (u = 0; ofs[u + 1] <= d; u++) /* d's unit */
                ;
            if (!indices_ok(progs, n_progs, &q, c, ofs[u], ofs[u + 1]))
                return -1;
        }
        if (op == OP_COPY && n > t->max_copies)
            t->max_copies = n;
    }
    return at_start ? 0 : -1; /* must end exactly on a program boundary */
}

/* A type the drain may allocate with tp_alloc(type, n) and fill like a
 * tuple: a tuple subclass that adds no storage (a NamedTuple) — and no
 * __dict__, which 3.12 keeps outside tp_basicsize. */
static int
plain_tuple_subclass(PyObject *type)
{
    return PyType_Check(type) &&
           PyType_IsSubtype((PyTypeObject *)type, &PyTuple_Type) &&
           ((PyTypeObject *)type)->tp_itemsize ==
               (Py_ssize_t)sizeof(PyObject *) &&
           ((PyTypeObject *)type)->tp_basicsize == PyTuple_Type.tp_basicsize &&
           ((PyTypeObject *)type)->tp_dictoffset == 0;
}

/* The flat tables build_tables copies, in argument order. */
enum { B_CLASS, B_STEP, B_PROG_IDX, B_PROGS, B_LIVE_ALL, B_CAPS,
       B_EOF_IDX, B_LIVE_IDX, N_TABLES };
/* (the last two follow max_per_edge in the argument list) */

static PyObject *
build_tables(PyObject *self, PyObject *args)
{
    int n_states, n_classes, n_units, max_per_edge;
    Py_buffer b[N_TABLES] = {{0}};
    PyObject *rows, *det, *tok, *capsule = NULL;
    NativeTables *t = NULL;
    uint8_t *bitmap = NULL;

    if (!PyArg_ParseTuple(
            args, "iiiy*y*y*y*y*y*O!OOiy*y*:build_tables",
            &n_states, &n_classes, &n_units, &b[B_CLASS], &b[B_STEP],
            &b[B_PROG_IDX], &b[B_PROGS], &b[B_LIVE_ALL], &b[B_CAPS],
            &PyTuple_Type, &rows, &det, &tok, &max_per_edge,
            &b[B_EOF_IDX], &b[B_LIVE_IDX]))
        return NULL;

#define FAIL(msg)                                                     \
    do {                                                              \
        if (!PyErr_Occurred())                                        \
            PyErr_SetString(PyExc_ValueError, msg);                   \
        goto done;                                                    \
    } while (0)

    if (n_states < 1 || n_classes < 1 || n_classes > 256 || n_units < 0)
        FAIL("bad table dimensions");
    if ((int64_t)n_states * n_classes > (int64_t)1 << 28)
        FAIL("step table too large");
    Py_ssize_t n_edges = (Py_ssize_t)n_states * n_classes;
    if (b[B_CLASS].len != 256)
        FAIL("class_table must be 256 bytes");
    if (b[B_STEP].len != n_edges * 4 || b[B_PROG_IDX].len != n_edges * 4 ||
        b[B_PROGS].len % 4 || b[B_LIVE_ALL].len % 256 ||
        b[B_CAPS].len != (Py_ssize_t)n_units * 4 ||
        b[B_EOF_IDX].len != (Py_ssize_t)n_states * 4 ||
        b[B_LIVE_IDX].len != (Py_ssize_t)n_states * 4)
        FAIL("table size mismatch");
    if (PyTuple_GET_SIZE(rows) != n_units)
        FAIL("token rows size mismatch");
    for (int u = 0; u < n_units; u++) {
        /* (token name, unit, encoder index): what the drains copy
         * into every DetectEvent / TaggedToken of this unit. */
        PyObject *row = PyTuple_GET_ITEM(rows, u);
        if (!PyTuple_CheckExact(row) || PyTuple_GET_SIZE(row) != 3 ||
            !PyUnicode_Check(PyTuple_GET_ITEM(row, 0)) ||
            !(PyLong_Check(PyTuple_GET_ITEM(row, 2)) ||
              PyTuple_GET_ITEM(row, 2) == Py_None))
            FAIL("token row must be (str name, unit, int index or None)");
    }
    if (!plain_tuple_subclass(det) || !plain_tuple_subclass(tok))
        FAIL("event and token types must be plain tuple subclasses");
    if (max_per_edge < 1 || max_per_edge > HITS_CAP / 2)
        FAIL("bad max_per_edge");

    t = PyMem_Calloc(1, sizeof(NativeTables));
    if (t == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    t->n_states = n_states;
    t->n_classes = n_classes;
    t->n_units = n_units;
    t->n_progs = (int32_t)(b[B_PROGS].len / 4);
    t->max_per_edge = max_per_edge;
    memcpy(t->class_table, b[B_CLASS].buf, 256);
    if ((t->step = copy_buffer(&b[B_STEP])) == NULL ||
        (t->prog_idx = copy_buffer(&b[B_PROG_IDX])) == NULL ||
        (t->progs = copy_buffer(&b[B_PROGS])) == NULL ||
        (t->live_all = copy_buffer(&b[B_LIVE_ALL])) == NULL ||
        (t->unit_caps = copy_buffer(&b[B_CAPS])) == NULL ||
        (t->eof_idx = copy_buffer(&b[B_EOF_IDX])) == NULL ||
        (t->live_idx = copy_buffer(&b[B_LIVE_IDX])) == NULL ||
        (t->unit_ofs = PyMem_Malloc(((size_t)n_units + 1) * 4)) == NULL)
        goto done;

    for (int i = 0; i < 256; i++)
        if (t->class_table[i] >= n_classes)
            FAIL("class_table entry out of range");

    int64_t total = 0;
    for (int u = 0; u < n_units; u++) {
        int32_t cap = t->unit_caps[u];
        if (cap < 1 || cap > 1 << 16)
            FAIL("unit capacity out of range");
        t->unit_ofs[u] = (int32_t)total;
        total += cap;
    }
    t->unit_ofs[n_units] = (int32_t)total;
    if (total > (int64_t)1 << 24)
        FAIL("register file too large");
    t->total_cap = (int32_t)total;

    bitmap = PyMem_Calloc(((size_t)t->n_progs >> 3) + 1, 1);
    if (bitmap == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    if (validate_progs(t, bitmap))
        FAIL("malformed effect program stream");
#define PROG_START(off)                                               \
    ((off) >= 0 && (off) < t->n_progs && (bitmap[(off) >> 3] & (1u << ((off) & 7))))

    int64_t checked = -1; /* the (state, row) pair last checked */
    for (Py_ssize_t e = 0; e < n_edges; e++) {
        uint32_t v = (uint32_t)t->step[e];
        uint32_t next = v >> 2;
        if ((v & 3u) == 3u)
            FAIL("edge cannot be both effectful and skippable");
        if (next >= (uint32_t)n_edges || next % (uint32_t)n_classes)
            FAIL("step target out of range");
        if ((v & 1u) && !PROG_START(t->prog_idx[e]))
            FAIL("prog_idx does not address a program start");
        if (v & 2u) {
            /* a skip edge is a bare self-loop naming an inert-byte row
             * whose every inert byte is a bare self-loop of its state */
            Py_ssize_t state_row = e - e % n_classes;
            if (next != (uint32_t)state_row)
                FAIL("skip edge is not a self-loop");
            int32_t row = t->prog_idx[e];
            if (row < 0 || row >= b[B_LIVE_ALL].len / 256)
                FAIL("skip edge without an inert-byte row");
            if (checked != ((int64_t)state_row << 32 | row)) {
                const uint8_t *lv = t->live_all + ((size_t)row << 8);
                for (int x = 0; x < 256; x++)
                    if (!lv[x] && ((uint32_t)t->step[state_row +
                                   t->class_table[x]] & ~2u) != next << 2)
                        FAIL("inert byte is not a bare self-loop");
                checked = (int64_t)state_row << 32 | row;
            }
        }
    }
    /* Per state: an end-of-data program, and a program whose events
     * name the units the low watermark reads. */
    for (int s = 0; s < n_states; s++)
        if (!PROG_START(t->eof_idx[s]) || !PROG_START(t->live_idx[s]))
            FAIL("eof_idx/live_idx does not address a program start");
#undef PROG_START

    t->rows = Py_NewRef(rows);
    t->det_type = (PyTypeObject *)Py_NewRef(det);
    t->tok_type = (PyTypeObject *)Py_NewRef(tok);
    capsule = PyCapsule_New(t, CAPSULE_NAME, tables_destructor);
    if (capsule != NULL)
        t = NULL; /* the capsule owns it */

done:
    PyMem_Free(bitmap);
    tables_free(t);
    for (int i = 0; i < N_TABLES; i++)
        PyBuffer_Release(&b[i]);
    return capsule;
#undef FAIL
}

/* ------------------------------------------------------------------ */
/* the effect-program interpreter (runs with the GIL released)         */
/* ------------------------------------------------------------------ */

/* The min over the c >= 1 registers named at *pc; advances *pc. */
static inline int64_t
fold_min(const int64_t *regs, const int32_t **pc, int32_t c)
{
    int64_t m = regs[*(*pc)++];
    for (int32_t x = 1; x < c; x++) {
        int64_t v = regs[*(*pc)++];
        if (v < m)
            m = v;
    }
    return m;
}

static inline int
run_prog(const NativeTables *t, const int32_t *pc,
         long long pos, int64_t *regs, int64_t *scratch,
         int64_t *hits, Py_ssize_t *ph, int rec_err)
{
    const int32_t *pe = t->progs + t->n_progs;
    Py_ssize_t h = *ph;
    for (;;) {
        if (pc >= pe)
            return -1;
        int32_t op = *pc++;
        if (op == OP_END)
            break;
        if (op == OP_ERR) {
            if (rec_err) {
                hits[3 * h] = -1;
                hits[3 * h + 1] = pos;
                hits[3 * h + 2] = 0;
                h++;
            }
            continue;
        }
        /* OP_EVENT, OP_COPY, OP_SET, OP_LEN (validated at build time) */
        int32_t n = *pc++;
        if (op == OP_EVENT) {
            int32_t k = *pc++;
            hits[3 * h + 2] = fold_min(regs, &pc, k);
            hits[3 * h] = n;
            hits[3 * h + 1] = pos;
            h++;
        }
        else if (op == OP_COPY) {
            const int32_t *p = pc;
            for (int32_t x = 0; x < n; x++) {
                int32_t c = p[1];
                p += 2;
                scratch[x] = fold_min(regs, &p, c);
            }
            for (int32_t x = 0; x < n; x++, pc += 2 + pc[1])
                regs[pc[0]] = scratch[x];
        }
        else if (op == OP_SET)
            for (int32_t x = 0; x < n; x++)
                regs[*pc++] = pos;
        else
            for (int32_t x = 0; x < n; x++, pc += 2)
                regs[pc[0]] = pc[1];
    }
    *ph = h;
    return 0;
}

/* ------------------------------------------------------------------ */
/* drain: materialize spill-buffer triples as Python objects           */
/* ------------------------------------------------------------------ */

/* The chunk being scanned: what DRAIN_TOKENS copies lexemes out of. */
typedef struct {
    const uint8_t *dp;
    Py_ssize_t n;
    long long base; /* absolute stream position of dp[0] */
} Chunk;

/* Fill a fresh tuple with n owned references and untrack it (see the
 * header); a NULL among them, or a NULL tuple, fails the lot.  Events
 * and tokens come straight from the subclass's tp_alloc, as in
 * tuple.__new__, skipping the namedtuple's Python-level __new__. */
static inline PyObject *
filled(PyObject *tuple, Py_ssize_t n, PyObject *const *fields)
{
    int ok = tuple != NULL;
    for (Py_ssize_t k = 0; k < n; k++)
        ok &= fields[k] != NULL;
    for (Py_ssize_t k = 0; k < n; k++) {
        if (ok)
            PyTuple_SET_ITEM(tuple, k, fields[k]);
        else
            Py_XDECREF(fields[k]);
    }
    if (ok)
        PyObject_GC_UnTrack(tuple);
    else
        Py_CLEAR(tuple);
    return tuple;
}

static int
drain_hits(const NativeTables *t, const int64_t *hits, Py_ssize_t h,
           PyObject *out, PyObject *errors, int mode, const Chunk *chunk)
{
    for (Py_ssize_t i = 0; i < h; i++) {
        int64_t u = hits[3 * i];
        long long pos = (long long)hits[3 * i + 1];
        long long start = (long long)hits[3 * i + 2];
        PyObject *item, *sink = out;
        if (u < 0) {
            item = PyLong_FromLongLong(pos);
            sink = errors;
        }
        else if (mode == DRAIN_TOKENS) {
            /* TaggedToken(name, unit, lexeme, start, end, index): name,
             * unit and index are the unit's interned row, the lexeme is
             * the chunk's bytes [start, pos).  A span that is not
             * inside the chunk (a token begun in an earlier chunk) is
             * refused, never read. */
            if (start < chunk->base || start > pos ||
                pos - chunk->base > (long long)chunk->n) {
                PyErr_SetString(PyExc_ValueError,
                                "token starts outside the chunk being scanned");
                return -1;
            }
            PyObject *row = PyTuple_GET_ITEM(t->rows, (Py_ssize_t)u);
            PyObject *fields[6] = {
                Py_NewRef(PyTuple_GET_ITEM(row, 0)),
                Py_NewRef(PyTuple_GET_ITEM(row, 1)),
                PyBytes_FromStringAndSize(
                    (const char *)chunk->dp + (start - chunk->base),
                    (Py_ssize_t)(pos - start)),
                PyLong_FromLongLong(start),
                PyLong_FromLongLong(pos),
                Py_NewRef(PyTuple_GET_ITEM(row, 2)),
            };
            item = filled(t->tok_type->tp_alloc(t->tok_type, 6), 6, fields);
        }
        else {
            PyObject *row = PyTuple_GET_ITEM(t->rows, (Py_ssize_t)u);
            PyObject *event[2] = {Py_NewRef(PyTuple_GET_ITEM(row, 1)),
                                  PyLong_FromLongLong(pos)};
            item = filled(t->det_type->tp_alloc(t->det_type, 2), 2, event);
            if (item != NULL && mode == DRAIN_PAIRS) {
                /* (event, match_start): DRAIN_EVENTS skips the pair
                 * events() would immediately strip. */
                PyObject *pair[2] = {item, PyLong_FromLongLong(start)};
                item = filled(PyTuple_New(2), 2, pair);
            }
        }
        if (item == NULL)
            return -1;
        int r = PyList_Append(sink, item);
        Py_DECREF(item);
        if (r < 0)
            return -1;
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* packed sink: filter one edge's hits into caller-owned records       */
/* ------------------------------------------------------------------ */

typedef struct {
    const uint8_t *select; /* per-unit select byte */
    int64_t *next;         /* write cursor into the record buffer */
    int64_t *mark;         /* past this, another edge may not fit */
    int64_t open, start;   /* the carry: message open, message start */
} PackedSink;

/* Out of line on purpose: the sink's state lives in memory, so the
 * object drain's loop keeps the registers it had before the sink. */
#if defined(__GNUC__)
__attribute__((noinline))
#endif
static int
sink_edge(PackedSink *s, const int64_t *hits, Py_ssize_t h)
{
    int64_t *rp = s->next;
    for (Py_ssize_t k = 0; k < h; k++) {
        int64_t u = hits[3 * k];
        if (!s->open) {
            s->open = 1;
            s->start = hits[3 * k + 2];
        }
        uint8_t bits = s->select[u];
        if (bits & 1u) {
            rp[0] = u;
            rp[1] = hits[3 * k + 1];
            rp[2] = hits[3 * k + 2];
            rp += 3;
        }
        if (bits & 2u) {
            rp[0] = ~u;
            rp[1] = hits[3 * k + 1];
            rp[2] = s->start;
            rp += 3;
            s->open = 0;
        }
    }
    s->next = rp;
    return rp > s->mark; /* no room for another edge */
}

/* ------------------------------------------------------------------ */
/* scan_chunk                                                          */
/* ------------------------------------------------------------------ */

/* The caller's register file, validated before a byte is stepped: a
 * writable, int64-aligned int64 buffer of exactly the unit registers
 * plus the length row, no length above its unit's capacity. */
static int64_t *
get_regs(const NativeTables *t, PyObject *obj, Py_buffer *view)
{
    if (PyObject_GetBuffer(obj, view, PyBUF_FORMAT | PyBUF_ND) < 0)
        return NULL;
    const char *f = view->format + (view->format[0] == '@');
    if (view->readonly || view->itemsize != 8 ||
        !(strcmp(f, "q") == 0 || (sizeof(long) == 8 && strcmp(f, "l") == 0))) {
        PyErr_SetString(PyExc_TypeError,
                        "register file must be a writable int64 buffer");
        return NULL;
    }
    if (view->len != ((Py_ssize_t)t->total_cap + t->n_units) * 8 ||
        (uintptr_t)view->buf % sizeof(int64_t)) {
        PyErr_SetString(PyExc_ValueError,
                        "register file size or alignment mismatch");
        return NULL;
    }
    int64_t *regs = view->buf;
    for (int32_t u = 0; u < t->n_units; u++)
        if ((uint64_t)regs[t->total_cap + u] > (uint64_t)t->unit_caps[u]) {
            PyErr_SetString(PyExc_ValueError,
                            "register length exceeds its unit's capacity");
            return NULL;
        }
    return regs;
}

static PyObject *
scan_chunk(PyObject *self, PyObject *args)
{
    PyObject *capsule, *regs_obj, *out, *errors;
    PyObject *select = Py_None, *carry = Py_None;
    int state, final = 0;
    int mode = DRAIN_PAIRS;
    long long base;
    Py_buffer data, regv = {0};
    Py_buffer sel = {0}, car = {0}, rec = {0};
    int64_t hits[3 * HITS_CAP], local[64], *scratch = local;
    PyObject *result = NULL;

    if (!PyArg_ParseTuple(args, "OiLy*OOO|iOOp:scan_chunk",
                          &capsule, &state, &base, &data, &regs_obj,
                          &out, &errors, &mode, &select, &carry, &final))
        return NULL;

    const int packed = (select != Py_None);
    NativeTables *t = PyCapsule_GetPointer(capsule, CAPSULE_NAME);
    if (t == NULL)
        goto done;
    if (state < 0 || state >= t->n_states)
        RAISE(PyExc_ValueError, "state id out of range");
    if (mode < DRAIN_EVENTS || mode > DRAIN_TOKENS)
        RAISE(PyExc_ValueError, "unknown drain mode");
    int64_t *starts = get_regs(t, regs_obj, &regv);
    if (starts == NULL)
        goto done;
    if (errors != Py_None && !PyList_Check(errors))
        RAISE(PyExc_TypeError, "errors must be a list or None");
    if (!packed) {
        if (!PyList_Check(out))
            RAISE(PyExc_TypeError, "out must be a list");
    }
    else {
        if (errors != Py_None)
            RAISE(PyExc_ValueError,
                 "the packed sink reports no error positions");
        if (PyObject_GetBuffer(select, &sel, PyBUF_SIMPLE) < 0 ||
            PyObject_GetBuffer(carry, &car, PyBUF_WRITABLE) < 0 ||
            PyObject_GetBuffer(out, &rec, PyBUF_WRITABLE) < 0)
            goto done;
        if (sel.len != t->n_units)
            RAISE(PyExc_ValueError, "select mask size mismatch");
        if (car.len < 2 * (Py_ssize_t)sizeof(int64_t))
            RAISE(PyExc_ValueError, "carry must hold two int64");
        /* Room for one edge past the mark, then end-of-data's hits:
         * at most two records per hit each. */
        if (rec.len / (3 * (Py_ssize_t)sizeof(int64_t)) < 4 * t->max_per_edge)
            RAISE(PyExc_ValueError, "record buffer too small");
        if ((uintptr_t)car.buf % sizeof(int64_t) ||
            (uintptr_t)rec.buf % sizeof(int64_t))
            RAISE(PyExc_ValueError,
                 "carry and record buffers must be int64-aligned");
    }
    if (t->max_copies > 64 &&
        (scratch = PyMem_Malloc((size_t)t->max_copies * sizeof(int64_t))) == NULL) {
        PyErr_NoMemory();
        goto done;
    }

    {
        const uint8_t *dp = (const uint8_t *)data.buf;
        const Chunk chunk = {dp, data.len, base};
        const uint8_t *ct = t->class_table;
        const int32_t *steps = t->step;
        const int32_t C = t->n_classes;
        Py_ssize_t n = data.len, i = 0, h = 0;
        int32_t sp = state * C; /* premultiplied state */
        long long skipped = 0;
        int rec_err = (errors != Py_None);
        Py_ssize_t drain_mark = HITS_CAP - t->max_per_edge;
        int fail = 0, corrupt = 0;
        PackedSink sink = {0};
        if (packed) {
            const int64_t *carp = (const int64_t *)car.buf;
            sink.select = (const uint8_t *)sel.buf;
            sink.next = (int64_t *)rec.buf;
            sink.mark = sink.next +
                        3 * (rec.len / (3 * (Py_ssize_t)sizeof(int64_t)) -
                             4 * t->max_per_edge);
            sink.open = carp[0] != 0;
            sink.start = carp[1];
        }

        Py_BEGIN_ALLOW_THREADS
        while (i < n) {
            uint32_t c = ct[dp[i]];
            uint32_t v = (uint32_t)steps[sp + c];
            if (v & 3u) {
                if (v & 1u) {
                    if (run_prog(t, t->progs + t->prog_idx[sp + c],
                                 base + i, starts, scratch, hits, &h,
                                 rec_err)) {
                        corrupt = 1;
                        break;
                    }
                    if (packed) {
                        int full = sink_edge(&sink, hits, h);
                        h = 0;
                        if (full) {
                            /* Finish this byte and hand the rest of
                             * the chunk back. */
                            sp = (int32_t)(v >> 2);
                            i++;
                            break;
                        }
                    }
                    else if (h >= drain_mark) {
                        Py_BLOCK_THREADS
                        if (drain_hits(t, hits, h, out, errors, mode,
                                       &chunk) < 0)
                            fail = 1;
                        h = 0;
                        Py_UNBLOCK_THREADS
                        if (fail)
                            break;
                    }
                }
                else {
                    /* Bare self-loop: fast-forward through the state's
                     * inert-byte row, eight bytes per test, then one. */
                    const uint8_t *lv =
                        t->live_all + ((size_t)t->prog_idx[sp + c] << 8);
                    Py_ssize_t j = i + 1;
                    while (j + 8 <= n &&
                           !(lv[dp[j]] | lv[dp[j + 1]] | lv[dp[j + 2]] |
                             lv[dp[j + 3]] | lv[dp[j + 4]] | lv[dp[j + 5]] |
                             lv[dp[j + 6]] | lv[dp[j + 7]]))
                        j += 8;
                    while (j < n && !lv[dp[j]])
                        j++;
                    skipped += j - i;
                    i = j;
                    continue;
                }
            }
            sp = (int32_t)(v >> 2);
            i++;
        }
        /* End of data: the final byte's detections, resolved by the
         * state's end-of-data program (it only reads the registers).
         * Past the drain or sink mark there is room for its hits. */
        if (final && i == n && !corrupt && !fail) {
            corrupt = run_prog(t, t->progs + t->eof_idx[sp / C], base + n,
                               starts, scratch, hits, &h, 0);
            if (packed) {
                sink_edge(&sink, hits, h);
                h = 0;
            }
        }
        Py_END_ALLOW_THREADS

        if (corrupt)
            RAISE(PyExc_RuntimeError, "native effect program out of bounds");
        if (fail ||
            (h && drain_hits(t, hits, h, out, errors, mode, &chunk) < 0))
            goto done;

        if (!packed)
            result = Py_BuildValue("iL", sp / C, skipped);
        else {
            ((int64_t *)car.buf)[0] = sink.open;
            ((int64_t *)car.buf)[1] = sink.start;
            Py_ssize_t n_records = (sink.next - (int64_t *)rec.buf) / 3;
            result = Py_BuildValue("iLnn", sp / C, skipped, n_records, i);
        }
    }

done: /* every exit: result is still NULL on an error */
    if (scratch != local)
        PyMem_Free(scratch);
    PyBuffer_Release(&data);
    PyBuffer_Release(&regv); /* no-ops on the never-acquired */
    PyBuffer_Release(&sel);
    PyBuffer_Release(&car);
    PyBuffer_Release(&rec);
    return result;
}

/* low_watermark(tables, state, pos, regs) -> the earliest register a
 * unit live in state holds (through the length row), or pos. */
static PyObject *
low_watermark(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer regv = {0};
    PyObject *result = NULL;
    ARGC(4, "low_watermark(tables, state, pos, regs)");
    NativeTables *t = PyCapsule_GetPointer(args[0], CAPSULE_NAME);
    long state;
    long long mark;
    if (t == NULL || ((state = PyLong_AsLong(args[1])) == -1 && PyErr_Occurred()) ||
        ((mark = PyLong_AsLongLong(args[2])) == -1 && PyErr_Occurred()))
        return NULL;
    if (state < 0 || state >= t->n_states)
        RAISE(PyExc_ValueError, "state id out of range");
    const int64_t *regs = get_regs(t, args[3], &regv);
    if (regs == NULL)
        goto done;
    /* The live program's ops are validated OP_EVENTs (u, k, k indices). */
    for (const int32_t *pc = t->progs + t->live_idx[state]; *pc == OP_EVENT;
         pc += 3 + pc[2]) {
        int32_t u = pc[1];
        const int64_t *su = regs + t->unit_ofs[u];
        for (int64_t j = 0; j < regs[t->total_cap + u]; j++)
            if (su[j] < mark)
                mark = su[j];
    }
    result = PyLong_FromLongLong(mark);
done:
    PyBuffer_Release(&regv);
    return result;
}

/* ------------------------------------------------------------------ */
/* beam kernels                                                        */
/* ------------------------------------------------------------------ */

#define BEAM_PLAN_NAME "repro.core._nativescan.beam_plan"

/* One mask table: views on the scan IR's int32 next array, the lost
 * and doomed flags, the class strings (concatenated, n_vocab + 1 int32
 * offsets) and the row matrix, each kept alive and unresizable and read
 * in place — rows completed after the plan was built are gathered. */
enum { V_NEXT, V_LOST, V_DOOMED, V_CODES, V_OFFS, V_MATRIX, N_VIEWS };

typedef struct {
    Py_buffer v[N_VIEWS];
    Py_ssize_t n_states, n_classes, n_vocab, row_bytes;
} BeamPlan;

static void
beam_plan_free(BeamPlan *p)
{
    for (int i = 0; i < N_VIEWS; i++)
        PyBuffer_Release(&p->v[i]); /* a no-op on the never-acquired */
    PyMem_Free(p);
}

static void
beam_plan_destructor(PyObject *capsule)
{
    beam_plan_free(PyCapsule_GetPointer(capsule, BEAM_PLAN_NAME));
}

/* A list or tuple, read without running Python code that could change it. */
static int
fast_sequence(PyObject *seq)
{
    if (PyList_Check(seq) || PyTuple_Check(seq))
        return 0;
    PyErr_SetString(PyExc_TypeError, "expected a list or tuple");
    return -1;
}

/* beam_plan(next, lost, doomed, codes, offs, matrix) -> capsule, every
 * index the step reads validated once. */
static PyObject *
beam_plan(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *capsule = NULL;
    ARGC(N_VIEWS, "beam_plan(next, lost, doomed, codes, offs, matrix)");
    BeamPlan *p = PyMem_Calloc(1, sizeof(BeamPlan));
    if (p == NULL)
        return PyErr_NoMemory();
    for (int i = 0; i < N_VIEWS; i++)
        if (PyObject_GetBuffer(args[i], &p->v[i], PyBUF_SIMPLE) < 0)
            goto done;
    const int32_t *next = p->v[V_NEXT].buf, *offs = p->v[V_OFFS].buf;
    const uint8_t *codes = p->v[V_CODES].buf;
    Py_ssize_t n = p->n_states = p->v[V_LOST].len;
    if (n < 1 || n > INT32_MAX || p->v[V_DOOMED].len != n ||
        p->v[V_NEXT].len % (4 * n) || p->v[V_OFFS].len % 4 ||
        p->v[V_OFFS].len < 4 || ((uintptr_t)next | (uintptr_t)offs) % 4 ||
        p->v[V_MATRIX].len % n)
        RAISE(PyExc_ValueError, "bad beam table shapes");
    Py_ssize_t c = p->n_classes = p->v[V_NEXT].len / 4 / n;
    Py_ssize_t v = p->n_vocab = p->v[V_OFFS].len / 4 - 1;
    if (c < 1 || c > 256 || p->v[V_MATRIX].len / n != (p->row_bytes = (v + 7) / 8))
        RAISE(PyExc_ValueError, "bad beam table shapes");
    for (Py_ssize_t e = 0; e < n * c; e++)
        if (next[e] < 0 || next[e] >= n)
            RAISE(PyExc_ValueError, "next state out of range");
    for (Py_ssize_t t = 0; t < v; t++)
        if (offs[t + 1] < offs[t])
            RAISE(PyExc_ValueError, "class string offsets out of order");
    if (offs[0] != 0 || offs[v] != p->v[V_CODES].len)
        RAISE(PyExc_ValueError, "class string offsets out of range");
    for (Py_ssize_t e = 0; e < p->v[V_CODES].len; e++)
        if (codes[e] >= c)
            RAISE(PyExc_ValueError, "class string byte out of range");
    capsule = PyCapsule_New(p, BEAM_PLAN_NAME, beam_plan_destructor);
done:
    if (capsule == NULL)
        beam_plan_free(p);
    return capsule;
}

/* beam_step(plan, toks, prev, next, out) -> -1, or the first refused
 * lane: lane l walks token id toks[l] from int32 prev[l] into next[l],
 * then every row is gathered into out.  Refused: an id outside the
 * vocabulary (one no int32 holds included), a step out of a lost state,
 * a doomed end.  A refusal leaves prev and out untouched (atomic). */
static PyObject *
beam_step(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer b[3] = {{0}}; /* prev, next, out */
    PyObject *result = NULL;
    Py_ssize_t lane, refused = -1;
    ARGC(5, "beam_step(plan, toks, prev, next, out)");
    BeamPlan *p = PyCapsule_GetPointer(args[0], BEAM_PLAN_NAME);
    if (p == NULL || fast_sequence(args[1]) < 0)
        return NULL;
    Py_ssize_t n_lanes = PySequence_Fast_GET_SIZE(args[1]);
    PyObject **toks = PySequence_Fast_ITEMS(args[1]);
    if (PyObject_GetBuffer(args[2], &b[0], PyBUF_SIMPLE) < 0 ||
        PyObject_GetBuffer(args[3], &b[1], PyBUF_WRITABLE) < 0 ||
        PyObject_GetBuffer(args[4], &b[2], PyBUF_WRITABLE) < 0)
        goto done;
    const int32_t *prev = b[0].buf, *step = p->v[V_NEXT].buf;
    const int32_t *offs = p->v[V_OFFS].buf;
    const uint8_t *codes = p->v[V_CODES].buf, *lost = p->v[V_LOST].buf;
    const uint8_t *doomed = p->v[V_DOOMED].buf, *rows = p->v[V_MATRIX].buf;
    int32_t *next = b[1].buf;
    if (b[0].len != 4 * n_lanes || b[1].len != 4 * n_lanes ||
        ((uintptr_t)prev | (uintptr_t)next) % 4 ||
        b[2].len != n_lanes * p->row_bytes)
        RAISE(PyExc_ValueError, "prev, next and out must fit the beam");
    for (lane = 0; lane < n_lanes && refused < 0; lane++) {
        int overflow;
        int32_t s = prev[lane];
        if (!PyLong_Check(toks[lane]))
            RAISE(PyExc_TypeError, "token ids must be ints");
        if (s < 0 || s >= p->n_states)
            RAISE(PyExc_ValueError, "beam state out of range");
        long long tok = PyLong_AsLongLongAndOverflow(toks[lane], &overflow);
        if (overflow || tok < 0 || tok >= p->n_vocab) {
            refused = lane;
            break;
        }
        int32_t i = offs[tok];
        while (i < offs[tok + 1] && !lost[s])
            s = step[(Py_ssize_t)s * p->n_classes + codes[i++]];
        if (i < offs[tok + 1] || doomed[s])
            refused = lane;
        next[lane] = s;
    }
    if (refused < 0)
        for (lane = 0; lane < n_lanes; lane++)
            memcpy((uint8_t *)b[2].buf + lane * p->row_bytes,
                   rows + (Py_ssize_t)next[lane] * p->row_bytes,
                   (size_t)p->row_bytes);
    result = PyLong_FromSsize_t(refused);
done:
    for (int i = 0; i < 3; i++)
        PyBuffer_Release(&b[i]);
    return result;
}

/* beam_encode_masks(packed, prev, states, row_bytes) -> (records,
 * n_delta): per lane a u32 state and a kind byte, then the full row
 * (kind 0) or a u16 count of (u16 index, u8 XOR) entries against prev's
 * row for that lane (kind 1, iff prev has one and 3*count + 2 <
 * row_bytes) — byte for byte encode_masks over xor_patch. */
static PyObject *
beam_encode_masks(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer b[2] = {{0}}; /* packed, prev */
    PyObject *out = NULL, *result = NULL;
    Py_ssize_t deltas = 0;
    ARGC(4, "beam_encode_masks(packed, prev, states, row_bytes)");
    Py_ssize_t rb = PyLong_AsSsize_t(args[3]);
    if ((rb == -1 && PyErr_Occurred()) || fast_sequence(args[2]) < 0)
        return NULL;
    Py_ssize_t n_lanes = PySequence_Fast_GET_SIZE(args[2]);
    PyObject **states = PySequence_Fast_ITEMS(args[2]);
    if (PyObject_GetBuffer(args[0], &b[0], PyBUF_SIMPLE) < 0 ||
        PyObject_GetBuffer(args[1], &b[1], PyBUF_SIMPLE) < 0)
        goto done;
    if (rb < 1 || rb > 0xFFFF || b[0].len != n_lanes * rb)
        RAISE(PyExc_ValueError, "packed must be one 1..65535-byte row a lane");
    Py_ssize_t n_prev = Py_MIN(b[1].len / rb, n_lanes);
    Py_ssize_t max_count = rb >= 3 ? (rb - 3) / 3 : -1;
    if ((out = PyBytes_FromStringAndSize(NULL, n_lanes * (5 + rb))) == NULL)
        goto done;
    uint8_t *base = (uint8_t *)PyBytes_AS_STRING(out), *o = base;
    for (Py_ssize_t lane = 0; lane < n_lanes; lane++) {
        const uint8_t *row = (const uint8_t *)b[0].buf + lane * rb;
        Py_ssize_t count = max_count + 1;
        unsigned long state = PyLong_AsUnsignedLong(states[lane]);
        if (state == (unsigned long)-1 && PyErr_Occurred())
            goto done;
        if (state > 0xFFFFFFFFUL)
            RAISE(PyExc_OverflowError, "lane state does not fit a u32");
        for (int k = 0; k < 4; k++)
            o[k] = (uint8_t)(state >> (24 - 8 * k));
        if (lane < n_prev) {
            const uint8_t *old = (const uint8_t *)b[1].buf + lane * rb;
            uint8_t *entry = o + 7;
            Py_ssize_t i = 0;
            for (count = 0; i < rb && count <= max_count; i++) {
                if (i + 8 <= rb && memcmp(row + i, old + i, 8) == 0) {
                    i += 7; /* a whole equal word */
                    continue;
                }
                if (row[i] != old[i] && count++ < max_count) {
                    entry[0] = (uint8_t)(i >> 8);
                    entry[1] = (uint8_t)i;
                    entry[2] = row[i] ^ old[i];
                    entry += 3;
                }
            }
        }
        if (count <= max_count) {
            o[4] = 1;
            o[5] = (uint8_t)(count >> 8);
            o[6] = (uint8_t)count;
            o += 7 + 3 * count;
            deltas++;
        }
        else {
            o[4] = 0;
            memcpy(o + 5, row, (size_t)rb);
            o += 5 + rb;
        }
    }
    if (_PyBytes_Resize(&out, o - base) == 0)
        result = Py_BuildValue("(On)", out, deltas);
done:
    Py_XDECREF(out);
    PyBuffer_Release(&b[0]);
    PyBuffer_Release(&b[1]);
    return result;
}

/* apply_masks(payload, offset, n_lanes, row_bytes, prev_rows) ->
 * (states, rows, n_full, n_delta, body_bytes): the lane records at
 * payload[offset:] as full rows, delta entries XORed into a copy of
 * prev_rows[lane].  A ValueError for what decode_masks refuses, a delta
 * lane without a previous row of row_bytes, an entry past the row. */
static PyObject *
apply_masks(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer b = {0};
    PyObject *states = NULL, *rows = NULL, *result = NULL;
    Py_ssize_t n_full = 0, n_delta = 0, body = 0, arg[3];
    ARGC(5, "apply_masks(payload, offset, n_lanes, row_bytes, prev_rows)");
    for (int i = 0; i < 3; i++)
        if ((arg[i] = PyLong_AsSsize_t(args[i + 1])) == -1 && PyErr_Occurred())
            return NULL;
    if (fast_sequence(args[4]) < 0 ||
        PyObject_GetBuffer(args[0], &b, PyBUF_SIMPLE) < 0)
        return NULL;
    Py_ssize_t pos = arg[0], n_lanes = arg[1], rb = arg[2], len = b.len;
    Py_ssize_t n_prev = PySequence_Fast_GET_SIZE(args[4]);
    PyObject **prev = PySequence_Fast_ITEMS(args[4]);
    const uint8_t *d = b.buf;
    if (pos < 0 || pos > len || n_lanes < 0 || rb < 0)
        RAISE(PyExc_ValueError, "bad MASKS frame geometry");
    if ((len - pos) / 5 < n_lanes) /* every lane record has a 5-byte head */
        RAISE(PyExc_ValueError, "MASKS frame truncated in lane header");
    if ((states = PyTuple_New(n_lanes)) == NULL ||
        (rows = PyList_New(n_lanes)) == NULL)
        goto done;
    for (Py_ssize_t lane = 0; lane < n_lanes; lane++) {
        const uint8_t *src;
        Py_ssize_t count = 0;
        if (len - pos < 5)
            RAISE(PyExc_ValueError, "MASKS frame truncated in lane header");
        PyObject *state = PyLong_FromUnsignedLong(
            (unsigned long)d[pos] << 24 | (unsigned long)d[pos + 1] << 16 |
            (unsigned long)d[pos + 2] << 8 | d[pos + 3]);
        if (state == NULL)
            goto done;
        PyTuple_SET_ITEM(states, lane, state);
        uint8_t kind = d[pos + 4];
        pos += 5;
        if (kind == 0) {
            if (len - pos < rb)
                RAISE(PyExc_ValueError, "MASKS frame truncated in full row");
            src = d + pos;
            pos += rb;
            body += rb;
            n_full++;
        }
        else if (kind == 1) {
            if (len - pos < 2 ||
                len - pos - 2 < 3 * (count = d[pos] << 8 | d[pos + 1]))
                RAISE(PyExc_ValueError, "MASKS frame truncated in delta");
            PyObject *old = lane < n_prev ? prev[lane] : NULL;
            if (old == NULL || !PyBytes_Check(old) ||
                PyBytes_GET_SIZE(old) != rb)
                RAISE(PyExc_ValueError,
                      "MASKS delta lane without a previous row of its width");
            src = (const uint8_t *)PyBytes_AS_STRING(old);
            pos += 2;
            body += 3 * count;
            n_delta++;
        }
        else
            RAISE(PyExc_ValueError, "unknown MASKS lane kind");
        /* A NULL source allocates (never the shared one-byte bytes) and
         * no entry can write the shared empty one: safe to patch. */
        PyObject *row = PyBytes_FromStringAndSize(NULL, rb);
        if (row == NULL)
            goto done;
        PyList_SET_ITEM(rows, lane, row);
        uint8_t *r = (uint8_t *)PyBytes_AS_STRING(row);
        memcpy(r, src, (size_t)rb);
        for (; count > 0; count--, pos += 3) {
            Py_ssize_t at = d[pos] << 8 | d[pos + 1];
            if (at >= rb)
                RAISE(PyExc_ValueError, "MASKS delta entry past the row's end");
            r[at] ^= d[pos + 2];
        }
    }
    if (pos != len)
        RAISE(PyExc_ValueError, "MASKS frame has trailing bytes");
    result = Py_BuildValue("(OOnnn)", states, rows, n_full, n_delta, body);
done:
    Py_XDECREF(states);
    Py_XDECREF(rows);
    PyBuffer_Release(&b);
    return result;
}

/* ------------------------------------------------------------------ */
/* routed results                                                      */
/* ------------------------------------------------------------------ */

/* assemble_routes(records, buffer, base, service, routes, default_port,
 * record_type) -> (routes, service): RouterSession._assemble over
 * packed-sink records.  A plain unit's span, buffer[start - base:
 * end - base], decoded as UTF-8 with errors="replace", is the service; a
 * complemented unit appends record_type(start, end, port, service) —
 * port routes[service], default_port for no or an unknown service —
 * and clears it.  A span outside the buffer is refused, never read. */
static PyObject *
assemble_routes(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer rec = {0}, buf = {0};
    PyObject *routes = NULL, *service = NULL, *result = NULL;
    ARGC(7, "assemble_routes(records, buffer, base, service, routes, "
            "default_port, record_type)");
    long long base = PyLong_AsLongLong(args[2]);
    if (base == -1 && PyErr_Occurred())
        return NULL;
    PyObject *table = args[4], *dflt = args[5];
    PyTypeObject *type = (PyTypeObject *)args[6];
    if ((args[3] != Py_None && !PyUnicode_Check(args[3])) ||
        !PyDict_Check(table) || !plain_tuple_subclass(args[6])) {
        PyErr_SetString(PyExc_TypeError,
                        "service must be None or a str, routes a dict and "
                        "record_type a plain tuple subclass");
        return NULL;
    }
    if (PyObject_GetBuffer(args[0], &rec, PyBUF_SIMPLE) < 0 ||
        PyObject_GetBuffer(args[1], &buf, PyBUF_SIMPLE) < 0)
        goto done;
    if (rec.len % (3 * (Py_ssize_t)sizeof(int64_t)) ||
        (rec.len && (uintptr_t)rec.buf % sizeof(int64_t)))
        RAISE(PyExc_ValueError, "records must be int64-aligned triples");
    if ((routes = PyList_New(0)) == NULL)
        goto done;
    service = Py_NewRef(args[3]);
    const int64_t *r = rec.buf, *end_of = r + rec.len / sizeof(int64_t);
    for (; r < end_of; r += 3) {
        long long end = r[1], start = r[2];
        if (r[0] >= 0) {
            if (start < base || end < start || end - base > buf.len)
                RAISE(PyExc_ValueError, "service span outside the buffer");
            PyObject *name = PyUnicode_DecodeUTF8(
                (const char *)buf.buf + (start - base),
                (Py_ssize_t)(end - start), "replace");
            if (name == NULL)
                goto done;
            Py_SETREF(service, name);
            continue;
        }
        PyObject *port = dflt; /* borrowed, like the dict's value */
        if (service != Py_None &&
            (port = PyDict_GetItemWithError(table, service)) == NULL) {
            if (PyErr_Occurred())
                goto done;
            port = dflt;
        }
        PyObject *fields[4] = {PyLong_FromLongLong(start),
                               PyLong_FromLongLong(end), Py_NewRef(port),
                               service};
        service = Py_NewRef(Py_None); /* the record took the reference */
        PyObject *item = filled(type->tp_alloc(type, 4), 4, fields);
        if (item == NULL)
            goto done;
        int rc = PyList_Append(routes, item);
        Py_DECREF(item);
        if (rc < 0)
            goto done;
    }
    result = PyTuple_Pack(2, routes, service);
done:
    Py_XDECREF(routes);
    Py_XDECREF(service);
    PyBuffer_Release(&rec);
    PyBuffer_Release(&buf);
    return result;
}

static inline void
put_be(uint8_t *o, unsigned long long v, int n)
{
    for (int k = n - 1; k >= 0; k--, v >>= 8)
        o[k] = (uint8_t)v;
}

/* encode_routed(items, first, budget) -> (block, stop): the routed
 * RESULT block (!BII kind 0, n_names, n_records; the name table; !QQiI
 * records) for the longest run items[first:stop] whose own name table
 * and records fit in budget bytes — byte for byte the portable
 * encoder's frame body.  An item is a tuple whose first four fields are
 * start, end, port and service; a TypeError, OverflowError or
 * UnicodeEncodeError for one that is not, or does not fit its record
 * (the caller leaves those to the portable encoder). */
static PyObject *
encode_routed(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *ids = NULL, *names = NULL, *block = NULL, *result = NULL;
    uint8_t *recs = NULL;
    ARGC(3, "encode_routed(items, first, budget)");
    if (fast_sequence(args[0]) < 0)
        return NULL;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(args[0]);
    PyObject **items = PySequence_Fast_ITEMS(args[0]);
    Py_ssize_t first = PyLong_AsSsize_t(args[1]);
    Py_ssize_t budget = PyLong_AsSsize_t(args[2]);
    if ((first == -1 || budget == -1) && PyErr_Occurred())
        return NULL;
    if (first < 0 || first > n)
        RAISE(PyExc_ValueError, "first item out of range");
    /* No more records than the budget has room for. */
    Py_ssize_t cap = Py_MIN(n - first, budget > 0 ? budget / 24 : 0);
    if ((ids = PyDict_New()) == NULL || (names = PyList_New(0)) == NULL)
        goto done;
    if ((recs = PyMem_Malloc((size_t)cap * 24 + 1)) == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    Py_ssize_t used = 0, names_bytes = 0, i;
    uint8_t *o = recs;
    for (i = first; i < n; i++) {
        PyObject *it = items[i];
        if (!PyTuple_Check(it) || PyTuple_GET_SIZE(it) < 4)
            RAISE(PyExc_TypeError, "routed items must be tuples");
        unsigned long long span[2];
        for (int k = 0; k < 2; k++) {
            span[k] = PyLong_AsUnsignedLongLong(PyTuple_GET_ITEM(it, k));
            if (span[k] == (unsigned long long)-1 && PyErr_Occurred())
                goto done;
        }
        /* Only ints: an __index__ could run code that resizes items. */
        int overflow;
        PyObject *field = PyTuple_GET_ITEM(it, 2);
        if (!PyLong_Check(field))
            RAISE(PyExc_TypeError, "a port must be an int");
        long port = PyLong_AsLongAndOverflow(field, &overflow);
        if (overflow || port < INT32_MIN || port > INT32_MAX)
            RAISE(PyExc_OverflowError, "port does not fit an int32");
        PyObject *name = PyTuple_GET_ITEM(it, 3), *id = NULL;
        Py_ssize_t entry = 0, ident = 0xFFFFFFFF;
        if (name != Py_None) {
            if (!PyUnicode_CheckExact(name))
                RAISE(PyExc_TypeError, "a service must be None or a str");
            if ((id = PyDict_GetItemWithError(ids, name)) != NULL)
                ident = PyLong_AsSsize_t(id);
            else if (PyErr_Occurred())
                goto done;
            else {
                Py_ssize_t len;
                if (PyUnicode_AsUTF8AndSize(name, &len) == NULL)
                    goto done;
                entry = 4 + len;
                ident = PyList_GET_SIZE(names);
            }
        }
        if (used + entry + 24 > budget)
            break; /* the next frame starts its own name table */
        if (entry) {
            PyObject *key = PyLong_FromSsize_t(ident);
            int rc = key == NULL ? -1 : PyDict_SetItem(ids, name, key);
            Py_XDECREF(key);
            if (rc < 0 || PyList_Append(names, name) < 0)
                goto done;
            names_bytes += entry;
        }
        put_be(o, span[0], 8);
        put_be(o + 8, span[1], 8);
        put_be(o + 16, (uint32_t)(int32_t)port, 4);
        put_be(o + 20, (unsigned long long)ident, 4);
        o += 24;
        used += entry + 24;
    }
    Py_ssize_t n_names = PyList_GET_SIZE(names), count = i - first;
    block = PyBytes_FromStringAndSize(NULL, 9 + names_bytes + 24 * count);
    if (block == NULL)
        goto done;
    uint8_t *b = (uint8_t *)PyBytes_AS_STRING(block);
    b[0] = 0; /* kind: routed */
    put_be(b + 1, (unsigned long long)n_names, 4);
    put_be(b + 5, (unsigned long long)count, 4);
    b += 9;
    for (Py_ssize_t k = 0; k < n_names; k++) {
        Py_ssize_t len;
        const char *raw =
            PyUnicode_AsUTF8AndSize(PyList_GET_ITEM(names, k), &len);
        if (raw == NULL) /* cached by the first call: cannot fail */
            goto done;
        put_be(b, (unsigned long long)len, 4);
        memcpy(b + 4, raw, (size_t)len);
        b += 4 + len;
    }
    memcpy(b, recs, (size_t)count * 24);
    result = Py_BuildValue("(On)", block, i);
done:
    Py_XDECREF(ids);
    Py_XDECREF(names);
    Py_XDECREF(block);
    PyMem_Free(recs);
    return result;
}

/* ------------------------------------------------------------------ */

#define FASTCALL(fn) (PyCFunction)(void (*)(void))(fn), METH_FASTCALL

static PyMethodDef nativescan_methods[] = {
    {"build_tables", build_tables, METH_VARARGS,
     "Validate and intern the flat scan tables; returns a capsule."},
    {"scan_chunk", scan_chunk, METH_VARARGS,
     "Scan one chunk through the native loop, draining hits as events "
     "(mode 0), (event, start) pairs (1, the default) or finished tokens "
     "(2); returns (state, skipped), or (state, skipped, records, "
     "consumed) with the packed sink."},
    {"low_watermark", FASTCALL(low_watermark),
     "Earliest register of a unit live in the state, or the position."},
    {"beam_plan", FASTCALL(beam_plan), "Validate one mask table."},
    {"beam_step", FASTCALL(beam_step), "Atomic beam step plus gather."},
    {"beam_encode_masks", FASTCALL(beam_encode_masks),
     "MASKS lane records for gathered rows."},
    {"apply_masks", FASTCALL(apply_masks), "Rebuild rows from MASKS."},
    {"assemble_routes", FASTCALL(assemble_routes),
     "Route records from packed-sink records."},
    {"encode_routed", FASTCALL(encode_routed),
     "One routed RESULT block for the longest prefix that fits."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef nativescan_module = {
    PyModuleDef_HEAD_INIT,
    "_nativescan",
    "C inner loop over the dense product-automaton tables.",
    -1,
    nativescan_methods,
};

PyMODINIT_FUNC
PyInit__nativescan(void)
{
    PyObject *mod = PyModule_Create(&nativescan_module);
    if (mod == NULL)
        return NULL;
    if (PyModule_AddIntConstant(mod, "HITS_CAP", HITS_CAP) ||
        PyModule_AddStringConstant(mod, "KERNEL", "c") ||
        PyModule_AddStringConstant(mod, "ABI", KERNEL_ABI)) {
        Py_DECREF(mod);
        return NULL;
    }
    return mod;
}
