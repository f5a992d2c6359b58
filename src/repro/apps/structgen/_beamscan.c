/* Beam kernels for the constrained-decoding mask engine.
 *
 * Three tiny hot loops, called via ctypes from
 * repro.apps.structgen.beam with every table flattened ahead of time:
 *
 *   beam_step          — the decode step behind advance(): range-check
 *                        each lane's token, walk its class string
 *                        through the class-indexed step table, commit
 *                        atomically, then gather the new rows;
 *   beam_gather        — copy each lane's packed validity row out of
 *                        the table's row matrix (the batched mask
 *                        lookup after a fork, rollback, reset or a
 *                        row's first completion; the Python side
 *                        completes a state before it hands out a row);
 *   beam_encode_masks  — delta-encode the gathered rows against the
 *                        rows last sent, as MASKS lane records.
 *
 * Plain C with no CPython API: the shared object is built by
 * repro.core._native_build.jit_shared_library under the same cache
 * discipline as the scan kernel and is interpreter-independent.
 */

#include <stdint.h>
#include <string.h>

/* Copy each lane's packed row into out (n_lanes * row_bytes). */
void beam_gather(const uint8_t *rows, int64_t row_bytes,
                 const int32_t *states, int32_t n_lanes, uint8_t *out)
{
    int32_t lane;
    for (lane = 0; lane < n_lanes; lane++) {
        memcpy(out + (int64_t)lane * row_bytes,
               rows + (int64_t)states[lane] * row_bytes,
               (size_t)row_bytes);
    }
}

/* All the per-table pointers, marshalled once at session setup so
 * the per-step call passes five arguments instead of thirteen
 * (ctypes argument conversion is the dominant per-call cost at beam
 * widths of a few dozen).  Field order must match the ctypes
 * Structure in beam.py. */
typedef struct {
    const int32_t *step;
    const uint8_t *err;
    const uint8_t *doomed;
    const uint8_t *codes;
    const int32_t *offs;
    const int32_t *lens;
    const uint8_t *rows;
    int64_t row_bytes;
    int32_t n_classes;
    int32_t n_vocab;
} beam_plan;

/* The decode step: range-check and advance every lane from prev[]
 * into next[], then gather every lane's row — one ctypes transition
 * per generated token for the whole beam.  Lane l walks its token
 * (toks[l]) from prev[l]; codes/offs/lens are the vocabulary's
 * byte-class strings, concatenated and indexed by token id.  err marks
 * states whose next step reports an error (walking out of them is
 * invalid); doomed marks final states no detection can ever leave.
 * Returns -1 on success; on the first invalid lane (bad token id,
 * error edge, or doomed final state) returns that lane's index and
 * prev[] is untouched, so commit stays atomic. */
long beam_step(const beam_plan *plan, const int32_t *toks,
               const int32_t *prev, int32_t *next,
               int32_t n_lanes, uint8_t *out)
{
    const int32_t *step = plan->step;
    const uint8_t *err = plan->err;
    const uint8_t *doomed = plan->doomed;
    int32_t n_classes = plan->n_classes;
    int32_t lane;
    for (lane = 0; lane < n_lanes; lane++) {
        int32_t tok = toks[lane];
        int32_t s = prev[lane];
        const uint8_t *p;
        int32_t len, i;
        if (tok < 0 || tok >= plan->n_vocab)
            return lane;
        p = plan->codes + plan->offs[tok];
        len = plan->lens[tok];
        for (i = 0; i < len; i++) {
            if (err[s])
                return lane;
            s = step[(int64_t)s * n_classes + p[i]];
        }
        if (doomed[s])
            return lane;
        next[lane] = s;
    }
    beam_gather(plan->rows, plan->row_bytes, next, n_lanes, out);
    return -1;
}

/* The MASKS frame's lane records (repro.server.protocol) for n_lanes
 * freshly gathered rows: per lane a big-endian u32 state and a kind
 * byte, then either the full row (kind 0) or a u16 entry count and
 * 3-byte (u16 byte index, u8 XOR value) entries against the row last
 * sent for that lane index (kind 1).  A lane is a delta iff it existed
 * in the previous frame (lane < n_prev) and 3*count + 2 < row_bytes —
 * byte for byte what encode_masks produces over xor_patch.  Callers
 * guarantee row_bytes <= 65535 (the frame's u16 fields).
 *
 * out must hold n_lanes * (5 + row_bytes) bytes.  Returns the bytes
 * written and stores the number of delta lanes in *n_delta. */
int64_t beam_encode_masks(const uint8_t *rows, const uint8_t *last,
                          int32_t n_prev, const int32_t *states,
                          int32_t n_lanes, int64_t row_bytes,
                          uint8_t *out, int32_t *n_delta)
{
    int64_t max_count = row_bytes >= 3 ? (row_bytes - 3) / 3 : -1;
    uint8_t *p = out;
    int32_t lane, deltas = 0;
    for (lane = 0; lane < n_lanes; lane++) {
        const uint8_t *row = rows + (int64_t)lane * row_bytes;
        uint32_t state = (uint32_t)states[lane];
        int64_t count = max_count + 1;
        p[0] = (uint8_t)(state >> 24);
        p[1] = (uint8_t)(state >> 16);
        p[2] = (uint8_t)(state >> 8);
        p[3] = (uint8_t)state;
        if (lane < n_prev) {
            const uint8_t *old = last + (int64_t)lane * row_bytes;
            uint8_t *entry = p + 7;
            int64_t i = 0;
            count = 0;
            while (i < row_bytes && count <= max_count) {
                if (i + 8 <= row_bytes) {
                    uint64_t a, b;
                    memcpy(&a, row + i, 8);
                    memcpy(&b, old + i, 8);
                    if (a == b) {
                        i += 8;
                        continue;
                    }
                }
                if (row[i] != old[i]) {
                    if (count < max_count) {
                        entry[0] = (uint8_t)(i >> 8);
                        entry[1] = (uint8_t)i;
                        entry[2] = row[i] ^ old[i];
                        entry += 3;
                    }
                    count++;
                }
                i++;
            }
        }
        if (count <= max_count) {
            p[4] = 1;
            p[5] = (uint8_t)(count >> 8);
            p[6] = (uint8_t)count;
            p += 7 + 3 * count;
            deltas++;
        } else {
            p[4] = 0;
            memcpy(p + 5, row, (size_t)row_bytes);
            p += 5 + row_bytes;
        }
    }
    *n_delta = deltas;
    return p - out;
}
