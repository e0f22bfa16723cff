"""Optional C fast lane for the kernel's Fisher-Yates hot loop.

The stream-identical shuffle (:func:`repro.matching.kernel._shuffled_row`)
is a ~``k log k``-draw pure-python loop per preference row; at the
ensemble scale tier (``k = 1000``, 2000 rows per instance) it dominates
the whole offline record path.  This module compiles a small C helper
once with the system C compiler and loads it through :mod:`ctypes` — no
build-time dependency, no packaging step, no numpy.  The helper carries
CPython's own MT19937 (``genrand_uint32`` and the twist, as in
``Modules/_randommodule.c``): it starts from ``Random.getstate()``,
draws exactly the words ``Random.shuffle`` would, writes the rows into
``array('i')`` buffers and hands the advanced state back for
``Random.setstate()``, so the rows and the generator's position are
bit-identical to the pure-python loop (enforced by
``tests/test_kernel.py``).

Availability is best-effort by design:

* no C compiler, a failed compile, an unwritable build directory, or
  ``REPRO_NATIVE=0`` all degrade silently to the pure-python path;
* the shared object is cached under ``build/native/`` in the source
  checkout (found by its ``setup.py``; the system temp dir for an
  installed package; ``REPRO_NATIVE_DIR`` overrides both), keyed by a
  hash of the C source, so edits recompile and repeated imports pay
  nothing.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import random
import shutil
import subprocess
import tempfile
from array import array
from pathlib import Path

__all__ = ["NativeKernel", "load"]

_C_SOURCE = r"""
#include <stdint.h>

/* CPython's MT19937 (Modules/_randommodule.c).  The state is the 625
 * words of Random.getstate(): 624 Mersenne words, then the read index;
 * the words are twisted all at once when the index runs off the end. */
#define MT_N 624
#define MT_M 397

static void mt_twist(uint32_t *mt)
{
    static const uint32_t mag01[2] = {0x0U, 0x9908b0dfU};
    uint32_t y;
    int64_t kk;
    for (kk = 0; kk < MT_N - MT_M; kk++) {
        y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
        mt[kk] = mt[kk + MT_M] ^ (y >> 1) ^ mag01[y & 0x1U];
    }
    for (; kk < MT_N - 1; kk++) {
        y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
        mt[kk] = mt[kk + (MT_M - MT_N)] ^ (y >> 1) ^ mag01[y & 0x1U];
    }
    y = (mt[MT_N - 1] & 0x80000000U) | (mt[0] & 0x7fffffffU);
    mt[MT_N - 1] = mt[MT_M - 1] ^ (y >> 1) ^ mag01[y & 0x1U];
}

static inline uint32_t genrand_uint32(uint32_t *mt, int64_t *index)
{
    if (*index >= MT_N) {
        mt_twist(mt);
        *index = 0;
    }
    uint32_t y = mt[(*index)++];
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    return y;
}

/* Fisher-Yates over nrows rows of [0..k), each shuffled as
 * Random.shuffle does: for a bound n = i + 1 the draw is
 * getrandbits(bit_length(n)) = word >> (32 - bit_length(n)), redrawn
 * while it lands above i.  A rejected draw swaps row[i] with itself
 * and keeps i, so the loop has no data-dependent branch.  Advances
 * state in place.
 */
void repro_mt_shuffle_rows(uint32_t *state, int64_t k, int64_t nrows,
                           int *out)
{
    int64_t index = state[MT_N];
    for (int64_t r = 0; r < nrows; r++) {
        int *row = out + r * k;
        for (int64_t t = 0; t < k; t++)
            row[t] = (int)t;
        int64_t i = k - 1;
        while (i > 0) {
            int shift = __builtin_clz((uint32_t)i + 1U);
            int64_t j = (int64_t)(genrand_uint32(state, &index) >> shift);
            int64_t hit = j <= i;
            j = hit ? j : i;
            int tmp = row[i];
            row[i] = row[j];
            row[j] = tmp;
            i -= hit;
        }
    }
    state[MT_N] = (uint32_t)index;
}

/* out[r] = the inverse permutation of rows[r] (the rank matrix of a
 * preference matrix). */
void repro_invert_rows(const int *rows, int64_t nrows, int64_t k, int *out)
{
    for (int64_t r = 0; r < nrows; r++) {
        const int *row = rows + r * k;
        int *inv = out + r * k;
        for (int64_t i = 0; i < k; i++)
            inv[row[i]] = (int)i;
    }
}
"""


class NativeKernel:
    """ctypes façade over the compiled helpers."""

    def __init__(self, lib: ctypes.CDLL) -> None:
        self._shuffle = lib.repro_mt_shuffle_rows
        self._shuffle.restype = None
        self._shuffle.argtypes = (
            ctypes.POINTER(ctypes.c_uint32),
            ctypes.c_int64,
            ctypes.c_int64,
            ctypes.c_void_p,
        )
        self._invert = lib.repro_invert_rows
        self._invert.restype = None
        self._invert.argtypes = (
            ctypes.c_void_p,
            ctypes.c_int64,
            ctypes.c_int64,
            ctypes.c_void_p,
        )

    def shuffled_rows(self, rng: random.Random, k: int, *counts: int) -> list[array]:
        """One flat ``array('i')`` per entry of ``counts``, holding that
        many rows of ``range(k)``, each shuffled exactly as
        ``rng.shuffle`` would, in order.

        ``rng`` must be a plain ``random.Random``; it ends on the stream
        position the shuffles leave it at, so its next draw is the one
        the pure-python path would make.
        """
        version, internal, gauss = rng.getstate()
        state = (ctypes.c_uint32 * len(internal))(*internal)
        blocks = []
        for count in counts:
            block = array("i", [0]) * (k * count)
            self._shuffle(state, k, count, block.buffer_info()[0])
            blocks.append(block)
        rng.setstate((version, tuple(state), gauss))
        return blocks

    def invert_rows(self, rows: array, k: int) -> array:
        """The row-by-row inverse permutation of flat ``rows`` (``k`` wide)."""
        out = array("i", [0]) * len(rows)
        self._invert(rows.buffer_info()[0], len(rows) // k, k, out.buffer_info()[0])
        return out


def _build_dir() -> Path:
    """``build/native`` in a writable source checkout, temp dir otherwise."""
    override = os.environ.get("REPRO_NATIVE_DIR")
    if override:
        return Path(override)
    here = Path(__file__).resolve()
    if len(here.parents) >= 4:  # src/repro/matching/_native.py -> checkout
        root = here.parents[3]
        if (root / "setup.py").is_file() and os.access(root, os.W_OK):
            return root / "build" / "native"
    return Path(tempfile.gettempdir()) / "repro-native"


def _compile(directory: Path) -> Path | None:
    digest = hashlib.sha256(_C_SOURCE.encode()).hexdigest()[:16]
    shared = directory / f"repro_kernel_{digest}.so"
    if shared.exists():
        return shared
    compiler = shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
    if compiler is None:
        return None
    directory.mkdir(parents=True, exist_ok=True)
    # Each builder compiles its own copy of the source: a shared one
    # could be rewritten under a concurrent compiler, whose empty object
    # would then be installed for good.
    fd, source = tempfile.mkstemp(prefix=f".{shared.stem}.", suffix=".c", dir=directory)
    scratch = source[: -len(".c")] + ".so"
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(_C_SOURCE)
        subprocess.run(
            [compiler, "-O2", "-shared", "-fPIC", "-o", scratch, source],
            check=True,
            capture_output=True,
            timeout=120,
        )
        os.replace(scratch, shared)  # atomic: concurrent builders agree
    finally:
        for leftover in (source, scratch):
            with contextlib.suppress(FileNotFoundError):
                os.unlink(leftover)
    return shared


_CACHE: list[NativeKernel | None] | None = None


def load() -> NativeKernel | None:
    """The compiled kernel, building it on first use; ``None`` when
    unavailable (no compiler, failed build, or ``REPRO_NATIVE=0``)."""
    global _CACHE
    if _CACHE is not None:
        return _CACHE[0]
    kernel: NativeKernel | None = None
    if os.environ.get("REPRO_NATIVE", "1") != "0":
        try:
            shared = _compile(_build_dir())
            if shared is not None:
                kernel = NativeKernel(ctypes.CDLL(str(shared)))
        except Exception:  # pragma: no cover - degrade to pure python
            kernel = None
    _CACHE = [kernel]
    return kernel
