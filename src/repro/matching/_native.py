"""Optional C fast lane for the kernel's Fisher-Yates hot loop.

The stream-identical shuffle (:func:`repro.matching.kernel._shuffled_row`)
is a pure-python loop of about ``k`` draws per preference row; at the
ensemble scale tier (``k = 1000``, 2000 rows per instance) it dominates
the whole offline record path.  This module compiles a small C helper
once with the system C compiler and loads it through :mod:`ctypes` — no
build-time dependency, no packaging step, no numpy.  The helper carries
CPython's own MT19937 (the twist and the tempering of
``genrand_uint32``, as in ``Modules/_randommodule.c``): it starts from
``Random.getstate()`` (handed over as an ``array('I')``), draws exactly
the words ``Random.shuffle`` would, and hands the advanced state back for
``Random.setstate()``, so the rows and the generator's position are
bit-identical to the pure-python loop (enforced by
``tests/test_kernel.py``).  Its one loop writes each row either as drawn
(:meth:`NativeKernel.shuffled_rows`) or, shuffled in a scratch row, as its
inverse permutation, which is how :meth:`NativeKernel.draw_instance` lands
a whole instance (preference rows, then a rank matrix) in one pass into a
caller's buffers.  Inside the loop the 624 words are tempered in bulk after
each twist and the rejection shift is computed once per bit length of the
bound.

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
from typing import Iterable

__all__ = ["NativeKernel", "load"]

_C_SOURCE = r"""
#include <stddef.h>
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

/* The output words genrand_uint32 would return for mt[from..MT_N):
 * the tempering, applied in bulk rather than once per draw. */
static void mt_temper(const uint32_t *mt, uint32_t *out, int64_t from)
{
    for (int64_t t = from; t < MT_N; t++) {
        uint32_t y = mt[t];
        y ^= (y >> 11);
        y ^= (y << 7) & 0x9d2c5680U;
        y ^= (y << 15) & 0xefc60000U;
        y ^= (y >> 18);
        out[t] = y;
    }
}

/* Fisher-Yates over nrows rows of [0..k), each shuffled as
 * Random.shuffle does: for a bound n = i + 1 the draw is
 * getrandbits(bit_length(n)) = word >> (32 - bit_length(n)), redrawn
 * while it lands above i.  The shift is held for every i of one bit
 * length.  A rejected draw swaps row[i] with itself and keeps i, so the
 * loop has no data-dependent branch.  With scratch == NULL the rows land
 * in out; otherwise each row is shuffled in scratch (k ints) and out
 * gets its inverse permutation (the row's rank table).  Advances state
 * in place.
 */
void repro_mt_shuffle_rows(uint32_t *state, int64_t k, int64_t nrows,
                           int *out, int *scratch)
{
    uint32_t words[MT_N];
    int64_t index = state[MT_N];
    if (index < MT_N)
        mt_temper(state, words, index);
    for (int64_t r = 0; r < nrows; r++) {
        int *row = scratch != NULL ? scratch : out + r * k;
        for (int64_t t = 0; t < k; t++)
            row[t] = (int)t;
        int64_t i = k - 1;
        while (i > 0) {
            int shift = __builtin_clz((uint32_t)i + 1U);
            int64_t low = (INT64_C(1) << (31 - shift)) - 1;
            while (i >= low) {
                if (index >= MT_N) {
                    mt_twist(state);
                    mt_temper(state, words, 0);
                    index = 0;
                }
                int64_t j = (int64_t)(words[index++] >> shift);
                int64_t hit = j <= i;
                j = hit ? j : i;
                int tmp = row[i];
                row[i] = row[j];
                row[j] = tmp;
                i -= hit;
            }
        }
        if (scratch != NULL) {
            int *inverse = out + r * k;
            for (int64_t t = 0; t < k; t++)
                inverse[row[t]] = (int)t;
        }
    }
    state[MT_N] = (uint32_t)index;
}
"""


class NativeKernel:
    """ctypes façade over the compiled shuffle loop."""

    def __init__(self, lib: ctypes.CDLL) -> None:
        self._shuffle = lib.repro_mt_shuffle_rows
        self._shuffle.restype = None
        self._shuffle.argtypes = (
            ctypes.c_void_p,
            ctypes.c_int64,
            ctypes.c_int64,
            ctypes.c_void_p,
            ctypes.c_void_p,
        )

    def _draw(
        self, rng: random.Random, k: int, blocks: Iterable[tuple[int, int, int | None]]
    ) -> None:
        """Run each ``(rows, out, scratch)`` shuffle of ``k``-wide rows (the
        C loop's arguments; addresses as ints), in order, on ``rng``'s
        stream, and hand the advanced state back."""
        version, internal, gauss = rng.getstate()
        state = array("I", internal)
        address = state.buffer_info()[0]
        for rows, out, scratch in blocks:
            self._shuffle(address, k, rows, out, scratch)
        rng.setstate((version, tuple(state), gauss))

    def shuffled_rows(self, rng: random.Random, k: int, *counts: int) -> list[array]:
        """One flat ``array('i')`` per entry of ``counts``, holding that
        many rows of ``range(k)``, each shuffled exactly as
        ``rng.shuffle`` would, in order.

        ``rng`` must be a plain ``random.Random``; it ends on the stream
        position the shuffles leave it at, so its next draw is the one
        the pure-python path would make.
        """
        blocks = [array("i", [0]) * (k * count) for count in counts]
        self._draw(rng, k, [(n, b.buffer_info()[0], None) for n, b in zip(counts, blocks)])
        return blocks

    def draw_instance(self, rng: random.Random, k: int, pref: array, rank: array) -> None:
        """Draw ``2k`` shuffled rows as :meth:`shuffled_rows` would, into
        the first ``k * k`` cells of two ``array('i')`` buffers: the
        first ``k`` rows as they are into ``pref``, the inverse of each of
        the last ``k`` into ``rank``.  Cells past ``k * k`` are left alone.
        """
        cells = k * k
        if pref.typecode != "i" or rank.typecode != "i" or min(len(pref), len(rank)) < cells:
            raise ValueError(f"draw_instance needs two array('i') of at least {cells} cells")
        scratch = array("i", [0]) * k
        self._draw(
            rng,
            k,
            (
                (k, pref.buffer_info()[0], None),
                (k, rank.buffer_info()[0], scratch.buffer_info()[0]),
            ),
        )


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
    # The state hand-off is an array('I') read as uint32_t words.
    if os.environ.get("REPRO_NATIVE", "1") != "0" and array("I").itemsize == 4:
        try:
            shared = _compile(_build_dir())
            if shared is not None:
                kernel = NativeKernel(ctypes.CDLL(str(shared)))
        except Exception:  # pragma: no cover - degrade to pure python
            kernel = None
    _CACHE = [kernel]
    return kernel
