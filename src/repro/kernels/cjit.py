"""Generated-C kernel backend: compile the reference loops with a C compiler.

The ROADMAP's "compiled hot core" names Numba *or a generated-C
extension with a pure-Python fallback* as acceptable vehicles; this is
the latter.  The C source below is a statement-for-statement
translation of :mod:`repro.kernels.pyref` (same loop order, same
first-index tie-breaking, floored modulo spelled out as
``((a % L) + L) % L`` to match Python's semantics on negative
operands) restricted to integer arithmetic, IEEE double +,-,*,/ and
comparisons — no libm calls — so its outputs are bit-identical to the
reference on any IEEE-754 platform.

The shared library is built once per source version with the system C
compiler (``$CC``, else ``cc``/``gcc``/``clang``) into a content-hashed
cache (``$REPRO_KERNELS_CACHE``, default ``~/.cache/repro/kernels``)
and loaded via :mod:`ctypes`; concurrent workers race benignly (atomic
rename, first writer wins).  Any failure — no compiler, sandboxed
filesystem, bad toolchain — raises
:class:`~repro.kernels.base.KernelUnavailable` and the resolver falls
back to the vector backend with a warning.

Arguments cross into C as raw ``c_void_p`` addresses
(``arr.ctypes.data``), not ``numpy.ctypeslib.ndpointer`` argtypes.
``ndpointer.from_param`` is pure Python, and ctypes re-types *any*
exception raised during argument conversion — including the
``KeyboardInterrupt`` the interpreter raises when SIGINT lands there —
as ``ctypes.ArgumentError``, a plain ``Exception``.  With millions of
kernel calls per campaign that window is wide enough that a Ctrl-C
during a sweep was intermittently swallowed by the trial-retry logic
as "ArgumentError: argument 1: KeyboardInterrupt" instead of aborting
the run.  Raw addresses convert in C with no Python hook, so pending
signals surface between bytecodes as genuine ``KeyboardInterrupt``.
In exchange the wrappers below own dtype and contiguity: every array
an outside caller can influence goes through ``np.ascontiguousarray``
first, and the rest are allocated here.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np

from repro.kernels.base import KernelUnavailable
from repro.kernels.vector import VectorBackend

C_SOURCE = r"""
#include <stdint.h>

typedef int64_t i64;

/* Floored modulo with a non-negative divisor, matching Python's `%`. */
static i64 fmod_floor(i64 a, i64 m)
{
    i64 r = a % m;
    return r < 0 ? r + m : r;
}

i64 nasch_step(i64 *pos, i64 *vel, i64 *gaps_out, uint8_t *wrapped_out,
               const double *draws, i64 use_draws, double p,
               i64 v_max, i64 num_cells, i64 n)
{
    i64 bad = -1;
    for (i64 i = 0; i < n; i++) {
        i64 gap;
        if (n == 1) {
            gap = num_cells - 1;
        } else {
            gap = fmod_floor(pos[(i + 1) % n] - pos[i] - 1, num_cells);
        }
        gaps_out[i] = gap;
        i64 v = vel[i] + 1;
        if (v > v_max) v = v_max;
        if (v > gap) v = gap;
        if (use_draws && draws[i] < p) {
            v = v - 1;
            if (v < 0) v = 0;
        }
        vel[i] = v;
        if ((v > gap || v < 0) && bad < 0) bad = i;
    }
    if (bad >= 0) return bad;
    for (i64 i = 0; i < n; i++) {
        i64 new_pos = pos[i] + vel[i];
        if (new_pos >= num_cells) {
            new_pos -= num_cells;
            wrapped_out[i] = 1;
        } else {
            wrapped_out[i] = 0;
        }
        pos[i] = new_pos;
    }
    return -1;
}

void cyclic_gaps(const i64 *pos, i64 num_cells, i64 *out, i64 n)
{
    if (n == 1) {
        out[0] = num_cells - 1;
        return;
    }
    for (i64 i = 0; i < n; i++) {
        out[i] = fmod_floor(pos[(i + 1) % n] - pos[i] - 1, num_cells);
    }
}

i64 row_filter(const double *powers, const double *thresholds,
               const i64 *sel_ids, i64 sender, i64 n, i64 *out_idx)
{
    i64 k = 0;
    for (i64 i = 0; i < n; i++) {
        if (powers[i] >= thresholds[i] && sel_ids[i] != sender) {
            out_idx[k] = i;
            k++;
        }
    }
    return k;
}
"""

#: Raw-address argtype: int -> pointer conversion happens in C (see the
#: module docstring for why ndpointer must not be used here).
_PTR = ctypes.c_void_p
_c_i64 = ctypes.c_int64
_c_f64 = ctypes.c_double


def _cache_dir() -> str:
    configured = os.environ.get("REPRO_KERNELS_CACHE")
    if configured:
        return configured
    home = os.path.expanduser("~")
    if home and home != "~":
        return os.path.join(home, ".cache", "repro", "kernels")
    return os.path.join(tempfile.gettempdir(), "repro-kernels")


def _find_compiler():
    configured = os.environ.get("CC")
    if configured:
        return shutil.which(configured) or configured
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _build_library() -> ctypes.CDLL:
    """Compile (once per source version) and load the kernel library."""
    tag = hashlib.sha256(C_SOURCE.encode()).hexdigest()[:16]
    suffix = "dll" if sys.platform == "win32" else "so"
    cache = _cache_dir()
    so_path = os.path.join(cache, f"reprokernels-{tag}.{suffix}")
    if not os.path.exists(so_path):
        compiler = _find_compiler()
        if compiler is None:
            raise KernelUnavailable(
                "no C compiler found (checked $CC, cc, gcc, clang)"
            )
        try:
            os.makedirs(cache, exist_ok=True)
            c_path = os.path.join(cache, f"reprokernels-{tag}.c")
            with open(c_path, "w") as handle:
                handle.write(C_SOURCE)
            fd, tmp_path = tempfile.mkstemp(
                dir=cache, suffix=f".{suffix}.tmp"
            )
            os.close(fd)
            result = subprocess.run(
                [compiler, "-O3", "-shared", "-fPIC", "-o", tmp_path, c_path],
                capture_output=True, text=True, timeout=120,
            )
            if result.returncode != 0:
                os.unlink(tmp_path)
                raise KernelUnavailable(
                    f"C compile failed ({compiler}): "
                    f"{result.stderr.strip()[:500]}"
                )
            os.replace(tmp_path, so_path)
        except KernelUnavailable:
            raise
        except (OSError, subprocess.SubprocessError) as exc:
            raise KernelUnavailable(f"cannot build kernel library: {exc}")
    try:
        lib = ctypes.CDLL(so_path)
    except OSError as exc:
        raise KernelUnavailable(f"cannot load {so_path}: {exc}")

    lib.nasch_step.argtypes = [
        _PTR, _PTR, _PTR, _PTR, _PTR, _c_i64, _c_f64, _c_i64, _c_i64, _c_i64,
    ]
    lib.nasch_step.restype = _c_i64
    lib.cyclic_gaps.argtypes = [_PTR, _c_i64, _PTR, _c_i64]
    lib.cyclic_gaps.restype = None
    lib.row_filter.argtypes = [_PTR, _PTR, _PTR, _c_i64, _c_i64, _PTR]
    lib.row_filter.restype = _c_i64
    return lib


class CjitBackend(VectorBackend):
    """Generated-C kernels (``kernels="cjit"``).

    Overrides every branchy loop with the compiled translation.  All C
    calls receive raw buffer addresses;
    a zero-length array's address is never dereferenced (every loop is
    bounded by the explicit ``n`` argument).
    """

    name = "cjit"
    compiled = True

    def __init__(self) -> None:
        super().__init__()
        self._lib = _build_library()

    def nasch_step(self, pos, vel, gaps_out, wrapped_out, draws,
                   use_draws, p, v_max, num_cells) -> int:
        return int(self._lib.nasch_step(
            pos.ctypes.data, vel.ctypes.data, gaps_out.ctypes.data,
            wrapped_out.ctypes.data, draws.ctypes.data,
            1 if use_draws else 0, p, v_max, num_cells, len(pos),
        ))

    def cyclic_gaps(self, pos, num_cells) -> np.ndarray:
        n = len(pos)
        out = np.empty(n, dtype=np.int64)
        if n:
            pos = np.ascontiguousarray(pos, dtype=np.int64)
            self._lib.cyclic_gaps(
                pos.ctypes.data, num_cells, out.ctypes.data, n
            )
        return out

    def row_filter(self, powers, thresholds, sel_ids, sender_id):
        powers = np.ascontiguousarray(powers, dtype=np.float64)
        thresholds = np.ascontiguousarray(thresholds, dtype=np.float64)
        sel_ids = np.ascontiguousarray(sel_ids, dtype=np.int64)
        out = np.empty(len(powers), dtype=np.int64)
        k = int(self._lib.row_filter(
            powers.ctypes.data, thresholds.ctypes.data,
            sel_ids.ctypes.data, sender_id, len(powers), out.ctypes.data,
        ))
        return out[:k]
