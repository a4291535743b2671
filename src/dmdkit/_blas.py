"""One scope that holds every OpenBLAS the process links at one thread.

numpy and scipy each link an OpenBLAS build, their own or a shared one,
each with one process-wide thread count.  What runs inside
:data:`_one_blas_thread` rounds the same bits under any thread setting.
"""

import contextlib
import ctypes
import functools
import importlib
import threading

# numpy's linear algebra and scipy's LAPACK; the thread-count symbols of the
# scipy-openblas wheels (64- and 32-bit integers) and of a plain OpenBLAS.
_MODULES = ("numpy.linalg._umath_linalg", "scipy.linalg._flapack")
_SYMBOLS = [prefix + "_%s_num_threads" + suffix for prefix in ("scipy_openblas", "openblas") for suffix in ("64_", "")]


@functools.cache
def _blas_threads(modules=_MODULES):
    """The (set, get) thread-count functions of each distinct OpenBLAS the modules link.

    Libraries are told apart by the address of their setter, so two
    modules that link one library yield one pair; a module whose library
    exposes no thread setter yields none.
    """
    found = {}
    for module in modules:
        try:
            lib = ctypes.CDLL(importlib.import_module(module).__file__)
        except (ImportError, OSError):
            continue
        for symbol in _SYMBOLS:
            if hasattr(lib, symbol % "set") and hasattr(lib, symbol % "get"):
                set_threads, get_threads = getattr(lib, symbol % "set"), getattr(lib, symbol % "get")
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                found.setdefault(ctypes.cast(set_threads, ctypes.c_void_p).value, (set_threads, get_threads))
                break
    return tuple(found.values())


class _OneThreadScope(contextlib.ContextDecorator):
    """Context manager and decorator holding every library of :func:`_blas_threads` at one thread.

    The counts are process-wide, so nested and concurrent entries share
    one depth counter: the first one in, from any Python thread, saves the
    counts and sets one thread, and the last one out restores them, also
    when leaving by an exception.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = ()

    def __enter__(self):
        with self._lock:
            if self._depth == 0:
                self._saved = tuple((set_threads, get_threads()) for set_threads, get_threads in _blas_threads())
                for set_threads, _ in self._saved:
                    set_threads(1)
            self._depth += 1

    def __exit__(self, *exc):
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                for set_threads, count in self._saved:
                    set_threads(count)


_one_blas_thread = _OneThreadScope()
