"""Process-wide OpenBLAS thread control.

numpy and scipy each bundle their own OpenBLAS build.  The builds are
found in ``/proc/self/maps``: once at the first use of the controls, and
once more at the first Lanczos call of ``clustering.cluster_upper_bound``
(``rescan_once``).  The package imports scipy only where a run needs it,
so the first scan may come before scipy's build is loaded; the Lanczos
call is the one step that runs on that build, and the second scan finds
it whoever loaded scipy.  Where ``/proc`` or the thread API is missing,
the controls do nothing.  The thread count is process-wide, so code on
other Python threads of the process sees the setting while a body runs.
Bodies may overlap across Python threads: the first to enter saves the
counts, and the last to leave restores them.  The package itself runs two
bodies at once: a Monte Carlo replication may compute its per-lag SVDs
(a pinned body) on a helper thread, while its known-counts branch runs
on the caller's thread inside the batch's body
(``simulation.replication_record``).
"""

from __future__ import annotations

import ctypes
import os
import threading
from contextlib import contextmanager, nullcontext

# The thin QR and the per-lag SVDs run on one BLAS thread when
# m = min(p, n) <= ONE_THREAD_MAX_DIM.  Medians on 2 vCPUs, two OpenBLAS
# threads against one: QR of 1000 x 250 28 against 13 ms, of 4000 x 250
# 121 against 85-107 ms; six 250 x 250 SVDs 42 against 35 ms, six
# 477 x 477 167 against 154 ms; the SVDs tie at m = 600-700, and from
# m = 800 two threads are 14-25% ahead on them (the QR from m = 1000).
# The bound comes from these timings of the two steps alone
# (BENCH_15.json, "crossover"); no end-to-end benchmark workload has
# m > 512, so the benchmark has not checked it, nor has any host with
# more cores.
ONE_THREAD_MAX_DIM = 512

# (setter, getter) pairs of the OpenBLAS thread API, in the order tried
_OPENBLAS_THREAD_API = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def _scan() -> dict[str, tuple]:
    """(setter, getter) of each OpenBLAS build loaded now, by its path.

    The builds are found in ``/proc/self/maps``; where that file is missing
    or a build exports none of the API, the result holds nothing for it.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as maps:
            lines = maps.read().splitlines()
    except OSError:
        return {}
    paths = set()
    for line in lines:
        parts = line.split(maxsplit=5)  # address perms offset dev inode path
        if len(parts) == 6 and "openblas" in os.path.basename(parts[5]).lower():
            paths.add(parts[5])
    controls = {}
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for set_name, get_name in _OPENBLAS_THREAD_API:
            if hasattr(lib, set_name) and hasattr(lib, get_name):
                setter, getter = getattr(lib, set_name), getattr(lib, get_name)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                controls[path] = (setter, getter)
                break
    return controls


# bodies running now, the counts saved by the first of them, and the builds
# found so far (None before the first scan); the count they guard is
# process-wide, so this state is too.  A forked process inherits it and
# shares its parent's libraries.
_lock = threading.Lock()
_active = 0
_saved: list[tuple] = []
_builds: dict[str, tuple] | None = None
_rescanned = False
if hasattr(os, "register_at_fork"):  # POSIX
    # a fork never copies the lock while another thread holds it
    os.register_at_fork(before=_lock.acquire, after_in_parent=_lock.release,
                        after_in_child=_lock.release)


def _openblas_thread_controls() -> tuple[tuple, ...]:
    """(setter, getter) of every OpenBLAS build found in this process.

    The first call scans; later calls return what the scans found.  The
    caller holds ``_lock``.
    """
    global _builds
    if _builds is None:
        _builds = _scan()
    return tuple(_builds.values())


def rescan_once() -> None:
    """Find the OpenBLAS builds loaded since the first scan, once per process.

    Inside a body, each build found now for the first time is set to one
    thread, and its count is restored with the others when the last body
    exits.
    """
    global _builds, _rescanned
    with _lock:
        if _rescanned:
            return
        _rescanned = True
        known = _builds or {}
        _builds = _scan()
        if _active:
            for path, (setter, getter) in _builds.items():
                if path not in known:
                    _saved.append((setter, getter()))
                    setter(1)


@contextmanager
def _one_blas_thread():
    """Run the body with every OpenBLAS build found on one thread.

    A build that ``rescan_once`` finds while the body runs joins them.
    Each build's previous thread count is restored on exit, also when the
    body raises; with bodies overlapping on several Python threads, when
    the last of them exits.  A process forked inside the body inherits the
    setting.
    """
    global _active, _saved
    with _lock:
        if _active == 0:
            _saved = [(setter, getter()) for setter, getter in _openblas_thread_controls()]
            for setter, _ in _saved:
                setter(1)
        _active += 1
    try:
        yield
    finally:
        with _lock:
            _active -= 1
            if _active == 0:
                for setter, count in _saved:
                    setter(count)


def threads_for_dim(m: int):
    """One BLAS thread for the body when m <= ``ONE_THREAD_MAX_DIM``,
    the caller's count otherwise."""
    return _one_blas_thread() if m <= ONE_THREAD_MAX_DIM else nullcontext()
