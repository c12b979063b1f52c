"""The package's C source, compiled on first use and loaded with ctypes.

`library(source)` compiles `src/balsel/<source>` with the C compiler Python
was built with (plain ``-O2 -shared -fPIC``) into
``__pycache__/<stem>-<sha256 prefix>.so`` next to it, and loads it.  The
name carries a hash of the source, so an edited source builds a new file
and an unchanged one is reused across processes.  The compiler writes a
temporary name that is then renamed into place, so concurrent builds
never load a half-written file.  A build then removes, as far as it can,
the cached libraries of the same source's other hashes, those of sources
the package no longer has, and the temporary files of builds whose process
has ended.  When the package directory cannot be written, the library is
built in a temporary directory for this process.
A missing or failing compiler, or a library that does not load, raises
`BuildError`.

Nothing is compiled at import time.
"""

import ctypes
import functools
import glob
import hashlib
import os
import shlex
import subprocess
import sysconfig
import tempfile

from .errors import BuildError

_HERE = os.path.dirname(os.path.abspath(__file__))
_CACHE = os.path.join(_HERE, "__pycache__")


def _compile(source, target):
    cmd = shlex.split(sysconfig.get_config_var("CC") or "cc")
    cmd += ["-O2", "-shared", "-fPIC", "-o", target, source]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    except OSError as exc:
        raise BuildError(f"cannot run {shlex.join(cmd)}: {exc}") from exc
    if proc.returncode != 0:
        first = (proc.stderr.strip().splitlines() or [f"exit code {proc.returncode}"])[0]
        raise BuildError(f"{shlex.join(cmd)} failed: {first}")


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:  # exists, owned by another user
        pass
    return True


def _prune(cache_dir, stem, target):
    """Remove `stem`'s libraries other than `target` from `cache_dir`, the
    partial files of builds whose process is gone and, from the package's
    own cache, the libraries of sources the package no longer has (such as
    `_scan-<hash>.so` of the scanner's old name).  Best effort: a file that
    cannot be removed stays."""
    stale = [p for p in glob.glob(os.path.join(cache_dir, f"{stem}-*.so")) if p != target]
    if cache_dir == _CACHE:
        for lib in glob.glob(os.path.join(cache_dir, "*-" + "?" * 16 + ".so")):
            source = os.path.basename(lib).rsplit("-", 1)[0] + ".c"
            if not os.path.exists(os.path.join(_HERE, source)):
                stale.append(lib)
    for partial in glob.glob(os.path.join(cache_dir, f"{stem}-*.so.*.tmp")):
        pid = partial.rsplit(".", 2)[-2]
        if not (pid.isdigit() and _alive(int(pid))):
            stale.append(partial)
    for path in stale:
        try:
            os.remove(path)
        except OSError:
            pass


def _build(source, cache_dir):
    """Path of the shared library of C file `source` in `cache_dir`, compiled
    there unless a library of the same source hash is already present."""
    with open(source, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()[:16]
    stem = os.path.splitext(os.path.basename(source))[0]
    target = os.path.join(cache_dir, f"{stem}-{digest}.so")
    if not os.path.exists(target):
        partial = f"{target}.{os.getpid()}.tmp"
        try:
            _compile(source, partial)
            os.replace(partial, target)
        finally:
            if os.path.exists(partial):
                os.remove(partial)
        _prune(cache_dir, stem, target)
    return target


def _writable(directory):
    try:
        os.makedirs(directory, exist_ok=True)
    except OSError:
        return False
    return os.access(directory, os.W_OK)


def _load(path):
    try:
        return ctypes.CDLL(path)
    except OSError as exc:
        raise BuildError(f"cannot load {path}: {exc}") from exc


@functools.cache
def library(source):
    """The ctypes library of `src/balsel/<source>`, built if needed."""
    path = os.path.join(_HERE, source)
    if _writable(_CACHE):
        return _load(_build(path, _CACHE))
    # the mapped library outlives its file, so the directory can go at once
    with tempfile.TemporaryDirectory(prefix="balsel-") as tmp:
        return _load(_build(path, tmp))


@functools.cache
def scanner():
    """`balsel_scan` of `_kernels.c` (see there) with its argument types."""
    fn = library("_kernels.c").balsel_scan
    size = ctypes.c_ssize_t
    fn.argtypes = [ctypes.c_char_p, size, size, ctypes.c_int, ctypes.c_void_p, size,
                   ctypes.POINTER(size)]
    fn.restype = size
    return fn


@functools.cache
def formatter():
    """`balsel_format` of `_kernels.c` (see there) with its argument types."""
    fn = library("_kernels.c").balsel_format
    size = ctypes.c_ssize_t
    fn.argtypes = [ctypes.c_void_p, size, size, ctypes.c_int, ctypes.c_void_p, size]
    fn.restype = size
    return fn
