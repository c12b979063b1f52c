"""The package's C sources, compiled on first use and loaded with ctypes.

`library(source)` compiles `src/balsel/<source>` with the C compiler Python
was built with (plain ``-O2 -shared -fPIC``) into
``__pycache__/<stem>-<sha256 prefix>.so`` next to it, and loads it.  The
name carries a hash of the source, so an edited source builds a new file
and an unchanged one is reused across processes.  The compiler writes a
temporary name that is then renamed into place, so concurrent builds
never load a half-written file.  When the package directory cannot be
written, the library is built in a temporary directory for this process.
A missing or failing compiler, or a library that does not load, raises
`BuildError`.

Nothing is compiled at import time.
"""

import ctypes
import functools
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
    """`balsel_scan` of `_scan.c` (see there) with its argument types."""
    fn = library("_scan.c").balsel_scan
    size = ctypes.c_ssize_t
    fn.argtypes = [ctypes.c_char_p, size, size, ctypes.c_int, ctypes.c_void_p, size,
                   ctypes.POINTER(size)]
    fn.restype = size
    return fn
