"""Check that two source trees of balsel give byte-identical command outputs.

Usage (from the repository root):

    python3 tools/same_outputs.py --parent HEAD --change src

`--parent` is a git revision, extracted into a temporary directory by
`bench_pairs.extract`; `--change` is a `src` directory (the one holding
`balsel/`), usually the working tree's.  `compare` takes two `src`
directories, for trees already on disk.  The
script writes its input models once, then runs every command of `COMMANDS`
as `python -m balsel.cli ...` on each side, with OPENBLAS_NUM_THREADS=1 and
`PYTHONPATH` set to that side's `src`.  Each run has its own fresh working
directory under the side's temporary directory, and every `--out` path is
relative to it.  Stdout, stderr, the exit code and every file the run
wrote are compared; the first difference is printed and the script exits
1.  Without a difference it exits 0.

The models are random but fixed (numpy's default generator, fixed seeds)
and written by this script in the matrix text format, so neither side's
writer is involved: a stable continuous model, a Schur-stable discrete
one, a complex continuous one, and one with more actuators than sensors.
One command is expected to fail (a rank above the state dimension), so
the error path is compared too.
"""

import argparse
import os
import subprocess
import sys
import tempfile

import numpy as np
from bench_pairs import extract

# name: (time domain, n, p, q, complex, seed)
MODELS = {
    "cont": ("continuous", 10, 6, 5, False, 1),
    "disc": ("discrete", 8, 5, 5, False, 2),
    "cplx": ("continuous", 8, 8, 4, True, 3),
    "wide": ("continuous", 8, 4, 7, False, 4),  # q > p
}

COMMANDS = [
    ["gramians", "--model", "{cont}", "--out", "g"],
    ["gramians", "--model", "{disc}", "--out", "g"],
    ["gramians", "--model", "{cplx}", "--out", "g"],
    ["select", "--model", "{cont}", "--rank", "3", "--out", "sel.csv"],
    ["select", "--model", "{cont}", "--rank", "3", "--metric", "trace", "--out", "sel.csv"],
    ["select", "--model", "{cont}", "--rank", "3", "--metric", "h2", "--out", "sel.csv"],
    ["select", "--model", "{cont}", "--rank", "3", "--no-collocate", "--out", "sel.csv"],
    ["select", "--model", "{disc}", "--rank", "2", "--out", "sel.csv"],
    ["select", "--model", "{disc}", "--rank", "9", "--out", "sel.csv"],  # rank > n: exit 2
    ["select", "--model", "{cplx}", "--rank", "3", "--no-collocate", "--out", "sel.csv"],
    ["select", "--model", "{wide}", "--rank", "3", "--out", "sel.csv"],
    ["select", "--model", "{wide}", "--rank", "2", "--no-collocate", "--out", "sel.csv"],
    ["bruteforce", "--model", "{cont}", "--rank", "3", "--out", "bf.csv"],
    ["bench-random", "--model", "{cont}", "--ranks", "1-4", "--seeds", "0,1",
     "--ensemble-count", "50", "--out", "br.csv"],
    ["gl-demo", "--out", "gl"],
    ["gl-demo", "--no-collocate", "--rank", "3", "--out", "gl"],
]


def _block(a):
    field = "complex" if np.iscomplexobj(a) else "real"
    if field == "complex":
        rows = [" ".join(f"{z.real!r},{z.imag!r}" for z in row) for row in a.tolist()]
    else:
        rows = [" ".join(repr(x) for x in row) for row in a.tolist()]
    return f"matrix {a.shape[0]} {a.shape[1]} {field}\n" + "\n".join(rows) + "\n"


def model_text(domain, n, p, q, cplx, seed):
    """A random stable model file: `A`'s spectrum is shifted into the open
    left half plane (continuous) or scaled into the unit disc (discrete)."""
    rng = np.random.default_rng(seed)

    def draw(*shape):
        x = rng.standard_normal(shape)
        return x + 1j * rng.standard_normal(shape) if cplx else x

    a, b, c = draw(n, n) / np.sqrt(n), draw(n, q), draw(p, n)
    lam = np.linalg.eigvals(a)
    if domain == "continuous":
        a = a - (lam.real.max() + 0.5) * np.eye(n)
    else:
        a = a * (0.9 / np.abs(lam).max())
    return f"model {domain}\n" + _block(a) + _block(b) + _block(c)


def _run(src, argv, cwd):
    """(exit code, stdout, stderr, {relative path: bytes}) of one command."""
    os.makedirs(cwd)
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-m", "balsel.cli", *argv], cwd=cwd, env=env,
                          capture_output=True, check=False)
    files = {}
    for root, _, names in os.walk(cwd):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, cwd)] = fh.read()
    return proc.returncode, proc.stdout, proc.stderr, files


def _first_line_difference(what, x, y):
    xs, ys = x.decode(errors="replace").splitlines(), y.decode(errors="replace").splitlines()
    for k in range(max(len(xs), len(ys))):
        a = xs[k] if k < len(xs) else "<end>"
        b = ys[k] if k < len(ys) else "<end>"
        if a != b:
            return f"{what} differs at line {k + 1}:\n  parent: {a}\n  change: {b}"
    return f"{what} differs (line endings or trailing bytes)"


def _difference(parent, change):
    """The first difference between two `_run` results, or None."""
    (code_p, out_p, err_p, files_p), (code_c, out_c, err_c, files_c) = parent, change
    if code_p != code_c:
        return f"exit code differs: parent {code_p}, change {code_c}"
    for what, x, y in (("stdout", out_p, out_c), ("stderr", err_p, err_c)):
        if x != y:
            return _first_line_difference(what, x, y)
    if sorted(files_p) != sorted(files_c):
        return f"written files differ: parent {sorted(files_p)}, change {sorted(files_c)}"
    for name in sorted(files_p):
        if files_p[name] != files_c[name]:
            return _first_line_difference(f"file {name}", files_p[name], files_c[name])
    return None


def compare(parent_src, change_src, commands=COMMANDS):
    """The first difference as text ("<command>: <what differs>"), or None."""
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        inputs = {}
        for name, spec in MODELS.items():
            inputs[name] = os.path.join(tmp, f"{name}.txt")
            with open(inputs[name], "w") as fh:
                fh.write(model_text(*spec))
        for k, template in enumerate(commands):
            argv = [arg.format(**inputs) for arg in template]
            runs = [_run(src, argv, os.path.join(tmp, side, str(k)))
                    for side, src in (("parent", parent_src), ("change", change_src))]
            diff = _difference(*runs)
            if diff is not None:
                return f"balsel {' '.join(template)}: {diff}"
    return None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="the parent's git revision, e.g. HEAD")
    ap.add_argument("--change", required=True, help="the change's src directory")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="same_outputs_parent_") as tree:
        extract(args.parent, tree)
        diff = compare(os.path.join(tree, "src"), args.change)
    if diff is not None:
        print(f"first difference: {diff}")
        return 1
    print(f"{len(COMMANDS)} commands: stdout, stderr, exit code and written files identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
