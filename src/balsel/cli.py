"""Command-line interface and text file formats.

Commands
--------
gramians     write W_c / W_o of a model in the matrix text format
select       QR sensor/actuator selection with diagnostics and bounds
bruteforce   exhaustive subset enumeration histogram (CSV)
bench-random QR objective vs. random-ensemble sweep over ranks (CSV)
gl-demo      Ginzburg-Landau placement + closed-loop + gain-map CSVs
scaling      pivoting runtime sweeps over state dimension and rank

Matrix text format: a header line ``matrix <rows> <cols> <real|complex>``
followed by whitespace-separated row-major entries, complex entries as
``re,im``; ``#`` starts a comment.  A model file is a line
``model <continuous|discrete>`` followed by the A, B, C matrix blocks.
Files are read as bytes: separators are ASCII whitespace, entries are
ASCII numbers (see ``_kernels.c``), and comments may hold any bytes.
Every float is written as ``f"{x:.17g}"`` spells it; matrix blocks and the
``bruteforce`` value column come from one compiled formatter call per chunk.
Indices printed by commands are 1-based; exit codes are 0 (ok),
2 (domain error), 3 (parse error: a malformed command line, option value,
input file or unwritable output), 4 (resource cap), 5 (the compiled number
scanner and formatter could not be built).
"""

import argparse
import ctypes
import os
import re
import sys

import numpy as np

from . import _native, balancing, evaluation, gramian, matkernel, models, selection, statespace
from .errors import (
    BalselError,
    BuildError,
    EnumerationCapError,
    FormatError,
)

__all__ = [
    "main",
    "write_matrix",
    "read_matrix",
    "write_model",
    "read_model",
    "read_keyvalue_config",
]

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_PARSE = 3
EXIT_CAP = 4
EXIT_BUILD = 5


# ---------------------------------------------------------------- formats


def _fmt(x):
    return f"{x:.17g}"


# Bytes of one real entry and its separator: "-1.2345678901234567e-308 ".
_ENTRY_BYTES = 25
# Text formatted per compiled call; a longer block is written in row chunks.
_CHUNK_BYTES = 1 << 20


def _write_rows(fh, a):
    """Write the rows of 2-D real or complex `a` as text: each number as
    `_fmt` spells it, re,im for a complex entry, a space between entries and
    a newline after each row.  One compiled call per chunk of rows, each
    chunk a C-contiguous float64/complex128 copy only where needed."""
    fmt = _native.formatter()
    pairs = np.iscomplexobj(a)
    dtype = np.complex128 if pairs else np.float64
    rows, cols = a.shape
    row_bytes = cols * _ENTRY_BYTES * (2 if pairs else 1) + 1
    step = max(1, _CHUNK_BYTES // row_bytes)
    buf = np.empty(step * row_bytes, dtype=np.uint8)
    for start in range(0, rows, step):
        chunk = np.ascontiguousarray(a[start:start + step], dtype=dtype)
        n = fmt(chunk.ctypes.data, len(chunk), cols, pairs, buf.ctypes.data, buf.size)
        fh.write(str(buf[:n].data, "ascii"))


def write_matrix(fh, a, name=None):
    a = matkernel.as_matrix(a)
    field = "real" if not np.any(a.imag) else "complex"
    if name:
        fh.write(f"# {name}\n")
    fh.write(f"matrix {a.shape[0]} {a.shape[1]} {field}\n")
    _write_rows(fh, a if field == "complex" else a.real)


# A token and the separators and '#' comments before it.  Separators are the
# ASCII bytes str.split() treats as whitespace; a comment runs to the next
# ASCII line end str.splitlines() honours.  _kernels.c reads the same grammar.
_TOKEN = re.compile(rb"(?:[\t-\r\x1c-\x20]|#[^\n-\r\x1c-\x1e]*)*([^\t-\r\x1c-\x20#]*)")


def _token(buf, pos):
    """The token of `buf` after offset `pos` (b'' at the end) and the offset after it."""
    m = _TOKEN.match(buf, pos)
    return m[1], m.end()


def _quote(tok):
    """Token bytes quoted as repr quotes a str; bytes above 0x7f as \\xNN."""
    return repr(tok)[1:]


def _read_block(buf, pos):
    """The matrix block of `buf` at offset `pos`, and the offset after it.

    The entries are read by one call of the compiled scanner, which stops at
    the first token that is not an entry of the block's field.
    """
    head, pos = _token(buf, pos)
    if not head:
        raise FormatError("expected a matrix block")
    if head != b"matrix":
        raise FormatError(f"expected 'matrix' header, found {_quote(head)}")
    rows, pos = _token(buf, pos)
    cols, pos = _token(buf, pos)
    field, pos = _token(buf, pos)
    try:
        rows, cols = int(rows), int(cols)
    except ValueError as exc:
        raise FormatError("malformed matrix header") from exc
    if rows < 0 or cols < 0 or not field:
        raise FormatError("malformed matrix header")
    if field not in (b"real", b"complex"):
        raise FormatError(f"unknown field tag {_quote(field)}")
    total = rows * cols
    if total > (len(buf) + 1) // 2:  # allocate only what the text can fill
        raise FormatError("matrix block ended early")
    data = np.empty(total, dtype=np.complex128 if field == b"complex" else np.float64)
    stop = ctypes.c_ssize_t()
    filled = _native.scanner()(
        buf, len(buf), pos, field == b"complex", data.ctypes.data, total, ctypes.byref(stop)
    )
    if filled < total:
        if stop.value == len(buf):
            raise FormatError("matrix block ended early")
        raise FormatError(f"bad matrix entry {_quote(_token(buf, stop.value)[0])}")
    if not np.isfinite(data).all():
        raise FormatError("matrix has non-finite (nan or inf) entries")
    return data.reshape(rows, cols), stop.value


def _expect_end(buf, pos):
    """FormatError naming the first token left after the last block."""
    extra, _ = _token(buf, pos)
    if extra:
        raise FormatError(f"unexpected trailing input {_quote(extra)}")


def _as_bytes(text):
    return text.encode("utf-8", "surrogatepass") if isinstance(text, str) else text


def read_matrix(text):
    """Parse one matrix block from bytes or str in the matrix text format."""
    buf = _as_bytes(text)
    a, pos = _read_block(buf, 0)
    _expect_end(buf, pos)
    return a


def write_model(fh, m):
    fh.write(f"model {m.time_domain}\n")
    write_matrix(fh, m.a, "A")
    write_matrix(fh, m.b, "B")
    write_matrix(fh, m.c, "C")


def read_model(text):
    """Parse a model file (bytes or str): 'model <domain>' plus A, B, C blocks."""
    buf = _as_bytes(text)
    head, pos = _token(buf, 0)
    if not head:
        raise FormatError("empty model file")
    if head != b"model":
        raise FormatError(f"expected 'model' header, found {_quote(head)}")
    tag, pos = _token(buf, pos)
    if not tag:
        raise FormatError("missing time-domain tag")
    domain = tag.decode("latin-1")
    if domain not in (statespace.CONTINUOUS, statespace.DISCRETE):
        raise FormatError(f"unknown time domain {_quote(tag)}")
    a, pos = _read_block(buf, pos)
    b, pos = _read_block(buf, pos)
    c, pos = _read_block(buf, pos)
    _expect_end(buf, pos)
    try:
        return statespace.StateSpaceModel(a, b, c, time_domain=domain)
    except BalselError as exc:
        raise FormatError(str(exc)) from exc


def read_keyvalue_config(text):
    """Parse a flat key=value config file ('#' comments allowed)."""
    out = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FormatError(f"line {lineno}: expected key=value")
        key, val = line.split("=", 1)
        out[key.strip()] = val.strip()
    return out


def _parse_complex_cfg(s):
    try:
        return complex(s.replace(" ", ""))
    except ValueError as exc:
        raise FormatError(f"bad complex number {s!r}") from exc


def _parse_mu_profile(s):
    parts = tuple(float(v) for v in s.split(","))
    if len(parts) != 3:
        raise FormatError("mu_profile needs three coefficients")
    return parts


# the --gl-params keys and their value parsers
_GL_KEYS = {"n": int, "nu": _parse_complex_cfg, "beta_diff": _parse_complex_cfg,
            "mu_profile": _parse_mu_profile, "kernel_width": float}


def gl_params_from_config(cfg):
    unknown = sorted(set(cfg) - set(_GL_KEYS))
    if unknown:
        raise FormatError(f"unknown --gl-params key {', '.join(unknown)}")
    try:
        return models.GinzburgLandauParams(**{k: _GL_KEYS[k](v) for k, v in cfg.items()})
    except (ValueError, BalselError) as exc:
        raise FormatError(str(exc)) from exc


# ---------------------------------------------------------------- helpers


def _load_model(args):
    if args.generate:
        n, p, q, seed, domain = args.generate
        return models.random_stable_system(n, p, q, seed, time_domain=domain)
    try:
        with open(args.model, "rb") as fh:
            text = fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read {args.model}: {exc}") from exc
    return read_model(text)


def _rank(args):
    """`--rank` or its alias `--budget`, which must be equal if both are given."""
    given = {args.rank, args.budget} - {None}
    if len(given) > 1:
        raise FormatError(f"--rank and --budget differ: {sorted(given)}")
    if not given:
        raise FormatError("--rank (or --budget) is required")
    return given.pop()


def _ones_based(indices):
    return ",".join(str(int(i) + 1) for i in indices)


def _select_on_model(m, r, no_collocate):
    grams = gramian.compute_gramians(m)
    bal = balancing.balance(grams, r)
    sel = selection.select_subsets(m.c, m.b, bal.psi_r, bal.phi_r, no_collocate=no_collocate)
    return grams, bal, sel


# ---------------------------------------------------------------- commands


def cmd_gramians(args):
    _native.formatter()  # a build failure then leaves no partial file
    m = _load_model(args)
    grams = gramian.compute_gramians(m)
    outdir = args.out or "."
    os.makedirs(outdir, exist_ok=True)
    for name, mat in (("Wc.txt", grams.w_c), ("Wo.txt", grams.w_o)):
        with open(os.path.join(outdir, name), "w") as fh:
            write_matrix(fh, mat, name.split(".")[0])
    print(f"wrote {outdir}/Wc.txt and {outdir}/Wo.txt")
    print(f"residual_c {_fmt(grams.residual_c)}")
    print(f"residual_o {_fmt(grams.residual_o)}")
    return EXIT_OK


def cmd_select(args):
    m = _load_model(args)
    r = _rank(args)
    grams, bal, sel = _select_on_model(m, r, args.no_collocate)
    # score the r x r sampled blocks, never the p x p and q x q products
    c_hat, b_hat, own = m.c[sel.gamma], m.b[:, sel.beta], np.arange(r)
    block_s = c_hat @ grams.w_c @ c_hat.conj().T
    block_a = b_hat.conj().T @ grams.w_o @ b_hat
    if args.metric == "h2":  # before any output; compute_gramians proved stability
        h2 = (statespace._h2_from_gramians(m, grams, 1e-8),
              statespace._h2_from_frequency(m, args.freq_grid))

    print(f"gamma {_ones_based(sel.gamma)}")
    print(f"beta {_ones_based(sel.beta)}")
    print("r_diag_sensors " + " ".join(_fmt(v) for v in sel.r_diag_sensors))
    print("r_diag_actuators " + " ".join(_fmt(v) for v in sel.r_diag_actuators))
    print(f"logdet_sensor {_fmt(evaluation.logdet_objective(own, block_s))}")
    print(f"logdet_actuator {_fmt(evaluation.logdet_objective(own, block_a))}")
    print(f"trace_sensor {_fmt(evaluation.trace_objective(own, block_s))}")
    if args.metric == "h2":
        print(f"h2_norm {_fmt(h2[0])}")
        print(f"h2_norm_frequency {_fmt(h2[1])}")
    err_explicit, err_sqrt_p = selection._state_error_bounds(
        m.c, bal.psi_r, bal.hankel, "sensors")
    low_s = selection.sensor_logdet_lower_bound(m.c, bal.psi_r, bal.hankel, sel.gamma)
    low_a = selection.actuator_logdet_lower_bound(m.b, bal.phi_r, bal.hankel, sel.beta)
    print(f"interp_error_bound {_fmt(err_explicit)}")
    print(f"interp_error_bound_sqrt_p {_fmt(err_sqrt_p)}")
    print(f"logdet_lower_bound_sensor {_fmt(low_s)}")
    print(f"logdet_lower_bound_actuator {_fmt(low_a)}")

    if args.out:
        with open(args.out, "w") as fh:
            fh.write("side,pivot_rank,index,abs_r_diag\n")
            for k, (j, d) in enumerate(zip(sel.gamma, sel.r_diag_sensors), 1):
                fh.write(f"sensor,{k},{int(j) + 1},{_fmt(d)}\n")
            for k, (j, d) in enumerate(zip(sel.beta, sel.r_diag_actuators), 1):
                fh.write(f"actuator,{k},{int(j) + 1},{_fmt(d)}\n")
    return EXIT_OK


def cmd_bruteforce(args):
    _native.formatter()  # a build failure then leaves no partial file
    m = _load_model(args)
    budget = _rank(args)
    grams, bal, sel = _select_on_model(m, budget, args.no_collocate)
    gram_sensor = m.c @ grams.w_c @ m.c.conj().T
    best, values = evaluation.brute_force(gram_sensor, budget, cap=args.cap, metric=args.metric)
    # scored like the enumeration (sorted indices, same kernel), so the QR
    # subset's own entry is never counted strictly below its score
    qr_value = evaluation._subset_values(gram_sensor, np.sort(sel.gamma)[None], args.metric)[0]
    pct = evaluation.percentile_strictly_below(values, qr_value)
    out = args.out or "bruteforce.csv"
    with open(out, "w") as fh:
        fh.write("value\n")
        _write_rows(fh, values[:, None])
        fh.write(
            f"# best={_fmt(values.max())} qr={_fmt(qr_value)} percentile={_fmt(pct)}\n"
        )
    print(f"subsets {values.size}")
    print(f"best {_fmt(values.max())}")
    print(f"qr_value {_fmt(qr_value)}")
    print(f"percentile {_fmt(pct)}")
    print(f"wrote {out}")
    return EXIT_OK


def cmd_bench_random(args):
    m = _load_model(args)
    ranks = args.ranks if args.rank is None else [args.rank]
    # sweep before opening the file, so a failure leaves no partial CSV
    sweeps = evaluation.rank_sweeps(m, ranks, args.seeds, count=args.ensemble_count)
    out = args.out or "bench_random.csv"
    with open(out, "w") as fh:
        fh.write("seed,r,qr_value,sample_id,sample_value\n")
        for seed, rows in zip(args.seeds, sweeps):
            for row in rows:
                for sid, sval in enumerate(row["samples"]):
                    fh.write(
                        f"{seed},{row['r']},{_fmt(row['qr_value'])},{sid},{_fmt(sval)}\n"
                    )
    print(f"wrote {out}")
    return EXIT_OK


def cmd_gl_demo(args):
    if args.gl_params:
        try:
            with open(args.gl_params, encoding="utf-8") as fh:
                params = gl_params_from_config(read_keyvalue_config(fh.read()))
        except (OSError, UnicodeDecodeError) as exc:
            raise FormatError(f"cannot read {args.gl_params}: {exc}") from exc
    else:
        params = models.GinzburgLandauParams()
    outdir = args.out or "."
    os.makedirs(outdir, exist_ok=True)
    xi = params.grid

    placement_path = os.path.join(outdir, "placement.csv")
    pipe = None
    with open(placement_path, "w") as fh:
        fh.write("r,pair,sensor_index,sensor_xi,actuator_index,actuator_xi,h2,stable\n")
        # the plant, its controller and their gramians do not depend on r
        try:
            stage, failure = models._gl_plant_stage(params), None
        except BalselError as exc:
            stage, failure = None, exc
        for r in range(1, args.rank + 1):
            try:
                if failure is not None:
                    raise failure
                pipe = models._gl_rank_stage(stage, r, args.no_collocate)
            except BalselError as exc:
                print(f"r={r}: synthesis failed: {exc}", file=sys.stderr)
                continue
            sel = pipe["selection"]
            gs = np.sort(sel.gamma)
            bs = np.sort(sel.beta)
            for k in range(r):
                fh.write(
                    f"{r},{k + 1},{int(gs[k]) + 1},{_fmt(xi[gs[k]])},"
                    f"{int(bs[k]) + 1},{_fmt(xi[bs[k]])},"
                    f"{_fmt(pipe['h2'])},{int(pipe['stable'])}\n"
                )
            print(
                f"r={r}: h2={_fmt(pipe['h2'])} stable={pipe['stable']} "
                f"sensors xi={np.round(xi[gs], 3).tolist()} "
                f"actuators xi={np.round(xi[bs], 3).tolist()}"
            )

    if pipe is None:  # every rank failed, as reported above: no result
        return EXIT_DOMAIN
    gains, gs, bs = models.lqg_gain_grid(
        pipe["controller"], pipe["selection"].gamma, pipe["selection"].beta, args.freq_grid, xi
    )
    gain_path = os.path.join(outdir, "lqg_gain.csv")
    with open(gain_path, "w") as fh:
        fh.write("omega,actuator_row,sensor_col,gain_db\n")
        for i, omega in enumerate(args.freq_grid.points):
            for j in range(gains.shape[1]):
                for k in range(gains.shape[2]):
                    fh.write(f"{_fmt(omega)},{j + 1},{k + 1},{_fmt(gains[i, j, k])}\n")
    print(f"wrote {placement_path} and {gain_path}")
    return EXIT_OK


def cmd_scaling(args):
    out = args.out or "scaling.csv"
    ns = (1000, 2000, 4000, 8000)
    rs = (5, 10, 20, 40)
    n_fixed = 4000
    t_n = matkernel._pivoting_times([(n, args.rank) for n in ns], seed=args.seed_value)
    t_r = matkernel._pivoting_times([(n_fixed, r) for r in rs], seed=args.seed_value)
    rows = [("n", n, args.rank, t) for n, t in zip(ns, t_n)]
    rows += [("r", n_fixed, r, t) for r, t in zip(rs, t_r)]
    with open(out, "w") as fh:
        fh.write("sweep,n,r,seconds\n")
        for sweep, n, r, sec in rows:
            fh.write(f"{sweep},{n},{r},{_fmt(sec)}\n")
    for sweep, xs, ts in (("n", ns, t_n), ("r", rs, t_r)):
        slope = np.polyfit(np.log(xs), np.log(ts), 1)[0]
        print(f"{sweep}-sweep fitted exponent {slope:.3f}")
    print(f"wrote {out}")
    return EXIT_OK


# ---------------------------------------------------------------- driver


def _integer(text, low=1):
    """`text` as an integer >= `low`."""
    try:
        if int(text) >= low:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")


def _seed(text):
    return _integer(text, low=0)


def _seed_list(text):
    return [_seed(v) for v in text.split(",")]


def _rank_list(text):
    """`lo-hi` (as a range, never listed) or a comma list of ranks."""
    if "-" not in text:
        return [_integer(v) for v in text.split(",")]
    lo, hi = (_integer(v) for v in text.split("-", 1))
    if lo > hi:
        raise argparse.ArgumentTypeError(f"rank range {text!r} is empty")
    return range(lo, hi + 1)


def _generate_spec(text):
    """`n,p,q,seed[,discrete]` as (n, p, q, seed, time domain); n, p and q
    are checked by `random_stable_system`."""
    parts = text.split(",")
    try:
        n, p, q, seed, domain = parts if len(parts) == 5 else parts + [statespace.CONTINUOUS]
        n, p, q, seed = (int(v) for v in (n, p, q, seed))
        if seed < 0:
            raise ValueError
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected integers n,p,q,seed[,discrete] with seed >= 0, got {text!r}") from None
    if domain not in (statespace.CONTINUOUS, statespace.DISCRETE):
        raise argparse.ArgumentTypeError(f"unknown time domain {domain!r}")
    return n, p, q, seed, domain


def _freq_grid(text):
    """`lo,hi,count` as `count` log-spaced frequencies from lo to hi; the
    count is bounded by `evaluation.DEFAULT_CAP` before anything is allocated."""
    try:
        lo, hi, count = text.split(",")
        lo, hi, count = float(lo), float(hi), int(count)
        if 0.0 < lo <= hi < np.inf and 1 <= count <= evaluation.DEFAULT_CAP:
            return statespace.log_grid(lo, hi, count)
    except (ValueError, BalselError):
        pass
    raise argparse.ArgumentTypeError(
        f"expected lo,hi,count, 0 < lo < hi, 1 <= count <= {evaluation.DEFAULT_CAP}: {text!r}")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose every rejection is a FormatError (exit 3),
    the ArgumentTypeError of an option's type included."""

    def error(self, message):
        raise FormatError(message)


def _add_model_args(p):
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--model", help="model file (matrix text format)")
    source.add_argument("--generate", type=_generate_spec,
                        help="random stable model spec n,p,q,seed[,discrete]")


def build_parser():
    parser = _Parser(
        prog="balsel",
        description="Balanced-truncation sensor/actuator selection toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gramians", help="write controllability/observability gramians")
    _add_model_args(p)
    p.add_argument("--out", help="output directory")

    p = sub.add_parser("select", help="QR sensor/actuator selection")
    _add_model_args(p)
    p.add_argument("--rank", type=_integer)
    p.add_argument("--budget", type=_integer)
    p.add_argument("--no-collocate", action="store_true")
    p.add_argument("--metric", choices=("logdet", "trace", "h2"), default="logdet")
    p.add_argument("--freq-grid", type=_freq_grid, default=statespace.log_grid(),
                   help="frequency grid lo,hi,count")
    p.add_argument("--out", help="CSV output path")

    p = sub.add_parser("bruteforce", help="exhaustive subset enumeration")
    _add_model_args(p)
    p.add_argument("--rank", type=_integer)
    p.add_argument("--budget", type=_integer)
    p.add_argument("--no-collocate", action="store_true")
    p.add_argument("--metric", choices=("logdet", "trace"), default="logdet")
    # a string default goes through the type, so a bad BALSEL_CAP exits 3
    p.add_argument("--cap", type=_integer,
                   default=os.environ.get("BALSEL_CAP", str(evaluation.DEFAULT_CAP)))
    p.add_argument("--out", help="CSV output path")

    p = sub.add_parser("bench-random", help="QR vs random ensembles across ranks")
    _add_model_args(p)
    ranks = p.add_mutually_exclusive_group()
    ranks.add_argument("--rank", type=_integer)
    ranks.add_argument("--ranks", type=_rank_list, default="1-10",
                       help="rank range lo-hi or comma list")
    p.add_argument("--seeds", type=_seed_list, default="0", help="comma-separated ensemble seeds")
    p.add_argument("--ensemble-count", type=_integer, default=200)
    p.add_argument("--out", help="CSV output path")

    p = sub.add_parser("gl-demo", help="Ginzburg-Landau placement demo")
    p.add_argument("--gl-params", help="key=value parameter file")
    p.add_argument("--rank", type=_integer, default=5, help="largest budget (default 5)")
    p.add_argument("--no-collocate", action="store_true")
    p.add_argument("--freq-grid", type=_freq_grid,
                   default=statespace.FrequencyGrid(np.array([0.1, 10.0, 1000.0])),
                   help="gain-map frequency grid lo,hi,count")
    p.add_argument("--out", help="output directory")

    p = sub.add_parser("scaling", help="pivoting runtime scaling sweeps")
    p.add_argument("--rank", type=_integer, default=10, help="fixed rank for the n sweep")
    p.add_argument("--seed-value", type=_seed, default=0)
    p.add_argument("--out", help="CSV output path")

    return parser


_COMMANDS = {
    "gramians": cmd_gramians,
    "select": cmd_select,
    "bruteforce": cmd_bruteforce,
    "bench-random": cmd_bench_random,
    "gl-demo": cmd_gl_demo,
    "scaling": cmd_scaling,
}


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except FormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:  # inputs are read under FormatError: an output failed
        print(f"parse error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (EnumerationCapError, MemoryError) as exc:  # e.g. numpy's "Unable to allocate ..."
        print(f"cap exceeded: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_CAP
    except BuildError as exc:
        print(f"build error: {exc}", file=sys.stderr)
        return EXIT_BUILD
    except BalselError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
