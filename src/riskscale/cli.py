"""Batch command line front end.

Usage: ``riskscale <command> --config <path> [--seed N] [--out <path>]``
with commands sample, premium, taildep, and verify. Results are CSV files
(17 significant digits, '.' decimal separator) or, for verify, a line-per-
check report. Identical configuration and seed produce byte-identical
output. CSV values are formatted by :func:`csvfmt.format_rows`, which gives
exactly the text of ``"%.17g"`` from whole-array numpy passes (exact
digits by Dekker's two-product; ``%`` itself only for nan, inf, zero and
the scientific range). The rows go in CSV_CHUNK_ROWS-row chunks through the
worker pool of ``rng.ordered_map`` and are written in chunk order, so the
bytes do not depend on the worker count and memory does not grow with the
formatted text. Rows that hold a nan or an infinity are refused with exit 3,
never written; numpy's floating-point warnings are silenced while
``sample``, ``premium`` and ``taildep`` compute them, since that check (and
``tails.tail_convergence_table``'s refusal of a nan sample) reports their
outcome on its one line, and while the config is parsed, whose model checks
refuse a non-finite value on theirs. Finite rows of a Dirichlet kind with a
``point_mass`` radius r must then lie on their L_p sphere of radius r to
``dirichlet.SPHERE_TOL``, or the run exits 3 with the one line of that check
(``config.KINDS`` gives the exponents and the radius; a random radius puts
rows on no one sphere and is not checked). The output is opened only once
the results are computed, so a failed run leaves no file. The worker count
is set by the RISKSCALE_THREADS environment variable alone
(``rng.resolve_workers``); :func:`run` takes none. The config file is read
as UTF-8, a leading
byte-order mark ignored; a file that cannot be read or decoded exits 2.
Thresholds that ``taildep`` drops for too few exceedances are named on
stderr. The module imports numpy only: for the verify command,
``parse_config`` loads ``verify`` and its ``scipy.special`` oracles, so
``sample``, ``premium`` and ``taildep`` never import scipy.

Exit status: 0 ok, 1 verification check failed, 2 usage or parse error
(including a RISKSCALE_THREADS that is not an integer) or an output that
cannot be written, 3 numeric/model error, out of memory, or any other
exception (an internal error, reported on one line without a traceback).
On exit 1 the whole report is written, then one stderr line names each
failing check with the labels of its failing sub-tests
(``GofReport.failing``); on exit 0 stderr stays empty.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

import numpy as np

from .config import KINDS, RunConfig, parse_config
from .csvfmt import format_rows
from .dirichlet import SPHERE_TOL, sphere_deviation
from .errors import ConfigError, OutputError, RiskscaleError
from .rng import RngStream, ordered_map, resolve_workers
from .tails import tail_convergence_table

#: Rows per formatted CSV chunk. Small, so that the numpy temporaries of the
#: chunks in flight add little to peak memory.
CSV_CHUNK_ROWS = 4096


@contextlib.contextmanager
def _output(path: str | None):
    """``write(bytes)`` for the run's output; I/O failures become OutputError.

    Standard output is written through its binary buffer, or as ASCII text
    where it has none (say, under ``contextlib.redirect_stdout``).
    """
    try:
        if path is None:
            sys.stdout.flush()
            buffer = getattr(sys.stdout, "buffer", None)
            if buffer is None:
                yield lambda data: sys.stdout.write(data.decode("ascii"))
                sys.stdout.flush()
            else:
                yield buffer.write
                buffer.flush()
        else:
            with open(path, "wb") as fh:
                yield fh.write
    except OSError as exc:
        raise OutputError(f"cannot write output: {exc}") from exc


def _write_csv(path: str | None, header: list[str], rows: np.ndarray) -> None:
    """Write the header and the rows, one "%.17g" text per value.

    "%.17g" gives the same text as format(float(v), ".17g") for every
    double, nan, inf and -0.0 included, so doubles round-trip losslessly.
    Chunks are formatted on the worker pool and written in order.
    """
    chunks = [rows[lo:lo + CSV_CHUNK_ROWS] for lo in range(0, len(rows), CSV_CHUNK_ROWS)]
    with _output(path) as write:
        write((",".join(header) + "\n").encode("ascii"))
        for text in ordered_map(format_rows, chunks):
            write(text)


def _run_taildep(config: RunConfig, stream: RngStream) -> tuple[list[str], np.ndarray]:
    rows = tail_convergence_table(config.model, config.query, stream)
    kept = {r["t"] for r in rows}
    dropped = [t for t in config.query.t_grid if t not in kept]
    if dropped:
        print("riskscale: taildep dropped t = "
              + ", ".join(format(t, "g") for t in dropped)
              + " (too few exceedances)", file=sys.stderr)
    header = ["t", "empirical_ratio", "stderr", "limit_estimate", "limit_stderr"]
    return header, np.array([[r[key] for key in header] for r in rows])


def run(config: RunConfig) -> int:
    """Execute a validated configuration; returns the process exit status."""
    stream = RngStream(config.seed)
    if config.command == "verify":
        from . import verify  # loaded by parse_config; only verify needs scipy

        checks = verify.builtin_verify_suite(config.seed)
        with _output(config.output_path) as write:
            write(verify.render_report(checks).encode("ascii"))
        failed = [f"{c.test_name} ({', '.join(c.failing)})" for c in checks if not c.passed]
        if failed:
            print("riskscale: verify failed: " + "; ".join(failed), file=sys.stderr)
        return 1 if failed else 0
    sphere = None
    # a nan or inf is reported by the checks below (or by the tail table's
    # own refusal), and a power of the sphere check that overflows reads as
    # a deviation
    with np.errstate(all="ignore"):
        if config.command == "taildep":
            header, rows = _run_taildep(config, stream)
        else:
            rows, sphere = KINDS[config.kind].run(config, stream)
            prefix = "x" if config.command == "sample" else "p"
            header = [f"{prefix}{i + 1}" for i in range(rows.shape[1])]
        low, high = rows.min(), rows.max()  # a nan carries through both: no n-sized mask
        if not (np.isfinite(low) and np.isfinite(high)):
            raise RiskscaleError(f"the output holds non-finite values (min {low:g}, "
                                 f"max {high:g}); nothing was written")
        if sphere is not None:  # finite rows of a point_mass radius (config.KINDS)
            deviation = sphere_deviation(rows, *sphere)
            if deviation > SPHERE_TOL:
                raise RiskscaleError(f"sphere self-audit failed: max deviation "
                                     f"{deviation:.3e} exceeds {SPHERE_TOL:g}")
    _write_csv(config.output_path, header, rows)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riskscale",
        description="Sample risk models, evaluate credibility premiums, and "
                    "verify distributional identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in (
        ("sample", "draw model samples to CSV"),
        ("premium", "evaluate a closed-form credibility premium"),
        ("taildep", "tabulate empirical vs limiting joint tail ratios"),
        ("verify", "run the built-in verification suite"),
    ):
        cmd = sub.add_parser(name, help=blurb)
        cmd.add_argument("--config", required=True, help="path to a key=value file")
        cmd.add_argument("--seed", type=int, default=None,
                         help="override the seed from the config file")
        cmd.add_argument("--out", default=None,
                         help="output path (default: config 'out' key or stdout)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.config, encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"riskscale: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        with np.errstate(all="ignore"):  # the model checks refuse what numpy warns of
            config = parse_config(text, command=args.command, seed=args.seed,
                                  output_path=args.out)
        resolve_workers()  # a bad RISKSCALE_THREADS fails before any output opens
        return run(config)
    except ConfigError as exc:
        print(f"riskscale: config error: {exc}", file=sys.stderr)
        return 2
    except OutputError as exc:
        print(f"riskscale: {exc}", file=sys.stderr)
        return 2
    except RiskscaleError as exc:
        print(f"riskscale: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print(f"riskscale: out of memory running {args.command}", file=sys.stderr)
        return 3
    except Exception as exc:  # a bug
        message = " ".join(str(exc).split())
        print(f"riskscale: internal error: {type(exc).__name__}: {message}",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
