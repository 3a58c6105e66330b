"""Deterministic sweep CLI: protocol curves, phase-loss circles, optima.

Subcommands
    sweep      success probability over a (phi, od_b, p_de) grid
    circle     phase-loss circle points for given blockaded optical depths
    opt-phase  optimal phase and success per optical depth, with scaling fits
    selftest   quick simulator-versus-formula and circle consistency check

Exit codes: 0 success, 1 usage error, 2 numerical/model error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import sys
from typing import Any, Callable, Iterable, NamedTuple, Optional, Sequence, TextIO

from . import analytics
from .rydberg import _reachable, loss_from_phase

__all__ = ["main"]
USAGE_ERROR, NUMERICAL_ERROR, IO_ERROR = 1, 2, 3
MAX_POINTS = 1_000_000  # per range and per sweep grid, checked before the grid is built

ANGLE_GRAMMAR = """\
angle grammar (BNF):
  angle  := expr | expr ":" expr ":" INT      (range: 2 <= INT <= 1000000 points, inclusive)
  expr   := ["-"] factor { ("*" | "/") factor }
  factor := "pi" | NUMBER
examples: pi, pi/3, 2*pi/3, 0.875, -1/11, 0:pi:128
"""


PROTOCOL_TABLE: dict[str, analytics.Protocol] = {p.alias: p for p in analytics.PROTOCOLS}
PROTOCOLS = tuple(PROTOCOL_TABLE)
OPT_PROTOCOLS = ("bm", "evl", "ghz")  # the three elementary circuits: opt-phase's choices and selftest's checks
# The sweep calls closed forms through this dict, so each entry can be swapped alone.
_FORMULA: dict[str, Callable[..., Any]] = {alias: p.formula for alias, p in PROTOCOL_TABLE.items()}
_CONFIG_FIELDS = ("protocol", "phi", "odb", "pde", "phi1_ratio", "engine", "out", "format")  # sweep --config keys
_ROUTER_PORTS = (("router-uu", (2, 0)), ("router-uw", (1, 1)), ("router-ww", (0, 2)))


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def parse_pi_expr(text: str) -> float:
    """Evaluate a tiny angle expression: optional sign, pi and numbers joined by * or /."""
    s = text.strip()
    if not s:
        raise CliError(f"empty angle expression in {text!r}", USAGE_ERROR)
    sign = 1.0
    if s.startswith("-"):
        sign = -1.0
        s = s[1:]
    tokens: list[str] = []
    cur = ""
    for ch in s:
        if ch in "*/":
            tokens.extend((cur, ch))
            cur = ""
        else:
            cur += ch
    tokens.append(cur)
    try:
        value = _factor(tokens[0])
        for op, tok in zip(tokens[1::2], tokens[2::2]):
            value = value * _factor(tok) if op == "*" else value / _factor(tok)
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"bad angle expression {text!r}: {exc}", USAGE_ERROR) from None
    return sign * value


def _factor(token: str) -> float:
    token = token.strip()
    if token == "pi":
        return math.pi
    return float(token)


def parse_phi_spec(text: str) -> list[float]:
    """A single angle or an inclusive ``start:stop:points`` range."""
    if ":" not in text:
        return [parse_pi_expr(text)]
    parts = text.split(":")
    if len(parts) != 3:
        raise CliError(f"range must be start:stop:points, got {text!r}", USAGE_ERROR)
    start, stop = parse_pi_expr(parts[0]), parse_pi_expr(parts[1])
    return _linear_grid(start, stop, _parse_count(parts[2], "range"))


def _linear_grid(start: float, stop: float, n: int) -> list[float]:
    """``n >= 2`` evenly spaced points from ``start`` to ``stop``, both ends exact."""
    return [start + (stop - start) * i / (n - 1) for i in range(n - 1)] + [stop]


def _parse_count(text: str, what: str) -> int:
    """The point count of a range: an integer from 2 to ``MAX_POINTS``."""
    try:
        n = int(text)
    except ValueError:
        raise CliError(f"point count must be an integer, got {text!r}", USAGE_ERROR) from None
    if n < 2:
        raise CliError(f"{what} needs at least 2 points", USAGE_ERROR)
    if n > MAX_POINTS:
        raise CliError(f"{what} has {n} points; at most {MAX_POINTS} are allowed", USAGE_ERROR)
    return n


def _parse_float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise CliError(f"bad number {text!r}", USAGE_ERROR) from None


def _parse_float_list(text: str) -> list[float]:
    return [_parse_float(piece) for piece in text.split(",")]


def _check_operating_point(phis: Sequence[float], ods: Sequence[float], pdes: Sequence[float]) -> None:
    """Refuse values outside the model's domain; a phase beyond od_b/4 is a row status instead."""
    if not all(math.isfinite(phi) for phi in phis):
        raise CliError("phi and phi1 must be finite", USAGE_ERROR)
    try:
        for od in ods:
            loss_from_phase(0.0, od)  # the circle's od_b rule: positive, and (od_b/4)^2 finite unless od_b is inf
    except ValueError as exc:
        raise CliError(f"{exc} (inf allowed)", USAGE_ERROR) from None
    if not all(0.0 <= pde <= 1.0 for pde in pdes):
        raise CliError("p_de must lie in [0, 1]", USAGE_ERROR)


_NUMBER = "%.12g"  # every number the CLI writes


def _fmt(x: float) -> str:
    return _NUMBER % x


# --------------------------------------------------------------------- sweep


class SweepPoint(NamedTuple):
    phi: float
    od_b: float
    p_de: float
    phi1: float


def _row(pt: SweepPoint, protocol: str, engine: str, formula: Optional[float], sim: Optional[float], status: str) -> dict:
    """One output record of raw values, keys in JSON order."""
    row = {
        "phi": pt.phi,
        "od_b": pt.od_b,
        "p_de": pt.p_de,
        "phi1": pt.phi1,
        "protocol": protocol,
        "engine": engine,
        "probability": sim if engine == "simulator" else formula,
        "status": status,
    }
    if engine == "both":  # both values exist or neither does
        row["probability_sim"] = sim
        row["abs_delta"] = None if sim is None else abs(formula - sim)
    return row


def _sweep_point_rows(protocol: str, engine: str, pt: SweepPoint) -> list[dict]:
    spec = PROTOCOL_TABLE[protocol]
    args = [getattr(pt, field) for field in spec.args]
    try:
        f_val = _FORMULA[protocol](*args) if engine != "simulator" else None
        s_val = spec.simulate(*args) if engine != "formula" else None
        status = "ok"
    except ValueError:
        if _reachable(pt.phi, pt.od_b, pt.phi1):
            raise  # an engine fault at a reachable point: exit 2, with nothing written
        f_val = s_val = None
        status = "unreachable"
    if protocol != "router":
        return [_row(pt, protocol, engine, f_val, s_val, status)]
    return [
        _row(pt, label, engine, None if f_val is None else f_val[port], None if s_val is None else s_val.get(port, 0.0), status)
        for label, port in _ROUTER_PORTS
    ]


def _render_sweep(rows: Iterable[dict], engine: str, fmt: str) -> str:
    """The whole sweep output; a CSV line is formatted as its row arrives and the row dropped."""
    both = engine == "both"
    header = ["phi", "od_b", "p_de", "phi1", "protocol", "engine", "probability"]
    header += ["probability_sim", "abs_delta", "status"] if both else ["status"]
    as_csv = fmt == "csv"
    out: list = [",".join(header)] if as_csv else []
    # An ok row has a value in every cell: one format string writes its line.
    ok_line = ",".join("%s" if k in ("protocol", "engine", "status") else _NUMBER for k in header)
    cells = operator.itemgetter(*header)
    max_delta = 0.0
    for r in rows:
        if both and r["abs_delta"] is not None:
            max_delta = max(max_delta, r["abs_delta"])
        if not as_csv:
            out.append({k: _jsonf(v) for k, v in r.items()})
        elif r["status"] == "ok":
            out.append(ok_line % cells(r))
        else:
            out.append(",".join([_cell(r[k]) for k in header]))
    if not as_csv:
        doc: object = out if not both else {"records": out, "max_abs_delta": _jsonf(max_delta)}
        return json.dumps(doc, indent=2) + "\n"
    if both:
        out.append(f"# max_abs_delta = {_fmt(max_delta)}")
    out.append("")  # the final newline, without copying the joined text
    return "\n".join(out)


def _cell(x: Optional[object]) -> str:
    return "" if x is None else x if isinstance(x, str) else _fmt(x)


def _jsonf(x: Optional[object]) -> object:
    if x is None or isinstance(x, str):
        return x
    if math.isinf(x):
        return "inf"
    return float(_fmt(x))


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                cfg = json.load(fh)
        except OSError as exc:
            raise CliError(f"cannot read config: {exc}", IO_ERROR) from None
        except ValueError as exc:  # not UTF-8, not JSON, or an integer past Python's digit limit
            raise CliError(f"bad config file: {exc}", USAGE_ERROR) from None
        if not isinstance(cfg, dict):
            raise CliError("config file must hold a JSON object", USAGE_ERROR)
        for key in cfg:
            if key not in _CONFIG_FIELDS:
                raise CliError(f"unknown config field {key!r}; expected any of {', '.join(_CONFIG_FIELDS)}", USAGE_ERROR)
        for key in _CONFIG_FIELDS:
            value = cfg.get(key)
            if value is None or getattr(args, key) is not None:
                continue
            if isinstance(value, bool) or not isinstance(value, (str, int, float)):
                raise CliError(f"config field {key!r} must be a string or a number", USAGE_ERROR)
            setattr(args, key, str(value))
    protocol = args.protocol or "bm"
    if protocol not in PROTOCOLS:
        raise CliError(f"unknown protocol {protocol!r}; choose from {', '.join(PROTOCOLS)}", USAGE_ERROR)
    engine = {"sim": "simulator"}.get(args.engine or "formula", args.engine or "formula")
    if engine not in ("formula", "simulator", "both"):
        raise CliError(f"unknown engine {args.engine!r}", USAGE_ERROR)
    fmt = args.format or "csv"
    if fmt not in ("csv", "json"):
        raise CliError(f"unknown format {fmt!r}", USAGE_ERROR)
    phis = parse_phi_spec(args.phi if args.phi is not None else "0:pi:128")
    ods = _parse_float_list(args.odb) if args.odb is not None else [math.inf]
    pdes = _parse_float_list(args.pde) if args.pde is not None else [1.0]
    ratio = parse_pi_expr(args.phi1_ratio) if args.phi1_ratio is not None else 0.0
    if len(phis) * len(ods) * len(pdes) > MAX_POINTS:
        raise CliError(f"sweep grid has {len(phis) * len(ods) * len(pdes)} points; at most {MAX_POINTS} are allowed", USAGE_ERROR)
    if ratio != 0.0 and "phi1" not in PROTOCOL_TABLE[protocol].args:
        raise CliError(f"protocol {protocol!r} has no detuned variant; use --phi1-ratio 0", USAGE_ERROR)
    _check_operating_point(phis + [ratio * phi for phi in phis], ods, pdes)
    rows = (
        row
        for phi in phis
        for od in ods
        for pde in pdes
        for row in _sweep_point_rows(protocol, engine, SweepPoint(phi, od, pde, ratio * phi))
    )
    text = _render_sweep(rows, engine, fmt)  # every row runs before the output is opened
    return _write_output(args.out, lambda fh: fh.write(text))


# -------------------------------------------------------------------- circle


def cmd_circle(args: argparse.Namespace) -> int:
    ods = _parse_float_list(args.odb) if args.odb is not None else [3.5, 8.0]
    _check_operating_point([], ods, [])
    if not all(map(math.isfinite, ods)):
        raise CliError("circle output needs a finite od_b", USAGE_ERROR)
    points = args.points
    if points < 2:
        raise CliError("--points must be >= 2", USAGE_ERROR)
    if points * len(ods) > MAX_POINTS:
        raise CliError(f"circle grid has {points * len(ods)} points; at most {MAX_POINTS} are allowed", USAGE_ERROR)

    def emit(fh: TextIO) -> None:
        fh.write("phi,od_b,branch,eps,tau\n")
        for od in ods:
            phis = _linear_grid(-od / 4.0, od / 4.0, points)
            for branch in ("lower", "upper"):
                for phi in phis:
                    cp = loss_from_phase(phi, od, branch)
                    fh.write(
                        ",".join((_fmt(phi), _fmt(od), branch, _fmt(cp.eps), _fmt(cp.tau))) + "\n"
                    )

    return _write_output(args.out, emit)


# ----------------------------------------------------------------- opt-phase


def _parse_od_range(text: str) -> list[float]:
    """Log-spaced ``start:stop:points`` optical depths; a grid ``analytics.log_grid`` refuses is a usage error."""
    parts = text.split(":")
    if len(parts) != 3:
        raise CliError(f"od_b range must be start:stop:points, got {text!r}", USAGE_ERROR)
    lo, hi, n = _parse_float(parts[0]), _parse_float(parts[1]), _parse_count(parts[2], "od_b range")
    try:
        return analytics.log_grid(lo, hi, n)
    except ValueError as exc:
        raise CliError(f"bad od_b range {text!r}: {exc}", USAGE_ERROR) from None


def cmd_opt_phase(args: argparse.Namespace) -> int:
    name = PROTOCOL_TABLE[args.protocol or "bm"].name
    odb = args.odb if args.odb is not None else "60:2000:20"
    ods = _parse_od_range(odb) if ":" in odb else _parse_float_list(odb)
    pde = _parse_float(args.pde) if args.pde is not None else 1.0
    _check_operating_point([], ods, [pde])
    results = [analytics.find_optimal_phase(name, od, pde) for od in ods]

    def emit(fh: TextIO) -> None:
        fh.write("od_b,phi_opt,p_opt\n")
        for r in results:
            fh.write(",".join((_fmt(r.od_b), _fmt(r.phi_opt), _fmt(r.p_opt))) + "\n")
        finite = [r for r in results if not math.isinf(r.od_b)]
        finite_ods = [r.od_b for r in finite]
        for label, ys in (("infidelity", [1.0 - r.p_opt for r in finite]), ("phase_gap", [math.pi - r.phi_opt for r in finite])):
            slope, _ = analytics.loglog_fit(finite_ods, ys)
            if not math.isnan(slope):  # a fit needs two distinct finite od_b
                fh.write(f"# {label}_exponent = {_fmt(slope)}\n")

    return _write_output(args.out, emit)


# ------------------------------------------------------------------ selftest


def cmd_selftest(args: argparse.Namespace) -> int:
    del args
    worst = 0.0
    for phi in (math.pi / 4, math.pi / 3, 2.5):
        for od in (math.inf, 30.0):
            for name in OPT_PROTOCOLS:  # the three elementary circuits
                spec = PROTOCOL_TABLE[name]
                delta = abs(spec.formula(phi, od, 0.95) - spec.simulate(phi, od, 0.95))
                worst = max(worst, delta)
                print(f"{name} phi={_fmt(phi)} od_b={_fmt(od)} |delta|={delta:.3e}")
    circle_worst = 0.0
    for i in range(200):
        od = 5.0 + i * 0.7
        phi = (od / 4.0) * (i % 97) / 97.0
        cp = loss_from_phase(phi, od)
        resid = abs((cp.eps / 2.0 - od / 4.0) ** 2 + phi ** 2 - (od / 4.0) ** 2)
        circle_worst = max(circle_worst, resid)
    print(f"circle max residual = {circle_worst:.3e}")
    if worst > 1e-10 or circle_worst > 1e-12:
        print("selftest FAILED", file=sys.stderr)
        return NUMERICAL_ERROR
    print("selftest ok")
    return 0


# ----------------------------------------------------------------- plumbing


def _write_output(path: Optional[str], emit: Callable[[TextIO], None]) -> int:
    if path in (None, "-"):
        emit(sys.stdout)
        return 0
    try:
        fh = open(path, "w", encoding="utf-8", newline="\n")
    except (OSError, ValueError) as exc:  # ValueError: a path holding a NUL byte
        raise CliError(f"cannot write {path}: {exc}", IO_ERROR) from None
    try:
        with fh:
            emit(fh)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}", IO_ERROR) from None
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(USAGE_ERROR)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nlrouter",
        description=__doc__,
        epilog=ANGLE_GRAMMAR,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="protocol success probabilities over a grid", epilog=ANGLE_GRAMMAR, formatter_class=argparse.RawDescriptionHelpFormatter)
    sweep.add_argument("--protocol", choices=PROTOCOLS, help="protocol to sweep (default bm)")
    sweep.add_argument("--phi", help="angle or start:stop:points range (default 0:pi:128); the phi x odb x pde grid holds at most 1000000 points")
    sweep.add_argument("--odb", help="comma list of blockaded optical depths; inf allowed (default inf)")
    sweep.add_argument("--pde", help="comma list of detection efficiencies (default 1)")
    sweep.add_argument("--phi1-ratio", dest="phi1_ratio", help="single-photon detuning phase as a multiple of phi (default 0)")
    sweep.add_argument("--engine", choices=("formula", "simulator", "sim", "both"), help="evaluation engine (default formula)")
    sweep.add_argument("--format", choices=("csv", "json"), help="output format (default csv)")
    sweep.add_argument("--config", help=f"JSON file whose object may set any of {', '.join(_CONFIG_FIELDS)} (command-line flags win); any other key is a usage error")
    sweep.add_argument("--out", help="output path (default stdout)")
    sweep.set_defaults(func=cmd_sweep)

    circle = sub.add_parser("circle", help="phase-loss circle for given optical depths")
    circle.add_argument("--odb", help="comma list of blockaded optical depths (default 3.5,8)")
    circle.add_argument("--points", type=int, default=101, help="samples per branch (default 101); points x odb values at most 1000000")
    circle.add_argument("--out", help="output path (default stdout)")
    circle.set_defaults(func=cmd_circle)

    opt = sub.add_parser("opt-phase", help="optimal phase versus optical depth")
    opt.add_argument("--protocol", choices=OPT_PROTOCOLS, help="protocol (default bm)")
    opt.add_argument("--odb", help="comma list or log-spaced start:stop:points (default 60:2000:20); the exponent footer is printed only with two distinct finite od_b")
    opt.add_argument("--pde", help="detection efficiency (default 1)")
    opt.add_argument("--out", help="output path (default stdout)")
    opt.set_defaults(func=cmd_opt_phase)

    selftest = sub.add_parser("selftest", help="quick engine cross-check")
    selftest.set_defaults(func=cmd_selftest)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"nlrouter: error: {exc}", file=sys.stderr)
        return exc.code
    except ValueError as exc:
        print(f"nlrouter: numerical error: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
