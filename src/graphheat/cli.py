"""Command-line front end emitting CSV reports.

Subcommands: ``distance`` (hop distance vs first nonzero moment order with an
equality flag), ``verify`` (leading-order and short-time bound reports),
``exponent`` (log-log slope fits), ``heat``/``wave`` (propagator sweeps with
leading-term and bound overlays), and ``moments`` (moment tables).

Exit codes: 0 success, 1 a theorem-backed check failed, 2 usage or parse
error.  Identical invocations produce byte-identical CSV: pairs and times are
emitted in sorted order and floats are formatted with shortest round-trip
representation.  Wave sweeps report the modulus of the complex element.
"""

from __future__ import annotations

import argparse
import itertools
import math
import random
import sys
from contextlib import contextmanager

from .asymptotics import leading_exponent_fit, verification_reports
from .generators import from_spec
from .graphio import GraphFormatError, load_graph
from .graphs import INFINITE, combinatorial_distance, distances_from
from .moments import UnknownAbove, first_nonzero_orders, moment_table
from .operators import LaplacianOperator
from .spectral import heat_element, select_route, wave_element

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2

PAIR_CAP = 10_000


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


def _validate(args) -> None:
    """Reject the values of the options every subcommand shares that no run can use."""
    if args.t0 <= 0:
        raise CliError(EXIT_USAGE, "--t0 must be positive")
    if not 0 < args.ratio < 1:
        raise CliError(EXIT_USAGE, "--ratio must lie strictly between 0 and 1")
    if args.count < 3:
        raise CliError(EXIT_USAGE, "--count must be at least 3")
    if args.cutoff is not None and args.cutoff < 0:
        raise CliError(EXIT_USAGE, "--cutoff must be non-negative")


def _load(args):
    if args.input and args.gen:
        raise CliError(EXIT_USAGE, "give either --input or --gen, not both")
    if args.input:
        try:
            return load_graph(args.input)
        except GraphFormatError as exc:
            raise CliError(EXIT_USAGE, f"{args.input}: {exc}") from exc
        except OSError as exc:
            raise CliError(EXIT_USAGE, str(exc)) from exc
    if args.gen:
        try:
            return from_spec(args.gen)
        except ValueError as exc:
            raise CliError(EXIT_USAGE, str(exc)) from exc
    raise CliError(EXIT_USAGE, "one of --input FILE or --gen SPEC is required")


def _select_pairs(graph, spec: str, seed) -> list[tuple[int, int]]:
    n = graph.n
    if spec == "all":
        pairs = [(x, y) for x in range(n) for y in range(x + 1, n)]
        if len(pairs) > PAIR_CAP:
            if seed is None:
                raise CliError(EXIT_USAGE,
                               f"all-pairs selection has {len(pairs)} pairs, above the cap "
                               f"{PAIR_CAP}; provide --seed to sample")
            pairs = sorted(random.Random(seed).sample(pairs, PAIR_CAP))
        return pairs
    if spec.startswith("sample:"):
        try:
            k = int(spec.split(":", 1)[1])
        except ValueError:
            raise CliError(EXIT_USAGE, f"bad sample size in --pairs {spec!r}") from None
        if k < 0:
            raise CliError(EXIT_USAGE, "sample size must be non-negative")
        if seed is None:
            raise CliError(EXIT_USAGE, "--pairs sample:k requires --seed for reproducibility")
        pairs = [(x, y) for x in range(n) for y in range(x + 1, n)]
        return sorted(random.Random(seed).sample(pairs, min(k, len(pairs))))
    pairs = []
    for item in spec.split(";"):
        item = item.strip()
        if not item:
            continue
        bits = item.split(",")
        if len(bits) != 2:
            raise CliError(EXIT_USAGE, f"bad pair {item!r}; expected 'x,y'")
        try:
            x, y = int(bits[0]), int(bits[1])
        except ValueError:
            raise CliError(EXIT_USAGE, f"bad pair {item!r}; vertex ids must be integers") from None
        if not (graph.has_vertex(x) and graph.has_vertex(y)):
            raise CliError(EXIT_USAGE, f"pair {item!r} references an unknown vertex")
        pairs.append((x, y))
    return sorted(set(pairs))


@contextmanager
def _open_out(path: str):
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _emit(out, fields) -> None:
    out.write(",".join(_fmt(f) for f in fields) + "\n")


def _order_label(order) -> str:
    return f">{order.n_max}" if isinstance(order, UnknownAbove) else str(order)


# -- subcommands ---------------------------------------------------------


def _cmd_distance(args) -> int:
    graph = _load(args)
    _validate(args)
    pairs = _select_pairs(graph, args.pairs, args.seed)
    cutoff = args.cutoff if args.cutoff is not None else graph.n
    op = LaplacianOperator(graph)
    by_source: dict[int, list[int]] = {}
    for x, y in pairs:
        by_source.setdefault(x, []).append(y)
    mismatches = 0
    sources = sorted(by_source)
    positions, orders, _ = first_nonzero_orders(op, sources, cutoff)
    with _open_out(args.out) as out:
        _emit(out, ["x", "y", "d_E", "d_L", "status"])
        for j, x in enumerate(sources):
            dist = distances_from(graph, x, cutoff=cutoff)
            for y in sorted(by_source[x]):
                d_hop = dist.get(y, INFINITE)
                order = int(orders[positions[y], j])
                if order < 0:
                    consistent = d_hop == INFINITE
                    order_text = _order_label(UnknownAbove(cutoff))
                else:
                    consistent = d_hop == order
                    order_text = str(order)
                if not consistent:
                    mismatches += 1
                _emit(out, [x, y, d_hop if d_hop != INFINITE else float("inf"),
                            order_text, "ok" if consistent else "mismatch"])
    if mismatches:
        print(f"graphheat: {mismatches} pair(s) where the moment order differs from the "
              "hop distance", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def _ratio(rep) -> float:
    """lhs/rhs of a report; 0 when lhs is exactly 0, even at rhs = 0."""
    if rep.lhs == 0.0:
        return 0.0
    return rep.lhs / rep.rhs if rep.rhs else math.inf


def _cmd_verify(args) -> int:
    graph = _load(args)
    _validate(args)
    pairs = _select_pairs(graph, args.pairs, args.seed)
    ts = sorted(args.t0 * args.ratio ** k for k in range(args.count))
    connected = []
    for x, group in itertools.groupby(pairs, key=lambda pair: pair[0]):
        dist = distances_from(graph, x, cutoff=args.cutoff)
        connected += [(x, y, dist[y]) for _, y in group if y in dist]
    failures = 0
    total = 0
    worst = None
    with _open_out(args.out) as out:
        _emit(out, ["which", "x", "y", "d", "t", "n", "lhs", "rhs", "margin", "passed"])
        try:
            batches = verification_reports(graph, connected, ts, method=args.method)
            for (_, _, d), reports in zip(connected, batches):
                for rep in reports:
                    total += 1
                    if not rep.passed:
                        failures += 1
                    if worst is None or _ratio(rep) > _ratio(worst):
                        worst = rep
                    _emit(out, [rep.which, rep.x, rep.y, d, rep.t, rep.n,
                                rep.lhs, rep.rhs, rep.margin, rep.passed])
        except ValueError as exc:
            raise CliError(EXIT_USAGE, str(exc)) from exc
    summary = (f"graphheat: {total - failures}/{total} checks passed on {len(connected)} "
               f"pair(s), {len(pairs) - len(connected)} disconnected pair(s) skipped")
    if worst is not None:
        summary += (f"; worst lhs/rhs {_ratio(worst)!r} at {worst.which} "
                    f"{worst.x},{worst.y} t={worst.t!r}")
    print(summary, file=sys.stderr)
    return EXIT_VERIFY_FAILED if failures else EXIT_OK


def _cmd_exponent(args) -> int:
    graph = _load(args)
    _validate(args)
    pairs = _select_pairs(graph, args.pairs, args.seed)
    worst = 0.0
    skipped = 0
    with _open_out(args.out) as out:
        _emit(out, ["x", "y", "group", "slope", "d_E", "abs_error", "max_residual"])
        for x, y in pairs:
            d = combinatorial_distance(graph, x, y, cutoff=args.cutoff)
            if d == INFINITE:
                skipped += 1
                continue
            try:
                fit = leading_exponent_fit(graph, x, y, args.t0, args.ratio, args.count, args.group)
            except ValueError as exc:
                raise CliError(EXIT_USAGE, str(exc)) from exc
            err = abs(fit.slope - d)
            worst = max(worst, err)
            _emit(out, [x, y, args.group, fit.slope, d, err, fit.max_residual])
    if skipped:
        print(f"graphheat: {skipped} disconnected pair(s) skipped", file=sys.stderr)
    if worst > args.tol:
        print(f"graphheat: worst slope error {worst!r} exceeds tolerance {args.tol!r}",
              file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def _pair_overlay(graph, op, x, y, cutoff):
    """(d, leading coefficient, bound coefficient) or None when disconnected."""
    d = combinatorial_distance(graph, x, y, cutoff=cutoff)
    if d == INFINITE:
        return None
    tbl = moment_table(op, x, y, d)
    lead = abs(tbl.values[d]) / math.factorial(d)
    mxx = moment_table(op, x, x, d + 1).values[d + 1]
    myy = moment_table(op, y, y, d + 1).values[d + 1]
    return d, lead, (mxx + myy) / (2 * math.factorial(d + 1))


def _cmd_sweep(args) -> int:
    graph = _load(args)
    _validate(args)
    pairs = _select_pairs(graph, args.pairs, args.seed)
    ts = sorted([args.t0 * args.ratio ** k for k in range(args.count)] + [0.0])
    op = LaplacianOperator(graph)
    with _open_out(args.out) as out:
        _emit(out, ["x", "y", "t", "value", "leading", "bound", "method"])
        for x, y in pairs:
            overlay = _pair_overlay(graph, op, x, y, args.cutoff)
            for t in ts:
                try:
                    method = select_route(graph, t, args.method)
                    if args.unitary:
                        value = abs(wave_element(graph, x, y, t, method=method))
                    else:
                        value = heat_element(graph, x, y, t, method=method)
                except ValueError as exc:
                    raise CliError(EXIT_USAGE, str(exc)) from exc
                if overlay is None:
                    leading, bound = "", ""
                else:
                    d, lead_coef, bound_coef = overlay
                    leading = t ** d * lead_coef
                    bound = t ** (d + 1) * bound_coef
                _emit(out, [x, y, t, value, leading, bound, method])
    return EXIT_OK


def _cmd_moments(args) -> int:
    graph = _load(args)
    _validate(args)
    if args.nmax < 0:
        raise CliError(EXIT_USAGE, "--nmax must be non-negative")
    pairs = _select_pairs(graph, args.pairs, args.seed)
    op = LaplacianOperator(graph)
    with _open_out(args.out) as out:
        _emit(out, ["x", "y", "n", "moment", "d_L"])
        for x, y in pairs:
            tbl = moment_table(op, x, y, args.nmax)
            label = _order_label(tbl.order)
            for n, value in enumerate(tbl.values):
                _emit(out, [x, y, n, value, label])
    return EXIT_OK


# -- wiring --------------------------------------------------------------


def _add_common(sub, t0: float, ratio: float, count: int):
    sub.add_argument("--input", metavar="FILE", help="graph file to load")
    sub.add_argument("--gen", metavar="SPEC",
                     help="builtin generator, e.g. path:6 or random:10:0.4:7")
    sub.add_argument("--pairs", default="all",
                     help="all | 'x,y;x,y;...' | sample:k (seeded)")
    sub.add_argument("--t0", type=float, default=t0, help="largest grid time")
    sub.add_argument("--ratio", type=float, default=ratio, help="geometric grid ratio")
    sub.add_argument("--count", type=int, default=count, help="grid size (>= 3)")
    sub.add_argument("--method", choices=["eigen", "series", "auto"], default="auto")
    sub.add_argument("--tol", type=float, default=0.05,
                     help="slope tolerance for the exponent command")
    sub.add_argument("--seed", type=int, default=None, help="seed for pair sampling")
    sub.add_argument("--cutoff", type=int, default=None,
                     help="search radius for distances (defaults to the vertex count)")
    sub.add_argument("--out", default="-", metavar="FILE|-", help="CSV destination")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphheat",
        description="Weighted graph Laplacians: distance/moment tables, short-time "
                    "bound verification, exponent fits, and propagator sweeps.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("distance", help="hop distance vs first nonzero moment order")
    _add_common(p, 1e-3, 0.1, 4)
    p.set_defaults(handler=_cmd_distance)

    p = subs.add_parser("verify", help="leading-order and short-time bound reports")
    _add_common(p, 1e-1, 0.1, 4)
    p.set_defaults(handler=_cmd_verify)

    p = subs.add_parser("exponent", help="log-log slope fits of the propagators")
    _add_common(p, 1e-3, 0.1, 4)
    p.add_argument("--group", choices=["heat", "wave"], default="heat")
    p.set_defaults(handler=_cmd_exponent)

    p = subs.add_parser("heat", help="heat propagator sweep with overlays")
    _add_common(p, 1.0, 0.5, 16)
    p.set_defaults(handler=_cmd_sweep, unitary=False)

    p = subs.add_parser("wave", help="wave propagator sweep (modulus) with overlays")
    _add_common(p, 1.0, 0.5, 16)
    p.set_defaults(handler=_cmd_sweep, unitary=True)

    p = subs.add_parser("moments", help="moment tables as CSV rows")
    _add_common(p, 1e-3, 0.1, 4)
    p.add_argument("--nmax", type=int, default=5, help="largest moment order")
    p.set_defaults(handler=_cmd_moments)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except CliError as exc:
        print(f"graphheat: {exc.message}", file=sys.stderr)
        return exc.code
    except BrokenPipeError:
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
