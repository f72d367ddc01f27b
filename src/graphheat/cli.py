"""Command-line front end emitting CSV reports.

Subcommands: ``distance`` (hop distance vs first nonzero moment order with an equality flag, the
orders from one :func:`first_nonzero_orders` stream a block of sources, bounded as in ``moments``
and stopped at its pairs' orders), ``verify`` (leading-order and short-time bound reports),
``exponent`` (log-log slope fits), ``heat``/``wave`` (propagator sweeps overlaid with each pair's
leading term and bound, a block's all from one :func:`order_terms` call on the :func:`moment_table`
values of the block's PairRows, each vertex's diagonal read once), and ``moments`` (moment tables,
a block of pairs per :func:`pair_moments` stream).  Every hop distance comes from
:func:`_hop_distances` (layered searches or an array search, no moment), which a sweep calls once
per block.  A sweep evaluates each block a time at a time from one PairRows, its one stream, which
keeps the time's eigen phases for the block.  Every subcommand writes its rows as text, in the
bytes of ``csv.writer``'s.

Each subcommand takes only the options it reads.  All take the graph
(``--input`` or ``--gen``), ``--pairs``, ``--seed`` and ``--out``; all but
``moments`` take ``--cutoff``; ``verify``, ``exponent``, ``heat`` and ``wave``
take the time grid ``--t0 --ratio --count``; ``verify``, ``heat`` and ``wave``
take ``--method``; ``exponent`` takes ``--group`` and ``--tol``, and
``moments`` ``--nmax``.  Any other option is a usage error.  :func:`main`
checks the option values, then loads the graph, selects the pairs and opens
the output once, and hands the three to the subcommand.

Exit codes: 0 success, 1 a theorem-backed check failed, 2 a usage or parse error, an unreadable
input or unwritable output, or a library ValueError or ArithmeticError (among them a moment that is
not finite, refused before its block's rows), reported by :func:`main` alone as one ``graphheat:``
line.  Identical invocations produce byte-identical CSV: pairs and times sorted, floats in shortest
round-trip form.  Wave sweeps report the modulus of the element.  Pairs without a hop distance are
skipped by ``verify`` and ``exponent``, as disconnected or, given ``--cutoff``, beyond it.
"""

from __future__ import annotations

import argparse
import functools
import math
import random
import shutil
import sys
from contextlib import nullcontext

import numpy as np

from .asymptotics import BLOCK_ELEMENTS, TAGS, exponent_fits, passes, verification_blocks
from .generators import from_spec
from .graphio import GraphFormatError, load_graph
from .graphs import distances_from, pair_distances
from .moments import PairRows, first_nonzero_orders, moment_table, pair_moments
from .operators import LaplacianOperator
from .spectral import heat_element, order_terms, select_route, wave_element

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2

PAIR_CAP = 10_000
WRITE_SLICE = 256  # (pair, t) elements of verify's rows formatted per write
FRONTIER_BYTES, WIDE_LAYERS, MIN_ARRAY_SOURCES = 1 << 20, 16, 8  # see _hop_distances, _cmd_moments


def _validate(args) -> None:
    """Reject the values no run can use, of the options the subcommand takes."""
    if "t0" in args:
        if not 0 < args.t0 < math.inf:
            raise ValueError("--t0 must be positive and finite")
        if not 0 < args.ratio < 1:
            raise ValueError("--ratio must lie strictly between 0 and 1")
        if args.count < 3:
            raise ValueError("--count must be at least 3")
    if getattr(args, "cutoff", None) is not None and args.cutoff < 0:
        raise ValueError("--cutoff must be non-negative")
    if getattr(args, "nmax", 0) < 0:
        raise ValueError("--nmax must be non-negative")
    if not getattr(args, "tol", 0) >= 0:
        raise ValueError("--tol must be non-negative")


def _load(args):
    if args.input and args.gen:
        raise ValueError("give either --input or --gen, not both")
    if args.input:
        try:
            return load_graph(args.input)
        except GraphFormatError as exc:
            raise ValueError(f"{args.input}: {exc}") from exc
    if args.gen:
        return from_spec(args.gen)
    raise ValueError("one of --input FILE or --gen SPEC is required")


def _pairs_at(n: int, indices) -> list[tuple[int, int]]:
    """The pairs x < y of n vertices at the given positions of their sorted list, sorted:
    row x of that list (its n - 1 - x pairs from x) starts at x (2n - x - 1) / 2."""
    at, x = np.fromiter(sorted(indices), np.int64), np.arange(n, dtype=np.int64)
    starts = x * (2 * n - x - 1) // 2
    rows = starts.searchsorted(at, side="right") - 1
    return list(zip(rows.tolist(), (at - starts[rows] + rows + 1).tolist()))


def _select_pairs(graph, spec: str, seed) -> list[tuple[int, int]]:
    total = graph.n * (graph.n - 1) // 2
    if spec == "all":
        if total <= PAIR_CAP:
            return _pairs_at(graph.n, range(total))
        if seed is None:
            raise ValueError(f"all-pairs selection has {total} pairs, above the cap {PAIR_CAP}; "
                             "provide --seed to sample")
        # a range samples the same positions as the list of pairs would
        return _pairs_at(graph.n, random.Random(seed).sample(range(total), PAIR_CAP))
    if spec.startswith("sample:"):
        try:
            k = int(spec.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad sample size in --pairs {spec!r}") from None
        if k < 0:
            raise ValueError("sample size must be non-negative")
        if seed is None:
            raise ValueError("--pairs sample:k requires --seed for reproducibility")
        return _pairs_at(graph.n, random.Random(seed).sample(range(total), min(k, total)))
    pairs = []
    for item in spec.split(";"):
        item = item.strip()
        if not item:
            continue
        bits = item.split(",")
        if len(bits) != 2:
            raise ValueError(f"bad pair {item!r}; expected 'x,y'")
        try:
            x, y = int(bits[0]), int(bits[1])
        except ValueError:
            raise ValueError(f"bad pair {item!r}; vertex ids must be integers") from None
        if not (graph.has_vertex(x) and graph.has_vertex(y)):
            raise ValueError(f"pair {item!r} references an unknown vertex")
        pairs.append((x, y))
    return sorted(set(pairs))


def _open_out(path: str):
    """The text file ``path``, or stdout for "-", as a context that closes only the file."""
    if path == "-":
        return nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8", newline="")


# -- subcommands ---------------------------------------------------------


def _hop_distances(graph, pairs, cutoff) -> np.ndarray:
    """Hop distances of the sorted pairs (a list or (P, 2) array) within ``cutoff``, or -1. Blocks
    of FRONTIER_BYTES / max(edges, n) xs search per x up to its last y until one search's layers
    average n / WIDE_LAYERS vertices; MIN_ARRAY_SOURCES or more xs left take one array search."""
    xy = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
    firsts = np.flatnonzero(np.diff(xy[:, 0], prepend=-1)).tolist() + [len(xy)]  # x's first pair
    hops, xs, ys = np.full(len(xy), -1), xy[:, 0].tolist(), xy[:, 1].tolist()
    size = max(1, FRONTIER_BYTES // max(len(graph.cols), graph.n, 1))  # sources per block
    for block in range(0, len(firsts) - 1, size):
        last = min(block + size, len(firsts) - 1)
        for j, lo, hi in zip(range(block, last), firsts[block:], firsts[block + 1:]):
            dist = distances_from(graph, xs[lo], cutoff=cutoff, targets=ys[lo:hi])
            hops[lo:hi] = [dist.get(y, -1) for y in ys[lo:hi]]
            if (last - j > MIN_ARRAY_SOURCES
                    and len(dist) * WIDE_LAYERS >= (max(dist.values()) + 1) * graph.n):
                hops[hi:firsts[last]] = pair_distances(graph, *xy[hi:firsts[last]].T, cutoff)
                break
    return hops


def _cmd_distance(args, graph, pairs, fh) -> int:
    cutoff, op = args.cutoff if args.cutoff is not None else graph.n, LaplacianOperator(graph)
    xy, sources = np.array(pairs, dtype=np.intp).reshape(-1, 2), sorted({x for x, _ in pairs})
    size = max(1, FRONTIER_BYTES // (8 * max(len(graph.cols), graph.n, 1)))  # as in _cmd_moments
    found = np.empty(len(xy), dtype=int)
    for block in (sources[lo:lo + size] for lo in range(0, len(sources), size)):
        at = slice(*xy[:, 0].searchsorted((block[0], block[-1] + 1)))  # the pairs are sorted by x
        reads = xy[at, 1], np.searchsorted(block, xy[at, 0])  # the block's (y, index of x)
        _, orders, _ = first_nonzero_orders(op, block, cutoff, reads)  # peak memory first
        found[at] = orders[reads]  # -1 unreached, as in hops
    hops, unknown = _hop_distances(graph, xy, cutoff), f">{cutoff}"
    fh.write("x,y,d_E,d_L,status\n" + "".join([  # the bytes of csv.writer's rows
        f"{x},{y},{'inf' if d < 0 else d},{unknown if n < 0 else n},{('mismatch', 'ok')[d == n]}\n"
        for (x, y), d, n in zip(pairs, hops.tolist(), found.tolist())]))
    mismatches = int(np.count_nonzero(hops != found))
    if mismatches:
        print(f"graphheat: {mismatches} pair(s) where the moment order differs from the "
              "hop distance", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def _write_reports(fh, triples, t_text, lhs, rhs, margin, passed):
    """Write a block's verify rows, WRITE_SLICE (pair, t) elements or one pair at a time, each
    distinct float formatted once: semigroup's lhs and margin are heat_leading's bits, as the
    finite leading term at the hop distance d is nonzero with sign (-1)^d."""
    step, flag = max(1, WRITE_SLICE // len(t_text)), ("false", "true")
    heat, wave, semigroup, unitary = TAGS  # one f-string writes the four rows of a (pair, t)
    for part in (slice(lo, lo + step) for lo in range(0, len(triples), step)):
        lhs_p, margin_p, passed_p = (a[part].reshape(-1, len(TAGS)) for a in (lhs, margin, passed))
        texts = [map(repr, v[:, k].tolist()) for v in (lhs_p, margin_p) for k in (0, 1, 3)]
        elements = zip([f"{x},{y},{d},{t},{d}," for x, y, d in triples[part] for t in t_text],
                       map(repr, rhs[part].ravel().tolist()), *texts, passed_p.tolist())
        fh.write("".join([f"{heat},{mid}{lh},{b},{mh},{flag[ph]}\n"
                          f"{wave},{mid}{lw},{b},{mw},{flag[pw]}\n"
                          f"{semigroup},{mid}{lh},{b},{mh},{flag[ps]}\n"
                          f"{unitary},{mid}{lu},{b},{mu},{flag[pu]}\n"
                          for mid, b, lh, lw, lu, mh, mw, mu, (ph, pw, ps, pu) in elements]))


def _skipped(args, count: int) -> str:
    """The pairs without a hop distance: disconnected, or beyond --cutoff where one is given."""
    return f"{count} " + ("disconnected pair(s)" if args.cutoff is None
                          else f"pair(s) beyond --cutoff {args.cutoff}") + " skipped"


def _cmd_verify(args, graph, pairs, fh) -> int:
    ts = sorted(args.t0 * args.ratio ** k for k in range(args.count))
    hops = _hop_distances(graph, pairs, args.cutoff).tolist()
    connected = [(x, y, d) for (x, y), d in zip(pairs, hops) if d >= 0]
    total = failures = vacuous = 0
    worst = None  # (lhs/rhs, which, x, y, t) at the first largest ratio
    t_text = [repr(t) for t in ts]
    fh.write("which,x,y,d,t,n,lhs,rhs,margin,passed\n")
    for triples, lhs, rhs in verification_blocks(graph, connected, ts, method=args.method):
        with np.errstate(divide="ignore", invalid="ignore"):
            margin = rhs - lhs
            # lhs/rhs, 0 where lhs is exactly 0 even at rhs = 0
            ratio = np.where(lhs == 0.0, 0.0, np.where(rhs != 0.0, lhs / rhs, np.inf))
        passed = passes(lhs, rhs)
        total, failures = total + passed.size, failures + passed.size - int(passed.sum())
        vacuous += int(np.count_nonzero((lhs == 0.0) & (rhs == 0.0)))
        top = np.unravel_index(np.argmax(ratio), ratio.shape)
        if worst is None or ratio[top] > worst[0]:
            worst = (float(ratio[top]), TAGS[top[2]], *triples[top[0]][:2], ts[top[1]])
        _write_reports(fh, triples, t_text, lhs, rhs[..., 0], margin, passed)
    summary = (f"graphheat: {total - failures}/{total} checks passed on {len(connected)} "
               f"pair(s), {_skipped(args, len(pairs) - len(connected))}")
    if vacuous:  # 0 <= 0 says nothing of t^d, as where element, term and bound underflow
        summary += f", {vacuous} vacuous (lhs = rhs = 0.0)"
    if worst is not None:
        summary += "; worst lhs/rhs {!r} at {} {},{} t={!r}".format(*worst)
    print(summary, file=sys.stderr)
    return EXIT_VERIFY_FAILED if failures else EXIT_OK


def _cmd_exponent(args, graph, pairs, fh) -> int:
    worst = 0.0
    hops = _hop_distances(graph, pairs, args.cutoff).tolist()
    connected = [(x, y, d) for (x, y), d in zip(pairs, hops) if d >= 0]
    fits = exponent_fits(graph, [(x, y) for x, y, _ in connected], args.t0, args.ratio,
                         args.count, args.group)
    fh.write("x,y,group,slope,d_E,abs_error,max_residual\n")
    # connected leads the zip, so a run without connected pairs takes no fit
    for (x, y, d), fit in zip(connected, fits):
        err = abs(fit.slope - d)
        worst = max(worst, err)
        fh.write(f"{x},{y},{args.group},{fit.slope!r},{d},{err!r},{fit.max_residual!r}\n")
    if len(connected) < len(pairs):
        print(f"graphheat: {_skipped(args, len(pairs) - len(connected))}", file=sys.stderr)
    if worst > args.tol:
        print(f"graphheat: worst slope error {worst!r} exceeds tolerance {args.tol!r}",
              file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def _cmd_sweep(args, graph, pairs, fh) -> int:
    ts = sorted([args.t0 * args.ratio ** k for k in range(args.count)] + [0.0])
    size = max(1, BLOCK_ELEMENTS // len(ts))  # pairs per stream
    fh.write("x,y,t,value,leading,bound,method\n")
    routes = [select_route(graph, t, args.method) for t in ts]
    element, t_text = wave_element if args.unitary else heat_element, [repr(t) for t in ts]
    for lo in range(0, len(pairs), size):
        block = pairs[lo:lo + size]
        rows = PairRows(graph, block)  # one stream per block: the floats it converts live with it
        # a time at a time, so the rows keep each eigen time's phases for the whole block
        values = [[element(rows, x, y, t, method=method) for x, y in block]
                  for t, method in zip(ts, routes)]
        hops = _hop_distances(graph, block, args.cutoff).tolist()
        reached = [(x, y, d) for (x, y), d in zip(block, hops) if d >= 0]
        top = {}  # per vertex, the highest order d + 1 its reached pairs read
        for x, y, d in reached:
            top[x], top[y] = max(top.get(x, 0), d + 1), max(top.get(y, 0), d + 1)
        diagonal = {v: moment_table(rows, v, v, n).values for v, n in top.items()}  # m_vv(0..n)
        exp = rows.exp  # the rows' scale is s = 2^exp; terms yields (leading, bound) by pair, t
        terms = zip(*(map(repr, side.ravel().tolist()) for side in order_terms(
            np.multiply(ts, rows.scale), [d for _, _, d in reached],
            [math.ldexp(abs(moment_table(rows, x, y, d).values[d]), -exp * d)
             for x, y, d in reached],
            [math.ldexp(diagonal[x][d + 1] + diagonal[y][d + 1], -exp * (d + 1))
             for x, y, d in reached])))
        lines = []  # the block's rows, pair by pair, in the bytes of csv.writer's
        for j, (x, y) in enumerate(block):
            for text, method, column in zip(t_text, routes, values):
                value = abs(column[j]) if args.unitary else column[j]
                leading, bound = next(terms) if hops[j] >= 0 else ("", "")  # empty: not reached
                lines.append(f"{x},{y},{text},{value!r},{leading},{bound},{method}\n")
        fh.write("".join(lines))
    return EXIT_OK


def _cmd_moments(args, graph, pairs, fh) -> int:
    cap = FRONTIER_BYTES // (8 * max(len(graph.cols), graph.n, 1))  # y columns of (edge, y) terms
    size, unknown = max(1, min(BLOCK_ELEMENTS // (args.nmax + 1), cap)), f">{args.nmax}"  # pairs
    fh.write("x,y,n,moment,d_L\n")
    for lo in range(0, len(pairs), size):
        block = pairs[lo:lo + size]
        with np.errstate(over="ignore", invalid="ignore"):  # at a target, refused below
            table = np.array(list(pair_moments(graph, block, args.nmax))).T  # (pair, order)
        if not np.isfinite(table).all():  # the block's first such row, before any is written
            i, n = divmod(int(np.argmin(np.isfinite(table))), args.nmax + 1)
            raise ArithmeticError(f"the moment of pair {block[i]} at order {n} is not finite")
        firsts = (table != 0.0).argmax(axis=1).tolist()  # d_L, where that moment is nonzero
        fh.write("".join([f"{x},{y},{n},{value!r},{d if values[d] else unknown}\n"
                          for (x, y), values, d in zip(block, table.tolist(), firsts)
                          for n, value in enumerate(values)]))
    return EXIT_OK


# -- wiring --------------------------------------------------------------


def _subcommand(subs, name, handler, help_text, cutoff=True, grid=None, method=False,
                **defaults):
    """A subparser with the options every subcommand reads, then ``--cutoff``,
    the time grid (``--t0 --ratio --count`` with the defaults ``grid``) and
    ``--method`` where the subcommand reads them."""
    sub = subs.add_parser(name, help=help_text)
    sub.set_defaults(handler=handler, **defaults)
    sub.add_argument("--input", metavar="FILE", help="graph file to load")
    sub.add_argument("--gen", metavar="SPEC",
                     help="builtin generator, e.g. path:6 or random:10:0.4:7")
    sub.add_argument("--pairs", default="all",
                     help="all | 'x,y;x,y;...' | sample:k (seeded)")
    sub.add_argument("--seed", type=int, default=None, help="seed for pair sampling")
    sub.add_argument("--out", default="-", metavar="FILE|-", help="CSV destination")
    if cutoff:
        sub.add_argument("--cutoff", type=int, default=None,
                         help="search radius for distances (defaults to the vertex count)")
    if grid is not None:
        t0, ratio, count = grid
        sub.add_argument("--t0", type=float, default=t0, help="largest grid time")
        sub.add_argument("--ratio", type=float, default=ratio, help="geometric grid ratio")
        sub.add_argument("--count", type=int, default=count, help="grid size (>= 3)")
    if method:
        sub.add_argument("--method", choices=["eigen", "series", "auto"], default="auto")
    return sub


@functools.cache  # once per process: a build costs more than parsing a command line
def _build_parser() -> argparse.ArgumentParser:
    parser_class = functools.partial(argparse.ArgumentParser, formatter_class=functools.partial(
        argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2))  # queried once
    parser = parser_class(prog="graphheat", description="Weighted graph Laplacians: distance/"
                          "moment tables, short-time bound verification, exponent fits, and "
                          "propagator sweeps.")
    subs = parser.add_subparsers(dest="command", required=True, parser_class=parser_class)
    _subcommand(subs, "distance", _cmd_distance, "hop distance vs first nonzero moment order")
    _subcommand(subs, "verify", _cmd_verify, "leading-order and short-time bound reports",
                grid=(1e-1, 0.1, 4), method=True)
    p = _subcommand(subs, "exponent", _cmd_exponent, "log-log slope fits of the propagators",
                    grid=(1e-3, 0.1, 4))
    p.add_argument("--group", choices=["heat", "wave"], default="heat")
    p.add_argument("--tol", type=float, default=0.05, help="slope tolerance")
    _subcommand(subs, "heat", _cmd_sweep, "heat propagator sweep with overlays",
                grid=(1.0, 0.5, 16), method=True, unitary=False)
    _subcommand(subs, "wave", _cmd_sweep, "wave propagator sweep (modulus) with overlays",
                grid=(1.0, 0.5, 16), method=True, unitary=True)
    p = _subcommand(subs, "moments", _cmd_moments, "moment tables as CSV rows", cutoff=False)
    p.add_argument("--nmax", type=int, default=5, help="largest moment order")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _validate(args)
        graph = _load(args)
        pairs = _select_pairs(graph, args.pairs, args.seed)
        with _open_out(args.out) as fh:
            return args.handler(args, graph, pairs, fh)
    except BrokenPipeError:  # an OSError: the reader has all it wanted
        return EXIT_OK
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"graphheat: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
