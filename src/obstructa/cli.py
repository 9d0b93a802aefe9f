"""Command-line surface.

Exit codes are part of the contract: 0 success / verified, 1 counterexamples
found, 2 input parse error or malformed worker count, 3 input beyond an
exhaustive-search cap, 4 invalid family spec.
"""

from __future__ import annotations

import json
import sys
from typing import NoReturn, Optional

import click

from . import enumeration
from .decompose import (
    find_proper_2_cutset,
    find_special_edges,
    has_k4_minor,
    is_chordless,
    is_two_sparse,
    recognize_line_graph,
    reduce_adjacent_degree2,
    reduce_special_edges,
    triangle_free,
)
from .detectors import classify
from .canon import are_isomorphic
from .errors import (
    CapacityExceeded,
    GraphError,
    InvalidJobCount,
    InvalidLengths,
    MalformedGraph6,
    NotConnected,
    NotTwoConnected,
    AmbiguousMidpoints,
    ShortVariant,
    SpecSyntaxError,
    TooFewSpokes,
    TooLarge,
    TooManyThetaChords,
    VertexOutOfRange,
)
from .families import build_from_spec, parse_spec
from .graphs import Graph, decode_graph6, encode_graph6, find_clique_cutset, parse_edge_list
from .hamiltonicity import find_hamiltonian_cycle, find_hamiltonian_path

EXIT_COUNTEREXAMPLE = 1
EXIT_PARSE = 2
EXIT_TOO_LARGE = 3
EXIT_BAD_SPEC = 4

# the clique walk stops at the first cutset but, like line-graph recognition,
# stays exponential on dense graphs
DECOMPOSE_MAX_VERTICES = 16

_SPEC_ERRORS = (ShortVariant, TooManyThetaChords, InvalidLengths, TooFewSpokes, VertexOutOfRange)


def _fail(code: int, message: str) -> NoReturn:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _build_spec(text: str) -> Graph:
    """Build a family spec; a syntax error exits 2, a spec outside its family 4,
    and a graph past the size cap 3."""
    try:
        return build_from_spec(parse_spec(text))
    except SpecSyntaxError as exc:
        _fail(EXIT_PARSE, str(exc))
    except _SPEC_ERRORS as exc:
        _fail(EXIT_BAD_SPEC, str(exc))
    except CapacityExceeded as exc:
        _fail(EXIT_TOO_LARGE, str(exc))


def _load_graph(text: Optional[str], input_file: Optional[str]) -> Graph:
    if input_file is not None:
        try:
            with open(input_file, "r", encoding="utf-8") as fh:
                return parse_edge_list(fh.read())
        except OSError as exc:
            _fail(EXIT_PARSE, f"cannot read {input_file}: {exc}")
        except GraphError as exc:
            _fail(EXIT_PARSE, str(exc))
    if text is None:
        _fail(EXIT_PARSE, "no input given")
    if ":" in text:
        return _build_spec(text)
    try:
        return decode_graph6(text)
    except MalformedGraph6 as exc:
        _fail(EXIT_PARSE, str(exc))


@click.group()
def main() -> None:
    """Wheel-free Hamiltonicity obstructions: build, detect, verify."""


@main.command()
@click.argument("graph", required=False)
@click.option("--input", "input_file", type=click.Path(), help="edge-list file (n, then 'u v' lines)")
def check(graph: Optional[str], input_file: Optional[str]) -> None:
    """Classify one graph (graph6 or family spec), or graph6 lines on stdin."""
    if graph is None and input_file is None:
        for line in sys.stdin:
            line = line.strip()
            if not line:
                continue
            _emit_record(_load_graph(line, None))
        return
    _emit_record(_load_graph(graph, input_file))


def _emit_record(g: Graph) -> None:
    try:
        record = classify(g)
    except TooLarge as exc:
        _fail(EXIT_TOO_LARGE, str(exc))
    click.echo(json.dumps(record.to_dict(), sort_keys=True))


@main.command()
@click.argument("spec")
def gen(spec: str) -> None:
    """Emit the graph6 of a family spec (theta:2,2,2, wheel:6@0,2,4, ...)."""
    g = _build_spec(spec)
    try:
        click.echo(encode_graph6(g))
    except CapacityExceeded as exc:
        _fail(EXIT_TOO_LARGE, str(exc))


@main.command()
@click.argument("graph", required=False)
@click.option("--input", "input_file", type=click.Path())
@click.option("--path", "want_path", is_flag=True, help="search a Hamiltonian path instead")
def ham(graph: Optional[str], input_file: Optional[str], want_path: bool) -> None:
    """Exact Hamiltonian cycle (default) or path search."""
    g = _load_graph(graph, input_file)
    if want_path:
        res = find_hamiltonian_path(g)
        click.echo(json.dumps({"found": res.found, "path": list(res.order) if res.order else None}))
    else:
        res = find_hamiltonian_cycle(g)
        click.echo(json.dumps({"found": res.found, "cycle": list(res.order) if res.order else None}))


@main.command()
@click.argument("graph", required=False)
@click.option("--input", "input_file", type=click.Path())
def decompose(graph: Optional[str], input_file: Optional[str]) -> None:
    """Trace the structural pipeline; emits a JSON array of step records."""
    g = _load_graph(graph, input_file)
    if g.n > DECOMPOSE_MAX_VERTICES:
        _fail(EXIT_TOO_LARGE, f"decompose capped at {DECOMPOSE_MAX_VERTICES} vertices")
    steps: list[dict] = []

    def step(name: str, n: int, run) -> None:
        """Append the certificate run() returns, or the precondition it broke."""
        try:
            steps.append({"step": name, "input_n": n, "certificate": run()})
        except (NotConnected, NotTwoConnected, AmbiguousMidpoints) as exc:
            steps.append({"step": name, "input_n": n, "error": type(exc).__name__})

    def contract() -> dict:
        nonlocal cur
        cur, log = reduce_adjacent_degree2(g)
        return {"contractions": [list(e) for e in log]}

    def drop_midpoints() -> dict:
        # find_special_edges raises first on a graph that is not 2-connected,
        # which so gets only the reduce_special_edges error
        nonlocal cur
        specials = [[list(s.edge), s.midpoint] for s in find_special_edges(cur)]
        step("find_special_edges", cur.n, lambda: {"special_edges": specials})
        cur, removed = reduce_special_edges(cur)
        return {"removed": list(removed)}

    def clique_cutset() -> dict:
        cutset = find_clique_cutset(cur)
        return {"clique_cutset": sorted(cutset[0]) if cutset else None}

    def line_graph_root() -> dict:
        nonlocal target
        res = recognize_line_graph(cur)
        if res is None:
            return {"root": None}
        target = root = res.root
        return {
            "root": {
                "n": root.n,
                "edges": [list(e) for e in root.edges()],
                "triangle_free": triangle_free(root),
                "chordless": is_chordless(root)[0],
            },
            "edge_map": [list(e) for e in res.edge_map],
        }

    def proper_2_cutset() -> dict:
        split = find_proper_2_cutset(target)
        if split is None:
            return {"split": None}
        x, y = sorted(split.side_x), sorted(split.side_y)
        return {"split": {"u": split.u, "v": split.v, "X": x, "Y": y}}

    cur = g
    step("reduce_adjacent_degree2", g.n, contract)
    step("reduce_special_edges", cur.n, drop_midpoints)
    step("find_clique_cutset", cur.n, clique_cutset)
    target = cur
    step("recognize_line_graph", cur.n, line_graph_root)
    sparse, violator = is_two_sparse(target)
    step("is_two_sparse", target.n, lambda: {"two_sparse": sparse, "violating_edge": violator})
    step("find_proper_2_cutset", target.n, proper_2_cutset)
    step("has_k4_minor", target.n, lambda: {"has_k4_minor": has_k4_minor(target)})
    click.echo(json.dumps(steps, sort_keys=True))


@main.command()
@click.argument("g1")
@click.argument("g2")
def iso(g1: str, g2: str) -> None:
    """Isomorphism test between two graphs (graph6 or family spec)."""
    a = _load_graph(g1, None)
    b = _load_graph(g2, None)
    click.echo(json.dumps({"isomorphic": are_isomorphic(a, b)}))


def _report_options(fn):
    fn = click.option("--max-n", "max_n", type=int, default=8, show_default=True)(fn)
    fn = click.option(
        "--format",
        "fmt",
        type=click.Choice(["json", "csv", "text"]),
        default="json",
        show_default=True,
    )(fn)
    fn = click.option("--jobs", type=int, default=None, help="parallel workers (env OBSTRUCTA_JOBS)")(fn)
    return fn


def _run_report(build, max_n: int, fmt: str, jobs: Optional[int]) -> enumeration.CensusReport:
    try:
        report = build(max_n, jobs)
    except TooLarge as exc:
        _fail(EXIT_TOO_LARGE, str(exc))
    except InvalidJobCount as exc:
        _fail(EXIT_PARSE, str(exc))
    if fmt == "json":
        click.echo(report.to_json(), nl=False)
    elif fmt == "csv":
        click.echo(report.to_csv(), nl=False)
    else:
        click.echo(report.to_text(), nl=False)
    return report


@main.command()
@_report_options
def verify(max_n: int, fmt: str, jobs: Optional[int]) -> None:
    """Exhaustively verify the characterization up to --max-n vertices."""
    if _run_report(enumeration.verify_main_theorem, max_n, fmt, jobs).counterexamples:
        sys.exit(EXIT_COUNTEREXAMPLE)


@main.command()
@_report_options
def census(max_n: int, fmt: str, jobs: Optional[int]) -> None:
    """Count table per vertex count, without theorem assertions."""
    _run_report(enumeration.census, max_n, fmt, jobs)


if __name__ == "__main__":
    main()
