"""Command-line front end.

Commands: rank (HVAS on a problem file), compare (method side-by-side),
audit (robustness search for a distance measure), hv (hypervolume of a point
set with a Monte Carlo cross-check), axioms (metric-axiom probe).

Exit codes: 0 success, 2 usage error, 3 data error (unreadable or invalid
input), 4 degenerate input (zero weights, indistinguishable alternatives).
All commands are deterministic given their flags, including --seed.
"""

from __future__ import annotations

import gc
import inspect
import math
import sys
from pathlib import Path

import click
import numpy as np

from . import mcdm as mcdm_mod
from . import hvas as hvas_mod
from . import robustness as robustness_mod
from .distances import check_axioms, get_measure
from .errors import (
    DegenerateError,
    DomainError,
    IfhvError,
    ParseError,
    ValidationError,
    require_positive_finite,
)
from .hypervolume import DEFAULT_REFERENCE_COORD, HVConfig, _points_array, hv_set, mc_oracle
from .problemfile import _read_text, parse_problem
from .ranking import DEFAULT_TIE_TOLERANCE
from .report import FORMATS, emit_report

EXIT_DATA_ERROR = 3
EXIT_DEGENERATE = 4


def _parse_reference(_ctx, _param, value):
    if value is None:
        return None
    try:
        coords = tuple(float(part) for part in value.split(","))
    except ValueError:
        raise click.BadParameter("expected comma-separated numbers, e.g. '-1,-1'")
    if not all(math.isfinite(c) for c in coords):
        raise click.BadParameter("reference coordinates must be finite")
    return coords


def _measure_option(_ctx, _param, value):
    try:
        return get_measure(value)
    except IfhvError as exc:
        raise click.BadParameter(str(exc)) from None


def _default(function, name: str):
    """The default of `function`'s parameter `name`, so that an option restates
    no library default."""
    return inspect.signature(function).parameters[name].default


def _positive(name):
    def check(_ctx, _param, value):
        try:
            require_positive_finite(f"{name} must be a positive finite number", value)
        except DomainError as exc:
            raise click.BadParameter(str(exc)) from None
        return value

    return check


format_option = click.option(
    "--format", "fmt", type=click.Choice(FORMATS), default="md", show_default=True,
    help="Output format; md rounds to 6 significant digits, json/csv keep full precision.",
)
output_option = click.option(
    "--output", type=click.Path(dir_okay=False, writable=True, path_type=Path),
    default=None, help="Write the report to a file instead of stdout.",
)


def _checked(build, **values):
    """build(**values) on flag values, e.g. a config; a value that breaks one
    of the library's rules is a usage error carrying the library's message."""
    try:
        return build(**values)
    except IfhvError as exc:
        raise click.UsageError(str(exc), ctx=click.get_current_context()) from None


def _emit(machine: dict, fmt: str, output: Path | None) -> None:
    """Write the report to stdout or to `output`; a file that cannot be
    opened or written is a usage error, as click reports an unwritable one."""
    if output is None:
        emit_report(machine, fmt, sys.stdout)
        return
    try:
        with open(output, "w", encoding="utf-8", newline="") as sink:
            emit_report(machine, fmt, sink)
    except OSError as exc:
        raise click.BadParameter(
            f"File {str(output)!r} cannot be written: {exc.strerror or exc}.",
            ctx=click.get_current_context(silent=True), param_hint="'--output'",
        ) from None


def _run(builder, fmt: str, output: Path | None) -> None:
    """Build the report and emit it, with the cyclic garbage collector paused:
    the decoded input and the report are acyclic, so its passes over them
    free nothing. The caller's collector state comes back on every exit."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        try:
            machine = builder()
        except DegenerateError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_DEGENERATE)
        except IfhvError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_DATA_ERROR)
        _emit(machine, fmt, output)
    finally:
        if collecting:
            gc.enable()


@click.group()
def main() -> None:
    """Rank intuitionistic fuzzy sets by hypervolume and audit distance measures."""


@main.command()
@click.argument("problem_file", type=click.Path(path_type=Path))
@click.option("--alpha", type=float, default=HVConfig.alpha, show_default=True,
              help="Hesitancy perception factor in [-1, 1].")
@click.option("--reference", default=None, callback=_parse_reference,
              help="Reference point as comma-separated coordinates, all <= 0 [default: -1 per criterion].")
@click.option("--tie-tolerance", type=float, default=DEFAULT_TIE_TOLERANCE, show_default=True,
              help="Absolute tolerance for score ties.")
@format_option
@output_option
def rank(problem_file, alpha, reference, tie_tolerance, fmt, output):
    """Rank the alternatives of PROBLEM_FILE by net hypervolume."""
    cfg = _checked(HVConfig, reference=reference, alpha=alpha, tie_tolerance=tie_tolerance)

    def build() -> dict:
        problem = parse_problem(problem_file)
        details = hvas_mod.score_details(problem, cfg)
        result = hvas_mod.ranking(problem, cfg, [part.hv_net for part in details.values()])
        return {
            "command": "rank",
            "problem": str(problem_file),
            "alternatives": list(problem.alternatives),
            "components": {label: part.to_dict() for label, part in details.items()},
            "result": result.to_dict(),
        }

    _run(build, fmt, output)


@main.command()
@click.argument("problem_file", type=click.Path(path_type=Path))
@click.option("--methods", default=",".join(mcdm_mod.METHOD_NAMES), show_default=True,
              help="Comma-separated subset of the available methods.")
@click.option("--tau", type=float, default=mcdm_mod.DEFAULT_TAU, show_default=True,
              help="CODAS secondary-distance threshold in [0, 1].")
@click.option("--v", type=float, default=mcdm_mod.DEFAULT_V, show_default=True,
              help="VIKOR strategy weight in [0, 1].")
@click.option("--measure", "measure_primary", default=mcdm_mod.CompareConfig.measure_primary.name,
              show_default=True, callback=_measure_option, help="Primary distance measure.")
@click.option("--measure-secondary", default=mcdm_mod.CompareConfig.measure_secondary.name,
              show_default=True, callback=_measure_option,
              help="Secondary distance measure (CODAS).")
@click.option("--alpha", type=float, default=HVConfig.alpha, show_default=True,
              help="Hesitancy perception factor for the hvas method.")
@click.option("--reference", default=None, callback=_parse_reference,
              help="Reference point for the hvas method [default: -1 per criterion].")
@format_option
@output_option
def compare(problem_file, methods, tau, v, measure_primary, measure_secondary,
            alpha, reference, fmt, output):
    """Run several ranking methods on PROBLEM_FILE and tabulate their orders."""
    names = [name.strip() for name in methods.split(",") if name.strip()]
    _checked(mcdm_mod.check_methods, methods=names)
    cfg = _checked(
        mcdm_mod.CompareConfig,
        tau=tau, v=v, measure_primary=measure_primary, measure_secondary=measure_secondary,
    )
    hv_cfg = _checked(HVConfig, reference=reference, alpha=alpha)

    def build() -> dict:
        problem = parse_problem(problem_file)
        results = mcdm_mod.run_methods(problem, names, cfg, hv_cfg)
        return {
            "command": "compare",
            "problem": str(problem_file),
            "alternatives": list(problem.alternatives),
            "methods": names,
            "results": {r.method: r.to_dict() for r in results},
        }

    _run(build, fmt, output)


@main.command()
@click.option("--measure", required=True, callback=_measure_option,
              help="Distance measure to audit.")
@click.option("--budget", type=click.IntRange(min=1),
              default=_default(robustness_mod.audit, "budget"), show_default=True,
              help="Number of anchor/direction attempts.")
@click.option("--eps", type=float, default=_default(robustness_mod.audit, "eps"),
              show_default=True, callback=_positive("eps"),
              help="Tolerance for equal NIS-distances.")
@click.option("--delta", type=float, default=_default(robustness_mod.audit, "delta"),
              show_default=True, callback=_positive("delta"),
              help="PIS-distance gap that counts as a violation.")
@click.option("--seed", type=click.IntRange(min=0),
              default=_default(robustness_mod.audit, "seed"), show_default=True)
@format_option
@output_option
def audit(measure, budget, eps, delta, seed, fmt, output):
    """Search a distance measure for ranking-robustness violations."""

    def build() -> dict:
        result = robustness_mod.audit(measure, budget=budget, eps=eps, delta=delta, seed=seed)
        return {"command": "audit", "kind": measure.kind.value, **result.to_dict()}

    _run(build, fmt, output)


def _walk_points(path: Path, lines: list[str]) -> None:
    """Read a points file's lines one at a time, with the rule of the bulk
    parse, so that the first bad line raises with its file:line."""
    width = None
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            row = tuple(float(part) for part in stripped.split(","))
        except ValueError:
            raise ParseError(f"{path}:{lineno}: expected comma-separated numbers") from None
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ValidationError(f"{path}:{lineno}: expected {width} coordinates, got {len(row)}")


def _read_points(
    path: Path, reference: tuple[float, ...] | None
) -> tuple[np.ndarray, tuple[float, ...]]:
    """The points of a points file as a (k, m) array, and the reference
    (default -1 per dimension). A bad row is reported as file:line.

    All fields are parsed with `float` into one array; only when that fails,
    or the rows differ in length, does `_walk_points` read the lines one at a
    time to report the first bad one.
    """
    lines = _read_text(path).splitlines()
    rows = [line for line in map(str.strip, lines) if line]
    if not rows:
        raise ParseError(f"{path}: no points found")
    try:
        if len({row.count(",") for row in rows}) > 1:
            raise ValueError("rows differ in length")
        fields = ",".join(rows).split(",")
        points = np.fromiter(map(float, fields), float, len(fields)).reshape(len(rows), -1)
    except ValueError:  # a field that is not a number, or a ragged row
        _walk_points(path, lines)
        raise  # the walk accepted what the bulk parse rejected: a bug, not bad input
    ref = reference if reference is not None else (DEFAULT_REFERENCE_COORD,) * points.shape[1]

    def row_name(i: int) -> str:
        linenos = [lineno for lineno, line in enumerate(lines, start=1) if line.strip()]
        return f"{path}:{linenos[i]}"

    points, _ = _points_array(points, ref, row_name)
    return points, ref


@main.command()
@click.argument("points_file", type=click.Path(path_type=Path))
@click.option("--reference", default=None, callback=_parse_reference,
              help="Reference point as comma-separated coordinates [default: -1 per dimension].")
@click.option("--samples", type=click.IntRange(min=1), default=_default(mc_oracle, "samples"),
              show_default=True, help="Monte Carlo samples for the cross-check.")
@click.option("--seed", type=click.IntRange(min=0), default=_default(mc_oracle, "seed"),
              show_default=True)
@format_option
@output_option
def hv(points_file, reference, samples, seed, fmt, output):
    """Exact hypervolume of the points in POINTS_FILE (one per line, comma-separated)."""

    def build() -> dict:
        points, ref = _read_points(points_file, reference)
        k, dimension = points.shape
        value = hv_set(points, ref)
        estimate, stderr = mc_oracle(points, ref, samples=samples, seed=seed)
        return {
            "command": "hv",
            "points_file": str(points_file),
            "points": k,
            "dimension": dimension,
            "reference": list(ref),
            "hypervolume": value,
            "mc_estimate": estimate,
            "mc_stderr": stderr,
            "mc_samples": samples,
            "seed": seed,
        }

    _run(build, fmt, output)


@main.command()
@click.option("--measure", required=True, callback=_measure_option,
              help="Distance measure to probe.")
@click.option("--samples", type=click.IntRange(min=1), default=_default(check_axioms, "samples"),
              show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=_default(check_axioms, "seed"),
              show_default=True)
@format_option
@output_option
def axioms(measure, samples, seed, fmt, output):
    """Check symmetry, identity, and the triangle inequality on random triples."""

    def build() -> dict:
        result = check_axioms(measure, samples=samples, seed=seed)
        return {"command": "axioms", **result.to_dict()}

    _run(build, fmt, output)


if __name__ == "__main__":
    main()
