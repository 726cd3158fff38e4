"""Deterministic renderings of the commands' reports.

A report is a command's `machine` payload: a dict of exact scalars whose
"command" key picks its markdown and csv renderers from one table,
`_RENDERERS`. The human-readable markdown rendering rounds to 6 significant
digits, while json and csv keep full precision. Rendering is a pure function
of (machine, format): the same input always produces the same bytes.

The json rendering is `json.dumps(machine)` and a newline: one line, with
the C encoder's default separators, for the programs that read it.
"""

from __future__ import annotations

import csv
import io
import json
from typing import IO

from .errors import DomainError
from .ranking import ranks_from_order

FORMATS = ("md", "json", "csv")


def _fmt(value: float) -> str:
    """Human form of a float: 6 significant digits."""
    return f"{value:.6g}"


# Each line separator `str.splitlines` knows, written as its Python escape
_LINE_BREAKS = {ord(c): repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"}


def _one_line(text: str) -> str:
    """`text` with its line breaks escaped, as an id may hold them."""
    return text.translate(_LINE_BREAKS)


def _table(headers: list[str], rows: list[list[str]]) -> str:
    """A markdown table; a `|` or line break inside a cell, as an id may hold, is escaped."""

    def line(cells) -> str:
        return "| " + " | ".join(_one_line(cell).replace("|", "\\|") for cell in cells) + " |"

    return "\n".join([line(headers), line("---" for _ in headers), *map(line, rows)])


def _render_rank_md(machine: dict) -> str:
    result = machine["result"]
    spaces = ["hv_mu", "hv_nu", "hv_pi"]
    ranks = ranks_from_order(result["order"])
    rows = [
        [label, str(ranks[label])]
        + [_fmt(machine["components"][label][key]) for key in spaces]
        + [_fmt(result["scores"][label])]
        for label in machine["alternatives"]
    ]
    return "\n".join(
        [
            f"# {result['method']} ranking",
            "",
            _table(["alternative", "rank", *spaces, "score"], rows),
            "",
            f"Ranking order: {_one_line(result['order_string'])}",
            "",
        ]
    )


def _render_compare_md(machine: dict) -> str:
    order_rows = [
        [name, machine["results"][name]["order_string"]] for name in machine["methods"]
    ]
    score_headers = ["alternative"] + list(machine["methods"])
    score_rows = [
        [alt] + [_fmt(machine["results"][name]["scores"][alt]) for name in machine["methods"]]
        for alt in machine["alternatives"]
    ]
    return "\n".join(
        [
            "# method comparison",
            "",
            _table(["method", "ranking order"], order_rows),
            "",
            _table(score_headers, score_rows),
            "",
        ]
    )


def _render_audit_md(machine: dict) -> str:
    verdict = (
        "no violation found within budget"
        if machine["is_robust_on_budget"]
        else "NOT robust"
    )
    lines = [
        f"# robustness audit: {machine['measure']}",
        "",
        f"Verdict: {verdict} "
        f"(budget {machine['budget']}, eps {_fmt(machine['eps'])}, "
        f"delta {_fmt(machine['delta'])}, seed {machine['seed']}, "
        f"samples used {machine['samples_used']})",
        "",
    ]
    if machine["counterexamples"]:
        rows = [
            [
                f"({_fmt(c['a'][0])}, {_fmt(c['a'][1])})",
                f"({_fmt(c['b'][0])}, {_fmt(c['b'][1])})",
                _fmt(c["d_nis_a"]),
                _fmt(c["d_nis_b"]),
                _fmt(c["d_pis_a"]),
                _fmt(c["d_pis_b"]),
            ]
            for c in machine["counterexamples"]
        ]
        lines += [
            _table(["a", "b", "d(a,NIS)", "d(b,NIS)", "d(a,PIS)", "d(b,PIS)"], rows),
            "",
        ]
    return "\n".join(lines)


def _render_hv_md(machine: dict) -> str:
    lines = [
        "# hypervolume",
        "",
        f"Points: {machine['points']} in {machine['dimension']} dimensions, "
        f"reference {machine['reference']}",
        f"Exact hypervolume: {_fmt(machine['hypervolume'])}",
        f"Monte Carlo check: {_fmt(machine['mc_estimate'])} "
        f"+/- {_fmt(machine['mc_stderr'])} "
        f"({machine['mc_samples']} samples, seed {machine['seed']})",
        "",
    ]
    return "\n".join(lines)


def _render_axioms_md(machine: dict) -> str:
    rows = [
        ["symmetry", str(machine["symmetry_ok"])],
        ["identity", str(machine["identity_ok"])],
        ["triangle", str(machine["triangle_ok"])],
    ]
    lines = [
        f"# metric axioms: {machine['measure']}",
        "",
        f"Checked on {machine['samples']} random triples (seed {machine['seed']}).",
        "",
        _table(["axiom", "holds"], rows),
        "",
    ]
    if machine["witnesses"]:
        lines += [f"Witnesses: {len(machine['witnesses'])} recorded (see json format).", ""]
    return "\n".join(lines)


def _csv_text(headers: list[str], rows: list[list]) -> str:
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows(rows)
    return buffer.getvalue()


def _render_rank_csv(machine: dict) -> str:
    result = machine["result"]
    ranks = ranks_from_order(result["order"])
    rows = [
        [label, ranks[label], repr(result["scores"][label])]
        for label in machine["alternatives"]
    ]
    return _csv_text(["alternative", "rank", "score"], rows)


def _render_compare_csv(machine: dict) -> str:
    rows = []
    for name in machine["methods"]:
        result = machine["results"][name]
        ranks = ranks_from_order(result["order"])
        for alt in machine["alternatives"]:
            rows.append([name, alt, ranks[alt], repr(result["scores"][alt])])
    return _csv_text(["method", "alternative", "rank", "score"], rows)


def _render_audit_csv(machine: dict) -> str:
    rows = [
        [
            machine["measure"],
            machine["is_robust_on_budget"],
            machine["samples_used"],
            index,
            repr(c["a"][0]),
            repr(c["a"][1]),
            repr(c["b"][0]),
            repr(c["b"][1]),
            repr(c["d_nis_a"]),
            repr(c["d_nis_b"]),
            repr(c["d_pis_a"]),
            repr(c["d_pis_b"]),
        ]
        for index, c in enumerate(machine["counterexamples"])
    ] or [
        [machine["measure"], machine["is_robust_on_budget"], machine["samples_used"]]
        + [""] * 9
    ]
    return _csv_text(
        [
            "measure", "robust_on_budget", "samples_used", "index",
            "a_mu", "a_nu", "b_mu", "b_nu",
            "d_nis_a", "d_nis_b", "d_pis_a", "d_pis_b",
        ],
        rows,
    )


def _render_hv_csv(machine: dict) -> str:
    return _csv_text(
        ["hypervolume", "mc_estimate", "mc_stderr", "mc_samples", "seed"],
        [[
            repr(machine["hypervolume"]),
            repr(machine["mc_estimate"]),
            repr(machine["mc_stderr"]),
            machine["mc_samples"],
            machine["seed"],
        ]],
    )


def _render_axioms_csv(machine: dict) -> str:
    return _csv_text(
        ["measure", "samples", "seed", "symmetry_ok", "identity_ok", "triangle_ok", "witnesses"],
        [[
            machine["measure"], machine["samples"], machine["seed"],
            machine["symmetry_ok"], machine["identity_ok"], machine["triangle_ok"],
            len(machine["witnesses"]),
        ]],
    )


# command -> (markdown renderer, csv renderer)
_RENDERERS = {
    "rank": (_render_rank_md, _render_rank_csv),
    "compare": (_render_compare_md, _render_compare_csv),
    "audit": (_render_audit_md, _render_audit_csv),
    "hv": (_render_hv_md, _render_hv_csv),
    "axioms": (_render_axioms_md, _render_axioms_csv),
}


def render(machine: dict, fmt: str) -> str:
    """The report in `fmt`: json, or the renderer `_RENDERERS` holds for its command."""
    if fmt == "json":
        return json.dumps(machine) + "\n"
    if fmt not in FORMATS:
        raise DomainError(f"unknown report format '{fmt}'; choose from {', '.join(FORMATS)}")
    renderers = _RENDERERS.get(machine["command"])
    if renderers is None:
        raise DomainError(f"no {fmt} renderer for report command '{machine['command']}'")
    md, csv_ = renderers
    return (md if fmt == "md" else csv_)(machine)


def emit_report(machine: dict, fmt: str, sink: IO[str]) -> None:
    """Write one rendering of the report to a text sink."""
    sink.write(render(machine, fmt))
