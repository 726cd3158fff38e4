"""Deterministic renderings of the commands' reports.

A report is a command's `machine` payload: a dict of exact scalars whose
"command" key picks its markdown and csv renderers from one table,
`_RENDERERS`. The human-readable markdown rendering rounds to 6 significant
digits, while json and csv keep full precision. Rendering is a pure function
of (machine, format): the same input always produces the same bytes.

The json rendering is the bytes of `json.dumps(machine, indent=2)`, produced
through the C encoder: `json_text` hands each container of scalars, and each
container of same-kind containers of scalars, to one C encoder call and
indents its output with a few `str.replace` passes, where `indent=2` alone
would run the pure-Python encoder over every value.
"""

from __future__ import annotations

import csv
import io
import json
from functools import cache
from itertools import chain
from typing import IO

from .errors import DomainError
from .ranking import ranks_from_order

FORMATS = ("md", "json", "csv")


def _fmt(value: float) -> str:
    """Human form of a float: 6 significant digits."""
    return f"{value:.6g}"


def _table(headers: list[str], rows: list[list[str]]) -> str:
    lines = [
        "| " + " | ".join(headers) + " |",
        "| " + " | ".join("---" for _ in headers) + " |",
    ]
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


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
            f"Ranking order: {result['order_string']}",
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


_SCALAR_TYPES = (str, int, float, type(None))
_ARRAY_TYPES = (list, tuple)


def _scalars_only(values) -> bool:
    return all(issubclass(kind, _SCALAR_TYPES) for kind in set(map(type, values)))


@cache
def _flat_encoder(level: int):
    """encode() of a container of scalars at nesting `level`, as indent=2 puts it."""
    return json.JSONEncoder(separators=(",\n" + "  " * (level + 1), ": ")).encode


# The C encoder escapes every control character inside a string, so a raw
# \x00 or \x01 in its output is one of these separators: \x00 ends an item,
# \x01 a key.
_marked_encode = json.JSONEncoder(separators=(",\x00", ":\x01")).encode


def _two_level(obj, level: int, child_open: str) -> str:
    """obj, a container of non-empty same-kind containers of scalars, in one
    C encoder call whose separators are then indented."""
    child_close = "]" if child_open == "[" else "}"
    inner, outer, close = ("\n" + "  " * (level + i) for i in (2, 1, 0))
    text = _marked_encode(obj)
    if isinstance(obj, dict):
        text = text.replace(":\x01" + child_open, ": " + child_open + inner)
        text = text.replace(child_close + ",\x00", outer + child_close + "," + outer)
        head = text[0] + outer
        body = text[1:-2]
    else:
        text = text.replace(
            child_close + ",\x00" + child_open,
            outer + child_close + "," + outer + child_open + inner,
        )
        head = text[0] + outer + child_open + inner
        body = text[2:-2]
    body = body.replace(",\x00", "," + inner)
    if child_open == "{":
        body = body.replace(":\x01", ": ")
    return head + body + outer + child_close + close + text[-1]


def _indented(obj, level: int) -> str:
    """json.dumps(obj, indent=2) of obj at nesting `level`."""
    if isinstance(obj, dict):
        values, brackets = obj.values(), "{}"
    elif isinstance(obj, _ARRAY_TYPES):
        values, brackets = obj, "[]"
    else:
        return _flat_encoder(level)(obj)
    if not obj:
        return brackets
    outer, close = "\n" + "  " * (level + 1), "\n" + "  " * level
    kinds = set(map(type, values))
    if all(issubclass(kind, _SCALAR_TYPES) for kind in kinds):
        text = _flat_encoder(level)(obj)
        return text[0] + outer + text[1:-1] + close + text[-1]
    if all(issubclass(kind, dict) for kind in kinds):
        child_open, grandchildren = "{", chain.from_iterable(map(dict.values, values))
    elif all(issubclass(kind, _ARRAY_TYPES) for kind in kinds):
        child_open, grandchildren = "[", chain.from_iterable(values)
    else:
        child_open = None
    if child_open and all(values) and _scalars_only(grandchildren):
        return _two_level(obj, level, child_open)
    if isinstance(obj, dict):
        if not all(issubclass(kind, str) for kind in set(map(type, obj))):
            # json's own conversion of non-str keys, for this subtree
            return json.dumps(obj, indent=2).replace("\n", close)
        items = (f"{json.dumps(key)}: {_indented(value, level + 1)}" for key, value in obj.items())
    else:
        items = (_indented(value, level + 1) for value in obj)
    return brackets[0] + outer + ("," + outer).join(items) + close + brackets[1]


def json_text(obj) -> str:
    """The text of `json.dumps(obj, indent=2)`, built through the C encoder."""
    return _indented(obj, 0)


def render(machine: dict, fmt: str) -> str:
    """The report in `fmt`: json, or the renderer `_RENDERERS` holds for its command."""
    if fmt == "json":
        return json_text(machine) + "\n"
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
