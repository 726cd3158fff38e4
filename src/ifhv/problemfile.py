"""Reading and writing decision-problem files.

A problem file is JSON with explicit numeric (mu, nu) pairs; there are no
linguistic labels. Layout:

    {
      "schema_version": 1,
      "alternatives": ["X1", ...],
      "criteria": [{"id": "c1", "kind": "benefit" | "cost"}, ...],
      "dms": ["dm1", ...],
      "evaluations": {dm: {criterion: {alternative: [mu, nu]}}},
      "importance":  {dm: {criterion: [mu, nu]}},
      "expertise":   {dm: {criterion: weight}}
    }

The reader builds the problem's float arrays directly, checking all cells of
a document at once under IFN's rules; no IFN is built per cell. Every
malformed field is reported with its path inside the document, e.g.
``evaluations.dm1.c1.X2``: when the bulk check fails, a walk in document
order finds the first invalid field. `parse_problem` and `serialize_problem`
are inverses on valid problems.
"""

from __future__ import annotations

import json
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import DomainError, ParseError, ValidationError, VersionError
from .hvas import CriterionKind, CriterionSpec, DecisionProblem
from .ifs import IFN, SUM_TOLERANCE, clamp_to_simplex

SCHEMA_VERSION = 1
_SECTIONS = ("evaluations", "importance", "expertise")


def _require(data: dict, key: str, kind, path: str):
    if key not in data:
        raise ValidationError(f"{path}.{key}: missing required field")
    value = data[key]
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise ValidationError(
            f"{path}.{key}: expected {kind.__name__}, got {type(value).__name__}"
        )
    return value


def _is_number_type(kind: type) -> bool:
    return issubclass(kind, (int, float)) and not issubclass(kind, bool)


class _Rejected(Exception):
    """The bulk read met something invalid; `_first_error` names it."""


def _mapping(value) -> dict:
    if not isinstance(value, dict):
        raise _Rejected
    return value


def _pair_array(cells: list) -> np.ndarray:
    """(k, 2) array of k [mu, nu] cells, checked as a whole under IFN's rules."""
    if not (
        all(issubclass(kind, (list, tuple)) for kind in set(map(type, cells)))
        and set(map(len, cells)) <= {2}
        and all(map(_is_number_type, set(map(type, chain.from_iterable(cells)))))
    ):
        raise _Rejected
    pairs = np.fromiter(chain.from_iterable(cells), float, 2 * len(cells)).reshape(-1, 2)
    mu, nu = pairs[:, 0], pairs[:, 1]
    # the range test also rejects nan and infinities
    if not (((pairs >= 0.0) & (pairs <= 1.0)).all() and (mu + nu <= 1.0 + SUM_TOLERANCE).all()):
        raise _Rejected
    pairs[:, 1] = clamp_to_simplex(mu, nu)
    return pairs


def _weight_array(weights: list) -> np.ndarray:
    if not all(map(_is_number_type, set(map(type, weights)))):
        raise _Rejected
    array = np.array(weights, dtype=float)
    if not ((array >= 0.0) & (array <= 1.0)).all():
        raise _Rejected
    return array


def _read_arrays(sections: list[dict], dms, criteria, alternatives):
    """The evaluation, importance and expertise arrays, read and checked in bulk.

    Raises _Rejected or KeyError on the first sign of invalid input.
    """
    cells, importance, expertise = [], [], []
    for dm in dms:
        eval_dm, imp_dm, exp_dm = (_mapping(section[dm]) for section in sections)
        for criterion in criteria:
            row = _mapping(eval_dm[criterion.id])
            cells += [row[alt] for alt in alternatives]
            importance.append(imp_dm[criterion.id])
            expertise.append(exp_dm[criterion.id])
    q, m, n = len(dms), len(criteria), len(alternatives)
    return (
        _pair_array(cells).reshape(q, m, n, 2),
        _pair_array(importance).reshape(q, m, 2),
        _weight_array(expertise).reshape(q, m),
    )


def _pair_error(value, path: str) -> ValidationError | None:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(_is_number_type(type(x)) for x in value)
    ):
        return ValidationError(f"{path}: expected a [mu, nu] pair of numbers")
    try:
        IFN(float(value[0]), float(value[1]))
    except DomainError as exc:
        return ValidationError(f"{path}: {exc}")
    return None


def _first_error(source: str, sections: list[dict], dms, criteria, alternatives) -> ValidationError:
    """The first invalid field in document order, for a document `_read_arrays` rejected."""
    for dm in dms:
        for section, name in zip(sections, _SECTIONS):
            if dm not in section:
                return ValidationError(f"{source}.{name}.{dm}: missing decision maker")
            if not isinstance(section[dm], dict):
                return ValidationError(
                    f"{source}.{name}.{dm}: expected an object keyed by criterion"
                )
        eval_dm, imp_dm, exp_dm = (section[dm] for section in sections)
        for criterion in criteria:
            cid = criterion.id
            for section, name in zip((eval_dm, imp_dm, exp_dm), _SECTIONS):
                if cid not in section:
                    return ValidationError(f"{source}.{name}.{dm}.{cid}: missing criterion")
            cells = eval_dm[cid]
            if not isinstance(cells, dict):
                return ValidationError(
                    f"{source}.evaluations.{dm}.{cid}: expected an object keyed by alternative"
                )
            for alt in alternatives:
                path = f"{source}.evaluations.{dm}.{cid}.{alt}"
                error = (
                    _pair_error(cells[alt], path) if alt in cells
                    else ValidationError(f"{path}: missing alternative")
                )
                if error is not None:
                    return error
            error = _pair_error(imp_dm[cid], f"{source}.importance.{dm}.{cid}")
            if error is not None:
                return error
            weight = exp_dm[cid]
            if not _is_number_type(type(weight)) or not 0.0 <= weight <= 1.0:
                return ValidationError(
                    f"{source}.expertise.{dm}.{cid}: expected a weight in [0, 1], got {weight!r}"
                )
    raise RuntimeError(f"{source}: rejected in bulk but valid field by field")


def problem_from_dict(data: dict, source: str = "<problem>") -> DecisionProblem:
    """Validate a decoded problem document and build a DecisionProblem."""
    if not isinstance(data, dict):
        raise ValidationError(f"{source}: top level must be an object")
    version = _require(data, "schema_version", int, source)
    if version != SCHEMA_VERSION:
        raise VersionError(
            f"{source}: unsupported schema_version {version}; this build reads {SCHEMA_VERSION}"
        )

    alternatives = _require(data, "alternatives", list, source)
    if not alternatives or not all(isinstance(a, str) for a in alternatives):
        raise ValidationError(f"{source}.alternatives: expected a non-empty list of ids")

    raw_criteria = _require(data, "criteria", list, source)
    if not raw_criteria:
        raise ValidationError(f"{source}.criteria: expected a non-empty list")
    criteria: list[CriterionSpec] = []
    for index, entry in enumerate(raw_criteria):
        path = f"{source}.criteria[{index}]"
        if not isinstance(entry, dict):
            raise ValidationError(f"{path}: expected an object with id and kind")
        cid = _require(entry, "id", str, path)
        kind_name = _require(entry, "kind", str, path)
        try:
            kind = CriterionKind(kind_name)
        except ValueError:
            raise ValidationError(
                f"{path}.kind: expected 'benefit' or 'cost', got '{kind_name}'"
            ) from None
        criteria.append(CriterionSpec(cid, kind))

    dms = _require(data, "dms", list, source)
    if not dms or not all(isinstance(d, str) for d in dms):
        raise ValidationError(f"{source}.dms: expected a non-empty list of ids")

    sections = [_require(data, name, dict, source) for name in _SECTIONS]
    try:
        arrays = _read_arrays(sections, dms, criteria, alternatives)
    except (KeyError, _Rejected):
        raise _first_error(source, sections, dms, criteria, alternatives) from None
    return DecisionProblem.from_arrays(alternatives, criteria, dms, *arrays)


def parse_problem(path: str | Path) -> DecisionProblem:
    """Load and validate a problem file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"{path}: cannot read file: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    return problem_from_dict(data, source=path.name)


def serialize_problem(problem: DecisionProblem) -> dict:
    """Inverse of problem_from_dict for valid problems."""
    ids = [c.id for c in problem.criteria]
    evaluations = problem.evaluation_array.tolist()
    importance = problem.importance_array.tolist()
    expertise = problem.expertise_array.tolist()
    return {
        "schema_version": SCHEMA_VERSION,
        "alternatives": list(problem.alternatives),
        "criteria": [{"id": c.id, "kind": c.kind.value} for c in problem.criteria],
        "dms": list(problem.dms),
        "evaluations": {
            dm: {cid: dict(zip(problem.alternatives, row)) for cid, row in zip(ids, per_dm)}
            for dm, per_dm in zip(problem.dms, evaluations)
        },
        "importance": {
            dm: dict(zip(ids, per_dm)) for dm, per_dm in zip(problem.dms, importance)
        },
        "expertise": {
            dm: dict(zip(ids, per_dm)) for dm, per_dm in zip(problem.dms, expertise)
        },
    }


def write_problem(problem: DecisionProblem, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(serialize_problem(problem), indent=2) + "\n", encoding="utf-8"
    )
