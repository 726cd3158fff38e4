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

`parse_problem` reads a valid file once. That reading compacts every JSON
object whose values are all [mu, nu] pairs of numbers as the decoder emits
it: its keys in document order and one unchecked (k, 2) float array
(`_Pairs`), so a row's lists and floats are freed as soon as they are
decoded, and the file's text is dropped before the arrays are assembled; the
peak memory is about twice the file's size, the text read and decoded. When
it fails, the compacted document is freed and the file is read again as
plain JSON, so every error is named by `problem_from_dict` on a decoded dict,
as for an in-memory document. `problem_from_dict` compacts the evaluation
rows and importance objects of a plain document through the same function,
so both readings take one array path.

`problem_from_dict` fills the problem's three float arrays in the order of
the `dms`, `criteria` and `alternatives` lists, and builds no IFN. It
rejects only what the arrays cannot hold, a missing or extra key or a value
that is not a number, and leaves every value rule to
`DecisionProblem.from_arrays`, the one check of a problem's pairs and
weights. When anything fails, one walk over the document by (decision maker,
criterion, field), in the order of the same lists, reports the first invalid
field with its path inside the document, e.g. ``evaluations.dm1.c1.X2``.
Unknown fields and ids, repeated ids and repeated JSON keys are rejected too.
`parse_problem` and `serialize_problem` are inverses on valid problems.
`write_problem` writes `json.dumps(..., indent=2)`: a problem file is a
document that people read and edit, unlike a report, which is one line.
"""

from __future__ import annotations

import json
from functools import partial
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import DomainError, IfhvError, ParseError, ValidationError, VersionError
from .hvas import CriterionKind, CriterionSpec, DecisionProblem
from .ifs import check_pairs

SCHEMA_VERSION = 1
_SECTIONS = ("evaluations", "importance", "expertise")
_FIELDS = {"schema_version", "alternatives", "criteria", "dms", *_SECTIONS}
_CRITERION_FIELDS = {"id", "kind"}


class _Pairs:
    """A JSON object whose values are all [mu, nu] pairs of numbers, compacted:
    its keys in document order and their pairs as one unchecked (k, 2) float
    array. It cannot name an error, so only a valid file is read from it."""

    __slots__ = ("keys", "array")

    def __init__(self, keys: list, array: np.ndarray) -> None:
        self.keys, self.array = keys, array


def _is_number_type(kind: type) -> bool:
    return issubclass(kind, (int, float)) and not issubclass(kind, bool)


def _compact(obj):
    """obj as a `_Pairs` when it is an object whose values are all [mu, nu]
    pairs of numbers in the float range; otherwise obj itself."""
    if not isinstance(obj, dict):
        return obj
    values = obj.values()
    if not (
        all(issubclass(kind, (list, tuple)) for kind in set(map(type, values)))
        and set(map(len, values)) <= {2}
    ):
        return obj
    kinds = set(map(type, chain.from_iterable(values)))
    if not all(map(_is_number_type, kinds)):
        return obj
    try:
        array = np.fromiter(chain.from_iterable(values), float, 2 * len(obj))
    except OverflowError:  # an integer beyond the float range
        return obj
    return _Pairs(list(obj), array.reshape(-1, 2))


def _ordered(obj, keys: list) -> np.ndarray:
    """The (len(keys), 2) array of obj's pairs in the order of keys, unchecked.
    DomainError unless obj is an object of [mu, nu] pairs of numbers; KeyError
    unless its keys are exactly `keys`."""
    pairs = _compact(obj)
    if not isinstance(pairs, _Pairs):
        raise DomainError("expected a [mu, nu] pair of numbers")
    if pairs.keys == keys:
        return pairs.array
    at = {key: index for index, key in enumerate(pairs.keys)}
    order = [at.pop(key) for key in keys]
    if at:
        raise KeyError(next(iter(at)))
    return pairs.array[order]


def _require(data: dict, key: str, kind, path: str):
    if key not in data:
        raise ValidationError(f"{path}.{key}: missing required field")
    value = data[key]
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise ValidationError(
            f"{path}.{key}: expected {kind.__name__}, got {type(value).__name__}"
        )
    return value


def _repeat(keys) -> int | None:
    """Index of the first key equal to an earlier one, or None."""
    seen = set()
    return next((i for i, key in enumerate(keys) if key in seen or seen.add(key)), None)


def _ids(data: dict, key: str, source: str) -> list:
    ids = _require(data, key, list, source)
    if not ids or not all(isinstance(i, str) for i in ids):
        raise ValidationError(f"{source}.{key}: expected a non-empty list of ids")
    if (index := _repeat(ids)) is not None:
        raise ValidationError(f"{source}.{key}: duplicate id '{ids[index]}'")
    return ids


def _known(obj: dict, ids: set, path: str, what: str) -> dict:
    """obj, once it has no more keys than ids. (An unknown key among as many
    keys as ids leaves an id missing, which the walk reports.)"""
    if len(obj) > len(ids):
        key = next(key for key in obj if key not in ids)
        raise ValidationError(f"{path}.{key}: unknown {what}")
    return obj


def _object(parent: dict, key: str, path: str, what: str, keyed_by: str, ids: set) -> dict:
    """parent[key], the object of one `what`, keyed by `keyed_by` ids."""
    if key not in parent:
        raise ValidationError(f"{path}.{key}: missing {what}")
    obj = parent[key]
    if not isinstance(obj, dict):
        raise ValidationError(f"{path}.{key}: expected an object keyed by {keyed_by}")
    return _known(obj, ids, f"{path}.{key}", keyed_by)


def _pair(parent: dict, key: str, path: str) -> None:
    """Check parent[key], one [mu, nu] field."""
    if key not in parent:  # only an alternative can be missing here
        raise ValidationError(f"{path}.{key}: missing alternative")
    try:
        check_pairs(*_ordered({key: parent[key]}, [key]).T)
    except DomainError as exc:
        raise ValidationError(f"{path}.{key}: {exc}") from None


def _keyed(obj, keys: list) -> list:
    """obj's values in the order of keys; KeyError unless obj is an object
    whose keys are exactly `keys`."""
    if not isinstance(obj, dict) or len(obj) != len(keys):
        raise KeyError(keys)
    return [obj[key] for key in keys]


def _read_arrays(sections: list[dict], dms: list, ids: list, alternatives: list):
    """The problem's evaluation, importance and expertise arrays, filled but
    unchecked. KeyError, DomainError or OverflowError, without a path, on what
    the arrays cannot hold: a missing or extra key, a value that is not a
    [mu, nu] pair of numbers, a weight that is not a number, or an integer
    beyond the float range."""
    q, m, n = len(dms), len(ids), len(alternatives)
    evaluations, importance = np.empty((q, m, n, 2)), np.empty((q, m, 2))
    expertise = np.empty((q, m))
    per_dm = zip(*(_keyed(section, dms) for section in sections))
    for l, (eval_dm, imp_dm, exp_dm) in enumerate(per_dm):
        for row, cells in zip(evaluations[l], _keyed(eval_dm, ids)):
            row[:] = _ordered(cells, alternatives)
        importance[l] = _ordered(imp_dm, ids)
        weights = _keyed(exp_dm, ids)
        if not all(map(_is_number_type, set(map(type, weights)))):
            raise DomainError("expected weights that are numbers")
        expertise[l] = weights
    return evaluations, importance, expertise


def _walk(source: str, sections: list[dict], dms: list, ids: list, alternatives: list) -> None:
    """Check the sections' decision makers, then each decision maker field by
    field, in the order of (criterion, section, alternative); the first
    invalid field raises with its path. An evaluation row is checked whole,
    and walked cell by cell only when it fails."""
    paths = [f"{source}.{name}" for name in _SECTIONS]
    dm_set, id_set, alt_set = set(dms), set(ids), set(alternatives)
    for section, path in zip(sections, paths):
        _known(section, dm_set, path, "decision maker")
    for dm in dms:
        eval_dm, imp_dm, exp_dm = per_dm = [
            _object(section, dm, path, "decision maker", "criterion", id_set)
            for section, path in zip(sections, paths)
        ]
        eval_path, imp_path, exp_path = dm_paths = [f"{path}.{dm}" for path in paths]
        for cid in ids:
            for section, path in zip(per_dm, dm_paths):
                if cid not in section:
                    raise ValidationError(f"{path}.{cid}: missing criterion")
            row = _object(eval_dm, cid, eval_path, "criterion", "alternative", alt_set)
            try:
                check_pairs(*_ordered(row, alternatives).T)
            except (KeyError, DomainError):  # only then is a cell named
                for alt in alternatives:
                    _pair(row, alt, f"{eval_path}.{cid}")
            _pair(imp_dm, cid, imp_path)
            weight = exp_dm[cid]
            if not _is_number_type(type(weight)) or not 0.0 <= weight <= 1.0:
                raise ValidationError(
                    f"{exp_path}.{cid}: expected a weight in [0, 1], got {weight!r}"
                )


def problem_from_dict(data: dict, source: str = "<problem>") -> DecisionProblem:
    """Validate a decoded problem document and build a DecisionProblem."""
    if not isinstance(data, dict):
        raise ValidationError(f"{source}: top level must be an object")
    version = _require(data, "schema_version", int, source)
    if version != SCHEMA_VERSION:
        raise VersionError(
            f"{source}: unsupported schema_version {version}; this build reads {SCHEMA_VERSION}"
        )

    _known(data, _FIELDS, source, "field")
    alternatives = _ids(data, "alternatives", source)

    raw_criteria = _require(data, "criteria", list, source)
    if not raw_criteria:
        raise ValidationError(f"{source}.criteria: expected a non-empty list")
    criteria: list[CriterionSpec] = []
    seen: set[str] = set()
    for index, entry in enumerate(raw_criteria):
        path = f"{source}.criteria[{index}]"
        if not isinstance(entry, dict):
            raise ValidationError(f"{path}: expected an object with id and kind")
        _known(entry, _CRITERION_FIELDS, path, "field")
        cid = _require(entry, "id", str, path)
        if cid in seen:
            raise ValidationError(f"{path}.id: duplicate id '{cid}'")
        seen.add(cid)
        kind_name = _require(entry, "kind", str, path)
        try:
            kind = CriterionKind(kind_name)
        except ValueError:
            raise ValidationError(
                f"{path}.kind: expected 'benefit' or 'cost', got '{kind_name}'"
            ) from None
        criteria.append(CriterionSpec(cid, kind))

    dms = _ids(data, "dms", source)

    sections = [_require(data, name, dict, source) for name in _SECTIONS]
    ids = [criterion.id for criterion in criteria]
    try:
        arrays = _read_arrays(sections, dms, ids, alternatives)
        return DecisionProblem.from_arrays(alternatives, criteria, dms, *arrays)
    except (KeyError, DomainError, OverflowError):
        _walk(source, sections, dms, ids, alternatives)
        raise  # the walk accepted what the arrays rejected: a bug, not bad input


def _unique_keys(pairs: list, path: Path) -> dict:
    """A decoded JSON object; a key given twice is a ParseError."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        raise ParseError(f"{path}: duplicate key '{pairs[_repeat(k for k, _ in pairs)][0]}'")
    return obj


def _read_text(path: Path) -> str:
    """The text of an input file, which must be UTF-8; ParseError naming the
    file when it cannot be read or decoded."""
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: cannot read file: {exc}") from exc


def _decode(path: Path, hook, text: str | None = None):
    """The JSON document in `text`, or else in the file at path, each object
    built by hook(pairs); ParseError with the line and column of a JSON
    error, or naming the file when the JSON nests too deeply to decode."""
    try:
        return json.loads(_read_text(path) if text is None else text, object_pairs_hook=hook)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except RecursionError:
        raise ParseError(f"{path}: JSON nested too deeply to decode") from None


def parse_problem(path: str | Path) -> DecisionProblem:
    """Load and validate a problem file. A file that fails is decoded again,
    without compaction, to name its first error. A regular file is read
    again for that, so that its text is not held through the first parse;
    any other path, such as a pipe, is read once and its text kept. A second
    reading can only name an error: one that validates means the file changed
    in between, which is a ParseError naming it."""
    path = Path(path)
    unique = partial(_unique_keys, path=path)
    text = None if path.is_file() else _read_text(path)
    data = _decode(path, lambda pairs: _compact(unique(pairs)), text)
    try:
        return problem_from_dict(data, source=path.name)
    except IfhvError:
        pass
    del data  # so that the two documents are never held at once
    problem_from_dict(_decode(path, unique, text), source=path.name)
    raise ParseError(f"{path}: the file changed while it was read")


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
    """Write a problem file: `json.dumps(serialize_problem(problem), indent=2)`
    and a newline, indented for people to read and edit."""
    text = json.dumps(serialize_problem(problem), indent=2)
    Path(path).write_text(text + "\n", encoding="utf-8")
