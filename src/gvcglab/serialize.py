"""JSON codecs for preferences, economies, results, and audit witnesses.

Rationals travel as strings, either ``"p/q"`` or decimal (``"1.9"`` parses to
19/10 exactly); emitted values always use the ``p/q`` / integer form.
Bundles are lists of object names, resolved against the economy's object
list.  Keys of tabular WP tables join member names with commas, so object
names must not contain commas; two keys that name the same bundle (``"a,b"``
and ``"b,a"``, or ``"a"`` and ``"a,a"``) are an input error.  ``dumps``
sorts keys and fixes separators, making reports byte-deterministic.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Mapping, Sequence

from .allocation import Economy
from .audit import DominanceWitness, ManipulationWitness, OutcomeProfile
from .mechanism import MechanismResult
from .prefs import (
    Dichotomous,
    Outcome,
    Preference,
    PwlMap,
    StructuralError,
    Tabular,
    rat,
)


_JSON_TYPES = {dict: "an object", list: "a list", str: "a string"}


def check_type(value: Any, kind: type, field: str) -> Any:
    """``value`` if it has JSON type ``kind``; else a StructuralError naming ``field``."""
    if not isinstance(value, kind):
        raise StructuralError(f"{field} must be {_JSON_TYPES[kind]}, not {type(value).__name__}")
    return value


def required(obj: Mapping[str, Any], key: str, parent: str = "") -> Any:
    """``obj[key]``; a StructuralError naming ``parent.key`` if it is missing."""
    if key not in obj:
        raise StructuralError(f"{parent}.{key} is missing" if parent else f"{key} is missing")
    return obj[key]


def rat_at(value: Any, field: str) -> Fraction:
    """``rat(value)``; its StructuralError, if any, prefixed with ``field``."""
    try:
        return rat(value)
    except StructuralError as exc:
        raise StructuralError(f"{field}: {exc}") from exc


def fraction_str(value: Fraction) -> str:
    return str(value)


def bundle_to_names(mask: int, names: Sequence[str]) -> list[str]:
    return [names[j] for j in range(len(names)) if mask & (1 << j)]


def bundle_from_names(
    members: Sequence[str], names: Sequence[str], field: str = "bundle"
) -> int:
    """The mask of ``members``; an error names the member as ``field[k]``."""
    index = {name: j for j, name in enumerate(names)}
    mask = 0
    for k, member in enumerate(members):
        check_type(member, str, f"{field}[{k}]: bundle member")
        if member not in index:
            raise StructuralError(f"{field}[{k}]: unknown object name {member!r}")
        mask |= 1 << index[member]
    return mask


def pwl_map_to_json(pwl: PwlMap) -> dict[str, Any]:
    return {
        "breakpoints": [fraction_str(b) for b in pwl.breakpoints],
        "pieces": [
            {"intercept": fraction_str(c), "slope": fraction_str(s)} for c, s in pwl.pieces
        ],
    }


def pwl_map_from_json(obj: Mapping[str, Any]) -> PwlMap:
    breakpoints = check_type(required(obj, "breakpoints"), list, "breakpoints")
    pieces = []
    for k, piece in enumerate(check_type(required(obj, "pieces"), list, "pieces")):
        field = f"pieces[{k}]"
        check_type(piece, dict, field)
        intercept = rat_at(required(piece, "intercept", field), f"{field}.intercept")
        pieces.append((intercept, rat_at(required(piece, "slope", field), f"{field}.slope")))
    return PwlMap(
        tuple(rat_at(b, f"breakpoints[{k}]") for k, b in enumerate(breakpoints)), tuple(pieces)
    )


def preference_to_json(pref: Preference, names: Sequence[str]) -> dict[str, Any]:
    if isinstance(pref, Dichotomous):
        return {
            "kind": "dichotomous",
            "minimal_bundles": [bundle_to_names(mb, names) for mb in pref.minimal_bundles],
            "wp": pwl_map_to_json(pref.wp_map),
        }
    return {
        "kind": "tabular",
        "bundles": {
            ",".join(bundle_to_names(mask, names)): pwl_map_to_json(pwl)
            for mask, pwl in enumerate(pref.maps)
            if mask
        },
    }


def preference_from_json(obj: Mapping[str, Any], names: Sequence[str]) -> Preference:
    kind = obj.get("kind")
    if kind == "dichotomous":
        bundles = check_type(required(obj, "minimal_bundles"), list, "minimal_bundles")
        return Dichotomous(
            tuple(
                bundle_from_names(
                    check_type(mb, list, f"minimal_bundles[{k}]"), names, f"minimal_bundles[{k}]"
                )
                for k, mb in enumerate(bundles)
            ),
            pwl_map_from_json(check_type(required(obj, "wp"), dict, "wp")),
        )
    if kind == "tabular":
        table: dict[int, PwlMap] = {}
        keys: dict[int, str] = {}
        for key, val in check_type(required(obj, "bundles"), dict, "bundles").items():
            field = f"bundles[{key!r}]"
            mask = bundle_from_names(key.split(",") if key else [], names, field)
            if mask in keys:
                raise StructuralError(f"{field} names the same bundle as bundles[{keys[mask]!r}]")
            keys[mask] = key
            table[mask] = pwl_map_from_json(check_type(val, dict, field))
        return Tabular.from_table(len(names), table)
    raise StructuralError(f"unknown preference kind {kind!r}")


def preference_at(obj: Any, names: Sequence[str], path: str) -> Preference:
    """The preference at JSON path ``path``; any error inside it names the path."""
    check_type(obj, dict, path)
    try:
        return preference_from_json(obj, names)
    except StructuralError as exc:
        raise StructuralError(f"{path}: {exc}") from exc


def economy_to_json(economy: Economy) -> dict[str, Any]:
    return {
        "objects": list(economy.object_names),
        "preferences": [
            preference_to_json(pref, economy.object_names) for pref in economy.preferences
        ],
    }


def economy_from_json(obj: Mapping[str, Any]) -> Economy:
    check_type(obj, dict, "economy")
    names = tuple(check_type(required(obj, "objects", "economy"), list, "economy.objects"))
    for j, name in enumerate(names):
        check_type(name, str, f"economy.objects[{j}]")
    prefs = check_type(required(obj, "preferences", "economy"), list, "economy.preferences")
    return Economy(
        names,
        tuple(preference_at(p, names, f"economy.preferences[{i}]") for i, p in enumerate(prefs)),
    )


def result_to_json(result: MechanismResult, names: Sequence[str]) -> dict[str, Any]:
    return {
        "allocation": [bundle_to_names(mask, names) for mask in result.allocation],
        "payments": [fraction_str(p) for p in result.payments],
        "welfare": fraction_str(result.welfare),
        "t_L": fraction_str(result.t_l),
    }


def outcome_to_json(outcome: Outcome, names: Sequence[str]) -> dict[str, Any]:
    bundle, payment = outcome
    return {"bundle": bundle_to_names(bundle, names), "payment": fraction_str(payment)}


def outcome_profile_to_json(profile: OutcomeProfile, names: Sequence[str]) -> dict[str, Any]:
    return {"outcomes": [outcome_to_json(o, names) for o in profile.outcomes]}


def dominance_witness_to_json(witness: DominanceWitness, names: Sequence[str]) -> dict[str, Any]:
    return {
        "dominating": outcome_profile_to_json(witness.dominating, names),
        "payment_gain": fraction_str(witness.payment_gain),
        "strict_agents": list(witness.strict_agents),
    }


def manipulation_witness_to_json(
    witness: ManipulationWitness, names: Sequence[str]
) -> dict[str, Any]:
    return {
        "agent": witness.agent,
        "misreport": preference_to_json(witness.misreport, names),
        "truthful": outcome_to_json(witness.truthful, names),
        "deviated": outcome_to_json(witness.deviated, names),
    }


def dumps(obj: Any) -> str:
    """Deterministic JSON: sorted keys, fixed separators, trailing newline."""
    return json.dumps(obj, indent=2, sort_keys=True, separators=(",", ": ")) + "\n"
