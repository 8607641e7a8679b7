"""Checks of program outputs against schemas, references and properties.

Every check returns a list of problems; an empty list means the output is
correct.  Expected values come from reference.py, never from a stored copy
of an earlier output.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from jsonschema import Draft202012Validator
from referencing import Registry, Resource

import reference
from inputs import BLOCKS, GENUS_HALF_DEGREES


def rational(q) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _key(d) -> str:
    return "(" + ",".join(str(x) for x in d) + ")"


def descending_tuples(g: int, n: int):
    return sorted({tuple(sorted(d, reverse=True)) for d in reference.exponent_tuples(g, n)})


def expected_numbers(g: int, n: int) -> dict[str, str]:
    return {_key(d): rational(reference.intersection(g, d)) for d in descending_tuples(g, n)}


def table_keys() -> set[str]:
    """Entry keys of the base table: every amplitude of the four blocks."""
    return {f"g{g}:{_key(d)}" for g, n in BLOCKS for d in descending_tuples(g, n)}


class Schemas:
    """Validators for the versioned output schemas in a checkout."""

    def __init__(self, directory: Path):
        self.schemas = {}
        resources = []
        for path in sorted(directory.glob("*.json")):
            contents = json.loads(path.read_text(encoding="utf-8"))
            self.schemas[path.stem] = contents
            resources.append((contents["$id"], Resource.from_contents(contents)))
        self.registry = Registry().with_resources(resources)

    def problems(self, name: str, payload) -> list[str]:
        validator = Draft202012Validator(self.schemas[name], registry=self.registry)
        return [f"{name}: {e.message}" for e in validator.iter_errors(payload)]


def _parse(text: str):
    try:
        return json.loads(text), []
    except ValueError as exc:
        return None, [f"stdout is not JSON: {exc}"]


def check_intersect(schemas: Schemas, g: int, n: int, text: str) -> list[str]:
    payload, bad = _parse(text)
    if bad:
        return bad
    bad = schemas.problems("intersect-v1", payload)
    if bad:
        return bad
    if payload["genus"] != g or payload["n"] != n:
        bad.append("genus or n differs from the request")
    if payload["numbers"] != expected_numbers(g, n):
        bad.append(f"numbers {payload['numbers']} != {expected_numbers(g, n)}")
    return bad


def check_intersect_csv(g: int, n: int, text: str) -> list[str]:
    lines = text.split("\n")
    if lines[-1] != "" or lines[0] != "genus,indices,value":
        return ["CSV header or final newline missing"]
    found = {}
    for line in lines[1:-1]:
        cells = line.split(",")
        if len(cells) != 3 or cells[0] != str(g):
            return [f"bad CSV row {line!r}"]
        found[_key(int(x) for x in cells[1].split(" "))] = cells[2]
    if found != expected_numbers(g, n):
        return [f"CSV table {found} != {expected_numbers(g, n)}"]
    return []


def check_graphs(schemas: Schemas, g: int, n: int, text: str):
    """Problems, plus the block's rooted-map count sum d / (|Aut| n!)."""
    payload, bad = _parse(text)
    if bad:
        return bad, Fraction(0)
    bad = schemas.problems("graphs-v1", payload)
    if bad:
        return bad, Fraction(0)
    classes = payload["classes"]
    if (payload["genus"], payload["faces"], payload["count"]) != (g, n, len(classes)):
        bad.append("genus, faces or count disagree with the request")
    darts = 6 * (n + 2 * g - 2)
    for cls in classes:
        if cls["darts"] != darts or not reference.class_is_valid(cls, g, n):
            bad.append(f"not a trivalent genus-{g} map with {n} labeled faces: {cls}")
            break
    return bad, reference.rooted_count_from_classes(classes, n)


def check_verify(schemas: Schemas, which: str, text: str) -> list[str]:
    payload, bad = _parse(text)
    if bad:
        return bad
    bad = schemas.problems("verify-v1", payload)
    if bad:
        return bad
    counts = payload["counts"]
    tally = {"verified_zero": 0, "uncovered": 0, "nonzero": 0}
    for item in payload["monomials"]:
        tally[item["status"]] += 1
        if item["status"] == "verified_zero" and item["value"] != "0":
            bad.append(f"verified_zero monomial with value {item['value']}")
    if payload["residual"] != which or payload["pass"] is not True:
        bad.append(f"residual {payload['residual']} pass {payload['pass']}")
    if counts != tally or counts["nonzero"] != 0 or counts["verified_zero"] <= 0:
        bad.append(f"counts {counts} (monomials give {tally})")
    return bad


def check_mutation(flips, keys: set[str]) -> list[str]:
    """Every table entry but at most one flips a covered residual monomial."""
    if not isinstance(flips, dict) or set(flips) != keys:
        return [f"mutation entries {sorted(flips) if isinstance(flips, dict) else flips}"]
    bad = []
    for key, names in flips.items():
        if not all(name.split(":")[0] in ("kdv", "string") for name in names):
            bad.append(f"{key}: flips {names} name no residual")
    invisible = [key for key, names in flips.items() if not names]
    if len(invisible) > 1:
        bad.append(f"more than one entry flips nothing: {invisible}")
    return bad


def _genus_split(k: int) -> dict[str, str]:
    return {str(g): str(c) for g, c in enumerate(reference.harer_zagier(k))}


def check_suite(schemas: Schemas, seed: int, text: str) -> list[str]:
    payload, bad = _parse(text)
    if bad:
        return bad
    bad = schemas.problems("suite-v1", payload)
    if bad:
        return bad
    crit = {c["id"]: c for c in payload["criteria"]}
    if sorted(crit) != list(range(1, 13)) or payload["level"] != "quick":
        return [f"criteria ids {sorted(crit)} level {payload['level']}"]
    bad += [f"criterion {i} fails" for i, c in crit.items() if c["pass"] is not True]
    if payload["all_pass"] is not True:
        bad.append("all_pass is not true")
    d = {i: c["detail"] for i, c in crit.items()}
    hz2 = reference.harer_zagier(2)
    expect = [
        (d[1]["tau0^3"], rational(reference.intersection(0, (0, 0, 0)))),
        (d[1]["tau1"], rational(reference.intersection(1, (1,)))),
        (d[2]["tau1 tau0^3"], rational(reference.intersection(0, (1, 0, 0, 0)))),
        (d[2]["tau0 tau2"], rational(reference.intersection(1, (2, 0)))),
        (d[3]["counts"]["nonzero"], 0),
        (d[4]["counts"]["nonzero"], 0),
        (d[5]["failures"], []),
        (d[6]["failures"], []),
        (d[7]["grid_mismatches"], 0),
        (d[8]["trM4"], {str(1 - 2 * g): str(c) for g, c in enumerate(hz2)}),
        (d[8]["genus_split"], _genus_split(2)),
        (d[8]["catalan3"], str(reference.harer_zagier(3)[0])),
        ([c["agree"] for c in d[9]["cases"]], [True, True]),
        ([r["seed"] for r in d[11]["reports"]], [seed, seed + 1, seed + 2]),
        (d[12]["hand_case"], True),
        (d[12]["order_check_failures"], 0),
        (d[12]["ses_failures"], 0),
    ]
    bad += [f"detail {got!r} != {want!r}" for got, want in expect if got != want]
    if d[3]["counts"]["verified_zero"] <= 0 or d[4]["counts"]["verified_zero"] <= 0:
        bad.append("a residual has no verified zero")
    flips = d[3]["flips"]
    bad += check_mutation(flips, table_keys())
    if d[3]["mutation_invisible"] != sorted(k for k, v in flips.items() if not v):
        bad.append("mutation_invisible does not list the entries that flip nothing")
    return bad


def check_session_round(outputs: dict, sums, match) -> list[list[str]]:
    """Problems per operation of one graph_session round, in call order."""
    per_op = []

    def result(item):
        return (item["ok"], []) if "ok" in item else (None, [item["error"]])

    for (g, n, lams), item in zip(sums, outputs["sums"]):
        got, bad = result(item)
        want = rational(reference.main_identity_rhs(g, lams))
        if not bad and got != want:
            bad = [f"kontsevich_sum({g},{n},{[str(x) for x in lams]}) = {got}, reference {want}"]
        per_op.append(bad)
    for (size, order, lams), report in zip(match, outputs["match"]):
        got, bad = result(report)
        if not bad:
            want = {str(v): rational(reference.colored_graph_side(v, lams))
                    for v in range(2, order + 1, 2)}
            free = rational(reference.free_energy_order2(lams))
            if got["wick_log"] != want or got["graph_side"] != want:
                bad.append(f"match N={size} order {order}: {got['wick_log']} "
                           f"{got['graph_side']}, reference {want}")
            if got["free_energy_order2"] != free or got["agree"] is not True:
                bad.append(f"order-2 free energy {got['free_energy_order2']}, reference {free}")
            if got["lambda"] != [rational(x) for x in lams] or got["N"] != size:
                bad.append("match echoes other inputs")
        per_op.append(bad)
    for k, item in zip(GENUS_HALF_DEGREES, outputs["genus"]):
        got, bad = result(item)
        if not bad and got != _genus_split(k):
            bad = [f"genus expansion of tr M^{2 * k}: {got} != {_genus_split(k)}"]
        per_op.append(bad)
    got, bad = result(outputs["base_table"])
    want = {f"g{g}:{_key(d)}": rational(reference.intersection(g, d))
            for g, n in BLOCKS for d in descending_tuples(g, n)}
    if not bad and got != want:
        bad = [f"base table {got} != {want}"]
    per_op.append(bad)
    got, bad = result(outputs["mutation"])
    per_op.append(bad or check_mutation(got, table_keys()))
    return per_op
