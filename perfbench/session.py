"""Long-lived library process of the graph_session workload.

    python3 perfbench/session.py SEED

Set-up imports the package, enumerates the 6- and 12-dart blocks and runs
one (0,3) extraction to fill the cached convention check, then prints one
line {"ready": true}.  Each later stdin line is a JSON command
{"trace": PATH or null}; the process runs one round and answers with one JSON
line holding every output as exact strings; the driver times the round.  With
a trace path, the round runs under the tracer and its spans go to PATH.
The process exits when stdin closes.
"""

from __future__ import annotations

import json
import sys

from inputs import BLOCKS, GENUS_HALF_DEGREES, MUTATION_CAP, session_inputs
from tracer import Tracer


def _call(fn, *args, **kwargs):
    try:
        return {"ok": fn(*args, **kwargs)}
    except Exception as exc:  # an operation failure is reported, not fatal
        return {"error": f"{type(exc).__name__}: {exc}"}


def run_round(ribbon, wick, kdv, sums, match) -> dict:
    graph_sums = [_call(ribbon.kontsevich_sum, g, n, lams) for g, n, lams in sums]
    matches = [
        _call(wick.kontsevich_match, size, lams, order) for size, order, lams in match
    ]
    genus = [
        _call(wick.genus_expansion, wick.TraceWord((2 * k,))) for k in GENUS_HALF_DEGREES
    ]
    table = _call(ribbon.base_table, max_darts=ribbon.DEFAULT_MAX_DARTS)
    if "ok" in table:
        mutation = _call(kdv.mutation_report, table["ok"], cap=MUTATION_CAP)
    else:
        mutation = {"error": "no base table"}

    def text(result, render=str):
        return {"ok": render(result["ok"])} if "ok" in result else result

    outputs = {
        "sums": [text(r) for r in graph_sums],
        "match": matches,
        "genus": [text(r, lambda e: {str(g): str(c) for g, c in e.items()}) for r in genus],
        "base_table": text(table, lambda t: t.to_json()),
        "mutation": mutation,
    }
    return outputs


def main() -> None:
    seed = int(sys.argv[1])
    from taubench import kdv, ribbon, wick

    for g, n in BLOCKS:
        # same positional arguments as kontsevich_sum passes, so the cache hits
        ribbon.enumerate_trivalent(g, n, ribbon.DEFAULT_MAX_DARTS)
    # fills the cached convention check, so that every round does the same work
    ribbon.extract_intersection_numbers(0, 3, ribbon.DEFAULT_MAX_DARTS)
    sums, match = session_inputs(seed)
    tracer = Tracer()
    print(json.dumps({"ready": True}), flush=True)
    for line in sys.stdin:
        trace_path = json.loads(line)["trace"]
        if trace_path:
            tracer.patch_loaded()
            tracer.reset()
        outputs = run_round(ribbon, wick, kdv, sums, match)
        if trace_path:
            tracer.dump(trace_path)
        print(json.dumps({"outputs": outputs}, sort_keys=True), flush=True)


if __name__ == "__main__":
    main()
