"""Seeded input fuzz of ``solve``: generated documents through ``cli.main``.

The documents are the marginals of a mixture of a few assignments on a
hypergraph (chains, stars, cycles and triples; binary ones of six or more
observables reach the clique LP), some perturbed, some with one entry or
field made malformed.  Whatever the document, the exit code is 0, 2, 3 or 4,
exit 2 prints one ``error:`` line and no stdout, and no exception escapes.
An admitted document (joint size at most 256) gets the dense LP's status and
homogeneous dimension, and a Proper witness gives every table exactly.
"""

import contextlib
import io
import itertools
import json
import math
import os
import tempfile
from collections import Counter
from fractions import Fraction as F

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import reproduces
from bellquasi import cli, marginal_general
from bellquasi.marginal_general import build_constraint_system, lp_feasible

#: Entries that are not a probability, or not in the document grammar at all.
BAD_ENTRIES = ["x", "1/0", "1e400000", "1_0", "1 / 2", "-1/3", "2", "0x10", "", None, True, [], {}, -1, 1e308, 1.5, math.nan, math.inf]


@st.composite
def documents(draw):
    """A schema-1 document, as the dict that ``json.dump`` writes."""
    k = draw(st.sampled_from((2, 3)))
    n = draw(st.integers(2, 8 if k == 2 else 5))
    cards = [k] * n if draw(st.booleans()) else [draw(st.sampled_from((2, 3))) for _ in range(n)]
    while math.prod(cards) > 256:
        cards[cards.index(3)] = 2
    shape = draw(
        st.sampled_from(
            [
                [(i, (i + 1) % n) for i in range(n)] if n > 2 else [(0, 1)],
                [(i, i + 1) for i in range(n - 1)],
                [(0, i) for i in range(1, n)],
                [(i, (i + 1) % n, (i + 2) % n) for i in range(0, n - 2, 2)] or [(0, 1)],
            ]
        )
    )
    change = draw(st.sampled_from(("none", "twist", "move")))
    assignment = st.tuples(*(st.integers(0, c - 1) for c in cards))
    mixture = draw(st.lists(st.tuples(assignment, st.integers(1, 9)), min_size=1, max_size=2 if change == "twist" else 4))
    # each assignment with its shifts gives uniform single marginals, which a twist keeps
    shifts = math.lcm(*cards) if change == "twist" or draw(st.booleans()) else 1
    total = shifts * sum(w for _, w in mixture)
    tables = [[F(0)] * math.prod(cards[p] for p in positions) for positions in shape]
    for (outcome, w), j in itertools.product(mixture, range(shifts)):
        for positions, table in zip(shape, tables):
            cell = 0
            for p in positions:
                cell = cell * cards[p] + (outcome[p] + j) % cards[p]
            table[cell] += F(w, total)
    t = draw(st.integers(0, len(tables) - 1))
    table = tables[t]
    if change == "twist":  # the table's last observable relabelled v -> v + 1: QuasiOnly on some cycles
        c = cards[shape[t][-1]]
        tables[t] = [table[cell - cell % c + (cell % c - 1) % c] for cell in range(len(table))]
    elif change == "move":  # mass moved inside the table: often Inconsistent
        src, dst = draw(st.integers(0, len(table) - 1)), draw(st.integers(0, len(table) - 1))
        moved = table[src] / draw(st.integers(1, 3))
        table[src] -= moved
        table[dst] += moved
    names = [f"X{i}" for i in range(n)]
    doc = {
        "schema": 1,
        "observables": [{"name": name, "cardinality": c} for name, c in zip(names, cards)],
        "marginals": [{"over": [names[p] for p in positions], "table": [str(v) for v in table]} for positions, table in zip(shape, tables)],
    }
    flaw = draw(st.sampled_from((None, None, None, None, "entry", "float", "over", "name", "cardinality", "length", "schema")))
    marginal = doc["marginals"][t]
    if flaw == "entry":
        marginal["table"][draw(st.integers(0, len(table) - 1))] = draw(st.sampled_from(BAD_ENTRIES))
    elif flaw == "float":  # admitted when the floats still sum to 1 within the tolerance
        marginal["table"] = [float(F(v)) for v in marginal["table"]]
    elif flaw == "over":
        marginal["over"][-1] = draw(st.sampled_from(("nowhere", marginal["over"][0], 7)))
    elif flaw == "name":
        doc["observables"][draw(st.integers(0, n - 1))]["name"] = draw(st.sampled_from((names[0], names[-1], "", 7, None)))
    elif flaw == "cardinality":
        doc["observables"][draw(st.integers(0, n - 1))]["cardinality"] = draw(st.sampled_from((1, 0, -2, "2", 2.0, True, None, 10**7)))
    elif flaw == "length":
        marginal["table"] = marginal["table"][: draw(st.integers(0, len(table) - 1))]
    elif flaw == "schema":
        doc[draw(st.sampled_from(("schema", "observables", "marginals")))] = draw(st.sampled_from((2, None, [], "1")))
    return doc


def check_solve(doc: dict, as_json: bool) -> list:
    """``solve`` on ``doc``, checked: what it reached, its exit code and, when admitted, whether its shape has a clique LP."""
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "doc.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["solve", path, *(["--json"] if as_json else [])])
        assert code in (0, 2, 3, 4), (code, err.getvalue())
        if code == 2:
            lines = err.getvalue().splitlines()
            assert out.getvalue() == "" and len(lines) == 1 and lines[0].startswith("error: "), err.getvalue()
            return [code]
        assert err.getvalue() == ""
        prob = cli.load_problem_document(path)
    dense = lp_feasible(*build_constraint_system(prob))
    if as_json:
        report = json.loads(out.getvalue())
        status, dim, witness = report["status"], report["homogeneous_dim"], report["witness"]
    else:
        lines = dict(line.split(": ", 1) for line in out.getvalue().splitlines())
        status, dim, witness = lines["status"], int(lines["homogeneous dimension"]), lines.get("witness", "").split()
    assert (status, dim) == (dense.status.value, dense.homogeneous_dim)
    assert code == cli._STATUS_EXIT[dense.status] and bool(witness) == (code == 0)
    if witness:
        assert reproduces(prob, [F(v) for v in witness])
    return [code, "clique"] if marginal_general._cover(*prob._shape) else [code]


def test_solve_on_generated_documents():
    # every generated document passes check_solve, and the budget reaches every exit code and the clique LP
    seen = Counter()

    @settings(max_examples=800, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(doc=documents(), as_json=st.booleans())
    def fuzz(doc, as_json):
        seen.update(check_solve(doc, as_json))

    fuzz()
    assert set(seen) == {0, 2, 3, 4, "clique"} and min(seen.values()) >= 5, seen
