"""Seeded fuzz of the CLI's input validation.

Each case takes one valid document, mutates one field of its system and
runs a command in-process.  Whatever the mutation, the command must exit 0,
2 or 3 without an exception, and an exit-2 message must start with
`error: ` and name a JSON path or the file.  A second loop, with its own
seed, puts the mutated system under `second_system` for `kk-classify`; an
exit-2 message must then start with that field's path.
"""

import copy
import glob
import io
import json
import os
import random
import re
import signal
from contextlib import contextmanager, redirect_stderr, redirect_stdout

from conftest import FIXTURES
from prolim import cli

SEED = 20261019
CASES = 1500
CASE_SECONDS = 2.0
COMMANDS = ("classify", "ml", "surjectivize", "kernels", "kk-classify")
BAD_ENTRIES = (True, 1.5, "x", None, [])
HUGE_ENTRY = 10**4999 + 7  # 5000 digits
# a message that begins with a JSON path, such as `tail.maps[0][1][2]: ...`
PATH_AT_START = re.compile(r"error: (system|prefix|maps|tail)\b(\.[a-z_]+|\[\d+\])*[: ]")
FIELD_NAMED = re.compile(r"'(system|second_system)'")
SECOND_SEED = 20261020
SECOND_CASES = 500
SECOND_AT_START = re.compile(r"error: second_system\b(\.[a-z_]+|\[\d+\])*[: ]")


def generated_documents(rng, count=4):
    """Seeded cycle documents over Z^r (+ Z/2), with a prefix of 0 or 1 levels."""
    docs = []
    for k in range(count):
        rank = rng.randint(2, 4)
        torsion = [2] if k % 2 else []
        group = {"free_rank": rank, "torsion": torsion}
        dim = rank + len(torsion)

        def matrix():
            rows = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(dim)]
            for row in rows[:rank]:
                row[rank:] = [0] * len(torsion)  # order-2 generators hit torsion only
            return rows

        period = rng.randint(1, 2)
        prefix_len = rng.randint(0, 1)
        system = {
            "prefix": [group] * prefix_len,
            "maps": [matrix() for _ in range(prefix_len)],
            "tail": {"kind": "cycle", "groups": [group] * period, "maps": [matrix() for _ in range(period)]},
        }
        docs.append(("generated", {"name": f"gen-{k}", "system": system}))
    return docs


def fixture_documents():
    docs = []
    for path in sorted(glob.glob(os.path.join(FIXTURES, "*.json"))):
        with open(path) as fh:
            docs.append(("fixture", json.load(fh)))
    return docs


def matrices(system):
    """(JSON path, matrix) of every bonding map in the system."""
    out = [(f"maps[{i}]", m) for i, m in enumerate(system.get("maps", []))]
    tail = system.get("tail") or {}
    out += [(f"tail.maps[{j}]", m) for j, m in enumerate(tail.get("maps", []))]
    return out


def groups(system):
    """(JSON path, group object) of every group in the system."""
    out = [(f"prefix[{i}]", g) for i, g in enumerate(system.get("prefix", []))]
    tail = system.get("tail") or {}
    for key in ("groups", "layers"):
        out += [(f"tail.{key}[{i}]", g) for i, g in enumerate(tail.get(key, []))]
    if "base" in tail:
        out.append(("tail.base", tail["base"]))
    return out


def mutate(rng, origin, doc):
    """One mutated copy of doc and a description of the mutation."""
    doc = copy.deepcopy(doc)
    system = doc["system"]
    tail = system["tail"]
    entries = [(p, m, r, c) for p, m in matrices(system) for r in range(len(m)) for c in range(len(m[r]))]
    rows = [(p, m, r) for p, m in matrices(system) for r in range(len(m))]
    kinds = ["drop", "kind"] + ["entry"] * bool(entries) + ["row"] * bool(rows)
    kind = rng.choice(kinds)
    if kind == "entry":
        path, m, r, c = rng.choice(entries)
        values = BAD_ENTRIES + ((HUGE_ENTRY,) if origin == "fixture" else ())
        m[r][c] = rng.choice(values)
        return doc, f"{path}[{r}][{c}] = {short_repr(m[r][c])}"
    if kind == "row":
        path, m, r = rng.choice(rows)
        if m[r] and rng.random() < 0.5:
            m[r].pop()
            return doc, f"{path}[{r}] shortened"
        m[r].append(1)
        return doc, f"{path}[{r}] lengthened"
    if kind == "kind":
        tail["kind"] = rng.choice(["cycle", "tower", "chain", 3, None])
        return doc, f"tail.kind = {tail['kind']!r}"
    targets = [(g, key, f"{path}.{key}") for path, g in groups(system) for key in ("free_rank", "torsion")]
    targets += [(system, "maps", "maps"), (tail, "kind", "tail.kind")]
    if "maps" in tail:
        targets.append((tail, "maps", "tail.maps"))
    owner, key, path = rng.choice(targets)
    del owner[key]
    return doc, f"drop {path}"


def short_repr(value):
    text = repr(value)
    return text if len(text) < 20 else text[:8] + "..."


class CaseTimeout(Exception):
    pass


@contextmanager
def time_limit(seconds):
    def expire(signum, frame):
        raise CaseTimeout(f"case ran past {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), time_limit(CASE_SECONDS):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def fuzz_cases():
    rng = random.Random(SEED)
    docs = fixture_documents() + generated_documents(rng)
    for _ in range(CASES):
        origin, doc = rng.choice(docs)
        mutated, what = mutate(rng, origin, doc)
        command = rng.choice(COMMANDS)
        if command == "kk-classify":
            # pair the mutated system with the original, so it is the one read
            mutated.setdefault("second_system", doc["system"])
        yield doc.get("name", ""), what, command, mutated


def test_mutated_documents_exit_0_2_or_3_with_a_path(tmp_path):
    seen = set()
    for i, (name, what, command, doc) in enumerate(fuzz_cases()):
        path = tmp_path / f"case{i}.json"
        path.write_text(json.dumps(doc))
        case = f"{command} {name}: {what}"
        rc, out, err = run_main([command, str(path)])
        seen.add(rc)
        assert rc in (0, 2, 3), case
        if rc == 0:
            assert json.loads(out)["command"] == command, case
            continue
        assert out == "", case
        assert err.startswith("error: ") and err.endswith("\n"), (case, err)
        if rc == 2:
            assert (
                PATH_AT_START.match(err) or FIELD_NAMED.search(err) or str(path) in err
            ), (case, err)
    assert seen >= {0, 2}


def second_system_cases():
    rng = random.Random(SECOND_SEED)
    docs = fixture_documents() + generated_documents(rng)
    for _ in range(SECOND_CASES):
        origin, doc = rng.choice(docs)
        mutated, what = mutate(rng, origin, doc)
        # the original system comes first and parses, so the mutated one is at fault
        mutated["second_system"] = mutated["system"]
        mutated["system"] = doc["system"]
        yield doc.get("name", ""), what, mutated


def test_mutated_second_systems_name_second_system(tmp_path):
    seen = set()
    for i, (name, what, doc) in enumerate(second_system_cases()):
        path = tmp_path / f"case{i}.json"
        path.write_text(json.dumps(doc))
        case = f"kk-classify {name}: second_system {what}"
        rc, out, err = run_main(["kk-classify", str(path)])
        seen.add(rc)
        assert rc in (0, 2, 3), case
        if rc == 0:
            assert json.loads(out)["command"] == "kk-classify", case
            continue
        assert out == "", case
        assert err.startswith("error: ") and err.endswith("\n"), (case, err)
        if rc == 2:
            assert SECOND_AT_START.match(err), (case, err)
    assert seen >= {0, 2}
