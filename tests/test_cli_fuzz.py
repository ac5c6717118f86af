"""Seeded fuzz of the CLI's input validation.

Each case takes one valid document, mutates one field of its system and
runs a command in-process.  Whatever the mutation, the command must exit 0,
2 or 3 without an exception, and an exit-2 message must start with
`error: ` and name a JSON path or the file.  A second loop, with its own
seed, puts the mutated system under `second_system` for `kk-classify`; an
exit-2 message must then start with that field's path.  A third loop puts
one bad value into a tower's base, a layer or its layers list, which must
exit 2 naming that path; a fourth gives `sample`, `dense` or `metric` one
bad flag value, and an exit-2 message must name the flag.
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


TOWER_SEED = 20261021
TOWER_CASES = 400
TOWER_COMMANDS = COMMANDS + ("sample",)
BAD_FIELDS = (True, 1.5, "x", None, {}, -1, 10**6, [1], [0], [2, 3], [2.0], ["2"], [True], [-4])
BAD_GROUPS = (5, "x", None, True, [], [0, [2]])
BAD_LAYER_LISTS = (5, "x", None, True, {}, {"free_rank": 0, "torsion": [2]}, [])


def tower_documents():
    docs = fixture_documents()
    return [doc for _origin, doc in docs if (doc["system"].get("tail") or {}).get("kind") == "tower"]


def mutate_tower(rng, doc):
    """One copy of a tower document with one bad base, layer or layers
    value, and the JSON path of the group object (or list) it lands in."""
    doc = copy.deepcopy(doc)
    tail = doc["system"]["tail"]
    owners = [(tail, "base", "tail.base")]
    owners += [(tail["layers"], i, f"tail.layers[{i}]") for i in range(len(tail["layers"]))]
    kind = rng.choice(["field", "field", "group", "layers"])
    if kind == "layers":
        tail["layers"] = rng.choice(BAD_LAYER_LISTS)
        return doc, "tail.layers", f"tail.layers = {short_repr(tail['layers'])}"
    owner, key, path = rng.choice(owners)
    if kind == "group":
        owner[key] = rng.choice(BAD_GROUPS)
        return doc, path, f"{path} = {short_repr(owner[key])}"
    field = rng.choice(["free_rank", "torsion"])
    owner[key][field] = rng.choice(BAD_FIELDS)
    return doc, path, f"{path}.{field} = {short_repr(owner[key][field])}"


def run_main_or_usage(argv):
    """run_main, with an argparse usage error read as its exit code."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), time_limit(CASE_SECONDS):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def test_mutated_tower_fields_exit_2_with_their_path(tmp_path):
    rng = random.Random(TOWER_SEED)
    docs = tower_documents()
    assert len(docs) >= 7
    for i in range(TOWER_CASES):
        doc, owner, what = mutate_tower(rng, rng.choice(docs))
        command = rng.choice(TOWER_COMMANDS)
        if command == "kk-classify":
            doc.setdefault("second_system", doc["system"])
        path = tmp_path / f"case{i}.json"
        path.write_text(json.dumps(doc))
        case = f"{command} {doc.get('name', '')}: {what}"
        extra = ["--level", "2"] if command == "sample" else []
        rc, out, err = run_main([command, str(path), *extra])
        # every mutation is malformed, so every case exits 2 naming its path
        assert (rc, out) == (2, ""), case
        assert err.startswith(f"error: {owner}") and err.endswith("\n"), (case, err)


ARG_SEED = 20261022
ARG_CASES = 400
BAD_INTS = ("0", "-1", "-99999999999999999999", "x", "1.5", "", "0x10", "1e3", "None")
BAD_TUPLES = (
    "",
    "[",
    "5",
    "null",
    "[]",
    "{}",
    "[" * 100_000,
    '{"entries": 5}',
    '{"entries": []}',
    '{"entries": [5]}',
    '{"entries": [[1.5]]}',
    '{"entries": [["1"]]}',
    '{"entries": [[true]]}',
    '{"entries": [[0, 0, 0, 0, 0, 0, 0]]}',
    '{"entries": [[7]]}',
    '{"entries": [[0], [1], [2]]}',
    '{"entries": [[0]], "level": 2}',
    '{"entries": [[0]], "level": "1"}',
)


def argument_cases():
    """(fixture, argv, bad flag): one bad value for a flag of sample, dense
    or metric, every other flag valid and small."""
    rng = random.Random(ARG_SEED)
    paths = sorted(glob.glob(os.path.join(FIXTURES, "*.json")))
    for _ in range(ARG_CASES):
        path = rng.choice(paths)
        command = rng.choice(("sample", "dense", "metric"))
        if command == "metric":
            with open(path) as fh:
                system = cli.parse_system(json.load(fh))
            zero = json.dumps({"entries": [[0] * system.group_at(1).dim]})
            flags = {"--x": zero, "--y": zero}
            bad = rng.choice(sorted(flags))
            flags[bad] = rng.choice(BAD_TUPLES)
        else:
            size = "--level" if command == "sample" else "--budget"
            flags = {size: str(rng.randint(1, 3)), "--cap": "50"}
            bad = rng.choice(sorted(flags))
            flags[bad] = rng.choice(BAD_INTS)
        yield path, [command, path, *(f"{k}={v}" for k, v in flags.items())], bad


def test_bad_flag_values_exit_2_naming_the_flag():
    seen = set()
    for path, argv, bad in argument_cases():
        case = f"{os.path.basename(path)}: {' '.join(argv[:1] + argv[2:])[:80]}"
        rc, out, err = run_main_or_usage(argv)
        seen.add(rc)
        assert rc in (0, 2, 3), case
        if rc == 0:
            assert json.loads(out)["command"] == argv[0], case
            continue
        assert out == "" and err.endswith("\n"), (case, err)
        if rc == 2:
            assert bad in err, (case, err)
    assert 2 in seen
