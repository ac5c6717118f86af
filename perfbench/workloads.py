"""The benchmark workloads: inputs, operations, warm-up and output checks.

An operation returns (exit code, stdout bytes).  Checks run after a pass,
outside the timed region; an output that already passed its check once in
a run is accepted again only if it is byte-identical.
"""

import contextlib
import functools
import hashlib
import io
import json
import os
import random
import sys

import generate

DEFAULT_SEED = 1
HELD_OUT_SEED = 2027  # recorded, but kept out of tuning: later gains are confirmed on it
SPLIT_MAX_ORDER = 16
EXPECTED_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected")


def digest(data):
    return hashlib.sha256(data).hexdigest()


def load_expected(name):
    with open(os.path.join(EXPECTED_DIR, f"{name}.json")) as fh:
        return json.load(fh)


def run_cli(argv):
    """One `prolim.cli.main` call with stdout and stderr captured."""
    cli = sys.modules["prolim.cli"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue().encode()


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)


class Workload:
    """ops: [(key, callable)] in pass order; cold_argv: one-shot CLI call."""

    name = ""

    def __init__(self, root, seed):
        self.root = root
        self.seed = seed
        self.ops = []
        self.warmup = []
        self.cold_argv = []
        self._verified = {}

    @functools.cached_property
    def spec(self):
        """What the seed commit produced, from expected/<workload>.json."""
        return load_expected(self.name)

    def prepare(self, workdir):
        """Generate and write the input documents; build the op list."""
        raise NotImplementedError

    def check(self, key, result, outputs):
        raise NotImplementedError

    def failures(self, outputs):
        """Keys of the pass outputs that fail their check."""
        bad = []
        for key, result in outputs.items():
            if self._verified.get(key) == result:
                continue
            try:
                ok = self.check(key, result, outputs)
            except Exception as exc:  # a malformed report fails its check
                print(f"check of {key!r} raised {exc!r}", file=sys.stderr)
                ok = False
            if ok:
                self._verified[key] = result
            else:
                bad.append(key)
        return bad

    def extra_failures(self):
        """Workload-level checks beyond the per-op ones (list of messages)."""
        return []

    def cold_ok(self, out):
        """Extra check of the one-shot CLI output, beyond matching in-process."""
        return True

    # -- shared output checks ------------------------------------------

    def surjectivized_ok(self, system, name, out):
        """Level groups equal the stable-image normal forms; every bonding map
        of the report is surjective."""
        invsys = sys.modules["prolim.invsys"]
        fgab = sys.modules["prolim.fgab"]
        report = json.loads(out)
        if report.get("command") != "surjectivize" or report.get("name") != name:
            return False
        s = invsys.InverseSystem.from_json(system)
        t = invsys.InverseSystem.from_json(report["verdict"])
        if (t.prefix_len, t.period, type(t.tail)) != (s.prefix_len, s.period, type(s.tail)):
            return False
        stable = invsys.stable_images(s)
        levels = range(1, s.prefix_len + s.period + 1)
        return all(t.group_at(n) == stable[n].normal_form for n in levels) and all(
            fgab.is_surjective(t.map_at(n)) for n in levels
        )


class FixturesCli(Workload):
    """Every CLI command on the committed fixtures (operation list recorded)."""

    name = "fixtures-cli"

    def prepare(self, workdir):
        fixtures = os.path.join(self.root, "fixtures")
        self.docs = {}
        for entry in self.spec["ops"]:
            fx = entry.get("fixture")
            if fx and fx not in self.docs:
                with open(os.path.join(fixtures, f"{fx}.json"), "rb") as fh:
                    raw = fh.read()
                with open(os.path.join(workdir, f"{fx}.json"), "wb") as fh:
                    fh.write(raw)
                self.docs[fx] = json.loads(raw)
        self.expect = {}
        ops = []
        for entry in self.spec["ops"]:
            fx = entry.get("fixture")
            argv = [entry["command"]]
            if fx:
                argv.append(os.path.join(workdir, f"{fx}.json"))
            argv += entry["args"]
            key = " ".join([entry["command"]] + ([fx] if fx else []) + entry["args"])
            if "golden" in entry:
                with open(os.path.join(fixtures, "golden", entry["golden"]), "rb") as fh:
                    entry = dict(entry, golden_bytes=fh.read())
            self.expect[key] = entry
            ops.append((key, lambda argv=argv: run_cli(argv)))
        random.Random(f"{self.name}/{self.seed}").shuffle(ops)
        self.ops = ops
        self.warmup = ops
        self.cold_argv = ["classify", os.path.join(workdir, "const-z.json")]

    def check(self, key, result, outputs):
        rc, out = result
        entry = self.expect[key]
        if rc != entry["exit"]:
            return False
        if "golden_bytes" in entry:
            return out == entry["golden_bytes"]
        if "sha256" in entry:
            return digest(out) == entry["sha256"]
        doc = self.docs[entry["fixture"]]
        return self.surjectivized_ok(doc["system"], doc.get("name", ""), out)


class Generated(Workload):
    """Seeded documents; classify, ml, surjectivize (and kk-classify) each.

    Exit codes and report digests are recorded for the default and the
    held-out seed.  Every seed is checked against invariants that hold
    independently of the engine: the class family fixed by the tail kind,
    kk-classify agreeing with classify and ml, and the structural
    surjectivize check.
    """

    commands = ("classify", "ml", "surjectivize")

    def documents(self):
        raise NotImplementedError

    def cold_document(self):
        """The same small document for every seed, so cli_cold_ms always
        measures the same work."""
        raise NotImplementedError

    def classes(self, system):
        raise NotImplementedError

    def prepare(self, workdir):
        docs = self.documents()
        self.docs = {d["name"]: d for d in docs}
        pairs = generate.paired(docs) if "kk-classify" in self.commands else []
        for d in docs + pairs:
            _write(os.path.join(workdir, f"{d['name']}.json"), generate.dump(d))
        pair_of = {p["name"].split("+")[0]: p["name"] for p in pairs}
        ops = []
        for d in docs:
            for cmd in self.commands:
                name = pair_of[d["name"]] if cmd == "kk-classify" else d["name"]
                argv = [cmd, os.path.join(workdir, f"{name}.json")]
                ops.append((f"{cmd} {name}", lambda argv=argv: run_cli(argv)))
        self.ops = ops
        first = {}
        for d in docs:
            first.setdefault(generate.cell_of(d["name"]), d["name"])
        warm = set(first.values())
        self.warmup = [op for op in ops if op[0].split(" ")[1].split("+")[0] in warm]
        cold = self.cold_document()
        self.cold = cold
        path = os.path.join(workdir, f"{cold['name']}.json")
        _write(path, generate.dump(cold))
        self.cold_argv = ["classify", path]

    @functools.cached_property
    def recorded(self):
        """{op key: {"exit", "sha256"}} when this seed was recorded, else {}."""
        rec = self.spec["seeds"].get(str(self.seed), {})
        if rec and set(rec) != {key for key, _fn in self.ops}:
            raise RuntimeError(f"expected/{self.name}.json is stale; run perfbench/record.py")
        return rec

    def cold_ok(self, out):
        report = json.loads(out)
        return report["verdict"]["class"]["tag"] in self.classes(self.cold["system"])

    def check(self, key, result, outputs):
        rc, out = result
        rec = self.recorded.get(key)
        if rc != (rec["exit"] if rec else 0):
            return False
        if rec and "sha256" in rec and digest(out) != rec["sha256"]:
            return False
        cmd, name = key.split(" ", 1)
        if rc != 0:
            return True
        if cmd == "surjectivize":
            d = self.docs[name]
            return self.surjectivized_ok(d["system"], name, out)
        report = json.loads(out)
        if report.get("command") != cmd or report.get("name") != name:
            return False
        verdict = report["verdict"]
        if cmd == "classify":
            return verdict["class"]["tag"] in self.classes(self.docs[name]["system"])
        if cmd == "ml":
            return isinstance(verdict["verdict"], bool)
        first, second = name.split("+")
        cls = outputs.get(f"classify {first}")
        ml = outputs.get(f"ml {second}")
        if not (cls and ml and cls[0] == 0 and ml[0] == 0):
            return False
        ml_holds = json.loads(ml[1])["verdict"]["verdict"]
        return verdict["lim_part"] == json.loads(cls[1])["verdict"]["class"] and verdict[
            "closure_of_zero"
        ] == ("Zero" if ml_holds else "UncountableIndiscrete")


class CycleRank(Generated):
    name = "cycle-rank"
    commands = ("classify", "ml", "surjectivize", "kk-classify")

    def documents(self):
        return generate.cycle_documents(self.seed)

    def cold_document(self):
        # smallest rank; its stable image needs sympy, so the cold start pays that import
        system = generate.cycle_system(random.Random("cycle-rank/cold"), 4, 1)
        return {"name": "cycle-cold", "system": system}

    def classes(self, system):
        # the surjectivized cycle tail consists of isomorphisms, so it stabilizes
        return {"Finite", "CountableDiscrete"}


class TowerDepth(Generated):
    name = "tower-depth"

    def documents(self):
        return generate.tower_documents(self.seed)

    def cold_document(self):
        system = generate.tower_system(random.Random("tower-depth/cold"), 1, 0)
        return {"name": "tower-cold", "system": system}

    def classes(self, system):
        # tail kernels are the layers: any Z layer makes them infinite
        if any(g["free_rank"] for g in system["tail"]["layers"]):
            return {"Baire"}
        return {"Cantor", "NCrossCantor"}

    def check(self, key, result, outputs):
        ok = super().check(key, result, outputs)
        if ok and key.startswith("ml ") and result[0] == 0:
            # tower bonding maps drop a layer, so every image chain is constant
            return json.loads(result[1])["verdict"]["verdict"] is True
        return ok


class SplitLab(Workload):
    """One operation per coset topology of every abelian group of order <= 16."""

    name = "split-lab"

    def prepare(self, workdir):
        inputs = generate.split_lab_inputs(SPLIT_MAX_ORDER)
        _write(os.path.join(workdir, "topologies.json"), json.dumps(inputs))
        self.expect = {}
        orders = {}
        ops = []
        for i, item in enumerate(inputs):
            chain, sub = item["torsion"], item["subgroup"]
            order = 1
            for d in chain:
                order *= d
            key = f"split #{i} {chain} |N|={len(sub)}"
            orders[key] = order
            # cl{0} of a coset topology is N; a section picks one of |N| points per coset
            self.expect[key] = {
                "sections": len(sub) ** (order // len(sub)),
                "all_ok": True,
                "translated_basis_ok": True,
            }
            ops.append((key, lambda c=chain, s=sub: self.run_topology(c, s)))
        random.Random(f"{self.name}/{self.seed}").shuffle(ops)
        self.ops = ops
        self.warmup = [op for op in ops if orders[op[0]] <= 8]
        self.cold_argv = ["split-demo", "mixed"]

    @staticmethod
    def run_topology(chain, sub):
        fgab = sys.modules["prolim.fgab"]
        topgrp = sys.modules["prolim.topgrp"]
        group = fgab.FgAbGroup(0, chain)
        top = topgrp.FiniteTopAbGroup.from_subgroup(group, [tuple(e) for e in sub])
        zero_i = top.index[group.zero()]
        basis = [m for m in top.basis_masks() if m >> zero_i & 1]
        basis_ok = topgrp.translated_basis_check(top, basis)
        ctx = topgrp.SplittingContext(top)
        sections = 0
        all_ok = True
        for sec in ctx.sections():
            ok = topgrp.splitting_check(top, sec, ctx).ok
            all_ok = all_ok and ok
            sections += 1
        summary = {"sections": sections, "all_ok": all_ok, "translated_basis_ok": basis_ok}
        return 0, json.dumps(summary, sort_keys=True).encode()

    def check(self, key, result, outputs):
        rc, out = result
        return rc == 0 and json.loads(out) == self.expect[key]

    def cold_ok(self, out):
        return digest(out) == self.spec["cold_sha256"]

    def extra_failures(self):
        totals = {
            "topologies": len(self.expect),
            "sections": sum(e["sections"] for e in self.expect.values()),
        }
        if totals != self.spec["totals"]:
            return [f"split-lab totals {totals} differ from the recorded {self.spec['totals']}"]
        return []


WORKLOADS = {w.name: w for w in (FixturesCli, CycleRank, TowerDepth, SplitLab)}
