import importlib.util
import os
import re
import subprocess
import sys

from conftest import REPO_ROOT

SCRIPT = os.path.join(REPO_ROOT, "scripts", "digest.py")


def test_digest_prints_one_line_per_family():
    spec = importlib.util.spec_from_file_location("digest", SCRIPT)
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    res = subprocess.run(
        [sys.executable, SCRIPT, "--count", "8"],
        capture_output=True,
        cwd=REPO_ROOT,
        timeout=60,
    )
    assert res.returncode == 0, res.stderr.decode()
    lines = res.stdout.decode().splitlines()
    assert [line.split()[0] for line in lines] == list(digest.FAMILIES)
    assert "factor_mod" in digest.FAMILIES
    assert "eventual_lattice" in digest.FAMILIES
    assert digest.FAMILIES[-1] == "image_chain"
    for line in lines:
        assert re.fullmatch(r"\S+ [1-9][0-9]* [0-9a-f]{64}", line), line
