import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys

from conftest import REPO_ROOT

SCRIPT = os.path.join(REPO_ROOT, "scripts", "digest.py")
IMAGE_CHAIN_SHA256 = "a6c6281b915045be0dc25f516fd8b6589e18b56c3f615f0c1797b9d450d4df98"


def _load_digest():
    spec = importlib.util.spec_from_file_location("digest", SCRIPT)
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    return digest


def test_digest_prints_one_line_per_family():
    digest = _load_digest()
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


def test_image_chain_digest_is_pinned():
    # the (steps, index) of an image-chain walk do not depend on a basis,
    # so a walk change that moves any of them moves this hash
    h = hashlib.sha256()
    count = 0
    for _family, value in _load_digest().chain_outputs(1):
        h.update(json.dumps(value, sort_keys=True).encode() + b"\n")
        count += 1
    assert (count, h.hexdigest()) == (300, IMAGE_CHAIN_SHA256)
