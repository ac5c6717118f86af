import importlib.util
import os
import re
import subprocess
import sys

from conftest import REPO_ROOT

SCRIPT = os.path.join(REPO_ROOT, "scripts", "digest.py")
PINNED_LINES = (
    "ml 200 e332a4a85eeff0c5b4b693a12e1a9a9d09daa03784cc00813730a36e4e041c2b",
    "surjectivize 200 0686f397972c3cb9a8879cb51f0113ff40bb65de036429c90ab666e0ec6d7296",
    "stable_images.generators 200 2d5c8db9cc9340f109068bf8517315b9fe0b9246625bd7eec43010673e1aa777",
    "stable_images.basis 200 ba006b6a00a75e217f63e2b8ae1f1535b9ba0dcea3f09adbb14e2aacd6e0f9a7",
    "stable_images.normal_form 200 815dd449203da0a3f225d89bc33faaebe971ad476115b7d5cad6b9b06264d267",
    "stable_images.inclusion 200 b14c7a2b190867e6f65be671df6f616e693bb205735f6cca1f26c813e7ab50fc",
    "eventual_image.generators 301 f200f2778ccd3b936015618ee55972c4239ae4ccfbc34e930e2791fef7fde17f",
    "eventual_image.basis 301 87ae1ad91181af762da3e70cd437804ccaff17c08f51e17beec9b6445472084c",
    "eventual_image.normal_form 301 6aad31fc61b147b14fedd19f6b638e1cc5e65177315e6c75f6cbd72f0479488d",
    "eventual_image.inclusion 301 48dc3abda7de9e2a6c13387b70e5790f9c2f5b4709ac4cea94c9f6f8b01ae50b",
    "kernel.generators 594 89811f15e88c7ab0e1e6e61803a96cb44a74a3b046507318709e71daae820e48",
    "kernel.basis 594 bf983e57e8d855ce61d01d70ab30649f0cc6fea45440cb48cfe43ebb9014f375",
    "kernel.normal_form 594 684017e386674c55c2f95e9679e4e30577f21942a1110aff82c84abed67d99e4",
    "kernel.inclusion 594 a1e988f723d69ef97b52152888f7bbef762507cc0115291094ca7898396a957d",
    "image.generators 594 5eb7343f101b9d6a38fc287d00452d2546f8cf3fd31cfe5b2baed80bd2ecbae5",
    "image.basis 594 ffec0f487a7149463c6ee45a0f60ee7d6957a873ab1b25d5ad3dfb2a1f436fdd",
    "image.normal_form 594 3459449f1839c4c2c0f89153666c37c4666af5b82d608aa95418ccbaf8d4632d",
    "image.inclusion 594 9f248a81e4d1fc6d8e51b7c849bd822c2e132d74d7fc4cbb8f1351ccfbf9afb2",
    "quotient 594 f35e67c6c7cb2fe72c69a3797f7b32ef6dbc07e4c31f3ff0312e5a4c9d6f517c",
    "solve_hom_minimal 3564 b50f3761248e30573f31749e203860b197ce8143667b0031050d3849746f0388",
    "direct_sum.inclusions 200 530a3a53915a0542ec9b48d8532478fb9969a954baad13ffc3bafc6f932cd97f",
    "direct_sum.projections 200 2e9b7147c4aee116c62b5c0ac8d3d1210680aa504873699af99e158f10e0b3c5",
    "surjectivization_ses.sub 150 9d95a5304dff1e1b0c11d3b923496dc5c2f987b3124e005e28b2ed47d95d8523",
    "surjectivization_ses.quotient 150 74f7cd21d7bdf6b1fe18b4bb835a8d07cf591237a629dc6a1bcb7b260cd25c94",
    "surjectivization_ses.inclusions 150 a4064613dbb208c98de51f2c2c8cb4f4208411ae0927e8c34b678e135fe9e2f2",
    "surjectivization_ses.projections 150 56a1e390b1330672559d1fd78450875e572a6be6f8d9e71d3fae9392aab1d490",
    "lim_truncated.witness 200 c93d1b9c47bbc0912b804ffc15513d599989cbfbb064d87f9d14b645ad0f6da4",
    "tower.drops 50 8ebb1f848272276149a6edc156008e851c11e3b107b1175840f7da3728db5635",
    "restrict_system 800 bdad366c4d3037851362fe3f56f58fc617a5f81a27d29a86b3d22e2cdc603c22",
    "restrict_tuple 2400 78be982aa689bbb04d19e65769f22100b7a41cf2fdf666904bb7fd35791f1eda",
    "eventual_lattice 120 e74112a30f218702a6bc941127f1294032f82a58f945f22001ee154c0e49cd75",
    "factor_mod 120 b01f6f352ebb89b6a29d69c0fd9196fa167b96ec34b3990caee58ad786cb5fbe",
    "image_chain 300 a6c6281b915045be0dc25f516fd8b6589e18b56c3f615f0c1797b9d450d4df98",
)


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


def test_every_digest_line_is_pinned():
    # Every line at the default seed and count.  A change that moves a
    # basis, or that changes `cycle_system` or `tower_system` in
    # perfbench/generate.py (they build the corpus), moves some of them and
    # must re-pin them and say why.  The `image_chain` pairs do not depend
    # on a basis, so a walk change that moves any of them moves that line.
    res = subprocess.run(
        [sys.executable, SCRIPT], capture_output=True, cwd=REPO_ROOT, timeout=120
    )
    assert res.returncode == 0, res.stderr.decode()
    assert tuple(res.stdout.decode().splitlines()) == PINNED_LINES
