"""The example scripts run end to end on the checkout's package."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


@pytest.mark.parametrize("extra,verdict", [((), "yes"), (("--corrupt", "1"), "no")])
def test_collapse_demo_agrees_with_the_oracle(extra, verdict):
    proc = _run_script("collapse_demo.py", *extra)
    assert proc.returncode == 0, proc.stderr
    assert f"verify_threshold: {verdict}\n" in proc.stdout
    oracle = re.search(
        r"^oracle: count (\d+) vs bound (\d+) -> (yes|no)$", proc.stdout, re.M
    )
    assert oracle is not None
    count, bound = int(oracle[1]), int(oracle[2])
    assert oracle[3] == verdict == ("yes" if count >= bound else "no")


def test_gadget_growth_prints_the_size_contracts():
    proc = _run_script("gadget_growth.py", "--max-n", "6")
    assert proc.returncode == 0, proc.stderr
    rows = [list(map(int, line.split())) for line in proc.stdout.splitlines()[1:]]
    assert [row[0] for row in rows] == list(range(1, 7))
    for n, f_size, mkless, psi, _ in rows:
        # comparator at c = 2**(n-1): 2n; psi with 2*delta < 2**n: 2|f| + 2n + 6
        assert mkless == 2 * n
        assert psi == 2 * f_size + 2 * n + 6


# both lines of scripts/search_digest.py at seeds 1-3: the search-and-memo
# digest (at table width 0) and the answers-only digest. A change that keeps
# every search step and every answer leaves them as they are
DIGESTS = {
    1: "f3ad7f7b68d2067521860ff96d24a6663796c74063b1047d7dd9b524c2a83b72 "
    "7dc815903b245535c2d55fa8c0dc6dca523bf681df447fd31146298a627a3ef0",
    2: "99434eb1fe23cdada6492aee43bf88cbf0359769b93af82aec8d2e2efcc1da37 "
    "19772efc95306469f06f1cfeee89b38a8d7f359b920ff0314ff0162d7d241c2f",
    3: "42bac37eb3212f9766afd96deef977ea8562b86553440bf5ff43714112b8b52c "
    "4f2052c6616b0958cd5de113903c8733f5a137884c52c59aadf31a698bc029a5",
}


@pytest.mark.parametrize("seed", DIGESTS)
def test_search_digests_are_pinned(seed):
    proc = _run_script("search_digest.py", "--seed", str(seed))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == DIGESTS[seed] + "\n"


def test_search_digest_does_not_depend_on_the_hash_seed(monkeypatch):
    outputs = set()
    for hash_seed in ("1", "2"):
        monkeypatch.setenv("PYTHONHASHSEED", hash_seed)
        proc = _run_script("search_digest.py", "--seed", "3", "--budget", "4")
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    (out,) = outputs
    assert re.fullmatch(r"[0-9a-f]{64} [0-9a-f]{64}\n", out)


def test_cli_startup_times_both_sides_and_checks_their_output():
    src = str(ROOT / "src")
    proc = _run_script(
        "cli_startup.py", "--parent", src, "--change", src, "--rounds", "1", "--importtime"
    )
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()
    commands = ["size", "count", "count --bound", "combine", "eq2geq", "maxcount", "dmax"]
    for command, row in zip(commands, rows[1:8]):
        assert re.fullmatch(
            re.escape(command) + r" +(\d+\.\d \[\d+\.\d, \d+\.\d\] +){2}[01]/1", row
        ), row
    assert "parent: slowest imports of one count run (self time)" in rows
    assert "change: slowest imports of one count run (self time)" in rows
    assert any(row.endswith("  dmaxsat.counting") for row in rows)


def test_cli_startup_refuses_sides_that_answer_differently(tmp_path):
    package = tmp_path / "dmaxsat"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "__main__.py").write_text("print('0')\n")
    proc = _run_script(
        "cli_startup.py", "--parent", str(ROOT / "src"), "--change", str(tmp_path),
        "--rounds", "1",
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: size: parent gave (0, '")
