"""Golden digests of a small fixed-seed collect store and of eval reports.

C8 only checks that two runs of the same sources agree. These digests pin
the bytes across commits: a refactor of the simulator, the expert or the
harness that keeps them is behaviour-preserving; one that changes them must
say why and re-pin.
"""

import hashlib
from pathlib import Path

from test_cli import run_cli

STORE_DIGEST = "fc6b867642641a53d517c82a2020f221108439611b85a2bec2aa31c1394a425b"
REPORT_DIGESTS = {
    "oracle":
        "2f046371647fa64d0a9660d13cce286e6115bba1d893f075d4ab6baa7880e7f2",
    "random":
        "5ea35d1d2b3821b3ebe6bbe8902d9089014a4d86490969db20b1f3847ddd0e09",
    "knn":
        "58f26c08739802e7ac2ecc6141d57da52da2e9de0f86c615312e9ba05de799ce",
    "knn_k3":
        "4a0e9cc5aeb8dc189d12a8111f4b8161b1c36c192cb2f2dc809f5d7767b9aaff",
}


def tree_digest(root: Path) -> str:
    """SHA-256 over every file under ``root``: relative path, then its bytes' SHA-256."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def golden_digests(tmp: Path) -> tuple[str, dict[str, str]]:
    store = tmp / "store"
    for task, count, seed in (("go_avoid", "6", "5"), ("crawl", "3", "6")):
        assert run_cli("collect", "--out", str(store), "--task", task,
                       "--count", count, "--seed", seed)[0] == 0
    reports = {}
    for name, policy, k in (("oracle", "oracle", "5"), ("random", "random", "5"),
                            ("knn", f"knn:{store}", "5"), ("knn_k3", f"knn:{store}", "3")):
        out = tmp / f"eval-{name}"
        assert run_cli("eval", "--policy", policy, "--suite", "dev_small",
                       "--seed", "3", "--knn-k", k, "--out", str(out))[0] == 0
        reports[name] = hashlib.sha256((out / "report.csv").read_bytes()).hexdigest()
    return tree_digest(store), reports


def test_collect_store_and_eval_reports_match_golden_digests(tmp_path):
    store_digest, reports = golden_digests(tmp_path)
    assert store_digest == STORE_DIGEST
    assert reports == REPORT_DIGESTS
