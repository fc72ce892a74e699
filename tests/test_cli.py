import json
import os
import shutil
from pathlib import Path

import pytest

from weavesafe.cli import main
from weavesafe.store import Cluster


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def encoded(tmp_path):
    src = tmp_path / "input.bin"
    src.write_bytes(os.urandom(700))
    root = tmp_path / "cluster"
    assert run("encode", "-n", 5, "-k", 3, "-d", 4, "--seed", 1, src, root) == 0
    return src, root


def test_encode_reconstruct_roundtrip(encoded, tmp_path):
    src, root = encoded
    out = tmp_path / "out.bin"
    assert run("reconstruct", root, out) == 0
    assert out.read_bytes() == src.read_bytes()


def test_default_field_degree(encoded):
    _, root = encoded
    assert Cluster(root).manifest().params.m == 4  # 2^4 = 16 >= 5 + 2*4


def test_fail_repair_restores_share(encoded, capsys):
    _, root = encoded
    share = Cluster(root).share_path(2)
    original = share.read_bytes()
    assert run("fail", root, 2) == 0
    assert run("repair", root, 2) == 0
    assert share.read_bytes() == original
    assert "symbols per chunk" in capsys.readouterr().out


def test_repair_rejects_bad_node(encoded, capsys):
    _, root = encoded
    assert run("repair", root, 9) == 1
    assert "out of range" in capsys.readouterr().err


def test_reconstruct_with_too_few_nodes_exits_4(encoded, tmp_path):
    _, root = encoded
    for node in (1, 2, 5):
        assert run("fail", root, node) == 0
    assert run("reconstruct", root, tmp_path / "out.bin") == 4


@pytest.mark.parametrize(
    "key, value",
    [
        ("format_version", 2),
        ("original_length", "x"),
        ("shares", []),
        pytest.param("shares", {"1": "/etc/passwd"}, id="shares-planted-path"),
    ],
)
def test_reconstruct_refuses_a_bad_manifest(encoded, tmp_path, capsys, key, value):
    _, root = encoded
    path = Cluster(root).manifest_path
    doc = json.loads(path.read_text())
    doc[key] = value
    path.write_text(json.dumps(doc))
    out = tmp_path / "out.bin"
    assert run("reconstruct", root, out) == 1
    err = capsys.readouterr().err
    assert err.startswith("weavesafe: error:") and key in err
    assert not out.exists()


def test_encode_invalid_params_exits_3(tmp_path, capsys):
    src = tmp_path / "f"
    src.write_bytes(b"x")
    assert run("encode", "-n", 5, "-k", 1, "-d", 4, src, tmp_path / "c") == 3
    assert run("encode", "-n", 5, "-k", 3, "-d", 4, "-m", 3, src, tmp_path / "c") == 3
    capsys.readouterr()
    assert run("encode", "-n", 65530, "-k", 2, "-d", 4, src, tmp_path / "c") == 3
    assert "no supported field fits n + 2d = 65538" in capsys.readouterr().err


def test_encode_more_nodes_than_a_share_holds_exits_3(tmp_path, capsys):
    """n = 300 does not fit the share header's node byte: a parameter
    error before anything is written, not a traceback after encoding."""
    src = tmp_path / "f.txt"
    src.write_bytes(b"never stored" * 10)
    assert run("encode", "-n", 300, "-k", 3, "-d", 4, src, tmp_path / "c") == 3
    assert "weavesafe: parameter error: n=300 too large" in capsys.readouterr().err
    assert not (tmp_path / "c").exists()


def test_audit_passes_at_default_guesses(capsys):
    assert run("audit", "-n", 5, "-k", 3, "-d", 4) == 0
    out = capsys.readouterr().out
    assert "secure message symbols: 7" in out
    assert "weak secrecy at g=3: PASS" in out


def test_audit_beyond_guarantee_reports(capsys):
    code = run("audit", "-n", 5, "-k", 3, "-d", 4, "-g", 4)
    assert code in (0, 5)
    assert "weak secrecy at g=4" in capsys.readouterr().out


def test_audit_baseline_fails_with_counterexample(capsys):
    assert run("audit", "--baseline", "-n", 5, "-k", 3, "-d", 4, "-g", 2) == 5
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "counterexample" in out


def test_audit_baseline_passes_at_lower_guesses():
    assert run("audit", "--baseline", "-n", 5, "-k", 3, "-d", 4, "-g", 1) == 0


def test_audit_baseline_prints_the_report_probe_verdict(capsys):
    """--baseline at g = k-1 prints, as JSON and as text, exactly the
    verdict the full report gives for its failing baseline probe."""
    argv = ("audit", "-n", 5, "-k", 3, "-d", 4, "-g", 2)
    assert run(*argv, "--format", "json") == 0
    probe = json.loads(capsys.readouterr().out)["baseline_fail_probe"]
    assert run(*argv, "--baseline", "--format", "json") == 5
    assert json.loads(capsys.readouterr().out) == probe
    assert run(*argv) == 0
    report = capsys.readouterr().out.splitlines()
    assert run(*argv, "--baseline") == 5
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("baseline (no outer code) at g=2: FAIL (")
    assert lines[1].startswith("  counterexample: node ")
    assert report[report.index(lines[0]) + 1] == lines[1]


def test_audit_json_roundtrips(capsys):
    assert run("audit", "-n", 5, "-k", 3, "-d", 4, "--format", "json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["secure_symbols"] == 7
    assert doc["weak_secrecy"]["passed"] is True
    assert doc["improvement_over_baseline"] == 2


def test_audit_on_cluster_root(encoded, capsys):
    _, root = encoded
    assert run("audit", "--format", "json", root) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["params"] == {"n": 5, "k": 3, "d": 4, "m": 4}
    assert doc["cluster_demo"]["nodes_verified"] == 5


def test_audit_cap_exceeded_exits_6():
    assert run("audit", "-n", 5, "-k", 3, "-d", 4, "--cap", 10) == 6


@pytest.mark.parametrize("guesses", [-1, 999])
def test_audit_guesses_out_of_range_exits_3(capsys, guesses):
    assert run("audit", "-n", 5, "-k", 3, "-d", 4, "-g", guesses) == 3
    assert f"guesses {guesses} out of range" in capsys.readouterr().err


def test_audit_negative_cap_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        run("audit", "-n", 5, "-k", 3, "-d", 4, "--cap", -5)
    assert excinfo.value.code == 2
    assert "--cap: -5 is negative" in capsys.readouterr().err


def test_audit_requires_params_or_root():
    assert run("audit") == 3


@pytest.mark.parametrize(
    "flags, missing",
    [((), "-n/-k/-d"), (("-n", 5), "-k/-d"), (("-n", 5, "-d", 4, "-m", 8), "-k")],
)
def test_audit_without_a_root_names_the_missing_flags(capsys, flags, missing):
    """With no cluster root the refusal names the flags still needed and
    does not claim a root was given."""
    assert run("audit", *flags) == 3
    err = capsys.readouterr().err
    assert f"needs {missing}" in err and "not both" not in err


@pytest.mark.parametrize(
    "flags",
    [("-n", 7, "-k", 4, "-d", 6, "-m", 5), ("-n", 5), ("-k", 3), ("-d", 4), ("-m", 4)],
)
def test_audit_refuses_param_flags_with_a_root(encoded, capsys, flags):
    """A cluster fixes its own parameters: flags next to a root are refused
    rather than silently ignored."""
    _, root = encoded
    assert run("audit", *flags, root) == 3
    assert "not both" in capsys.readouterr().err


# The audit's stdout and exit code at fixed points, as text and JSON,
# committed under tests/golden/audit/<point>.{txt,json}; the cluster point
# audits a copy of the v1 corpus' (5,3,4,8) cluster.
GOLDEN_AUDIT = Path(__file__).resolve().parent / "golden" / "audit"
AUDIT_POINTS = {
    "5-3-4": (("-n", 5, "-k", 3, "-d", 4), 0),
    "6-3-5-4-g4": (("-n", 6, "-k", 3, "-d", 5, "-m", 4, "-g", 4), 0),
    "7-4-6-5-g3": (("-n", 7, "-k", 4, "-d", 6, "-m", 5, "-g", 3), 0),
    "baseline-5-3-4-g2": (("--baseline", "-n", 5, "-k", 3, "-d", 4, "-g", 2), 5),
    "cluster-5-3-4-8": (None, 0),
}


@pytest.mark.parametrize("fmt, ext", [("text", "txt"), ("json", "json")])
@pytest.mark.parametrize("point", sorted(AUDIT_POINTS))
def test_audit_output_matches_golden(tmp_path, capsys, point, fmt, ext):
    argv, code = AUDIT_POINTS[point]
    if argv is None:
        corpus = Path(__file__).resolve().parent / "corpus" / "v1" / "5-3-4-8"
        argv = (shutil.copytree(corpus, tmp_path / "5-3-4-8"),)
    assert run("audit", "--format", fmt, *argv) == code
    assert capsys.readouterr().out == (GOLDEN_AUDIT / f"{point}.{ext}").read_text()


def test_eavesdrop_json(encoded, tmp_path, capsys):
    _, root = encoded
    out = tmp_path / "eve.json"
    assert run("eavesdrop", root, 3, "-o", out) == 0
    doc = json.loads(out.read_text())
    assert doc["node"] == 3
    assert len(doc["observations"]) == doc["chunk_count"]
    assert all(len(v) == 4 for v in doc["observations"])
    # matches the share file exactly
    from weavesafe.store import cluster_eavesdrop

    assert doc["observations"] == cluster_eavesdrop(root, 3).tolist()
    assert doc["params"] == {"n": 5, "k": 3, "d": 4, "m": 4}
    capsys.readouterr()
    assert run("eavesdrop", root, 3) == 0  # without -o, the document goes to stdout
    assert json.loads(capsys.readouterr().out) == doc


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        run("no-such-command")
    assert excinfo.value.code == 2
