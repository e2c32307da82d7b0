import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from zerosum import catalog
from zerosum.cli import cache_dir, main
from zerosum.constructions import build_family
from zerosum.group import parse_group_spec
from zerosum.search import Certificate, SearchConfig
from zerosum.sequence import Sequence, read_sequence, write_sequence


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("ZEROSUM_CACHE_DIR", str(tmp_path / "cache"))


def test_invariant_verb(capsys):
    assert main(["invariant", "C3^2", "eta"]) == 0
    out = capsys.readouterr().out
    assert "eta(C3^2) = 7" in out


def test_invariant_uses_cache(capsys, tmp_path):
    assert main(["invariant", "C3^2", "D"]) == 0
    assert main(["invariant", "C3^2", "D"]) == 0
    out = capsys.readouterr().out
    assert "(cached)" in out
    assert main(["invariant", "C3^2", "D", "--no-cache"]) == 0


def test_cache_entry_with_a_bad_witness_is_recomputed(capsys):
    assert main(["invariant", "C3^2", "eta"]) == 0
    [path] = cache_dir().glob("*.json")
    good = path.read_text()
    data = json.loads(good)
    # same length, but e1^3 is a short zero-sum
    bad = Sequence.from_items(parse_group_spec("C3^2"), [(1, 3), (3, 3)])
    data["witness"] = write_sequence(bad)
    path.write_text(json.dumps(data, sort_keys=True, indent=2) + "\n")
    capsys.readouterr()
    assert main(["invariant", "C3^2", "eta"]) == 0
    out = capsys.readouterr().out
    assert "eta(C3^2) = 7" in out and "(cached)" not in out
    assert path.read_text() == good


def test_c0_single_t_exit_codes(capsys, tmp_path):
    # 6 is in C0(C3^2): proved, exit 0
    assert main(["c0", "C3^2", "--t", "6"]) == 0
    # 8 is not in C0(C3^3): refuted with a construction witness, exit 1
    cert_path = tmp_path / "c0.json"
    assert main(["c0", "C3^3", "--t", "8", "--json", str(cert_path)]) == 1
    out = capsys.readouterr().out
    assert "witness" in out
    cert = Certificate.from_json(cert_path.read_text())
    assert cert.claim["t"] == 8 and cert.status == "refuted_with_witness"
    assert cert.witness.length == 8


def test_c0_all_json_round_trip(tmp_path, capsys):
    out_path = tmp_path / "all.json"
    assert main(["c0", "C2^3", "--all", "--json", str(out_path)]) == 0
    data = json.loads(out_path.read_text())
    assert data["members"] == [5, 6]
    for payload in data["certificates"].values():
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        cert = Certificate.from_json(text)
        assert cert.to_json() == text
        if cert.witness is not None:
            read_sequence(json.loads(text)["witness"])


def test_usage_errors():
    assert main(["c0"]) == 3
    assert main(["invariant", "C3^2", "bogus"]) == 3
    assert main(["invariant", "notagroup", "eta"]) == 3
    assert main(["check-property", "C3^2", "D0"]) == 3
    assert main(["enumerate", "C3^2", "--kind", "weird", "--len", "3"]) == 3


def test_enumerate_verb(capsys, tmp_path):
    dump = tmp_path / "reps.txt"
    code = main([
        "enumerate", "C2^2", "--kind", "short-free", "--len", "2",
        "--symmetry", "full_small", "--dump", str(dump),
    ])
    assert code == 0
    assert "1 representative(s)" in capsys.readouterr().out
    assert read_sequence(dump.read_text()).length == 2


def test_check_property_verb(capsys):
    assert main(["check-property", "C3^2", "C"]) == 0
    assert main(["check-property", "C2^2", "D0", "--c", "1"]) == 1
    out = capsys.readouterr().out
    assert "fails" in out


def test_construct_verbs(tmp_path, capsys):
    out = tmp_path / "span.seq"
    assert main(["construct", "span", "--n", "3", "--r", "3", "--out", str(out)]) == 0
    seq = read_sequence(out.read_text())
    assert seq.length == 14
    assert main(["construct", "span-merge", "--n", "3", "--r", "3",
                 "--axis", "3", "--m", "2", "--verify"]) == 0
    assert main(["construct", "cap4-trims", "--verify"]) == 0
    text = capsys.readouterr().out
    assert "7 member(s)" in text
    assert main(["construct", "zero-block", "--n", "4", "--r", "3", "--verify"]) == 0


# every construct choice, with parameters it accepts
_CONSTRUCTIONS = {
    "span": [], "span-merge": ["--axis", "3", "--m", "2"], "cap3": [], "cap4": [],
    "cap4-trims": [], "zero-block": [], "slide": [], "pivot": [], "braid": [],
    "span-carve-block": [], "span-carve-axes": [], "span-carve-axes-x": [],
    "span-carve-mixed": [], "lift": ["--r", "4"],
}


@pytest.mark.parametrize("name", sorted(_CONSTRUCTIONS))
def test_construct_verify_accepts_every_construction(name, capsys):
    assert main(["construct", name, "--verify", *_CONSTRUCTIONS[name]]) == 0
    assert f"construct {name}: " in capsys.readouterr().out


def test_certify_round_trip(tmp_path, capsys):
    cert_path = tmp_path / "eta.json"
    assert main(["invariant", "C3^2", "eta", "--json", str(cert_path)]) == 0
    assert main(["certify", str(cert_path)]) == 0
    assert "IDENTICAL" in capsys.readouterr().out

    refuted = tmp_path / "c0.json"
    assert main(["c0", "C3^3", "--t", "8", "--json", str(refuted)]) == 1
    assert main(["certify", str(refuted)]) == 0

    # tamper with the witness: validation must fail
    data = json.loads(refuted.read_text())
    data["witness"] = data["witness"].replace(" x 2", " x 1", 1)
    tampered = tmp_path / "bad.json"
    tampered.write_text(json.dumps(data, sort_keys=True, indent=2) + "\n")
    assert main(["certify", str(tampered)]) == 1


@pytest.mark.parametrize("spec,prop", [("C3^2", "C"), ("C2^2", "C"), ("C3^2", "D")])
def test_certify_replays_a_property_certificate(tmp_path, capsys, spec, prop):
    # check-property takes eta (C) or s (D) from the catalog, so the replay
    # must as well, or it also counts the nodes of that invariant's search
    path = tmp_path / "prop.json"
    assert main(["check-property", spec, prop, "--json", str(path)]) == 0
    capsys.readouterr()
    assert main(["certify", str(path)]) == 0
    assert "replay: IDENTICAL" in capsys.readouterr().out


@pytest.mark.parametrize("edit", [
    lambda data: data.update(format="zerosum.certificate/0"),
    lambda data: data.update(tool_version="9.9.9"),
    lambda data: data["config"].pop("symmetry_level"),
    lambda data: data["config"].update(symmetry_level="translations"),
], ids=["format", "tool_version", "missing_config_field", "unknown_symmetry_level"])
def test_certify_rejects_a_hand_edited_certificate(tmp_path, capsys, edit):
    # an unknown format, version or symmetry level, or a missing field, is an
    # error (exit 3), not a certificate read with defaults filled in
    path = tmp_path / "eta.json"
    assert main(["invariant", "C3^2", "eta", "--json", str(path)]) == 0
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data, sort_keys=True, indent=2) + "\n")
    capsys.readouterr()
    assert main(["certify", str(path)]) == 3
    assert "error:" in capsys.readouterr().err


def test_certify_reports_an_unreadable_path(tmp_path, capsys):
    assert main(["certify", str(tmp_path / "missing.json")]) == 3
    assert "error: cannot read certificate" in capsys.readouterr().err


def test_translations_are_not_a_symmetry_level(capsys):
    # translations do not keep zero-sum freeness: pruning by them proves
    # eta(C3^3) = 15, and the true value is 17
    assert main(["invariant", "C3^3", "eta", "--symmetry", "translations"]) == 3
    assert "invalid choice" in capsys.readouterr().err
    assert not cache_dir().exists()


def _write_cert(path, cert):
    path.write_text(cert.to_json(), encoding="utf-8")
    return str(path)


def test_certify_rejects_witness_from_another_group(tmp_path, capsys):
    # a zero-sum short-free member of length 16 over C4^3, passed off as a
    # refutation of 16 in C0(C3^3)
    member = next(
        s for s in build_family("span-carve-block", 4, 3).members() if s.length == 16
    )
    group = parse_group_spec("C3^3")
    cert = Certificate(
        claim={"type": "c0_membership", "group": "C3^3", "t": 16, "member": False},
        status="refuted_with_witness", group_spec=group.spec(), witness=member,
        nodes=0, symmetry_level="none", config=SearchConfig(),
    )
    assert main(["certify", _write_cert(tmp_path / "c0.json", cert)]) == 1
    assert "INVALID" in capsys.readouterr().out


@pytest.mark.parametrize("spec, prop, c, items", [
    # property D on C3^3 refutes with c*(n-1) = 18 terms; a 2-term witness is
    # shorter than n and must not reach the exact-length DP
    ("C3^3", "D", 9, [(1, 1), (2, 1)]),
    # e1^2 e2^2 (e1+e2)^2 over C3^2 is short free but of the form property C
    # asserts, so it refutes nothing
    ("C3^2", "C", 3, [(1, 2), (3, 2), (4, 2)]),
])
def test_certify_rejects_property_witness_that_refutes_nothing(tmp_path, capsys, spec, prop, c, items):
    group = parse_group_spec(spec)
    cert = Certificate(
        claim={"type": "property", "property": prop, "group": spec, "c": c, "holds": False},
        status="refuted_with_witness", group_spec=group.spec(),
        witness=Sequence.from_items(group, items),
        nodes=0, symmetry_level="none", config=SearchConfig(),
    )
    assert main(["certify", _write_cert(tmp_path / "prop.json", cert)]) == 1
    assert "INVALID" in capsys.readouterr().out


def test_facts_verb(capsys):
    assert main(["facts", "--provenance", "cited"]) == 0
    out = capsys.readouterr().out
    assert "consistency: ok" in out
    assert "cited:" in out
    assert main(["facts", "--infer", "--group", "C15^3"]) == 0
    out = capsys.readouterr().out
    assert "derived" in out


def test_facts_pick_up_search_results(capsys):
    assert main(["invariant", "C3^2", "eta"]) == 0
    assert main(["facts", "--provenance", "search"]) == 0
    out = capsys.readouterr().out
    assert "search:" in out


def test_facts_report_an_edited_fact_store(capsys):
    # a rule-derived C0 determination edited to "cited": its stored id no
    # longer matches, so reading facts.jsonl fails instead of upgrading it
    store = catalog.FactStore()
    store.add_all(catalog.builtin_facts())
    catalog.infer(store)
    fact = next(f for f in store if f.kind == catalog.KIND_EQUALS)
    data = {"id": fact.fact_id, **fact.payload()}
    data["provenance"].update(source="cited", premises=[])
    cache_dir().mkdir(parents=True)
    (cache_dir() / "facts.jsonl").write_text(json.dumps(data, sort_keys=True) + "\n")
    assert main(["facts"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "line 1:" in err


def test_repro_fast_tables(capsys):
    assert main(["repro", "thmB", "--q", "3"]) == 0
    assert main(["repro", "thm13", "--group", "C2^3"]) == 0
    assert main(["repro", "prop410"]) == 0
    out = capsys.readouterr().out
    assert out.count("pass") == 3


def test_repro_search_tables(capsys):
    assert main(["repro", "thmA"]) == 0
    assert main(["repro", "lemma47"]) == 0
    assert main(["repro", "propertyC"]) == 0
    out = capsys.readouterr().out
    assert out.count("pass") == 3


# Each verifier gets a wrong input and must still raise under python -O,
# which strips assert statements.
_OPTIMIZED_CHECKS = r"""
import sys

from zerosum import constructions, search
from zerosum.group import make_group
from zerosum.sequence import Sequence

if not sys.flags.optimize:
    sys.exit("not running under python -O")


def rejects(fn, *args):
    try:
        fn(*args)
    except AssertionError:
        return True
    return False


group = make_group([3, 3, 3])
# squarefree sets that contain 0, (0,..,0,1) and (0,..,0,2): 0 is a short
# zero-sum, and the three of them are a zero-sum of length 3
bad_cap3 = Sequence.from_items(group, [(i, 1) for i in range(8)])
bad_cap4 = Sequence.from_items(make_group([3] * 4), [(i, 1) for i in range(20)])
failures = []
if not rejects(constructions.verify_construction, "cap3", [bad_cap3]):
    failures.append("construct cap3 --verify")
if not rejects(constructions.verify_construction, "cap4", [bad_cap4]):
    failures.append("construct cap4 --verify")
payload = {
    "moduli": group.moduli, "pred": "zero_sum_free", "squarefree": False,
    "level": "coord_perms+scalar", "node_budget": 0, "time_budget": 0.0,
    "goal": {"kind": "max", "lb": 0},
    "root": (0, 1),  # the zero element is forbidden in a zero-sum-free sequence
}
if not rejects(search._branch_worker, payload):
    failures.append("_branch_worker root check")
print("accepted:", failures if failures else "none")
sys.exit(1 if failures else 0)
"""


def test_verifiers_reject_wrong_input_under_python_O():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    )}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _OPTIMIZED_CHECKS],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "accepted: none" in proc.stdout
