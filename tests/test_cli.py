import dataclasses
import errno
import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import terms
from zerosum import catalog, cli, constructions, search
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


def test_cache_write_that_fails_keeps_the_old_entry(monkeypatch):
    assert main(["invariant", "C3^2", "eta"]) == 0
    [path] = cache_dir().glob("*.json")
    before = {p.name: p.read_bytes() for p in cache_dir().iterdir()}
    cert = Certificate.from_json(path.read_text())
    cert.nodes += 1  # another entry under the same key

    def fail_replace(src, dst):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(os, "replace", fail_replace)
    with pytest.raises(OSError):
        cli._cache_write(path.stem, cert)
    assert {p.name: p.read_bytes() for p in cache_dir().iterdir()} == before


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


def test_c0_refuses_a_t_outside_the_range(capsys):
    # D(C3^2) = 5 and eta(C3^2) = 7, so the range is [6, 6]
    for t in (3, 7):
        assert main(["c0", "C3^2", "--t", str(t)]) == 3
        assert capsys.readouterr().err == f"error: t={t} outside [D(G)+1, eta(G)-1] = [6, 6]\n"


def test_certify_replays_a_c0_certificate_without_an_invariant_search(tmp_path, capsys,
                                                                       monkeypatch):
    # the c0 verb takes D and eta of C4^2 from the catalog; the replay must too
    path = tmp_path / "c0.json"
    assert main(["c0", "C4^2", "--t", "8", "--json", str(path)]) == 0

    def no_search(*args):
        raise AssertionError("certify searched for an invariant")

    monkeypatch.setattr(search, "max_extremal_length", no_search)
    capsys.readouterr()
    assert main(["certify", str(path)]) == 0
    assert "replay: IDENTICAL" in capsys.readouterr().out


def test_c0_without_a_proof_of_D_exits_2(capsys):
    # the catalog has neither D nor eta of C3+C3+C6, and one node per
    # subtree does not prove D
    assert main(["c0", "3,3,6", "--budget-nodes", "1"]) == 2
    assert capsys.readouterr().out == "could not establish D(G) within budget\n"


def test_c0_all_json_round_trip(tmp_path, capsys):
    out_path = tmp_path / "all.json"
    assert main(["c0", "C2^3", "--json", str(out_path)]) == 0
    data = json.loads(out_path.read_text())
    assert data["members"] == [5, 6]
    for payload in data["certificates"].values():
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        cert = Certificate.from_json(text)
        assert cert.to_json() == text
        if cert.witness is not None:
            read_sequence(json.loads(text)["witness"])


def test_c0_all_json_on_an_empty_range_writes_the_payload(tmp_path, capsys):
    # D(C5) = eta(C5) = 5, so [D+1, eta-1] is empty
    out_path = tmp_path / "c5.json"
    assert main(["c0", "C5", "--json", str(out_path)]) == 0
    data = json.loads(out_path.read_text())
    assert data == {"format": "zerosum.c0/2", "tool_version": search.TOOL_VERSION, "group": "C5",
                    "range": [6, 4], "members": [], "certificates": {}}


def test_usage_errors():
    assert main(["c0"]) == 3
    assert main(["invariant", "C3^2", "bogus"]) == 3
    assert main(["invariant", "notagroup", "eta"]) == 3
    assert main(["check-property", "C3^2", "D0"]) == 3
    assert main(["enumerate", "C3^2", "--kind", "weird", "--len", "3"]) == 3


@pytest.mark.parametrize("length", ["0", "-3"])
def test_enumerate_refuses_a_length_below_one(length, capsys):
    assert main(["enumerate", "C3^2", "--kind", "short-free", "--len", length]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"enumeration length must be >= 1, got {length}" in err


@pytest.mark.parametrize("width", ["0", "-2"])
def test_width_below_one_is_refused(width, capsys):
    # --width 0 is not read as width 1: it fails like SearchConfig(parallel_width=0)
    assert main(["invariant", "C3^2", "eta", "--width", width]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "parallel_width must be >= 1" in err


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


# the params a construction needs beyond the defaults
_EXTRA_ARGS = {"span-merge": ["--axis", "3", "--m", "2"], "lift": ["--r", "4"]}
# cert_id of each construction's certificate, with only the args above
_CERT_IDS = {
    "span": "1d33c0eeebba5a18", "span-merge": "69c7c998e12278f6",
    "cap3": "2c805b29bbc9ae47", "cap4": "f42bef74c6df22e7", "cap4-trims": "8ce6ce72fee9c11a",
    "zero-block": "66463c2b0e64efe8", "slide": "c1b6989950fd02bb", "pivot": "fafebb8cd8c000a2",
    "braid": "6b46c09c7860e62b", "span-carve-block": "91fdc840057db958",
    "span-carve-axes": "7ec340231099c3be", "span-carve-axes-x": "5ab73aba92377b14",
    "span-carve-mixed": "ffb47c43fe124a6b", "lift": "174b32da6ddc6e2a",
}


@pytest.mark.parametrize("name", constructions.CONSTRUCTIONS)
def test_construct_verify_accepts_every_construction(name, capsys, tmp_path):
    path = tmp_path / "construct.json"
    argv = ["construct", name, "--verify", *_EXTRA_ARGS.get(name, []), "--json", str(path)]
    assert main(argv) == 0
    assert f"construct {name}: " in capsys.readouterr().out
    assert Certificate.from_json(path.read_text()).cert_id() == _CERT_IDS[name]
    # certify rebuilds the construction from the claim's name and params
    assert main(["certify", str(path)]) == 0
    assert "replay: IDENTICAL" in capsys.readouterr().out


def test_certify_replays_a_construction_certificate_under_its_own_config(tmp_path, capsys):
    # construct takes no search flags, but a certificate written with a
    # non-default config (as older versions could) still replays IDENTICAL
    path = tmp_path / "slide.json"
    assert main(["construct", "slide", "--verify", "--json", str(path)]) == 0
    data = json.loads(path.read_text())
    data["config"].update(node_budget=5, symmetry_level="none")
    path.write_text(json.dumps(data, sort_keys=True, indent=2) + "\n")
    capsys.readouterr()
    assert main(["certify", str(path)]) == 0
    assert "replay: IDENTICAL" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["construct", "span", "--width", "2"],
    ["construct", "span", "--budget-nodes", "5"],
    ["construct", "span", "--budget-secs", "1"],
    ["construct", "span", "--symmetry", "none"],
    ["construct", "span", "--no-cache"],
    ["enumerate", "C2^2", "--kind", "short-free", "--len", "2", "--json", "x.json"],
    ["enumerate", "C2^2", "--kind", "short-free", "--len", "2", "--no-cache"],
    ["repro", "thmA", "--json", "x.json"],
    ["c0", "C3^2", "--t", "6", "--no-cache"],
    ["check-property", "C3^2", "C", "--no-cache"],
    # a construction's param flag that it does not take
    ["construct", "cap3", "--verify", "--n", "7", "--r", "5"],
    ["construct", "span", "--verify", "--axis", "9", "--m", "2"],
], ids=lambda argv: f"{argv[0]}{[a for a in argv if a.startswith('--')][-1]}")
def test_a_flag_a_verb_would_ignore_is_a_usage_error(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 3
    assert "unrecognized arguments" in capsys.readouterr().err
    assert list(tmp_path.glob("*.json")) == []


@pytest.mark.parametrize("argv, err", [
    (["thmA", "--group", "C5^3"], "error: unrecognized arguments for thmA: --group\n"),
    (["thmB", "--group", "C3^3"], "error: unrecognized arguments for thmB: --group\n"),
    (["thm13", "--q", "3"], "zerosum: error: unrecognized arguments: --q 3\n"),
    (["propertyC", "--q", "3"], "zerosum: error: unrecognized arguments: --q 3\n"),
    (["lemma47", "--group", "C3^3"], "error: unrecognized arguments for lemma47: --group\n"),
    (["prop410", "--group", "C3^4"], "error: unrecognized arguments for prop410: --group\n"),
    # --q is gone: thm13 --group Cq^2 sweeps what thmB --q q did
    (["thmB", "--q", "0"], "zerosum: error: unrecognized arguments: --q 0\n"),
    (["thmB", "--q", "3"], "zerosum: error: unrecognized arguments: --q 3\n"),
], ids=["thmA", "thmB", "thm13", "propertyC", "lemma47", "prop410", "thmB--q0", "thmB--q3"])
def test_repro_refuses_a_flag_its_table_does_not_read(argv, err, capsys):
    assert main(["repro", *argv]) == 3
    assert capsys.readouterr().err.endswith(err)


@pytest.mark.parametrize("prop", ["C", "D"])
def test_check_property_c_and_d_refuse_c(prop, capsys):
    assert main(["check-property", "C3^2", prop, "--c", "5"]) == 3
    assert capsys.readouterr().err == f"check-property {prop} takes no --c\n"


def test_certify_rejects_a_construction_certificate_with_edited_members(tmp_path, capsys):
    path = tmp_path / "trims.json"
    assert main(["construct", "cap4-trims", "--verify", "--json", str(path)]) == 0
    data = json.loads(path.read_text())
    data["claim"]["members"] = 8
    path.write_text(json.dumps(data, sort_keys=True, indent=2) + "\n")
    capsys.readouterr()
    assert main(["certify", str(path)]) == 1
    assert "replay: MISMATCH" in capsys.readouterr().out


@pytest.mark.parametrize("argv, edit", [
    (["construct", "cap3", "--verify"], lambda claim: claim["params"].update(n=3)),
    (["construct", "slide", "--verify"], lambda claim: claim["params"].update(m=2)),
    (["invariant", "C3^2", "eta"], lambda claim: claim.pop("invariant")),
    (["check-property", "C3^2", "C"], lambda claim: claim.update(property="X", c=3)),
], ids=["cap3_with_n", "slide_with_m", "invariant_without_invariant", "unknown_property"])
def test_certify_rejects_a_hand_edited_claim(tmp_path, capsys, argv, edit):
    # a construction's params are exactly the ones it is built with, and a
    # claim field the replay reads must be there: error and exit 3, neither
    # IDENTICAL nor a traceback
    path = tmp_path / "claim.json"
    assert main([*argv, "--json", str(path)]) == 0
    data = json.loads(path.read_text())
    edit(data["claim"])
    path.write_text(json.dumps(data, sort_keys=True, indent=2) + "\n")
    capsys.readouterr()
    assert main(["certify", str(path)]) == 3
    assert "error:" in capsys.readouterr().err


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


def _as_v1(data) -> None:
    """Rewrite a certificate's payload in format 1, which also wrote the
    group in the claim, an invariant claim's "exact", the symmetry level in
    stats and config's record_witnesses."""
    data.update(format="zerosum.certificate/1")
    data["claim"]["group"] = data["group"]
    if data["claim"]["type"] == "invariant":
        data["claim"]["exact"] = data["status"] == "proved_exhaustive"
    data["stats"]["symmetry_level"] = data["config"]["symmetry_level"]
    data["config"]["record_witnesses"] = True


@pytest.mark.parametrize("edit", [
    _as_v1,
    lambda data: data.update(tool_version="9.9.9"),
    lambda data: data["config"].pop("symmetry_level"),
    lambda data: data["config"].update(symmetry_level="translations"),
    lambda data: data["config"].update(symmetry_level="coord_perms"),
    lambda data: data["config"].update(symmetry_level="scalar"),
], ids=["format", "tool_version", "missing_config_field", "unknown_symmetry_level",
        "unknown_symmetry_level_coord_perms", "unknown_symmetry_level_scalar"])
def test_certify_rejects_a_hand_edited_certificate(tmp_path, capsys, edit):
    # another format (format 1 included), an unknown version or symmetry
    # level, or a missing field, is an error (exit 3), not a certificate read
    # with defaults filled in
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
    # eta(C3^3) = 15, and the true value is 17; coord_perms and scalar are
    # no longer levels, as coord_perms+scalar covers both
    for level in ("translations", "coord_perms", "scalar"):
        assert main(["invariant", "C3^3", "eta", "--symmetry", level]) == 3
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
        claim={"type": "c0_membership", "t": 16, "member": False},
        status="refuted_with_witness", group_spec=group.spec(), witness=member,
        nodes=0, config=SearchConfig(),
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
        claim={"type": "property", "property": prop, "c": c, "holds": False},
        status="refuted_with_witness", group_spec=group.spec(),
        witness=Sequence.from_items(group, items),
        nodes=0, config=SearchConfig(),
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


def test_a_cached_certificate_nested_too_deeply_is_a_miss(tmp_path, capsys):
    # a claim nested 5,000 deep, past what json.loads decodes: a cache read
    # recomputes it, and certify reports it as an error
    assert main(["invariant", "C2^2", "D"]) == 0
    [path] = cache_dir().glob("*.json")
    good = path.read_text()
    data = json.loads(good)
    data["claim"] = "NEST"
    deep = json.dumps(data, sort_keys=True, indent=2).replace('"NEST"', "[" * 5000 + "]" * 5000)
    path.write_text(deep)
    capsys.readouterr()
    assert main(["invariant", "C2^2", "D"]) == 0
    assert "(cached)" not in capsys.readouterr().out
    assert path.read_text() == good
    (tmp_path / "deep.json").write_text(deep)
    assert main(["certify", str(tmp_path / "deep.json")]) == 3
    assert capsys.readouterr().err.startswith("error:")


def _edit_entry(path, edit) -> None:
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data, sort_keys=True, indent=2) + "\n")


def _cache_a_low_eta(spec: str) -> Path:
    """A cache entry, under a key no run uses, that claims eta(spec) proved one
    below its value, with a valid witness: an extremal one less a term."""
    _, cert = search.invariant_value(parse_group_spec(spec), "eta", SearchConfig())
    cert.claim.update(extremal_length=cert.claim["extremal_length"] - 1,
                      value=cert.claim["value"] - 1)
    cert.witness = Sequence.from_terms(cert.witness.group, terms(cert.witness)[1:])
    cache_dir().mkdir(parents=True, exist_ok=True)
    path = cache_dir() / "0123456789abcdef.json"
    path.write_text(cert.to_json())
    return path


@pytest.mark.parametrize("argv", [["facts"], ["invariant", "C6", "eta"]],
                         ids=["facts", "record-after-search"])
def test_a_contradicting_fact_on_file_is_a_usage_error(argv, capsys):
    # the catalog cites no eta of C6, so the cached eta(C6) = 5 is the only
    # premise: it contradicts the search's 6, and for facts, the entry that
    # search cached before
    if argv == ["facts"]:
        assert main(["invariant", "C6", "eta"]) == 0
    _cache_a_low_eta("C6")
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: fact") and "distinct invariant values" in err


def test_a_contradicting_fact_on_file_is_never_cached(capsys):
    # the fact is checked before the certificate is cached, so a second run
    # finds no cache entry to print as "(cached)" and fails the same way
    path = _cache_a_low_eta("C6")
    assert main(["invariant", "C6", "eta"]) == 3
    assert main(["invariant", "C6", "eta"]) == 3
    assert "(cached)" not in capsys.readouterr().out
    assert list(cache_dir().glob("*.json")) == [path]


def _bad_witness(path) -> None:
    # same length, but e1^3 is a short zero-sum
    bad = Sequence.from_items(parse_group_spec("C3^2"), [(1, 3), (3, 3)])
    _edit_entry(path, lambda data: data.update(witness=write_sequence(bad)))


@pytest.mark.parametrize("spoil", [
    _bad_witness,
    lambda path: path.unlink(),
    lambda path: _edit_entry(path, lambda data: data["claim"].update(value=[7])),
], ids=["bad-witness", "deleted", "value-not-an-int"])
def test_a_cache_entry_that_does_not_hold_gives_no_fact(spoil, capsys):
    assert main(["invariant", "C3^2", "eta"]) == 0
    [path] = cache_dir().glob("*.json")
    spoil(path)
    capsys.readouterr()
    assert main(["facts", "--provenance", "search"]) == 0
    assert capsys.readouterr().out == "0 fact(s); consistency: ok\n"


@pytest.mark.parametrize("field, value", [("group", 5), ("witness", 7)])
def test_certify_refuses_a_certificate_field_of_the_wrong_type(field, value, tmp_path, capsys):
    path = tmp_path / "eta.json"
    assert main(["invariant", "C3^2", "eta", "--json", str(path)]) == 0
    _edit_entry(path, lambda data: data.update({field: value}))
    capsys.readouterr()
    assert main(["certify", str(path)]) == 3
    assert capsys.readouterr().err.startswith("error: certificate group is not a str")


def test_a_cache_entry_whose_witness_is_not_a_str_is_a_miss(capsys):
    # facts skips the entry, and invariant recomputes it and overwrites it;
    # so too for an entry in format 1, which the same key names
    assert main(["invariant", "C3^2", "eta"]) == 0
    [path] = cache_dir().glob("*.json")
    good = path.read_text()
    assert json.loads(good)["format"] == "zerosum.certificate/2"
    for spoil in (lambda data: data.update(witness=7), _as_v1):
        _edit_entry(path, spoil)
        capsys.readouterr()
        assert main(["facts", "--provenance", "search"]) == 0
        assert capsys.readouterr().out == "0 fact(s); consistency: ok\n"
        assert main(["invariant", "C3^2", "eta"]) == 0
        assert "(cached)" not in capsys.readouterr().out
        assert path.read_text() == good


def test_a_json_certificate_in_the_cache_directory_is_no_entry(capsys):
    # an entry is named <16 hex digits>.json, as _cache_write names it
    cache_dir().mkdir(parents=True)
    path = cache_dir() / "eta.json"
    assert main(["invariant", "C3^2", "eta", "--no-cache", "--json", str(path)]) == 0
    capsys.readouterr()
    assert main(["facts", "--provenance", "search"]) == 0
    assert capsys.readouterr().out == "0 fact(s); consistency: ok\n"
    path.rename(cache_dir() / "0123456789abcdef.json")
    assert main(["facts", "--provenance", "search"]) == 0
    assert capsys.readouterr().out.endswith("\n1 fact(s); consistency: ok\n")


def test_a_write_against_a_cached_fact_leaves_the_cache_unchanged(capsys):
    # a budgeted search's lower bound eta(C6) >= 6 against the cached
    # eta(C6) = 5: exit 3, and no file in the cache directory changes
    assert main(["invariant", "C6", "D"]) == 0
    _cache_a_low_eta("C6")
    before = {p.name: p.read_bytes() for p in cache_dir().iterdir()}
    capsys.readouterr()
    assert main(["invariant", "C6", "eta", "--budget-nodes", "1"]) == 3
    assert "value below lower bound" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in cache_dir().iterdir()} == before


def test_a_write_waits_for_the_cache_lock_and_reads_what_was_cached_meanwhile():
    # while cache.lock is held, a run's write waits; an entry cached in the
    # meantime that contradicts its fact is read once the lock is free
    cache_dir().mkdir(parents=True)
    with open(cache_dir() / "cache.lock", "a") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        proc = subprocess.Popen([sys.executable, "-m", "zerosum.cli", "invariant", "C6", "eta"],
                                env=_src_env(), stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True)
        with pytest.raises(subprocess.TimeoutExpired):
            proc.wait(timeout=2)
        path = _cache_a_low_eta("C6")
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 3 and "distinct invariant values" in err
    assert list(cache_dir().glob("*.json")) == [path]


def test_facts_group_prints_only_that_groups_facts(capsys):
    assert main(["invariant", "C3^2", "eta"]) == 0
    capsys.readouterr()
    assert main(["facts", "--group", "C5^2"]) == 0
    *lines, summary = capsys.readouterr().out.splitlines()
    assert summary == "7 fact(s); consistency: ok"
    assert {line.split()[1] for line in lines} == {"C5xC5"}
    # inference still reads the whole store: rules add one fact about C5^2
    assert main(["facts", "--group", "C5^2", "--infer"]) == 0
    assert capsys.readouterr().out.endswith("\n8 fact(s); consistency: ok\n")
    assert main(["facts", "--group", "C3^2", "--provenance", "search"]) == 0
    [line, summary] = capsys.readouterr().out.splitlines()
    assert line.split()[1:3] == ["C3xC3", "invariant_value"] and summary.startswith("1 fact(s)")


def test_two_invariant_runs_at_once_both_keep_their_facts(capsys):
    # two processes on different groups, started together, each cache their
    # certificate, and facts lists the search facts of both
    procs = [subprocess.Popen([sys.executable, "-m", "zerosum.cli", "invariant", spec, "D"],
                              env=_src_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
             for spec in ("C3^2", "C2^4")]
    assert [proc.wait(timeout=120) for proc in procs] == [0, 0]
    assert main(["facts", "--provenance", "search"]) == 0
    *lines, summary = capsys.readouterr().out.splitlines()
    assert sorted(line.split()[1] for line in lines) == ["C2xC2xC2xC2", "C3xC3"]
    assert summary == "2 fact(s); consistency: ok"


def test_repro_fast_tables(capsys):
    assert main(["repro", "thmB"]) == 0
    assert main(["repro", "thm13", "--group", "C2^3"]) == 0
    # no c0_equals fact for C3^3: the sweep only has to agree with the
    # catalog's other facts (R3's window, R4's members)
    assert main(["repro", "thm13", "--group", "C3^3"]) == 0
    assert main(["repro", "prop410"]) == 0
    out = capsys.readouterr().out
    assert out.count("pass") == 4
    assert "search [13, 14, 15], catalog no determination" in out
    assert "search [], catalog [37, 38]; t in [30, 36]" in out


def _flip_sweep(monkeypatch, flip: int) -> None:
    """Make search.compute_c0_at answer the opposite at t = flip: a refuted
    length becomes a proved member, a member a refuted length."""
    real = search.compute_c0_at

    def sweep(group, targets, cfg):
        members, certs = real(group, targets, cfg)
        member = certs[flip].status != search.STATUS_PROVED
        status = search.STATUS_PROVED if member else search.STATUS_REFUTED
        certs[flip] = dataclasses.replace(
            certs[flip], status=status, claim={**certs[flip].claim, "member": member}
        )
        return sorted(set(members) ^ {flip}), certs

    monkeypatch.setattr(search, "compute_c0_at", sweep)


def test_repro_thm13_fails_a_sweep_that_refutes_a_determined_member(capsys, monkeypatch):
    # C0(C2^3) = {5, 6} is cataloged; 6, unlike 5, is no R4 member, so only
    # the determination contradicts a sweep that refutes it
    _flip_sweep(monkeypatch, 6)
    assert main(["repro", "thm13", "--group", "C2^3"]) == 1
    assert "non-member in determined C0" in capsys.readouterr().out


@pytest.mark.parametrize("table, flip, why", [
    ("thmA", 14, "t both in and out of C0"),
    ("thmB", 6, "t both in and out of C0"),
    ("prop410", 30, "member not in determined C0"),
], ids=["thmA", "thmB", "prop410"])
def test_repro_fails_a_sweep_that_contradicts_its_catalog_row(table, flip, why, capsys,
                                                             monkeypatch):
    # thmA's length-14 theorem and thmB's square theorem make 14 and 6
    # members; prop410's determination C0(C3^4) = {37, 38} excludes 30
    _flip_sweep(monkeypatch, flip)
    assert main(["repro", table]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and why in out


def test_repro_fails_when_its_catalog_row_gives_no_fact(capsys, monkeypatch):
    # a row that no longer fires would leave the sweep unchecked
    real = catalog.instantiate_for
    monkeypatch.setattr(catalog, "instantiate_for", lambda subject: [
        fact for fact in real(subject)
        if fact.provenance.reference != "length-14 zero-sum theorem"
    ])
    assert main(["repro", "thmA"]) == 1
    assert "no catalog fact from ['length-14 zero-sum theorem']" in capsys.readouterr().out


def test_repro_search_tables(capsys):
    assert main(["repro", "thmA"]) == 0
    assert main(["repro", "lemma47"]) == 0
    assert main(["repro", "propertyC"]) == 0
    out = capsys.readouterr().out
    assert out.count("pass") == 3


# Each verifier gets a wrong input and must still raise under python -O,
# which strips assert statements.
_OPTIMIZED_CHECKS = r"""
import functools
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
# the span over C3^3 with e1, e2 replaced by 0, e1 + e2: the same length and
# sum, but 0 is a short zero-sum
e1, e2 = group.basis(0), group.basis(1)
span = constructions.build_span_sequence(3, 3)
bad_span = span.remove(Sequence.from_terms(group, [e1, e2])).concat(
    Sequence.from_terms(group, [group.element([0, 0, 0]), e1 + e2]))
# the trims with the length-30 member replaced by the length-31 one less a
# term: still short free and of lengths 30..36, but not zero-sum
trims = {w.length: w for w in constructions.excluded_window_witnesses()}
first = trims[31].group.element_by_index(trims[31].items[0][0])
short = trims[31].remove(Sequence.from_terms(trims[31].group, [first]))
bad_trims = [short] + [w for t, w in trims.items() if t != 30]
# the slide family over C3^3 without its length-7 member: its lengths no
# longer fill the claimed window [6, 7]
bad_slide = list(constructions.build_family("slide", 3, 3).members())[:1]
failures = []
if not rejects(constructions.verify_construction, "cap3", [bad_cap3], {}):
    failures.append("construct cap3 --verify")
if not rejects(constructions.verify_construction, "cap4", [bad_cap4], {}):
    failures.append("construct cap4 --verify")
if not rejects(constructions.verify_construction, "span", [bad_span], {"n": 3, "r": 3}):
    failures.append("construct span --verify")
if not rejects(constructions.verify_construction, "cap4-trims", bad_trims, {}):
    failures.append("construct cap4-trims --verify")
if not rejects(constructions.verify_construction, "slide", bad_slide, {"n": 3, "r": 3}):
    failures.append("construct slide --verify")
job = (
    group, "zero_sum_free", False, search.SearchConfig(), functools.partial(search._MaxGoal, 0),
    (0, 1),  # the root job: the zero element is forbidden in a zero-sum-free sequence
)
if not rejects(search._branch_worker, job):
    failures.append("_branch_worker root check")
print("accepted:", failures if failures else "none")
sys.exit(1 if failures else 0)
"""


def _src_env() -> dict:
    """The environment with this checkout's src/ first on PYTHONPATH."""
    src = Path(__file__).resolve().parents[1] / "src"
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    )}


def test_verifiers_reject_wrong_input_under_python_O():
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _OPTIMIZED_CHECKS],
        env=_src_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "accepted: none" in proc.stdout


def test_importing_the_package_loads_no_process_pool():
    # the pool (and multiprocessing with it) is imported only by a search at width > 1
    code = ("import sys, zerosum, zerosum.catalog, zerosum.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('concurrent.futures')))")
    proc = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "concurrent.futures.process" not in proc.stdout


@pytest.mark.parametrize("flags", [[], ["--no-cache"]], ids=["cached", "no-cache"])
def test_a_search_claim_against_a_cited_fact_is_never_recorded(monkeypatch, capsys, flags):
    # a search that "proves" eta(C3^3) = 15 against the cited 17: an error,
    # with or without the cache, before anything is cached or recorded, so
    # the real search still runs clean
    real = search.invariant_value

    def wrong(group, kind, cfg):
        _, cert = real(group, kind, cfg)
        cert.claim.update(extremal_length=14, value=15)
        return 15, cert

    monkeypatch.setattr(search, "invariant_value", wrong)
    assert main(["invariant", "C3^3", "eta", *flags]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: fact") and "distinct invariant values" in err
    assert list(cache_dir().glob("*")) == []
    monkeypatch.setattr(search, "invariant_value", real)
    assert main(["invariant", "C3^3", "eta"]) == 0
    assert "eta(C3^3) = 17 [proved_exhaustive]" in capsys.readouterr().out


def test_a_cached_claim_against_a_cited_fact_is_an_error(capsys):
    # a cache entry for eta(C3^3) = 15 whose 14-term witness is valid, as a
    # hand edit or an older version might leave it: read back, it is an error
    assert main(["invariant", "C3^3", "eta"]) == 0
    [path] = cache_dir().glob("*.json")
    cert = Certificate.from_json(path.read_text())
    cert.claim.update(extremal_length=14, value=15)
    cert.witness = Sequence.from_terms(cert.witness.group, terms(cert.witness)[:14])
    path.write_text(cert.to_json())
    capsys.readouterr()
    assert main(["invariant", "C3^3", "eta"]) == 3
    assert "distinct invariant values" in capsys.readouterr().err


def test_facts_infer_reports_rounds_fixpoint_and_rule_yields(capsys):
    assert main(["facts", "--infer"]) == 0
    out = capsys.readouterr().out
    # the 17 builtin subjects, then the 10 the first round touched
    assert "derived 12 new fact(s) in 2 round(s), to a fixpoint\n  subjects read per round: 17, 10\n" in out
    assert "per rule: R1 1, R2 0, R3 6, R4 2," in out and "range-close 3" in out
    assert main(["facts", "--infer", "--group", "C15^3"]) == 0
    out = capsys.readouterr().out
    assert "in 4 round(s), to a fixpoint\n  subjects read per round: 18, 11, 1, 1\n" in out


def test_pyproject_takes_its_version_from_tool_version():
    # one source for the installed metadata and the certificates' tool_version;
    # read as text, as tomllib is not in Python 3.10
    text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    project = text.split("\n[project]\n", 1)[1].split("\n[", 1)[0]
    assert not [line for line in project.splitlines() if line.split("=")[0].strip() == "version"]
    assert 'dynamic = ["version"]' in project.splitlines()
    assert '\n[tool.setuptools.dynamic]\nversion = {attr = "zerosum.search.TOOL_VERSION"}\n' in text
