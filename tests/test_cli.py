import json

from dflag.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["schema"] == 1
    return doc


def test_mwz_type_a(capsys):
    doc = run_json(capsys, "mwz", "--family", "A", "--n", "4", "--triple", "3,1;1,1,1,1;1,1,1,1")
    assert doc["finite"] is True
    assert {"family": "S_{q,r}", "label": "S_{4,4}"} in doc["matched_rows"]


def test_mwz_type_c(capsys):
    doc = run_json(capsys, "mwz", "--family", "C", "--n", "2", "--triple", "2,2;2,2;1,1,1,1")
    assert doc["finite"] is True
    assert doc["matched_rows"][0]["family"] == "SpD_{r+2}"


def test_classify_infinite_with_open_pair_witness(capsys):
    doc = run_json(capsys, "classify", "--pair", "AIII:2,2", "--p", "1,1,1,1", "--q", "1,1;1,1")
    assert doc["status"] == "InfiniteProven"
    assert doc["witness"]["criterion"] == "intersection"
    assert doc["witness"]["product_open"] == "true"


def test_classify_finite_merges_summary(capsys):
    doc = run_json(capsys, "classify", "--pair", "CII:1,1", "--p", "2,2", "--q", "1,1;2")
    assert doc["status"] == "FiniteProven"
    assert any("CII" in r["citation"] for r in doc["summary_rows"])


def test_classify_infers_rank_for_bare_pair_kinds(capsys):
    doc = run_json(capsys, "classify", "--pair", "AII", "--p", "2,2", "--q", "1,2,1")
    assert doc["status"] == "FiniteProven"


def test_aiii_borel(capsys):
    doc = run_json(capsys, "aiii-borel", "--pair", "AIII:2,3", "--q", "2;2,1")
    assert doc["case"] == "iv"


def test_bruhat(capsys):
    doc = run_json(capsys, "bruhat", "--family", "A", "--n", "3", "--p", "2,1", "--q2", "1,2")
    assert doc["count"] == 2


def test_clans(capsys):
    doc = run_json(capsys, "clans", "--pair", "AIII:1,1")
    assert doc["count"] == 3
    assert doc["clans"] == ["(+,-)", "(-,+)", "(1,1)"]


def test_twisted_involutions(capsys):
    doc = run_json(capsys, "twisted-involutions", "--family", "A", "--n", "4")
    assert doc["count"] == 10


def test_probe_orbits_tsv(capsys):
    code, out, err = run(
        capsys, "probe-orbits", "--pair", "AIII:1,1", "--p", "1,1", "--q", "1;1",
        "--format", "tsv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "q\tpoints\torbits"
    assert lines[1] == "2\t3\t3"


def test_triple_orbits(capsys):
    doc = run_json(
        capsys, "triple-orbits", "--family", "A", "--n", "3", "--triple", "2,1;1,2",
        "--qlist", "2,3",
    )
    assert [e["orbits"] for e in doc["entries"]] == [2, 2]


def test_triple_orbits_of_the_whole_group_pair(capsys):
    # X_G x X_G is one point: the whole GL_3 acts through its roots
    doc = run_json(
        capsys, "triple-orbits", "--family", "A", "--n", "3", "--triple", "3;3", "--qlist", "2,3"
    )
    assert doc["entries"] == [{"orbits": 1, "q": 2}, {"orbits": 1, "q": 3}]


def test_branch_restrict(capsys):
    doc = run_json(capsys, "branch", "--mode", "restrict", "--weight", "2,1", "--pair", "AIII:2,2")
    assert doc["multiplicity_free"] is True
    assert len(doc["terms"]) == 6
    assert doc["dimension_audit"] == 20


def test_branch_tensor(capsys):
    doc = run_json(
        capsys, "branch", "--mode", "tensor", "--weight", "2,1", "--weight2", "2,1", "--n", "3"
    )
    assert doc["multiplicity_free"] is False
    assert {"target": "3,2,1", "multiplicity": 2} in doc["terms"]


def test_spherical_probe(capsys):
    doc = run_json(
        capsys, "spherical-probe", "--pair", "AIII:2,2", "--p", "2,2",
        "--kmax", "3", "--lmax", "3",
    )
    assert doc["tensor"]["multiplicity_free"] is True
    assert doc["restriction"]["multiplicity_free"] is True


def test_report_agreement(capsys):
    code, out, err = run(
        capsys, "report", "--pair", "AIII:1,2", "--p", "1,1,1", "--q", "1;1,1",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["agreement"] is True
    assert doc["oracle"]["hint"] == "Bounded"


def test_report_caveat_exits_3(capsys):
    # CI characteristic-2 splitting: finite verdict, growing counts at
    # q in {2, 3}; the report flags it loudly and exits 3
    code, out, err = run(
        capsys, "report", "--pair", "CI:2", "--p", "1,2,1", "--q", "2", "--qlist", "2,3"
    )
    assert code == 3
    assert "DISAGREEMENT" in out
    # at odd characteristics the caveat disappears
    code, out, err = run(
        capsys, "report", "--pair", "CI:2", "--p", "1,2,1", "--q", "2", "--qlist", "3,5"
    )
    assert code == 0


def test_parse_error_exit_1(capsys):
    code, _, err = run(capsys, "mwz", "--family", "A", "--n", "4", "--triple", "3,1;oops")
    assert code == 1
    assert "parse error" in err
    code, _, err = run(capsys, "clans", "--pair", "CI:2")
    assert code == 1


def test_tensor_bound_below_one_exits_1(capsys):
    for bound in ("0", "-1"):
        code, out, err = run(
            capsys, "spherical-probe", "--pair", "AI:3", "--p", "1,1,1",
            "--kmax", bound, "--lmax", bound,
        )
        assert (code, out) == (1, "")
        assert "k_max must be >= 1" in err
    code, _, err = run(
        capsys, "spherical-probe", "--pair", "AI:3", "--p", "1,1,1", "--kmax", "2", "--lmax", "0"
    )
    assert code == 1
    assert "l_max must be >= 1" in err


def test_budget_exceeded_exit_2(capsys):
    code, _, err = run(
        capsys, "probe-orbits", "--pair", "AIII:2,2", "--p", "1,1,1,1",
        "--q", "1,1;1,1", "--budget", "100",
    )
    assert code == 2
    assert "budget" in err.lower()


def test_product_refused_before_enumeration(capsys, monkeypatch):
    import dflag.orbits

    def fail(*args, **kwargs):
        raise AssertionError("enumerated a product over the budget")

    monkeypatch.setattr(dflag.orbits, "_walk_flags", fail)
    monkeypatch.setattr(dflag.orbits, "_line_perm", fail)
    code, _, err = run(
        capsys, "triple-orbits", "--family", "A", "--n", "4",
        "--triple", "1,1,1,1;1,1,1,1;1,1,1,1", "--qlist", "3", "--budget", "1000000",
    )
    assert code == 2
    assert "4326400" in err


def test_triple_budget_charges_the_factors_after_the_first(capsys, monkeypatch):
    # The Borel acts and would walk only Gr(2,4) x the full flags, 130 x 2080 =
    # 270,400 points over F_3, but the budget is charged with factors 2 and 3.
    import dflag.orbits

    def fail(*args, **kwargs):
        raise AssertionError("walked a triple over the budget")

    monkeypatch.setattr(dflag.orbits, "_walk_flags", fail)
    code, _, err = run(
        capsys, "triple-orbits", "--family", "A", "--n", "4",
        "--triple", "2,2;1,1,1,1;1,1,1,1", "--qlist", "3", "--budget", "1000000",
    )
    assert code == 2
    assert "product has 4326400 points, budget 1000000" in err


def test_every_field_refused_before_any_is_counted(capsys, monkeypatch):
    # q = 3 fits the budget and q = 5 does not: nothing may be counted
    import dflag.orbits

    def fail(*args, **kwargs):
        raise AssertionError("counted a field before refusing a later one")

    monkeypatch.setattr(dflag.orbits, "_walk_flags", fail)
    monkeypatch.setattr(dflag.orbits, "_line_perm", fail)
    code, _, err = run(
        capsys, "probe-orbits", "--pair", "AIII:2,2", "--p", "1,1,1,1",
        "--q", "1,1;1,1", "--qlist", "3,5", "--budget", "100000",
    )
    assert code == 2
    assert "1044576" in err
    code, _, err = run(
        capsys, "triple-orbits", "--family", "A", "--n", "4",
        "--triple", "1,1,1,1;1,1,1,1", "--qlist", "3,5", "--budget", "10000",
    )
    assert code == 2
    assert "29016" in err


def test_growth_hint_ignores_qlist_order(capsys):
    args = ("probe-orbits", "--pair", "AIII:2,2", "--p", "1,1,1,1", "--q", "1,1;1,1")
    ascending = run_json(capsys, *args, "--qlist", "2,3")
    descending = run_json(capsys, *args, "--qlist", "3,2")
    assert ascending["hint"] == descending["hint"] == "Growing"
    assert [e["q"] for e in descending["entries"]] == [3, 2]
    assert descending["entries"] == ascending["entries"][::-1]


def test_output_is_byte_stable(capsys):
    args = ("classify", "--pair", "AIII:2,1", "--p", "2,1", "--q", "1,1;1", "--format", "json")
    first = run(capsys, *args)
    second = run(capsys, *args)
    assert first == second


def test_env_budget(capsys, monkeypatch):
    monkeypatch.setenv("DFLAG_BUDGET", "100")
    code, _, err = run(
        capsys, "probe-orbits", "--pair", "AIII:2,2", "--p", "1,1,1,1", "--q", "1,1;1,1"
    )
    assert code == 2


def test_only_the_named_subcommand_is_built():
    import argparse

    from dflag.cli import _COMMANDS, _build_parser

    parser, rest = _build_parser(["report", "--pair", "CI:2"])
    assert rest == ["--pair", "CI:2"]
    assert parser.prog == "dflag report"
    assert parser.format_usage().startswith("usage: dflag report [-h] [--format {text,json,tsv}]")
    assert not any(isinstance(a, argparse._SubParsersAction) for a in parser._actions)
    everything = "{" + ",".join(_COMMANDS) + "}"
    assert len(_COMMANDS) == 11
    for argv in ([], ["--help"], ["nope"], ["-h", "report"]):
        parser, rest = _build_parser(argv)
        assert everything in parser.format_usage()
        assert rest == argv
