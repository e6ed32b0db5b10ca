"""Scenario runner and command line coverage."""

import hashlib
import json
import os
import random
import re
import tracemalloc

import pytest

import starchain
from starchain.cli import main
from starchain.scalars import _zeta_rows
from starchain.scenarios import (FIELD_RANGES, ConfigError, Report,
                                 ScenarioConfig, available_suites,
                                 emit_fixtures, emit_report, index_check,
                                 run_suite)
from starchain.torus import TorusElement


def test_every_export_resolves():
    assert len(starchain.__all__) == len(set(starchain.__all__))
    for name in starchain.__all__:
        assert hasattr(starchain, name), name


def small_config(**overrides):
    base = dict(h_trunc=3, u_trunc=2, weyl_order=4, idempotent="diagonal")
    base.update(overrides)
    return ScenarioConfig(**base)


def test_moyal_suite_passes():
    report = run_suite("moyal-associativity", small_config())
    assert len(report.checks) == 2
    assert report.all_passed()
    for c in report.checks:
        assert c.law == "star-product-associativity"
        assert c.expected == c.actual


def test_classical_window_degenerates_to_pointwise():
    # with the series window at zero the product has no correction terms,
    # so the suite adds a record comparing star against plain symbol product
    report = run_suite("moyal-associativity", small_config(h_trunc=0))
    names = [c.name for c in report.checks]
    assert "classical-limit-degeneration" in names
    assert report.all_passed()


def test_unknown_suite_lists_available():
    with pytest.raises(KeyError, match="moyal-associativity"):
        run_suite("nope", small_config())
    try:
        run_suite("nope", small_config())
    except KeyError as exc:
        msg = exc.args[0]
        for name in available_suites():
            assert name in msg


def test_config_field_diagnostics():
    with pytest.raises(ConfigError) as info:
        ScenarioConfig(h_trunc=-1, cochain="bogus", seed=-3)
    fields = {f for f, _ in info.value.problems}
    assert fields == {"h_trunc", "cochain", "seed"}

    with pytest.raises(ConfigError, match="denominator"):
        ScenarioConfig(level=4, shifts=["1/3", "0"])

    with pytest.raises(ConfigError, match="infinite"):
        ScenarioConfig(group_order=4, twist=[1, 0])

    with pytest.raises(ConfigError, match="cochain"):
        ScenarioConfig(group_order=4, cochain="linear",
                       shifts=["1/4", "1/2"], level=4)

    with pytest.raises(ConfigError, match="unknown field"):
        ScenarioConfig.from_dict({"dim": 1, "frobnicate": 2})

    with pytest.raises(ConfigError, match="suite"):
        ScenarioConfig(suites=["all", "made-up"])


def test_phase_level_bound_builds_no_table():
    before = _zeta_rows.cache_info().currsize
    # phase level 4 * 249989 = 999956 and 1204 exceed MAX_CYCLOTOMIC_LEVEL:
    # the config is rejected before any root-of-unity table is built
    with pytest.raises(ConfigError, match="phase level 999956"):
        ScenarioConfig.from_dict({"shifts": ["1/249989", "0"],
                                  "level": 249989})
    with pytest.raises(ConfigError, match="phase level 1204"):
        ScenarioConfig(shifts=["1/301", "0"], level=301)
    assert ScenarioConfig(shifts=["1/300", "0"], level=300).level == 300
    assert _zeta_rows.cache_info().currsize == before


def test_config_file_roundtrip(tmp_path):
    cfg = small_config(seed=99)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg.to_dict()), encoding="utf-8")
    back = ScenarioConfig.from_file(path)
    assert back.to_dict() == cfg.to_dict()
    assert back.digest() == cfg.digest()
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="JSON"):
        ScenarioConfig.from_file(bad)


def test_empty_report_serialization():
    assert Report([]).to_json() == '{"checks":[]}'


def test_report_schema_and_determinism(tmp_path):
    cfg = small_config()
    r1 = run_suite("normalization", cfg)
    r2 = run_suite("normalization", cfg)
    assert r1.to_json() == r2.to_json()
    body = json.loads(r1.to_json())
    assert body["suite"] == "normalization"
    assert body["seed"] == cfg.seed
    assert body["config_digest"] == cfg.digest()
    rec = body["checks"][0]
    assert set(rec) == {"actual", "expected", "inputs", "law", "name",
                        "passed"}
    assert "runtime" not in rec
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    emit_report(r1, p1)
    emit_report(r2, p2)
    assert p1.read_bytes() == p2.read_bytes()
    # key order inside the file is alphabetical
    text = p1.read_text(encoding="utf-8")
    assert text.index('"checks"') < text.index('"config_digest"') \
        < text.index('"seed"')


# The report bytes of every suite but index-identity on two small configs
# that neither configs/default.reports.sha256 nor the benchmark record
# covers: the classical window h_trunc 0, the only one that reaches
# classical-limit-degeneration, and a twisted quadratic-product config.
PINNED_CONFIGS = {
    "classical": dict(h_trunc=0, u_trunc=1, weyl_order=4,
                      idempotent="diagonal", seed=7),
    "twisted": dict(h_trunc=2, u_trunc=1, weyl_order=4, twist=[1, 0],
                    cochain="quadratic-product",
                    idempotent="crossed-conjugated", seed=11),
}
PINNED_REPORTS = {
    ("classical", "character-cycles"):
        "f0a2d4d162c5fc7b1ad7ef14ce5951f6a5439e1d459b5c119abc81c65142235b",
    ("classical", "complex-identities"):
        "685dc8defd9f581cfdb47cdc4d712e5f8822a5513803f29262c055a609ec3c73",
    ("classical", "forms-bridge"):
        "70ffae8b4ee38d66736cdedc92640e4fb13281a7dabc1b121b180721934b3251",
    ("classical", "lie-cochain-calculus"):
        "b025c607b12022def0c89b2d24a503f1c0db350d5e13edd3c0bd418f53c0060e",
    ("classical", "moyal-associativity"):
        "11d276f7c69b2cab9fda43e214010123075b44bd40454914f7cb730d502d5932",
    ("classical", "normalization"):
        "1258a8b6458ca474ab484dc34c5c862850e3322dbfcde0439dc6b8942c36900b",
    ("classical", "splitting-roundtrips"):
        "5c21eeb36c782a93d2906c54067d8226ad4fc3de560b0bc0311abdc8d4888850",
    ("classical", "trace-cocycles"):
        "ada788102a3cb8d66a07eab61a2bd9bcae1886e7d35b91842649452b09350c76",
    ("twisted", "character-cycles"):
        "20331859b527b87ebfea5d628ee4232f9240c81f271f1683d68c83613feb47bd",
    ("twisted", "complex-identities"):
        "de79b5c975d08dfbae935450b39acae695970603c781ed2f2054c42629fbbbff",
    ("twisted", "forms-bridge"):
        "b96241ad6d3b25f3b44429dd88ec3132856c810944d975f24cc6ba0e1b46c2ad",
    ("twisted", "lie-cochain-calculus"):
        "170add442ea8c78e47b21f7b07a1a50c3e4367c8fc34c3d7dc5a0c406a0a7965",
    ("twisted", "moyal-associativity"):
        "93b96ba0958820ca834eabdbebc86cbcc609e4c583bfbf22d624ec4cecd28671",
    ("twisted", "normalization"):
        "4bd0e7b4390b593745fdafed250afe44ab8069b0408f16ee5877f3253262c2df",
    ("twisted", "splitting-roundtrips"):
        "17a134ed5097a778d3350ad011862a2a033c32cfde743655705b0aa490037ab9",
    ("twisted", "trace-cocycles"):
        "f012f8b4133df8453064df30e40bbffd022665fa8485fb54ddd7cc57cb4900b9",
}


@pytest.mark.parametrize("label,suite", sorted(PINNED_REPORTS))
def test_pinned_report_bytes(label, suite):
    report = run_suite(suite, ScenarioConfig(**PINNED_CONFIGS[label]))
    digest = hashlib.sha256(report.to_json().encode()).hexdigest()
    assert digest == PINNED_REPORTS[(label, suite)]


def test_all_suites_pass_on_small_config():
    cfg = ScenarioConfig(h_trunc=2, u_trunc=1, weyl_order=4,
                         idempotent="diagonal")
    report = run_suite("all", cfg)
    bad = [c.name for c in report.checks if not c.passed]
    assert bad == []
    assert len(report.checks) >= 9


def test_index_check_unit_and_conjugated():
    for kind in ("unit", "diagonal", "conjugated"):
        cfg = small_config(h_trunc=4, idempotent=kind)
        report = index_check(cfg)
        assert report.all_passed(), kind
        names = [c.name for c in report.checks]
        assert "trace-side-equals-integral-side" in names
        assert "value-is-reciprocal-volume" in names


@pytest.mark.parametrize("overrides", [{}, {"dim": 2}, {"twist": [1, 0]}],
                         ids=["dim1", "dim2", "twisted"])
def test_index_check_at_classical_window(overrides):
    # h_trunc 0 is accepted by the validator, and both sides must still
    # read the reciprocal volume
    cfg = small_config(h_trunc=0, u_trunc=1, idempotent="conjugated",
                       **overrides)
    report = index_check(cfg)
    assert [c.name for c in report.checks] == [
        "trace-side-equals-integral-side", "value-is-reciprocal-volume"]
    assert report.all_passed()


def test_index_check_crossed_sides_agree():
    cfg = small_config(idempotent="crossed-conjugated", cochain="trivial")
    report = index_check(cfg)
    assert report.all_passed()
    [rec] = report.checks
    assert rec.law == "equivariant-index-pairing"
    # the trivial-cochain pairing reproduces the reciprocal volume
    assert "ħ^-1" in rec.actual
    lin = index_check(small_config(idempotent="crossed-conjugated",
                                   cochain="linear"))
    assert lin.all_passed()


def test_index_check_flags_non_idempotent():
    class Broken(ScenarioConfig):
        def idempotent_matrix(self):
            one = TorusElement.one(self.dim, self.h_trunc)
            return [[one, one], [one, one]]

    report = index_check(Broken(h_trunc=3, u_trunc=2))
    assert not report.all_passed()
    [rec] = report.checks
    assert rec.name == "idempotency"
    assert "entry" in rec.actual


def test_index_check_times_the_whole_pairing(monkeypatch):
    # the character is built inside the first check, so a slow build
    # shows in that check's runtime
    import time

    from starchain import scenarios
    build = scenarios.chern_character

    def slow(*args, **kwargs):
        time.sleep(0.2)
        return build(*args, **kwargs)

    monkeypatch.setattr(scenarios, "chern_character", slow)
    report = index_check(small_config(h_trunc=2, u_trunc=1,
                                      idempotent="conjugated"))
    assert report.all_passed()
    assert report.checks[0].name == "trace-side-equals-integral-side"
    assert report.checks[0].runtime >= 0.2


def test_fixture_tables(tmp_path):
    cfg = small_config()
    files = emit_fixtures(cfg, tmp_path / "gold")
    names = sorted(f.rsplit("/", 1)[1] for f in files)
    assert names == ["character_blocks.json", "genus_series.json",
                     "normalization_chain.json"]
    gold = {}
    for f in files:
        with open(f, encoding="utf-8") as fh:
            gold[f.rsplit("/", 1)[1]] = json.load(fh)
    assert gold["character_blocks.json"]["0"] == {"1": "1"}
    assert gold["character_blocks.json"]["1"]["111"] == "-2"
    assert gold["genus_series.json"]["1"] == "-1/24"
    assert gold["genus_series.json"]["1-1"] == "7/5760"
    assert gold["genus_series.json"]["2"] == "-1/1440"
    assert gold["normalization_chain.json"]["terms"] == {"1": "2", "2": "24"} \
        or gold["normalization_chain.json"]["terms"] == {"1": 2, "2": 24}
    files2 = emit_fixtures(cfg, tmp_path / "gold2")
    for a, b in zip(files, files2):
        assert open(a, "rb").read() == open(b, "rb").read()


def test_cli_list_and_verify(tmp_path, capsys):
    assert main(["list-suites"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == available_suites()

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(small_config().to_dict()),
                        encoding="utf-8")
    rep_path = tmp_path / "rep.json"
    code = main(["verify", "moyal-associativity", "--config", str(cfg_path),
                 "--report", str(rep_path)])
    assert code == 0
    shown = capsys.readouterr().out
    assert "[pass] torus-star-associativity" in shown
    body = json.loads(rep_path.read_text(encoding="utf-8"))
    assert body["suite"] == "moyal-associativity"
    assert all(rec["passed"] for rec in body["checks"])


def test_cli_shows_check_runtimes_but_reports_omit_them(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(small_config().to_dict()),
                        encoding="utf-8")
    rep_path = tmp_path / "rep.json"
    assert main(["verify", "normalization", "--config", str(cfg_path),
                 "--report", str(rep_path)]) == 0
    shown = capsys.readouterr().out.splitlines()
    checks = [line for line in shown if line.startswith("[")]
    assert checks
    for line in checks:
        assert re.fullmatch(r"\[pass\] \S+ \(.+\) \d+\.\d\ds", line), line
    plain = tmp_path / "plain.json"
    emit_report(run_suite("normalization", small_config()), plain)
    assert rep_path.read_bytes() == plain.read_bytes()


def test_cli_error_paths(tmp_path, capsys):
    assert main(["verify", "made-up-suite"]) == 2
    assert "available" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text('{"u_trunc": -2}', encoding="utf-8")
    assert main(["verify", "all", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "u_trunc" in err

    assert main(["verify", "all", "--config",
                 str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()

    assert main(["emit-fixtures"]) == 2
    assert "--report" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "moyal-associativity"],
    ["index-check"],
], ids=["verify", "index-check"])
def test_cli_unwritable_report_exits_2(tmp_path, capsys, argv):
    # the checks ran and printed, but the report has no directory to go to
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(small_config().to_dict()),
                        encoding="utf-8")
    target = tmp_path / "missing" / "rep.json"
    assert main(argv + ["--config", str(cfg_path),
                        "--report", str(target)]) == 2
    out, err = capsys.readouterr()
    assert "checks passed" in out
    assert err.startswith("report error: ")
    assert "Traceback" not in err
    assert not target.exists()


def test_cli_emit_fixtures_onto_a_file_exits_2(tmp_path, capsys):
    target = tmp_path / "taken"
    target.write_text("kept\n", encoding="utf-8")
    assert main(["emit-fixtures", "--report", str(target)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("report error: ")
    assert target.read_text(encoding="utf-8") == "kept\n"


@pytest.mark.parametrize("body, field", [
    ('{"dim": "2"}', "dim"),
    ('{"dim": 2.5}', "dim"),
    ('{"dim": true}', "dim"),
    ('{"twist": ["a", 1]}', "twist"),
    ('{"twist": "10"}', "twist"),
    ('{"suites": "all"}', "suites"),
    ('{"suites": [1]}', "suites"),
    ('{"h_trunc": true}', "h_trunc"),
    ('{"level": false}', "level"),
    ('{"seed": true}', "seed"),
    ('{"shifts": 5}', "shifts"),
])
def test_cli_malformed_config_exits_2(tmp_path, capsys, body, field):
    bad = tmp_path / "bad.json"
    bad.write_text(body, encoding="utf-8")
    assert main(["verify", "all", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert f"config error: {field}: " in err
    # a string is not read letter by letter
    assert "unknown suite" not in err


def test_valid_config_digests_unchanged():
    # the twist is stored as a list of ints however it is given
    assert ScenarioConfig(twist=(1, -1)).digest() == \
        ScenarioConfig.from_dict({"twist": [1, -1]}).digest() == "ea6194e38730"
    assert ScenarioConfig().digest() == "9056e1e5014c"


@pytest.mark.parametrize("name, digest", [("default", "9056e1e5014c"),
                                          ("twisted", "04ab26e337c9")])
def test_shipped_configs_validate_with_unchanged_digests(name, digest):
    path = os.path.join(os.path.dirname(__file__), "..", "configs",
                        f"{name}.json")
    assert ScenarioConfig.from_file(path).digest() == digest


@pytest.mark.parametrize("field", sorted(FIELD_RANGES))
def test_field_range_ends_accepted(field):
    low, top = FIELD_RANGES[field]
    for v in (low, top):
        assert getattr(ScenarioConfig.from_dict({field: v}), field) == v


@pytest.mark.parametrize("body, field", [
    ('{"h_trunc": 31}', "h_trunc"),
    ('{"h_trunc": 200}', "h_trunc"),
    ('{"u_trunc": 5}', "u_trunc"),
    ('{"weyl_order": 25}', "weyl_order"),
    ('{"dim": 5}', "dim"),
    ('{"dim": 1000000000}', "dim"),
])
def test_out_of_range_config_exits_2_and_builds_nothing(
        tmp_path, capsys, monkeypatch, body, field):
    def never(*args, **kwargs):
        raise AssertionError("a rejected configuration ran")
    monkeypatch.setattr("starchain.cli.run_suite", never)
    monkeypatch.setattr("starchain.cli.index_check", never)
    bad = tmp_path / "bad.json"
    bad.write_text(body, encoding="utf-8")
    tables = _zeta_rows.cache_info().currsize
    for command in (["verify", "all"], ["index-check"]):
        assert main(command + ["--config", str(bad)]) == 2
        assert f"config error: {field}: must be an integer from" in \
            capsys.readouterr().err
    assert _zeta_rows.cache_info().currsize == tables
    # nothing sized by the rejected value is allocated (a default shift
    # list for dim 10^9 would take gigabytes)
    tracemalloc.start()
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict(json.loads(body))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 1 << 20


def test_cli_seed_override_and_repeatability(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(small_config().to_dict()),
                        encoding="utf-8")
    outs = []
    for name in ("r1.json", "r2.json"):
        rep = tmp_path / name
        assert main(["verify", "complex-identities", "--config",
                     str(cfg_path), "--seed", "31415",
                     "--report", str(rep)]) == 0
        capsys.readouterr()
        outs.append(rep.read_bytes())
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["seed"] == 31415


def test_cli_emit_fixtures(tmp_path, capsys):
    target = tmp_path / "gold"
    code = main(["emit-fixtures", "--report", str(target)])
    assert code == 0
    printed = capsys.readouterr().out.strip().splitlines()
    assert len(printed) == 3
    for line in printed:
        assert line.startswith(str(target))


def test_trace_suite_rejects_nothing_randomly():
    # the cocycle suite draws fresh chains every run yet must stay green
    # for any seed, since exactness is structural rather than statistical
    for seed in (random.Random(5).randrange(10 ** 6) for _ in range(2)):
        cfg = small_config(h_trunc=2, u_trunc=1, seed=seed)
        assert run_suite("trace-cocycles", cfg).all_passed()
