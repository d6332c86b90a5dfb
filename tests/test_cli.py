import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import calmlab
from calmlab import corpus
from calmlab.cli import main

GOLDENS = Path(__file__).parent / "goldens"


def corpus_file(name, filename) -> str:
    return str(corpus.config_path(name, filename))


def golden(name: str):
    return json.loads((GOLDENS / name).read_text())


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_deadlock_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "analyze", corpus_file("deadlock", "program.calm"))
    assert code == 0
    assert "monotone" in out


def test_analyze_gc_exit_one_and_reason(capsys):
    code, out, _ = run_cli(capsys, "analyze", corpus_file("gc", "program.calm"))
    assert code == 1
    assert "non-monotone{negation}" in out


def test_analyze_missing_file_exit_two(capsys):
    code, _, err = run_cli(capsys, "analyze", "missing.calm")
    assert code == 2
    assert "error" in err


def test_analyze_invalid_program_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.calm"
    bad.write_text("rel r(x)\nr(X) :- s(X).")
    code, _, err = run_cli(capsys, "analyze", str(bad))
    assert code == 2
    assert "bad.calm" in err


def test_analyze_non_utf8_program_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.calm"
    bad.write_bytes(b"rel r(x) [input]\n\xff\n")
    code, out, err = run_cli(capsys, "analyze", str(bad))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot read program {bad}: ") and len(err.splitlines()) == 1


def test_analyze_malformed_constant_exit_two_at_the_token(tmp_path, capsys):
    bad = tmp_path / "bad.calm"
    bad.write_text("rel r(x) [input]\nrel s(x) [output]\ns(X) :- r(X).\ns(99999999999999999999).\n")
    code, out, err = run_cli(capsys, "analyze", str(bad))
    assert code == 2 and out == ""
    assert err == f"error: {bad}:4:3: integer out of 64-bit range: 99999999999999999999\n"


def test_analyze_json_matches_golden(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", corpus_file("gc", "program.calm"), "--json"
    )
    assert code == 1
    got = json.loads(out)
    want = golden("analyze_gc.json")
    # the golden pins everything except the file path baked into rule text
    assert got == want


def test_run_deadlock_lists_both_cycles(capsys):
    code, out, _ = run_cli(capsys, "run", corpus_file("deadlock", "run.json"))
    assert code == 0
    assert "cycle(t1, t2)" in out and "cycle(t1, t3)" in out
    assert "cycle(t2, t1)" in out and "cycle(t3, t1)" in out


def test_run_same_seed_identical_json_bytes(capsys):
    argv = ("run", corpus_file("deadlock", "run.json"), "--seed", "7", "--json")
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2
    assert json.loads(out1) == golden("run_deadlock_seed7.json")


def test_run_budget_one_flags_and_exits_two(capsys):
    code, out, _ = run_cli(
        capsys, "run", corpus_file("deadlock", "run.json"), "--budget", "1"
    )
    assert code == 2
    assert "DID NOT QUIESCE" in out


def test_run_trace_out_writes_jsonl(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    code, _, _ = run_cli(
        capsys, "run", corpus_file("deadlock", "run.json"), "--trace-out", str(trace)
    )
    assert code == 0
    lines = [json.loads(l) for l in trace.read_text().splitlines()]
    assert len(lines) == 10
    assert {"from", "to", "fact", "step"} <= set(lines[0])


SELF_SEND = """\
rel in(k, x) [input]
rel acc(k, s: gset) [output]
chan c(@d, x)
rel out(x) [output]
acc(K, gset{X}) :- in(K, X).
c(M, K) :- id(M), in(K, _).
out(X) :- c(_, X).
"""


def test_one_machine_run_merges_lattice_facts_and_delivers_to_itself(tmp_path, capsys):
    # the two acc facts of one step merge into one, and the machine's
    # message to itself is delivered
    (tmp_path / "p.calm").write_text(SELF_SEND)
    (tmp_path / "in.facts").write_text("in(a, 1)\nin(a, 2)\n")
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"program": "p.calm", "fixture": "in.facts", "machines": 1}))
    code, out, _ = run_cli(capsys, "run", str(cfg), "--json")
    assert code == 0
    assert json.loads(out)["union_output"] == {"acc": [["a", "gset{1, 2}"]], "out": [["a"]]}


# snap copies acc's partial gset values into a scalar column, so which
# snapshots a run keeps would depend on how m2's deliveries are batched
LATTICE_PROBE = """rel seed(k, x) [input]
chan put(@dest, k, x)
rel acc(k, s: gset)
rel snap(k, s) [output]
put(@m2, K, X) :- seed(K, X).
acc(K, gset{X}) :- put(_, K, X).
snap(K, S) :- acc(K, S).
"""


def write_lattice_probe(tmp_path, program: str) -> tuple:
    """The probe's program and an exhaustive check config that seeds m1
    with three values for m2; returns (program path, config path)."""
    (tmp_path / "lat.calm").write_text(program)
    seeds = [f"seed(k, {i})" for i in (1, 2, 3)]
    (tmp_path / "seed.facts").write_text("\n".join(seeds) + "\n")
    cfg = tmp_path / "check.json"
    cfg.write_text(json.dumps({"program": "lat.calm", "fixture": "seed.facts", "machines": 2,
                               "partitioning": {"m1": seeds, "m2": []}, "mode": "exhaustive"}))
    return str(tmp_path / "lat.calm"), str(cfg)


def test_a_lattice_value_read_as_a_scalar_is_rejected_by_analyze_and_check(tmp_path, capsys):
    program, cfg = write_lattice_probe(tmp_path, LATTICE_PROBE)
    for argv in (("analyze", program), ("check", cfg)):
        assert_one_error_line(*run_cli(capsys, *argv),
                              f"{program}:7:9: variable S fills column s of snap, "
                              "but column s of acc holds gset values")


def test_the_lattice_probe_with_a_gset_snapshot_is_monotone_and_confluent(tmp_path, capsys):
    program, cfg = write_lattice_probe(
        tmp_path, LATTICE_PROBE.replace("snap(k, s)", "snap(k, s: gset)"))
    code, out, _ = run_cli(capsys, "analyze", program)
    assert code == 0 and out.startswith(f"{program}: monotone")
    code, out, _ = run_cli(capsys, "check", cfg)
    assert code == 0 and out.startswith("confluent-on-instance (exhaustive mode, 1 distinct")


ROLE_PROBE_DECLS = """rel e(x) [input]
rel peer(@p) [input]
rel nbr(@a, @b) [input]
rel acc(x, s: gset) [output]
rel out(x) [output]
rel away(@d) [output]
chan msg(@dest, x)
"""


# a symbol routed on as an address; an address in a scalar column, in a
# gset by constant and by variable, joined with a scalar, and negated at a
# scalar column: each of these ran to an answer, and the join and the
# negation could never match
@pytest.mark.parametrize("rule,expect", [
    ("msg(X, X) :- e(X).",
     "8:5: variable X fills address column dest of msg, but column x of e holds scalars"),
    ("out(B) :- nbr(_, B).",
     "8:5: variable B fills column x of out, but column b of nbr holds machine addresses"),
    ("acc(X, gset{@m1}) :- e(X).",
     "8:13: @m1 is a constructor part in gset column s of acc, but it is a machine address"),
    ("acc(X, gset{P}) :- e(X), peer(P).",
     "8:13: variable P is a constructor part in gset column s of acc, "
     "but column p of peer holds machine addresses"),
    ("out(X) :- peer(D), e(X), e(D).",
     "8:28: variable D is joined at column x of e, but column p of peer holds machine addresses"),
    ("away(D) :- peer(D), !e(D).",
     "8:24: variable D fills column x of e, but column p of peer holds machine addresses"),
])
def test_a_term_of_another_role_is_rejected_by_analyze_and_run(tmp_path, capsys, rule, expect):
    (tmp_path / "p.calm").write_text(ROLE_PROBE_DECLS + rule + "\n")
    (tmp_path / "e.facts").write_text("e(a)\npeer(@m2)\nnbr(@m1, @m2)\n")
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"program": "p.calm", "fixture": "e.facts", "machines": 2}))
    program = str(tmp_path / "p.calm")
    for argv in (("analyze", program), ("run", str(cfg))):
        assert_one_error_line(*run_cli(capsys, *argv), f"{program}:{expect}")


def test_a_program_address_outside_the_network_is_located_under_every_verb(tmp_path, capsys):
    (tmp_path / "b.calm").write_text("rel e(x) [input]\nchan msg(@dest, x)\nmsg(@m9, X) :- e(X).\n")
    (tmp_path / "e.facts").write_text("e(a)\n")
    cfg = tmp_path / "b.json"
    cfg.write_text(json.dumps({"program": "b.calm", "fixture": "e.facts", "machines": 2}))
    expect = f"error: {tmp_path / 'b.calm'}:3:5: address @m9 is not in the network"
    for verb in ("run", "check", "coordination"):
        assert_one_error_line(*run_cli(capsys, verb, str(cfg)), expect)
    code, _, err = run_cli(capsys, "coordination", "--machines", "9", str(cfg))
    assert code in (0, 1) and err == ""


def test_check_cart_manifest_confluent_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "check", corpus_file("cart_manifest", "check.json"))
    assert code == 0
    assert "confluent-on-instance" in out


def test_check_cart_naive_divergent_exit_one(capsys):
    code, out, _ = run_cli(
        capsys, "check", corpus_file("cart_naive", "check.json"), "--json"
    )
    assert code == 1
    obj = json.loads(out)
    assert obj["outcome"] == "divergent"
    assert len(obj["witnesses"]) == 2


def test_check_gc_json_matches_golden(capsys):
    code, out, _ = run_cli(capsys, "check", corpus_file("gc", "check.json"), "--json")
    assert code == 1
    assert json.loads(out) == golden("check_gc.json")


def test_coordination_deadlock_exit_zero(capsys):
    code, out, _ = run_cli(
        capsys, "coordination", corpus_file("deadlock", "coordination.json")
    )
    assert code == 0
    assert "coordination-free-on-instance" in out


def test_coordination_gc_coordinated_exit_one_and_golden(capsys):
    code, out, _ = run_cli(
        capsys,
        "coordination",
        corpus_file("gc_coordinated", "coordination.json"),
        "--json",
    )
    assert code == 1
    assert json.loads(out) == golden("coordination_gc_coordinated.json")


def test_coordination_where_no_run_quiesces_exits_two(tmp_path, capsys):
    (tmp_path / "p.calm").write_text("rel seen(x) [input]\nrel out(x) [output]\n")
    (tmp_path / "in.facts").write_text("seen(a)\nseen(b)\n")
    cfg = tmp_path / "coordination.json"
    cfg.write_text(json.dumps(
        {"program": "p.calm", "fixture": "in.facts", "machines": 2, "step_budget": 1}
    ))
    code, out, _ = run_cli(capsys, "coordination", str(cfg))
    assert code == 2
    lines = out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("inconclusive")


def test_corpus_list_names_all_entries(capsys):
    code, out, _ = run_cli(capsys, "corpus", "list")
    assert code == 0
    for e in corpus.ENTRIES:
        assert e.name in out


def test_corpus_list_json(capsys):
    code, out, _ = run_cli(capsys, "corpus", "list", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["schema_version"] == 1
    assert len(obj["entries"]) == 8
    assert all("path" in r for r in obj["entries"])


def test_env_seed_is_the_default(monkeypatch, tmp_path, capsys):
    # a config without a seed field picks up CALMLAB_SEED
    src = json.loads(Path(corpus_file("deadlock", "run.json")).read_text())
    del src["seed"]
    src["program"] = corpus_file("deadlock", "program.calm")
    src["fixture"] = corpus_file("deadlock", "fig1.facts")
    cfg = tmp_path / "noseed.json"
    cfg.write_text(json.dumps(src))

    monkeypatch.setenv("CALMLAB_SEED", "7")
    _, out_env, _ = run_cli(capsys, "run", str(cfg), "--json")
    monkeypatch.delenv("CALMLAB_SEED")
    _, out_seed7, _ = run_cli(capsys, "run", str(cfg), "--json", "--seed", "7")
    _, out_seed0, _ = run_cli(capsys, "run", str(cfg), "--json")
    assert out_env == out_seed7
    # --seed beats the env var
    monkeypatch.setenv("CALMLAB_SEED", "3")
    _, out_flag, _ = run_cli(capsys, "run", str(cfg), "--json", "--seed", "7")
    monkeypatch.delenv("CALMLAB_SEED")
    assert out_flag == out_seed7


def test_env_seed_is_not_read_when_the_config_sets_one(monkeypatch, capsys):
    monkeypatch.setenv("CALMLAB_SEED", "not-a-number")
    code, _, err = run_cli(capsys, "run", corpus_file("deadlock", "run.json"))
    assert code == 0 and err == ""


@pytest.mark.parametrize("budget", ["0", "-1"])
@pytest.mark.parametrize("verb", ["run", "check"])
def test_budget_below_one_is_rejected(capsys, verb, budget):
    code, out, err = run_cli(capsys, verb, "--budget", budget, corpus_file("deadlock", f"{verb}.json"))
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error:") and "--budget" in lines[0]


def test_budget_one_overrides_config(capsys):
    code, out, _ = run_cli(capsys, "run", "--budget", "1", corpus_file("deadlock", "run.json"))
    assert code == 2
    assert out.startswith("DID NOT QUIESCE") and "after 1 steps" in out
    code, out, _ = run_cli(capsys, "check", "--budget", "1", corpus_file("deadlock", "check.json"))
    assert code == 2
    assert out.startswith("inconclusive")


def test_budget_is_rejected_in_sampled_mode(tmp_path, capsys):
    # --budget bounds the exhaustive walk only, whichever way sampled mode is chosen
    flagged = ("--mode", "sampled", corpus_file("deadlock", "check.json"))
    configured = (write_config(tmp_path, "mode", "sampled"),)
    for argv in (flagged, configured):
        assert_one_error_line(*run_cli(capsys, "check", "--budget", "1", *argv), "--budget")
    code, out, _ = run_cli(capsys, "check", "--budget", "1", "--mode", "exhaustive", *configured)
    assert code == 2 and out.startswith("inconclusive")


MALFORMED_CONFIGS = [
    ("machines", "three"),
    ("machines", 2.5),
    ("machines", True),
    ("machines", 0),
    ("seed", "7"),
    ("step_budget", None),
    ("step_budget", 0),
    ("duplicate_every", -1),
    ("enum_bound", [10]),
    ("seeds", 0),
    ("schedules_per_partitioning", "8"),
    ("partition_cap", 0),
    ("mode", "bogus"),
]

UNSTRATIFIABLE = """
rel local_edge(src, dst) [input]
rel nbr(@owner, @peer) [input]
rel win(x) [output]
rel lose(x)
win(X) :- local_edge(X, _), !lose(X).
lose(X) :- local_edge(X, _), !win(X).
"""

FIG1 = corpus.read_text("deadlock", "fig1.facts")  # 13 lines


def local_edge_program(cols: str) -> str:
    """A program reading the fixture's relations, local_edge with ``cols``."""
    return (f"rel local_edge({cols}) [input]\nrel nbr(@owner, @peer) [input]\n"
            f"rel node(x) [output]\nnode(X) :- local_edge(X{', _' * cols.count(',')}).\n")


MAXINT_OF_SYMBOLS = local_edge_program("src, dst") + """
rel top(m: maxint) [output]
top(maxint(X)) :- local_edge(X, _).
"""

GSET_SEED = """
rel seed(s: gset) [input]
rel store(s: gset) [output]
store(S) :- seed(S).
"""

KEYED_GSET_SEED = """rel seed(x, s: gset) [input]
rel out(x, s: gset) [output]
out(X, S) :- seed(X, S).
"""

# b's maxint column is fed a's gset column and a maxint from its second rule
LATTICE_MIX = """rel seed(x) [input]
rel a(x, s: gset)
rel b(x, s: maxint) [output]
a(X, gset{X}) :- seed(X).
b(X, S) :- a(X, S).
b(X, maxint(1)) :- seed(X).
"""

GSET_COMPARE = """rel seed(x) [input]
rel a(x, s: gset)
rel c(x, s) [output]
a(X, gset{X}) :- seed(X).
c(X, S) :- a(X, S), S < X.
"""

# b's maxint column is fed seed's scalar column
SCALARS_IN_MAXINT = """rel seed(x) [input]
rel b(x, s: maxint) [output]
b(X, S) :- seed(X), seed(S).
"""

NOT_UTF8 = b"\xff\n"

# deadlock/check.json's partitioning map without local_edge(t1, t3)
MAP_WITHOUT_T1_T3 = {
    "m1": ["local_edge(t1, t2)", "local_edge(t2, t1)", "nbr(@m1, @m2)", "nbr(@m1, @m3)"],
    "m2": ["local_edge(t3, t1)", "nbr(@m2, @m1)", "nbr(@m2, @m3)"],
    "m3": ["local_edge(t3, t4)", "nbr(@m3, @m1)", "nbr(@m3, @m2)"],
}

# inputs that load_config used to accept, and that then ended in a
# traceback with exit 1, an answer with exit 0 or, for the misspelled key,
# were ignored: (key, value, what the error line must name, test id); a
# string program or fixture value is the file's text, a bytes value its raw
# contents, and under the key None the value is the whole config document
FAILING_RUNS = [
    ("machnes", 3, "'machnes'", "misspelled-key"),
    # the fixture names @m3 (@m4), which a 2-machine (3-machine) network
    # lacks, and every verb runs on that network: rejected in the fixture
    ("machines", 2, "fig1.facts: nbr(@m1, @m3): names @m3, which is not in the network",
     "fixture-names-m3"),
    ("fixture", FIG1 + "nbr(@m1, @m4)\n",
     "fixture: nbr(@m1, @m4): names @m4, which is not in the network", "fact-missing-from-the-map"),
    ("program", UNSTRATIFIABLE, "unstratifiable", "unstratifiable-program"),
    # values the lexer accepts and the value types reject, located
    ("fixture", FIG1 + "local_edge(t1, 99999999999999999999)\n",
     "fixture:14:16: integer out of 64-bit range", "integer-out-of-range"),
    ("fixture", FIG1 + "nbr(@M1, @m2)\n", "fixture:14:5: invalid machine address", "capital-address"),
    ("fixture", FIG1 + "local_edge(t1, t\u00f6)\n", "fixture:14:16: invalid symbol", "non-ascii-symbol"),
    # a backslash before a line break leaves the string unterminated (a
    # file's '\r' is read as a line break); U+2028 is a bad escape, shown
    # escaped so that the error stays one line
    ("fixture", FIG1 + 'local_edge("a\\\nb", t1)\n',
     "fixture:14:12: unterminated string", "backslash-before-a-newline"),
    ("fixture", FIG1 + 'local_edge("a\\\rb", t1)\n',
     "fixture:14:12: unterminated string", "backslash-before-a-carriage-return"),
    ("fixture", FIG1 + 'local_edge("a\\\u2028b", t1)\n',
     "fixture:14:12: bad escape '\\' before '\\u2028'", "backslash-before-a-line-separator"),
    # fixture facts against the program's schema, each named in the fixture
    ("program", local_edge_program("src"),
     "fig1.facts: local_edge(t1, t2): relation local_edge has arity 1", "fact-wider-than-declared"),
    ("program", local_edge_program("src, dst, label"),
     "fig1.facts: local_edge(t1, t2): relation local_edge has arity 3", "fact-narrower-than-declared"),
    ("fixture", FIG1 + "local_edge(t1, t2, zz)\n",
     "fixture: local_edge(t1, t2, zz): relation local_edge has arity 2", "relation-at-two-arities"),
    ("fixture", FIG1 + "mystery(a)\n",
     "fixture: mystery(a): relation mystery is not declared", "undeclared-relation"),
    ("fixture", FIG1 + "cycle(t1, t2)\n",
     "fixture: cycle(t1, t2): relation cycle is not marked input", "output-relation"),
    # config shapes and run-time typing
    ("program", 5, "'program'", "program-not-a-path"),
    (None, ["program", "fixture"], "JSON object", "config-not-an-object"),
    ("partitioning", {"m1": "local_edge(t1, t2)"}, "'partitioning'", "map-entry-not-a-list"),
    ("program", MAXINT_OF_SYMBOLS, "program:7:12: maxint() needs an integer", "maxint-of-a-symbol"),
    # fixture values against their columns; several keys at once take a
    # tuple of keys and a tuple of values
    (("program", "fixture", "partitioning"), (GSET_SEED, "seed(b)\n", "colocate"),
     "fixture: seed(b): column s of seed holds gset values", "scalar-in-a-lattice-column"),
    (("fixture", "machines", "partitioning"), (FIG1.replace("@", ""), 2, "colocate"),
     "fixture: nbr(m1, m2): column owner of nbr holds machine addresses", "symbol-in-an-address-column"),
    ("fixture", FIG1 + "local_edge(gset{a}, t2)\n",
     "fixture: local_edge(gset{a}, t2): column src of local_edge holds scalars, "
     "not gset values",
     "lattice-value-in-a-scalar-column"),
    # an address inside a lattice value, here one outside the network
    (("program", "fixture", "machines", "partitioning"),
     (KEYED_GSET_SEED, "seed(a, gset{@m9})\n", 2, "colocate"),
     "fixture: seed(a, gset{@m9}): column s of seed holds gset values of scalars, "
     "not of machine addresses", "address-in-a-lattice-value"),
    # lattice columns fed other values, and a comparison over a lattice value
    # at run time, located in the program file
    (("program", "fixture", "partitioning"), (LATTICE_MIX, "seed(k)\n", "colocate"),
     "program:5:6: variable S fills maxint column s of b, but column s of a holds gset values",
     "lattice-variants-mixed"),
    (("program", "fixture", "partitioning"), (GSET_COMPARE, "seed(k)\n", "colocate"),
     "program:5:21: variable S is compared with X, but column s of a holds gset values",
     "comparison-over-a-gset"),
    (("program", "fixture", "partitioning"), (SCALARS_IN_MAXINT, "seed(k)\nseed(j)\n", "colocate"),
     "program:3:6: variable S fills maxint column s of b, but column x of seed holds scalars",
     "scalars-merged-in-a-lattice-column"),
    (("program", "partitioning"), (UNSTRATIFIABLE, "colocate"),
     "program: program is unstratifiable", "unstratifiable-program-names-its-file"),
    ("program", local_edge_program("src, dst") + "node(X) :- local_edge(X, Y), X != _.\n",
     "program:5:35: wildcard not allowed in a comparison", "wildcard-in-a-comparison"),
    # files that are not UTF-8, and a config nested too deep for the JSON reader
    ("program", NOT_UTF8, "cannot read program", "program-not-utf8"),
    ("fixture", FIG1.encode() + NOT_UTF8, "cannot read fixture", "fixture-not-utf8"),
    (None, b'{"program": "program.calm"}' + NOT_UTF8, "cannot read config", "config-not-utf8"),
    (None, b"[" * 100_000 + b"]" * 100_000, "cannot read config", "config-nested-too-deep"),
]

# inputs that run and check reject, in the same shape as FAILING_RUNS, and
# that coordination runs: it deals the fixture itself, on at least 2 machines
DEALT_BY_THE_CONFIG = [
    # a partitioning map that does not deal the fixture, in the config
    ("fixture", FIG1 + "local_edge(t4, t5)\n",
     "bad.json: input fact local_edge(t4, t5) not assigned to any machine", "fact-outside-the-map"),
    ("partitioning", MAP_WITHOUT_T1_T3,
     "bad.json: input fact local_edge(t1, t3) not assigned to any machine", "map-leaves-a-fact-out"),
    ("partitioning", {**MAP_WITHOUT_T1_T3, "m9": ["local_edge(t1, t3)"]},
     "bad.json: unknown machine 'm9' in partitioning map", "map-names-an-unknown-machine"),
    # one '@' may prefix a machine name in a map key, and only one
    ("partitioning", {"@@m1": [*MAP_WITHOUT_T1_T3["m1"], "local_edge(t1, t3)"],
                      "m2": MAP_WITHOUT_T1_T3["m2"], "m3": MAP_WITHOUT_T1_T3["m3"]},
     "bad.json: unknown machine '@@m1' in partitioning map", "map-key-with-two-ats"),
    # a fixture naming @m2 in a 1-machine config, in the fixture
    (("fixture", "machines", "partitioning"),
     ("local_edge(t1, t2)\nlocal_edge(t2, t1)\nnbr(@m1, @m2)\nnbr(@m2, @m1)\n", 1, "colocate"),
     "fixture: nbr(@m1, @m2): names @m2, which is not in the network",
     "fixture-names-m2-on-one-machine"),
]


def write_config(tmp_path, key, value) -> str:
    """deadlock/check.json with ``value`` under ``key``, as FAILING_RUNS
    describes them; returns the new config's path."""
    src = json.loads(Path(corpus_file("deadlock", "check.json")).read_text())
    src["program"] = corpus_file("deadlock", "program.calm")
    src["fixture"] = corpus_file("deadlock", "fig1.facts")
    for k, v in zip(key, value) if isinstance(key, tuple) else [(key, value)]:
        if k in ("program", "fixture") and isinstance(v, (str, bytes)):
            (tmp_path / k).write_bytes(v if isinstance(v, bytes) else v.encode())
            v = k
        if k is None:
            src = v
        else:
            src[k] = v
    cfg = tmp_path / "bad.json"
    cfg.write_bytes(src if isinstance(src, bytes) else json.dumps(src).encode())
    return str(cfg)


def assert_one_error_line(code, out, err, expect):
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error:") and expect in lines[0]
    assert "Traceback" not in err


@pytest.mark.parametrize("verb", ["run", "check", "coordination"])
@pytest.mark.parametrize("key,value", MALFORMED_CONFIGS + [
    pytest.param(key, value, id=case) for key, value, _, case in FAILING_RUNS
])
def test_malformed_config_exits_two_with_one_error_line(tmp_path, capsys, verb, key, value):
    expect = next((e for k, v, e, _ in FAILING_RUNS if (k, v) == (key, value)), repr(key))
    assert_one_error_line(*run_cli(capsys, verb, write_config(tmp_path, key, value)), expect)


@pytest.mark.parametrize("key,value,expect", [
    pytest.param(key, value, expect, id=case) for key, value, expect, case in DEALT_BY_THE_CONFIG
])
def test_a_fixture_the_config_cannot_deal_fails_run_and_check_but_not_coordination(
    tmp_path, capsys, key, value, expect
):
    path = write_config(tmp_path, key, value)
    for verb in ("run", "check"):
        assert_one_error_line(*run_cli(capsys, verb, path), expect)
    code, out, err = run_cli(capsys, "coordination", path)
    assert code in (0, 1) and out and err == ""


@pytest.mark.parametrize("machines,override,expect", [
    # over deadlock/check.json's fixture, which names @m1, @m2 and @m3
    (3, "2", "fig1.facts: nbr(@m1, @m3): names @m3, which is not in the network"),
    (2, "3", None),
])
def test_coordination_checks_the_fixture_against_the_network_it_runs_on(
    tmp_path, capsys, machines, override, expect
):
    path = write_config(tmp_path, ("machines", "partitioning"), (machines, "colocate"))
    code, out, err = run_cli(capsys, "coordination", "--machines", override, path)
    if expect:
        assert_one_error_line(code, out, err, expect)
    else:
        assert code == 1 and out.startswith("coordination-required") and err == ""


def test_coordination_on_fewer_than_two_machines_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_:
        run_cli(capsys, "coordination", "--machines", "1", corpus_file("deadlock", "coordination.json"))
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "--machines" in errors[0]
    assert "Traceback" not in err


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_a_reader_that_closes_stdout_changes_no_exit_code(unbuffered):
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(calmlab.__file__).parents[1]),
               PYTHONUNBUFFERED=unbuffered)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "calmlab.cli", "run", corpus_file("deadlock", "run.json"),
             "--seed", "7", "--json"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 0
    assert proc.stderr == ""  # no error: line, and no failed flush at exit
