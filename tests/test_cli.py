import hashlib
import os
import runpy
import subprocess
import sys

import pytest

import cantordyn
import cantordyn.builder
import cantordyn.cli
import cantordyn.measure
import cantordyn.tower
from cantordyn.builder import enumerate_pairs, load_sequence
from cantordyn.cli import main
from cantordyn.measure import parse_family
from test_builder import fresh_stages

UNIFORM = "measure uniform\ndepth_bound 3\n"
NONGOOD = "measure uniform\n\nmeasure quarter\nweight e 1/4\n"
BADWEIGHT = "measure broken\nweight e 3/2\n"
THIRD = "measure third\nweight e 1/3\n"


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_validate_uniform(tmp_path, capsys):
    fam = write(tmp_path, "fam.txt", UNIFORM)
    assert main(["validate", "--family", fam]) == 0
    out = capsys.readouterr().out
    assert "eps 1/2 -> delta 1/1 (depth 1)" in out
    assert out.splitlines()[-1].startswith("good: one generator")


def test_module_entry_point(tmp_path):
    # python -m cantordyn runs the same front end in a fresh interpreter
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    cmd = [sys.executable, "-m", "cantordyn", "validate", "--family", write(tmp_path, "fam.txt", UNIFORM)]
    run = subprocess.run(cmd, env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1].startswith("good: one generator")


def test_module_entry_point_help_in_process(monkeypatch, capsys):
    # the entry point in this process, where a line trace of the suite sees it
    monkeypatch.setattr(sys, "argv", ["cantordyn", "--help"])
    with pytest.raises(SystemExit) as info:
        runpy.run_module("cantordyn", run_name="__main__")
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: cantordyn {validate,build,verify,export-dot} ")


def test_validate_seeded_output_is_stable(tmp_path, capsys):
    # the decision is exact, so there is no seed to pass
    fam = write(tmp_path, "fam.txt", UNIFORM)
    assert main(["validate", "--family", fam]) == 0
    first = capsys.readouterr().out
    assert main(["validate", "--family", fam]) == 0
    assert capsys.readouterr().out == first
    assert main(["validate", "--family", fam, "--seed", "7"]) == 1


def test_validate_rejects_bad_weight(tmp_path, capsys):
    fam = write(tmp_path, "fam.txt", BADWEIGHT)
    assert main(["validate", "--family", fam]) == 1
    assert main(["build", "--family", fam]) == 1


def test_validate_flags_ungood_family(tmp_path, capsys):
    fam = write(tmp_path, "fam.txt", NONGOOD)
    assert main(["validate", "--family", fam]) == 2
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.startswith("not good: A = [00] has masses (1/4, 1/8) < (1/2, 3/4) of B = [1]")
    assert "the A/B ratios (1/2, 1/6) are not one dyadic q" in last


def test_validate_rejects_duplicate_generators(tmp_path, capsys):
    fam = write(tmp_path, "fam.txt", "measure a\nweight e 1/3\n\nmeasure b\nweight e 1/3\n")
    assert main(["validate", "--family", fam]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == [
        "duplicate generators: 0 and 1",
        "generators 2, all weights in (0,1)",
        "eps 1/2 -> delta 1/2 (depth 2)",
    ]
    assert lines[-1] == "family rejected"


def test_validate_makes_no_oracle_search(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("validate searched for a subset")

    monkeypatch.setattr("cantordyn.oracles.subset_in_box", refuse)
    monkeypatch.setattr("cantordyn.oracles._in_box", refuse)
    assert main(["validate", "--family", write(tmp_path, "good.txt", UNIFORM)]) == 0
    assert main(["validate", "--family", write(tmp_path, "bad.txt", NONGOOD)]) == 2


def test_build_writes_deterministic_outputs(tmp_path, capsys):
    fam = write(tmp_path, "fam.txt", UNIFORM)
    out = str(tmp_path / "out")
    assert main(["build", "--family", fam, "--stages", "2", "--out", out]) == 0
    names = ["tower.txt", "build.log", "bratteli.dot"]
    assert sorted(os.listdir(out)) == sorted(names)
    blobs = {}
    for name in names:
        path = os.path.join(out, name)
        assert os.path.exists(path), name
        with open(path, "rb") as fh:
            blobs[name] = fh.read()
    assert b"construction complete" in blobs["build.log"]
    assert b"cantordyn tower v1" in blobs["tower.txt"]
    # a rerun must reproduce every byte
    assert main(["build", "--family", fam, "--stages", "2", "--out", out]) == 0
    for name in names:
        with open(os.path.join(out, name), "rb") as fh:
            assert fh.read() == blobs[name], name


def test_build_fails_on_ungood_family(tmp_path, capsys):
    fam = write(tmp_path, "fam.txt", NONGOOD)
    out = str(tmp_path / "out")
    assert main(["build", "--family", fam, "--stages", "1", "--out", out]) == 2
    # refused up front, with the pair validate prints
    assert "stage 0 goodness failed: GoodnessFailure: A = [00]" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "tower.txt"))


def test_build_names_the_stage_an_oracle_failed_in(tmp_path, capsys, counts):
    # the table's refused build, as the builder tests have it
    fam = write(tmp_path, "fam.txt", counts["refused/family"])
    out = str(tmp_path / "out")
    stages, max_depth = str(counts["refused/stages"]), str(counts["refused/max-depth"])
    assert main(["build", "--family", fam, "--stages", stages, "--max-depth", max_depth, "--out", out]) == 2
    assert capsys.readouterr().err == "error: %s\n" % counts["refused/error"]
    assert not os.path.exists(os.path.join(out, "tower.txt"))


def test_build_validates_the_family_once(tmp_path, capsys, monkeypatch):
    calls = []
    real = cantordyn.measure.validate_family

    def counted(k):
        calls.append(k)
        return real(k)

    # builder no longer binds the name; patching it anyway counts a call there if it comes back
    for mod in (cantordyn.measure, cantordyn.builder, cantordyn.cli):
        monkeypatch.setattr(mod, "validate_family", counted, raising=False)
    fam = write(tmp_path, "fam.txt", UNIFORM)
    assert main(["build", "--family", fam, "--stages", "2", "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1
    assert "eps 1/2 -> delta 1/1 (depth 1)" in capsys.readouterr().out


@pytest.mark.parametrize(
    "text, stages",
    [(UNIFORM, "3"), (THIRD, "2"), (UNIFORM, "6")],
    ids=["uniform_three_stages", "third_two_stages", "uniform_six_stages"],
)
def test_build_validates_each_stage_once(tmp_path, capsys, monkeypatch, text, stages):
    # the tower moves hand their stage to validate_sequence unchecked, and
    # a stage equal to its predecessor is that partition again: each stage
    # that does not repeat its predecessor is checked once
    calls = []
    real = cantordyn.tower.from_columns

    def counted(k, columns):
        calls.append(k)
        return real(k, columns)

    for mod in (cantordyn, cantordyn.tower, cantordyn.builder):
        monkeypatch.setattr(mod, "from_columns", counted)
    fam = write(tmp_path, "fam.txt", text)
    out = str(tmp_path / "out")
    assert main(["build", "--family", fam, "--stages", stages, "--max-depth", "16", "--out", out]) == 0
    checked = len(calls)
    with open(os.path.join(out, "tower.txt")) as fh:
        g = load_sequence(fh.read())
    fresh = fresh_stages(g)
    assert len(fresh) < len(g.stages)  # some stage repeats its predecessor
    assert checked == len(fresh)


def test_verify_builds_no_delta_table(tmp_path, capsys, monkeypatch):
    # the eps -> delta table is build's and validate's report; verify reads
    # only the weight range and the duplicate-generator verdict
    fam = write(tmp_path, "fam.txt", THIRD)
    out = str(tmp_path / "out")
    assert main(["build", "--family", fam, "--stages", "2", "--max-depth", "16", "--out", out]) == 0
    calls = []
    real = cantordyn.measure.TreeMeasure._peak

    def counted(self, d):
        calls.append(d)
        return real(self, d)

    monkeypatch.setattr(cantordyn.measure.TreeMeasure, "_peak", counted)
    assert main(["verify", "--out", out]) == 0
    assert calls == []
    assert main(["validate", "--family", fam]) == 0
    assert calls


def test_verify_written_tower(tmp_path, capsys):
    fam = write(tmp_path, "fam.txt", UNIFORM)
    out = str(tmp_path / "out")
    assert main(["build", "--family", fam, "--stages", "2", "--out", out]) == 0
    capsys.readouterr()
    assert main(["verify", "--out", out]) == 0
    text = capsys.readouterr().out
    assert "verified: all invariants hold" in text
    assert "first-return probe" in text


@pytest.mark.parametrize(
    "text, stages, max_depth, name",
    [
        (UNIFORM, "6", "12", "uniform-6"),
        (THIRD, "4", "16", "third-4"),
        (UNIFORM, "3", "12", "uniform-3"),
        # the largest pinned build
        (THIRD, "8", "16", "third-8"),
    ],
    ids=["uniform6", "third4", "uniform3", "third8"],
)
def test_verify_stdout_bytes_pinned(tmp_path, capsys, pins, text, stages, max_depth, name):
    # the table's keys under name/ are files of build --out name, and
    # verify.txt, verify's stdout on it
    fam = write(tmp_path, "fam.txt", text)
    out = tmp_path / name
    assert main(["build", "--family", fam, "--stages", stages, "--max-depth", max_depth, "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", "--out", str(out)]) == 0
    (out / "verify.txt").write_bytes(capsys.readouterr().out.encode())
    want = {key: digest for key, digest in pins.items() if key.startswith(name + "/")}
    assert name + "/verify.txt" in want
    assert {key: hashlib.sha256((tmp_path / key).read_bytes()).hexdigest() for key in want} == want


def atom_line(lines, stage, level):
    """Index of the line of column 0's atom at level in stage's block."""
    header = next(i for i, x in enumerate(lines) if x.startswith("stage %d columns " % stage))
    return header + 2 + level


def test_verify_catches_edited_atom(tmp_path, capsys):
    fam = write(tmp_path, "fam.txt", UNIFORM)
    out = str(tmp_path / "out")
    assert main(["build", "--family", fam, "--stages", "2", "--out", out]) == 0
    tower = os.path.join(out, "tower.txt")
    with open(tower) as fh:
        lines = fh.read().splitlines()
    # stage 1's base atom twice, and its second atom nowhere
    lines[atom_line(lines, 1, 1)] = lines[atom_line(lines, 1, 0)]
    with open(tower, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["verify", "--out", out]) == 3
    assert "violated:" in capsys.readouterr().out


def test_verify_catches_edited_last_stage_atom(tmp_path, capsys):
    # the damaged stage is the last one, which the first-return probe reads
    fam = write(tmp_path, "fam.txt", UNIFORM)
    out = str(tmp_path / "out")
    assert main(["build", "--family", fam, "--stages", "2", "--out", out]) == 0
    tower = os.path.join(out, "tower.txt")
    with open(tower) as fh:
        lines = fh.read().splitlines()
    lines[atom_line(lines, 2, 1)] = lines[atom_line(lines, 2, 0)]
    with open(tower, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["verify", "--out", out]) == 3
    text = capsys.readouterr().out
    assert "first-return probe: not run (the set is not a union of last-stage atoms)" in text
    assert text.splitlines()[-1].startswith("violated: stage 2 is not a tower partition")


# each edit returns the edited lines and the violation verify reports on them


def drop_pairs(lines):
    edited = ["pairs 0" if x.startswith("pairs ") else x for x in lines if not x.startswith("pair ")]
    return edited, "schedule: 0 pairs for 4 stages, need one per stage after stage 0"


def loosen_budgets(lines):
    edited = [x.rsplit(" ", 1)[0] + " 1/1" if x.startswith("stage ") else x for x in lines]
    return edited, "schedule: stage 1 budget 1/1, need 1/2"


def copy_a_pair(lines):
    # pair 1's line over pair 2's: stage 1 already splits pair 1, and every
    # later column visits its two sets equally often
    at = [i for i, x in enumerate(lines) if x.startswith("pair ")]
    first, second = (lines[i][len("pair ") :] for i in at[:2])
    assert first != second
    edited = list(lines)
    edited[at[1]] = lines[at[0]]
    return edited, "schedule: pair 2 is %s, the enumeration gives %s" % (first, second)


# every stage of the edited tower still holds every structural invariant
@pytest.mark.parametrize("edit", [drop_pairs, loosen_budgets, copy_a_pair], ids=("pairs", "budgets", "pair"))
def test_verify_rejects_an_edited_schedule(tmp_path, capsys, edit):
    fam = write(tmp_path, "fam.txt", UNIFORM)
    out = str(tmp_path / "out")
    assert main(["build", "--family", fam, "--stages", "3", "--out", out]) == 0
    tower = os.path.join(out, "tower.txt")
    with open(tower) as fh:
        edited, violation = edit(fh.read().splitlines())
    with open(tower, "w") as fh:
        fh.write("\n".join(edited) + "\n")
    capsys.readouterr()
    assert main(["verify", "--out", out]) == 3
    assert capsys.readouterr().out.splitlines()[-1] == "violated: " + violation


def test_verify_reports_a_stage_too_shallow_to_divide(tmp_path, capsys):
    # one column [0], [1] holds every invariant, but three first-return
    # classes need a column of height three or more; its one pair is the
    # enumeration's first
    out = tmp_path / "out"
    out.mkdir()
    (u, v), = enumerate_pairs(parse_family("measure mu0\n"), 1)
    (out / "tower.txt").write_text(
        "cantordyn tower v1\ngenerators 1\nmeasure mu0\ndepth_bound 0\nend measure\npairs 1\n"
        "pair %s %s\nstages 2\nstage 0 columns 1 budget 1/1\ncolumn 1\nX\n"
        "stage 1 columns 1 budget 1/2\ncolumn 2\n0\n1\nend tower\n" % (u.text(), v.text())
    )
    assert main(["verify", "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "first-return probe: stage too shallow (remainder holds 1/1 of the set, more than the allowed 1/4)",
        "verified: all invariants hold",
    ]


def test_verify_rejects_truncated_file(tmp_path, capsys):
    fam = write(tmp_path, "fam.txt", UNIFORM)
    out = str(tmp_path / "out")
    assert main(["build", "--family", fam, "--stages", "1", "--out", out]) == 0
    tower = os.path.join(out, "tower.txt")
    with open(tower) as fh:
        lines = fh.read().splitlines()
    with open(tower, "w") as fh:
        fh.write("\n".join(lines[:-4]) + "\n")
    assert main(["verify", "--out", out]) == 1


def test_verify_rejects_out_of_range_weight_edit(tmp_path, capsys):
    fam = write(tmp_path, "fam.txt", UNIFORM)
    out = str(tmp_path / "out")
    assert main(["build", "--family", fam, "--stages", "1", "--out", out]) == 0
    tower = os.path.join(out, "tower.txt")
    with open(tower) as fh:
        lines = fh.read().splitlines()
    lines.insert(lines.index("end measure"), "weight e 3/2")
    with open(tower, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["verify", "--out", out]) == 1
    assert capsys.readouterr().err == "error: line 5, col 10: weight 3/2 not in (0,1)\n"


def test_verify_needs_a_written_tower(tmp_path, capsys):
    fam = write(tmp_path, "fam.txt", UNIFORM)
    missing = tmp_path / "nowhere"
    assert main(["verify", "--out", str(missing)]) == 1
    assert "run build first" in capsys.readouterr().err
    # verify checks what build wrote; it builds nothing itself
    assert main(["verify", "--family", fam, "--stages", "2", "--out", str(missing)]) == 1
    assert not missing.exists()


def test_export_dot_needs_tower(tmp_path, capsys):
    fam = write(tmp_path, "fam.txt", UNIFORM)
    out = str(tmp_path / "out")
    assert main(["export-dot", "--out", out]) == 1
    assert main(["build", "--family", fam, "--stages", "1", "--out", out]) == 0
    dot = os.path.join(out, "bratteli.dot")
    with open(dot, "rb") as fh:
        blob = fh.read()
    os.remove(dot)
    assert main(["export-dot", "--out", out]) == 0
    with open(dot, "rb") as fh:
        assert fh.read() == blob


def test_export_dot_rewrites_the_diagram_build_wrote(tmp_path, capsys):
    # a non-dyadic build: export-dot draws the same diagram from tower.txt
    fam = write(tmp_path, "fam.txt", THIRD)
    out = str(tmp_path / "out")
    assert main(["build", "--family", fam, "--stages", "2", "--max-depth", "16", "--out", out]) == 0
    dot = os.path.join(out, "bratteli.dot")
    with open(dot, "rb") as fh:
        blob = fh.read()
    with open(dot, "w") as fh:
        fh.write("stale\n")
    capsys.readouterr()
    assert main(["export-dot", "--out", out]) == 0
    assert capsys.readouterr().out == "wrote %s\n" % dot
    with open(dot, "rb") as fh:
        assert fh.read() == blob


def test_export_dot_refuses_a_stage_that_is_not_a_partition(tmp_path, capsys):
    # the diagram labels a column by its base's masses, so a column whose
    # masses differ is reported, not drawn
    fam = write(tmp_path, "fam.txt", UNIFORM)
    out = str(tmp_path / "out")
    assert main(["build", "--family", fam, "--stages", "2", "--out", out]) == 0
    tower = os.path.join(out, "tower.txt")
    with open(tower) as fh:
        lines = fh.read().splitlines()
    # stage 1, level 2: the atom's parent cylinder, twice the mass of the base
    at = atom_line(lines, 1, 2)
    assert "," not in lines[at]
    lines[at] = lines[at][:-1]
    with open(tower, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    for name in os.listdir(out):
        if name.endswith(".dot"):
            os.remove(os.path.join(out, name))
    capsys.readouterr()
    assert main(["export-dot", "--out", out]) == 3
    assert capsys.readouterr().out == (
        "violated: stage 1 is not a tower partition: column 0 level 2 differs in mass from its base\n"
    )
    assert not [name for name in os.listdir(out) if name.endswith(".dot")]


def test_usage_errors_exit_1(tmp_path, capsys):
    fam = write(tmp_path, "fam.txt", UNIFORM)

    def refused(argv, token):
        # a usage line, then the error naming the offending token, on stderr
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        usage, error = captured.err.splitlines()
        assert usage.startswith("usage: cantordyn {validate,build,verify,export-dot} ")
        assert error.startswith("cantordyn: error: ") and token in error, error

    refused([], "nothing")
    refused(["frobnicate"], "frobnicate")
    refused(["build"], "--family is required")
    refused(["build", "--family"], "--family needs a value")
    refused(["build", "--family", fam, "--stages"], "--stages needs a value")
    refused(["build", "--family", fam, "--eps", "0/1"], "'--eps'")
    refused(["build", "--family", fam, "--eps", "half"], "'--eps'")
    refused(["build", "--family", fam, "--stages", "half"], "--stages takes an int, got 'half'")
    refused(["build", "--family", fam, "--max-depth=1.5"], "--max-depth takes an int, got '1.5'")
    refused(["build", "--family", fam, "--depth-cap", "3"], "'--depth-cap'")
    # names are spelled in full: no prefix abbreviations
    refused(["build", "--family", fam, "--max", "16"], "'--max'")
    refused(["build", fam], repr(fam))
    refused(["verify", "--out", str(tmp_path), "extra"], "'extra'")
    refused(["verify", "-o", str(tmp_path)], "'-o'")
    # an option of another command is unknown here
    refused(["verify", "--stages", "2"], "'--stages'")
    # a value starting with '-' is the value, so a negative cap is refused
    # by the construction, before it runs
    assert main(["build", "--family", fam, "--max-depth", "-3", "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: max_depth must be at least 0, got -3\n"
    assert main(["validate", "--family", str(tmp_path / "absent.txt")]) == 1


HELP = (
    "usage: cantordyn {validate,build,verify,export-dot} [--name value | --name=value ...]\n"
    "Kakutani-Rokhlin towers with a prescribed simplex of invariant measures\n"
    "\n"
    "  validate    check a family and decide whether it is good\n"
    "              --family (required)\n"
    "  build       construct the tower sequence and write it out\n"
    "              --family (required) --stages 4 --max-depth 12 --out out\n"
    "  verify      verify a written tower against every invariant\n"
    "              --out out\n"
    "  export-dot  write the Bratteli diagram of a written tower\n"
    "              --out out\n"
)


@pytest.mark.parametrize("command", [[], ["validate"], ["build"], ["verify"], ["export-dot"]])
@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_lists_every_command_and_its_defaults(command, flag, capsys):
    assert main(command + [flag]) == 0
    assert capsys.readouterr() == (HELP, "")


def test_an_equals_sign_joins_an_option_to_its_value(tmp_path, capsys):
    fam = write(tmp_path, "fam.txt", UNIFORM)
    spaced = str(tmp_path / "spaced")
    joined = str(tmp_path / "joined")
    assert main(["build", "--family", fam, "--stages", "2", "--max-depth", "12", "--out", spaced]) == 0
    assert main(["build", "--family=" + fam, "--stages=2", "--max-depth=12", "--out=" + joined]) == 0
    for name in ("tower.txt", "build.log", "bratteli.dot"):
        with open(os.path.join(spaced, name), "rb") as a, open(os.path.join(joined, name), "rb") as b:
            assert a.read() == b.read(), name
    capsys.readouterr()
    assert main(["verify", "--out=" + joined]) == 0
    assert capsys.readouterr().out.endswith("verified: all invariants hold\n")


def test_the_command_line_imports_no_argparse():
    # argparse's first message pulls in gettext and locale, a cost every
    # build and verify would pay at start-up
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys\nfrom cantordyn.cli import main\nrc = main(['verify', '--help'])\n"
    code += "print(rc, 'argparse' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "0 False"
