import os

import pytest

from cantordyn.cli import main

UNIFORM = "measure uniform\ndepth_bound 3\n"
NONGOOD = "measure uniform\n\nmeasure quarter\nweight e 1/4\n"
BADWEIGHT = "measure broken\nweight e 3/2\n"


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


def test_validate_makes_no_oracle_search(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("validate searched for a subset")

    monkeypatch.setattr("cantordyn.oracles.subset_in_box", refuse)
    assert main(["validate", "--family", write(tmp_path, "good.txt", UNIFORM)]) == 0
    assert main(["validate", "--family", write(tmp_path, "bad.txt", NONGOOD)]) == 2


def test_build_writes_deterministic_outputs(tmp_path, capsys):
    fam = write(tmp_path, "fam.txt", UNIFORM)
    out = str(tmp_path / "out")
    assert main(["build", "--family", fam, "--stages", "2", "--out", out]) == 0
    names = ["tower.txt", "build.log", "stage_00.dot", "stage_01.dot", "stage_02.dot"]
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
    assert "GoodnessFailure" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "tower.txt"))


def test_verify_written_tower(tmp_path, capsys):
    fam = write(tmp_path, "fam.txt", UNIFORM)
    out = str(tmp_path / "out")
    assert main(["build", "--family", fam, "--stages", "2", "--out", out]) == 0
    capsys.readouterr()
    assert main(["verify", "--out", out]) == 0
    text = capsys.readouterr().out
    assert "verified: all invariants hold" in text
    assert "first-return probe" in text


def test_verify_catches_edited_atom(tmp_path, capsys):
    fam = write(tmp_path, "fam.txt", UNIFORM)
    out = str(tmp_path / "out")
    assert main(["build", "--family", fam, "--stages", "2", "--out", out]) == 0
    tower = os.path.join(out, "tower.txt")
    with open(tower) as fh:
        lines = fh.read().splitlines()
    lines[lines.index("0011")] = "0000"
    with open(tower, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["verify", "--out", out]) == 3
    assert "violated:" in capsys.readouterr().out


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
    assert main(["verify", "--out", out]) == 1


def test_verify_can_build_in_memory(tmp_path, capsys):
    fam = write(tmp_path, "fam.txt", UNIFORM)
    missing = tmp_path / "nowhere"
    args = ["verify", "--family", fam, "--stages", "2", "--out", str(missing)]
    assert main(args) == 0
    assert not missing.exists()
    assert main(["verify", "--out", str(missing)]) == 1


def test_export_dot_needs_tower(tmp_path, capsys):
    fam = write(tmp_path, "fam.txt", UNIFORM)
    out = str(tmp_path / "out")
    assert main(["export-dot", "--out", out]) == 1
    assert main(["build", "--family", fam, "--stages", "1", "--out", out]) == 0
    dot = os.path.join(out, "stage_01.dot")
    with open(dot, "rb") as fh:
        blob = fh.read()
    os.remove(dot)
    assert main(["export-dot", "--out", out]) == 0
    with open(dot, "rb") as fh:
        assert fh.read() == blob


def test_usage_errors_exit_1(tmp_path, capsys):
    fam = write(tmp_path, "fam.txt", UNIFORM)
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["build"]) == 1
    assert main(["build", "--family", fam, "--eps", "0/1"]) == 1
    assert main(["build", "--family", fam, "--eps", "half"]) == 1
    assert main(["validate", "--family", str(tmp_path / "absent.txt")]) == 1
