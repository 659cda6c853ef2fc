"""The command line end to end: the checks a console-script session makes.

Each check runs `hasd.cli.main` in process under tmp_path, except where
the process itself is what is checked: the rise of ru_maxrss while an
instance is built, and a bench rerun in a second process, whose string
hashes order sets and dicts of strings differently from the first's.
"""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hasd
from hasd.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
_ENV = {**os.environ,
        "PYTHONPATH": str(Path(hasd.__file__).resolve().parent.parent)}
_ENV.pop("PYTHONHASHSEED", None)  # each process draws its own string hashes
_ENTRY = "import sys; from hasd.cli import main; sys.exit(main(sys.argv[1:]))"


def _start(code, *argv):
    """`python -c code argv...` started in a new process, hasd importable."""
    return subprocess.Popen([sys.executable, "-c", code, *argv], env=_ENV,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)


def _finish(proc):
    """proc's stdout, once it has exited 0."""
    out, err = proc.communicate(timeout=300)
    assert proc.returncode == 0, err
    return out


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def _rows(path):
    with open(path) as fh:
        return list(csv.DictReader(line for line in fh
                                   if not line.startswith("#")))


def readme_example():
    """README's first python block, extracted as
    awk '/^```python$/{f=1;next} /^```$/{if(f)exit} f' extracts it."""
    lines, inside = [], False
    for line in README.read_text().splitlines():
        if line == "```python":
            inside = True
        elif line == "```" and inside:
            break
        elif inside:
            lines.append(line)
    return "\n".join(lines) + "\n"


def test_readme_library_example_runs_as_written(capsys):
    code = readme_example()
    assert "run(obj" in code
    exec(compile(code, str(README), "exec"), {"__name__": "__main__"})
    assert capsys.readouterr().out.count("\n") == 1


@pytest.mark.parametrize("seeds", [range(0, 8), range(8, 80)],
                         ids=["seeds_0_7", "seeds_8_79"])
def test_check_invariants_passes_the_benchmark_windows(capsys, seeds):
    # the invariants_matrix workload's body, and other 8-seed windows than
    # 0-7 its runs take
    assert main(["check-invariants", "--seeds",
                 ",".join(map(str, seeds))]) == 0
    assert "overall: PASS" in capsys.readouterr().out


def test_cli_runs_of_every_method_hold_their_invariants_and_rows(tmp_path,
                                                                capsys):
    # a HASD run with the quadratic's optimum attached passes every
    # invariant, alone and beside the four baselines; each summary final_f
    # and iters are the f and iter of its CSV's last row, and every row of
    # every method carries ||grad f||_{p*}, the baselines' taken in the
    # run's geometry
    argv = ["run", "--objective", "quadratic", "--d", "5", "--iters", "30",
            "--check-invariants"]
    assert main(argv + ["--out", str(tmp_path / "q")]) == 0
    assert _load(tmp_path / "q" / "summary.json")[
        "invariant_failures_total"] == 0
    out = tmp_path / "all5"
    assert main(argv + ["--methods", "hasd,gd,agd,lc,sd_p", "--out",
                        str(out)]) == 0
    capsys.readouterr()
    summary = _load(out / "summary.json")
    assert summary["invariant_failures_total"] == 0
    methods = summary["mus"]["0"]["methods"]
    assert sorted(methods) == ["agd", "gd", "hasd", "lc", "sd_p"]
    for m, entry in methods.items():
        rows = _rows(out / entry["csv"])
        assert rows, m
        assert float(rows[-1]["f"]) == entry["final_f"], m
        assert int(rows[-1]["iter"]) == entry["iters"], m
        assert [r["iter"] for r in rows if not r["grad_dual"]] == [], m


def test_cli_p2_run_with_its_reference_stops_inside_its_budget(tmp_path,
                                                              capsys):
    # a p = 2 run stops at its first iterate within eps, well inside 400
    # iterations, every invariant held
    out = tmp_path / "q2"
    assert main(["run", "--objective", "quadratic", "--d", "6", "--p", "2",
                 "--methods", "hasd", "--iters", "400", "--check-invariants",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    summary = _load(out / "summary.json")
    assert summary["invariant_failures_total"] == 0
    assert summary["mus"]["0"]["methods"]["hasd"]["iters"] < 400


def _tree(root):
    """{path under root: bytes} of every file below root."""
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_default_bench_reruns_byte_for_byte_in_a_new_process(tmp_path):
    # as `diff -r` compares two output directories of `hasd bench --seed 0`;
    # the two processes of the console script's entry point run side by side
    procs = [_start(_ENTRY, "bench", "--seed", "0", "--out",
                    str(tmp_path / name)) for name in ("a", "b")]
    for proc in procs:
        _finish(proc)
    first = _tree(tmp_path / "a")
    assert "summary.json" in first
    assert _tree(tmp_path / "b") == first


@pytest.mark.parametrize("objective", ["quadratic", "softmax"])
def test_an_objective_with_no_mu_term_runs_once_whatever_mu_says(
        tmp_path, capsys, objective):
    # the objective never reads --mu: both settings write one run, under
    # one config hash, labelled with the objective's mu of 0
    argv = ["run", "--objective", objective, "--d", "5", "--iters", "5",
            "--methods", "hasd,gd"]
    for mu in ("0", "1"):
        assert main(argv + ["--mu", mu, "--out", str(tmp_path / mu)]) == 0
    capsys.readouterr()
    first = _tree(tmp_path / "0")
    assert "hasd_mu0.csv" in first
    assert _tree(tmp_path / "1") == first
    config = json.loads(first["summary.json"])["config"]
    assert (config["mu"], config["mu_values"]) == (0.0, [0.0])


_RSS = """
import resource, hasd
r0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
obj = hasd.make_logsumexp_instance(4000, 1000, 1e-2, 0,
                                   declare_smoothness=True)
rise = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - r0) * 1024
print(rise / obj.A.nbytes)
"""


def test_building_the_large_instance_holds_a_and_one_block_of_rows():
    # building the 4000 x 1000 instance and its bound holds A (32 MB) and
    # one block of rows, not a mask, a cast, |A| and A*A besides; Linux
    # counts ru_maxrss in KiB
    assert float(_finish(_start(_RSS))) < 1.5
