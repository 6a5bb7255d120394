"""tools/bench_pairs.py on two stub checkouts."""
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import bench_pairs  # noqa: E402

# A stand-in for perfbench/run.py: logs its checkout and arguments, then prints
# a result line whose numbers depend on the checkout and on how many runs came before.
STUB = '''
import json, os, sys
from pathlib import Path

side = Path(__file__).resolve().parents[1].name
log = Path(os.environ["STUB_LOG"])
before = len(log.read_text().splitlines()) if log.exists() else 0
with log.open("a") as f:
    f.write(side + " " + " ".join(sys.argv[1:]) + "\\n")
if side == "broken":
    sys.exit(3)
throughput = {"parent": 100.0, "change": 110.0}[side] + before
setup = {"parent": 2.0, "change": 1.0}[side]
print("# stub run")
print(json.dumps({"correct": True, "attempted": 4, "failed": int(side == "change"),
                  "metrics": {"throughput": {"value": throughput, "unit": "units/s"},
                              "setup_s": {"value": setup, "unit": "s"}}}))
'''


def checkout(tmp_path, name):
    root = tmp_path / name
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(STUB)
    return root


def test_pairs_alternate_and_report_each_metric(tmp_path, monkeypatch, capsys):
    log = tmp_path / "runs.log"
    monkeypatch.setenv("STUB_LOG", str(log))
    parent, change = checkout(tmp_path, "parent"), checkout(tmp_path, "change")
    (change / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "throughput", "better": "higher"}, {"name": "setup_s", "better": "lower"}]}))
    code = bench_pairs.main(["--parent", str(parent), "--change", str(change), "--workload", "w",
                             "--pairs", "3", "--seconds", "0.5", "--seed", "7"])
    assert code == 0
    runs = log.read_text().splitlines()
    assert [r.split()[0] for r in runs] == ["parent", "change", "change", "parent", "parent", "change"]
    assert all(r.split()[1:] == ["--workload", "w", "--seed", "7", "--seconds", "0.5"] for r in runs)
    out = capsys.readouterr().out
    assert out.count("failed 1/4 checks") == 3 and out.count("failed 0/4 checks") == 3
    rows = {line.split()[0]: line.split() for line in out.splitlines() if line.split()[:1] in (["throughput"], ["setup_s"])}
    # parent runs 0, 3, 4 read 100, 103, 104; change runs 1, 2, 5 read 111, 112, 115
    assert rows["throughput"][1] == "103" and rows["throughput"][4] == "112"
    assert rows["throughput"][-1] == "3/3" and rows["setup_s"][-1] == "3/3"
    assert "failed checks over all runs: 3" in out


def test_a_run_without_a_result_line_fails(tmp_path, monkeypatch):
    monkeypatch.setenv("STUB_LOG", str(tmp_path / "runs.log"))
    parent, broken = checkout(tmp_path, "parent"), checkout(tmp_path, "broken")
    assert bench_pairs.main(["--parent", str(parent), "--change", str(broken), "--workload", "w",
                             "--pairs", "1", "--seconds", "0.1"]) == 1
