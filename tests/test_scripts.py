"""Smoke tests: the bundled scripts run to completion on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def run_script(script, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def test_run_demo_drives_every_phase(scripts_dir, tmp_path):
    result = run_script(
        scripts_dir / "run_demo.py", "--articles", "30", "--workdir", "demo", cwd=tmp_path
    )
    assert result.returncode == 0, result.stderr
    for phase in ("index", "weaklabel", "train", "eval", "query"):
        assert f"== {phase} ==" in result.stdout
    work = tmp_path / "demo"
    for artifact in ("lex_index.bin", "dense_index.bin", "model.json", "eval_report.json"):
        assert (work / artifact).is_file()
    assert (work / ".statuteqa.lock").read_text() == ""  # left in place, never written


def test_sweep_quickview_reports_every_setting(scripts_dir, tmp_path):
    result = run_script(
        scripts_dir / "sweep_quickview.py", "--families", "5", "--members", "3", cwd=tmp_path
    )
    assert result.returncode == 0, result.stderr
    rows = result.stdout.splitlines()
    assert rows[0].startswith("BM25(alpha,beta)")
    assert [row.split()[0] for row in rows[1:]] == [
        "BM25(0,1)", "BM25(1,0)", "BM25(1,1)", "BM25(1.5,1)",
    ]
