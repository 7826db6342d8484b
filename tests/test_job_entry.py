"""The ``ray job submit`` entry point: runs standalone (own Ray),
reads real Parquet pages, resumes from manifests on re-submit."""

import json
import os
import subprocess
import sys

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
JOB = os.path.join(REPO, "jobs", "kg_materialize_job.py")


def _run(*args):
    env = dict(os.environ, RAY_DEDUP_LOGS="0")
    out = subprocess.run(
        [sys.executable, JOB, *args], cwd=REPO, env=env,
        capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_job_synthetic_and_resume(tmp_path):
    out_dir = str(tmp_path / "kg")
    r1 = _run("--synthetic", "300", "--output", out_dir,
              "--shards", "4")
    assert r1["triples"] > 0 and r1["resumed_shards"] == 0
    # re-submit: every shard skips via its manifest, rows identical
    r2 = _run("--synthetic", "300", "--output", out_dir,
              "--shards", "4")
    assert r2["triples"] == r1["triples"]
    assert r2["resumed_shards"] == 4


def test_job_parquet_input(tmp_path):
    sys.path.insert(0, REPO)
    from sophia_rs_ray.sources.pages import page_record

    recs = [page_record(i, 200) for i in range(200)]
    src = str(tmp_path / "pages.parquet")
    pq.write_table(pa.table({k: [r[k] for r in recs] for k in recs[0]}),
                   src)
    r = _run("--input", src, "--output", str(tmp_path / "kg2"),
             "--shards", "2", "--orders", "spo")
    assert r["triples"] > 0


def test_job_sigkill_mid_run_then_resume(tmp_path):
    """Driver death: SIGKILL the whole job process as soon as the first
    shard manifest lands (mid-write), then re-submit — the rerun must
    complete from the surviving manifests with exactly the triples a
    clean run produces."""
    import glob
    import signal
    import time

    out_dir = str(tmp_path / "kg_killed")
    clean_dir = str(tmp_path / "kg_clean")
    ref = _run("--synthetic", "2000", "--output", clean_dir,
               "--shards", "8", "--orders", "spo")

    env = dict(os.environ, RAY_DEDUP_LOGS="0")
    proc = subprocess.Popen(
        [sys.executable, JOB, "--synthetic", "2000",
         "--output", out_dir, "--shards", "8", "--orders", "spo"],
        cwd=REPO, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    deadline = time.time() + 240
    killed = False
    while time.time() < deadline and proc.poll() is None:
        if glob.glob(os.path.join(out_dir, "spo", "shard=*",
                                  "_manifest-*.json")):
            proc.send_signal(signal.SIGKILL)
            killed = True
            break
        time.sleep(0.05)
    proc.wait(timeout=240)
    # whether we caught it mid-write (usual) or it finished first
    # (fast box), the re-submit must converge to the clean result
    r = _run("--synthetic", "2000", "--output", out_dir,
             "--shards", "8", "--orders", "spo")
    assert r["triples"] == ref["triples"]
    if killed:
        # at least the manifest we saw before the kill was reused
        assert r["resumed_shards"] >= 1


def test_job_orders_are_stripped(tmp_path):
    r = _run("--synthetic", "100", "--output", str(tmp_path / "kg"),
             "--shards", "2", "--orders", "spo, pos")
    assert r["orders"] == "spo,pos" and r["triples"] > 0


def _rejected_before_ray(flags, tmp_path, monkeypatch):
    """The job exits with a usage error before ray.init (or any other
    Ray call) runs, and writes nothing."""
    import importlib.util

    import ray

    def no_ray(*_a, **_k):
        raise AssertionError("Ray was touched before the flags were checked")

    monkeypatch.setattr(ray, "init", no_ray)
    monkeypatch.setattr(ray, "is_initialized", no_ray)
    spec = importlib.util.spec_from_file_location("kg_job", JOB)
    job = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(job)
    monkeypatch.setattr(sys, "argv", [
        JOB, "--synthetic", "10", "--output", str(tmp_path / "kg"),
        *flags])
    with pytest.raises(SystemExit) as exc:
        job.main()
    assert exc.value.code != 0
    assert not os.path.exists(tmp_path / "kg")


@pytest.mark.parametrize("orders", ["spo,xyz", "spo,spo", "spo,,pos"])
def test_job_rejects_bad_orders_before_ray(orders, tmp_path, monkeypatch):
    _rejected_before_ray(["--orders", orders], tmp_path, monkeypatch)


@pytest.mark.parametrize("flags", [["--shards", "0"], ["--shards", "-3"],
                                   ["--blocks", "0"], ["--blocks", "-1"]])
def test_job_rejects_bad_counts_before_ray(flags, tmp_path, monkeypatch):
    """A zero shard count would extract every page and report 0
    triples; a zero block count has no meaning."""
    _rejected_before_ray(flags, tmp_path, monkeypatch)
