#!/usr/bin/env python
"""``ray job submit`` entry point for the flagship KG-construction
pipeline (north rule: "launched by ray job submit on fixed N and 4N
node clusters").

Reads a Common-Crawl-style pages Parquet table (columns url:string,
warc_ts:timestamp, html:binary|string, text:string, lang:string),
extracts RDFa/microdata/JSON-LD triples, exact-dedups, and materializes
sorted SPO/POS/OSP Parquet layouts with per-partition lineage manifests
(checkpoint-resumable: re-submitting after a failure skips finished
shards).  Prints one JSON report line on success.

Cluster usage (driver runs inside the cluster; ray.init() with no
address attaches to it):

    ray job submit --working-dir . -- \
        python jobs/kg_materialize_job.py \
            --input  s3://bucket/pages/     \
            --output s3://bucket/kg_out/    \
            --shards 512

Two-cluster-size scaling evidence (the N vs 4N criterion): submit the
SAME job with the SAME --input/--shards to an N-node and a 4N-node
cluster and compare triples/sec from the report lines.  In this
sandbox the equivalent evidence is produced by ``python bench.py
--scaling`` (fresh ray.init(num_cpus=4/8/16/32) processes over the
same input — see BASELINE.md).

Local smoke (synthetic pages, no cluster):

    python jobs/kg_materialize_job.py --synthetic 5000 \
        --output /tmp/kg_job_out --shards 16
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--input", help="pages Parquet dir/file(s)")
    ap.add_argument("--output", required=True,
                    help="output dir for the sorted layouts")
    ap.add_argument("--shards", type=int, default=64,
                    help="hash shards per index order (scale with "
                         "cluster size; ~1-2x total cores)")
    ap.add_argument("--orders", default="spo,pos,osp")
    ap.add_argument("--blocks", type=int, default=None,
                    help="override input block count (default: let "
                         "read_parquet derive it from file layout)")
    ap.add_argument("--no-resume", action="store_true",
                    help="ignore existing manifests (full recompute)")
    ap.add_argument("--synthetic", type=int, default=None,
                    help="use N deterministic synthetic pages instead "
                         "of --input (local smoke/testing)")
    args = ap.parse_args()
    # validate before any work starts: a typo'd order must not cost a
    # cluster attach and a full extract pass
    from sophia_rs_ray.stages.materialize import ORDERS

    orders = tuple(o.strip() for o in args.orders.split(","))
    bad = [o for o in orders if o not in ORDERS]
    if bad:
        ap.error(f"--orders: unknown order(s) {bad}; "
                 f"choose from {sorted(ORDERS)}")
    if len(set(orders)) != len(orders):
        ap.error(f"--orders: duplicate order in {list(orders)}")
    if args.shards < 1:
        ap.error(f"--shards must be >= 1, got {args.shards}")
    if args.blocks is not None and args.blocks < 1:
        ap.error(f"--blocks must be >= 1, got {args.blocks}")
    if args.synthetic is None and not args.input:
        ap.error("one of --input / --synthetic is required")

    import ray

    if not ray.is_initialized():
        # inside `ray job submit` this attaches to the cluster;
        # standalone it starts a local one
        ray.init(ignore_reinit_error=True)

    import ray.data as rd

    from sophia_rs_ray.pipelines.kg import kg_materialize_pipeline
    from sophia_rs_ray.sources.pages import pages_dataset

    if args.synthetic is not None:
        pages = pages_dataset(args.synthetic,
                              override_num_blocks=args.blocks)
    else:
        pages = rd.read_parquet(
            args.input, columns=["url", "html"],
            override_num_blocks=args.blocks)

    t0 = time.perf_counter()
    report = kg_materialize_pipeline(
        pages, args.output,
        num_shards=args.shards,
        orders=orders,
        resume=not args.no_resume)
    dt = time.perf_counter() - t0
    first = orders[0]
    rows = report[first]["rows"]
    print(json.dumps({
        "job": "kg_materialize", "output": args.output,
        "orders": ",".join(orders), "shards": args.shards,
        "triples": rows, "sec": round(dt, 2),
        "triples_per_sec": round(rows / dt, 1) if dt else None,
        "resumed_shards": len(report[first]["skipped"]),
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
