"""The repository benchmark: workloads, end-to-end metrics and a traced per-layer breakdown.

Run it with ``python3 perfbench/run.py --workload <select|serve|market>``;
see ``perfbench/README.md`` for the workloads, the metrics and the layer map.
"""
