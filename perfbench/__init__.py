"""The repository benchmark: ``python3 perfbench/run.py --workload NAME ...``.

See ``perfbench/README.md`` for the workloads, the metrics and the
layer -> metric -> workload map.
"""
