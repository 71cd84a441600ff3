"""Closed-loop benchmark for the sipf pipeline.

Entry point: ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root.  ``run.py`` pins the
BLAS thread count before numpy is imported, so import the other modules of
this package only after that has happened.
"""
