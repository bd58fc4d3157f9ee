"""The repository's benchmark: serving, paper reproduction, fleet provisioning.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload against the program under ``src/`` and prints one JSON
object as its last stdout line. The benchmark measures from outside: it
drives the program through its CLIs, sockets and public functions, and
its traced mode wraps public callables from these files only.
"""
