"""End-to-end, layer-by-layer benchmark of the window serving path.

Run from the repository root::

    python3 perfbench/run.py --workload fleet-lockstep-32 --seed 1 --seconds 10 --trace 0

``NOTES.md`` beside this file says why each workload exists and which layer
metric should move which end-to-end metric on which workload.
"""
