"""The repository's performance benchmark (entry point: ``perfbench/run.py``)."""
