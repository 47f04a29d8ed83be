"""The repo benchmark; ``python3 perfbench/run.py --help`` for usage."""
