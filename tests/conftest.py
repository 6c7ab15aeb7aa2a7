"""Every tier-1 run loads the raise-reach plugin, ``raise_reach.py``."""

pytest_plugins = ["raise_reach"]
