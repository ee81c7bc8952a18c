"""Compiled stream-op kernels: none. Every stream op runs the one plain-Python
path in ``core`` and ``baselines``; this stub keeps ``ENABLED`` for tools that
record whether compiled kernels are active.
"""

ENABLED = False
