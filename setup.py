"""Build the optional compiled census kernel.

The C extension is optional: without a working C compiler the build still
succeeds, and kernel.py selects the pure-Python fallback at import time.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[Extension("qrcensus._speedups", ["src/qrcensus/_speedups.c"], optional=True)],
)
